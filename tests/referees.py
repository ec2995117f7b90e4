"""Second routes for the kernel, the potential and the first variation, kept as test referees.

The package computes each of these quantities by one route; these are the
independent ones it is checked against, and no run reaches them:

``torus_green_values``
    R_alpha by punctured product trapezoid sums on N^3 grids (the k = 0
    cell is excluded and re-added analytically via the local model
    m ~ |k|^2), evaluated for all z at once by an inverse FFT.  The puncture
    leaves a slowly convergent error ladder c0 N^(alpha-3) + c1 N^(alpha-5)
    + ..., so values from several resolutions are Richardson-extrapolated
    with those known exponents; the spread between extrapolation orders
    gives a (conservative) error estimate, and estimates above the requested
    tolerance raise QuadratureError.  Its grids must be at least four times
    the largest |z_i|, so it reaches only small displacements.
``direct_convolve``
    sum_y R(x - y) w(y) over the displacement matrix, a block of rows at a
    time: the quadratic-cost reference for the FFT convolution.
``potential_value``
    V at a single site, straight from the potential's parameters: the
    pointwise referee of ``PotentialSpec.table_on``.
``pairing``
    The first variation <J'(u), phi> through the bilinear-form expansion,
    with its own convolution.
"""

import numpy as np

from kclattice import Field, QuadratureError, convolve, fractional_degree_refined
from kclattice.energy import COERCIVE, CONSTANT, _check_kernel
from kclattice.kernel import _check_alpha, kernel_block
from kclattice.lattice import _edge_sum


def symbol_grid(resolution: int) -> np.ndarray:
    c = np.cos(2.0 * np.pi * np.arange(resolution) / resolution)
    return 6.0 - 2.0 * (c[:, None, None] + c[None, :, None] + c[None, None, :])


def cube_moment(alpha: float, points: int = 96) -> float:
    """Integral of |t|^-alpha over the unit cube [-1/2, 1/2]^3.

    Collapsing the radial direction against each exit face reduces this to
    a smooth square integral: I = 3/(3-alpha) * int_{[-1/2,1/2]^2}
    (q1^2 + q2^2 + 1/4)^(-alpha/2) dq, done by Gauss-Legendre.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(points)
    q = 0.5 * x
    wq = 0.5 * w
    q1, q2 = np.meshgrid(q, q, indexing="ij")
    face = float(np.sum(np.outer(wq, wq) * (q1 ** 2 + q2 ** 2 + 0.25) ** (-alpha / 2.0)))
    return 3.0 / (3.0 - alpha) * face


def torus_block(alpha: float, resolution: int, zmax: int) -> np.ndarray:
    """Punctured trapezoid sum plus analytic cell term, all |z_i| <= zmax."""
    mu = symbol_grid(resolution)
    mu[0, 0, 0] = 1.0
    g = mu ** (-alpha / 2.0)
    g[0, 0, 0] = 0.0
    values = np.fft.ifftn(g).real
    cell = (2.0 * np.pi) ** (-alpha) * resolution ** (alpha - 3.0) * cube_moment(alpha)
    idx = np.arange(-zmax, zmax + 1) % resolution
    return values[np.ix_(idx, idx, idx)] + cell


def extrapolation_weights(resolutions, exponents) -> np.ndarray:
    m = np.zeros((len(resolutions), len(resolutions)))
    m[:, 0] = 1.0
    for j, e in enumerate(exponents[: len(resolutions) - 1]):
        m[:, 1 + j] = np.asarray(resolutions, dtype=float) ** (-e)
    return np.linalg.inv(m)[0]


def torus_green_block(alpha, zmax, resolutions=None, tolerance=1.0e-5):
    """Richardson-extrapolated torus values, returned with an error estimate.

    The puncture-plus-cell scheme has error expansion
    sum_j c_j(z) N^(alpha-3-2j); four resolutions eliminate three terms.
    The estimate is the gap to the three-resolution extrapolant and runs a
    couple of orders above the true error, so it is a safety gate rather
    than a sharp bound.
    """
    alpha = _check_alpha(alpha)
    if resolutions is None:
        resolutions = (64, 96, 128, 192) if alpha >= 2.0 else (48, 64, 96, 128)
    if min(resolutions) < 4 * zmax:
        raise QuadratureError(
            f"torus resolutions {resolutions} too coarse for |z| <= {zmax}; "
            "aliased images would dominate"
        )
    exponents = [3.0 - alpha + 2.0 * j for j in range(len(resolutions) - 1)]
    blocks = np.stack([torus_block(alpha, n, zmax) for n in resolutions])
    w_full = extrapolation_weights(resolutions, exponents)
    full = np.tensordot(w_full, blocks, axes=1)
    w_part = extrapolation_weights(resolutions[1:], exponents[:-1])
    part = np.tensordot(w_part, blocks[1:], axes=1)
    estimate = np.abs(full - part)
    scale = max(1.0, float(np.max(np.abs(full))))
    if float(estimate.max()) > tolerance * scale:
        raise QuadratureError(
            f"torus quadrature error estimate {float(estimate.max()):.3e} exceeds "
            f"tolerance {tolerance * scale:.3e} (alpha={alpha}, resolutions={resolutions})"
        )
    return full, float(estimate.max())


def torus_green_values(alpha, zs, k_alpha=None, tolerance=None):
    """R_alpha at an (n, 3) array of integer sites by the torus route, as a flat array."""
    alpha = _check_alpha(alpha)
    zs = np.asarray(zs, dtype=int).reshape(-1, 3)
    if k_alpha is None:
        k_alpha = fractional_degree_refined(alpha)
    zmax = int(np.abs(zs).max()) if zs.size else 0
    block, _ = torus_green_block(alpha, zmax, tolerance=tolerance or 1.0e-5)
    idx = zs + zmax
    return k_alpha * block[idx[:, 0], idx[:, 1], idx[:, 2]]


def direct_convolve(kernel, w) -> Field:
    """sum_y R(x - y) w(y), one block of displacement-matrix rows at a time."""
    box, flat = w.box, w.flat
    kernel_block(kernel, box)  # checks that the table covers the box
    c = np.arange(-box.radius, box.radius + 1)
    g = np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1).reshape(-1, 3)
    m = kernel.table_radius
    side = box.side
    out = np.empty(g.shape[0])
    for start in range(0, g.shape[0], 128):
        stop = min(start + 128, g.shape[0])
        d = g[start:stop, None, :] - g[None, :, :]
        if box.mode == "periodic":
            d = (d + box.radius) % side - box.radius
        out[start:stop] = kernel.table[d[..., 0] + m, d[..., 1] + m, d[..., 2] + m] @ flat
    return Field.from_flat(box, out)


def potential_value(potential, site) -> float:
    """V at one site of Z^3, evaluated from the potential's parameters alone."""
    if potential.kind == CONSTANT:
        return potential.v0
    if potential.kind == COERCIVE:
        d2 = sum((float(c) - float(c0)) ** 2 for c, c0 in zip(site, potential.center))
        return potential.v0 + potential.rate * d2 ** (potential.power / 2.0)
    tau = potential.tau
    cube = np.asarray(potential.table).reshape(tau, tau, tau)
    return float(cube[site[0] % tau, site[1] % tau, site[2] % tau])


def pairing(spec, kernel, u: Field, phi: Field) -> float:
    """First variation <J'(u), phi> through the bilinear-form expansion."""
    _check_kernel(spec, kernel)
    grad2 = _edge_sum(u.values, u.values, u.box.mode)
    cross = _edge_sum(u.values, phi.values, u.box.mode)
    linear = spec.h_inner(u, phi)
    big_f = spec.nonlinearity.F(u.values)
    conv = convolve(kernel, Field(u.box, big_f))
    drive = float(np.sum(conv * spec.nonlinearity.f(u.values) * phi.values))
    return linear + spec.b * grad2 * cross - drive
