"""Green's function of the fractional lattice Laplacian on Z^3.

The operator (-lap)^(alpha/2) on the integer lattice has Fourier symbol
m(k)^(alpha/2) with

    m(k) = 6 - 2 (cos k1 + cos k2 + cos k3),    k in [0, 2 pi]^3,

and its Riesz-type inverse kernel is

    R_alpha(z) = K_alpha (2 pi)^-3 int_T3 e^(i z.k) m(k)^(-alpha/2) dk,

normalized by the fractional degree K_alpha = (2 pi)^-3 int_T3 m(k)^(alpha/2) dk.
K_0 = 1 and K_2 = 6 exactly; R_alpha(z) decays like |z|^(alpha-3) at large
distance for 0 < alpha < 3.

Two independent evaluation routes are provided and cross-checked in the
test suite; only the first builds kernel tables:

``heat_kernel`` (production path)
    Laplace representation m^(-alpha/2) = Gamma(alpha/2)^-1 int t^(alpha/2-1)
    e^(-t m) dt turns the torus integral into a product of modified Bessel
    factors: R_alpha(z) = K_alpha / Gamma(alpha/2) *
    int_0^inf t^(alpha/2-1) prod_j [e^(-2t) I_{|z_j|}(2t)] dt.
    The integrand is smooth and positive; after t = e^s the trapezoid rule
    converges geometrically.  The upper cutoff T is chosen from the bound
    prod_j e^(-2t) I_{z_j}(2t) <= (1+4t)^(-3/2) so the discarded tail is
    below 1e-12, and the step is halved until the value stops moving.

``torus_quadrature`` (referee, ``green_values`` only)
    Punctured product trapezoid sums on N^3 grids (the k = 0 cell is
    excluded and re-added analytically via the local model m ~ |k|^2),
    evaluated for all z at once by an inverse FFT.  The puncture leaves a
    slowly convergent error ladder c0 N^(alpha-3) + c1 N^(alpha-5) + ...,
    so values from several resolutions are Richardson-extrapolated with
    those known exponents; the spread between extrapolation orders gives a
    (conservative) error estimate, and estimates above the requested
    tolerance raise QuadratureError.  Its grids must be at least four times
    the largest |z_i|, so it reaches only the small displacements it
    cross-checks, not the tables a solve needs.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
import weakref
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

HEAT_KERNEL = "heat_kernel"
TORUS_QUADRATURE = "torus_quadrature"
_KERNEL_MAGIC = b"LCKERN03"
_KERNEL_HEADER = "<dId"  # alpha, table radius, K_alpha
_DIGEST_SIZE = hashlib.sha256().digest_size  # trails magic + header + table

_REFINED_RESOLUTION = 96  # the coarser grid of fractional_degree_refined's pair

# scipy's ive loses accuracy and eventually returns nan for arguments beyond
# ~1e9; past this point the uniform asymptotic series is exact to roundoff.
_IVE_ASYMPTOTIC_SWITCH = 1.0e7


class QuadratureError(RuntimeError):
    """A kernel quadrature failed to reach its accuracy target."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 3.0:
        raise ValueError(f"fractional order alpha must lie in (0, 3), got {alpha}")
    return alpha


def _symbol_grid(resolution: int) -> np.ndarray:
    c = np.cos(2.0 * np.pi * np.arange(resolution) / resolution)
    return 6.0 - 2.0 * (c[:, None, None] + c[None, :, None] + c[None, None, :])


def fractional_degree(alpha: float, resolution: int = 64) -> float:
    """Mean of the symbol power m^(alpha/2) over the torus (trapezoid rule).

    The periodic trapezoid rule is exact for alpha = 2 and converges like
    resolution^-(3+alpha) otherwise (the symbol power has an |k|^alpha cusp
    at the origin).  ``fractional_degree_refined`` removes the leading
    error term when more accuracy is needed.

    m is even in each k_j, so the grid sum runs over the reflection octant
    k in [0, N/2]^3 only, one k1 slab at a time: an index counts once when
    k_j = 0 or 2 k_j = N (its own mirror image) and twice otherwise.  This
    needs O(N^2) memory instead of the full N^3 grid.
    """
    alpha = _check_alpha(alpha)
    if resolution < 16:
        raise ValueError(f"resolution must be >= 16, got {resolution}")
    half = resolution // 2
    c = np.cos(2.0 * np.pi * np.arange(half + 1) / resolution)
    weight = np.full(half + 1, 2.0)
    weight[0] = 1.0
    if 2 * half == resolution:
        weight[half] = 1.0
    plane = np.outer(weight, weight)
    slabs = np.empty(half + 1)
    for i in range(half + 1):
        power = (6.0 - 2.0 * (c[i] + c[:, None] + c[None, :])) ** (alpha / 2.0)
        if i == 0:
            power[0, 0] = 0.0  # m^p at the origin is 0 for p > 0
        slabs[i] = np.sum(plane * power)
    return float(np.sum(weight * slabs)) / resolution ** 3


def fractional_degree_refined(alpha: float) -> float:
    """Richardson pair (_REFINED_RESOLUTION, twice that) with the known error order."""
    coarse = fractional_degree(alpha, _REFINED_RESOLUTION)
    fine = fractional_degree(alpha, 2 * _REFINED_RESOLUTION)
    return fine + (fine - coarse) / (2.0 ** (3.0 + alpha) - 1.0)


# ---------------------------------------------------------------------------
# heat-kernel route


def _ive_safe(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exponentially scaled I_nu(x) valid for arbitrarily large x.

    Below the switch point this is scipy's ive; above it, the uniform
    asymptotic series (2 pi x)^(-1/2) sum_k (-1)^k a_k(nu) x^-k with
    a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k).  Seven terms give
    full double precision for x >= 1e7 and nu <= a few hundred.
    """
    from scipy.special import ive  # only table builds need scipy

    small = x < _IVE_ASYMPTOTIC_SWITCH
    xs = np.where(small, x, 1.0)
    direct = ive(orders, xs)
    xl = np.where(small, _IVE_ASYMPTOTIC_SWITCH, x)
    four_nu2 = 4.0 * orders.astype(float) ** 2
    term = np.ones(np.broadcast_shapes(orders.shape, x.shape))
    series = term.copy()
    for k in range(1, 8):
        term = term * -(four_nu2 - (2 * k - 1) ** 2) / (k * 8.0 * xl)
        series = series + term
    asymptotic = series / np.sqrt(2.0 * np.pi * xl)
    return np.where(small, direct, asymptotic)


def _heat_green_grid(alpha, triples, k_alpha, step, tail_tol):
    """Heat-kernel values for an (n, 3) array of |z| triples at a fixed step."""
    from scipy.special import gammaln

    prefactor = k_alpha / float(np.exp(gammaln(alpha / 2.0)))
    # tail:  int_T^inf t^(a/2-1) (4t)^(-3/2) dt = T^((a-3)/2) / (4 (3-a)) * 2... bound
    # as alpha -> 3 the tail decays so slowly that the cutoff leaves the double
    # range; numpy's power gives inf for a float or a numpy scalar alike
    with np.errstate(over="ignore"):
        upper = float(np.float64((tail_tol / 10.0) * 4.0 * (3.0 - alpha) / prefactor)
                      ** (2.0 / (alpha - 3.0)))
    if not math.isfinite(upper):
        raise QuadratureError(f"heat-kernel tail cutoff overflows (alpha={alpha})")
    upper = max(upper, 50.0)
    # head:  int_0^eps t^(a/2-1) dt = eps^(a/2) 2/alpha
    lower = ((tail_tol / 10.0) / prefactor * alpha / 2.0) ** (2.0 / alpha)
    lower = min(lower, 1.0e-4)
    if not lower > 0.0:  # small alpha: the head cutoff underflows a double
        raise QuadratureError(f"heat-kernel head cutoff underflows (alpha={alpha})")
    s = np.arange(np.log(lower), np.log(upper) + step, step)
    t = np.exp(s)
    zmax = int(triples.max()) if triples.size else 0
    factors = _ive_safe(np.arange(zmax + 1, dtype=float)[:, None], 2.0 * t[None, :])
    weights = t ** (alpha / 2.0) * step  # includes the Jacobian of t = e^s
    prod = factors[triples[:, 0]] * factors[triples[:, 1]] * factors[triples[:, 2]]
    return prefactor * (prod @ weights)


def _heat_green_many(alpha, zs, k_alpha, tolerance=1.0e-12, step=0.1):
    """Adaptive heat-kernel evaluation for an (n, 3) integer array of sites."""
    triples = np.abs(np.asarray(zs, dtype=int)).reshape(-1, 3)
    previous = _heat_green_grid(alpha, triples, k_alpha, step, tolerance)
    for _ in range(4):
        step *= 0.5
        current = _heat_green_grid(alpha, triples, k_alpha, step, tolerance)
        scale = max(1.0, float(np.max(np.abs(current))))
        if float(np.max(np.abs(current - previous))) <= tolerance * scale:
            return current
        previous = current
    raise QuadratureError(
        f"heat-kernel quadrature did not settle to {tolerance:g} (alpha={alpha})"
    )


# ---------------------------------------------------------------------------
# torus-quadrature route


def _cube_moment(alpha: float, points: int = 96) -> float:
    """Integral of |t|^-alpha over the unit cube [-1/2, 1/2]^3.

    Collapsing the radial direction against each exit face reduces this to
    a smooth square integral: I = 3/(3-alpha) * int_{[-1/2,1/2]^2}
    (q1^2 + q2^2 + 1/4)^(-alpha/2) dq, done by Gauss-Legendre.
    """
    x, w = leggauss(points)
    q = 0.5 * x
    wq = 0.5 * w
    q1, q2 = np.meshgrid(q, q, indexing="ij")
    face = float(np.sum(np.outer(wq, wq) * (q1 ** 2 + q2 ** 2 + 0.25) ** (-alpha / 2.0)))
    return 3.0 / (3.0 - alpha) * face


def _torus_block(alpha: float, resolution: int, zmax: int) -> np.ndarray:
    """Punctured trapezoid sum plus analytic cell term, all |z_i| <= zmax."""
    mu = _symbol_grid(resolution)
    mu[0, 0, 0] = 1.0
    g = mu ** (-alpha / 2.0)
    g[0, 0, 0] = 0.0
    values = np.fft.ifftn(g).real
    cell = (2.0 * np.pi) ** (-alpha) * resolution ** (alpha - 3.0) * _cube_moment(alpha)
    idx = np.arange(-zmax, zmax + 1) % resolution
    return values[np.ix_(idx, idx, idx)] + cell


def _extrapolation_weights(resolutions, exponents) -> np.ndarray:
    m = np.zeros((len(resolutions), len(resolutions)))
    m[:, 0] = 1.0
    for j, e in enumerate(exponents[: len(resolutions) - 1]):
        m[:, 1 + j] = np.asarray(resolutions, dtype=float) ** (-e)
    return np.linalg.inv(m)[0]


def _torus_green_block(alpha, zmax, resolutions=None, tolerance=1.0e-5):
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
    blocks = np.stack([_torus_block(alpha, n, zmax) for n in resolutions])
    w_full = _extrapolation_weights(resolutions, exponents)
    full = np.tensordot(w_full, blocks, axes=1)
    w_part = _extrapolation_weights(resolutions[1:], exponents[:-1])
    part = np.tensordot(w_part, blocks[1:], axes=1)
    estimate = np.abs(full - part)
    scale = max(1.0, float(np.max(np.abs(full))))
    if float(estimate.max()) > tolerance * scale:
        raise QuadratureError(
            f"torus quadrature error estimate {float(estimate.max()):.3e} exceeds "
            f"tolerance {tolerance * scale:.3e} (alpha={alpha}, resolutions={resolutions})"
        )
    return full, float(estimate.max())


def green_values(alpha, zs, method=HEAT_KERNEL, k_alpha=None, tolerance=None):
    """R_alpha at an (n, 3) array of integer sites, as a flat array."""
    alpha = _check_alpha(alpha)
    zs = np.asarray(zs, dtype=int).reshape(-1, 3)
    if k_alpha is None:
        k_alpha = fractional_degree_refined(alpha)
    if method == HEAT_KERNEL:
        return _heat_green_many(alpha, zs, k_alpha, tolerance or 1.0e-12)
    if method == TORUS_QUADRATURE:
        zmax = int(np.abs(zs).max()) if zs.size else 0
        block, _ = _torus_green_block(alpha, zmax, tolerance=tolerance or 1.0e-5)
        idx = zs + zmax
        return k_alpha * block[idx[:, 0], idx[:, 1], idx[:, 2]]
    raise ValueError(f"unknown quadrature method {method!r}")


# ---------------------------------------------------------------------------
# tabulated kernels


def _octant_triples(m: int) -> np.ndarray:
    triples = [(i, j, k) for k in range(m + 1) for j in range(k + 1) for i in range(j + 1)]
    return np.asarray(triples, dtype=int)


@dataclass(eq=False)
class GreenKernel:
    """Tabulated R_alpha on the displacement cube |z_i| <= table_radius."""

    alpha: float
    k_alpha: float
    table_radius: int
    table: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def value(self, z) -> float:
        m = self.table_radius
        if any(abs(int(c)) > m for c in z):
            raise ValueError(f"displacement {tuple(z)} outside table radius {m}")
        return float(self.table[z[0] + m, z[1] + m, z[2] + m])

    def octant_triples(self) -> np.ndarray:
        """Representatives 0 <= z1 <= z2 <= z3 <= m of the symmetry orbits."""
        return _octant_triples(self.table_radius)

    def save(self, path) -> None:
        """Write the table atomically: readers see the old file or the whole new one."""
        header = struct.pack(_KERNEL_HEADER, self.alpha, self.table_radius, self.k_alpha)
        payload = _KERNEL_MAGIC + header + self.table.astype("<f8").tobytes()
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload + hashlib.sha256(payload).digest())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "GreenKernel":
        with open(path, "rb") as fh:
            raw = fh.read()
        magic = raw[: len(_KERNEL_MAGIC)]
        if magic != _KERNEL_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_KERNEL_MAGIC!r}")
        start = len(_KERNEL_MAGIC) + struct.calcsize(_KERNEL_HEADER)
        if len(raw) < start + _DIGEST_SIZE:
            raise ValueError(f"{path}: truncated header")
        payload, digest = raw[:-_DIGEST_SIZE], raw[-_DIGEST_SIZE:]
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError(f"{path}: checksum mismatch")
        alpha, radius, k_alpha = struct.unpack_from(_KERNEL_HEADER, raw, len(_KERNEL_MAGIC))
        side = 2 * radius + 1
        if len(payload) - start != 8 * side ** 3:
            raise ValueError(f"{path}: table size {len(payload) - start} bytes does not match "
                             f"radius {radius}")
        table = np.frombuffer(payload, dtype="<f8", offset=start).astype(float).reshape((side,) * 3)
        return cls(alpha, k_alpha, radius, table)


def cache_key(alpha: float, table_radius: int) -> str:
    text = f"v4|alpha={float(alpha)!r}|radius={int(table_radius)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _table_defect(table: np.ndarray, tolerance: float = 0.0):
    """The invariance test of a kernel table: (worst deviation, a bad displacement or None).

    Entry z deviates by max |t(gz) - t(z)| / t(z) over the octahedral group's
    generators g (three axis flips, two transpositions), or by inf unless
    t(z) is finite and positive.  A corrupted entry off the origin disagrees
    with two or more of its images, each of them with one: the displacement
    returned, the first with the most disagreements, is the corrupted one.
    """
    valid = np.isfinite(table) & (table > 0.0)
    images = (table[::-1], table[:, ::-1], table[:, :, ::-1],
              table.transpose(1, 0, 2), table.transpose(0, 2, 1))
    unequal = [image for image in images if not np.array_equal(image, table)]
    if not unequal and valid.all():  # an intact table costs five array comparisons
        return 0.0, None
    deviation = np.where(valid, 0.0, math.inf)
    disagreements = np.where(valid, 0, len(images))
    with np.errstate(divide="ignore", invalid="ignore"):
        for image in unequal:
            relative = np.abs(image - table) / table
            np.fmax(deviation, relative, out=deviation)
            disagreements += relative > tolerance
    worst = float(deviation.max())
    if worst <= tolerance:
        return worst, None
    m = table.shape[0] // 2
    return worst, tuple(int(i) - m for i in np.unravel_index(np.argmax(disagreements), table.shape))


def _load_cached(path, alpha: float, table_radius: int):
    """The table cached at ``path``, or None when it is missing or fails a check.

    A table is trusted only if its checksum holds (``GreenKernel.load``),
    its header matches the request and it passes the invariance test
    ``_table_defect`` exactly.  A file in an older format is a miss.
    """
    try:
        kernel = GreenKernel.load(path)
    except (FileNotFoundError, ValueError):
        return None
    if (kernel.alpha, kernel.table_radius) != (alpha, table_radius):
        return None
    if _table_defect(kernel.table)[1] is not None:
        return None
    return kernel


def build_kernel(alpha: float, table_radius: int, *, cache_dir=None) -> GreenKernel:
    """Tabulate R_alpha over |z_i| <= table_radius by the heat-kernel route.

    Only the fundamental octant 0 <= z1 <= z2 <= z3 is quadratured; the full
    cube is filled by reflection, so the octahedral symmetry of the table is
    exact by construction.  Every entry must come out strictly positive or
    the build is rejected.  When ``cache_dir`` is given, the table is stored
    under a name derived from (alpha, table_radius) and later builds reload
    it bit for bit; a cached file that fails the load checks is rebuilt and
    overwritten.
    """
    alpha = _check_alpha(alpha)
    if table_radius < 0:
        raise ValueError("table_radius must be nonnegative")
    path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, f"green_{cache_key(alpha, table_radius)}.lck")
        kernel = _load_cached(path, alpha, table_radius)
        if kernel is not None:
            kernel.meta["cached"] = True
            kernel.meta["cache_path"] = path
            return kernel

    k_alpha = fractional_degree_refined(alpha)
    m = table_radius
    side = 2 * m + 1
    octant = _octant_triples(m)
    values = _heat_green_many(alpha, octant, k_alpha)

    lookup = np.empty((m + 1,) * 3)
    lookup[octant[:, 0], octant[:, 1], octant[:, 2]] = values
    coords = np.abs(np.arange(-m, m + 1))
    g1, g2, g3 = np.meshgrid(coords, coords, coords, indexing="ij")
    stacked = np.sort(np.stack([g1, g2, g3], axis=-1), axis=-1)
    table = lookup[stacked[..., 0], stacked[..., 1], stacked[..., 2]]

    if not np.all(table > 0.0):
        raise QuadratureError(f"kernel table for alpha={alpha} is not strictly positive")
    kernel = GreenKernel(alpha, float(k_alpha), m, table, {"cached": False})
    if path is not None:
        kernel.save(path)
        kernel.meta["cache_path"] = path
    return kernel


# ---------------------------------------------------------------------------
# convolution against a tabulated kernel
#
# Dirichlet boxes use linear convolution: out(x) = sum_{y in box} R(x-y) w(y),
# which needs table_radius >= 2 * box radius.  Periodic boxes use circular
# convolution at the box period with the minimal-image kernel block (a
# modeling choice: displacement images beyond the box are not folded in),
# which needs table_radius >= box radius.

_plan_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _fast_len(n: int) -> int:
    """The smallest 5-smooth length 2^a 3^b 5^c >= n, a fast FFT length."""
    length = n
    while True:
        rest = length
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return length
        length += 1


class _ConvolutionPlan:
    """The box's kernel block |z_i| <= r, wrapped onto a circular grid and transformed once.

    r is the box radius n for periodic boxes and 2n for Dirichlet ones.  A
    periodic grid has the box's own side; a Dirichlet grid is at least
    4n + 1 long, so no wrapped image of the block reaches the box, and the
    circular result cropped to the box is the linear one.
    """

    def __init__(self, kernel: GreenKernel, box):
        n, m = box.radius, kernel.table_radius
        periodic = box.mode == "periodic"
        need = n if periodic else 2 * n
        if m < need:
            raise ValueError(
                f"kernel table radius {m} cannot cover a {box.mode} "
                f"box of radius {n} (needs >= {need})"
            )
        size = box.side if periodic else _fast_len(4 * n + 1)
        wrap = np.arange(-need, need + 1) % size
        grid = np.zeros((size,) * 3)
        grid[np.ix_(wrap, wrap, wrap)] = kernel.table[
            m - need : m + need + 1, m - need : m + need + 1, m - need : m + need + 1
        ]
        self.shape = grid.shape
        self.side = box.side
        self.spectrum = np.fft.rfftn(grid)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Circular convolution with the block, cropped to the box.

        One axis at a time, each transform runs only over the lines that
        hold nonzero input (forward) or the box's output (inverse): the
        input fills a side^3 corner of the grid and only that corner is kept.
        """
        size, side = self.shape[0], self.side
        spec = np.fft.rfft(values, n=size, axis=2)
        spec = np.fft.fft(spec, n=size, axis=1)
        spec = np.fft.fft(spec, n=size, axis=0)
        spec *= self.spectrum
        spec = np.fft.ifft(spec, axis=0)[:side]
        spec = np.fft.ifft(spec, axis=1)[:, :side]
        out = np.fft.irfft(spec, n=size, axis=2)[:, :, :side]
        # contiguous, so that a held result does not keep a larger grid alive
        return np.ascontiguousarray(out)


def _plan_for(kernel: GreenKernel, box) -> _ConvolutionPlan:
    plans = _plan_cache.setdefault(kernel, {})
    plan = plans.get(box)
    if plan is None:
        plan = _ConvolutionPlan(kernel, box)
        plans[box] = plan
    return plan


def _direct_convolve(kernel: GreenKernel, box, flat: np.ndarray) -> np.ndarray:
    """sum_y R(x - y) w(y), one block of displacement-matrix rows at a time."""
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
    return out


def convolve(kernel: GreenKernel, w, method: str = "fft"):
    """Convolution (R * w)(x) = sum_y R(x - y) w(y) over the box of ``w``.

    ``fft`` is the production path; ``direct`` sums over the displacement
    matrix, a block of rows at a time, and is the quadratic-cost reference
    the fft path is tested against.
    """
    from .lattice import Field

    plan = _plan_for(kernel, w.box)  # checks that the table covers the box
    if method == "fft":
        return Field(w.box, plan.apply(w.values))
    if method == "direct":
        return Field.from_flat(w.box, _direct_convolve(kernel, w.box, w.flat))
    raise ValueError(f"unknown convolution method {method!r}")


def fit_decay_exponent(kernel: GreenKernel, lo: int | None = None, hi: int | None = None) -> float:
    """Log-log slope of the kernel along the (1,0,0) axis; approaches alpha-3."""
    m = kernel.table_radius
    hi = m if hi is None else hi
    lo = max(2, m // 2) if lo is None else lo
    if not 1 <= lo < hi <= m:
        raise ValueError(f"bad fit window [{lo}, {hi}] for table radius {m}")
    js = np.arange(lo, hi + 1)
    vals = kernel.table[m + lo : m + hi + 1, m, m]
    return float(np.polyfit(np.log(js), np.log(vals), 1)[0])
