"""Green's function of the fractional lattice Laplacian on Z^3.

The operator (-lap)^(alpha/2) on the integer lattice has Fourier symbol
m(k)^(alpha/2) with

    m(k) = 6 - 2 (cos k1 + cos k2 + cos k3),    k in [0, 2 pi]^3,

and its Riesz-type inverse kernel is

    R_alpha(z) = K_alpha (2 pi)^-3 int_T3 e^(i z.k) m(k)^(-alpha/2) dk,

normalized by the fractional degree K_alpha = (2 pi)^-3 int_T3 m(k)^(alpha/2) dk.
K_0 = 1 and K_2 = 6 exactly; R_alpha(z) decays like |z|^(alpha-3) at large
distance for 0 < alpha < 3.

R_alpha is computed by one route, the heat-kernel quadrature: the Laplace
representation m^(-alpha/2) = Gamma(alpha/2)^-1 int t^(alpha/2-1) e^(-t m) dt
turns the torus integral into a product of modified Bessel factors,

    R_alpha(z) = K_alpha / Gamma(alpha/2) *
                 int_0^inf t^(alpha/2-1) prod_j [e^(-2t) I_{|z_j|}(2t)] dt.

The integrand is smooth and positive; after t = e^s the trapezoid rule
converges geometrically.  The upper cutoff T is chosen from the bound
prod_j e^(-2t) I_{z_j}(2t) <= (1+4t)^(-3/2) so the discarded tail is below
1e-12, and the step is halved until the value stops moving.  The test suite
keeps an independent referee, a Richardson-extrapolated torus quadrature,
and cross-checks the two at small displacements.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

from .lattice import PERIODIC

# CPython's own SHA-256: hashlib gives the same digest but maps OpenSSL's
# libcrypto, 3.5 MB resident, into every process that checks a cache file
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

_KERNEL_MAGIC = b"LCKERN03"
_KERNEL_HEADER = "<dId"  # alpha, table radius, K_alpha
_DIGEST_SIZE = sha256().digest_size  # trails magic + header + table

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
# R_alpha by heat-kernel quadrature


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
    if not prefactor > 0.0:  # alpha near 0: Gamma(alpha/2) leaves the double range
        raise QuadratureError(f"heat-kernel prefactor underflows (alpha={alpha})")
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
    prod = factors[triples[:, 0]] * factors[triples[:, 1]] * factors[triples[:, 2]]
    with np.errstate(over="ignore", invalid="ignore"):  # a far cutoff overflows t^(alpha/2)
        weights = t ** (alpha / 2.0) * step  # includes the Jacobian of t = e^s
        values = prefactor * (prod @ weights)
    if not np.isfinite(values).all():
        raise QuadratureError(f"heat-kernel weights overflow (alpha={alpha})")
    return values


def green_values(alpha, zs, k_alpha=None):
    """R_alpha at an (n, 3) array of integer sites, as a flat array.

    The trapezoid step is halved from 0.1 until no value moves by more than
    1e-12 times the largest (or 1); four halvings without settling raise
    QuadratureError.
    """
    alpha = _check_alpha(alpha)
    triples = np.abs(np.asarray(zs, dtype=int)).reshape(-1, 3)
    if k_alpha is None:
        k_alpha = fractional_degree_refined(alpha)
    tolerance, step = 1.0e-12, 0.1
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
# tabulated kernels


def _octant_triples(m: int) -> np.ndarray:
    triples = [(i, j, k) for k in range(m + 1) for j in range(k + 1) for i in range(j + 1)]
    return np.asarray(triples, dtype=int)


@dataclass(eq=False)
class GreenKernel:
    """Tabulated R_alpha on the displacement cube |z_i| <= table_radius.

    The table is even along each axis (flipping the sign of any z_i leaves
    the entry alone) by construction, since ``build_kernel`` fills the cube
    by reflection, and by the exact invariance test a cached file must pass
    to load.  ``convolve`` relies on it and refuses a block that is not.
    """

    alpha: float
    k_alpha: float
    table_radius: int
    table: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)
    # (box, plan), see ``_plan_for``; a replaced or loaded kernel holds none
    _plan: tuple = field(default=None, init=False, repr=False, compare=False)

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
                fh.write(payload + sha256(payload).digest())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "GreenKernel":
        """Read a table written by ``save``; a ValueError unless every check holds.

        The checks run in this order: the magic, a whole header, the file
        size (from ``os.fstat``) against the size the header's radius calls
        for, and then, once the table has been read, the SHA-256 digest of
        magic, header and table.  The size is checked before anything of the
        table's size is allocated, so a header that claims a huge radius
        costs nothing.  The table is read straight into its own float64
        array and hashed through a memoryview: no copy of the file is made.
        """
        head_size = len(_KERNEL_MAGIC) + struct.calcsize(_KERNEL_HEADER)
        with open(path, "rb") as fh:
            head = fh.read(head_size)
            magic = head[: len(_KERNEL_MAGIC)]
            if magic != _KERNEL_MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r}, expected {_KERNEL_MAGIC!r}")
            size = os.fstat(fh.fileno()).st_size
            if size < head_size + _DIGEST_SIZE:
                raise ValueError(f"{path}: truncated header")
            alpha, radius, k_alpha = struct.unpack_from(_KERNEL_HEADER, head, len(_KERNEL_MAGIC))
            side = 2 * radius + 1
            table_size = size - head_size - _DIGEST_SIZE
            if table_size != 8 * side ** 3:
                raise ValueError(f"{path}: table size {table_size} bytes does not match "
                                 f"radius {radius}")
            table = np.empty((side,) * 3, dtype="<f8")
            data = memoryview(table).cast("B")
            if fh.readinto(data) != table_size:
                raise ValueError(f"{path}: truncated table")
            digest = fh.read()
        checksum = sha256(head)
        checksum.update(data)
        if checksum.digest() != digest:
            raise ValueError(f"{path}: checksum mismatch")
        return cls(alpha, k_alpha, radius, table.astype(float, copy=False))


def cache_key(alpha: float, table_radius: int) -> str:
    text = f"v4|alpha={float(alpha)!r}|radius={int(table_radius)}"
    return sha256(text.encode()).hexdigest()[:16]


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


def check_table_fits(table_radius: int) -> None:
    """A ValueError if the table, 8 (2m + 1)^3 bytes, exceeds the machine's physical memory."""
    size = 8 * (2 * table_radius + 1) ** 3
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if size > memory:
        raise ValueError(f"a radius-{table_radius} kernel table takes {size >> 20} MiB, "
                         f"more than the machine's {memory >> 20} MiB of memory")


def build_kernel(alpha: float, table_radius: int, *, cache_dir=None) -> GreenKernel:
    """Tabulate R_alpha over |z_i| <= table_radius by the heat-kernel route.

    Only the fundamental octant 0 <= z1 <= z2 <= z3 is quadratured; the full
    cube is filled by reflection, so the octahedral symmetry of the table is
    exact by construction.  Every entry must come out strictly positive or
    the build is rejected.  When ``cache_dir`` is given, the table is stored
    under a name derived from (alpha, table_radius) and later builds reload
    it bit for bit; a cached file that fails the load checks is rebuilt and
    overwritten.  A table the machine cannot hold is refused before anything
    is allocated.
    """
    alpha = _check_alpha(alpha)
    if table_radius < 0:
        raise ValueError("table_radius must be nonnegative")
    check_table_fits(table_radius)
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
    values = green_values(alpha, octant, k_alpha)

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
# Dirichlet boxes use linear convolution, out(x) = sum_{y in box} R(x-y) w(y); periodic
# boxes circular convolution with the minimal-image block (images are not folded in).

_workspace = threading.local()  # .buffer: the calling thread's complex FFT scratch


def _scratch(length: int) -> np.ndarray:
    """The calling thread's complex workspace, at least ``length`` long; it only grows."""
    buffer = getattr(_workspace, "buffer", None)
    if buffer is None or buffer.size < length:
        buffer = _workspace.buffer = np.empty(length, dtype=complex)
    return buffer


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


def block_radius(box) -> int:
    """The block |z_i| <= r a box convolves with: r = n periodic (minimal images), 2n Dirichlet."""
    return box.radius if box.mode == PERIODIC else 2 * box.radius


def kernel_block(kernel: GreenKernel, box) -> np.ndarray:
    """The table entries |z_i| <= block_radius(box); a ValueError if the table is smaller."""
    need, m = block_radius(box), kernel.table_radius
    if m < need:
        raise ValueError(f"kernel table radius {m} cannot cover a {box.mode} "
                         f"box of radius {box.radius} (needs >= {need})")
    return kernel.table[m - need : m + need + 1, m - need : m + need + 1, m - need : m + need + 1]


class _ConvolutionPlan:
    """The box's ``kernel_block``, wrapped onto a circular grid and transformed once.

    A periodic grid has the box's own side.  A Dirichlet grid is at least
    4n long: displacements -2n..2n then wrap onto distinct planes except
    the +-2n pair, which share one, and an even block holds the same value
    on both; so the circular result cropped to the box is the linear one.
    (This is the minimal circulant embedding of a symmetric Toeplitz
    matrix, Dietrich & Newsam 1997.)  A block that is not even along every
    axis is refused.  The spectrum is transformed in place, so building a
    plan allocates the grid and the spectrum and nothing else of their
    size.  A kernel keeps one plan at a time (``_plan_for``), so plans
    cost the largest box's spectrum, not the sum over the boxes a run
    visits.  ``apply`` keeps its transforms in one complex buffer per
    thread (``_scratch``), sized by the largest grid that thread has
    convolved on and reused after that.
    """

    def __init__(self, kernel: GreenKernel, box):
        block = kernel_block(kernel, box)
        if not all(np.array_equal(block, np.flip(block, axis)) for axis in range(3)):
            raise ValueError("kernel block is not even along every axis: the table is corrupted")
        size = box.side if box.mode == PERIODIC else _fast_len(max(1, 4 * box.radius))
        wrap = np.arange(-block_radius(box), block_radius(box) + 1) % size
        # rfftn with out= runs a plain rfftn's passes in place: the same bytes,
        # and no intermediates of the grid's size
        self.spectrum = np.empty((size, size, size // 2 + 1), dtype=complex)
        grid = np.zeros((size,) * 3)
        grid[np.ix_(wrap, wrap, wrap)] = block
        self.shape = grid.shape
        self.side = box.side
        np.fft.rfftn(grid, out=self.spectrum)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Circular convolution with the block, cropped to the box.

        One axis at a time, each transform runs only over the lines that
        hold nonzero input (forward) or the box's output (inverse): the
        input fills a side^3 corner of the grid and only that corner is kept.
        The transforms alternate between two regions of the thread's
        workspace, ``front`` (side x size x half) and ``back`` (size x size x
        half), and the inverse axis-0 and axis-1 passes run in place.  The 1-D
        transforms and their order are those of allocating each intermediate,
        so the result is the same bit for bit.
        """
        size, side = self.shape[0], self.side
        half = size // 2 + 1
        lines, grid = side * size * half, size * size * half
        buffer = _scratch(lines + grid)
        front, back = buffer[:lines], buffer[lines : lines + grid]
        spec = np.fft.rfft(values, n=size, axis=2,
                           out=back[: side * side * half].reshape(side, side, half))
        spec = np.fft.fft(spec, n=size, axis=1, out=front.reshape(side, size, half))
        spec = np.fft.fft(spec, n=size, axis=0, out=back.reshape(size, size, half))
        spec *= self.spectrum
        np.fft.ifft(spec, axis=0, out=spec)
        spec = spec[:side]
        np.fft.ifft(spec, axis=1, out=spec)
        real = front.view(float)[: side * side * size].reshape(side, side, size)
        out = np.fft.irfft(spec[:, :side], n=size, axis=2, out=real)
        # a copy, never a view: the workspace is overwritten by the next call
        return out[:, :, :side].copy()


def _plan_for(kernel: GreenKernel, box) -> _ConvolutionPlan:
    """The kernel's plan for ``box``, built if the kernel holds none for it.

    A kernel holds one plan in its ``_plan`` slot, the last box's: a plan
    for another box empties the slot before the new one is built, and a
    refused plan leaves it empty.  So the memory of the plans is bounded
    by the largest box's spectrum, however many boxes a run visits.  Going
    back to a box builds its plan again, one grid fill and one transform:
    about 0.1 ms for a radius-4 Dirichlet box, 0.3 ms for radius 6 and
    0.7 ms for radius 8.
    """
    held = kernel._plan
    if held is None or held[0] != box:
        kernel._plan = None  # the old plan goes before the new one is allocated
        held = kernel._plan = (box, _ConvolutionPlan(kernel, box))
    return held[1]


def convolve(kernel: GreenKernel, w) -> np.ndarray:
    """The array of (R * w)(x) = sum_y R(x - y) w(y) over the box of ``w``, by FFT.

    A finite ``w`` can still have a convolution past the double range; that
    is a RuntimeError, which the solver and the property suite report as a
    failure.
    """
    plan = _plan_for(kernel, w.box)  # checks that the table covers the box and is even
    with np.errstate(over="ignore", invalid="ignore"):
        values = plan.apply(w.values)
    if not np.isfinite(values).all():
        raise RuntimeError("convolution overflows the double range")
    return values


def fit_decay_exponent(kernel: GreenKernel, lo: int | None = None, hi: int | None = None) -> float:
    """Log-log slope of the kernel along the (1,0,0) axis; approaches alpha-3.

    The least-squares slope in closed form, sum dx dy / sum dx^2 about the means.
    """
    m = kernel.table_radius
    hi = m if hi is None else hi
    lo = max(2, m // 2) if lo is None else lo
    if not 1 <= lo < hi <= m:
        raise ValueError(f"bad fit window [{lo}, {hi}] for table radius {m}")
    x = np.log(np.arange(lo, hi + 1))
    y = np.log(kernel.table[m + lo : m + hi + 1, m, m])
    x -= x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())
