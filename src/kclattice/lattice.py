"""Finite boxes in the integer lattice Z^3 and the discrete operators on them.

A box of radius n collects the sites x = (x1, x2, x3) with |x_i| <= n and
carries one of two boundary conventions: ``dirichlet`` treats every
neighbour outside the box as a site of value zero, ``periodic`` wraps
coordinates modulo the side length 2n+1.  Fields are real values attached
to the sites, stored as a (side, side, side) float64 array whose entry
[i, j, k] belongs to the site (i-n, j-n, k-n).

The graph Laplacian used throughout is

    (lap u)(x) = sum_{y ~ x} (u(y) - u(x)),

where y ~ x runs over the six nearest neighbours.  The squared gradient
field is |grad u|^2(x) = (1/2) sum_{y ~ x} (u(y) - u(x))^2, so that the
total gradient energy equals the sum of (u(y) - u(x))^2 over undirected
edges, each edge counted once.  In dirichlet mode the edges crossing the
boundary contribute (0 - u(x))^2; this is exactly what makes the
summation-by-parts identity

    sum_x grad u . grad v = - sum_x v(x) (lap u)(x)

hold without boundary remainder for fields extended by zero.

All reductions use numpy's pairwise summation over the fixed row-major
site order, so results are deterministic for a given box shape.
"""

from __future__ import annotations

import functools
import io
import re
from dataclasses import dataclass, field

import numpy as np

DIRICHLET = "dirichlet"
PERIODIC = "periodic"

_TEXT_HEADER = re.compile(
    r"^# lattice-field v1 radius=(\d+) mode=(dirichlet|periodic)$"
)


@dataclass(frozen=True)
class LatticeBox:
    """A cube of lattice sites |x_i| <= radius with a boundary convention."""

    radius: int
    mode: str = DIRICHLET

    def __post_init__(self):
        if not isinstance(self.radius, (int, np.integer)) or self.radius < 0:
            raise ValueError(f"box radius must be a nonnegative integer, got {self.radius!r}")
        if self.mode not in (DIRICHLET, PERIODIC):
            raise ValueError(f"unknown boundary mode {self.mode!r}")
        if self.mode == PERIODIC and self.radius < 1:
            # side 1 would make every site its own neighbour six times over
            raise ValueError("periodic boxes need radius >= 1")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def site_count(self) -> int:
        return self.side ** 3

    def contains(self, x) -> bool:
        return all(abs(int(c)) <= self.radius for c in x)

    def coordinate_grids(self):
        """Three (side, side, side) integer arrays with the site coordinates."""
        c = np.arange(-self.radius, self.radius + 1)
        return np.meshgrid(c, c, c, indexing="ij")

    def squared_distance_grid(self, center=(0, 0, 0)) -> np.ndarray:
        x1, x2, x3 = self.coordinate_grids()
        return (
            (x1 - center[0]) ** 2 + (x2 - center[1]) ** 2 + (x3 - center[2]) ** 2
        ).astype(float)


@dataclass
class Field:
    """Real values on the sites of a box."""

    box: LatticeBox
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        want = (self.box.side,) * 3
        if v.shape != want:
            raise ValueError(f"field shape {v.shape} does not match box shape {want}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        self.values = v

    @classmethod
    def zeros(cls, box: LatticeBox) -> "Field":
        return cls(box, np.zeros((box.side,) * 3))

    @classmethod
    def from_flat(cls, box: LatticeBox, flat) -> "Field":
        return cls(box, np.asarray(flat, dtype=float).reshape((box.side,) * 3))

    @classmethod
    def delta(cls, box: LatticeBox, site=(0, 0, 0), height: float = 1.0) -> "Field":
        if not box.contains(site):
            raise ValueError(f"site {tuple(site)} lies outside the box of radius {box.radius}")
        out = cls.zeros(box)
        n = box.radius
        out.values[site[0] + n, site[1] + n, site[2] + n] = height
        return out

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def copy(self) -> "Field":
        return Field(self.box, self.values.copy())

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.box == other.box
            and np.array_equal(self.values, other.values)
        )


# ---------------------------------------------------------------------------
# discrete operators


@functools.lru_cache(maxsize=None)
def _axis_slices(side: int) -> tuple:
    """Per axis of a (side, side, side) array: its flat stride and the index
    tuples of the sites with a lower neighbour, those with an upper one, the
    first face and the last face."""
    slices = []
    for axis in range(3):
        def on(s, axis=axis):
            index = [slice(None)] * 3
            index[axis] = s
            return tuple(index)
        slices.append((side ** (2 - axis), on(slice(1, None)), on(slice(None, -1)),
                       on(0), on(-1)))
    return tuple(slices)


def _laplacian_values(v: np.ndarray, mode: str) -> np.ndarray:
    """The graph Laplacian (lap v)(x) = sum over neighbours of (v(y) - v(x)) on a raw
    (side, side, side) array; dirichlet mode reads missing neighbours as zero.

    Each neighbour term is one contiguous pass over the flat array, shifted
    by the axis stride side^2, side or 1.  The shift reaches across the box's
    edge on one face, which is saved before the pass and written back after
    it, plus the wrapped neighbour in periodic mode.  So every site receives
    -6 u(x) + u(x - e1) + u(x + e1) + ... + u(x + e3), in this order and
    nothing else: bit for bit the sum of shifted 3-D slices.
    """
    flat = v.reshape(-1)
    out = -6.0 * flat
    cube = out.reshape(v.shape)
    periodic = mode == PERIODIC
    for stride, _, _, first, last in _axis_slices(v.shape[0]):
        for face, across, target, source in ((first, last, out[stride:], flat[:-stride]),
                                             (last, first, out[:-stride], flat[stride:])):
            kept = cube[face].copy()
            target += source
            cube[face] = kept + v[across] if periodic else kept
    return cube


def _differences(u: np.ndarray, mode: str, slices: tuple) -> np.ndarray:
    """u(x + e) - u(x) along one axis, given by its ``_axis_slices`` entry,
    over the edges inside the box.

    Periodic boxes have one at every site, the last face's wrapping to the
    first: one contiguous pass over the flat array, then the face rewritten.
    """
    stride, upper, lower, first, last = slices
    if mode != PERIODIC:
        return u[upper] - u[lower]
    flat = u.reshape(-1)
    out = np.empty(u.shape)
    np.subtract(flat[stride:], flat[:-stride], out=out.reshape(-1)[:-stride])
    np.subtract(u[first], u[last], out=out[last])
    return out


def _edge_sum(u: np.ndarray, v: np.ndarray, mode: str) -> float:
    """Sum over undirected edges of (u(y)-u(x)) (v(y)-v(x)), each edge once: the total
    gradient pairing sum_x grad u . grad v = -sum_x v (lap u)."""
    total = 0.0
    for slices in _axis_slices(u.shape[0]):
        du = _differences(u, mode, slices)
        dv = du if v is u else _differences(v, mode, slices)
        total += float(np.sum(du * dv))
        if mode != PERIODIC:
            # edges leaving the box toward zero-valued sites
            first, last = slices[3:]
            total += float(np.sum(u[first] * v[first]))
            total += float(np.sum(u[last] * v[last]))
    return total


def _lp_norm_values(v: np.ndarray, p: float) -> float:
    """The l^p norm of a raw array; p = inf gives the max norm, p < 1 is rejected."""
    if p == np.inf:
        return float(np.max(np.abs(v)))
    if p < 1:
        raise ValueError(f"an l^p norm needs p >= 1 or inf, got {p}")
    if p == 2:
        return float(np.sqrt(np.sum(v * v)))
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def translate(u: Field, shift) -> Field:
    """Translate a field by an integer vector: out(x) = u(x - shift).

    Periodic mode wraps around; dirichlet mode drops values pushed past the
    boundary and fills the vacated sites with zero.
    """
    s = tuple(int(c) for c in shift)
    if u.box.mode == PERIODIC:
        return Field(u.box, np.roll(u.values, s, axis=(0, 1, 2)))
    out = np.zeros_like(u.values)
    side = u.box.side
    src = []
    dst = []
    for c in s:
        c = max(-side, min(side, c))
        if c >= 0:
            src.append(slice(0, side - c))
            dst.append(slice(c, side))
        else:
            src.append(slice(-c, side))
            dst.append(slice(0, side + c))
    out[tuple(dst)] = u.values[tuple(src)]
    return Field(u.box, out)


# ---------------------------------------------------------------------------
# serialization
#
# Text format: a single header line
#     # lattice-field v1 radius=<n> mode=<dirichlet|periodic>
# followed by one value per line with 17 significant digits, in row-major
# site order.

# lines formatted per write: joining all of a radius-8 field's 4,913 lines
# at once holds about 0.5 MB of line strings at the peak of a solve
_FIELD_CHUNK_LINES = 1024


def save_field_text(u: Field, path) -> None:
    flat = u.flat
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# lattice-field v1 radius={u.box.radius} mode={u.box.mode}\n")
        for start in range(0, flat.size, _FIELD_CHUNK_LINES):
            chunk = flat[start:start + _FIELD_CHUNK_LINES].tolist()
            fh.write("".join(f"{value:.16e}\n" for value in chunk))


def load_field_text(path) -> Field:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        m = _TEXT_HEADER.match(header)
        if not m:
            raise ValueError(f"{path}: not a lattice-field text file (header {header!r})")
        box = LatticeBox(int(m.group(1)), m.group(2))
        data = np.loadtxt(io.StringIO(fh.read()), dtype=float, ndmin=1)
    if data.size != box.site_count:
        raise ValueError(
            f"{path}: expected {box.site_count} values for radius {box.radius}, got {data.size}"
        )
    return Field.from_flat(box, data)
