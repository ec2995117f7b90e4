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


def _laplacian_values(v: np.ndarray, mode: str) -> np.ndarray:
    """The graph Laplacian on a raw (side, side, side) array; see ``laplacian``."""
    out = -6.0 * v
    if mode == PERIODIC:
        for ax in range(3):
            out = out + np.roll(v, 1, axis=ax) + np.roll(v, -1, axis=ax)
        return out
    out[1:, :, :] += v[:-1, :, :]
    out[:-1, :, :] += v[1:, :, :]
    out[:, 1:, :] += v[:, :-1, :]
    out[:, :-1, :] += v[:, 1:, :]
    out[:, :, 1:] += v[:, :, :-1]
    out[:, :, :-1] += v[:, :, 1:]
    return out


def laplacian(u: Field) -> Field:
    """Graph Laplacian (lap u)(x) = sum over neighbours of (u(y) - u(x)).

    Dirichlet mode reads missing neighbours as zero; periodic mode wraps.
    """
    return Field(u.box, _laplacian_values(u.values, u.box.mode))


def _edge_sum(u: np.ndarray, v: np.ndarray, mode: str) -> float:
    """Sum over undirected edges of (u(y)-u(x)) (v(y)-v(x)), each edge once."""
    total = 0.0
    if mode == PERIODIC:
        for ax in range(3):
            du = np.roll(u, -1, axis=ax) - u
            dv = np.roll(v, -1, axis=ax) - v
            total += float(np.sum(du * dv))
        return total
    for ax in range(3):
        du = np.diff(u, axis=ax)
        dv = np.diff(v, axis=ax)
        total += float(np.sum(du * dv))
        first = [slice(None)] * 3
        last = [slice(None)] * 3
        first[ax] = 0
        last[ax] = -1
        # edges leaving the box toward zero-valued sites
        total += float(np.sum(u[tuple(first)] * v[tuple(first)]))
        total += float(np.sum(u[tuple(last)] * v[tuple(last)]))
    return total


def gradient_inner(u: Field, v: Field) -> float:
    """Total gradient pairing sum_x grad u . grad v = -sum_x v (lap u).

    gradient_inner(u, u) is the total squared gradient, the Dirichlet form.
    """
    if u.box != v.box:
        raise ValueError("fields live on different boxes")
    return _edge_sum(u.values, v.values, u.box.mode)


def lp_norm(u: Field, p: float) -> float:
    """l^p norm over sites; p = inf gives the max norm, p < 1 is rejected."""
    if p == np.inf:
        return float(np.max(np.abs(u.values)))
    if p < 1:
        raise ValueError(f"lp_norm needs p >= 1 or inf, got {p}")
    if p == 2:
        return float(np.sqrt(np.sum(u.values * u.values)))
    return float(np.sum(np.abs(u.values) ** p) ** (1.0 / p))


def h_inner(u: Field, v: Field, a: float, potential) -> float:
    """Energy-space inner product  a * sum grad u . grad v + sum V u v.

    ``potential`` is a scalar or an array of potential values on the box.
    Positive ``a`` and positive potential make this an inner product; that
    is the caller's contract and is not re-checked here.
    """
    pot = np.asarray(potential, dtype=float)
    return a * gradient_inner(u, v) + float(np.sum(pot * u.values * v.values))


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


def save_field_text(u: Field, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# lattice-field v1 radius={u.box.radius} mode={u.box.mode}\n")
        for value in u.flat:
            fh.write(f"{value:.16e}\n")


def load_field_text(path) -> Field:
    with open(path, "r") as fh:
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
