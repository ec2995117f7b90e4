"""The variational energy for the nonlocal Kirchhoff problem on a box.

The equation under study is

    -(a + b sum |grad u|^2) (lap u) + V(x) u = (R_alpha * F(u)) f(u)

with a > 0, b >= 0, a positive potential V bounded below by V0 > 0, and a
power nonlinearity f(t) = coeff |t|^(p-2) t whose primitive is
F(t) = coeff |t|^p / p.  Solutions are critical points of

    J(u) = 1/2 ||u||^2 + b/4 (sum |grad u|^2)^2
           - 1/2 sum (R_alpha * F(u)) F(u),

where ||u||^2 = a sum |grad u|^2 + sum V u^2 is the energy-space norm.
The first variation is

    <J'(u), phi> = (u, phi) + b (sum |grad u|^2) (sum grad u . grad phi)
                   - sum (R_alpha * F(u)) f(u) phi,

whose pointwise representer is the gradient field

    g = -(a + b sum |grad u|^2) (lap u) + V u - (R_alpha * F(u)) f(u).

``evaluate`` is the one evaluation core: a single convolution R * F(u)
gives ||u||^2, A, B and D, J(su) in closed form along the ray, and the
gradient at su (R * F(su) = s^p R * F(u)); ``energy`` is a view of it.
``pairing`` expands the variation bilinearly with its own convolution, as
the referee.

Admissibility of the power: p > 2 makes the interaction superquadratic
along rays (the mechanism behind uniqueness of the projection scale), and
p > (3 + alpha)/3 keeps the interaction controlled by the convolution
inequality on l^p spaces.  The quotient bound theta F(t) <= 2 t f(t) holds
for any theta <= 2p; theta defaults to 2p and must exceed 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import GreenKernel, convolve
from .lattice import Field, LatticeBox, _edge_sum, _laplacian_values, gradient_inner, h_inner

CONSTANT = "constant"
COERCIVE = "coercive"
PERIODIC_POTENTIAL = "periodic"


@dataclass(frozen=True)
class PotentialSpec:
    """A potential V on Z^3, bounded below by a positive floor v0.

    Three shapes are supported: ``constant`` V = v0; ``coercive``
    V(x) = v0 + rate |x - center|^power with Euclidean distance, which
    grows without bound; and ``periodic`` V(x) = table[x mod tau], a
    tau-periodic tiling whose table values must all be >= v0.
    """

    kind: str
    v0: float
    rate: float = 0.0
    power: float = 0.0
    center: tuple = (0, 0, 0)
    tau: int = 0
    table: tuple = ()

    def __post_init__(self):
        # each message names its parameter first, so a config error can anchor at its key
        if not all(math.isfinite(t) for t in self.table):  # before v0, its floor in periodic()
            raise ValueError("table values of a periodic potential must be finite")
        if not math.isfinite(self.v0) or self.v0 <= 0.0:
            raise ValueError(f"v0 (the potential floor) must be positive and finite, got {self.v0}")
        if self.kind == CONSTANT:
            return
        if self.kind == COERCIVE:
            for name in ("rate", "power"):
                value = getattr(self, name)
                if not math.isfinite(value) or value <= 0.0:
                    raise ValueError(f"{name} of a coercive potential must be positive and "
                                     f"finite, got {value}")
            if len(self.center) != 3:
                raise ValueError("center of the potential must have three coordinates")
            return
        if self.kind == PERIODIC_POTENTIAL:
            if self.tau < 1:
                raise ValueError(f"tau (the period) must be a positive integer, got {self.tau}")
            if len(self.table) != self.tau ** 3:
                raise ValueError(
                    f"table needs tau^3 = {self.tau ** 3} values, got {len(self.table)}"
                )
            if min(self.table) < self.v0:
                raise ValueError("table values must not drop below the floor v0")
            return
        raise ValueError(f"kind {self.kind!r} is not a known potential kind")

    @classmethod
    def constant(cls, v0: float) -> "PotentialSpec":
        return cls(CONSTANT, v0)

    @classmethod
    def coercive(cls, v0: float, rate: float, power: float, center=(0, 0, 0)) -> "PotentialSpec":
        return cls(COERCIVE, v0, rate=rate, power=power, center=tuple(center))

    @classmethod
    def periodic(cls, tau: int, table) -> "PotentialSpec":
        """The tau-periodic tiling of ``table``; its floor v0 is the smallest entry."""
        table = tuple(float(t) for t in np.asarray(table, dtype=float).reshape(-1))
        return cls(PERIODIC_POTENTIAL, min(table), tau=int(tau), table=table)

    def value(self, x) -> float:
        """Evaluate V at a single site."""
        if self.kind == CONSTANT:
            return self.v0
        if self.kind == COERCIVE:
            d2 = sum((float(c) - float(c0)) ** 2 for c, c0 in zip(x, self.center))
            return self.v0 + self.rate * d2 ** (self.power / 2.0)
        cube = np.asarray(self.table).reshape(self.tau, self.tau, self.tau)
        return float(cube[x[0] % self.tau, x[1] % self.tau, x[2] % self.tau])

    def table_on(self, box: LatticeBox) -> np.ndarray:
        """Potential values at every site of a box, shaped like a field."""
        if self.kind == CONSTANT:
            return np.full((box.side,) * 3, self.v0)
        if self.kind == COERCIVE:
            d2 = box.squared_distance_grid(self.center)
            return self.v0 + self.rate * d2 ** (self.power / 2.0)
        cube = np.asarray(self.table).reshape(self.tau, self.tau, self.tau)
        x1, x2, x3 = box.coordinate_grids()
        return cube[x1 % self.tau, x2 % self.tau, x3 % self.tau]

    def minimum_site(self, box: LatticeBox):
        """A site where V is smallest over the box.

        Ties go to the site nearest the box center (then lexicographic):
        for periodic potentials every low cell is a minimum and starting
        a localized guess at the boundary of a truncated box biases the
        solve toward boundary artifacts.
        """
        table = self.table_on(box)
        n = box.radius
        sites = np.argwhere(table == table.min()) - n
        d2 = np.sum(sites * sites, axis=1)
        best = sites[d2 == d2.min()]
        i, j, k = min(map(tuple, best))
        return (int(i), int(j), int(k))


@dataclass(frozen=True)
class PowerNonlinearity:
    """f(t) = coeff |t|^(p-2) t with primitive F(t) = coeff |t|^p / p."""

    coefficient: float
    exponent: float
    theta: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not math.isfinite(self.coefficient) or self.coefficient <= 0.0:
            raise ValueError(f"coefficient of the nonlinearity must be positive and finite, "
                             f"got {self.coefficient}")
        if not math.isfinite(self.exponent) or self.exponent <= 2.0:
            raise ValueError(f"exponent (the power p) must be finite and exceed 2, "
                             f"got {self.exponent}")
        if self.theta is None:
            object.__setattr__(self, "theta", 2.0 * self.exponent)
        if not 4.0 < self.theta <= 2.0 * self.exponent:
            raise ValueError(
                f"theta must lie in (4, 2p] = (4, {2 * self.exponent}], got {self.theta}"
            )

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return self.coefficient * np.abs(t) ** (self.exponent - 2.0) * t

    def F(self, t):
        t = np.asarray(t, dtype=float)
        return self.coefficient / self.exponent * np.abs(t) ** self.exponent

    def f_prime(self, t):
        t = np.asarray(t, dtype=float)
        return self.coefficient * (self.exponent - 1.0) * np.abs(t) ** (self.exponent - 2.0)


@dataclass(frozen=True)
class ProblemSpec:
    """Everything that defines one variational problem on one box."""

    box: LatticeBox
    potential: PotentialSpec
    nonlinearity: PowerNonlinearity
    alpha: float
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.a) or self.a <= 0.0:
            raise ValueError(f"a (the diffusion weight) must be positive and finite, got {self.a}")
        if not math.isfinite(self.b) or self.b < 0.0:
            raise ValueError(f"b (the Kirchhoff weight) must be nonnegative and finite, "
                             f"got {self.b}")
        if not 0.0 < self.alpha < 3.0:
            raise ValueError(f"alpha (the fractional order) must lie in (0, 3), got {self.alpha}")
        p = self.nonlinearity.exponent
        if p <= (3.0 + self.alpha) / 3.0:
            raise ValueError(
                f"exponent {p} too small for alpha={self.alpha}: "
                f"needs p > (3+alpha)/3 = {(3.0 + self.alpha) / 3.0:.4f}"
            )

    @cached_property
    def potential_table(self) -> np.ndarray:
        table = self.potential.table_on(self.box)
        table.setflags(write=False)
        return table

    def with_box(self, box: LatticeBox) -> "ProblemSpec":
        return ProblemSpec(box, self.potential, self.nonlinearity, self.alpha, self.a, self.b)

    def h_inner(self, u: Field, v: Field) -> float:
        return h_inner(u, v, self.a, self.potential_table)

    def h_norm(self, u: Field) -> float:
        return float(np.sqrt(self.h_inner(u, u)))


def _check_kernel(spec: ProblemSpec, kernel: GreenKernel) -> None:
    if abs(kernel.alpha - spec.alpha) > 1.0e-12:
        raise ValueError(
            f"kernel order {kernel.alpha} does not match problem order {spec.alpha}"
        )


@dataclass(frozen=True)
class FiberCoefficients:
    """The four ray invariants of a field, plus the power they scale with.

    A coefficient that is not finite is a RuntimeError: it comes from an
    evaluation that overflowed, which the solver reports as non-convergence.
    """

    norm_h2: float
    grad2: float
    drive: float
    interaction: float
    exponent: float

    def __post_init__(self):
        for name in ("norm_h2", "grad2", "drive", "interaction"):
            if not math.isfinite(getattr(self, name)):
                raise RuntimeError(f"fiber coefficient {name} is not finite")


@dataclass(frozen=True, eq=False)
class Evaluation(FiberCoefficients):
    """The functional at u: its fiber coefficients plus ``conv`` = R * F(u)."""

    spec: ProblemSpec
    u: Field
    conv: np.ndarray

    def ray_energy(self, s: float = 1.0) -> float:
        """J(su) = s^2/2 ||u||^2 + b s^4/4 A^2 - s^(2p) B/2, with no convolution."""
        return (0.5 * s * s * self.norm_h2 + 0.25 * self.spec.b * s ** 4 * self.grad2 ** 2
                - 0.5 * s ** (2.0 * self.exponent) * self.interaction)

    def at_scale(self, s: float) -> "Evaluation":
        """The evaluation at su, using R * F(su) = s^p R * F(u)."""
        sp = s ** self.exponent
        return Evaluation(s * s * self.norm_h2, s * s * self.grad2, sp * (sp * self.drive),
                          sp * (sp * self.interaction), self.exponent, self.spec,
                          Field(self.u.box, s * self.u.values), sp * self.conv)

    def gradient(self) -> np.ndarray:
        """Representer g with <J'(u), phi> = sum g phi for every phi, as a box-shaped array."""
        spec, u = self.spec, self.u.values
        return (
            -(spec.a + spec.b * self.grad2) * _laplacian_values(u, self.u.box.mode)
            + spec.potential_table * u
            - self.conv * spec.nonlinearity.f(u)
        )


def evaluate(spec: ProblemSpec, kernel: GreenKernel, u: Field) -> Evaluation:
    """Evaluate the functional at u with exactly one convolution.

    D = sum (R * F(u)) f(u) u and B = sum (R * F(u)) F(u) are accumulated
    through separate pointwise products; for the power nonlinearity
    f(t) t = p F(t) forces D = p B, which is asserted as a consistency
    check rather than assumed.
    """
    _check_kernel(spec, kernel)
    nl = spec.nonlinearity
    big_f = nl.F(u.values)
    conv = convolve(kernel, Field(u.box, big_f)).values
    with np.errstate(over="ignore", invalid="ignore"):  # FiberCoefficients rejects inf and nan
        drive = float(np.sum(conv * nl.f(u.values) * u.values))
        interaction = float(np.sum(conv * big_f))
    if abs(drive - nl.exponent * interaction) > 1.0e-10 * abs(drive):
        raise RuntimeError(
            "fiber drive and interaction violate the power identity D = pB: "
            f"{drive!r} vs p*B = {nl.exponent * interaction!r}"
        )
    grad2 = _edge_sum(u.values, u.values, u.box.mode)  # and ||u||^2 = a A + sum V u u
    norm_h2 = spec.a * grad2 + float(np.sum(spec.potential_table * u.values * u.values))
    return Evaluation(norm_h2, grad2, drive, interaction, nl.exponent, spec, u, conv)


def energy(spec: ProblemSpec, kernel: GreenKernel, u: Field) -> float:
    """Total energy J(u)."""
    return evaluate(spec, kernel, u).ray_energy()


def pairing(spec: ProblemSpec, kernel: GreenKernel, u: Field, phi: Field) -> float:
    """First variation <J'(u), phi> through the bilinear-form expansion."""
    _check_kernel(spec, kernel)
    grad2 = gradient_inner(u, u)
    cross = gradient_inner(u, phi)
    linear = spec.h_inner(u, phi)
    big_f = spec.nonlinearity.F(u.values)
    conv = convolve(kernel, Field(u.box, big_f)).values
    drive = float(np.sum(conv * spec.nonlinearity.f(u.values) * phi.values))
    return linear + spec.b * grad2 * cross - drive
