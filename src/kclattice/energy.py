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
gradient at su (R * F(su) = s^p R * F(u)) with its norm and scale
(``evaluate(...).ray_energy()`` is J(u), ``residual()[0]`` is g), and
``_hessian`` builds the second derivative's action at an evaluated point.
The record holds u and R * F(u) as arrays on the box; it alone forms a + bA.

Admissibility of the power: p > 2 makes the interaction superquadratic
along rays (the mechanism behind uniqueness of the projection scale), and
p > (3 + alpha)/3 keeps the interaction controlled by the convolution
inequality on l^p spaces; p > 2 implies that bound, as (3 + alpha)/3 < 2
for every alpha in (0, 3).  The power satisfies 2p F(t) = 2 t f(t), the
Ambrosetti-Rabinowitz bound with its sharpest index 2p > 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import GreenKernel, convolve, kernel_block
from .lattice import Field, LatticeBox, _edge_sum, _laplacian_values

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
        # the table, tau and its length come before v0, which periodic() takes from the table
        if not all(math.isfinite(t) for t in self.table):
            raise ValueError("table values of a periodic potential must be finite")
        if self.kind == PERIODIC_POTENTIAL:
            if self.tau < 1 or self.tau % 1:  # nan and inf fail the second test
                raise ValueError(f"tau (the period) must be a positive integer, got {self.tau}")
            if len(self.table) != self.tau ** 3:
                raise ValueError(
                    f"table needs tau^3 = {self.tau ** 3} values, got {len(self.table)}"
                )
        if not math.isfinite(self.v0) or self.v0 <= 0.0:
            raise ValueError(f"v0 (the potential floor) must be positive and finite, got {self.v0}")
        if self.kind == COERCIVE:
            for name in ("rate", "power"):
                value = getattr(self, name)
                if not math.isfinite(value) or value <= 0.0:
                    raise ValueError(f"{name} of a coercive potential must be positive and "
                                     f"finite, got {value}")
            if len(self.center) != 3:
                raise ValueError("center of the potential must have three coordinates")
        elif self.kind == PERIODIC_POTENTIAL:
            if min(self.table) < self.v0:
                raise ValueError("table values must not drop below the floor v0")
        elif self.kind != CONSTANT:
            raise ValueError(f"kind {self.kind!r} is not a known potential kind")

    @classmethod
    def constant(cls, v0: float) -> "PotentialSpec":
        return cls(CONSTANT, v0)

    @classmethod
    def coercive(cls, v0: float, rate: float, power: float, center=(0, 0, 0)) -> "PotentialSpec":
        return cls(COERCIVE, v0, rate=rate, power=power, center=tuple(center))

    @classmethod
    def periodic(cls, tau: int, table) -> "PotentialSpec":
        """The tau-periodic tiling of ``table``; its floor v0 is the smallest entry.

        An integral tau of any type is stored as an int; a fractional one is refused.
        """
        table = tuple(float(t) for t in np.asarray(table, dtype=float).reshape(-1))
        return cls(PERIODIC_POTENTIAL, min(table, default=math.nan),
                   tau=int(tau) if tau % 1 == 0 else tau, table=table)

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


@dataclass(frozen=True)
class PowerNonlinearity:
    """f(t) = coeff |t|^(p-2) t with primitive F(t) = coeff |t|^p / p."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if not math.isfinite(self.coefficient) or self.coefficient <= 0.0:
            raise ValueError(f"coefficient of the nonlinearity must be positive and finite, "
                             f"got {self.coefficient}")
        if not math.isfinite(self.exponent) or self.exponent <= 2.0:
            raise ValueError(f"exponent (the power p) must be finite and exceed 2, "
                             f"got {self.exponent}")

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

    @cached_property
    def potential_table(self) -> np.ndarray:
        table = self.potential.table_on(self.box)
        table.setflags(write=False)
        return table

    @cached_property
    def minimum_site(self) -> tuple:
        """A site where V is smallest over the box.

        Ties go to the site nearest the box center (then lexicographic):
        for periodic potentials every low cell is a minimum and starting
        a localized guess at the boundary of a truncated box biases the
        solve toward boundary artifacts.
        """
        table = self.potential_table
        sites = np.argwhere(table == table.min()) - self.box.radius
        d2 = np.sum(sites * sites, axis=1)
        i, j, k = min(map(tuple, sites[d2 == d2.min()]))
        return (int(i), int(j), int(k))

    def with_box(self, box: LatticeBox) -> "ProblemSpec":
        return ProblemSpec(box, self.potential, self.nonlinearity, self.alpha, self.a, self.b)

    def h_inner(self, u: Field, v: Field) -> float:
        """Energy inner product a sum grad u.grad v + sum V u v; another box is a ValueError."""
        _check_field(self, u)
        _check_field(self, v)
        return (self.a * _edge_sum(u.values, v.values, self.box.mode)
                + float(np.sum(self.potential_table * u.values * v.values)))

    def h_norm(self, u: Field) -> float:
        return float(np.sqrt(self.h_inner(u, u)))


def _check_kernel(spec: ProblemSpec, kernel: GreenKernel) -> None:
    if abs(kernel.alpha - spec.alpha) > 1.0e-12:
        raise ValueError(
            f"kernel order {kernel.alpha} does not match problem order {spec.alpha}"
        )


def _check_field(spec: ProblemSpec, u: Field) -> None:
    if u.box != spec.box:
        raise ValueError(f"field lives on a radius-{u.box.radius} {u.box.mode} box, not on "
                         f"the problem's radius-{spec.box.radius} {spec.box.mode} box")


@dataclass(frozen=True)
class FiberCoefficients:
    """The four ray invariants of a field, the power they scale with and the Kirchhoff weight.

    A coefficient that is not finite is a RuntimeError: it comes from an
    evaluation that overflowed, which the solver reports as non-convergence.
    """

    norm_h2: float
    grad2: float
    drive: float
    interaction: float
    exponent: float
    b: float

    def __post_init__(self):
        for name in ("norm_h2", "grad2", "drive", "interaction"):
            if not math.isfinite(getattr(self, name)):
                raise RuntimeError(f"fiber coefficient {name} is not finite")

    def nehari_defect(self, s: float = 1.0) -> float:
        """|q(s)| relative to the largest of its three terms, q(s) = ||u||^2 + b A^2 s^2 - D s^(2p-2).

        Relative to ||u||^2 alone, a root where the Kirchhoff term or the
        drive dominates would measure the cancellation of huge terms.
        """
        terms = (self.norm_h2, self.b * self.grad2 * self.grad2 * s * s,
                 self.drive * s ** (2.0 * self.exponent - 2.0))
        return abs(terms[0] + terms[1] - terms[2]) / max(terms)

    def ray_energy(self, s: float = 1.0) -> float:
        """J(su) = s^2/2 ||u||^2 + b s^4/4 A^2 - s^(2p) B/2, with no convolution.

        A power that leaves the double range is a RuntimeError, which the
        solver and the property suite report as a failure.
        """
        try:
            return (0.5 * s * s * self.norm_h2 + 0.25 * self.b * s ** 4 * self.grad2 ** 2
                    - 0.5 * s ** (2.0 * self.exponent) * self.interaction)
        except OverflowError:
            raise RuntimeError(f"ray energy at scale {s!r} overflows") from None


@dataclass(frozen=True, eq=False)
class Evaluation(FiberCoefficients):
    """The functional at u: its fiber coefficients, and u and ``conv`` = R * F(u) as arrays."""

    spec: ProblemSpec
    u: np.ndarray
    conv: np.ndarray

    @property
    def diffusion(self) -> float:
        """a + bA, the Kirchhoff-weighted coefficient of -lap in g and in P = -(a + bA) lap + V."""
        return self.spec.a + self.spec.b * self.grad2

    def at_scale(self, s: float) -> "Evaluation":
        """The evaluation at su, using R * F(su) = s^p R * F(u)."""
        sp = s ** self.exponent
        return Evaluation(s * s * self.norm_h2, s * s * self.grad2, sp * (sp * self.drive),
                          sp * (sp * self.interaction), self.exponent, self.b, self.spec,
                          s * self.u, sp * self.conv)

    def residual(self) -> tuple:
        """(g, ||g||, scale), the scale ||(a + bA) lap u|| + ||V u|| + ||(R * F(u)) f(u)||
        summing the l2 norms of g's three terms: ||g|| if none cancelled another."""
        spec, u = self.spec, self.u
        with np.errstate(over="ignore", invalid="ignore"):  # the solver rejects inf and nan
            terms = (-self.diffusion * _laplacian_values(u, spec.box.mode),
                     spec.potential_table * u, self.conv * spec.nonlinearity.f(u))
            g = terms[0] + terms[1] - terms[2]
            norms = [float(np.sqrt(np.sum(t ** 2))) for t in (g, *terms)]
        return g, norms[0], sum(norms[1:])


def evaluate(spec: ProblemSpec, kernel: GreenKernel, u: Field) -> Evaluation:
    """Evaluate the functional at u, on the problem's box, with exactly one convolution.

    D = sum (R * F(u)) f(u) u and B = sum (R * F(u)) F(u) are accumulated
    through separate pointwise products; for the power nonlinearity
    f(t) t = p F(t) forces D = p B, which is asserted as a consistency
    check rather than assumed.
    """
    _check_kernel(spec, kernel)
    _check_field(spec, u)
    nl, u = spec.nonlinearity, u.values
    with np.errstate(over="ignore"):
        big_f = nl.F(u)
    if not np.isfinite(big_f).all():
        raise RuntimeError("F(u) overflows the double range")
    conv = convolve(kernel, Field(spec.box, big_f))
    with np.errstate(over="ignore", invalid="ignore"):  # FiberCoefficients rejects inf and nan
        drive = float(np.sum(conv * nl.f(u) * u))
        interaction = float(np.sum(conv * big_f))
    if abs(drive - nl.exponent * interaction) > 1.0e-10 * abs(drive):
        raise RuntimeError(
            "fiber drive and interaction violate the power identity D = pB: "
            f"{drive!r} vs p*B = {nl.exponent * interaction!r}"
        )
    grad2 = _edge_sum(u, u, spec.box.mode)  # and ||u||^2 = a A + sum V u u
    norm_h2 = spec.a * grad2 + float(np.sum(spec.potential_table * u * u))
    return Evaluation(norm_h2, grad2, drive, interaction, nl.exponent, spec.b, spec, u, conv)


def _hessian(kernel: GreenKernel, point: Evaluation):
    """The second-derivative action x -> J''(u)[x] at the evaluated point u, on flat arrays.

    Differentiating g(u) = -(a + bA)lap u + V u - (R*F(u)) f(u) gives a
    Kirchhoff rank-one term 2b Gamma(u,v) lap u alongside the local and
    convolution linearizations; the operator is symmetric but in general
    indefinite away from the constraint set, hence minres downstream, whose
    preconditioner inverts the principal part -(a + bA) lap + V.  f(u),
    lap u and (R*F(u)) f'(u) depend on u alone, so they are computed once
    per Newton step, here; each action then makes one convolution.
    """
    spec, box, u = point.spec, point.spec.box, point.u
    fu = spec.nonlinearity.f(u)
    lap_u = _laplacian_values(u, box.mode)
    conv_fp = point.conv * spec.nonlinearity.f_prime(u)
    weight = -point.diffusion

    def apply(x: np.ndarray) -> np.ndarray:
        v = x.reshape(u.shape)
        cross = _edge_sum(u, v, box.mode)
        conv_fv = convolve(kernel, Field(box, fu * v))
        # term by term in place, in the order and rounding of one sum expression
        out = _laplacian_values(v, box.mode)
        out *= weight
        out -= 2.0 * spec.b * cross * lap_u
        out += spec.potential_table * v
        out -= conv_fv * fu
        out -= conv_fp * v
        return out.ravel()

    return apply


def log_interaction_constant(spec: ProblemSpec, kernel: GreenKernel) -> float:
    """log K, with B(u) <= K ||u||^(2p) on the box: K = (c/p)^2 ||R_block||_1 V_min^-p.

    Young's inequality on the box's ``kernel_block``, ||u||_2p <= ||u||_2 and
    ||u||_2^2 <= ||u||^2 / V_min (V_min the least V on the box) prove it up to rounding.
    K grows like n^alpha with the box, so its bounds weaken with the radius; logs
    keep it past the double range (a coefficient of 1e200).
    """
    _check_kernel(spec, kernel)
    c, p = spec.nonlinearity.coefficient, spec.nonlinearity.exponent
    return (2.0 * math.log(c / p) + math.log(float(np.sum(kernel_block(kernel, spec.box))))
            - p * math.log(float(spec.potential_table.min())))


def nehari_radius(spec: ProblemSpec, kernel: GreenKernel) -> float:
    """eta = (pK)^(-1/(2p-2)): Nehari points have ||u||^2 <= pB <= pK ||u||^(2p), so ||u|| >= eta
    and J >= sigma* = (1/2)(1 - 1/p) eta^2, the top of the floor rho^2/2 - K rho^(2p)/2 of J
    on the sphere ||u|| = rho.  Past the double range it is inf, as no Nehari point is a double."""
    p = spec.nonlinearity.exponent
    try:
        return math.exp(-(math.log(p) + log_interaction_constant(spec, kernel)) / (2.0 * p - 2.0))
    except OverflowError:
        return math.inf
