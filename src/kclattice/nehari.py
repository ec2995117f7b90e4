"""Nehari manifold machinery and the ground-state solver.

For the power nonlinearity the ray energy through a fixed field u is the
polynomial

    J(su) = s^2/2 ||u||^2 + b s^4/4 A^2 - s^(2p) B/2,

with A = sum |grad u|^2 and B = sum (R * F(u)) F(u), so s d/ds J(su)
factors as s^2 q(s) with

    q(s) = ||u||^2 + b A^2 s^2 - D s^(2p-2),          D = pB.

Since 2p - 2 > 4 > 2 the quotient q is eventually negative and has a
single sign change on (0, inf); its unique root s_u places s_u u on the
Nehari set {u != 0 : <J'(u), u> = 0}.  Dividing out the ray direction
reduces the ground-state problem to minimizing

    Psi(w) = J(s_w w)  on the unit sphere of the energy norm,

and the envelope identity d Psi(w)[h] = s_w <J'(s_w w), h> (the s
derivative vanishes on the Nehari set) makes the reduced gradient a
scalar multiple of the full gradient.  The solver is two phases over one
iterate record, ``_Iterate``: ``_descend`` runs a Sobolev-gradient descent
on the sphere to a hand-over residual, ``_polish`` runs Newton steps on the
Euler-Lagrange residual to roundoff, and ``solve_ground_state`` drives them
and reports the record.  ``krylov`` owns every solve with their operator
P = -(a + bA) lap + V.  The solve converges when ||g|| <= _TOLERANCE times
the scale of ``Evaluation.residual``, so the stop follows a, b, V and the
coefficient.  Such numerics (_TOLERANCE, _ARMIJO, ...) are module constants.

The phases run on box-shaped arrays; a ``Field`` is validated only where
data enters it (the start field, ``evaluate``, ``convolve``) or leaves it
(``SolveReport.solution``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import FiberCoefficients, ProblemSpec, _hessian, evaluate, nehari_radius
from .kernel import GreenKernel
from .krylov import _h_representer, _minres, preconditioner
from .lattice import Field, _laplacian_values


# Newton stops once a step is below a few ulps of the root; bisection alone
# would need about 60 halvings of the initial bracket
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ROOT_ITERATIONS = 200
# relative residual of the inner CG solve that gives each descent direction;
# a rough representer already captures the Kirchhoff-weighted metric
_DESCENT_RTOL = 0.1
# relative residual and iteration budget of each Newton step's minres solve
_NEWTON_RTOL = 1.0e-4
_NEWTON_MAXITER = 400
# bound on the ray root's residual |q(s)|, relative to the largest term of q
_ROOT_TOLERANCE = 1.0e-12
# Armijo constant of the descent, the backtrack factor of both line searches,
# and the backtrack budgets of a descent step and of a Newton step
_ARMIJO = 1.0e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
_NEWTON_MAX_BACKTRACKS = 30
# step budgets of the descent and of the Newton polish
_MAX_ITERATIONS = 2000
_NEWTON_MAX_ITERATIONS = 30
# the residual at which the descent hands over to the Newton polish, times min(1, scale)
_SWITCH_RESIDUAL = 1.0e-3
# the relative residual ||g|| / scale of convergence: g's terms carry rounding
# errors near eps * scale, so a few hundred ulps is what a double can certify
_TOLERANCE = 1.0e-13


def nehari_scale(coeffs: FiberCoefficients) -> float:
    """The unique s > 0 placing s*u on the Nehari set.

    Roots q(s) = norm_h2 + b A^2 s^2 - D s^(2p-2).  q(0) > 0 and q has one
    sign change, so Newton's method safeguarded by a verified bracket
    pins the root to relative accuracy near machine precision, to a
    ``nehari_defect`` of at most _ROOT_TOLERANCE.  A zero field is a
    ValueError; a drive that underflowed to zero on a nonzero field is a
    RuntimeError.
    """
    nh, aa, dd = coeffs.norm_h2, coeffs.grad2, coeffs.drive
    p = coeffs.exponent
    if nh <= 0.0:
        raise ValueError(f"squared norm must be positive, got {nh}")
    if dd <= 0.0:
        raise RuntimeError(f"ray drive of a nonzero field must be positive, got {dd}")
    baa = coeffs.b * aa * aa
    ex = 2.0 * p - 2.0

    def q(s: float) -> float:
        return nh + baa * s * s - dd * s ** ex

    hi = 1.0
    for _ in range(600):
        try:
            if q(hi) <= 0.0:
                break
        except OverflowError:  # D s^(2p-2) left the double range before q turned negative
            raise RuntimeError("failed to bracket the fiber root from above") from None
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the fiber root from above")
    lo = 0.5 * hi
    for _ in range(600):
        if q(lo) >= 0.0:
            break
        hi = lo  # q(lo) < 0: keep the bracket a factor of 2 wide
        lo *= 0.5
    else:
        raise RuntimeError("failed to bracket the fiber root from below")
    # safeguarded Newton: q' < 0 at the root, so steps converge quadratically
    # near it; a step that leaves the shrinking bracket bisects instead
    s = 0.5 * (lo + hi)
    for _ in range(_ROOT_ITERATIONS):
        qs = q(s)
        if qs == 0.0:
            break
        if qs > 0.0:
            lo = s
        else:
            hi = s
        slope = 2.0 * baa * s - ex * dd * s ** (ex - 1.0)
        trial = s - qs / slope if slope < 0.0 else lo  # lo forces a bisection
        if not lo < trial < hi:
            trial = 0.5 * (lo + hi)
        if abs(trial - s) <= _ROOT_RTOL * s:
            break
        s = trial
    # Newton cannot resolve the last ulps through the roundoff in q: walk
    # one float at a time toward the sign change while |q| falls, for at
    # most _ROOT_ITERATIONS floats; the residual test below has the last word
    qs = q(s)
    for _ in range(_ROOT_ITERATIONS):
        if qs == 0.0:
            break
        trial = math.nextafter(s, math.inf if qs > 0.0 else 0.0)
        qt = q(trial)
        if abs(qt) >= abs(qs):
            break
        s, qs = trial, qt
    defect = coeffs.nehari_defect(s)
    if defect > _ROOT_TOLERANCE:
        raise RuntimeError(f"fiber root residual {defect:.3e} exceeds "
                           f"tolerance {_ROOT_TOLERANCE:.3e}")
    return s


@np.errstate(over="ignore")
def sphere_inverse(spec: ProblemSpec, u: Field) -> Field:
    """Map a nonzero field to the unit sphere of the problem's energy norm: u / ||u||.

    A field on another box or the zero field is a ValueError; a nonzero field
    whose squared norm leaves the double range, to 0 or inf, is a RuntimeError.
    """
    norm2 = spec.h_inner(u, u)
    if not u.values.any():
        raise ValueError("cannot normalize the zero field")
    if not 0.0 < norm2 < math.inf:
        raise RuntimeError(f"squared energy norm {norm2!r} of a nonzero field leaves the "
                           f"double range")
    return Field(u.box, u.values / math.sqrt(norm2))


@dataclass
class SolveReport:
    """Everything the solver learned, including failure diagnostics."""

    solution: Field
    energy: float
    residual: float
    residual_scale: float
    h_residual: float
    nehari_defect: float
    eta_estimate: float  # ``nehari_radius``: a proven floor on the norm of every Nehari point
    iterations: int
    newton_iterations: int
    converged: bool
    message: str
    history: np.ndarray  # one row per iteration, descent then Newton: energy, residual, s_u


def gaussian_bump_field(box, center=(0, 0, 0)) -> Field:
    """A normalized-by-nothing Gaussian bump of width max(n/4, 1); the default solver start."""
    width = max(box.radius / 4.0, 1.0)
    d2 = box.squared_distance_grid(center)
    return Field(box, np.exp(-d2 / (2.0 * width * width)))


def random_start_field(box, rng, center=(0, 0, 0)) -> Field:
    """Smoothed positive noise under a Gaussian envelope of width max(n/3, 1).

    Raw noise starts the descent outside the ground-state basin often
    enough to matter; three Jacobi smoothing sweeps push the high lattice
    frequencies down and make the basin of the positive ground state the
    practically certain destination.  ``rng`` is any object with a
    ``.random(shape)`` of uniforms in [0, 1).
    """
    width = max(box.radius / 3.0, 1.0)
    v = rng.random((box.side,) * 3)
    for _ in range(3):
        v = v + 0.125 * _laplacian_values(v, box.mode)
    d2 = box.squared_distance_grid(center)
    return Field(box, v * np.exp(-d2 / (2.0 * width * width)))


class _Iterate:
    """The last evaluated point with its residual (g, gnorm, scale), each phase's step count
    and the history rows (energy, residual, s_u), updated in place: a failed solve reports it."""

    def __init__(self):
        self.point = self.g = self.gnorm = self.scale = None
        self.iterations = self.newton_iterations = 0
        self.history = []

    def move(self, point, residual=None):
        self.point = point
        self.g, self.gnorm, self.scale = point.residual() if residual is None else residual


def _backtracking(spec, kernel, values, direction, length, budget):
    """Yield (length, evaluate(values + length * direction)) for at most budget lengths,
    each _BACKTRACK times the last.  A trial that overflows or lands on u = 0 (a critical
    point of J, but a trivial one off the Nehari set) is a RuntimeError."""
    for _ in range(budget):
        trial = values + length * direction
        if not np.isfinite(trial).all():
            raise RuntimeError(f"a step of length {length!r} overflows")
        if not trial.any():
            raise RuntimeError(f"a step of length {length!r} lands on the zero field")
        yield length, evaluate(spec, kernel, Field(spec.box, trial))
        length *= _BACKTRACK


def _descend(spec, kernel, w: Field, it: _Iterate):
    """Sobolev-gradient descent in the unit-sphere chart, from the unit field w.

    The step direction is -d, where d, the gradient's representer in the
    Kirchhoff-weighted energy norm (a Sobolev gradient in Neuberger's sense),
    solves (-(a + bA) lap + V) d = g for the gradient g of J at the projected
    point s_w w (A its squared gradient) by conjugate gradients from
    zero to relative residual _DESCENT_RTOL.  CG from zero on this SPD
    system gives g.d > 0 at any tolerance, so -d always descends.  The
    step length starts from a Barzilai-Borwein estimate and backtracks by
    _BACKTRACK, at most _MAX_BACKTRACKS times, to Armijo decrease (_ARMIJO).
    Returns None at the hand-over residual, else its stop message.
    """
    first = evaluate(spec, kernel, w)
    w, s = w.values, nehari_scale(first)
    current = first.ray_energy(s)
    it.move(first.at_scale(s))
    prev_w = prev_gp = step = None
    for it.iterations in range(_MAX_ITERATIONS + 1):  # pass k records the point after k steps
        it.history.append((current, it.gnorm, s))
        if not (math.isfinite(it.gnorm) and math.isfinite(it.scale)):  # inf <= inf holds below
            raise RuntimeError(f"residual {it.gnorm!r} at scale {it.scale!r} is not finite")
        if it.gnorm <= max(_TOLERANCE * it.scale, _SWITCH_RESIDUAL * min(1.0, it.scale)):
            return None
        if it.iterations == _MAX_ITERATIONS:
            return "descent iteration budget exhausted"

        gp = _h_representer(spec, it.g, _DESCENT_RTOL, it.point.diffusion)
        direction = -gp
        if prev_w is not None:
            dw = w - prev_w
            dg = gp - prev_gp
            denom = float(np.sum(dw * dg))
            step = float(np.sum(dw * dw)) / denom if denom > 0.0 else None
        prev_w, prev_gp = w, gp  # never written in place, so no copies
        if step is None or not math.isfinite(step) or step <= 0.0:
            step = 0.1 * math.sqrt(np.sum(w ** 2) / np.sum(direction ** 2))

        slope = float(np.sum(it.g * direction))
        for step, trial in _backtracking(spec, kernel, w, direction, step, _MAX_BACKTRACKS):
            s_trial = nehari_scale(trial)
            e_trial = trial.ray_energy(s_trial)
            if e_trial <= current + _ARMIJO * step * s * slope:
                break
        else:
            return "descent line search stalled; switching to Newton polish"
        norm_trial = math.sqrt(trial.norm_h2)
        w = trial.u / norm_trial
        s = s_trial * norm_trial
        current = e_trial
        it.move(trial.at_scale(s_trial))


def _polish(spec, kernel, it: _Iterate):
    """Newton steps on the Euler-Lagrange residual, from the descent's last iterate.

    Below the hand-over residual the energy is flat to roundoff, so each step polishes the
    residual itself: minres on the exact second-derivative action, preconditioned with P^-1
    (``krylov.preconditioner``, built once per step), then a merit rule of residual
    decrease.  Returns None at ||g|| <= _TOLERANCE * scale, else its stop message.
    """
    for _ in range(_NEWTON_MAX_ITERATIONS):
        if it.gnorm <= _TOLERANCE * it.scale:
            return None
        psolve = preconditioner(spec, it.point.diffusion)
        delta, _ = _minres(_hessian(kernel, it.point), -it.g.ravel(), psolve,
                           _NEWTON_RTOL, _NEWTON_MAXITER)
        for _, trial in _backtracking(spec, kernel, it.point.u,
                                      delta.reshape(it.g.shape), 1.0, _NEWTON_MAX_BACKTRACKS):
            residual = trial.residual()
            if residual[1] < it.gnorm:
                break
        else:
            return "Newton polish stalled before reaching the residual tolerance"
        it.move(trial, residual)
        it.newton_iterations += 1
        it.history.append((trial.ray_energy(), it.gnorm, nehari_scale(trial)))
    return "Newton iteration budget exhausted"


# numpy's overflow warnings are off in the solver: an overflowed step is a
# RuntimeError, and a report is converged only at a finite residual and energy
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_ground_state(spec: ProblemSpec, kernel: GreenKernel,
                       start: Field = None) -> SolveReport:
    """Minimize the reduced functional on the unit sphere, then polish.

    The descent starts from ``start`` scaled to the unit sphere, a field on
    the problem's box (another box is a ValueError), or by default from the
    Gaussian bump at the potential's minimum site.

    Failures are reported in the returned SolveReport (converged flag and
    message), not raised: a stalled line search or exhausted iteration
    budget still produces a usable field and diagnostics.  A RuntimeError
    from the start field's normalization, the ray root, the D = pB check,
    an exhausted CG budget, an overflowing exact preconditioner or an
    indefinite minres preconditioner ends the iteration with its message
    and converged=False, reporting the last evaluated point (the start
    field as given if none was).  A converged message is ``ok``, or ``ok after
    Newton polish`` if the descent stopped; any other lists every stop in order.
    An error of the dual-norm residual or of the energy follows either.
    """
    if start is None:
        start = gaussian_bump_field(spec.box, spec.minimum_site)
    it = _Iterate()
    stops, notes = [], []  # each phase's return or error, in order; the report stage's errors
    try:
        stops.append(_descend(spec, kernel, sphere_inverse(spec, start), it))
        stops.append(_polish(spec, kernel, it))
    except RuntimeError as exc:
        stops.append(str(exc))

    eta = nehari_radius(spec, kernel)
    if it.point is None:  # the start itself could not be evaluated or scaled
        return SolveReport(start.copy(), *[math.nan] * 5, eta, 0, 0, False, stops[-1],
                           np.empty((0, 3)))
    h_residual = energy = math.nan
    try:
        rep = _h_representer(spec, it.g, 1.0e-12, spec.a)
        h_residual = float(math.sqrt(max(np.sum(rep * it.g), 0.0)))
    except RuntimeError as exc:
        notes.append(str(exc))
    try:
        energy = it.point.ray_energy()
    except RuntimeError as exc:
        notes.append(str(exc))
    converged = stops[-1] is None and all(map(math.isfinite, (it.gnorm, it.scale, energy)))
    head = ["ok" if stops[0] is None else "ok after Newton polish"] if converged else stops
    message = "; ".join([stop for stop in head if stop] + notes)

    return SolveReport(
        solution=Field(spec.box, it.point.u),
        energy=energy,
        residual=it.gnorm,
        residual_scale=it.scale,
        h_residual=h_residual,
        nehari_defect=it.point.nehari_defect(),
        eta_estimate=eta,
        iterations=it.iterations,
        newton_iterations=it.newton_iterations,
        converged=converged,
        message=message,
        history=np.asarray(it.history, dtype=float).reshape(-1, 3),
    )
