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
scalar multiple of the full gradient.  ``solve_ground_state`` descends
on the sphere along the gradient's representer in the Kirchhoff-weighted
energy norm (a Sobolev gradient in Neuberger's sense): the direction d
solves (-(a + bA) lap + V) d = g, the linear part of the gradient with A
frozen at the current point, by a few conjugate-gradient steps.  Below a
residual of _SWITCH_RESIDUAL times min(1, scale), Newton steps polish the
Euler-Lagrange residual to roundoff, where energy differences no longer
resolve but the residual still does; their minres solves are
preconditioned by that same operator, inverted exactly where it separates
by axis (``separable``) and by conjugate gradients elsewhere.  The solve
converges when ||g|| <= _TOLERANCE times the scale of
``Evaluation.residual``, so the stop follows a, b, V and the coefficient.
Such numerics (_TOLERANCE, _ARMIJO, ...) are module constants.

The solver core runs on box-shaped arrays; a ``Field`` is validated only
where data enters it (the start field, ``evaluate``, ``convolve``) or
leaves it (``SolveReport.solution``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import Evaluation, FiberCoefficients, ProblemSpec, evaluate, nehari_radius
from .kernel import GreenKernel, convolve
from .lattice import Field, _edge_sum, _laplacian_values, h_inner
from .separable import separable_inverse


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
# relative residual of the inner CG solve that applies minres's preconditioner
# where it does not separate by axis (see ``separable.separable_inverse``)
_PRECONDITIONER_RTOL = 1.0e-6
# bound on the ray root's residual |q(s)|, relative to the largest term of q
_ROOT_TOLERANCE = 1.0e-12
# Armijo constant, backtrack factor and backtrack budget of the descent
_ARMIJO = 1.0e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
# step budgets of the descent and of the Newton polish
_MAX_ITERATIONS = 2000
_NEWTON_MAX_ITERATIONS = 30
# the residual at which the descent hands over to the Newton polish, times min(1, scale)
_SWITCH_RESIDUAL = 1.0e-3
# the relative residual ||g|| / scale of convergence: g's terms carry rounding
# errors near eps * scale, so a few hundred ulps is what a double can certify
_TOLERANCE = 1.0e-13


def nehari_scale(coeffs: FiberCoefficients, b: float) -> float:
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
    baa = b * aa * aa
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
    defect = coeffs.nehari_defect(b, s)
    if defect > _ROOT_TOLERANCE:
        raise RuntimeError(f"fiber root residual {defect:.3e} exceeds "
                           f"tolerance {_ROOT_TOLERANCE:.3e}")
    return s


def _stepped(values: np.ndarray, length: float, direction: np.ndarray) -> np.ndarray:
    """values + length * direction; a step that overflows or lands on u = 0 is a RuntimeError.

    The zero field is a critical point of J, but a trivial one off the Nehari set.
    """
    out = values + length * direction
    if not np.isfinite(out).all():
        raise RuntimeError(f"a step of length {length!r} overflows")
    if not out.any():
        raise RuntimeError(f"a step of length {length!r} lands on the zero field")
    return out


@np.errstate(over="ignore")
def sphere_inverse(u: Field, a: float, potential_table: np.ndarray) -> Field:
    """Map a nonzero field to the unit sphere of the energy norm: u / ||u||.

    The zero field is a ValueError; a nonzero field whose squared norm
    leaves the double range, to 0 or inf, is a RuntimeError.
    """
    if not u.values.any():
        raise ValueError("cannot normalize the zero field")
    norm2 = h_inner(u, u, a, potential_table)
    if not 0.0 < norm2 < math.inf:
        raise RuntimeError(f"squared energy norm {norm2!r} of a nonzero field leaves the "
                           f"double range")
    return Field(u.box, u.values / math.sqrt(norm2))


def _cg(matvec, b: np.ndarray, diag: np.ndarray, rtol: float, maxiter: int):
    """Jacobi-preconditioned conjugate gradients from x = 0 on flat arrays.

    A port of scipy.sparse.linalg.cg with atol = 0 and M = diag^-1: the same
    iteration and stopping test ||r|| < rtol ||b||, and info = maxiter when
    the budget runs out.
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    atol = rtol * bnrm2
    x = np.zeros_like(b)
    r = b.copy()
    rho_prev = p = None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = r / diag
        rho_cur = np.dot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
    return x, maxiter


def _minres(matvec, b: np.ndarray, psolve, rtol: float, maxiter: int):
    """Preconditioned MINRES from x = 0 on flat arrays, for symmetric indefinite operators.

    A port of scipy.sparse.linalg.minres with M = psolve and no shift: the
    same Lanczos recurrences in the M^-1 inner product, the same stopping
    tests (istop), and info = maxiter when the budget runs out.  psolve
    must be symmetric positive definite; r.M^-1 r < 0 raises RuntimeError
    (scipy raises ValueError).  matvec must return a new array, which is
    updated in place: fewer vectors alive at once lower a solve's peak memory.
    """
    eps = np.finfo(float).eps
    r1 = b  # never written in place, like every vector here but x and y
    y = psolve(r1)
    beta1 = np.dot(r1, y)
    if beta1 < 0:
        raise RuntimeError(f"minres preconditioner is indefinite (r.M^-1 r = {beta1:.3e})")
    if beta1 == 0:
        return np.zeros_like(b), 0
    beta1 = math.sqrt(beta1)
    x = np.zeros_like(b)
    istop = itn = 0
    oldb = dbar = epsln = 0.0
    beta = phibar = rhs1 = beta1
    rhs2 = tnorm2 = gmax = 0.0
    gmin = np.finfo(float).max
    cs, sn = -1.0, 0.0
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)  # the w before w; the one before that is dropped once used
    r2 = r1
    while itn < maxiter:
        itn += 1
        v = (1.0 / beta) * y
        y = matvec(v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = np.dot(v, y)
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = psolve(r2)
        oldb = beta
        beta = np.dot(r2, y)
        if beta < 0:
            raise RuntimeError(f"minres preconditioner is indefinite (r.M^-1 r = {beta:.3e})")
        beta = math.sqrt(beta)
        tnorm2 += alfa ** 2 + oldb ** 2 + beta ** 2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1  # b is an eigenvector; terminate below
        # apply the previous rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.sqrt(gbar ** 2 + dbar ** 2)
        gamma = max(math.sqrt(gbar ** 2 + beta ** 2), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        denom = 1.0 / gamma
        w2, w = w, (v - oldeps * w2 - delta * w) * denom
        x += phi * w
        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        z = rhs1 / gamma
        rhs1 = rhs2 - delta * z
        rhs2 = -epsln * z
        # norm estimates and the stopping tests
        anorm = math.sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        epsx = anorm * ynorm * eps
        rnorm = phibar
        test1 = math.inf if ynorm == 0 or anorm == 0 else rnorm / (anorm * ynorm)
        test2 = math.inf if anorm == 0 else root / anorm
        acond = gmax / gmin
        if istop == 0:
            if 1 + test2 <= 1:
                istop = 2
            if 1 + test1 <= 1:
                istop = 1
            if itn >= maxiter:
                istop = 6
            if acond >= 0.1 / eps:
                istop = 4
            if epsx >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1
        if istop != 0:
            break
    return x, maxiter if istop == 6 else 0


def _h_representer(spec: ProblemSpec, g: np.ndarray, rtol: float = 1.0e-12,
                   weight: float = None) -> np.ndarray:
    """Solve (-c lap + V) r = g, so that c (grad r, grad z) + sum V r z = sum g z.

    The weight c defaults to a, which makes r the representer of g in the
    energy inner product (r, z)_H; the descent and the Newton preconditioner
    pass c = a + bA.  g is box-shaped or flat, and r takes its shape.
    """
    box = spec.box
    table_shape = spec.potential_table.shape
    table = spec.potential_table.ravel()
    c = spec.a if weight is None else weight

    def matvec(x):
        return -c * _laplacian_values(x.reshape(table_shape), box.mode).ravel() + table * x

    sol, info = _cg(matvec, g.ravel(), 6.0 * c + table, rtol, 40 * box.side)
    if info != 0:
        raise RuntimeError(f"energy-norm representer solve did not converge (cg info={info})")
    return sol.reshape(g.shape)


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
    s_history: np.ndarray
    energy_history: np.ndarray
    residual_history: np.ndarray

    def history_rows(self):
        """(iteration, energy, residual, s) rows for the run log."""
        for i in range(len(self.energy_history)):
            yield i, self.energy_history[i], self.residual_history[i], self.s_history[i]


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
    spec, box, u = point.spec, point.u.box, point.u.values
    fu = spec.nonlinearity.f(u)
    lap_u = _laplacian_values(u, box.mode)
    conv_fp = point.conv * spec.nonlinearity.f_prime(u)
    weight = -(spec.a + spec.b * point.grad2)

    def apply(x: np.ndarray) -> np.ndarray:
        v = x.reshape(u.shape)
        cross = _edge_sum(u, v, box.mode)
        conv_fv = convolve(kernel, Field(box, fu * v)).values
        # term by term in place, in the order and rounding of one sum expression
        out = _laplacian_values(v, box.mode)
        out *= weight
        out -= 2.0 * spec.b * cross * lap_u
        out += spec.potential_table * v
        out -= conv_fv * fu
        out -= conv_fp * v
        return out.ravel()

    return apply


# numpy's overflow warnings are off in the solver: an overflowed step is a
# RuntimeError, and a report is converged only at a finite residual and energy
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_ground_state(spec: ProblemSpec, kernel: GreenKernel,
                       start: Field = None) -> SolveReport:
    """Minimize the reduced functional on the unit sphere, then polish.

    The descent starts from a copy of ``start``, a field on the problem's
    box (a field on another box is a ValueError), or by default from the
    Gaussian bump at the potential's minimum site.

    Phase one: Sobolev-gradient descent in the unit-sphere chart.  The
    iterate is a unit field w; the step direction is -d, where d solves
    (-(a + bA) lap + V) d = g for the gradient g of J at the projected
    point s_w w (A its squared gradient) by conjugate gradients from
    zero to relative residual _DESCENT_RTOL.  CG from zero on this SPD
    system gives g.d > 0 at any tolerance, so -d always descends.  The
    step length starts from a Barzilai-Borwein estimate and backtracks by
    _BACKTRACK, at most _MAX_BACKTRACKS times, to Armijo decrease (_ARMIJO).
    Phase two: below a residual of _SWITCH_RESIDUAL * min(1, scale) the
    energy is flat to roundoff, so Newton steps polish the Euler-Lagrange
    residual itself, by minres on the exact second-derivative action
    preconditioned with P^-1, P = -(a + bA) lap + V, and a merit rule of
    residual decrease.  P^-1 is built once per step: exact, by
    ``separable.separable_inverse``, on a Dirichlet box with an additive
    potential table, and else CG to _PRECONDITIONER_RTOL at every
    application.  Both phases stop at
    ||g|| <= _TOLERANCE * scale.

    Failures are reported in the returned SolveReport (converged flag and
    message), not raised: a stalled line search or exhausted iteration
    budget still produces a usable field and diagnostics.  A RuntimeError
    from the start field's normalization, the ray root, the D = pB check,
    an exhausted CG budget, an overflowing separable preconditioner or an
    indefinite minres preconditioner ends the iteration with its message
    and converged=False, reporting the last evaluated point (the start
    field as given if none was).
    """
    box = spec.box
    if start is None:
        w0 = gaussian_bump_field(box, spec.potential.minimum_site(box))
    elif start.box != box:
        raise ValueError(f"start field lives on a radius-{start.box.radius} {start.box.mode} "
                         f"box, not on the problem's radius-{box.radius} {box.mode} box")
    else:
        w0 = start.copy()
    history = []
    message = "ok"
    failed = False
    iterations = newton_iterations = 0
    point = None  # the evaluation at the current iterate
    try:
        w0 = sphere_inverse(w0, spec.a, spec.potential_table)
        w = w0.values  # the iterate on the unit sphere
        first = evaluate(spec, kernel, w0)
        s = nehari_scale(first, spec.b)
        current = first.ray_energy(s)
        point = first.at_scale(s)
        g, gnorm, scale = point.residual()
        prev_w = prev_gp = None
        step = None

        for iterations in range(_MAX_ITERATIONS):
            history.append((current, gnorm, s))
            if not (math.isfinite(gnorm) and math.isfinite(scale)):  # inf <= inf holds below
                raise RuntimeError(f"residual {gnorm!r} at scale {scale!r} is not finite")
            if gnorm <= max(_TOLERANCE * scale, _SWITCH_RESIDUAL * min(1.0, scale)):
                break

            weight = spec.a + spec.b * point.grad2
            gp = _h_representer(spec, g, _DESCENT_RTOL, weight=weight)
            direction = -gp
            if prev_w is not None:
                dw = w - prev_w
                dg = gp - prev_gp
                denom = float(np.sum(dw * dg))
                step = float(np.sum(dw * dw)) / denom if denom > 0.0 else None
            prev_w, prev_gp = w, gp  # never written in place, so no copies
            if step is None or not math.isfinite(step) or step <= 0.0:
                step = 0.1 * math.sqrt(np.sum(w ** 2) / np.sum(direction ** 2))

            slope = float(np.sum(g * direction))
            for _ in range(_MAX_BACKTRACKS):
                trial = evaluate(spec, kernel, Field(box, _stepped(w, step, direction)))
                s_trial = nehari_scale(trial, spec.b)
                e_trial = trial.ray_energy(s_trial)
                if e_trial <= current + _ARMIJO * step * s * slope:
                    break
                step *= _BACKTRACK
            else:
                message = "descent line search stalled; switching to Newton polish"
                break
            norm_trial = math.sqrt(trial.norm_h2)
            w = trial.u.values / norm_trial
            s = s_trial * norm_trial
            current = e_trial
            point = trial.at_scale(s_trial)
            g, gnorm, scale = point.residual()
        else:
            message = "descent iteration budget exhausted"
        # the descent's arrays are dead: dropped, they leave room for minres's
        first = trial = w = prev_w = prev_gp = gp = direction = None

        # Newton polish on the Euler-Lagrange residual
        for _ in range(_NEWTON_MAX_ITERATIONS):
            if gnorm <= _TOLERANCE * scale:
                break
            weight = spec.a + spec.b * point.grad2
            psolve = (separable_inverse(spec, weight)
                      or (lambda r: _h_representer(spec, r, _PRECONDITIONER_RTOL, weight)))
            delta, _ = _minres(_hessian(kernel, point), -g.ravel(), psolve,
                               _NEWTON_RTOL, _NEWTON_MAXITER)
            delta = delta.reshape(g.shape)
            length = 1.0
            for _ in range(30):
                trial = evaluate(spec, kernel, Field(box, _stepped(point.u.values, length, delta)))
                trial_residual = trial.residual()
                if trial_residual[1] < gnorm:
                    break
                length *= 0.5
            else:
                message = "Newton polish stalled before reaching the residual tolerance"
                break
            point, (g, gnorm, scale) = trial, trial_residual
            newton_iterations += 1
            history.append((point.ray_energy(), gnorm, nehari_scale(point, spec.b)))
        else:
            message = "Newton iteration budget exhausted"
    except RuntimeError as exc:
        message, failed = str(exc), True

    eta = nehari_radius(spec, kernel)
    if point is None:  # the start itself could not be evaluated or scaled
        return SolveReport(w0, *[math.nan] * 5, eta, 0, 0, False, message, *np.empty((3, 0)))
    try:
        rep = _h_representer(spec, g)
        h_residual = float(math.sqrt(max(np.sum(rep * g), 0.0)))
    except RuntimeError as exc:
        h_residual, message = math.nan, f"{message}; {exc}"
    try:
        energy = point.ray_energy()
    except RuntimeError as exc:
        energy, message = math.nan, f"{message}; {exc}"
    converged = (not failed and all(map(math.isfinite, (gnorm, scale, energy)))
                 and gnorm <= _TOLERANCE * scale)
    if converged and message not in ("ok",):
        message = "ok after Newton polish"

    hist = np.asarray(history, dtype=float).reshape(-1, 3)
    return SolveReport(
        solution=point.u,
        energy=energy,
        residual=gnorm,
        residual_scale=scale,
        h_residual=h_residual,
        nehari_defect=point.nehari_defect(spec.b),
        eta_estimate=eta,
        iterations=iterations,
        newton_iterations=newton_iterations,
        converged=converged,
        message=message,
        s_history=hist[:, 2].copy(),
        energy_history=hist[:, 0].copy(),
        residual_history=hist[:, 1].copy(),
    )
