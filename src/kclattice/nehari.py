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
residual of _SWITCH_RESIDUAL, Newton steps polish the Euler-Lagrange
residual to roundoff, where energy differences no longer resolve but the
residual still does; their minres solves are preconditioned by that same
operator.  Such numerics (_ARMIJO, _BACKTRACK, ...) are module constants.

The solver core runs on box-shaped arrays; a ``Field`` is validated only
where data enters it (the start field, ``evaluate``, ``convolve``) or
leaves it (``SolveReport.solution``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import Evaluation, FiberCoefficients, ProblemSpec, evaluate
from .kernel import GreenKernel, convolve
from .lattice import Field, _edge_sum, _laplacian_values, h_inner

GAUSSIAN_BUMP = "gaussian_bump"
RANDOM_START = "random"
FILE_START = "file"


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
# the residual at which the descent hands over to the Newton polish
_SWITCH_RESIDUAL = 1.0e-3


def nehari_scale(coeffs: FiberCoefficients, b: float) -> float:
    """The unique s > 0 placing s*u on the Nehari set.

    Roots q(s) = norm_h2 + b A^2 s^2 - D s^(2p-2).  q(0) > 0 and q has one
    sign change, so Newton's method safeguarded by a verified bracket
    pins the root to relative accuracy near machine precision, to |q(s)|
    <= _ROOT_TOLERANCE times q's largest term.  A zero field is a
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
    if not (q(lo) >= 0.0 >= q(hi)):
        raise RuntimeError("fiber bracket lost its sign change")
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
    # the residual floor is set by the largest term entering q, not by nh:
    # when the Kirchhoff term dominates (tiny drive), |q| at the root is a
    # cancellation of huge terms and can never reach tolerance*nh
    scale = max(nh, baa * s * s, dd * s ** ex)
    if abs(q(s)) > _ROOT_TOLERANCE * scale:
        raise RuntimeError(f"fiber root residual {abs(q(s)) / scale:.3e} exceeds "
                           f"tolerance {_ROOT_TOLERANCE:.3e}")
    return s


def sphere_inverse(u: Field, a: float, potential_table: np.ndarray) -> Field:
    """Map a nonzero field to the unit sphere of the energy norm: u / ||u||."""
    norm2 = h_inner(u, u, a, potential_table)
    if norm2 == 0.0:
        raise ValueError("cannot normalize the zero field")
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
    (scipy raises ValueError).
    """
    eps = np.finfo(float).eps
    r1 = b.copy()
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
    w2 = np.zeros_like(b)
    r2 = r1
    while itn < maxiter:
        itn += 1
        v = (1.0 / beta) * y
        y = matvec(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = np.dot(v, y)
        y = y - (alfa / beta) * r2
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
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) * denom
        x = x + phi * w
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


@dataclass(frozen=True)
class SolveConfig:
    """The solve's accuracy contract and start field."""

    gradient_tolerance: float = 1.0e-9
    seed: int = 0
    initial_guess: str = GAUSSIAN_BUMP
    initial_field: Field = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not self.gradient_tolerance > 0.0:  # NaN fails too
            raise ValueError("gradient_tolerance must be positive")
        if self.initial_guess not in (GAUSSIAN_BUMP, RANDOM_START, FILE_START):
            raise ValueError(f"unknown initial guess kind {self.initial_guess!r}")
        if self.initial_guess == FILE_START and self.initial_field is None:
            raise ValueError("file initial guess needs initial_field set")


@dataclass
class SolveReport:
    """Everything the solver learned, including failure diagnostics."""

    solution: Field
    energy: float
    residual: float
    h_residual: float
    nehari_defect: float
    eta_estimate: float
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
    practically certain destination.
    """
    width = max(box.radius / 3.0, 1.0)
    v = rng.random((box.side,) * 3)
    for _ in range(3):
        v = v + 0.125 * _laplacian_values(v, box.mode)
    d2 = box.squared_distance_grid(center)
    return Field(box, v * np.exp(-d2 / (2.0 * width * width)))


def _initial_field(spec: ProblemSpec, config: SolveConfig) -> Field:
    center = spec.potential.minimum_site(spec.box)
    if config.initial_guess == GAUSSIAN_BUMP:
        return gaussian_bump_field(spec.box, center)
    if config.initial_guess == RANDOM_START:
        rng = np.random.default_rng(config.seed)
        return random_start_field(spec.box, rng, center)
    f = config.initial_field
    if f.box != spec.box:
        raise ValueError("initial field lives on a different box than the problem")
    return f.copy()


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
        return (weight * _laplacian_values(v, box.mode) - 2.0 * spec.b * cross * lap_u
                + spec.potential_table * v - conv_fv * fu - conv_fp * v).ravel()

    return apply


def _eta_estimate(spec: ProblemSpec, kernel: GreenKernel, ground: Evaluation) -> float:
    """Lower bound on the norm of any Nehari point, from two sampled drives.

    For u on the Nehari set, ||u||^2 <= D(u) = ||u||^(2p) D(u/||u||), so
    ||u|| >= C^(-1/(2p-2)) whenever C bounds the drive over unit fields.
    C is estimated as the larger drive of two unit directions: the ground
    state's, D(su) = s^(2p) D(u) at s = 1/||u|| from its final evaluation
    with no further convolution, which makes eta <= ||ground|| an identity
    rather than a hope; and the default Gaussian bump's, at one convolution.
    """
    bump = gaussian_bump_field(spec.box, spec.potential.minimum_site(spec.box))
    unit_bump = evaluate(spec, kernel, sphere_inverse(bump, spec.a, spec.potential_table))
    sp = (1.0 / math.sqrt(ground.norm_h2)) ** ground.exponent
    top = max(sp * (sp * ground.drive), unit_bump.drive)
    return top ** (-1.0 / (2.0 * spec.nonlinearity.exponent - 2.0))


def solve_ground_state(spec: ProblemSpec, kernel: GreenKernel,
                       config: SolveConfig = None) -> SolveReport:
    """Minimize the reduced functional on the unit sphere, then polish.

    Phase one: Sobolev-gradient descent in the unit-sphere chart.  The
    iterate is a unit field w; the step direction is -d, where d solves
    (-(a + bA) lap + V) d = g for the gradient g of J at the projected
    point s_w w (A its squared gradient) by conjugate gradients from
    zero to relative residual _DESCENT_RTOL.  CG from zero on this SPD
    system gives g.d > 0 at any tolerance, so -d always descends.  The
    step length starts from a Barzilai-Borwein estimate and backtracks by
    _BACKTRACK, at most _MAX_BACKTRACKS times, to Armijo decrease (_ARMIJO).
    Phase two: below a residual of _SWITCH_RESIDUAL the energy is flat to
    roundoff, so Newton steps polish the Euler-Lagrange residual itself, by
    minres on the exact second-derivative action preconditioned with P^-1,
    P = -(a + bA) lap + V (CG to _PRECONDITIONER_RTOL), and a merit rule of
    residual decrease.

    Failures are reported in the returned SolveReport (converged flag and
    message), not raised: a stalled line search or exhausted iteration
    budget still produces a usable field and diagnostics.  A RuntimeError
    from the ray root, the D = pB check, an exhausted CG budget or an
    indefinite minres preconditioner ends the iteration with its message
    and converged=False, reporting the last evaluated point.
    """
    if config is None:
        config = SolveConfig()
    box = spec.box
    tol = config.gradient_tolerance

    w0 = sphere_inverse(_initial_field(spec, config), spec.a, spec.potential_table)
    w = w0.values  # the iterate on the unit sphere
    history = []
    message = "ok"
    failed = False
    iterations = newton_iterations = 0
    point = None  # the evaluation at the current iterate
    try:
        start = evaluate(spec, kernel, w0)
        s = nehari_scale(start, spec.b)
        current = start.ray_energy(s)
        point = start.at_scale(s)
        g = point.gradient()
        gnorm = float(np.sqrt(np.sum(g ** 2)))
        prev_w = prev_gp = None
        step = None

        for iterations in range(_MAX_ITERATIONS):
            history.append((current, gnorm, s))
            if gnorm <= max(tol, _SWITCH_RESIDUAL):
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
                trial = evaluate(spec, kernel, Field(box, w + step * direction))
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
            g = point.gradient()
            gnorm = float(np.sqrt(np.sum(g ** 2)))
        else:
            message = "descent iteration budget exhausted"

        # Newton polish on the Euler-Lagrange residual
        for _ in range(_NEWTON_MAX_ITERATIONS):
            if gnorm <= tol:
                break
            weight = spec.a + spec.b * point.grad2
            delta, _ = _minres(_hessian(kernel, point), -g.ravel(),
                               lambda r: _h_representer(spec, r, _PRECONDITIONER_RTOL, weight),
                               _NEWTON_RTOL, _NEWTON_MAXITER)
            delta = delta.reshape(g.shape)
            length = 1.0
            for _ in range(30):
                trial = evaluate(spec, kernel, Field(box, point.u.values + length * delta))
                trial_g = trial.gradient()
                trial_norm = float(np.sqrt(np.sum(trial_g ** 2)))
                if trial_norm < gnorm:
                    break
                length *= 0.5
            else:
                message = "Newton polish stalled before reaching the residual tolerance"
                break
            point, g, gnorm = trial, trial_g, trial_norm
            newton_iterations += 1
            history.append((point.ray_energy(), gnorm, nehari_scale(point, spec.b)))
        else:
            message = "Newton iteration budget exhausted"
    except RuntimeError as exc:
        message, failed = str(exc), True

    if point is None:  # the start itself could not be evaluated or scaled
        nan = math.nan
        return SolveReport(w0, nan, nan, nan, nan, nan, 0, 0, False, message, *np.empty((3, 0)))
    defect = abs(point.norm_h2 + spec.b * point.grad2 ** 2 - point.drive) / point.norm_h2
    h_residual = eta = math.nan
    try:
        rep = _h_representer(spec, g)
        h_residual = float(math.sqrt(max(np.sum(rep * g), 0.0)))
        eta = _eta_estimate(spec, kernel, point)
    except RuntimeError as exc:
        message = f"{message}; {exc}"
    converged = gnorm <= tol and not failed
    if converged and message not in ("ok",):
        message = "ok after Newton polish"

    hist = np.asarray(history, dtype=float).reshape(-1, 3)
    return SolveReport(
        solution=point.u,
        energy=point.ray_energy(),
        residual=gnorm,
        h_residual=h_residual,
        nehari_defect=defect,
        eta_estimate=eta,
        iterations=iterations,
        newton_iterations=newton_iterations,
        converged=converged,
        message=message,
        s_history=hist[:, 2].copy(),
        energy_history=hist[:, 0].copy(),
        residual_history=hist[:, 1].copy(),
    )


def mountain_pass_level_check(spec: ProblemSpec, kernel: GreenKernel, u_samples) -> float:
    """Min over sample rays of the ray-maximal energy.

    Every ray maximum max_s J(su) = J(s_u u) sits at or above the
    ground-state level, and the minimum over a family of samples that
    includes the ground state recovers the level exactly; this is the
    cheap cross-check that the sphere-descent answer is also the
    mountain-pass value.  ``nehari_scale`` rejects a zero sample.
    """
    best = math.inf
    for u in u_samples:
        point = evaluate(spec, kernel, u)
        best = min(best, point.ray_energy(nehari_scale(point, spec.b)))
    if not math.isfinite(best):
        raise ValueError("level check needs at least one sample")
    return best
