"""Executable property checks for the variational structure.

Each check but kernel-integrity, which tests every table entry, and
hls-ratio, a deterministic power iteration, samples random fields, measures
an inequality or identity the theory predicts, and returns a PropertyReport.
These are evidence, not proof: the statements quantify over all fields and
ray parameters, and a finite sample can only fail to falsify them.  Every
report carries its sample count and tolerance so the evidence is auditable,
and the suite header says this out loud.  mountain-pass-geometry's floor is
proven, by ``nehari_radius``; hls-ratio's sups are lower bounds on each
box's constant.

The suite certifies the caller's solve of the spec, a ``SolveReport``, and
has no start policy of its own: only box-convergence solves, on its other
radii, each from the last solution.

All randomness is derived from a master seed, one independent SplitMix64
stream per check (``splitmix.stream(seed, crc32(check name))``), so a
full-suite run is reproducible, reordering checks does not change any of
them, and a witness's field is the check's draw from that stream.

Where a second CPU and no other thread are there, ``run_suite`` runs the four
checks that read only the spec and the kernel in a forked worker and the three
that read the solve in the caller; otherwise it runs all seven in the caller.
The reports and their bytes are the same either way.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    COERCIVE,
    PERIODIC_POTENTIAL,
    Evaluation,
    ProblemSpec,
    _check_field,
    evaluate,
    nehari_radius,
)
from .kernel import GreenKernel, _table_defect, convolve, fit_decay_exponent
from .kernel import fractional_degree_refined
from .lattice import DIRICHLET, Field, LatticeBox, _lp_norm_values, translate
from .nehari import (
    SolveReport,
    nehari_scale,
    random_start_field,
    solve_ground_state,
    sphere_inverse,
)
from .splitmix import SplitMix64, stream

SUITE_HEADER = (
    "property suite: sampled evidence for the variational structure\n"
    "(the statements are universally quantified; a finite sample can\n"
    "support them but never prove them -- sample counts and tolerances\n"
    "below are the whole claim)\n"
)

# check_hls compares Dirichlet boxes of these radii in every boundary mode
HLS_RADII = (4, 6, 8)
_HLS_SPREAD = 0.05  # largest relative spread of check_hls's sups across radii
_HLS_SETTLED = 1.0e-12  # relative rise of rho that ends check_hls's iteration; a larger fall fails
_SYMMETRY_TOLERANCE = 1.0e-12  # relative, per table entry, in check_kernel_integrity
_FIBER_GRID = np.linspace(0.06, 3.0, 50)  # the t at which check_fiber_monotonicity reads g(t)
_BOX_GAP = 1.0e-3  # largest final relative level gap check_box_convergence passes
_BOX_RISE = 1.0e-12  # largest relative rise of a Dirichlet level check_box_convergence passes
_NORMAL_MIN = np.finfo(float).tiny  # smallest g(t) check_fiber_monotonicity compares


@dataclass
class PropertyReport:
    """Outcome of one property check: it passed iff it met no failure, and
    its witness names the first failure it met."""

    name: str
    anchor: str
    samples: int
    measured: float
    tolerance: float
    details: dict = field(default_factory=dict)
    witness: str = ""

    @property
    def passed(self) -> bool:
        return not self.witness

    def csv_row(self) -> str:
        flag = "pass" if self.passed else "fail"
        return (
            f"{self.name},{self.anchor},{self.samples},{flag},"
            f"{self.measured:.6e},{self.tolerance:.6e}"
        )

    def summary_lines(self):
        yield f"[{'PASS' if self.passed else 'FAIL'}] {self.name} ({self.anchor})"
        yield (f"    samples={self.samples} measured={self.measured:.6e} "
               f"tolerance={self.tolerance:.6e}")
        for key in sorted(self.details):
            yield f"    {key} = {self.details[key]:.6e}"
        if self.witness:
            yield f"    witness: {self.witness}"


def _check_rng(seed: int, name: str) -> SplitMix64:
    return stream(seed, zlib.crc32(name.encode()))


def _unit_directions(spec: ProblemSpec, rng, count: int):
    """``count`` directions on the unit sphere, drawn from ``rng`` in turn:
    smoothed positive noise around the potential's minimum, then plain
    Gaussian noise, alternately."""
    box = spec.box
    center = spec.minimum_site
    for k in range(count):
        if k % 2 == 0:
            raw = random_start_field(box, rng, center)
        else:
            raw = Field(box, rng.standard_normal((box.side,) * 3))
        yield sphere_inverse(spec, raw)


def check_kernel_integrity(kernel: GreenKernel) -> PropertyReport:
    """Positivity, full cubic symmetry, and normalization of the table.

    Every entry goes through the cache loader's invariance test, here to
    _SYMMETRY_TOLERANCE instead of exactly: one corrupted entry off the
    origin fails the check, and the witness names it.  K_alpha is
    recomputed and compared.
    """
    table = kernel.table
    worst, bad = _table_defect(table, _SYMMETRY_TOLERANCE)
    k_dev = abs(fractional_degree_refined(kernel.alpha) - kernel.k_alpha) / kernel.k_alpha
    details = {"max_symmetry_deviation": worst, "k_alpha_deviation": k_dev,
               "min_table_value": float(table.min())}
    if kernel.table_radius >= 8:
        details["fitted_decay_exponent"] = fit_decay_exponent(kernel)
    witness = "" if bad is None else f"entry at z={bad} breaks positivity or cubic symmetry"
    if not k_dev <= 1.0e-8:
        witness = witness or f"K_alpha deviates from its recomputation by relative {k_dev:.3e}"
    return PropertyReport("kernel-integrity", "kernel-positivity-and-cubic-symmetry",
                          table.size, worst, _SYMMETRY_TOLERANCE, details, witness)


def check_mountain_pass_geometry(spec: ProblemSpec, kernel: GreenKernel,
                                 trials: int = 100, seed: int = 42) -> PropertyReport:
    """A proven positive energy floor on a small sphere, sampled, and a negative far point.

    On the sphere ||u|| = rho = eta (``nehari_radius``), J >= sigma* = (1/2)(1 - 1/p)
    eta^2 > 0; ``trials`` unit directions w confirm J(rho w) >= sigma*, and the first
    one's ray is grown until J turns negative.  Each direction is evaluated once and
    its ray read from ``Evaluation.ray_energy``: ``trials`` convolutions in all.
    Only the first evaluation is kept, and one energy of each other.
    eta shrinks as the box grows, so the proven floor weakens with the radius.
    """
    name = "mountain-pass-geometry"
    rng = _check_rng(seed, name)
    rho = nehari_radius(spec, kernel)
    sigma = 0.5 * (1.0 - 1.0 / spec.nonlinearity.exponent) * rho * rho
    first, on_sphere = None, []
    for w in _unit_directions(spec, rng, trials):
        point = evaluate(spec, kernel, w)
        first = point if first is None else first
        on_sphere.append(point.ray_energy(rho))
    floor = min(on_sphere)
    e_norm = next((2.0 ** k for k in range(61) if first.ray_energy(2.0 ** k) < 0.0), math.nan)
    witness = ""
    if not floor >= sigma > 0.0:
        witness = f"sphere floor at rho={rho!r}: sampled {floor!r}, proven {sigma!r}"
    elif not e_norm > rho:  # a nan e_norm fails too
        witness = "no negative-energy point found beyond rho up to scale 2^60"
    details = {"rho": rho, "sigma": sigma, "sampled_floor": floor, "e_norm": e_norm,
               "e_energy": first.ray_energy(e_norm)}
    return PropertyReport(name, "positive-sphere-floor-and-negative-far-point",
                          trials, floor, sigma, details, witness)


def check_hls(kernel: GreenKernel, trials: int = 200) -> PropertyReport:
    """Stability of the convolution-form l^r bound across box sizes.

    With r = 6/(3+alpha), sum u (R * v) <= C ||u||_r ||v||_r uniformly in the
    box; on a box the best C is attained at a positive u = v (Boyd 1974; Lieb
    1983).  Per radius of HLS_RADII, Boyd's power method u <- (R * u)^(1/(r-1)),
    normalized in l^r, climbs from the delta, whose ratio R(0) anchors every
    radius, until rho = sum u (R * u) / ||u||_r^2 rises by at most
    _HLS_SETTLED, or for ``trials`` steps of one convolution each.  The box's
    kernel matrix is positive definite, so rho cannot fall, and a fall fails.
    Pass iff the radii's last rhos, their sups, agree within _HLS_SPREAD
    relative.  As r < 2 < r', the method may stop at a local maximum: each
    sup is a lower bound on the box's constant, not a certificate of it.
    """
    name, anchor = "hls-ratio", "convolution-form-lp-bound-stability"
    exponent = 6.0 / (3.0 + kernel.alpha)
    sups, steps, last_rise, delta_anchor = {}, 0, 0.0, None

    def failed(measured, tolerance, witness):
        return PropertyReport(name, anchor, steps, measured, tolerance, {}, witness)

    for radius in HLS_RADII:
        box = LatticeBox(radius)
        delta = Field.delta(box)
        u, conv = delta.values, convolve(kernel, delta)
        rho = _hls_ratio(u, conv, exponent)
        if delta_anchor is not None and abs(rho - delta_anchor) > 1.0e-12 * delta_anchor:
            return failed(abs(rho - delta_anchor), 1.0e-12,
                          f"delta-pair ratio drifted across radii at radius={radius}")
        delta_anchor, rise = rho, math.inf
        for step in range(1, trials + 1):
            u = conv ** (1.0 / (exponent - 1.0))
            u = u / _lp_norm_values(u, exponent)
            conv = convolve(kernel, Field(box, u))
            previous, rho = rho, _hls_ratio(u, conv, exponent)
            steps += 1
            rise = (rho - previous) / previous
            if rise < -_HLS_SETTLED:
                return failed(-rise, _HLS_SETTLED, f"ratio fell at radius={radius} step={step}")
            if rise <= _HLS_SETTLED:
                break
        sups[radius], last_rise = rho, max(last_rise, rise)
    values = list(sups.values())
    spread = (max(values) - min(values)) / max(values)
    details = {f"sup_radius_{r}": sups[r] for r in HLS_RADII}
    details["delta_pair_ratio"] = delta_anchor
    details["empirical_constant"] = max(values)  # rho climbs from the delta anchor
    details["last_relative_increase"] = last_rise
    witness = "" if spread <= _HLS_SPREAD else f"sup spread {spread:.3e} across radii {HLS_RADII}"
    return PropertyReport(name, anchor, steps, spread, _HLS_SPREAD, details, witness)


def _hls_ratio(u: np.ndarray, conv: np.ndarray, exponent: float) -> float:
    """The form sum u (R * u) over ||u||_r^2, given conv = R * u."""
    norm = _lp_norm_values(u, exponent)
    return float(np.sum(u * conv)) / (norm * norm)


def _fiber_curve(base: Evaluation, grid: np.ndarray):
    """g(t) = I(tu), g'(t) and the quotient t g'(t)/4 - g(t) on a grid, from one evaluation.

    Each point scales the ray scalars as ``Evaluation.at_scale`` does:
    R * F(tu) = t^p R * F(u), so the curve costs no convolution.  The powers
    t^p are taken one scalar at a time, as there: numpy's array power may
    round differently.  The caller's probe at the largest t has evaluated
    D(tu) there, so no point's drive leaves the double range.
    """
    sp = np.array([t ** base.exponent for t in grid])
    g = 0.5 * (sp * (sp * base.interaction))
    gp = sp * (sp * base.drive) / grid  # <I'(tu), u> = sum (R * F(tu)) f(tu) u = D(tu) / t
    return g, gp, 0.25 * grid * gp - g


def check_fiber_monotonicity(spec: ProblemSpec, kernel: GreenKernel,
                             fields: int = 20, seed: int = 42) -> PropertyReport:
    """Ray behavior of the interaction energy g(t) = I(tu).

    Three predictions: the quotient combination t g'(t)/4 - g(t) is
    positive and strictly increasing in t; g(t) > t^theta g(1) for t > 1
    at theta = strict_theta in (4, 2p); and the exact homogeneity g(t) =
    t^(2p) g(1), the same bound at theta = 2p, which the probes test.

    The grid curve (the 50 points of _FIBER_GRID) is derived, not sampled:
    each field is evaluated once at t = 1 and g, g' and the quotient at
    every grid point are scaled from its ray scalars (``_fiber_curve``), which
    rests on the homogeneity itself.  That identity is probed by real convolutions
    of tu at the two grid ends, so each field costs three convolutions.
    """
    name = "fiber-monotonicity"
    rng = _check_rng(seed, name)
    p = spec.nonlinearity.exponent
    grid = _FIBER_GRID
    worst_identity = 0.0
    min_quotient = math.inf
    min_increase = math.inf
    min_strict_gap = math.inf
    witness = ""
    strict_theta = 4.5 if 4.5 < 2.0 * p else 0.5 * (4.0 + 2.0 * p)
    for k, u in enumerate(_unit_directions(spec, rng, fields)):
        base = evaluate(spec, kernel, u)
        g1 = 0.5 * base.interaction
        ends = (grid[0], grid[-1])
        predicted = [t ** (2.0 * p) * g1 for t in ends]
        if not all(_NORMAL_MIN <= value < math.inf for value in predicted):
            # a deviation relative to 0 or inf reads nan, which max() would drop
            worst_identity = math.inf
            witness = witness or (
                f"interaction t^(2p) g(1) leaves the normal doubles on field {k}: "
                f"{predicted[0]:.3e} at t={ends[0]:g}, {predicted[1]:.3e} at t={ends[1]:g}")
            continue
        for t, value in zip(ends, predicted):
            probe = 0.5 * evaluate(spec, kernel, Field(spec.box, t * u.values)).interaction
            worst_identity = max(worst_identity, abs(probe - value) / value)
        g, _, quotient = _fiber_curve(base, grid)
        for t, g_t in zip(grid, g):
            if t > 1.0:
                min_strict_gap = min(min_strict_gap, g_t - t ** strict_theta * g1)
        min_quotient = min(min_quotient, float(quotient.min()))
        increments = np.diff(quotient)
        min_increase = min(min_increase, float(increments.min()))
        if quotient.min() <= 0.0:
            witness = witness or f"quotient combination nonpositive on field {k}"
        if increments.min() <= 0.0:
            witness = witness or f"quotient combination not increasing on field {k}"
    if worst_identity > 1.0e-10:
        witness = witness or f"power homogeneity deviation {worst_identity:.3e}"
    if min_strict_gap <= 0.0:
        witness = witness or "strict inequality failed for theta below 2p"
    details = {"max_homogeneity_deviation": worst_identity,
               "min_quotient_value": min_quotient,
               "min_quotient_increment": min_increase,
               "min_strict_theta_gap": min_strict_gap}
    return PropertyReport(name, "ray-interaction-quotient-increasing",
                          fields, worst_identity, 1.0e-10, details, witness)


def check_level_identity(spec: ProblemSpec, kernel: GreenKernel,
                         solve_report: SolveReport, samples: int = 20,
                         seed: int = 42) -> PropertyReport:
    """The solver level is the bottom of the ray maxima.

    A ray maximum max_s J(su) = J(s_u u) is read in closed form off one
    evaluation at the ray's Nehari scale.  The ``samples`` sampled rays'
    maxima dominate the ground level c = inf_u max_s J(su), and the ray
    through the ground state attains it; ``measured`` is that ray's
    relative gap to c.
    """
    name = "level-identity"
    rng = _check_rng(seed, name)
    c = solve_report.energy
    tol = 1.0e-8 * max(1.0, abs(c))
    witness = "" if solve_report.converged else "solve report not converged"
    min_ray_max = math.inf
    for k, u in enumerate(_unit_directions(spec, rng, samples)):
        point = evaluate(spec, kernel, u)
        ray_max = point.ray_energy(nehari_scale(point))
        min_ray_max = min(min_ray_max, ray_max)
        if not ray_max >= c - tol:  # a nan ray maximum fails too
            witness = witness or f"ray maximum {ray_max!r} below level {c!r} on sample {k}"
    point = evaluate(spec, kernel, solve_report.solution)
    ground_ray = point.ray_energy(nehari_scale(point))
    gap = abs(ground_ray - c)
    if not gap <= tol:
        witness = witness or f"ground ray maximum {ground_ray!r} misses level {c!r}"
    details = {"level": c, "min_ray_max": min_ray_max, "ground_ray_max": ground_ray,
               "nehari_defect": solve_report.nehari_defect}
    return PropertyReport(name, "ray-max-bounds-and-attains-level", samples,
                          gap / abs(c), tol / abs(c), details, witness)


def _on_box(u: Field, box: LatticeBox) -> Field:
    """u on another box at the same lattice coordinates: restricted to a smaller
    box, zero-embedded in a larger one."""
    shift = box.radius - u.box.radius
    if shift < 0:
        inner = slice(-shift, shift)
        return Field(box, u.values[inner, inner, inner])
    values = np.zeros((box.side,) * 3)
    inner = slice(shift, shift + u.box.side)
    values[inner, inner, inner] = u.values
    return Field(box, values)


def check_box_convergence(spec: ProblemSpec, kernel: GreenKernel, solve_report: SolveReport,
                          radii=(4, 6, 8, 10)) -> PropertyReport:
    """Cauchy behavior of the ground level as the truncation box grows.

    The underlying problem lives on the whole lattice; this measures how
    fast the finite-box level settles.  Pass iff the last relative gap is
    at most _BOX_GAP.  Zero-extension nests Dirichlet boxes' Nehari sets, so
    there a level rising by over _BOX_RISE fails and the last bounds the Z^3
    level from above; periodic boxes do not nest.  ``solve_report`` is the
    solve of ``spec`` itself, standing in for the radius of the spec's box.

    The solves continue across the radii, which strictly increase, from that solution:
    each other radius starts from the last solution, at the same lattice
    coordinates (restricted to a smaller box, zero-embedded in a larger
    one), so the radii below the spec's start from the reported one.  The
    first radius that does not converge is the witness.
    """
    name = "box-convergence"
    if len(radii) < 2 or any(lo >= hi for lo, hi in zip(radii, radii[1:])):
        raise ValueError("box convergence needs at least two increasing radii")
    previous = solve_report.solution
    levels = []
    witness = ""
    for radius in radii:
        box = LatticeBox(radius, spec.box.mode)
        if radius == spec.box.radius:
            report = solve_report
        else:
            report = solve_ground_state(spec.with_box(box), kernel, _on_box(previous, box))
        previous = report.solution
        if not report.converged:
            witness = witness or f"solve did not converge at radius {radius}: {report.message}"
        levels.append(report.energy)
    rises = [(levels[i + 1] - levels[i]) / abs(levels[i + 1]) for i in range(len(levels) - 1)]
    final_gap = abs(rises[-1])
    if spec.box.mode == DIRICHLET and max(rises) > _BOX_RISE:
        i = rises.index(max(rises))
        witness = witness or f"level rose by {rises[i]:.3e} at radii {radii[i]}->{radii[i + 1]}"
    if final_gap > _BOX_GAP:
        witness = witness or f"final relative gap {final_gap:.3e} at radii {radii[-2]}->{radii[-1]}"
    details = {f"level_radius_{r}": levels[i] for i, r in enumerate(radii)}
    details.update({f"gap_{radii[i]}_{radii[i + 1]}": abs(rises[i]) for i in range(len(rises))})
    if spec.box.mode == DIRICHLET:
        details["z3_level_upper_bound"] = levels[-1]
    return PropertyReport(name, "truncation-energy-cauchy", len(radii), final_gap,
                          _BOX_GAP, details, witness)


def _octahedral_symmetrize(values: np.ndarray) -> np.ndarray:
    """Average over the 48 signed permutations of the axes."""
    acc = np.zeros_like(values)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        base = np.transpose(values, perm)
        for mask in range(8):
            axes = tuple(ax for ax in range(3) if mask >> ax & 1)
            acc += np.flip(base, axes) if axes else base
    return acc / 48.0


def require_origin_center(potential) -> None:
    """The octahedral diagnostic averages about the origin; an off-center coercive V fails it."""
    if potential.kind == COERCIVE and tuple(potential.center) != (0, 0, 0):
        raise ValueError("the octahedral symmetry check needs the coercive potential "
                         f"centered at the origin, got {tuple(potential.center)}")


def check_symmetry_and_translation(spec: ProblemSpec, kernel: GreenKernel,
                                   solve_report: SolveReport) -> PropertyReport:
    """Invariance diagnostics matched to the potential's symmetry.

    Periodic potential: shifting the solution by one period changes the
    energy by at most 1e-10 (exactly zero in periodic boundary mode when
    the period divides the box side; boundary leakage otherwise, small
    iff the state is localized).  Radial potential about the origin: the
    solution agrees with its octahedral average to 1e-4 relative -- a
    diagnostic of approximate symmetry, not an assertion that the ground
    state must be symmetric.
    """
    name = "symmetry-translation"
    u = solve_report.solution
    witness = "" if solve_report.converged else "solve report not converged"
    details = {}
    samples = 0
    if spec.potential.kind == PERIODIC_POTENTIAL:
        tau = spec.potential.tau
        base = evaluate(spec, kernel, u).ray_energy()
        tol = 1.0e-10 * max(1.0, abs(base))
        worst = 0.0
        for axis in range(3):
            shift = tuple(tau if ax == axis else 0 for ax in range(3))
            shifted = evaluate(spec, kernel, translate(u, shift)).ray_energy()
            worst = max(worst, abs(shifted - base))
            samples += 1
        details["max_translation_energy_change"] = worst
        measured, tolerance = worst, tol
        if worst > tol:
            witness = witness or f"translation by one period moved the energy by {worst:.3e}"
    else:
        require_origin_center(spec.potential)
        sym = _octahedral_symmetrize(u.values)
        num = float(np.sqrt(np.sum((u.values - sym) ** 2)))
        den = float(np.sqrt(np.sum(u.values ** 2)))
        measured = num / den
        tolerance = 1.0e-4
        samples = 48
        details["octahedral_residual"] = measured
        if measured > tolerance:
            witness = witness or f"octahedral residual {measured:.3e}"
    return PropertyReport(name, "lattice-symmetry-invariance", samples, measured,
                          tolerance, details, witness)


def run_suite(spec: ProblemSpec, kernel: GreenKernel, solve_report: SolveReport,
              seed: int = 42, trials: int = 200, mp_trials: int = 100,
              fiber_fields: int = 20, level_samples: int = 20, radii=(4, 6, 8, 10)):
    """Run every check against one problem and its solve; returns the report list.

    ``solve_report`` is the ground-state solve of ``spec`` that the suite
    certifies, shared by the checks that need one.  Callers wanting exact
    periodic-translation invariance should pass a periodic-mode spec whose
    box side is a multiple of the potential period.  An off-center coercive
    potential and a solve on another box are ValueErrors before any check
    runs.  A check that raises a RuntimeError is reported as failed, with
    the error as its witness; any other exception propagates, from the worker
    too, and a worker that dies before it reports fails each of its checks.
    """
    require_origin_center(spec.potential)
    _check_field(spec, solve_report.solution)
    functional = {  # these read only spec and kernel: a forked worker runs them
        "kernel-integrity": lambda: check_kernel_integrity(kernel),
        "mountain-pass-geometry": lambda: check_mountain_pass_geometry(
            spec, kernel, trials=mp_trials, seed=seed),
        "hls-ratio": lambda: check_hls(kernel, trials=trials),
        "fiber-monotonicity": lambda: check_fiber_monotonicity(
            spec, kernel, fields=fiber_fields, seed=seed),
    }
    of_solve = {
        "level-identity": lambda: check_level_identity(
            spec, kernel, solve_report, samples=level_samples, seed=seed),
        "box-convergence": lambda: check_box_convergence(
            spec, kernel, solve_report, radii=radii),
        "symmetry-translation": lambda: check_symmetry_and_translation(spec, kernel, solve_report),
    }
    worker = _fork(functional) if _may_fork() else None
    if worker is None:
        return _run_checks(functional) + _run_checks(of_solve)
    pid, pipe = worker
    with pipe:
        try:
            reports = _run_checks(of_solve)
            payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
        except BaseException:  # no worker outlives the call
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    if not payload:
        return _lost_reports(functional, status) + reports
    worker_reports, error, trace = pickle.loads(payload)
    if error is not None:
        raise error from _WorkerTraceback(trace)
    return worker_reports + reports


class _WorkerTraceback(Exception):
    """A worker's traceback text, raised in the caller as the cause of its exception."""


def _may_fork() -> bool:
    """A second CPU for the worker, and no thread that a fork would leave behind."""
    return (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1)


def _fork(checks):
    """(pid, pipe) of a forked worker that runs ``checks`` and sends one pickle of
    their reports, or of the exception one raised with its traceback's text, down
    the pipe; None where no process can be forked.  The worker never returns into
    the caller's stack, so it runs no atexit handler and flushes no output buffer
    it inherited."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: the caller runs the checks itself
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, open(read_end, "rb")
    code = 1
    try:
        os.close(read_end)
        try:
            result = (_run_checks(checks), None, None)
        except Exception as exc:
            import traceback  # loaded only where a check raised

            result = (None, exc, traceback.format_exc())
        payload = memoryview(pickle.dumps(result))
        while payload:
            payload = payload[os.write(write_end, payload):]
        code = 0
    finally:
        os._exit(code)


def _lost_reports(checks, status: int):
    """A failed report per check of a worker that ended without reporting."""
    code = os.waitstatus_to_exitcode(status)
    cause = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
    return [PropertyReport(name, "raised", 0, math.nan, math.nan,
                           witness=f"check worker {cause} before it reported") for name in checks]


def _run_checks(checks):
    return [_run_check(name, check) for name, check in checks.items()]


def _run_check(name: str, check) -> PropertyReport:
    """check(), or a failed report whose witness is the RuntimeError it raised."""
    try:
        return check()
    except RuntimeError as exc:
        return PropertyReport(name, "raised", 0, math.nan, math.nan,
                              witness=f"RuntimeError: {exc}")


def suite_passed(reports) -> bool:
    return all(r.passed for r in reports)


def suite_csv(reports) -> str:
    lines = ["name,anchor,samples,pass,measured,tolerance"]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"


def suite_summary(reports) -> str:
    lines = [SUITE_HEADER] + [line for report in reports for line in report.summary_lines()]
    verdict = "all checks passed" if suite_passed(reports) else "CHECK FAILURES PRESENT"
    return "\n".join(lines) + f"\n\n{verdict}\n"
