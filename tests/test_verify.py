"""Property checks: each one must pass on a well-posed problem and fail
loudly when its hypothesis is broken."""

import dataclasses
import math

import numpy as np
import pytest

import conftest
import kclattice as kc
import kclattice.kernel as kernel_module
import kclattice.verify as verify_module
from kclattice import (
    Field,
    LatticeBox,
    PotentialSpec,
    PowerNonlinearity,
    ProblemSpec,
)


@pytest.fixture(scope="module")
def spec4():
    return ProblemSpec(
        box=LatticeBox(4),
        potential=PotentialSpec.coercive(1.0, 1.0, 2.0),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        a=1.0,
        b=1.0,
    )


@pytest.fixture(scope="module")
def solved4(spec4, kernel_m16):
    rep = kc.solve_ground_state(spec4, kernel_m16)
    assert rep.converged
    return rep


def broken_copy(kernel):
    return kc.GreenKernel(
        kernel.alpha,
        kernel.k_alpha,
        kernel.table_radius,
        kernel.table.copy(),
        dict(kernel.meta),
    )


def test_kernel_integrity_passes(kernel_m16):
    rep = kc.check_kernel_integrity(kernel_m16)
    assert rep.passed
    assert rep.name == "kernel-integrity"
    assert rep.measured <= rep.tolerance
    assert rep.details["k_alpha_deviation"] <= 1e-8
    assert rep.details["min_table_value"] > 0.0
    assert rep.samples == 33 ** 3  # every entry of the table


@pytest.mark.parametrize("z", [(3, 1, 0), (5, 2, 1), (0, 0, 7), (9, 4, 2), (1, 1, 2)])
def test_kernel_integrity_catches_one_bad_entry(kernel_m16, z):
    broken = broken_copy(kernel_m16)
    broken.table[tuple(c + 16 for c in z)] *= 1.0 + 1e-6
    rep = kc.check_kernel_integrity(broken)
    assert not rep.passed
    assert rep.measured == pytest.approx(1e-6, rel=1e-3)
    assert str(z) in rep.witness


def test_kernel_integrity_catches_broken_symmetry(kernel_m16):
    broken = broken_copy(kernel_m16)
    # tilt one half-space
    broken.table[:16] *= 1.0 + 1e-6
    rep = kc.check_kernel_integrity(broken)
    assert not rep.passed
    assert rep.witness


def test_kernel_integrity_catches_negative_entry(kernel_m16):
    broken = broken_copy(kernel_m16)
    broken.table[3, 3, 3] = -broken.table[3, 3, 3]
    rep = kc.check_kernel_integrity(broken)
    assert not rep.passed


def test_mountain_pass_geometry(spec4, kernel_m16):
    rep = kc.check_mountain_pass_geometry(spec4, kernel_m16, trials=40)
    assert rep.passed
    assert rep.measured > 0.0  # the sphere floor sigma
    assert rep.details["rho"] > 0.0
    assert rep.details["e_energy"] < 0.0
    assert rep.details["e_norm"] > rep.details["rho"]


def test_mountain_pass_radius_shrinks_with_stronger_nonlinearity(spec4, kernel_m16):
    strong = ProblemSpec(
        box=spec4.box,
        potential=spec4.potential,
        nonlinearity=PowerNonlinearity(10.0, 3.0),
        alpha=spec4.alpha,
        a=spec4.a,
        b=spec4.b,
    )
    weak_rep = kc.check_mountain_pass_geometry(spec4, kernel_m16, trials=40)
    strong_rep = kc.check_mountain_pass_geometry(strong, kernel_m16, trials=40)
    assert strong_rep.passed
    assert strong_rep.details["rho"] <= weak_rep.details["rho"]


def test_sampling_checks_locate_the_potential_minimum_once(spec4, kernel_m16, solved4,
                                                          monkeypatch):
    # the positive directions share one center; locating it rebuilds the potential table
    calls = []
    minimum_site = type(spec4.potential).minimum_site
    monkeypatch.setattr(type(spec4.potential), "minimum_site",
                        lambda self, box: calls.append(box) or minimum_site(self, box))
    kc.check_mountain_pass_geometry(spec4, kernel_m16, trials=6)
    kc.check_fiber_monotonicity(spec4, kernel_m16, fields=3)
    kc.check_level_identity(spec4, kernel_m16, solved4, samples=4)
    assert calls == [spec4.box] * 3


@pytest.mark.parametrize("coefficient", [1.0, 10.0, 1.0e4])
def test_mountain_pass_geometry_convolves_once_per_direction(spec4, kernel_m16,
                                                             convolution_count, coefficient):
    spec = ProblemSpec(spec4.box, spec4.potential, PowerNonlinearity(coefficient, 3.0),
                       spec4.alpha, spec4.a, spec4.b)
    rep = kc.check_mountain_pass_geometry(spec, kernel_m16, trials=12)
    assert rep.passed
    assert convolution_count[0] == 12
    eta, sigma = conftest.proven_floor(spec, kernel_m16)
    assert rep.details["rho"] == pytest.approx(eta, rel=1e-12, abs=0.0)
    assert rep.details["sigma"] == pytest.approx(sigma, rel=1e-12, abs=0.0)
    # referee: J on the radius-eta sphere by a fresh convolution per direction
    rng = verify_module._check_rng(42, "mountain-pass-geometry")
    directions = list(verify_module._unit_directions(spec, rng, 12))
    floor = min(kc.energy(spec, kernel_m16, kc.Field(spec.box, rep.details["rho"] * w.values))
                for w in directions)
    assert floor >= sigma
    assert rep.details["sampled_floor"] == pytest.approx(floor, rel=1e-12, abs=0.0)
    assert (rep.measured, rep.tolerance) == (rep.details["sampled_floor"], rep.details["sigma"])


def test_hls_stability(kernel_m16):
    rep = kc.check_hls(kernel_m16, trials=60)
    assert rep.passed
    assert rep.measured < 1e-4  # spread of the sups across radii
    anchor = rep.details["delta_pair_ratio"]
    assert anchor == pytest.approx(kernel_m16.value((0, 0, 0)), rel=1e-12)
    sups = [rep.details[f"sup_radius_{r}"] for r in (4, 6, 8)]
    # the iteration climbs from the delta, and a larger box holds every smaller one's fields
    assert anchor < sups[0] <= sups[1] <= sups[2] == rep.details["empirical_constant"]
    assert abs(rep.details["last_relative_increase"]) <= 1e-12  # settled within the budget


def test_hls_convolves_each_trial_once(kernel_m16, convolution_count):
    # one delta anchor and one convolution per power step on each radius; the
    # homogeneity probe reuses R * u, and each radius settles in 14 steps
    rep = kc.check_hls(kernel_m16)
    assert convolution_count[0] == 3 * (1 + 14) and rep.samples == 3 * 14
    assert rep.passed and rep.measured == 4.632775149853742e-05
    # a budget too small to settle ends the iteration and shows in the report
    convolution_count[0] = 0
    short = kc.check_hls(kernel_m16, trials=4)
    assert convolution_count[0] == 3 * (1 + 4) and short.samples == 3 * 4
    assert short.passed and short.details["last_relative_increase"] > 1e-6


def test_hls_determinism(spec4, kernel_m16, solved4):
    a = kc.check_hls(kernel_m16, trials=30)
    b = kc.check_hls(kernel_m16, trials=30)
    assert a == b
    # the check draws no random numbers: the suite's seed leaves its row alone
    rows = [next(r.csv_row() for r in kc.run_suite(
        spec4, kernel_m16, seed=seed, trials=30, mp_trials=2, fiber_fields=1,
        level_samples=1, radii=(2, 3, 4), solve_report=solved4) if r.name == "hls-ratio")
        for seed in (1, 2)]
    assert rows[0] == rows[1] == a.csv_row()


def test_hls_fails_a_falling_ratio(kernel_m16, monkeypatch):
    # rho cannot fall on a positive definite kernel matrix; shrink the third
    # convolution, radius 4's second power step, and the fall must be caught
    calls = [0]

    def shrunk(kernel, w):
        calls[0] += 1
        out = kc.convolve(kernel, w)
        return kc.Field(w.box, 0.9 * out.values) if calls[0] == 3 else out

    monkeypatch.setattr(verify_module, "convolve", shrunk)
    rep = verify_module.check_hls(kernel_m16)
    assert not rep.passed
    assert rep.witness == "ratio fell at radius=4 step=2"
    assert 0.09 < rep.measured < 0.1  # rho fell by a tenth from a slightly lower rho


def test_hls_power_method_matches_a_dense_referee(kernel_m16, monkeypatch, rng):
    from scipy.optimize import minimize

    monkeypatch.setattr(verify_module, "HLS_RADII", (2,))
    sup = kc.check_hls(kernel_m16).details["sup_radius_2"]
    # the Dirichlet radius-2 box's kernel matrix R(x - y), 125 x 125
    n, m = 2, kernel_m16.table_radius
    sites = np.array([(i, j, k) for i in range(-n, n + 1) for j in range(-n, n + 1)
                      for k in range(-n, n + 1)])
    z = sites[:, None, :] - sites[None, :, :] + m
    matrix = kernel_m16.table[z[..., 0], z[..., 1], z[..., 2]]
    assert np.linalg.eigvalsh(matrix).min() > 0.0
    r = 6.0 / (3.0 + kernel_m16.alpha)

    def negative_ratio(u):
        form, power = u @ matrix @ u, np.sum(u ** r)
        norm2 = power ** (2.0 / r)
        grad = 2.0 * (matrix @ u) / norm2 - 2.0 * form * u ** (r - 1.0) / (power * norm2)
        return -form / norm2, -grad

    best = max(-minimize(negative_ratio, rng.random(len(sites)) + 0.1, jac=True,
                         method="L-BFGS-B", bounds=[(0.0, None)] * len(sites),
                         options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000}).fun
               for _ in range(10))
    assert sup == pytest.approx(best, rel=1e-10, abs=0.0)


def test_fiber_monotonicity(spec4, kernel_m16):
    rep = kc.check_fiber_monotonicity(spec4, kernel_m16, fields=8)
    assert rep.passed
    assert rep.details["max_homogeneity_deviation"] <= 1e-10
    assert rep.details["min_quotient_increment"] > 0.0
    assert rep.samples == 8 * 50


def test_fiber_monotonicity_convolves_three_times_per_field(spec4, kernel_m16, convolution_count):
    # g(1), then the homogeneity probes at the two grid ends; the curve is derived
    for fields in (1, 2):
        convolution_count[0] = 0
        kc.check_fiber_monotonicity(spec4, kernel_m16, fields=fields)
        assert convolution_count[0] == 3 * fields


def test_fiber_monotonicity_fails_naming_an_underflowed_interaction(kernel_m8):
    # unit fields on one site with a = 1e107 are near 1e-54, so g(1), of order
    # u^6, underflows to 0: the identity's deviation relative to it would read
    # nan, which max() drops, and the check would pass on a deviation of 0
    spec = ProblemSpec(LatticeBox(0), PotentialSpec.constant(1.0), PowerNonlinearity(1.0, 3.0),
                       alpha=1.0, a=1e107)
    rep = kc.check_fiber_monotonicity(spec, kernel_m8, fields=2)
    assert not rep.passed
    assert rep.measured == math.inf
    assert "interaction t^(2p) g(1) leaves the normal doubles on field 1: 0.000e+00" in rep.witness


@pytest.mark.parametrize("kind", ["positive", "normal"])
def test_derived_fiber_curve_matches_per_point_evaluations(spec4, kernel_m16, kind):
    # the suite's directions alternate, smoothed positive noise first
    positive, normal = verify_module._unit_directions(spec4, np.random.default_rng(7), 2)
    u = positive if kind == "positive" else normal
    grid = np.linspace(0.06, 3.0, 50)
    g, gp, quotient = verify_module._fiber_curve(kc.evaluate(spec4, kernel_m16, u), grid)
    for i, t in enumerate(grid):
        point = kc.evaluate(spec4, kernel_m16, kc.Field(spec4.box, t * u.values))
        want_g = 0.5 * point.interaction
        want_gp = point.drive / t
        assert g[i] == pytest.approx(want_g, rel=1e-12, abs=0.0)
        assert gp[i] == pytest.approx(want_gp, rel=1e-12, abs=0.0)
        assert quotient[i] == pytest.approx(0.25 * t * want_gp - want_g, rel=1e-12, abs=0.0)


def test_level_identity(spec4, kernel_m16, solved4):
    rep = kc.check_level_identity(spec4, kernel_m16, solved4, samples=10)
    assert rep.passed
    assert rep.details["segment_relative_deviation"] <= 1e-6
    assert rep.details["min_ray_max"] >= solved4.energy * (1.0 - 1e-8)
    assert rep.details["level"] == pytest.approx(solved4.energy)


@pytest.mark.parametrize("factor, witness", [
    (1e6, "below level"),  # every sample's ray maximum lies below so high a level
    (1.0 - 1e-4, "ground ray maximum"),  # the samples lie above, the ground ray misses
], ids=["sample-below", "ground-misses"])
def test_level_identity_fails_a_wrong_level(spec4, kernel_m16, solved4, factor, witness):
    wrong = dataclasses.replace(solved4, energy=factor * solved4.energy)
    rep = kc.check_level_identity(spec4, kernel_m16, wrong, samples=4)
    assert not rep.passed
    assert witness in rep.witness
    assert rep.details["ground_ray_max"] == pytest.approx(solved4.energy, rel=1e-8)


def test_box_convergence_passes_on_resolved_radii(spec4, kernel_m16):
    small = ProblemSpec(
        box=spec4.box,
        potential=spec4.potential,
        nonlinearity=spec4.nonlinearity,
        alpha=spec4.alpha,
        a=spec4.a,
        b=0.0,
    )
    rep = kc.check_box_convergence(small, kernel_m16, kc.solve_ground_state(small, kernel_m16),
                                   radii=(3, 4, 5, 6))
    assert rep.name == "box-convergence"
    levels = [rep.details[f"level_radius_{r}"] for r in (3, 4, 5, 6)]
    final_gap = abs(levels[-1] - levels[-2]) / abs(levels[-1])
    assert rep.measured == pytest.approx(final_gap)
    assert rep.passed == (final_gap < 1e-3)


def test_box_convergence_honest_failure(spec4, kernel_m16, solved4):
    rep = kc.check_box_convergence(spec4, kernel_m16, solved4, radii=(2, 3))
    assert not rep.passed
    assert rep.measured > 1e-3
    assert rep.witness


def test_box_convergence_refuses_a_single_radius(spec4, kernel_m16, solved4):
    with pytest.raises(ValueError, match="^box convergence needs at least two increasing radii$"):
        kc.check_box_convergence(spec4, kernel_m16, solved4, radii=(4,))


def test_box_convergence_fails_a_rising_dirichlet_level(spec4, kernel_m16, solved4):
    # zero-extension nests the Dirichlet Nehari sets, so c_n cannot rise with n;
    # a solve stuck above the smaller box's level fails even within the 1e-3 gap
    c3 = kc.solve_ground_state(spec4.with_box(LatticeBox(3)), kernel_m16).energy
    honest = kc.check_box_convergence(spec4, kernel_m16, radii=(3, 4), solve_report=solved4)
    assert solved4.energy < c3
    assert honest.details["z3_level_upper_bound"] == solved4.energy
    stuck = dataclasses.replace(solved4, energy=c3 * (1.0 + 1e-6))
    rep = kc.check_box_convergence(spec4, kernel_m16, radii=(3, 4), solve_report=stuck)
    assert rep.measured < 1e-3
    assert not rep.passed
    assert "level rose" in rep.witness


def test_box_convergence_lets_a_periodic_level_rise(kernel_m16):
    # periodic boxes do not nest, so their levels may move either way
    spec = _periodic_spec()
    c3 = kc.solve_ground_state(spec.with_box(LatticeBox(3, kc.PERIODIC)), kernel_m16).energy
    stuck = dataclasses.replace(kc.solve_ground_state(spec, kernel_m16), energy=c3 * (1.0 + 1e-6))
    rep = kc.check_box_convergence(spec, kernel_m16, radii=(3, 4), solve_report=stuck)
    assert rep.passed, rep.witness
    assert "z3_level_upper_bound" not in rep.details


def _cold_start_levels(spec, kernel, radii):
    """One independent solve per radius, each from the default start."""
    return [kc.solve_ground_state(spec.with_box(LatticeBox(r, spec.box.mode)), kernel).energy
            for r in radii]


def _periodic_spec():
    table = [5.0 + (i + j + k) for i in range(3) for j in range(3) for k in range(3)]
    return ProblemSpec(
        box=LatticeBox(4, kc.PERIODIC),
        potential=PotentialSpec.periodic(3, table),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        b=0.5,
    )


@pytest.mark.parametrize("case", ["reference-shared", "periodic-shared"])
def test_box_convergence_continuation_keeps_the_cold_start_levels(reference_spec, kernel_m20,
                                                                  case):
    spec, radii = (reference_spec, (4, 6, 8, 10)) if case.startswith("reference") else (
        _periodic_spec(), (2, 3, 4, 5))
    # a shared solve of the spec's box starts the smaller radii from its restriction
    shared = kc.solve_ground_state(spec, kernel_m20)
    rep = kc.check_box_convergence(spec, kernel_m20, radii=radii, solve_report=shared)
    cold = _cold_start_levels(spec, kernel_m20, radii)
    for r, level in zip(radii, cold):
        assert rep.details[f"level_radius_{r}"] == pytest.approx(level, rel=1e-12, abs=0.0)


def test_box_convergence_witness_names_the_first_unconverged_radius(spec4, kernel_m16,
                                                                     solved4, monkeypatch):
    def stalled(spec, kernel, start):
        report = kc.solve_ground_state(spec, kernel, start)
        if spec.box.radius == 2:
            return report
        return dataclasses.replace(report, converged=False,
                                   message=f"stalled on radius {spec.box.radius}")

    monkeypatch.setattr(verify_module, "solve_ground_state", stalled)
    rep = kc.check_box_convergence(spec4, kernel_m16, solved4, radii=(2, 3, 4))
    assert not rep.passed
    assert rep.witness == "solve did not converge at radius 3: stalled on radius 3"


def test_box_convergence_starts_from_the_shared_solve_then_continues(spec4, kernel_m16,
                                                                      solved4, monkeypatch):
    starts, solutions = {}, {4: solved4.solution.values}

    def recorded(spec, kernel, start):
        report = kc.solve_ground_state(spec, kernel, start)
        starts[spec.box.radius] = start.values
        solutions[spec.box.radius] = report.solution.values
        return report

    monkeypatch.setattr(verify_module, "solve_ground_state", recorded)
    kc.check_box_convergence(spec4, kernel_m16, radii=(1, 3, 4, 5), solve_report=solved4)
    assert sorted(starts) == [1, 3, 5]
    # radius 1 takes the shared radius-4 solution restricted to its box, radius 3
    # radius 1's solution zero-embedded, radius 5 the shared one zero-embedded
    assert np.array_equal(starts[1], solutions[4][3:-3, 3:-3, 3:-3])
    assert np.array_equal(starts[3][2:-2, 2:-2, 2:-2], solutions[1])
    assert np.count_nonzero(starts[3]) == np.count_nonzero(solutions[1])
    assert np.array_equal(starts[5][1:-1, 1:-1, 1:-1], solutions[4])
    assert np.count_nonzero(starts[5]) == np.count_nonzero(solutions[4])


def test_symmetry_check_octahedral(spec4, kernel_m16, solved4, convolution_count):
    rep = kc.check_symmetry_and_translation(spec4, kernel_m16, solved4)
    assert rep.passed
    assert rep.details["octahedral_residual"] <= 1e-4
    assert convolution_count[0] == 0


def test_symmetry_check_periodic_translation():
    # period 3 divides the side 9 of the radius-4 box, so translation by
    # the period is an exact symmetry of the discrete problem
    spec = _periodic_spec()
    kern = kc.build_kernel(1.0, 4)
    rep_solve = kc.solve_ground_state(spec, kern)
    assert rep_solve.converged
    rep = kc.check_symmetry_and_translation(spec, kern, rep_solve)
    assert rep.passed
    assert rep.details["max_translation_energy_change"] <= 1e-10 * max(
        1.0, abs(rep_solve.energy)
    )


def test_symmetry_check_fails_an_asymmetric_state(spec4, kernel_m16, solved4):
    shifted = dataclasses.replace(solved4, solution=kc.translate(solved4.solution, (1, 0, 0)))
    rep = kc.check_symmetry_and_translation(spec4, kernel_m16, shifted)
    assert not rep.passed
    assert rep.measured > 1e-4
    assert rep.witness.startswith("octahedral residual")


def test_symmetry_check_fails_a_state_that_is_not_translation_invariant(kernel_m16, solved4,
                                                                          rng):
    # on a Dirichlet box a spread-out state loses what a shift pushes past the boundary
    spec = _periodic_spec().with_box(LatticeBox(4))
    spread = Field(LatticeBox(4), 1.0 + rng.random((9, 9, 9)))
    rep = kc.check_symmetry_and_translation(
        spec, kernel_m16, dataclasses.replace(solved4, solution=spread))
    assert not rep.passed
    assert rep.measured > rep.tolerance
    assert rep.witness.startswith("translation by one period moved the energy")


def test_symmetry_check_rejects_off_center_potential(kernel_m16, solved4):
    off = ProblemSpec(
        box=LatticeBox(4),
        potential=PotentialSpec.coercive(1.0, 1.0, 2.0, center=(1, 0, 0)),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
    )
    with pytest.raises(ValueError):
        kc.check_symmetry_and_translation(off, kernel_m16, solved4)


def test_run_suite_rejects_off_center_potential_before_any_work(kernel_m16, solved4,
                                                                monkeypatch, convolution_count):
    solves = []
    monkeypatch.setattr(verify_module, "solve_ground_state",
                        lambda *args, **kwargs: solves.append(args))
    off = ProblemSpec(
        box=LatticeBox(4),
        potential=PotentialSpec.coercive(1.0, 1.0, 2.0, center=(1, 0, 0)),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
    )
    with pytest.raises(ValueError, match="centered at the origin"):
        kc.run_suite(off, kernel_m16, solved4, trials=2, mp_trials=2, fiber_fields=1,
                     level_samples=1, radii=(2, 4))
    assert solves == []
    assert convolution_count[0] == 0


def test_run_suite_all_pass(spec4, kernel_m20, solved4):
    reports = kc.run_suite(
        spec4,
        kernel_m20,
        trials=40,
        mp_trials=30,
        fiber_fields=6,
        level_samples=8,
        radii=(4, 6, 8, 10),
        solve_report=solved4,
    )
    assert len(reports) == 7
    assert kc.suite_passed(reports)
    names = [r.name for r in reports]
    assert names == [
        "kernel-integrity",
        "mountain-pass-geometry",
        "hls-ratio",
        "fiber-monotonicity",
        "level-identity",
        "box-convergence",
        "symmetry-translation",
    ]


def test_run_suite_shares_the_solve_with_box_convergence(reference_spec, kernel_m20,
                                                         monkeypatch):
    reports = []
    starts = []

    def counted(spec, kernel, start):
        starts.append(start)
        reports.append(kc.solve_ground_state(spec, kernel, start))
        return reports[-1]

    monkeypatch.setattr(verify_module, "solve_ground_state", counted)
    shared = counted(reference_spec, kernel_m20, None)
    suite = kc.run_suite(reference_spec, kernel_m20, shared, trials=4, mp_trials=4,
                         fiber_fields=1, level_samples=2, radii=(4, 6, 8, 10))
    # the shared radius-8 solve comes first; box convergence adds 4, 6 and 10
    assert len(reports) == 4
    box = next(r for r in suite if r.name == "box-convergence")
    assert box.details["level_radius_8"] == reports[0].energy
    assert [r.solution.box.radius for r in reports] == [8, 4, 6, 10]
    # radius 10 starts from the shared radius-8 solution, zero-embedded
    start = starts[3]
    assert isinstance(start, Field)
    assert start.box == kc.LatticeBox(10)
    inner = reports[0].solution.values
    assert np.array_equal(start.values[2:-2, 2:-2, 2:-2], inner)
    assert np.count_nonzero(start.values) == np.count_nonzero(inner)
    assert starts[2].box == kc.LatticeBox(6)
    # radius 4 starts from the shared solution restricted to its box, radius 6 from
    # radius 4's solution, zero-embedded
    assert isinstance(starts[1], Field)
    assert starts[1].box == kc.LatticeBox(4)
    assert np.array_equal(starts[1].values, inner[4:-4, 4:-4, 4:-4])
    assert np.array_equal(starts[2].values[2:-2, 2:-2, 2:-2], reports[1].solution.values)


def test_run_suite_convolution_budget(spec4, kernel_m16, convolution_count):
    solve = kc.solve_ground_state(spec4, kernel_m16)  # counted with the suite's work
    reports = kc.run_suite(spec4, kernel_m16, solve, trials=4, mp_trials=6, fiber_fields=2,
                           level_samples=2, radii=(2, 3, 4))
    # at b = 1 the level still moves by 8% between radii 3 and 4
    assert [r.name for r in reports if not r.passed] == ["box-convergence"]
    # hls 3 * (1 + 4), mountain pass 6, fiber 3 * 2, kernel integrity and the
    # octahedral symmetry check none; the rest is the solves and level-identity.
    # Radius 2 starts from the shared radius-4 solution restricted to its box:
    # 19 convolutions there, 16 from the bump. Any growth in the suite's work shows here.
    assert convolution_count[0] == 138


def test_run_suite_leaves_one_plan_per_kernel(spec4, kernel_m16, monkeypatch):
    kernel = dataclasses.replace(kernel_m16)  # a new kernel, which holds no plan yet
    boxes = []
    plan_for = kernel_module._plan_for

    def recorded(kernel, box):
        boxes.append(box)
        return plan_for(kernel, box)

    monkeypatch.setattr(kernel_module, "_plan_for", recorded)
    kc.run_suite(spec4, kernel, kc.solve_ground_state(spec4, kernel), trials=4, mp_trials=6,
                 fiber_fields=2, level_samples=2, radii=(2, 3, 4, 5))
    # the suite visits every radius and more boxes besides, but keeps only the last plan
    assert {2, 3, 4, 5} < {box.radius for box in boxes}
    assert kernel._plan[0] == boxes[-1]


def test_suite_csv_and_summary_format(spec4, kernel_m16, solved4):
    reports = [
        kc.check_kernel_integrity(kernel_m16),
        kc.check_level_identity(spec4, kernel_m16, solved4, samples=4),
    ]
    csv = kc.suite_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0] == "name,anchor,samples,pass,measured,tolerance"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "kernel-integrity"
    assert first[3] == "pass"
    float(first[4]), float(first[5])  # parse as numbers
    summary = kc.suite_summary(reports)
    assert "evidence" in summary.lower()
    assert "kernel-integrity" in summary
    assert "[PASS]" in summary
    assert "all checks passed" in summary


_REFEREE_FUNCTIONS = {
    "interior-maximum": lambda t: -(t * (1.0 - t)) * math.exp(t),
    "endpoint-maximum": lambda t: -(t ** 3) - 0.5 * t,
    "endpoint-minimum-left": lambda t: (t + 0.25) ** 2,
    "flat": lambda t: 2.5,
    "oscillating": lambda t: math.sin(7.0 * t) + 0.3 * t * t,
    "kink": lambda t: abs(t - 0.3141592653589793),
}


@pytest.mark.parametrize("maxfun", [5, 500])
@pytest.mark.parametrize("name", sorted(_REFEREE_FUNCTIONS))
def test_bounded_minimum_matches_scipy(name, maxfun):
    from scipy.optimize import minimize_scalar

    func = _REFEREE_FUNCTIONS[name]
    want = minimize_scalar(func, bounds=(0.0, 1.0), method="bounded",
                           options={"xatol": 1e-12, "maxiter": maxfun})
    got = verify_module._bounded_minimum(func, 0.0, 1.0, xatol=1e-12, maxfun=maxfun)
    assert got == want.fun
