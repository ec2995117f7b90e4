"""Acceptance gate: thirteen end-to-end criteria with pinned tolerances.

Each test records one pass/fail line with the measured quantities; the
lines are echoed in the terminal summary after the run (see conftest).
"""

import time

import numpy as np
import pytest

import conftest
import kclattice as kc
from kclattice import (
    Field,
    LatticeBox,
    PotentialSpec,
    PowerNonlinearity,
    ProblemSpec,
)
from referees import direct_convolve, pairing, torus_green_values


def announce(number, label, ok, detail):
    flag = "PASS" if ok else "FAIL"
    line = f"acceptance {number:02d} {label}: {flag} ({detail})"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, f"criterion {number}: {label} ({detail})"


@pytest.fixture(scope="module")
def ground(reference_spec, kernel_m16):
    """Criterion-8 solve, timed, plus two random-start repeats."""
    t0 = time.perf_counter()
    report = kc.solve_ground_state(reference_spec, kernel_m16)
    elapsed = time.perf_counter() - t0
    repeats = [
        kc.solve_ground_state(reference_spec, kernel_m16,
                              conftest.random_start(reference_spec, seed))
        for seed in (1, 2)
    ]
    return report, elapsed, repeats


def test_criterion_01_kernel_exactness_anchors():
    t0 = time.perf_counter()
    small = abs(kc.fractional_degree_refined(1.0e-12) - 1.0)
    exact2 = abs(kc.fractional_degree(2.0, 64) - 6.0)
    elapsed = time.perf_counter() - t0
    ok = small < 1e-10 and exact2 < 1e-10 and elapsed < 1.0
    announce(
        1,
        "kernel exactness anchors",
        ok,
        f"|K(1e-12)-1|={small:.2e}, |K2-6|={exact2:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_kernel_cross_method_agreement():
    t0 = time.perf_counter()
    c = np.arange(-4, 5)
    zs = np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1).reshape(-1, 3)
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5, 2.0, 2.5):
        heat = kc.green_values(alpha, zs)
        torus = torus_green_values(alpha, zs)
        worst = max(worst, float(np.max(np.abs(torus / heat - 1.0))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    announce(
        2,
        "kernel cross-method agreement",
        ok,
        f"worst rel dev={worst:.2e} over 5 alphas x {len(zs)} sites, {elapsed:.1f}s",
    )


def test_criterion_03_kernel_decay_law():
    t0 = time.perf_counter()
    devs = {}
    for alpha in (1.0, 2.0):
        kern = kc.build_kernel(alpha, 32)
        slope = kc.fit_decay_exponent(kern, lo=10, hi=30)
        devs[alpha] = abs(slope - (alpha - 3.0))
    elapsed = time.perf_counter() - t0
    ok = all(d <= 0.05 for d in devs.values()) and elapsed < 120.0
    announce(
        3,
        "kernel decay law",
        ok,
        f"slope devs alpha=1:{devs[1.0]:.3f} alpha=2:{devs[2.0]:.3f}, {elapsed:.1f}s",
    )


def test_criterion_04_convolution_oracle(kernel_m8):
    rng = np.random.default_rng(404)
    box = LatticeBox(4)
    worst = 0.0
    for _ in range(20):
        w = Field(box, rng.standard_normal((9, 9, 9)))
        fft = kc.convolve(kernel_m8, w)
        direct = direct_convolve(kernel_m8, w)
        worst = max(worst, float(np.max(np.abs(fft.values - direct.values))))
    ok = worst < 1e-10
    announce(4, "convolution fft vs direct", ok, f"worst abs dev={worst:.2e} over 20 fields")


def test_criterion_05_gradient_correctness(reference_spec, kernel_m12):
    spec = reference_spec.with_box(LatticeBox(5))
    rng = np.random.default_rng(505)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        u = Field(spec.box, 0.5 * rng.standard_normal((11, 11, 11)))
        phi = Field(spec.box, rng.standard_normal((11, 11, 11)))
        up = Field(spec.box, u.values + h * phi.values)
        dn = Field(spec.box, u.values - h * phi.values)
        fd = (kc.energy(spec, kernel_m12, up) - kc.energy(spec, kernel_m12, dn)) / (2.0 * h)
        pair = pairing(spec, kernel_m12, u, phi)
        worst = max(worst, abs(pair - fd) / max(abs(pair), abs(fd)))
    ok = worst < 1e-6
    announce(
        5,
        "first variation vs central difference",
        ok,
        f"worst rel dev={worst:.2e} over 50 pairs, h={h:g}",
    )


def test_criterion_06_nehari_scale_oracles():
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(100):
        nh, aa = rng.uniform(0.2, 50.0, size=2)
        dd = rng.uniform(0.05, 30.0)
        if trial % 2 == 0:
            p, b = rng.uniform(2.2, 4.5), 0.0
            exact = (nh / dd) ** (1.0 / (2.0 * p - 2.0))
        else:
            p, b = 3.0, rng.uniform(0.01, 10.0)
            kk = b * aa**2
            exact = np.sqrt((kk + np.sqrt(kk * kk + 4.0 * dd * nh)) / (2.0 * dd))
        root = kc.nehari_scale(kc.FiberCoefficients(nh, aa, dd, dd / p, p), b)
        worst = max(worst, abs(root / exact - 1.0))
    ok = worst < 1e-12
    announce(6, "fiber root closed forms", ok, f"worst rel dev={worst:.2e} over 100 sets")


def test_criterion_07_fiber_lemma_suite(reference_spec, kernel_m16):
    rep = kc.check_fiber_monotonicity(reference_spec, kernel_m16, fields=20)
    identity = rep.details["max_homogeneity_deviation"]
    ok = rep.passed and identity <= 1e-10
    announce(
        7,
        "fiber quotient monotone and homogeneous",
        ok,
        f"identity dev={identity:.2e}, min quotient step={rep.details['min_quotient_increment']:.2e}",
    )


def test_criterion_08_ground_state_solve(reference_spec, kernel_m16, ground):
    report, elapsed, repeats = ground
    u = report.solution
    el_res = float(np.max(np.abs(kc.evaluate(reference_spec, kernel_m16, u).gradient())))
    el_bound = 1e-6 * float(np.max(np.abs(u.values)))
    seed_dev = max(abs(r.energy / report.energy - 1.0) for r in repeats)
    ok = (
        report.converged
        and report.residual < 1e-8
        and report.nehari_defect < 1e-8
        and elapsed < 300.0
        and all(r.converged for r in repeats)
        and seed_dev < 1e-6
        and el_res < el_bound
    )
    announce(
        8,
        "reference ground state",
        ok,
        f"c={report.energy:.9f}, residual={report.residual:.2e}, "
        f"defect={report.nehari_defect:.2e}, seed dev={seed_dev:.2e}, "
        f"EL max={el_res:.2e}<{el_bound:.2e}, {elapsed:.1f}s",
    )


def test_criterion_09_level_identity(reference_spec, kernel_m16, ground):
    report = ground[0]
    rep = kc.check_level_identity(reference_spec, kernel_m16, report, samples=20)
    c = rep.details["level"]
    ray_floor_ok = rep.details["min_ray_max"] >= c - 1e-8 * max(1.0, abs(c))
    ground_dev = abs(rep.details["ground_ray_max"] / c - 1.0)
    ok = rep.passed and ray_floor_ok and ground_dev <= 1e-6 and c > 0.0
    announce(
        9,
        "ray maxima meet the level",
        ok,
        f"c={c:.6f}, min ray max={rep.details['min_ray_max']:.6f}, "
        f"ground ray dev={ground_dev:.2e}",
    )


def test_criterion_10_mountain_pass_geometry(reference_spec, kernel_m16):
    rep = kc.check_mountain_pass_geometry(reference_spec, kernel_m16, trials=100)
    sigma, rho, floor = rep.details["sigma"], rep.details["rho"], rep.details["sampled_floor"]
    # the closed form, recomputed from the table slice the radius-8 box convolves with
    eta, sigma_star = conftest.proven_floor(reference_spec, kernel_m16)
    closed = (rho == pytest.approx(eta, rel=1e-12, abs=0.0)
              and sigma == pytest.approx(sigma_star, rel=1e-12, abs=0.0))
    ok = (rep.passed and closed and sigma > 0.0 and floor >= sigma
          and rep.details["e_energy"] < 0.0)
    announce(
        10,
        "mountain pass geometry",
        ok,
        f"rho=eta={rho:.4e}, sigma*={sigma:.4e}, sampled floor={floor:.4e}, "
        f"J(e)={rep.details['e_energy']:.3e}",
    )


def test_criterion_11_periodic_mode(kernel_m16):
    table = [6.0 + 4.0 * ((i + j + k) % 2) for i in range(2) for j in range(2) for k in range(2)]
    spec = ProblemSpec(
        box=LatticeBox(8),
        potential=PotentialSpec.periodic(2, table),
        nonlinearity=PowerNonlinearity(100.0, 3.0),
        alpha=1.0,
        a=1.0,
        b=1.0,
    )
    report = kc.solve_ground_state(spec, kernel_m16)
    u = report.solution
    base = kc.energy(spec, kernel_m16, u)
    shift_dev = max(
        abs(kc.energy(spec, kernel_m16, kc.translate(u, tuple(2 * int(ax == j) for ax in range(3)))) - base)
        for j in range(3)
    )
    ok = (
        report.converged
        and report.residual < 1e-8
        and report.nehari_defect < 1e-8
        and shift_dev < 1e-10
    )
    announce(
        11,
        "periodic potential translation invariance",
        ok,
        f"c={report.energy:.9f}, residual={report.residual:.2e}, "
        f"defect={report.nehari_defect:.2e}, |dJ| under period shift={shift_dev:.2e}",
    )


def test_criterion_12_kirchhoff_monotonicity(reference_spec, kernel_m16, ground):
    energies = []
    for b in (0.0, 0.5):
        spec = ProblemSpec(
            box=reference_spec.box,
            potential=reference_spec.potential,
            nonlinearity=reference_spec.nonlinearity,
            alpha=reference_spec.alpha,
            a=reference_spec.a,
            b=b,
        )
        rep = kc.solve_ground_state(spec, kernel_m16)
        assert rep.converged
        energies.append(rep.energy)
    energies.append(ground[0].energy)
    slack = [1e-6 * max(1.0, abs(e)) for e in energies]
    ok = energies[0] <= energies[1] + slack[1] and energies[1] <= energies[2] + slack[2]
    announce(
        12,
        "level nondecreasing in the Kirchhoff weight",
        ok,
        "c(b)=" + ", ".join(f"{e:.6f}" for e in energies) + " at b=0, 0.5, 1",
    )


def test_criterion_13_box_convergence(reference_spec, kernel_m20):
    solve = kc.solve_ground_state(reference_spec, kernel_m20)
    rep = kc.check_box_convergence(reference_spec, kernel_m20, solve, radii=(4, 6, 8, 10))
    levels = [rep.details[f"level_radius_{r}"] for r in (4, 6, 8, 10)]
    gaps = [abs(x - y) / abs(y) for x, y in zip(levels, levels[1:])]
    ok = rep.passed and gaps[-1] < 1e-3 and all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    announce(
        13,
        "truncation levels Cauchy in the radius",
        ok,
        "gaps=" + ", ".join(f"{g:.2e}" for g in gaps),
    )
