"""Fiber algebra, the ray root, the envelope identity, and the solver."""

import math
import random

import numpy as np
import pytest

import conftest
import kclattice as kc
import kclattice.nehari as nehari_module
from kclattice import (
    Field,
    LatticeBox,
    PotentialSpec,
    PowerNonlinearity,
    ProblemSpec,
)
from referees import pairing


@pytest.fixture(scope="module")
def spec5():
    return ProblemSpec(
        box=LatticeBox(5),
        potential=PotentialSpec.coercive(1.0, 1.0, 2.0),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        a=1.0,
        b=1.0,
    )


@pytest.fixture(scope="module")
def kernel10():
    return kc.build_kernel(1.0, 10)


@pytest.fixture(scope="module")
def solved5(spec5, kernel10):
    report = kc.solve_ground_state(spec5, kernel10)
    assert report.converged
    return report


def random_field(box, rng, scale=0.5):
    return Field(box, scale * rng.standard_normal((box.side,) * 3))


# ---------------------------------------------------------------------------
# fiber coefficients


def test_delta_field_coefficients(spec5, kernel10):
    u = Field.delta(spec5.box, (0, 0, 0), 1.0)
    c = kc.evaluate(spec5, kernel10, u)
    v0 = spec5.potential.value((0, 0, 0))
    assert c.norm_h2 == pytest.approx(6.0 + v0, rel=1e-14)
    assert c.grad2 == pytest.approx(6.0, rel=1e-14)
    r0 = kernel10.value((0, 0, 0))
    # F(1) = 1/p, f(1) = 1 for the unit cubic nonlinearity
    assert c.interaction == pytest.approx(r0 / 9.0, rel=1e-12)
    assert c.drive == pytest.approx(r0 / 3.0, rel=1e-12)
    assert c.exponent == 3.0


def test_drive_is_p_times_interaction(spec5, kernel10, rng):
    for _ in range(5):
        u = random_field(spec5.box, rng)
        c = kc.evaluate(spec5, kernel10, u)
        assert c.drive == pytest.approx(c.exponent * c.interaction, rel=1e-10)
        assert c.norm_h2 > 0.0 and c.grad2 >= 0.0 and c.drive > 0.0


def test_coefficients_scale_homogeneously(spec5, kernel10, rng):
    u = random_field(spec5.box, rng)
    c1 = kc.evaluate(spec5, kernel10, u)
    s = 1.7
    cs = kc.evaluate(spec5, kernel10, Field(spec5.box, s * u.values))
    p = c1.exponent
    assert cs.norm_h2 == pytest.approx(s**2 * c1.norm_h2, rel=1e-12)
    assert cs.grad2 == pytest.approx(s**2 * c1.grad2, rel=1e-12)
    assert cs.drive == pytest.approx(s ** (2 * p) * c1.drive, rel=1e-12)
    assert cs.interaction == pytest.approx(s ** (2 * p) * c1.interaction, rel=1e-12)


def test_zero_field_rejected(spec5, kernel10):
    with pytest.raises(ValueError):
        kc.nehari_scale(kc.evaluate(spec5, kernel10, Field.zeros(spec5.box)), spec5.b)


# ---------------------------------------------------------------------------
# fiber root


def closed_form_scale(c, b):
    p = c.exponent
    if b == 0.0:
        return (c.norm_h2 / c.drive) ** (1.0 / (2.0 * p - 2.0))
    if p == 3.0:
        aa = b * c.grad2**2
        s2 = (aa + np.sqrt(aa * aa + 4.0 * c.drive * c.norm_h2)) / (2.0 * c.drive)
        return np.sqrt(s2)
    raise NotImplementedError


def test_nehari_scale_matches_closed_forms(spec5, kernel10, rng):
    for _ in range(20):
        u = random_field(spec5.box, rng, scale=rng.uniform(0.05, 2.0))
        c = kc.evaluate(spec5, kernel10, u)
        for b in (0.0, 0.3, 1.0, 10.0):
            s = kc.nehari_scale(c, b)
            assert s == pytest.approx(closed_form_scale(c, b), rel=1e-12)


def test_nehari_scale_closed_form_other_exponent(rng):
    # b = 0 closed form holds for any p; use synthetic coefficients
    for _ in range(20):
        nh, aa, dd = rng.uniform(0.5, 50.0, size=3)
        p = rng.uniform(2.2, 4.0)
        c = kc.FiberCoefficients(nh, aa, dd, dd / p, p)
        s = kc.nehari_scale(c, 0.0)
        assert s == pytest.approx((nh / dd) ** (1.0 / (2.0 * p - 2.0)), rel=1e-12)
        # root property: q(s) = 0 where q(s) = nh + b A^2 s^2 - D s^(2p-2)
        sb = kc.nehari_scale(c, 2.0)
        q = nh + 2.0 * aa**2 * sb**2 - dd * sb ** (2.0 * p - 2.0)
        assert abs(q) <= 1e-10 * max(nh, 2.0 * aa**2 * sb**2)


def _brentq_scale(nh, aa, dd, p, b, tolerance=1.0e-12):
    """Referee for nehari_scale: the same bracket and gate around scipy's brentq plus a
    Newton polish."""
    from scipy.optimize import brentq

    baa, ex = b * aa * aa, 2.0 * p - 2.0

    def q(s):
        return nh + baa * s * s - dd * s ** ex

    hi = 1.0
    while q(hi) > 0.0:
        hi *= 2.0
    lo = 0.5 * hi
    while q(lo) < 0.0:
        lo *= 0.5
    s = float(brentq(q, lo, hi, xtol=5.0e-324, rtol=8.9e-16))
    for _ in range(3):
        slope = 2.0 * baa * s - ex * dd * s ** (ex - 1.0)
        if slope == 0.0:
            break
        trial = s - q(s) / slope
        if not (lo <= trial <= hi) or abs(q(trial)) >= abs(q(s)):
            break
        s = trial
    if abs(q(s)) > tolerance * max(nh, baa * s * s, dd * s ** ex):
        raise RuntimeError("fiber root residual exceeds tolerance")
    return s


# log10 ranges of A, D and b; in the Kirchhoff-dominated regime the drive is
# tiny and the residual floor is set by b A^2 s^2, not by ||u||^2
_REGIMES = {
    "generic": ((-2, 2), (-3, 3), (-3, 1)),
    "drive-dominated": ((-3, 0), (2, 8), (-4, 0)),
    "kirchhoff-dominated": ((0, 3), (-14, -6), (0, 3)),
}


def _coefficient_sets(rng, regime, count):
    for _ in range(count):
        aa, dd, b = (10.0 ** rng.uniform(*bounds) for bounds in _REGIMES[regime])
        yield 10.0 ** rng.uniform(-3, 3), aa, dd, rng.uniform(2.05, 6.0), b
    # the root overflows a double: the referee raises OverflowError, and
    # nehari_scale the documented RuntimeError, from the bracket search
    yield 1.0, 1.0, 1.0e-300, 2.05, 1.0


@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_nehari_scale_matches_brentq(regime):
    rng = np.random.default_rng(4242)
    raised = 0
    for nh, aa, dd, p, b in _coefficient_sets(rng, regime, 1000):
        coeffs = kc.FiberCoefficients(nh, aa, dd, dd / p, p)
        try:
            want = _brentq_scale(nh, aa, dd, p, b)
        except (RuntimeError, OverflowError):
            with pytest.raises(RuntimeError):
                kc.nehari_scale(coeffs, b)
            raised += 1
            continue
        got = kc.nehari_scale(coeffs, b)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), (nh, aa, dd, p, b)
    assert raised >= 1


@pytest.mark.parametrize("drive, message", [
    # the root lies near s = 1e3000: D s^(2p-2) leaves the double range
    # while the bracket is still searched from above
    pytest.param(1.0e-300, "from above", id="root-overflow"),
    # a nonzero field whose drive underflowed: positive in exact arithmetic
    pytest.param(0.0, "ray drive of a nonzero field", id="drive-underflow"),
])
def test_nehari_scale_overflow_is_a_runtime_error(drive, message):
    coeffs = kc.FiberCoefficients(1.0, 1.0, drive, drive / 2.05, 2.05)
    with pytest.raises(RuntimeError, match=message):
        kc.nehari_scale(coeffs, 1.0)


def test_nehari_scale_root_far_below_one_is_found_fast(monkeypatch):
    # q(1) < 0 with the root near 1e-74: the bracket must shrink from both
    # ends, and the final ulp walk is bounded, so it never calls nextafter
    # more than a few hundred times
    calls = [0]
    nextafter = math.nextafter

    def bounded(x, y):
        calls[0] += 1
        if calls[0] > 1000:
            raise AssertionError("the ulp walk did not stop")
        return nextafter(x, y)

    monkeypatch.setattr(math, "nextafter", bounded)
    coeffs = kc.FiberCoefficients(1.0, 0.3472228694310446, 7.236047018724706e295,
                                  2.4120156729082345e295, 3.0)
    s = kc.nehari_scale(coeffs, 1.0)
    assert s == pytest.approx(1.0842380767471474e-74, rel=1e-14)
    assert calls[0] <= nehari_module._ROOT_ITERATIONS


def _krylov_problem():
    rng = np.random.default_rng(77)
    basis, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    spd = basis @ np.diag(np.logspace(0, 4, 60)) @ basis.T
    indefinite = basis @ np.diag(np.linspace(-3.0, 5.0, 60) + 0.05) @ basis.T
    return basis, spd, indefinite, rng.standard_normal(60)


@pytest.mark.parametrize("maxiter", [5, 500])
def test_cg_and_minres_match_scipy(maxiter):
    from scipy.sparse.linalg import LinearOperator, cg, minres

    _, spd, indefinite, b = _krylov_problem()
    diag = np.diag(spd).copy()
    precond = LinearOperator(spd.shape, matvec=lambda x: x / diag, dtype=float)
    want, want_info = cg(spd, b, rtol=1e-10, atol=0.0, maxiter=maxiter, M=precond)
    got, info = nehari_module._cg(lambda x: spd @ x, b, diag, 1e-10, maxiter)
    assert info == want_info == (maxiter if maxiter == 5 else 0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    want, want_info = minres(indefinite, b, rtol=1e-10, maxiter=maxiter)
    got, info = nehari_module._minres(lambda x: indefinite @ x, b, lambda r: r, 1e-10, maxiter)
    assert info == want_info == (maxiter if maxiter == 5 else 0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the preconditioned branch, with M = spd^-1
    spd_inv = np.linalg.inv(spd)
    precond = LinearOperator(spd.shape, matvec=lambda x: spd_inv @ x, dtype=float)
    want, want_info = minres(indefinite, b, rtol=1e-10, maxiter=maxiter, M=precond)
    got, info = nehari_module._minres(lambda x: indefinite @ x, b, lambda r: spd_inv @ r,
                                      1e-10, maxiter)
    assert info == want_info == (maxiter if maxiter == 5 else 0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("flipped", [1, 60])
def test_minres_rejects_an_indefinite_preconditioner(flipped):
    # one flipped eigenvalue passes the first test r.M^-1 r > 0 and fails
    # inside the Lanczos loop; all sixty fail it before the first step
    from scipy.sparse.linalg import LinearOperator, minres

    basis, _, indefinite, b = _krylov_problem()
    signs = np.ones(60)
    signs[:flipped] = -1.0
    m_inv = basis @ np.diag(signs) @ basis.T
    precond = LinearOperator(m_inv.shape, matvec=lambda x: m_inv @ x, dtype=float)
    with pytest.raises(ValueError):  # scipy's choice; the solver needs RuntimeError
        minres(indefinite, b, rtol=1e-10, maxiter=500, M=precond)
    with pytest.raises(RuntimeError, match="preconditioner is indefinite"):
        nehari_module._minres(lambda x: indefinite @ x, b, lambda r: m_inv @ r, 1e-10, 500)


def test_unit_scale_fixed_point(spec5, kernel10, rng):
    # scale u so that its own drive equals its norm; then s = 1 at b = 0
    u = random_field(spec5.box, rng)
    c = kc.evaluate(spec5, kernel10, u)
    t = (c.norm_h2 / c.drive) ** (1.0 / (2.0 * c.exponent - 2.0))
    ct = kc.evaluate(spec5, kernel10, Field(spec5.box, t * u.values))
    assert kc.nehari_scale(ct, 0.0) == pytest.approx(1.0, rel=1e-12)


def project(spec, kernel, u):
    """s_u u: the field scaled onto the Nehari set along its ray."""
    point = kc.evaluate(spec, kernel, u)
    return point.at_scale(kc.nehari_scale(point, spec.b)).u


def test_projection_is_ray_invariant(spec5, kernel10, rng):
    u = random_field(spec5.box, rng)
    v1 = project(spec5, kernel10, u)
    v2 = project(spec5, kernel10, Field(spec5.box, 3.0 * u.values))
    assert np.allclose(v1.values, v2.values, rtol=1e-11, atol=1e-14)
    # the projection lands on the manifold: <J'(v), v> = 0 up to roundoff
    # in the largest of the three cancelling fiber terms
    c = kc.evaluate(spec5, kernel10, v1)
    scale = max(c.norm_h2, spec5.b * c.grad2**2, c.drive)
    defect = pairing(spec5, kernel10, v1, v1)
    assert abs(defect) <= 1e-11 * scale


def test_projection_maximizes_along_ray(spec5, kernel10, rng):
    u = random_field(spec5.box, rng)
    v = project(spec5, kernel10, u)
    jv = kc.energy(spec5, kernel10, v)
    for s in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0):
        sv = Field(spec5.box, s * v.values)
        assert jv >= kc.energy(spec5, kernel10, sv) - 1e-12 * abs(jv)


def test_sphere_inverse_normalizes(spec5, rng):
    u = random_field(spec5.box, rng)
    w = kc.sphere_inverse(u, spec5.a, spec5.potential_table)
    assert spec5.h_norm(w) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError):
        kc.sphere_inverse(Field.zeros(spec5.box), spec5.a, spec5.potential_table)


# ---------------------------------------------------------------------------
# the reduced functional Psi(v) = J(s_v v)


def test_envelope_identity_gives_the_reduced_derivative(spec5, kernel10, rng):
    # the s derivative of J(s w) vanishes at s_w, so d Psi(w)[z] = s_w <J'(s_w w), z>,
    # read from one evaluation of w scaled onto its ray
    w = kc.sphere_inverse(random_field(spec5.box, rng), spec5.a, spec5.potential_table)
    z = random_field(spec5.box, rng)
    z = Field(w.box, z.values - spec5.h_inner(z, w) * w.values)
    z = Field(w.box, z.values / spec5.h_norm(z))
    point = kc.evaluate(spec5, kernel10, w)
    s = kc.nehari_scale(point, spec5.b)
    derivative = s * float(np.sum(point.at_scale(s).gradient() * z.values))

    def reduced(v):
        ray = kc.evaluate(spec5, kernel10, v)
        return ray.ray_energy(kc.nehari_scale(ray, spec5.b))

    h = 1e-5
    up = Field(w.box, w.values + h * z.values)
    dn = Field(w.box, w.values - h * z.values)
    fd = (reduced(up) - reduced(dn)) / (2.0 * h)
    assert derivative == pytest.approx(fd, rel=1e-5)
    # Psi is constant along rays, so the radial derivative vanishes
    radial = s * float(np.sum(point.at_scale(s).gradient() * w.values))
    assert abs(radial) <= 1e-10 * abs(derivative)


# ---------------------------------------------------------------------------
# solver


def test_solver_reaches_stationarity(spec5, kernel10, solved5):
    rep = solved5
    assert rep.converged
    assert rep.residual <= 1e-9
    assert rep.nehari_defect <= 1e-10
    assert rep.energy > 0.0
    assert rep.iterations >= 1
    u = rep.solution
    # Euler-Lagrange residual, coordinate form
    g = kc.evaluate(spec5, kernel10, u).gradient()
    assert float(np.max(np.abs(g))) <= 1e-8


def test_solver_history_shape(solved5):
    rep = solved5
    assert len(rep.s_history) == len(rep.energy_history) == len(rep.residual_history)
    rows = list(rep.history_rows())
    assert rows[0][0] == 0
    assert rows[-1][2] <= 1e-9
    # descent phase decreases the reduced energy monotonically
    k = max(1, len(rep.energy_history) - rep.newton_iterations - 1)
    descent = rep.energy_history[:k]
    assert all(b <= a + 1e-12 for a, b in zip(descent, descent[1:]))


def test_solver_positive_ground_state(solved5):
    u = solved5.solution.values
    assert abs(u).max() == u.max()
    # sign-definite up to tiny numerical dust away from the peak
    assert u.min() >= -1e-8 * u.max()


def test_solver_seed_independence(spec5, kernel10, solved5):
    other = kc.solve_ground_state(spec5, kernel10, conftest.random_start(spec5, 3))
    assert other.converged
    assert other.energy == pytest.approx(solved5.energy, rel=1e-9)


def test_solver_deterministic_per_seed(spec5, kernel10):
    a = kc.solve_ground_state(spec5, kernel10, conftest.random_start(spec5, 11))
    b = kc.solve_ground_state(spec5, kernel10, conftest.random_start(spec5, 11))
    assert a.energy == b.energy
    assert np.array_equal(a.solution.values, b.solution.values)


def test_solver_eta_lower_bound(spec5, kernel10, solved5):
    rep = solved5
    assert 0.0 < rep.eta_estimate <= spec5.h_norm(rep.solution) + 1e-12
    p = spec5.nonlinearity.exponent
    floor = (0.5 - 1.0 / (2.0 * p)) * rep.eta_estimate**2
    assert rep.energy >= floor - 1e-12


def test_solver_small_kirchhoff_continuity(spec5, kernel10):
    # the b -> 0 limit is regular: levels move little for tiny b
    base = ProblemSpec(
        box=spec5.box,
        potential=spec5.potential,
        nonlinearity=spec5.nonlinearity,
        alpha=spec5.alpha,
        a=spec5.a,
        b=0.0,
    )
    tiny = ProblemSpec(
        box=spec5.box,
        potential=spec5.potential,
        nonlinearity=spec5.nonlinearity,
        alpha=spec5.alpha,
        a=spec5.a,
        b=1e-4,
    )
    e0 = kc.solve_ground_state(base, kernel10).energy
    e1 = kc.solve_ground_state(tiny, kernel10).energy
    assert e1 >= e0 - 1e-10
    assert abs(e1 - e0) / e0 < 1e-2


def test_solver_initial_field_start(spec5, kernel10, solved5):
    rep = kc.solve_ground_state(spec5, kernel10, solved5.solution)
    assert rep.converged
    assert rep.iterations <= 3
    assert rep.energy == pytest.approx(solved5.energy, rel=1e-12)


def test_solver_periodic_canonicalizes_peak():
    spec = ProblemSpec(
        box=LatticeBox(4, kc.PERIODIC),
        potential=PotentialSpec.constant(1.0),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        b=0.5,
    )
    kern = kc.build_kernel(1.0, 4)
    rep = kc.solve_ground_state(spec, kern, conftest.random_start(spec, 5))
    assert rep.converged
    peak = np.unravel_index(np.argmax(np.abs(rep.solution.values)), rep.solution.values.shape)
    assert peak == (4, 4, 4)


def test_solver_budget_exhaustion_reported(spec5, kernel10, monkeypatch):
    monkeypatch.setattr(nehari_module, "_MAX_ITERATIONS", 2)
    monkeypatch.setattr(nehari_module, "_NEWTON_MAX_ITERATIONS", 1)
    monkeypatch.setattr(nehari_module, "_TOLERANCE", 1e-16)
    rep = kc.solve_ground_state(spec5, kernel10)
    assert not rep.converged
    assert rep.message
    assert rep.residual > 1e-12


def test_solver_periodic_solution_stays_on_the_potential_lattice(kernel_m16):
    # box side 15 is a multiple of tau = 3; the minimum of V sits off the
    # box center, so recentering the peak would move the solution by a
    # shift that is not a period of V
    rng = random.Random(1)
    spec = ProblemSpec(
        box=LatticeBox(7, kc.PERIODIC),
        potential=PotentialSpec.periodic(3, [rng.uniform(1.0, 2.0) for _ in range(27)]),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        b=0.0,
    )
    rep = kc.solve_ground_state(spec, kernel_m16)
    assert rep.converged, rep.message
    assert rep.residual <= 1e-9
    assert rep.message == "ok"


def test_solver_converges_on_the_periodic_kirchhoff_problem(kernel_m16):
    # periodic r7 with b = 1: the unpreconditioned polish exhausted its 30
    # Newton steps at residual 1.8e-5 on this problem
    rng = random.Random(3)
    spec = ProblemSpec(
        box=LatticeBox(7, kc.PERIODIC),
        potential=PotentialSpec.periodic(3, [rng.uniform(1.0, 2.0) for _ in range(27)]),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        b=1.0,
    )
    rep = kc.solve_ground_state(spec, kernel_m16)
    assert rep.converged, rep.message
    assert rep.residual <= 1e-9
    assert rep.energy == pytest.approx(828.1216689338041, rel=1e-9, abs=0.0)


def test_solver_newton_budget_exhaustion_reported(kernel_m8, monkeypatch):
    spec = ProblemSpec(
        box=LatticeBox(4),
        potential=PotentialSpec.coercive(1.0, 1.0, 2.0),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        b=1.0,
    )
    monkeypatch.setattr(nehari_module, "_NEWTON_MAX_ITERATIONS", 1)
    monkeypatch.setattr(nehari_module, "_TOLERANCE", 1e-16)
    rep = kc.solve_ground_state(spec, kernel_m8)
    assert not rep.converged
    assert rep.newton_iterations == 1
    assert rep.message == "Newton iteration budget exhausted"


def failing_on_call(k):
    """A nehari_scale that raises RuntimeError on its k-th call."""
    calls = [0]

    def scale(*args, **kwargs):
        calls[0] += 1
        if calls[0] == k:
            raise RuntimeError(f"injected ray-root failure on call {k}")
        return kc.nehari_scale(*args, **kwargs)

    return scale, calls


@pytest.mark.parametrize("which", ["start", "descent", "newton"])
def test_solver_reports_ray_root_failure(spec5, kernel10, monkeypatch, which):
    scale, calls = failing_on_call(0)  # never fires: this solve only counts the calls
    monkeypatch.setattr(nehari_module, "nehari_scale", scale)
    kc.solve_ground_state(spec5, kernel10)
    # the last call is the root of the final Newton history row
    k = {"start": 1, "descent": 2, "newton": calls[0]}[which]
    scale, _ = failing_on_call(k)
    monkeypatch.setattr(nehari_module, "nehari_scale", scale)
    rep = kc.solve_ground_state(spec5, kernel10)
    assert not rep.converged
    assert rep.message == f"injected ray-root failure on call {k}"
    assert rep.solution.box == spec5.box
    # the proven eta needs no evaluation, so even a failed start reports it
    eta, _ = conftest.proven_floor(spec5, kernel10)
    assert rep.eta_estimate == pytest.approx(eta, rel=1e-12, abs=0.0)
    if which == "start":
        assert np.isnan(rep.energy) and np.isnan(rep.residual)
        assert len(rep.energy_history) == 0
    else:
        assert np.isfinite(rep.energy) and np.isfinite(rep.residual)
        assert rep.energy_history.shape == rep.s_history.shape


def test_reference_solve_convolution_budget(reference_spec, kernel_m16, convolution_count):
    # one evaluation per line-search trial and per accepted point
    rep = kc.solve_ground_state(reference_spec, kernel_m16)
    assert (rep.iterations, rep.newton_iterations) == (16, 1)
    assert rep.energy == pytest.approx(3212.704611141712, rel=1e-12)
    assert rep.eta_estimate == pytest.approx(0.5593856543491934, rel=1e-12)
    assert convolution_count[0] <= 30


def test_reference_solve_validates_fields_only_at_the_core_boundary(
        reference_spec, kernel_m16, convolution_count, field_count):
    # two per convolution (convolve's argument and its result) and one per
    # evaluation or rescale; the iterates, gradients and steps stay arrays
    rep = kc.solve_ground_state(reference_spec, kernel_m16)
    assert convolution_count[0] == 26
    assert field_count[0] <= 100
    # building the Newton operator wraps nothing; an action wraps only around convolve
    point = kc.evaluate(reference_spec, kernel_m16, rep.solution)
    field_count[0] = convolution_count[0] = 0
    hessian = nehari_module._hessian(kernel_m16, point)
    assert field_count[0] == 0
    hessian(np.ones(reference_spec.box.site_count))
    assert (convolution_count[0], field_count[0]) == (1, 2)


# ---------------------------------------------------------------------------
# the descent direction: the gradient's representer in the Kirchhoff-weighted
# energy norm c (grad d, grad z) + sum V d z, with c = a + bA


def _periodic_tau3_potential():
    rng = random.Random(1)
    return PotentialSpec.periodic(3, [rng.uniform(1.0, 2.0) for _ in range(27)])


def _descent_boxes(spec5):
    periodic = ProblemSpec(
        box=LatticeBox(4, kc.PERIODIC),
        potential=_periodic_tau3_potential(),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        b=1.0,
    )
    return spec5, periodic


def _weighted_pairing(spec, c, r, z):
    table = spec.potential_table
    return c * kc.gradient_inner(r, z) + float(np.sum(table * r.values * z.values))


@pytest.mark.parametrize("weight", [None, 0.4, 7.5])
def test_weighted_representer_solves_the_weighted_problem(spec5, rng, weight):
    # no weight keeps the energy-norm representer: c = a
    for spec in _descent_boxes(spec5):
        g = random_field(spec.box, rng)
        r = Field(spec.box, nehari_module._h_representer(spec, g.values, 1e-12, weight=weight))
        c = spec.a if weight is None else weight
        for _ in range(4):
            z = random_field(spec.box, rng)
            want = float(np.sum(g.values * z.values))
            scale = np.linalg.norm(g.values) * np.linalg.norm(z.values)
            assert abs(_weighted_pairing(spec, c, r, z) - want) <= 1e-9 * scale, spec.box


def test_rough_descent_direction_is_a_descent_direction(spec5, kernel10, rng):
    # CG from zero on an SPD system returns d with g.d > 0 at any tolerance
    for spec in _descent_boxes(spec5):
        kern = kernel10 if spec.box.mode == kc.DIRICHLET else kc.build_kernel(1.0, 4)
        for _ in range(3):
            w = kc.sphere_inverse(random_field(spec.box, rng), spec.a, spec.potential_table)
            start = kc.evaluate(spec, kern, w)
            point = start.at_scale(kc.nehari_scale(start, spec.b))
            g = point.gradient()
            weight = spec.a + spec.b * point.grad2
            d = nehari_module._h_representer(spec, g, nehari_module._DESCENT_RTOL, weight=weight)
            assert float(np.sum(g * d)) > 0.0


def test_descent_cg_budget_exhaustion_is_reported(spec5, kernel10, monkeypatch):
    cg = nehari_module._cg

    def exhausted(matvec, b, diag, rtol, maxiter):
        x, info = cg(matvec, b, diag, rtol, maxiter)
        return x, maxiter if rtol == nehari_module._DESCENT_RTOL else info

    monkeypatch.setattr(nehari_module, "_cg", exhausted)
    rep = kc.solve_ground_state(spec5, kernel10)
    assert not rep.converged
    assert rep.message.startswith("energy-norm representer solve did not converge")
    assert rep.iterations == 0 and np.isfinite(rep.energy)


# ---------------------------------------------------------------------------
# the Newton operator: the second-derivative action x -> J''(u)[x] on flat arrays


@pytest.mark.parametrize("b", [0.0, 1.0])
@pytest.mark.parametrize("mode", [kc.DIRICHLET, kc.PERIODIC])
def test_newton_operator_is_the_symmetric_derivative_of_the_gradient(kernel_m8, mode, b):
    # b = 1 brings in the rank-one Kirchhoff term 2b Gamma(u, v) lap u
    if mode == kc.DIRICHLET:
        box, potential = LatticeBox(4), PotentialSpec.coercive(1.0, 1.0, 2.0)
    else:
        box, potential = LatticeBox(3, kc.PERIODIC), _periodic_tau3_potential()
    spec = ProblemSpec(box, potential, PowerNonlinearity(1.0, 3.0), alpha=1.0, b=b)
    rng = np.random.default_rng(31)
    shape = (spec.box.side,) * 3
    # a positive point keeps f'' = 2 sign(u) continuous along the difference stencil
    u = Field(spec.box, 0.2 + 0.5 * rng.random(shape))
    hessian = nehari_module._hessian(kernel_m8, kc.evaluate(spec, kernel_m8, u))
    x, y = rng.standard_normal((2, spec.box.site_count))
    xhy, yhx = float(np.dot(x, hessian(y))), float(np.dot(y, hessian(x)))
    assert abs(xhy - yhx) <= 1e-12 * abs(xhy)
    h = 1.0e-5
    v = x.reshape(shape)
    up = kc.evaluate(spec, kernel_m8, Field(spec.box, u.values + h * v)).gradient()
    dn = kc.evaluate(spec, kernel_m8, Field(spec.box, u.values - h * v)).gradient()
    hx = hessian(x)
    assert np.linalg.norm((up - dn).ravel() / (2.0 * h) - hx) <= 1e-6 * np.linalg.norm(hx)


def _level_spec(radius=6, b=1.0, alpha=1.0, p=3.0, mode=kc.DIRICHLET, potential=None):
    return ProblemSpec(
        box=LatticeBox(radius, mode),
        potential=potential or PotentialSpec.coercive(1.0, 1.0, 2.0),
        nonlinearity=PowerNonlinearity(1.0, p),
        alpha=alpha,
        a=1.0,
        b=b,
    )


# ground-state levels of the Jacobi-scaled descent that preceded the
# energy-norm direction; the minimizer must not move with the path to it.
# case -> (spec, table radius, random-start seed or None for the bump, level)
_RECORDED_LEVELS = {
    "r4": (lambda: _level_spec(4), 8, None, 3379.857413815028),
    "r10": (lambda: _level_spec(10), 20, None, 3211.5419795582393),
    "b0": (lambda: _level_spec(b=0.0), 12, None, 8.387450840307544),
    "b10": (lambda: _level_spec(b=10.0), 12, None, 2635944.695067171),
    "alpha0.5": (lambda: _level_spec(alpha=0.5), 12, None, 3885.746661304678),
    "alpha2.5": (lambda: _level_spec(alpha=2.5), 12, None, 323.16155347081985),
    "p2.5": (lambda: _level_spec(p=2.5), 12, None, 243596.67304763163),
    "random": (lambda: _level_spec(), 12, 5, 3229.9404106067605),
    "periodic-r7": (lambda: _level_spec(7, b=0.0, mode=kc.PERIODIC,
                                        potential=_periodic_tau3_potential()), 16, None,
                    8.14101427628749),
}


@pytest.mark.parametrize("b", [100.0, 1.0e4])
def test_solver_converges_at_large_kirchhoff_weights(b):
    # an absolute residual tolerance of 1e-9 left both solves stalled in the
    # Newton polish (at 1.1e-7 and 1.3e-2), orders of magnitude below g's scale
    spec = _level_spec(b=b)
    rep = kc.solve_ground_state(spec, kc.build_kernel(spec.alpha, 12))
    assert rep.converged, rep.message
    assert rep.residual <= 1e-13 * rep.residual_scale
    assert rep.nehari_defect <= 1e-12


def test_solver_descends_on_a_problem_below_unit_scale(kernel_m8):
    # at c = 1e150 the whole gradient, about 7e-75, lay below an absolute
    # hand-over of 1e-3: the Newton polish started from the bump and stalled
    # after 0+9 steps at Nehari defect 0.107; relative to the scale of 7e-74
    # the descent runs first
    spec = ProblemSpec(LatticeBox(4), PotentialSpec.coercive(1.0, 1.0, 2.0),
                       PowerNonlinearity(1e150, 3.0), alpha=1.0, a=1.0, b=1.0)
    rep = kc.solve_ground_state(spec, kernel_m8)
    assert rep.converged, rep.message
    assert rep.iterations > 0
    assert rep.residual <= 1e-13 * rep.residual_scale
    assert rep.nehari_defect <= 1e-12
    assert rep.energy == pytest.approx(8.387450841858959e-150, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("case", sorted(_RECORDED_LEVELS))
def test_ground_levels_match_recorded_values(case):
    make_spec, table_radius, seed, level = _RECORDED_LEVELS[case]
    spec = make_spec()
    kernel = kc.build_kernel(spec.alpha, table_radius)
    start = None if seed is None else conftest.random_start(spec, seed)
    rep = kc.solve_ground_state(spec, kernel, start)
    assert rep.converged, rep.message
    assert rep.energy == pytest.approx(level, rel=1e-12, abs=0.0)
    # the proven floors: ||u|| >= eta on the Nehari set and c >= sigma*
    eta, sigma = conftest.proven_floor(spec, kernel)
    assert rep.eta_estimate == pytest.approx(eta, rel=1e-12, abs=0.0)
    assert eta <= spec.h_norm(rep.solution)
    assert rep.energy >= sigma


def test_solver_start_must_live_on_the_problem_box(spec5, kernel10):
    start = kc.gaussian_bump_field(LatticeBox(4))
    with pytest.raises(ValueError, match="radius-4 dirichlet box, not on the problem's "
                                         "radius-5 dirichlet box"):
        kc.solve_ground_state(spec5, kernel10, start)


def test_solver_copies_its_start(spec5, kernel10):
    # even a start the solver cannot scale is reported as a copy, never the caller's field
    start = Field(spec5.box, np.full((spec5.box.side,) * 3, 1e200))
    rep = kc.solve_ground_state(spec5, kernel10, start)
    assert not rep.converged and "leaves the double range" in rep.message
    assert np.array_equal(rep.solution.values, start.values)
    assert rep.solution is not start and not np.shares_memory(rep.solution.values, start.values)


def test_start_field_builders(spec5, rng):
    bump = kc.gaussian_bump_field(spec5.box, (1, 0, 0))
    assert bump.values.max() == bump.values[6, 5, 5]
    noise = kc.random_start_field(spec5.box, rng, (0, 0, 0))
    assert float(np.abs(noise.values).sum()) > 0.0
