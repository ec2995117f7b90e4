"""Potentials, nonlinearities, and the energy functional with its variations."""

import math

import numpy as np
import pytest

import conftest
import kclattice as kc
from kclattice import Field, LatticeBox, PotentialSpec, PowerNonlinearity, ProblemSpec
from kclattice.energy import evaluate, log_interaction_constant, nehari_radius
from kclattice.lattice import _edge_sum, _laplacian_values
from referees import pairing, potential_value


@pytest.fixture(scope="module")
def small_spec():
    return ProblemSpec(
        box=LatticeBox(2),
        potential=PotentialSpec.coercive(1.0, 1.0, 2.0),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        a=1.0,
        b=1.0,
    )


@pytest.fixture(scope="module")
def small_kernel():
    return kc.build_kernel(1.0, 4)


def random_field(box, rng, scale=0.3):
    return Field(box, scale * rng.standard_normal((box.side,) * 3))


def minimum_site(potential, box):
    """The minimum site of ``potential`` on ``box``, as a problem on that box locates it."""
    return ProblemSpec(box, potential, PowerNonlinearity(1.0, 3.0), alpha=1.0).minimum_site


# ---------------------------------------------------------------------------
# potentials


def test_constant_potential():
    pot = PotentialSpec.constant(2.5)
    assert potential_value(pot, (3, -1, 2)) == 2.5
    table = pot.table_on(LatticeBox(2))
    assert np.all(table == 2.5)
    assert minimum_site(pot, LatticeBox(2)) == (0, 0, 0)


def test_coercive_potential_values():
    pot = PotentialSpec.coercive(1.0, 1.0, 1.0)
    assert potential_value(pot, (0, 0, 0)) == 1.0
    assert potential_value(pot, (3, 0, 0)) == pytest.approx(4.0, rel=1e-15)
    assert potential_value(pot, (1, 1, 1)) == pytest.approx(1.0 + np.sqrt(3.0), rel=1e-15)
    quad = PotentialSpec.coercive(0.5, 2.0, 2.0, center=(1, 0, 0))
    assert potential_value(quad, (1, 0, 0)) == 0.5
    assert potential_value(quad, (0, 0, 0)) == pytest.approx(2.5, rel=1e-15)
    assert minimum_site(quad, LatticeBox(3)) == (1, 0, 0)


def test_coercive_table_matches_pointwise():
    pot = PotentialSpec.coercive(1.0, 0.7, 1.4, center=(0, -1, 2))
    box = LatticeBox(3)
    table = pot.table_on(box)
    n = box.radius
    for site in [(0, 0, 0), (3, -3, 3), (-1, 2, 0)]:
        assert table[site[0] + n, site[1] + n, site[2] + n] == pytest.approx(
            potential_value(pot, site), rel=1e-14
        )


def test_periodic_potential_tiles():
    # tau = 2 parity pattern: 6 on even total parity offsets, 10 on odd
    table = [6.0 + 4.0 * ((i + j + k) % 2) for i in range(2) for j in range(2) for k in range(2)]
    pot = PotentialSpec.periodic(2, table)
    assert pot.v0 == 6.0
    assert potential_value(pot, (0, 0, 0)) == 6.0
    assert potential_value(pot, (5, 0, 0)) == potential_value(pot, (1, 0, 0)) == 10.0
    assert potential_value(pot, (-1, 0, 0)) == 10.0
    assert potential_value(pot, (2, 4, -6)) == 6.0
    grid = pot.table_on(LatticeBox(4))
    assert grid[4, 4, 4] == 6.0
    assert grid[5, 4, 4] == 10.0
    assert minimum_site(pot, LatticeBox(4)) == (0, 0, 0)
    # any integral period is taken, and stored as an int
    for tau in (np.int64(2), 2.0):
        same = PotentialSpec.periodic(tau, table)
        assert same == pot and type(same.tau) is int


def test_minimum_site_prefers_center():
    # many sites attain the minimum; pick the one closest to the origin
    pot = PotentialSpec.periodic(3, [5.0] * 27)
    assert minimum_site(pot, LatticeBox(6)) == (0, 0, 0)


def test_potential_validation():
    with pytest.raises(ValueError, match=r"^v0 \(the potential floor\) must be positive"):
        PotentialSpec.constant(0.0)
    with pytest.raises(ValueError, match="^rate of a coercive potential must be positive"):
        PotentialSpec.coercive(1.0, -1.0, 2.0)
    with pytest.raises(ValueError, match="^power of a coercive potential must be positive"):
        PotentialSpec.coercive(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"^table needs tau\^3 = 8 values, got 7$"):
        PotentialSpec.periodic(2, [1.0] * 7)
    with pytest.raises(ValueError, match=r"^tau \(the period\) must be a positive integer, got 0$"):
        PotentialSpec.periodic(0, [])
    with pytest.raises(ValueError, match="^table values must not drop below the floor v0$"):
        # stated floor above an actual table entry
        PotentialSpec(kc.PERIODIC_POTENTIAL, 1.0, tau=1, table=(0.5,))


@pytest.mark.parametrize("make, message", [
    (lambda: PotentialSpec.coercive(1.0, 1.0, 2.0, center=(0, 0)),
     "center of the potential must have three coordinates"),
    (lambda: PotentialSpec(kc.PERIODIC_POTENTIAL, 1.0, tau=0),
     "tau (the period) must be a positive integer, got 0"),
    # periodic() takes its floor from the table, which is read only after tau and its length
    (lambda: PotentialSpec.periodic(2, []), "table needs tau^3 = 8 values, got 0"),
    # a fractional period is refused, not truncated
    (lambda: PotentialSpec.periodic(1.9, [2.0]), "tau (the period) must be a positive integer, "
     "got 1.9"),
    (lambda: PotentialSpec(kc.PERIODIC_POTENTIAL, 2.0, tau=1.5, table=(2.0,)),
     "tau (the period) must be a positive integer, got 1.5"),
    (lambda: PotentialSpec("spiky", 1.0), "kind 'spiky' is not a known potential kind"),
])
def test_potential_refusals_name_their_parameter(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# nonlinearities


def test_power_nonlinearity_values():
    nl = PowerNonlinearity(2.0, 3.0)
    assert nl.f(2.0) == pytest.approx(8.0)
    assert nl.f(-2.0) == pytest.approx(-8.0)
    assert nl.F(-2.0) == pytest.approx(16.0 / 3.0)
    assert nl.f_prime(-2.0) == pytest.approx(8.0)
    assert nl.f(0.0) == 0.0 and nl.F(0.0) == 0.0


def test_power_nonlinearity_fprime_is_derivative(rng):
    nl = PowerNonlinearity(1.3, 2.7)
    h = 1e-6
    for t in rng.uniform(-3.0, 3.0, size=10):
        fd = (nl.f(t + h) - nl.f(t - h)) / (2.0 * h)
        assert nl.f_prime(t) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_superlinearity_bound_on_grid():
    # theta * F(t) <= 2 t f(t), with equality at theta = 2p
    nl = PowerNonlinearity(1.0, 3.0)
    ts = np.linspace(-10.0, 10.0, 401)
    for theta in (4.5, 5.0, 6.0):
        lhs = theta * nl.F(ts)
        rhs = 2.0 * ts * nl.f(ts)
        assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-15)
    assert np.allclose(6.0 * nl.F(ts), 2.0 * ts * nl.f(ts), rtol=1e-13)


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        PowerNonlinearity(0.0, 3.0)
    with pytest.raises(ValueError):
        PowerNonlinearity(1.0, 2.0)


# ---------------------------------------------------------------------------
# problem spec


def test_problem_spec_validation():
    box = LatticeBox(2)
    pot = PotentialSpec.constant(1.0)
    nl = PowerNonlinearity(1.0, 3.0)
    with pytest.raises(ValueError):
        ProblemSpec(box, pot, nl, alpha=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(box, pot, nl, alpha=3.0)
    with pytest.raises(ValueError):
        ProblemSpec(box, pot, nl, alpha=1.0, a=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(box, pot, nl, alpha=1.0, b=-1.0)


def _spec_with(**weights):
    return ProblemSpec(LatticeBox(2), PotentialSpec.constant(1.0), PowerNonlinearity(1.0, 3.0),
                       alpha=1.0, **weights)


# parameter (then, optionally, where its bad value sits) -> a constructor taking that value
_PARAMETER_BUILDS = {
    "a": lambda x: _spec_with(a=x),
    "b": lambda x: _spec_with(b=x),
    "v0": lambda x: PotentialSpec.constant(x),
    "rate": lambda x: PotentialSpec.coercive(1.0, x, 2.0),
    "power": lambda x: PotentialSpec.coercive(1.0, 1.0, x),
    "table": lambda x: PotentialSpec.periodic(2, [1.0] * 7 + [x]),
    "table first": lambda x: PotentialSpec.periodic(2, [x] + [1.0] * 7),
    "coefficient": lambda x: PowerNonlinearity(x, 3.0),
    "exponent": lambda x: PowerNonlinearity(1.0, x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(_PARAMETER_BUILDS))
def test_constructors_reject_non_finite_parameters_by_name(name, value):
    # the message names the parameter first: configs anchor the error at that key
    with pytest.raises(ValueError, match=f"^{name.split()[0]} "):
        _PARAMETER_BUILDS[name](value)


def test_with_box_keeps_parameters(small_spec):
    bigger = small_spec.with_box(LatticeBox(3))
    assert bigger.box.radius == 3
    assert bigger.alpha == small_spec.alpha
    assert bigger.potential is small_spec.potential
    assert np.array_equal(
        bigger.potential_table, small_spec.potential.table_on(LatticeBox(3))
    )


_OTHER_BOX_CASES = {
    # the field's box, then the problem's
    "dirichlet-field-periodic-problem": (LatticeBox(3), LatticeBox(3, kc.PERIODIC)),
    "radius-2-field-radius-3-problem": (LatticeBox(2), LatticeBox(3)),
}
_BOX_ENTRIES = {
    "evaluate": lambda spec, kernel, u: kc.evaluate(spec, kernel, u),
    "h_inner": lambda spec, kernel, u: spec.h_inner(u, u),
    "h_inner-second": lambda spec, kernel, u: spec.h_inner(Field.zeros(spec.box), u),
    "sphere_inverse": lambda spec, kernel, u: kc.sphere_inverse(spec, u),
}


@pytest.mark.parametrize("entry", sorted(_BOX_ENTRIES))
@pytest.mark.parametrize("case", sorted(_OTHER_BOX_CASES))
def test_a_field_on_another_box_is_refused_by_name(kernel_m8, convolution_count, case, entry):
    # a field of ones on a Dirichlet box read as a periodic one would mix the two
    # boundary conventions; one of another radius would fail in a numpy broadcast
    field_box, problem_box = _OTHER_BOX_CASES[case]
    spec = ProblemSpec(problem_box, PotentialSpec.constant(1.0), PowerNonlinearity(1.0, 3.0),
                       alpha=1.0, b=1.0)
    u = Field(field_box, np.ones((field_box.side,) * 3))
    with pytest.raises(ValueError, match=(
            f"field lives on a radius-{field_box.radius} {field_box.mode} box, not on the "
            f"problem's radius-{problem_box.radius} {problem_box.mode} box")):
        _BOX_ENTRIES[entry](spec, kernel_m8, u)
    assert convolution_count[0] == 0


# ---------------------------------------------------------------------------
# energy and variations


def brute_force_energy(spec, kernel, u):
    """Straight-line triple sum over sites, no FFT, no vectorized inner."""
    box = spec.box
    n = box.radius
    sites = [(i, j, k) for i in range(-n, n + 1) for j in range(-n, n + 1) for k in range(-n, n + 1)]
    val = {s: u.values[s[0] + n, s[1] + n, s[2] + n] for s in sites}

    def at(s):
        if box.mode == kc.PERIODIC:
            side = box.side
            w = tuple((c + n) % side - n for c in s)
            return val[w]
        return val.get(s, 0.0)

    directions = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    grad2 = 0.0
    for s in sites:
        for d in directions:
            t = (s[0] + d[0], s[1] + d[1], s[2] + d[2])
            if box.mode == kc.DIRICHLET and not box.contains(t):
                grad2 += at(s) ** 2  # edge to the zero exterior, seen once
            else:
                grad2 += 0.5 * (at(t) - at(s)) ** 2  # interior edge, seen twice
    pot = sum(potential_value(spec.potential, s) * at(s) ** 2 for s in sites)
    interact = 0.0
    nl = spec.nonlinearity
    for s in sites:
        for t in sites:
            d = tuple(sc - tc for sc, tc in zip(s, t))
            if box.mode == kc.PERIODIC:
                side = box.side
                d = tuple((c + n) % side - n for c in d)
            interact += kernel.value(d) * nl.F(at(s)) * nl.F(at(t))
    norm2 = spec.a * grad2 + pot
    return 0.5 * norm2 + 0.25 * spec.b * grad2**2 - 0.5 * interact


@pytest.mark.parametrize("mode", [kc.DIRICHLET, kc.PERIODIC])
def test_energy_matches_brute_force(small_kernel, rng, mode):
    spec = ProblemSpec(
        box=LatticeBox(2, mode),
        potential=PotentialSpec.coercive(1.0, 1.0, 2.0)
        if mode == kc.DIRICHLET
        else PotentialSpec.constant(1.0),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        b=0.7,
    )
    u = random_field(spec.box, rng)
    assert kc.evaluate(spec, small_kernel, u).ray_energy() == pytest.approx(
        brute_force_energy(spec, small_kernel, u), rel=1e-12
    )


def test_energy_of_zero_field(small_spec, small_kernel):
    assert kc.evaluate(small_spec, small_kernel, Field.zeros(small_spec.box)).ray_energy() == 0.0


def test_evaluate_refuses_a_field_whose_F_overflows(small_spec, small_kernel):
    # F(u) = |u|^3 / 3 at p = 3 is near 3e359 for u = 1e120
    huge = Field(small_spec.box, np.full((small_spec.box.side,) * 3, 1e120))
    with pytest.raises(RuntimeError, match=r"^F\(u\) overflows the double range$"):
        evaluate(small_spec, small_kernel, huge)


def test_energy_along_ray_is_polynomial(small_spec, small_kernel, rng):
    # J(su) = s^2/2 ||u||^2 + s^4 b/4 A^2 - s^(2p)/2 * 2*I(u)
    u = random_field(small_spec.box, rng)
    nh = small_spec.h_norm(u) ** 2
    aa = _edge_sum(u.values, u.values, u.box.mode)
    ii = 0.5 * evaluate(small_spec, small_kernel, u).interaction
    p = small_spec.nonlinearity.exponent
    for s in (0.5, 1.0, 2.0):
        su = Field(small_spec.box, s * u.values)
        poly = 0.5 * s**2 * nh + 0.25 * small_spec.b * s**4 * aa**2 - s ** (2 * p) * ii
        assert (kc.evaluate(small_spec, small_kernel, su).ray_energy()
                == pytest.approx(poly, rel=1e-10))


def test_interaction_homogeneity(small_spec, small_kernel, rng):
    u = random_field(small_spec.box, rng)
    base = 0.5 * evaluate(small_spec, small_kernel, u).interaction
    doubled = Field(small_spec.box, 2.0 * u.values)
    double = 0.5 * evaluate(small_spec, small_kernel, doubled).interaction
    p = small_spec.nonlinearity.exponent
    assert double == pytest.approx(2.0 ** (2 * p) * base, rel=1e-12)
    assert base > 0.0


@pytest.mark.parametrize("mode", [kc.DIRICHLET, kc.PERIODIC])
def test_interaction_is_bounded_by_the_closed_form_constant(small_kernel, rng, mode,
                                                            convolution_count):
    # B(u) <= K ||u||^(2p): Young's inequality on the box's kernel block, then
    # ||u||_2p <= ||u||_2 and ||u||_2^2 <= ||u||^2 / V_min
    potential = (PotentialSpec.coercive(1.5, 1.0, 2.0) if mode == kc.DIRICHLET
                 else PotentialSpec.periodic(2, [2.5, 3.0, 4.0, 2.5, 5.0, 3.5, 2.5, 6.0]))
    spec = ProblemSpec(LatticeBox(2, mode), potential, PowerNonlinearity(2.0, 3.5),
                       alpha=1.0, a=0.5, b=1.0)
    big_k = math.exp(log_interaction_constant(spec, small_kernel))
    assert convolution_count[0] == 0
    assert big_k == pytest.approx(conftest.interaction_constant(spec, small_kernel), rel=1e-12)
    p = spec.nonlinearity.exponent
    shape = (spec.box.side,) * 3
    fields = [Field.delta(spec.box, (0, 0, 0), 3.0)]
    fields += [Field(spec.box, rng.random(shape)) for _ in range(5)]
    fields += [Field(spec.box, 10.0 * rng.standard_normal(shape)) for _ in range(5)]
    for u in fields:
        point = evaluate(spec, small_kernel, u)
        assert 0.0 < point.interaction <= big_k * point.norm_h2 ** p


def test_nehari_radius_stays_finite_past_the_double_range(small_kernel):
    spec = ProblemSpec(LatticeBox(2), PotentialSpec.constant(1.0), PowerNonlinearity(1e200, 3.0),
                       alpha=1.0)
    eta = nehari_radius(spec, small_kernel)  # K itself is near 1e401
    assert 0.0 < eta < math.inf
    unit = ProblemSpec(spec.box, spec.potential, PowerNonlinearity(1.0, 3.0), alpha=1.0)
    # K scales like c^2 and eta like K^(-1/(2p-2)) = c^(-1/2) at p = 3
    assert eta == pytest.approx(nehari_radius(unit, small_kernel) * 1e-100, rel=1e-12)


def test_pairing_matches_gradient_representer(small_spec, small_kernel, rng):
    u = random_field(small_spec.box, rng)
    rep = evaluate(small_spec, small_kernel, u).residual()[0]
    for _ in range(5):
        phi = random_field(small_spec.box, rng, scale=1.0)
        direct = pairing(small_spec, small_kernel, u, phi)
        via_rep = float(np.sum(rep * phi.values))
        assert direct == pytest.approx(via_rep, rel=1e-12, abs=1e-13)


def test_pairing_matches_central_difference(small_spec, small_kernel, rng):
    u = random_field(small_spec.box, rng)
    h = 1e-5
    for _ in range(5):
        phi = random_field(small_spec.box, rng, scale=1.0)
        up = Field(small_spec.box, u.values + h * phi.values)
        dn = Field(small_spec.box, u.values - h * phi.values)
        fd = (kc.evaluate(small_spec, small_kernel, up).ray_energy()
              - kc.evaluate(small_spec, small_kernel, dn).ray_energy()) / (2.0 * h)
        assert pairing(small_spec, small_kernel, u, phi) == pytest.approx(fd, rel=1e-6)


def test_pairing_with_u_closes_the_fiber_identity(small_spec, small_kernel, rng):
    # <J'(u), u> = ||u||^2 + b A^2 - D
    u = random_field(small_spec.box, rng)
    coeffs = kc.evaluate(small_spec, small_kernel, u)
    lhs = pairing(small_spec, small_kernel, u, u)
    rhs = coeffs.norm_h2 + small_spec.b * coeffs.grad2**2 - coeffs.drive
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # the Nehari defect is that pairing relative to the largest of its three terms
    largest = max(coeffs.norm_h2, small_spec.b * coeffs.grad2**2, coeffs.drive)
    assert coeffs.nehari_defect() == pytest.approx(abs(rhs) / largest, rel=1e-12)


def test_interaction_pairing_is_directional_derivative(small_spec, small_kernel, rng):
    u = random_field(small_spec.box, rng)
    phi = random_field(small_spec.box, rng, scale=1.0)
    h = 1e-5
    up = Field(small_spec.box, u.values + h * phi.values)
    dn = Field(small_spec.box, u.values - h * phi.values)
    fd = 0.5 * (
        evaluate(small_spec, small_kernel, up).interaction
        - evaluate(small_spec, small_kernel, dn).interaction
    ) / (2.0 * h)
    # <I'(u), phi> = sum (R * F(u)) f(u) phi, from the core's convolution
    conv = kc.evaluate(small_spec, small_kernel, u).conv
    derivative = float(np.sum(conv * small_spec.nonlinearity.f(u.values) * phi.values))
    assert derivative == pytest.approx(fd, rel=1e-6)


def test_kirchhoff_term_enters_gradient(small_kernel, rng):
    # two specs differing only in b: gradient difference is -b A lap(u)
    base = ProblemSpec(
        box=LatticeBox(2),
        potential=PotentialSpec.constant(1.0),
        nonlinearity=PowerNonlinearity(1.0, 3.0),
        alpha=1.0,
        b=0.0,
    )
    kirch = ProblemSpec(
        box=base.box, potential=base.potential, nonlinearity=base.nonlinearity, alpha=1.0, b=2.0
    )
    u = random_field(base.box, rng)
    g0 = evaluate(base, small_kernel, u).residual()[0]
    g2 = evaluate(kirch, small_kernel, u).residual()[0]
    aa = _edge_sum(u.values, u.values, u.box.mode)
    expect = -2.0 * aa * _laplacian_values(u.values, u.box.mode)
    assert np.allclose(g2 - g0, expect, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# the evaluation core


def test_core_ray_energy_and_scaled_gradient_match_fresh_evaluations(small_spec, small_kernel,
                                                                      rng):
    u = random_field(small_spec.box, rng)
    point = evaluate(small_spec, small_kernel, u)
    for s in (0.1, 0.5, 1.0, 1.7, 4.0):
        su = Field(small_spec.box, s * u.values)
        fresh = kc.evaluate(small_spec, small_kernel, su).ray_energy()
        assert point.ray_energy(s) == pytest.approx(fresh, rel=1e-12)
        scaled = point.at_scale(s)
        assert scaled.ray_energy() == pytest.approx(fresh, rel=1e-12)
        g = evaluate(small_spec, small_kernel, su).residual()[0]
        err = np.linalg.norm(scaled.residual()[0] - g)
        assert err <= 1e-12 * np.linalg.norm(g)


def test_residual_scale_sums_the_norms_of_the_gradient_terms(small_spec, small_kernel, rng):
    u = random_field(small_spec.box, rng)
    point = evaluate(small_spec, small_kernel, u)
    g, gnorm, scale = point.residual()
    assert np.array_equal(g, point.residual()[0])
    assert gnorm == pytest.approx(np.linalg.norm(g), rel=1e-12)
    weight = small_spec.a + small_spec.b * point.grad2
    terms = (weight * _laplacian_values(u.values, u.box.mode),
             small_spec.potential_table * u.values,
             point.conv * small_spec.nonlinearity.f(u.values))
    assert scale == pytest.approx(sum(np.linalg.norm(t) for t in terms), rel=1e-12)
    assert gnorm <= scale


def test_core_convolves_once_per_evaluation(small_spec, small_kernel, rng, convolution_count):
    u = random_field(small_spec.box, rng)
    point = evaluate(small_spec, small_kernel, u)
    assert convolution_count[0] == 1
    point.at_scale(2.0).residual()[0]
    point.ray_energy(3.0)
    assert convolution_count[0] == 1
    kc.evaluate(small_spec, small_kernel, u).ray_energy()
    assert convolution_count[0] == 2
