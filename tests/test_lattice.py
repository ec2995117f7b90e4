"""Boxes, fields, the Laplacian, norms, and field I/O."""

import numpy as np
import pytest

import kclattice as kc
from kclattice import Field, LatticeBox


def test_box_geometry():
    box = LatticeBox(3)
    assert box.side == 7
    assert box.site_count == 343
    assert box.contains((3, -3, 0))
    assert not box.contains((4, 0, 0))
    # row-major scan order: last coordinate varies fastest
    for site, rank in (((-3, -3, -3), 0), ((-3, -3, -2), 1), ((3, 3, 3), box.site_count - 1)):
        assert np.ravel_multi_index(np.add(site, 3), (box.side,) * 3) == rank
        assert np.flatnonzero(Field.delta(box, site).flat).tolist() == [rank]


def test_box_validation():
    with pytest.raises(ValueError):
        LatticeBox(-1)
    with pytest.raises(ValueError):
        LatticeBox(0, kc.PERIODIC)
    with pytest.raises(ValueError):
        LatticeBox(2, "reflecting")


def test_radius_zero_dirichlet_box():
    box = LatticeBox(0)
    u = Field.delta(box, (0, 0, 0), 2.0)
    assert kc.laplacian(u).values[0, 0, 0] == -12.0
    assert kc.gradient_inner(u, u) == pytest.approx(6.0 * 4.0)


def test_laplacian_stencil_oracle():
    box = LatticeBox(3)
    u = Field.delta(box, (0, 0, 0), 1.0)
    lap = kc.laplacian(u).values
    assert lap[3, 3, 3] == -6.0
    for site in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]:
        assert lap[3 + site[0], 3 + site[1], 3 + site[2]] == 1.0
    assert np.sum(np.abs(lap)) == 12.0


def test_laplacian_dirichlet_boundary():
    # outside the box the field is zero, so the corner site keeps -6u
    box = LatticeBox(1)
    u = Field(box, np.ones((3, 3, 3)))
    lap = kc.laplacian(u).values
    assert lap[1, 1, 1] == 0.0
    assert lap[0, 1, 1] == -1.0
    assert lap[0, 0, 0] == -3.0


def test_laplacian_periodic_wraps():
    box = LatticeBox(1, kc.PERIODIC)
    u = Field.delta(box, (1, 0, 0), 1.0)
    lap = kc.laplacian(u).values
    # neighbor across the seam: x1 = 1 wraps to x1 = -1
    assert lap[0, 1, 1] == 1.0
    assert lap[2, 1, 1] == -6.0
    assert np.sum(lap) == pytest.approx(0.0, abs=1e-15)


def test_summation_by_parts_exact(rng):
    # sum Gamma(u, v) = -sum v lap(u) must hold to the last bit with the
    # boundary convention used here, in both modes
    for mode in (kc.DIRICHLET, kc.PERIODIC):
        box = LatticeBox(3, mode)
        u = Field(box, rng.standard_normal((7, 7, 7)))
        v = Field(box, rng.standard_normal((7, 7, 7)))
        lhs = kc.gradient_inner(u, v)
        rhs = -float(np.sum(v.values * kc.laplacian(u).values))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_gradient_energy_bound(rng):
    # each of the <= 6 incident edges contributes at most 2(u^2 + v^2)
    for mode in (kc.DIRICHLET, kc.PERIODIC):
        box = LatticeBox(4, mode)
        u = Field(box, rng.standard_normal((9, 9, 9)))
        ge = kc.gradient_inner(u, u)
        assert 0.0 <= ge <= 12.0 * float(np.sum(u.values**2)) + 1e-12


def test_gradient_inner_is_polarization(rng):
    box = LatticeBox(3)
    u = Field(box, rng.standard_normal((7, 7, 7)))
    v = Field(box, rng.standard_normal((7, 7, 7)))
    upv = Field(box, u.values + v.values)
    umv = Field(box, u.values - v.values)
    polar = 0.25 * (kc.gradient_inner(upv, upv) - kc.gradient_inner(umv, umv))
    assert kc.gradient_inner(u, v) == pytest.approx(polar, rel=1e-12)


def test_lp_norms(rng):
    box = LatticeBox(2)
    u = Field(box, rng.standard_normal((5, 5, 5)))
    flat = u.values.ravel()
    assert kc.lp_norm(u, 2.0) == pytest.approx(np.linalg.norm(flat), rel=1e-14)
    assert kc.lp_norm(u, 1.0) == pytest.approx(np.abs(flat).sum(), rel=1e-14)
    assert kc.lp_norm(u, np.inf) == pytest.approx(np.abs(flat).max())
    assert kc.lp_norm(u, 2.4) == pytest.approx(
        float(np.sum(np.abs(flat) ** 2.4) ** (1 / 2.4)), rel=1e-14
    )
    with pytest.raises(ValueError):
        kc.lp_norm(u, 0.5)


def test_h_inner_and_norm(rng):
    box = LatticeBox(3)
    u = Field(box, rng.standard_normal((7, 7, 7)))
    v = Field(box, rng.standard_normal((7, 7, 7)))
    table = 1.0 + rng.random((7, 7, 7))
    assert kc.h_inner(u, v, 2.0, table) == pytest.approx(
        kc.h_inner(v, u, 2.0, table), rel=1e-13
    )
    expected = 2.0 * kc.gradient_inner(u, v) + float(np.sum(table * u.values * v.values))
    assert kc.h_inner(u, v, 2.0, table) == pytest.approx(expected, rel=1e-13)
    assert kc.h_inner(u, u, 2.0, table) > 0.0
    # scalar potential shortcut agrees with the filled table
    assert kc.h_inner(u, v, 2.0, 1.5) == pytest.approx(
        kc.h_inner(u, v, 2.0, np.full((7, 7, 7), 1.5)), rel=1e-13
    )


def test_translate_periodic_exact(rng):
    box = LatticeBox(3, kc.PERIODIC)
    u = Field(box, rng.standard_normal((7, 7, 7)))
    t = kc.translate(u, (2, -1, 5))
    assert np.array_equal(t.values, np.roll(u.values, (2, -1, 5), axis=(0, 1, 2)))
    back = kc.translate(t, (-2, 1, -5))
    assert np.array_equal(back.values, u.values)
    assert kc.gradient_inner(t, t) == pytest.approx(kc.gradient_inner(u, u), rel=1e-13)


def test_translate_dirichlet_drops_and_fills(rng):
    box = LatticeBox(2)
    u = Field(box, rng.standard_normal((5, 5, 5)))
    t = kc.translate(u, (1, 0, 0))
    assert np.all(t.values[0] == 0.0)
    assert np.array_equal(t.values[1:], u.values[:-1])
    assert np.array_equal(kc.translate(u, (0, 0, 0)).values, u.values)


def test_field_validation():
    box = LatticeBox(2)
    with pytest.raises(ValueError):
        Field(box, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        Field(box, np.full((5, 5, 5), np.nan))
    with pytest.raises(ValueError):
        Field.delta(box, (3, 0, 0), 1.0)


def test_field_helpers():
    box = LatticeBox(2)
    z = Field.zeros(box)
    assert np.all(z.values == 0.0)
    d = Field.delta(box, (1, -2, 0), 2.5)
    assert d.values[3, 0, 2] == 2.5
    assert float(np.sum(np.abs(d.values))) == 2.5
    flat = d.flat
    assert flat[np.ravel_multi_index((3, 0, 2), (box.side,) * 3)] == 2.5
    again = Field.from_flat(box, flat)
    assert again == d
    copy = d.copy()
    copy.values[0, 0, 0] = 9.0
    assert d.values[0, 0, 0] == 0.0


def test_text_io_round_trip(tmp_path, rng):
    for mode in (kc.DIRICHLET, kc.PERIODIC):
        box = LatticeBox(2, mode)
        u = Field(box, rng.standard_normal((5, 5, 5)) * 1e3)
        path = tmp_path / f"{mode}.field"
        kc.save_field_text(u, path)
        v = kc.load_field_text(path)
        assert v.box == box
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(v.values, u.values)
        header = path.read_text().splitlines()[0]
        assert header == f"# lattice-field v1 radius=2 mode={mode}"


def test_text_io_rejects_garbage(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("# wrong header\n1.0\n")
    with pytest.raises(ValueError):
        kc.load_field_text(path)
