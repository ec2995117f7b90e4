"""Boxes, fields, the Laplacian, norms, and field I/O."""

import numpy as np
import pytest

import kclattice as kc
from kclattice import Field, LatticeBox
from kclattice import lattice as lattice_module
from kclattice.lattice import _edge_sum, _laplacian_values, _lp_norm_values


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
    assert _laplacian_values(u.values, u.box.mode)[0, 0, 0] == -12.0
    assert _edge_sum(u.values, u.values, u.box.mode) == pytest.approx(6.0 * 4.0)


def test_laplacian_stencil_oracle():
    box = LatticeBox(3)
    u = Field.delta(box, (0, 0, 0), 1.0)
    lap = _laplacian_values(u.values, u.box.mode)
    assert lap[3, 3, 3] == -6.0
    for site in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]:
        assert lap[3 + site[0], 3 + site[1], 3 + site[2]] == 1.0
    assert np.sum(np.abs(lap)) == 12.0


def test_laplacian_dirichlet_boundary():
    # outside the box the field is zero, so the corner site keeps -6u
    box = LatticeBox(1)
    u = Field(box, np.ones((3, 3, 3)))
    lap = _laplacian_values(u.values, u.box.mode)
    assert lap[1, 1, 1] == 0.0
    assert lap[0, 1, 1] == -1.0
    assert lap[0, 0, 0] == -3.0


def test_laplacian_periodic_wraps():
    box = LatticeBox(1, kc.PERIODIC)
    u = Field.delta(box, (1, 0, 0), 1.0)
    lap = _laplacian_values(u.values, u.box.mode)
    # neighbor across the seam: x1 = 1 wraps to x1 = -1
    assert lap[0, 1, 1] == 1.0
    assert lap[2, 1, 1] == -6.0
    assert np.sum(lap) == pytest.approx(0.0, abs=1e-15)


def _laplacian_by_axes(v, mode):
    """Referee: the Laplacian as shifted 3-D slices, one axis at a time."""
    out = -6.0 * v
    if mode == kc.PERIODIC:
        for ax in range(3):
            out = out + np.roll(v, 1, axis=ax) + np.roll(v, -1, axis=ax)
        return out
    out[1:, :, :] += v[:-1, :, :]
    out[:-1, :, :] += v[1:, :, :]
    out[:, 1:, :] += v[:, :-1, :]
    out[:, :-1, :] += v[:, 1:, :]
    out[:, :, 1:] += v[:, :, :-1]
    out[:, :, :-1] += v[:, :, 1:]
    return out


def _edge_sum_by_axes(u, v, mode):
    """Referee: the edge sum from per-axis differences and boundary faces."""
    total = 0.0
    if mode == kc.PERIODIC:
        for ax in range(3):
            du = np.roll(u, -1, axis=ax) - u
            dv = np.roll(v, -1, axis=ax) - v
            total += float(np.sum(du * dv))
        return total
    for ax in range(3):
        du = np.diff(u, axis=ax)
        dv = np.diff(v, axis=ax)
        total += float(np.sum(du * dv))
        first = [slice(None)] * 3
        last = [slice(None)] * 3
        first[ax] = 0
        last[ax] = -1
        total += float(np.sum(u[tuple(first)] * v[tuple(first)]))
        total += float(np.sum(u[tuple(last)] * v[tuple(last)]))
    return total


@pytest.mark.parametrize("mode", [kc.DIRICHLET, kc.PERIODIC])
@pytest.mark.parametrize("side", [1, 2, 3, 9, 17, 21])
def test_flat_stencils_match_the_per_axis_referee_bit_for_bit(rng, mode, side):
    # the flat passes add the same terms in the same order, so nothing may
    # move, not even the sign of a zero
    shape = (side,) * 3
    u = rng.standard_normal(shape)
    w = rng.standard_normal(shape)
    mixed = rng.choice([0.0, -0.0, 1.5, -2.0], size=shape)
    for field in (u, mixed, np.asfortranarray(u)):
        assert _laplacian_values(field, mode).tobytes() == _laplacian_by_axes(field, mode).tobytes()
        assert np.array_equal(_laplacian_values(field, mode), _laplacian_by_axes(field, mode))
    for a, b in ((u, u), (u, w), (mixed, mixed), (mixed, u), (w, mixed)):
        assert _edge_sum(a, b, mode) == _edge_sum_by_axes(a, b, mode)


def test_summation_by_parts_exact(rng):
    # sum Gamma(u, v) = -sum v lap(u) must hold to the last bit with the
    # boundary convention used here, in both modes
    for mode in (kc.DIRICHLET, kc.PERIODIC):
        box = LatticeBox(3, mode)
        u = Field(box, rng.standard_normal((7, 7, 7)))
        v = Field(box, rng.standard_normal((7, 7, 7)))
        lhs = _edge_sum(u.values, v.values, u.box.mode)
        rhs = -float(np.sum(v.values * _laplacian_values(u.values, u.box.mode)))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_gradient_energy_bound(rng):
    # each of the <= 6 incident edges contributes at most 2(u^2 + v^2)
    for mode in (kc.DIRICHLET, kc.PERIODIC):
        box = LatticeBox(4, mode)
        u = Field(box, rng.standard_normal((9, 9, 9)))
        ge = _edge_sum(u.values, u.values, u.box.mode)
        assert 0.0 <= ge <= 12.0 * float(np.sum(u.values**2)) + 1e-12


def test_gradient_inner_is_polarization(rng):
    box = LatticeBox(3)
    u = Field(box, rng.standard_normal((7, 7, 7)))
    v = Field(box, rng.standard_normal((7, 7, 7)))
    upv = Field(box, u.values + v.values)
    umv = Field(box, u.values - v.values)
    polar = 0.25 * (_edge_sum(upv.values, upv.values, box.mode)
                    - _edge_sum(umv.values, umv.values, box.mode))
    assert _edge_sum(u.values, v.values, box.mode) == pytest.approx(polar, rel=1e-12)


def test_lp_norms(rng):
    box = LatticeBox(2)
    u = Field(box, rng.standard_normal((5, 5, 5)))
    flat = u.values.ravel()
    assert _lp_norm_values(u.values, 2.0) == pytest.approx(np.linalg.norm(flat), rel=1e-14)
    assert _lp_norm_values(u.values, 1.0) == pytest.approx(np.abs(flat).sum(), rel=1e-14)
    assert _lp_norm_values(u.values, np.inf) == pytest.approx(np.abs(flat).max())
    assert _lp_norm_values(u.values, 2.4) == pytest.approx(
        float(np.sum(np.abs(flat) ** 2.4) ** (1 / 2.4)), rel=1e-14
    )
    with pytest.raises(ValueError):
        _lp_norm_values(u.values, 0.5)


def test_h_inner_and_norm(rng):
    box = LatticeBox(3)
    u = Field(box, rng.standard_normal((7, 7, 7)))
    v = Field(box, rng.standard_normal((7, 7, 7)))
    # a 7-periodic potential tiles the side-7 box with its table, once
    potential = kc.PotentialSpec.periodic(7, 1.0 + rng.random((7, 7, 7)))
    spec = kc.ProblemSpec(box, potential, kc.PowerNonlinearity(1.0, 3.0), alpha=1.0, a=2.0)
    table = spec.potential_table
    assert spec.h_inner(u, v) == pytest.approx(spec.h_inner(v, u), rel=1e-13)
    expected = (2.0 * _edge_sum(u.values, v.values, box.mode)
                + float(np.sum(table * u.values * v.values)))
    assert spec.h_inner(u, v) == pytest.approx(expected, rel=1e-13)
    assert spec.h_inner(u, u) > 0.0


def test_translate_periodic_exact(rng):
    box = LatticeBox(3, kc.PERIODIC)
    u = Field(box, rng.standard_normal((7, 7, 7)))
    t = kc.translate(u, (2, -1, 5))
    assert np.array_equal(t.values, np.roll(u.values, (2, -1, 5), axis=(0, 1, 2)))
    back = kc.translate(t, (-2, 1, -5))
    assert np.array_equal(back.values, u.values)
    assert _edge_sum(t.values, t.values, box.mode) == pytest.approx(
        _edge_sum(u.values, u.values, box.mode), rel=1e-13)


def test_translate_dirichlet_drops_and_fills(rng):
    box = LatticeBox(2)
    u = Field(box, rng.standard_normal((5, 5, 5)))
    t = kc.translate(u, (1, 0, 0))
    assert np.all(t.values[0] == 0.0)
    assert np.array_equal(t.values[1:], u.values[:-1])
    assert np.array_equal(kc.translate(u, (0, 0, 0)).values, u.values)


def _translated_by_loops(u, shift):
    """out(x) = u(x - shift) on a Dirichlet box, site by site, zero where x - shift leaves it."""
    n, out = u.box.radius, np.zeros_like(u.values)
    for i, j, k in np.ndindex(*out.shape):
        source = (i - n - shift[0], j - n - shift[1], k - n - shift[2])
        if u.box.contains(source):
            out[i, j, k] = u.values[source[0] + n, source[1] + n, source[2] + n]
    return out


@pytest.mark.parametrize("shift", [(-1, 0, 0), (0, -2, 1), (-3, 2, -1), (-5, -5, -5),
                                   (-7, 0, 9)])
def test_translate_dirichlet_by_negative_shifts_matches_a_loop_referee(rng, shift):
    u = Field(LatticeBox(2), rng.standard_normal((5, 5, 5)))
    assert np.array_equal(kc.translate(u, shift).values, _translated_by_loops(u, shift))


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
        # byte for byte the header and one %.16e line per site
        lines = [header] + [f"{value:.16e}" for value in u.flat]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _save_field_text_one_join(u, path):
    """The writer before streaming: the whole file as one joined string."""
    header = f"# lattice-field v1 radius={u.box.radius} mode={u.box.mode}\n"
    with open(path, "w") as fh:
        fh.write(header + "".join(f"{value:.16e}\n" for value in u.flat.tolist()))


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_streamed_field_file_matches_the_one_join_writer(tmp_path, rng, monkeypatch, chunk):
    # radius 5 and up cross the default chunk of lines; chunks of 1 and 7
    # put boundaries everywhere, and 7 leaves a partial last chunk
    if chunk is not None:
        monkeypatch.setattr(lattice_module, "_FIELD_CHUNK_LINES", chunk)
    for radius in (0, 1, 5, 8, 10):
        for mode in (kc.DIRICHLET, kc.PERIODIC):
            if mode == kc.PERIODIC and radius == 0:
                continue
            box = LatticeBox(radius, mode)
            values = rng.standard_normal(box.site_count) * 10.0 ** rng.integers(-300, 300,
                                                                                box.site_count)
            values[::5] = 0.0
            values[2::5] = -0.0
            values[-1] = -0.0
            u = Field.from_flat(box, values)
            streamed, joined = tmp_path / "streamed.field", tmp_path / "joined.field"
            kc.save_field_text(u, streamed)
            _save_field_text_one_join(u, joined)
            assert streamed.read_bytes() == joined.read_bytes(), (radius, mode)
            assert b"-0.0000000000000000e+00\n" in streamed.read_bytes()


def test_text_io_rejects_garbage(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("# wrong header\n1.0\n")
    with pytest.raises(ValueError):
        kc.load_field_text(path)


def test_text_io_rejects_a_short_file(tmp_path):
    path = tmp_path / "short.field"
    path.write_text("# lattice-field v1 radius=1 mode=dirichlet\n" + "1.0\n" * 26)
    with pytest.raises(ValueError, match="expected 27 values for radius 1, got 26$"):
        kc.load_field_text(path)

