"""Quadrature constants, kernel tables, convolution, and caching."""

import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.special import ive

import kclattice as kc
from kclattice import Field, LatticeBox
from kclattice import kernel as kernel_module
from kclattice.kernel import _IVE_ASYMPTOTIC_SWITCH, _ive_safe

# trapezoid ladder for the normalizing constant at alpha = 1; the refined
# value is the Richardson limit of the (96, 192) pair and is what every
# kernel table is built with
K1_TRAP_64 = 2.387602142987562
K1_TRAP_128 = 2.387602236618988
K1_REFINED = 2.3876022428596

# heat-kernel table entries at alpha = 1 (refined normalization)
R1_ORIGIN = 1.08718047897907
R1_AXIS = 0.137073067294331
R1_DIAGONAL = 5.59761722957831e-02


def test_laplace_symbol_values():
    # the symbol 6 - 2 sum cos k_j on the 4-point grid k_j in {0, pi/2, pi, 3pi/2}
    m = kernel_module._symbol_grid(4)
    assert m[0, 0, 0] == 0.0
    assert m[2, 2, 2] == pytest.approx(12.0, rel=1e-15)
    assert m[1, 0, 0] == pytest.approx(2.0, rel=1e-14)


def test_fractional_degree_trapezoid_ladder():
    assert kc.fractional_degree(1.0, 64) == pytest.approx(K1_TRAP_64, rel=1e-14)
    assert kc.fractional_degree(1.0, 128) == pytest.approx(K1_TRAP_128, rel=1e-14)
    assert kc.fractional_degree_refined(1.0) == pytest.approx(K1_REFINED, rel=1e-12)


def test_fractional_degree_exact_points():
    # alpha = 2 makes the integrand a trig polynomial, so the product
    # trapezoid rule is exact: the mean of 6 - 2 sum cos is 6
    assert kc.fractional_degree(2.0, 64) == pytest.approx(6.0, abs=1e-13)
    assert kc.fractional_degree_refined(2.0) == pytest.approx(6.0, abs=1e-13)
    # raw rule at small alpha is short by exactly the origin grid point
    # (the symbol power vanishes there), which the refined pair cancels,
    # leaving the genuine O(alpha) deviation of the constant from 1
    assert kc.fractional_degree(1.0e-12, 64) - 1.0 == pytest.approx(-(1.0 / 64**3), rel=1e-6)
    assert abs(kc.fractional_degree_refined(1.0e-12) - 1.0) < 1e-11


def _full_grid_degree(alpha, resolution):
    """The trapezoid mean of m^(alpha/2) over the whole N^3 grid."""
    c = np.cos(2.0 * np.pi * np.arange(resolution) / resolution)
    mu = 6.0 - 2.0 * (c[:, None, None] + c[None, :, None] + c[None, None, :])
    mu[0, 0, 0] = 0.0
    return float(np.mean(mu ** (alpha / 2.0)))


@pytest.mark.parametrize("resolution", [16, 17, 31, 64])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5])
def test_fractional_degree_reflection_sum_matches_the_full_grid(alpha, resolution):
    value = kc.fractional_degree(alpha, resolution)
    assert type(value) is float
    assert value == pytest.approx(_full_grid_degree(alpha, resolution), rel=1e-14, abs=0.0)


def test_fractional_degree_rejects_bad_alpha():
    for alpha in (0.0, -1.0, 3.0, 3.5):
        with pytest.raises(ValueError):
            kc.fractional_degree(alpha)


def test_heat_kernel_frozen_values():
    zs = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    vals = kc.green_values(1.0, zs)
    assert vals[0] == pytest.approx(R1_ORIGIN, rel=1e-12)
    assert vals[1] == pytest.approx(R1_AXIS, rel=1e-12)
    assert vals[2] == pytest.approx(R1_DIAGONAL, rel=1e-12)
    assert kc.green_values(1.0, [(0, 1, 1)])[0] == pytest.approx(R1_DIAGONAL, rel=1e-12)


def test_heat_kernel_monotone_along_axis():
    zs = [(j, 0, 0) for j in range(6)]
    vals = kc.green_values(1.5, zs)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_torus_route_agrees_with_heat_kernel():
    zs = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 2)]
    for alpha in (0.5, 1.0, 2.5):
        heat = kc.green_values(alpha, zs, method=kc.HEAT_KERNEL)
        torus = kc.green_values(alpha, zs, method=kc.TORUS_QUADRATURE)
        assert np.max(np.abs(torus / heat - 1.0)) < 1e-6


@pytest.mark.parametrize("method, alpha, tolerance", [
    pytest.param(kc.TORUS_QUADRATURE, 1.0, 1e-14, id="torus-tight-tolerance"),
    # near alpha = 3 the heat-kernel tail cutoff overflows a double
    pytest.param(kc.HEAT_KERNEL, 2.95, None, id="heat-kernel-alpha-2.95"),
    # near alpha = 0 the head cutoff underflows a double
    pytest.param(kc.HEAT_KERNEL, 0.05, None, id="heat-kernel-alpha-0.05"),
])
def test_torus_route_reports_unreachable_tolerance(method, alpha, tolerance):
    with pytest.raises(kc.QuadratureError):
        kc.green_values(alpha, [(0, 0, 0)], method=method, tolerance=tolerance)


def test_heat_kernel_cutoff_overflow_with_a_numpy_scalar_normalization():
    # a numpy-scalar power overflows to inf instead of raising OverflowError
    k_alpha = np.float64(kc.fractional_degree_refined(2.95))
    with pytest.raises(kc.QuadratureError, match="tail cutoff overflows"):
        kc.green_values(2.95, [(0, 0, 0)], k_alpha=k_alpha)


def test_ive_safe_matches_scipy_below_and_above_switch():
    orders = np.array([0, 3, 17])
    below = np.full(3, 0.9 * _IVE_ASYMPTOTIC_SWITCH)
    above = np.full(3, 4.0 * _IVE_ASYMPTOTIC_SWITCH)
    assert np.allclose(_ive_safe(orders, below), ive(orders, below), rtol=1e-14)
    assert np.allclose(_ive_safe(orders, above), ive(orders, above), rtol=1e-12)
    # scipy's ive goes NaN far out; the series branch must not
    far = _ive_safe(np.array([0, 5]), np.full(2, 1.0e12))
    assert np.all(np.isfinite(far)) and np.all(far > 0.0)


def test_build_kernel_positive_and_symmetric(kernel_m8):
    table = kernel_m8.table
    assert np.all(table > 0.0)
    assert kernel_m8.alpha == 1.0
    assert kernel_m8.k_alpha == pytest.approx(K1_REFINED, rel=1e-12)
    # octahedral symmetry is exact by construction
    for axes in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
        assert np.array_equal(table, np.transpose(table, axes))
    for ax in range(3):
        assert np.array_equal(table, np.flip(table, axis=ax))
    assert kernel_m8.value((0, 0, 0)) == pytest.approx(R1_ORIGIN, rel=1e-12)
    assert kernel_m8.value((-1, 0, 0)) == kernel_m8.value((0, 0, 1))


def test_kernel_value_rejects_out_of_table(kernel_m8):
    with pytest.raises(ValueError):
        kernel_m8.value((9, 0, 0))


def test_octant_triples_orbit_count():
    kern = kc.build_kernel(1.0, 2)
    triples = kern.octant_triples()
    assert triples.shape == (10, 3)
    assert np.all(triples[:, 0] <= triples[:, 1])
    assert np.all(triples[:, 1] <= triples[:, 2])
    # orbits of the 48-element cubic group tile the full cube
    counted = set()
    for t in map(tuple, triples):
        for perm in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            for sx in (1, -1):
                for sy in (1, -1):
                    for sz in (1, -1):
                        counted.add((sx * t[perm[0]], sy * t[perm[1]], sz * t[perm[2]]))
    assert len(counted) == 5**3


def test_decay_exponent_near_alpha_minus_three(kernel_m16):
    slope = kc.fit_decay_exponent(kernel_m16)
    assert slope == pytest.approx(-2.0, abs=0.15)
    with pytest.raises(ValueError):
        kc.fit_decay_exponent(kernel_m16, lo=10, hi=40)


def test_kernel_save_load_round_trip(tmp_path, kernel_m8):
    path = tmp_path / "k.tab"
    kernel_m8.save(path)
    again = kc.GreenKernel.load(path)
    assert again.alpha == kernel_m8.alpha
    assert again.k_alpha == kernel_m8.k_alpha
    assert again.table_radius == kernel_m8.table_radius
    assert np.array_equal(again.table, kernel_m8.table)


def test_kernel_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tab"
    path.write_bytes(b"XXXXXXXX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        kc.GreenKernel.load(path)


def test_kernel_cache_round_trip(tmp_path):
    import os

    first = kc.build_kernel(1.0, 3, cache_dir=tmp_path)
    assert not first.meta["cached"]
    assert os.path.exists(first.meta["cache_path"])
    second = kc.build_kernel(1.0, 3, cache_dir=tmp_path)
    assert second.meta["cached"]
    assert np.array_equal(second.table, first.table)
    # a different alpha must miss the cache
    other = kc.build_kernel(1.5, 3, cache_dir=tmp_path)
    assert not other.meta["cached"]
    assert other.meta["cache_path"] != first.meta["cache_path"]


def test_cache_key_distinguishes_parameters():
    base = kc.cache_key(1.0, 8)
    assert base != kc.cache_key(1.5, 8)
    assert base != kc.cache_key(1.0, 9)
    assert base == kc.cache_key(1.0, 8)


def test_cache_key_moved_past_the_full_grid_normalization():
    # tables cached before K_alpha became a reflection-reduced sum (v2) may
    # differ from a fresh build in the last bit, and v3 tables were cached in
    # the LCKERN02 layout with its method tag, so neither key may come back
    for version in ("v2", "v3"):
        text = f"{version}|alpha={1.0!r}|radius=8|method={kc.HEAT_KERNEL}|res=s16|tol=None"
        old = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert kc.cache_key(1.0, 8) != old, version


# cache file layout: magic, header (alpha, radius, K_alpha), the table, then
# a sha256 digest of all before it
_MAGIC_END = len(kernel_module._KERNEL_MAGIC)
_HEADER_END = _MAGIC_END + struct.calcsize(kernel_module._KERNEL_HEADER)
_K_ALPHA_AT = _HEADER_END - 8
_DIGEST = hashlib.sha256().digest_size


def _origin_offset(raw):
    # the origin entry is fixed by every symmetry, so only the value check
    # and the digest see it
    entries = (len(raw) - _HEADER_END - _DIGEST) // 8
    return _HEADER_END + 8 * (entries // 2)


def _sealed(payload):
    return payload + hashlib.sha256(payload).digest()


def _resealed(raw, offset, value):
    """raw with one table entry replaced and a valid digest: only the value checks see it."""
    return _sealed(raw[:offset] + np.float64(value).astype("<f8").tobytes()
                   + raw[offset + 8:-_DIGEST])


def _xor_byte(raw, offset):
    flipped = bytearray(raw)
    flipped[offset] ^= 0x01
    return bytes(flipped)


def test_corrupt_cache_file_is_rebuilt(tmp_path):
    first = kc.build_kernel(1.0, 3, cache_dir=tmp_path)
    path = Path(first.meta["cache_path"])
    good = path.read_bytes()
    origin = _origin_offset(good)
    other = kc.build_kernel(1.0, 2, cache_dir=tmp_path / "other").meta["cache_path"]
    corruptions = {
        "negative": _resealed(good, origin, -1.0),
        "zero": _resealed(good, origin, 0.0),
        "nan": _resealed(good, origin, np.nan),
        "inf": _resealed(good, origin, np.inf),
        "asymmetric": _resealed(good, _HEADER_END, 0.5),
        "truncated table": good[:-8],
        "truncated header": good[:20],
        "other radius": Path(other).read_bytes(),
        # still finite, positive and symmetric: only the digest catches it
        "origin low byte": _xor_byte(good, origin),
        # an earlier format: magic LCKERN01, no digest
        "old format": b"LCKERN01" + good[_MAGIC_END:-_DIGEST],
        # the previous format, sealed and otherwise sound: a u32 method tag
        # (0, heat kernel) between the radius and K_alpha
        "LCKERN02": _sealed(b"LCKERN02" + good[_MAGIC_END:_K_ALPHA_AT] + struct.pack("<I", 0)
                            + good[_K_ALPHA_AT:-_DIGEST]),
    }
    for byte in range(8):
        corruptions[f"K_alpha byte {byte}"] = _xor_byte(good, _K_ALPHA_AT + byte)
    for name, bad in corruptions.items():
        path.write_bytes(bad)
        again = kc.build_kernel(1.0, 3, cache_dir=tmp_path)
        assert not again.meta["cached"], name
        assert np.array_equal(again.table, first.table), name
        assert again.k_alpha == first.k_alpha, name
        assert path.read_bytes() == good, name
    assert kc.build_kernel(1.0, 3, cache_dir=tmp_path).meta["cached"]


def test_loader_and_kernel_integrity_share_one_invariance_test(tmp_path, monkeypatch):
    import kclattice.verify as verify_module

    assert verify_module._table_defect is kernel_module._table_defect
    calls = []
    real = kernel_module._table_defect

    def counted(table, tolerance=0.0):
        calls.append(tolerance)
        return real(table, tolerance)

    kc.build_kernel(1.0, 3, cache_dir=tmp_path)
    monkeypatch.setattr(kernel_module, "_table_defect", counted)
    assert kc.build_kernel(1.0, 3, cache_dir=tmp_path).meta["cached"]
    assert calls == [0.0]  # the loader asks for exact invariance


def test_invariance_test_is_exact_at_zero_tolerance(kernel_m8):
    table = kernel_m8.table.copy()
    assert kernel_module._table_defect(table) == (0.0, None)
    table[9, 8, 8] = np.nextafter(table[9, 8, 8], np.inf)  # one ulp off at z = (1, 0, 0)
    worst, bad = kernel_module._table_defect(table)
    assert 0.0 < worst < 1e-15 and bad == (1, 0, 0)
    assert kernel_module._table_defect(table, 1e-12) == (worst, None)
    table[8, 8, 8] = np.nan
    assert kernel_module._table_defect(table, 1e-12) == (np.inf, (0, 0, 0))


def test_kernel_save_is_atomic(tmp_path, kernel_m8, monkeypatch):
    path = tmp_path / "k.tab"
    path.write_bytes(b"old")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(kernel_module.os, "replace", fail)
    with pytest.raises(OSError):
        kernel_m8.save(path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["k.tab"]


def test_convolve_fft_matches_direct(kernel_m8, rng):
    for mode in (kc.DIRICHLET, kc.PERIODIC):
        box = LatticeBox(4, mode)
        w = Field(box, rng.standard_normal((9, 9, 9)))
        fft = kc.convolve(kernel_m8, w, method="fft")
        direct = kc.convolve(kernel_m8, w, method="direct")
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(fft.values - direct.values)) < 1e-12 * scale


@pytest.mark.parametrize("mode, radius", [(kc.DIRICHLET, 10), (kc.PERIODIC, 7)])
def test_convolve_fft_matches_direct_on_larger_boxes(kernel_m20, rng, mode, radius):
    box = LatticeBox(radius, mode)
    w = Field(box, rng.standard_normal((box.side,) * 3))
    fft = kc.convolve(kernel_m20, w).values
    direct = kc.convolve(kernel_m20, w, method="direct").values
    assert np.max(np.abs(fft - direct)) < 1e-12 * np.max(np.abs(direct))
    # a held result must not pin the larger transform grid
    assert fft.flags.c_contiguous
    assert fft.base is None or fft.base.nbytes == fft.nbytes


def test_fast_len_matches_scipy():
    assert [kernel_module._fast_len(n) for n in range(1, 2049)] == [
        next_fast_len(n, real=True) for n in range(1, 2049)]


@pytest.mark.parametrize("mode", [kc.DIRICHLET, kc.PERIODIC])
def test_convolution_depends_only_on_the_box(kernel_m8, kernel_m16, rng, mode):
    box = LatticeBox(4, mode)
    w = Field(box, rng.standard_normal((9, 9, 9)))
    small = kc.convolve(kernel_m8, w).values
    large = kc.convolve(kernel_m16, w).values
    assert np.array_equal(small, large)
    size = box.side if mode == kc.PERIODIC else next_fast_len(4 * box.radius + 1, real=True)
    for kernel in (kernel_m8, kernel_m16):
        assert kernel_module._plan_for(kernel, box).shape == (size,) * 3


def test_convolve_delta_reproduces_table(kernel_m8):
    box = LatticeBox(4)
    d = Field.delta(box, (0, 0, 0), 1.0)
    out = kc.convolve(kernel_m8, d)
    assert out.values[4, 4, 4] == pytest.approx(R1_ORIGIN, rel=1e-12)
    assert out.values[5, 4, 4] == pytest.approx(R1_AXIS, rel=1e-12)
    assert out.values[8, 4, 4] == pytest.approx(kernel_m8.value((4, 0, 0)), rel=1e-12)


def test_convolve_is_linear_and_symmetric(kernel_m8, rng):
    box = LatticeBox(3)
    u = Field(box, rng.standard_normal((7, 7, 7)))
    v = Field(box, rng.standard_normal((7, 7, 7)))
    combo = kc.convolve(kernel_m8, Field(box, 2.0 * u.values - 3.0 * v.values))
    parts = 2.0 * kc.convolve(kernel_m8, u).values - 3.0 * kc.convolve(kernel_m8, v).values
    assert np.allclose(combo.values, parts, rtol=1e-12, atol=1e-12)
    # self-adjointness of the convolution operator
    lhs = float(np.sum(v.values * kc.convolve(kernel_m8, u).values))
    rhs = float(np.sum(u.values * kc.convolve(kernel_m8, v).values))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_convolve_coverage_requirements(kernel_m8):
    # dirichlet needs displacements up to 2n, periodic only up to n
    with pytest.raises(ValueError):
        kc.convolve(kernel_m8, Field.zeros(LatticeBox(5)))
    kc.convolve(kernel_m8, Field.zeros(LatticeBox(5, kc.PERIODIC)))
    kc.convolve(kernel_m8, Field.zeros(LatticeBox(4)))
    with pytest.raises(ValueError):
        kc.convolve(kernel_m8, Field.zeros(LatticeBox(3)), method="nope")


def test_mismatched_alpha_is_rejected(kernel_m8, reference_spec):
    wrong = kc.build_kernel(1.5, 2 * reference_spec.box.radius)
    u = kc.Field.delta(reference_spec.box, (0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        kc.energy(reference_spec, wrong, u)
