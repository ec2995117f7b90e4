"""Quadrature constants, kernel tables, convolution, and caching."""

import dataclasses
import hashlib
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.special import ive

import kclattice as kc
from kclattice import Field, LatticeBox
from kclattice import kernel as kernel_module
from kclattice.kernel import _IVE_ASYMPTOTIC_SWITCH, _ive_safe
from referees import direct_convolve, symbol_grid, torus_green_values

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
    m = symbol_grid(4)
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


def test_fractional_degree_and_build_kernel_refuse_bad_sizes():
    with pytest.raises(ValueError, match="^resolution must be >= 16, got 8$"):
        kc.fractional_degree(1.0, 8)
    with pytest.raises(ValueError, match="^table_radius must be nonnegative$"):
        kc.build_kernel(1.0, -1)


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
        heat = kc.green_values(alpha, zs)
        torus = torus_green_values(alpha, zs)
        assert np.max(np.abs(torus / heat - 1.0)) < 1e-6


@pytest.mark.parametrize("route, alpha, options", [
    pytest.param(torus_green_values, 1.0, {"tolerance": 1e-14}, id="torus-tight-tolerance"),
    # near alpha = 3 the heat-kernel tail cutoff overflows a double
    pytest.param(kc.green_values, 2.95, {}, id="heat-kernel-alpha-2.95"),
    # near alpha = 0 the head cutoff underflows a double
    pytest.param(kc.green_values, 0.05, {}, id="heat-kernel-alpha-0.05"),
    # the tail cutoff still fits, but t^(alpha/2) at it does not
    pytest.param(kc.green_values, 2.89, {}, id="heat-kernel-alpha-2.89"),
    # Gamma(alpha/2) overflows, so the prefactor is 0
    pytest.param(kc.green_values, 5e-324, {}, id="heat-kernel-alpha-5e-324"),
])
def test_torus_route_reports_unreachable_tolerance(route, alpha, options):
    with pytest.raises(kc.QuadratureError):
        route(alpha, [(0, 0, 0)], **options)


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


@pytest.mark.parametrize("table, window", [
    ("kernel_m16", (None, None)), ("kernel_m16", (1, 16)), ("kernel_m16", (3, 9)),
    ("kernel_m20", (None, None)), ("kernel_m20", (10, 20)), ("kernel_m20", (1, 2)),
])
def test_decay_exponent_matches_the_polyfit_referee(request, table, window):
    # the closed-form least-squares slope, against LAPACK's lstsq through polyfit
    kernel = request.getfixturevalue(table)
    m = kernel.table_radius
    lo, hi = window
    js = np.arange(max(2, m // 2) if lo is None else lo, (m if hi is None else hi) + 1)
    want = np.polyfit(np.log(js), np.log(kernel.table[m + js, m, m]), 1)[0]
    assert kc.fit_decay_exponent(kernel, lo, hi) == pytest.approx(want, rel=1e-12, abs=0.0)


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
        text = f"{version}|alpha={1.0!r}|radius=8|method=heat_kernel|res=s16|tol=None"
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


def test_a_header_claiming_a_huge_radius_is_refused_before_allocating(tmp_path):
    # sealed and otherwise well formed: only the size check sees it, and it
    # must see it before a (2 * 10^6 + 1)^3 table is allocated
    header = struct.pack(kernel_module._KERNEL_HEADER, 1.0, 10 ** 6, K1_REFINED)
    path = tmp_path / "huge.lck"
    path.write_bytes(_sealed(kernel_module._KERNEL_MAGIC + header + bytes(8 * 27)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="does not match radius 1000000"):
            kc.GreenKernel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_table_beyond_the_machine_is_refused_before_anything_is_allocated(tmp_path):
    # the quadrature's index list alone would hold about m^3 / 6 tuples
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^a radius-1000000 kernel table takes .* MiB, more "
                           "than the machine's .* MiB of memory$"):
            kc.build_kernel(1.0, 10 ** 6, cache_dir=tmp_path / "cache")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert not (tmp_path / "cache").exists()


def test_loaded_table_is_a_writeable_float64_copy_of_the_saved_one(tmp_path, kernel_m20):
    path = tmp_path / "k.lck"
    kernel_m20.save(path)
    tracemalloc.start()
    try:
        again = kc.GreenKernel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = again.table
    assert table.dtype == np.float64 and table.shape == kernel_m20.table.shape
    assert table.flags.writeable and table.flags.c_contiguous and table.flags.owndata
    assert table.tobytes() == kernel_m20.table.tobytes()
    # the table is read straight into its own array: no copy of the file
    # (a whole-file read, its payload slice and a converted copy took 3x)
    assert peak < table.nbytes + 100_000


def test_builtin_sha256_matches_hashlib(rng):
    # lengths around the 64-byte block and the 56-byte padding limit
    for size in (0, 1, 55, 56, 63, 64, 65, 1000, 287_000):
        payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        assert kernel_module.sha256(payload).digest() == hashlib.sha256(payload).digest(), size


def test_cache_key_values_are_unchanged():
    # cache file names written before the digest left hashlib
    assert kc.cache_key(1.0, 8) == "6cb292773d710370"
    assert kc.cache_key(1.0, 16) == "96e15762dea2f751"
    assert kc.cache_key(0.5, 3) == "eba2cf1dd7151b71"
    assert kc.cache_key(2.9, 20) == "f69aedb67b017ede"


def test_cache_file_sealed_by_hashlib_is_a_hit(tmp_path):
    # a file sealed by hashlib, as every cache file was before, loads and
    # matches the writer byte for byte
    built = kc.build_kernel(1.0, 3, cache_dir=tmp_path / "built")
    path = tmp_path / "sealed" / Path(built.meta["cache_path"]).name
    path.parent.mkdir()
    header = struct.pack(kernel_module._KERNEL_HEADER, built.alpha, built.table_radius,
                         built.k_alpha)
    path.write_bytes(_sealed(kernel_module._KERNEL_MAGIC + header
                             + built.table.astype("<f8").tobytes()))
    loaded = kc.build_kernel(1.0, 3, cache_dir=tmp_path / "sealed")
    assert loaded.meta["cached"]
    assert np.array_equal(loaded.table, built.table)
    assert path.read_bytes() == Path(built.meta["cache_path"]).read_bytes()


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
        fft = kc.convolve(kernel_m8, w)
        direct = direct_convolve(kernel_m8, w)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(fft - direct.values)) < 1e-12 * scale


@pytest.mark.parametrize("mode, radius", [(kc.DIRICHLET, 10), (kc.PERIODIC, 7)])
def test_convolve_fft_matches_direct_on_larger_boxes(kernel_m20, rng, mode, radius):
    box = LatticeBox(radius, mode)
    w = Field(box, rng.standard_normal((box.side,) * 3))
    fft = kc.convolve(kernel_m20, w)
    direct = direct_convolve(kernel_m20, w).values
    assert np.max(np.abs(fft - direct)) < 1e-12 * np.max(np.abs(direct))
    # a held result must not pin the larger transform grid
    assert fft.flags.c_contiguous
    assert fft.base is None or fft.base.nbytes == fft.nbytes


def _allocating_apply(plan, values):
    """The convolution with a fresh array per intermediate: the referee of the workspace."""
    size, side = plan.shape[0], plan.side
    spec = np.fft.rfft(values, n=size, axis=2)
    spec = np.fft.fft(spec, n=size, axis=1)
    spec = np.fft.fft(spec, n=size, axis=0)
    spec *= plan.spectrum
    spec = np.fft.ifft(spec, axis=0)[:side]
    spec = np.fft.ifft(spec, axis=1)[:, :side]
    return np.ascontiguousarray(np.fft.irfft(spec, n=size, axis=2)[:, :, :side])


def test_convolution_workspace_is_bit_identical_and_never_aliased(kernel_m20, rng):
    # ascending, then descending, then mixed: the workspace grows, then is reused
    # through a prefix; periodic boxes crop the whole grid
    boxes = [LatticeBox(r) for r in range(11)] + [LatticeBox(r, kc.PERIODIC) for r in (1, 3, 7)]
    order = boxes + boxes[::-1] + [
        LatticeBox(3), LatticeBox(7, kc.PERIODIC), LatticeBox(10), LatticeBox(0),
        LatticeBox(1, kc.PERIODIC), LatticeBox(6)]
    results = []
    for box in order:
        values = rng.standard_normal((box.side,) * 3)
        plan = kernel_module._plan_for(kernel_m20, box)
        out = plan.apply(values)
        want = _allocating_apply(plan, values)
        assert out.tobytes() == want.tobytes(), box
        assert out.flags.c_contiguous and out.base is None
        results.append((out, want.tobytes()))
    for out, want in results:  # no later call wrote into an earlier result
        assert out.tobytes() == want


def test_convolution_workspace_is_per_thread(kernel_m20, rng):
    # numpy.fft releases the GIL, so a workspace shared between threads
    # would let one thread's transform overwrite another's
    fields = [Field(box, rng.standard_normal((box.side,) * 3))
              for box in (LatticeBox(8), LatticeBox(10))]
    serial = [kc.convolve(kernel_m20, w).tobytes() for w in fields]
    mismatches = []

    def work(w, want):
        for _ in range(60):
            if kc.convolve(kernel_m20, w).tobytes() != want:
                mismatches.append(w.box.radius)

    threads = [threading.Thread(target=work, args=pair) for pair in zip(fields, serial)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert mismatches == []


def test_convolution_workspace_is_per_thread_across_evicted_plans(kernel_m20, rng):
    # each thread alternates between its own two boxes, so nearly every call
    # finds the kernel's one plan on another box and rebuilds it
    kernel = dataclasses.replace(kernel_m20)  # a new kernel, which holds no plan yet
    pairs = [(LatticeBox(3), LatticeBox(7, kc.PERIODIC)), (LatticeBox(5), LatticeBox(9))]
    fields = [[Field(box, rng.standard_normal((box.side,) * 3)) for box in pair]
              for pair in pairs]
    serial = [[kc.convolve(kernel, w).tobytes() for w in pair] for pair in fields]
    mismatches = []

    def work(pair, wants):
        for _ in range(20):
            for w, want in zip(pair, wants):
                if kc.convolve(kernel, w).tobytes() != want:
                    mismatches.append(w.box)

    threads = [threading.Thread(target=work, args=args) for args in zip(fields, serial)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert mismatches == []
    assert kernel._plan[0] in {box for pair in pairs for box in pair}


def test_a_kernel_keeps_one_plan_and_rebuilds_it_bit_for_bit(kernel_m20, rng):
    kernel = dataclasses.replace(kernel_m20)  # a new kernel, which holds no plan yet
    first, second = LatticeBox(6), LatticeBox(10)
    held = []
    for box in (first, second, first, LatticeBox(7, kc.PERIODIC), first):
        w = Field(box, rng.standard_normal((box.side,) * 3))
        out = kc.convolve(kernel, w)
        fresh = kernel_module._ConvolutionPlan(kernel, box).apply(w.values)
        assert out.tobytes() == fresh.tobytes(), box
        held_box, plan = kernel._plan
        assert held_box == box
        assert all(plan is not old for old in held)  # rebuilt, never kept
        held.append(plan)


def test_replaced_and_loaded_kernels_hold_no_plan(kernel_m8, tmp_path, rng):
    kernel = dataclasses.replace(kernel_m8)
    kc.convolve(kernel, Field(LatticeBox(4), rng.standard_normal((9, 9, 9))))
    assert kernel._plan[0] == LatticeBox(4) and "_plan" not in repr(kernel)
    assert dataclasses.replace(kernel)._plan is None
    kernel.save(tmp_path / "kernel.lck")
    assert kc.GreenKernel.load(tmp_path / "kernel.lck")._plan is None


def _wrapped_grid(kernel, box):
    """The box's kernel block wrapped onto its circular grid, built as the plan once built it."""
    block = kernel_module.kernel_block(kernel, box)
    reach = kernel_module.block_radius(box)
    size = box.side if box.mode == kc.PERIODIC else next_fast_len(max(1, 4 * box.radius),
                                                                   real=True)
    wrap = np.arange(-reach, reach + 1) % size
    grid = np.zeros((size,) * 3)
    grid[np.ix_(wrap, wrap, wrap)] = block
    return grid


@pytest.mark.parametrize("box", [LatticeBox(r) for r in range(1, 11)]
                         + [LatticeBox(r, kc.PERIODIC) for r in (3, 7)], ids=str)
def test_plan_spectrum_built_in_place_is_the_plain_transform(kernel_m20, box):
    spectrum = kernel_module._ConvolutionPlan(kernel_m20, box).spectrum
    want = np.fft.rfftn(_wrapped_grid(kernel_m20, box))
    assert spectrum.dtype == want.dtype and spectrum.shape == want.shape
    assert spectrum.tobytes() == want.tobytes()


def test_warm_convolution_allocates_little(kernel_m16, rng):
    w = Field(LatticeBox(8), rng.standard_normal((17, 17, 17)))
    kc.convolve(kernel_m16, w)  # builds the plan and grows the workspace
    tracemalloc.start()
    try:
        kc.convolve(kernel_m16, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # fresh intermediates peaked at 771 KB; the result alone is 39 KB
    assert peak < 200_000


def test_fast_len_matches_scipy():
    assert [kernel_module._fast_len(n) for n in range(1, 2049)] == [
        next_fast_len(n, real=True) for n in range(1, 2049)]


@pytest.mark.parametrize("mode", [kc.DIRICHLET, kc.PERIODIC])
def test_convolution_depends_only_on_the_box(kernel_m8, kernel_m16, rng, mode):
    box = LatticeBox(4, mode)
    w = Field(box, rng.standard_normal((9, 9, 9)))
    small = kc.convolve(kernel_m8, w)
    large = kc.convolve(kernel_m16, w)
    assert np.array_equal(small, large)
    size = box.side if mode == kc.PERIODIC else next_fast_len(max(1, 4 * box.radius), real=True)
    for kernel in (kernel_m8, kernel_m16):
        assert kernel_module._plan_for(kernel, box).shape == (size,) * 3


@pytest.mark.parametrize("radius", range(11))
def test_dirichlet_convolution_on_the_minimal_even_grid(kernel_m20, rng, radius):
    # a 4n grid puts the block's +-2n planes on one plane, where the even block
    # holds R(2n) either way; radius 7 takes 30 points, since 28 is not 5-smooth
    box = LatticeBox(radius)
    w = Field(box, rng.standard_normal((box.side,) * 3))
    fft = kc.convolve(kernel_m20, w)
    direct = direct_convolve(kernel_m20, w).values
    assert np.max(np.abs(fft - direct)) < 1e-12 * np.max(np.abs(direct))


def test_dirichlet_grid_sizes(kernel_m20):
    want = {0: 1, 4: 16, 6: 24, 7: 30, 8: 32, 10: 40}
    for radius, size in want.items():
        assert kernel_module._plan_for(kernel_m20, LatticeBox(radius)).shape == (size,) * 3


@pytest.mark.parametrize("axis", range(3))
def test_convolve_refuses_a_block_that_is_not_even(kernel_m16, rng, axis):
    table = kernel_m16.table.copy()
    np.moveaxis(table, axis, 0)[:16] *= 1.0 + 1e-6  # tilt one half-space
    tilted = kc.GreenKernel(kernel_m16.alpha, kernel_m16.k_alpha, kernel_m16.table_radius,
                            table, dict(kernel_m16.meta))
    boxes = [LatticeBox(r) for r in (1, 4, 7, 8)] + [LatticeBox(r, kc.PERIODIC) for r in (1, 4, 8)]
    for box in boxes:
        w = Field(box, rng.standard_normal((box.side,) * 3))
        with pytest.raises(ValueError, match="not even"):
            kc.convolve(tilted, w)
    assert tilted._plan is None  # no refused plan is kept


def test_convolution_past_the_double_range_is_a_runtime_error(kernel_m8):
    # every value is finite, but their convolution is not
    w = Field(LatticeBox(4), np.full((9, 9, 9), 1e307))
    with pytest.raises(RuntimeError, match="convolution overflows the double range"):
        kc.convolve(kernel_m8, w)


def test_convolve_delta_reproduces_table(kernel_m8):
    box = LatticeBox(4)
    d = Field.delta(box, (0, 0, 0), 1.0)
    out = kc.convolve(kernel_m8, d)
    assert out[4, 4, 4] == pytest.approx(R1_ORIGIN, rel=1e-12)
    assert out[5, 4, 4] == pytest.approx(R1_AXIS, rel=1e-12)
    assert out[8, 4, 4] == pytest.approx(kernel_m8.value((4, 0, 0)), rel=1e-12)


def test_convolve_is_linear_and_symmetric(kernel_m8, rng):
    box = LatticeBox(3)
    u = Field(box, rng.standard_normal((7, 7, 7)))
    v = Field(box, rng.standard_normal((7, 7, 7)))
    combo = kc.convolve(kernel_m8, Field(box, 2.0 * u.values - 3.0 * v.values))
    parts = 2.0 * kc.convolve(kernel_m8, u) - 3.0 * kc.convolve(kernel_m8, v)
    assert np.allclose(combo, parts, rtol=1e-12, atol=1e-12)
    # self-adjointness of the convolution operator
    lhs = float(np.sum(v.values * kc.convolve(kernel_m8, u)))
    rhs = float(np.sum(u.values * kc.convolve(kernel_m8, v)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_convolve_coverage_requirements(kernel_m8):
    # dirichlet needs displacements up to 2n, periodic only up to n
    with pytest.raises(ValueError):
        kc.convolve(kernel_m8, Field.zeros(LatticeBox(5)))
    kc.convolve(kernel_m8, Field.zeros(LatticeBox(5, kc.PERIODIC)))
    kc.convolve(kernel_m8, Field.zeros(LatticeBox(4)))


def test_mismatched_alpha_is_rejected(kernel_m8, reference_spec):
    wrong = kc.build_kernel(1.5, 2 * reference_spec.box.radius)
    u = kc.Field.delta(reference_spec.box, (0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        kc.evaluate(reference_spec, wrong, u).ray_energy()
