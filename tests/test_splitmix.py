"""The SplitMix64 stream behind every sampled field."""

import warnings

import numpy as np
import pytest

from kclattice import verify as verify_module
from kclattice.splitmix import SplitMix64, stream

SHAPE = (17, 17, 17)


@pytest.mark.parametrize("state, outputs", [
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
    (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423]),
])
def test_published_outputs(state, outputs):
    assert SplitMix64(state).bits(3).tolist() == outputs


def test_draws_split_across_calls_continue_the_stream():
    whole = SplitMix64(99).bits(7)
    parts = SplitMix64(99)
    assert np.array_equal(np.concatenate([parts.bits(3), parts.bits(0), parts.bits(4)]), whole)


@pytest.mark.parametrize("draw", ["random", "standard_normal"])
def test_same_seed_and_name_give_bit_identical_fields(draw):
    a = getattr(verify_module._check_rng(42, "fiber-monotonicity"), draw)(SHAPE)
    b = getattr(verify_module._check_rng(42, "fiber-monotonicity"), draw)(SHAPE)
    assert a.shape == SHAPE and np.array_equal(a, b)


@pytest.mark.parametrize("draw", ["random", "standard_normal"])
def test_different_names_and_seeds_give_different_fields(draw):
    fields = [getattr(verify_module._check_rng(seed, name), draw)(SHAPE)
              for seed, name in [(42, "mountain-pass-geometry"), (42, "fiber-monotonicity"),
                                 (42, "level-identity"), (43, "level-identity")]]
    for i in range(len(fields)):
        for j in range(i):
            assert not np.any(fields[i] == fields[j])


def test_every_limb_of_a_seed_keys_the_stream():
    draws = [stream(*words).bits(4).tolist()
             for words in [(), (0,), (5,), (5 + 2**64,), (5, 0), (0, 5)]]
    assert all(draws[i] != draws[j] for i in range(len(draws)) for j in range(i))
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        stream(3, -1)


def test_uniforms_lie_in_the_unit_interval():
    u = stream(7).random((10**5,))
    assert u.dtype == np.float64 and 0.0 <= u.min() and u.max() < 1.0
    assert SplitMix64(0).random(3).tolist() == [
        (z >> 11) * 2.0 ** -53 for z in [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                         0x06C45D188009454F]]


def test_normals_are_box_muller_pairs_of_consecutive_uniforms():
    u = SplitMix64(0).random(4)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    want = [r[0] * np.cos(theta[0]), r[1] * np.cos(theta[1]), r[0] * np.sin(theta[0])]
    assert SplitMix64(0).standard_normal(3).tolist() == want


def test_normals_stay_finite_on_a_zero_uniform(monkeypatch):
    rng = stream(7)
    monkeypatch.setattr(rng, "random", lambda shape: np.zeros(shape))
    z = rng.standard_normal((3, 5))
    assert z.shape == (3, 5) and np.array_equal(z, np.zeros((3, 5)))
    assert np.isfinite(stream(7).standard_normal((10**5,))).all()


@pytest.mark.parametrize("draw, mean, variance, fourth", [
    ("random", 0.5, 1.0 / 12.0, 1.0 / 80.0),
    ("standard_normal", 0.0, 1.0, 3.0),
])
def test_moments_of_1e5_draws_within_five_sigma(draw, mean, variance, fourth):
    n = 10**5
    x = getattr(stream(2024, 1), draw)((n,))
    assert abs(x.mean() - mean) <= 5.0 * (variance / n) ** 0.5
    # the sample variance's spread is sqrt((mu4 - sigma^4) / n)
    assert abs(x.var() - variance) <= 5.0 * ((fourth - variance**2) / n) ** 0.5


def test_wraparound_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stream(2**70 + 3, 2**32 - 1).standard_normal(SHAPE)
        SplitMix64(2**64 - 1).bits(1000)
