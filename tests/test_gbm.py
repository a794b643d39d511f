import math
import warnings

import numpy as np
import pytest

from carbonstop import ConfigError, GbmParams, NumericError, Seed, simulate_path
from carbonstop.gbm import _seed_state


def test_params_validation():
    with pytest.raises(ConfigError):
        GbmParams(0.0, 0.0, 0.1)
    with pytest.raises(ConfigError):
        GbmParams(1.0, 0.0, -0.1)
    for bad in ((math.inf, 0.0, 0.1), (1.0, math.nan, 0.1), (1.0, 0.0, math.inf)):
        with pytest.raises(ConfigError, match="finite"):
            GbmParams(*bad)
    with pytest.raises(ConfigError, match="square overflows"):
        GbmParams(1.0, 0.0, 1e200)
    GbmParams(1.0, -0.5, 0.0)  # zero vol is allowed


def test_seed_validation():
    # A float seed, even an integral one, is refused here rather than by
    # numpy inside the first solve; a numpy integer is the same seed as an int.
    for bad in (-1, 2**64, 2.0, 1.5, "3", None, True):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            Seed(bad)
    Seed(2**64 - 1)
    assert Seed(np.int64(3)) == Seed(3)
    assert type(Seed(np.uint64(2**64 - 1)).value) is int


@pytest.mark.parametrize(
    "index", [-1, 2**64, 1.5, True], ids=["negative", "2^64", "fraction", "bool"])
def test_stream_refuses_an_index_outside_u64(index):
    with pytest.raises(ConfigError, match="stream index must be an integer"):
        Seed(0).stream(index)


SEEDS = [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1]
# small indices, both sides of 2^32 (where an index gains a second 32-bit word)
# and the largest
INDICES = [0, 1, 5, 255, 256, 300, 4096, 2**32 - 1, 2**32, 2**32 + 3, 2**32 + 255, 2**64 - 1]


@pytest.mark.parametrize("value", SEEDS)
def test_streams_are_numpys_seed_sequence_bit_for_bit(value):
    # Streams are checked against numpy itself: the solver's reference
    # kernels draw through Seed.stream too, so they cannot vouch for it.
    for index in INDICES:
        expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence([value, index])))
        assert np.array_equal(Seed(value).stream(index).standard_normal(7),
                              expected.standard_normal(7)), index


def numpy_stream(value, index):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([value, index])))


def test_streams_sharing_a_memoized_state_draw_apart():
    # Two generators opened on one (seed, index) share its state array but
    # not PCG64's running state: drawn in turns, each is numpy's sequence.
    first, second = Seed(7).stream(3), Seed(7).stream(3)
    want_first, want_second = numpy_stream(7, 3), numpy_stream(7, 3)
    for n in (1, 4, 2, 9):
        assert np.array_equal(first.standard_normal(n), want_first.standard_normal(n))
        assert np.array_equal(second.standard_normal(n), want_second.standard_normal(n))


def test_stream_reopened_after_eviction_is_numpys():
    expected = numpy_stream(3, 0).standard_normal(5)
    Seed(3).stream(0)
    for index in range(1, 1026):  # more pairs than the memo holds
        Seed(3).stream(index)
    misses = _seed_state.cache_info().misses
    assert np.array_equal(Seed(3).stream(0).standard_normal(5), expected)
    assert _seed_state.cache_info().misses == misses + 1  # hashed again


def test_memoized_state_is_read_only():
    state = _seed_state(5, 9)
    assert state is _seed_state(5, 9)
    with pytest.raises(ValueError, match="read-only"):
        state[0] = 0


def test_seed_streams_are_deterministic_and_distinct():
    a = Seed(7).stream(3).standard_normal(5)
    b = Seed(7).stream(3).standard_normal(5)
    c = Seed(7).stream(4).standard_normal(5)
    d = Seed(8).stream(3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_log_increment_formula():
    mean, sd = GbmParams(10.0, 0.01, 0.2).log_increment(2.0)
    assert mean == pytest.approx((0.01 - 0.02) * 2.0, rel=1e-15)
    assert sd == pytest.approx(0.2 * math.sqrt(2.0), rel=1e-15)
    assert GbmParams(10.0, 0.03, 0.0).log_increment(1.0) == (0.03, 0.0)


def test_simulate_path_shape_and_determinism():
    params = GbmParams(20.0, 0.001, 0.05)
    p1 = simulate_path(params, steps=100, seed=Seed(11))
    p2 = simulate_path(params, steps=100, seed=Seed(11))
    assert len(p1) == 101
    assert p1[0] == pytest.approx(20.0)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, simulate_path(params, steps=100, seed=Seed(12)))


def test_simulate_path_matches_stepwise_reconstruction():
    params = GbmParams(20.0, 0.001, 0.05)
    path = simulate_path(params, steps=50, dt=0.5, seed=Seed(4))
    z = Seed(4).stream(0).standard_normal(50)
    mean, sd = params.log_increment(0.5)
    y = 20.0
    for i in range(50):
        y *= math.exp(mean + sd * z[i])
        assert path[i + 1] == pytest.approx(y, rel=1e-12)


def test_simulate_path_zero_vol_is_exponential():
    params = GbmParams(8.0, 0.01, 0.0)
    path = simulate_path(params, steps=10, seed=Seed(0))
    expected = 8.0 * np.exp(0.01 * np.arange(11))
    assert np.allclose(path, expected, rtol=1e-12)


def test_simulate_path_rejects_zero_steps():
    with pytest.raises(ConfigError):
        simulate_path(GbmParams(1.0, 0.0, 0.1), steps=0)


@pytest.mark.parametrize(
    "steps, dt, name",
    [(2.5, 1.0, "steps"), (True, 1.0, "steps"), (10, -1.0, "dt"), (10, 0.0, "dt"),
     (10, math.nan, "dt"), (10, math.inf, "dt")],
    ids=["fraction-steps", "bool-steps", "negative-dt", "zero-dt", "nan-dt", "inf-dt"],
)
def test_simulate_path_refuses_bad_steps_and_dt(steps, dt, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=rf"^{name} must be"):
            simulate_path(GbmParams(1.0, 0.0, 0.1), steps=steps, dt=dt)


@pytest.mark.parametrize(
    "mu, step, price", [(-0.0020, 198243, "0.0"), (0.01, 87242, "inf")],
    ids=["underflow", "overflow"],
)
def test_simulate_path_refuses_zero_and_infinite_prices(mu, step, price):
    # table 1's sigma over 200000 steps; its drift, or mu = 0.01, carries the
    # log price out of the floats
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=rf"step {step} is {price}, not a positive"):
            simulate_path(GbmParams(21.43, mu, 0.0603), steps=200000, seed=Seed(7))
