import math
import warnings

import numpy as np
import pytest

from carbonstop import ConfigError, GbmParams, NumericError, Seed, simulate_path


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
    with pytest.raises(ConfigError):
        Seed(-1)
    with pytest.raises(ConfigError):
        Seed(2**64)
    Seed(2**64 - 1)


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
