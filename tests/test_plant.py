import math

import pytest

from carbonstop import (
    ConfigError,
    GbmParams,
    PlantParams,
    Upgrade,
    immediate_value,
    lower_bound,
    reward,
)


def test_validation():
    with pytest.raises(ConfigError):
        PlantParams(0.0, 14.7, 246)
    with pytest.raises(ConfigError):
        PlantParams(0.014, 0.0, 246)
    with pytest.raises(ConfigError):
        PlantParams(0.014, 14.7, 0.5)
    with pytest.raises(ConfigError):
        Upgrade(5, -1.0, 0.01)
    for bad in ((math.nan, 14.7, 246), (0.014, math.inf, 246), (0.014, 14.7, math.inf)):
        with pytest.raises(ConfigError, match="finite"):
            PlantParams(*bad)
    for bad in ((math.nan, 15.0, 0.01), (5, math.inf, 0.01), (5, 15.0, math.nan)):
        with pytest.raises(ConfigError, match="finite"):
            Upgrade(*bad)


def test_reward_hand_values():
    plant = PlantParams(2.0, 10.0, 5)
    # run 3 days at P=10, sell 2 remaining days of allowance at 7
    assert reward(plant, 3.0, 7.0) == pytest.approx(2 * 10 * 3 + 2 * 7 * 2)
    assert reward(plant, 0.0, 7.0) == pytest.approx(2 * 7 * 5)
    assert reward(plant, 5.0, 7.0) == pytest.approx(2 * 10 * 5)
    with pytest.raises(ConfigError):
        reward(plant, 6.0, 7.0)


def test_immediate_value_closed_form():
    plant = PlantParams(2.0, 10.0, 5)
    gbm = GbmParams(8.0, 0.01, 0.1)
    t, y = 2.0, 9.0
    expected = 2 * 10 * t + 2 * y * math.exp(0.01 * 3) * 3
    assert immediate_value(plant, gbm, t, y) == pytest.approx(expected)
    # at the horizon the terminal price no longer matters
    assert immediate_value(plant, gbm, 5.0, 123.0) == pytest.approx(2 * 10 * 5)


def test_lower_bound():
    plant = PlantParams(0.014, 14.7, 246)
    gbm = GbmParams(21.43, -0.002, 0.06)
    assert lower_bound(plant, gbm, 0.0) == pytest.approx(
        14.7 * math.exp(0.002 * 246)
    )
    assert lower_bound(plant, gbm, 246.0) == pytest.approx(14.7)
    # positive drift pushes the bound below P early on
    up = GbmParams(21.43, 0.002, 0.06)
    assert lower_bound(plant, up, 0.0) < 14.7
