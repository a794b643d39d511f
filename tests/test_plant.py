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


def test_dict_roundtrip():
    plant = PlantParams(0.014, 14.7, 246)
    assert PlantParams.from_dict(plant.to_dict()) == plant
    upgrade = Upgrade.from_dict({"day": 20, "P_new": 17.2, "M_new": 0.041})
    assert upgrade == Upgrade(20, 17.2, 0.041)


def test_from_dict_missing_key():
    with pytest.raises(ConfigError, match="missing field"):
        PlantParams.from_dict({"M": 0.014, "T": 246})
    with pytest.raises(ConfigError, match="missing field 'M_new'"):
        Upgrade.from_dict({"day": 20, "P_new": 17.2})


def test_from_dict_refuses_upgrade_block():
    # (M, P) are constant by type; an upgrade is a separate value
    data = {"M": 0.048, "P": 14.5, "T": 49, "upgrade": {"day": 20, "P_new": 17.2}}
    with pytest.raises(ConfigError, match="upgrade"):
        PlantParams.from_dict(data)
    bare = PlantParams.from_dict(dict(data, upgrade=None))
    assert bare == PlantParams(0.048, 14.5, 49)


@pytest.mark.parametrize(
    "bad",
    ["x", "0.014", None, [0.014], True, 10**400],
    ids=["text", "numeric-text", "null", "list", "bool", "huge-int"],
)
def test_from_dict_rejects_non_numbers(bad):
    with pytest.raises(ConfigError, match="plant.M must be a finite number"):
        PlantParams.from_dict({"M": bad, "P": 14.7, "T": 246})
    with pytest.raises(ConfigError, match="upgrade.day must be a finite number"):
        Upgrade.from_dict({"day": bad, "P_new": 17.2, "M_new": 0.041})


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
