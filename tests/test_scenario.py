import json
import math

import numpy as np
import pytest

from carbonstop import (
    ABOVE_GRID,
    FOUND,
    Boundary,
    ConfigError,
    DataError,
    GbmParams,
    PlantParams,
    Seed,
    SolverConfig,
    Upgrade,
    apply_upgrade,
    min_survival_p,
    monitor,
    surface,
)


def flat_boundary(levels):
    n = len(levels)
    return Boundary(
        times=np.arange(n, dtype=float),
        values=np.asarray(levels, dtype=float),
        lower_bounds=np.zeros(n),
    )


# --- monitor ---------------------------------------------------------------


def test_monitor_first_touch_counts():
    boundary = flat_boundary([30, 30, 30, 30, 30])
    report = monitor(boundary, [25, 30, 31, 10, 50])
    assert report.crossed
    assert report.crossing_index == 1  # touching the boundary is a hit
    assert report.crossing_price == 30.0
    assert report.boundary_at_crossing == 30.0


def test_monitor_no_crossing():
    boundary = flat_boundary([30, 30, 30])
    report = monitor(boundary, [10, 20, 29.99])
    assert not report.crossed
    assert report.crossing_index is None
    assert json.loads(report.to_json())["crossed"] is False


def test_monitor_above_grid_never_crossed():
    boundary = flat_boundary([math.inf, 30, 30])
    assert boundary.status == (ABOVE_GRID, FOUND, FOUND)
    report = monitor(boundary, [1e9, 10, 35])
    assert report.crossing_index == 2


def test_monitor_translation_consistency():
    boundary = flat_boundary([30.0] * 10)
    prices = [20, 25, 31, 40]
    base = monitor(boundary, prices)
    shifted = monitor(boundary, [5, 5, 5] + prices)
    assert shifted.crossing_index == base.crossing_index + 3


def test_monitor_rejects_too_many_prices():
    boundary = flat_boundary([30, 30])
    with pytest.raises(DataError, match="exceed"):
        monitor(boundary, [1, 2, 3])


def test_monitor_rejects_bad_prices():
    boundary = flat_boundary([30.0] * 3)
    for bad in ([math.nan, 1000.0], [10.0, math.inf], [10.0, 0.0], [-5.0], ["x"]):
        with pytest.raises(DataError, match="price"):
            monitor(boundary, bad)


def test_monitor_accepts_shorter_window():
    boundary = flat_boundary([30.0] * 10)
    assert not monitor(boundary, [10, 20]).crossed


# --- upgrades ----------------------------------------------------------------


def test_apply_upgrade_rejects_day_after_horizon():
    gbm = GbmParams(10.0, 0.0, 0.1)
    plant = PlantParams(1.0, 10.0, 10)
    with pytest.raises(ConfigError, match=r"\[0, T=10"):
        apply_upgrade(gbm, plant, Upgrade(11, 15.0, 0.5))
    # an upgrade on the last day switches only the terminal entry
    config = SolverConfig(samples_per_node=100, grid_size=20)
    before, after, composite = apply_upgrade(gbm, plant, Upgrade(10, 15.0, 0.5), config)
    assert composite.values[-1] == after.values[-1]
    assert np.array_equal(composite.values[:-1], before.values[:-1], equal_nan=True)


def test_apply_upgrade_lifts_boundary():
    gbm = GbmParams(20.0, -0.002, 0.05)
    plant, upgrade = PlantParams(0.5, 12.0, 20), Upgrade(8, 16.0, 0.4)
    config = SolverConfig(samples_per_node=500, grid_size=80, seed=Seed(3))
    before, after, composite = apply_upgrade(gbm, plant, upgrade, config)

    gap = after.values - before.values
    assert (gap >= -1e-12).all()
    assert (gap > 1e-12).any()

    # the composite follows the pre-upgrade curve strictly before the
    # effective day and the post-upgrade curve from it on
    switch = before.times >= 8
    assert np.array_equal(
        composite.values[switch], after.values[switch], equal_nan=True
    )
    assert np.array_equal(
        composite.values[~switch], before.values[~switch], equal_nan=True
    )
    assert composite.status == before.status[:8] + after.status[8:]


def test_apply_upgrade_shares_price_grid():
    gbm = GbmParams(20.0, -0.002, 0.05)
    plant, upgrade = PlantParams(0.5, 12.0, 20), Upgrade(8, 16.0, 0.4)
    config = SolverConfig(samples_per_node=500, grid_size=80, seed=Seed(3))
    before, after, _ = apply_upgrade(gbm, plant, upgrade, config)
    # same grid means terminal levels are two exact grid points
    assert before.values[-1] < after.values[-1]


def test_comparisons_reject_overflowing_drift():
    # |mu|*T = 1230: e^{|mu| T} overflows a float
    gbm = GbmParams(21.43, -5.0, 0.06)
    with pytest.raises(ConfigError, match="mu"):
        apply_upgrade(gbm, PlantParams(0.014, 14.7, 246), Upgrade(20, 17.2, 0.01))
    with pytest.raises(ConfigError, match="mu"):
        surface(gbm, 246, [10.0, 12.0])


# --- surface -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_surface():
    gbm = GbmParams(20.0, -0.003, 0.08)
    config = SolverConfig(samples_per_node=500, grid_size=80, seed=Seed(9))
    return surface(gbm, 12, [5.0, 10.0, 15.0, 20.0], config)


def test_surface_shape_and_p_monotone(small_surface):
    surf = small_surface
    assert surf.B.shape == (13, 4)
    assert (np.diff(surf.B, axis=1) >= -1e-12).all()
    assert np.array_equal(surf.p_values, [5.0, 10.0, 15.0, 20.0])


def test_surface_sorts_p_values():
    gbm = GbmParams(20.0, -0.003, 0.08)
    config = SolverConfig(samples_per_node=500, grid_size=80, seed=Seed(9))
    surf = surface(gbm, 12, [15.0, 5.0], config)
    assert list(surf.p_values) == [5.0, 15.0]


def test_surface_rejects_bad_p_values():
    gbm = GbmParams(20.0, -0.003, 0.08)
    with pytest.raises(ConfigError):
        surface(gbm, 12, [])
    with pytest.raises(ConfigError):
        surface(gbm, 12, [5.0, -1.0])
    with pytest.raises(ConfigError):
        surface(gbm, 12, [12, 12, 14])


def test_surface_serialization(tmp_path, small_surface):
    out = tmp_path / "surface.csv"
    small_surface.to_long_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,p,B"
    assert len(lines) == 1 + 13 * 4

    payload = json.loads(small_surface.to_json())
    assert len(payload["times"]) == 13
    assert len(payload["B"][0]) == 4

    assert small_surface.p_curvature().shape == (13, 2)


def test_min_survival_p_edge_cases(small_surface):
    surf = small_surface
    # below every boundary slice at t=0 -> the smallest swept level
    assert min_survival_p(surf, 0.0, 1e-6) == 5.0
    # above every boundary slice -> no qualifying level
    assert min_survival_p(surf, 0.0, 1e9) is None
    with pytest.raises(ConfigError):
        min_survival_p(surf, 0.37, 10.0)


def test_min_survival_p_monotone_in_price(small_surface):
    surf = small_surface
    big = 1e18
    thresholds = [
        min_survival_p(surf, 6.0, y) or big for y in (5.0, 15.0, 30.0, 60.0)
    ]
    assert thresholds == sorted(thresholds)


@pytest.fixture(scope="module")
def wide_sweep():
    # long-horizon sweep used for the survival-threshold reading
    gbm = GbmParams(40.0, -0.0014, 0.0805)
    config = SolverConfig(samples_per_node=2000, seed=Seed(42))
    return surface(gbm, 150, range(10, 41, 2), config)


def test_survival_threshold_rises_toward_horizon(wide_sweep):
    # early on the boundary sits far above the unit profit, so a modest P
    # already clears a price of 45; near the horizon the boundary decays
    # toward P and the required P rises until no swept level qualifies
    surf = wide_sweep
    assert min_survival_p(surf, 0.0, 45.0) == 22.0
    assert min_survival_p(surf, 135.0, 45.0) >= 36.0
    assert min_survival_p(surf, 148.0, 45.0) is None
