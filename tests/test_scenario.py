import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import carbonstop.scenario as scenario
import carbonstop.solver as solver
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
    SurfaceGrid,
    Upgrade,
    apply_upgrade,
    default_price_grid,
    geometric_price_grid,
    min_survival_p,
    monitor,
    solve_boundary,
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
    bad_prices = ([math.nan, 1000.0], [10.0, math.inf], [10.0, 0.0], [-5.0], ["x"], [10**400])
    for bad in bad_prices:
        with pytest.raises(DataError, match="price"):
            monitor(boundary, bad)


def test_monitor_accepts_shorter_window():
    boundary = flat_boundary([30.0] * 10)
    assert not monitor(boundary, [10, 20]).crossed


@pytest.mark.parametrize(
    "prices", [["30", 40], [True, 50], [[30, 40]]], ids=["string", "bool", "nested"]
)
def test_monitor_refuses_prices_that_are_not_numbers(prices):
    # a plain float conversion would read "30" as 30.0 and True as 1.0
    with pytest.raises(DataError, match="prices must be a flat sequence of numbers"):
        monitor(flat_boundary([35.0] * 3), prices)


@pytest.mark.parametrize(
    "prices",
    [(30, 40), [30, 40.0], np.array([30, 40]), np.array([30.0, 40.0], dtype=np.float32)],
    ids=["tuple", "list", "int-array", "float32-array"],
)
def test_monitor_accepts_numeric_sequences(prices):
    report = monitor(flat_boundary([35.0] * 3), prices)
    assert report.crossing_index == 1 and report.crossing_price == 40.0


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


def test_surface_rejects_an_underflowing_grid_floor():
    gbm = GbmParams(20.0, -0.003, 1e100)
    with pytest.raises(ConfigError, match="sigma"):
        surface(gbm, 12, [5.0, 10.0])


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


def test_surface_holds_its_sweep_to_the_node_cap(monkeypatch):
    # 12 P levels over T = 5 on an 11-level grid: the sweep's 6 x 12 = 72
    # nodes are the larger count, and the cap on them is checked before any
    # plant is solved.
    gbm = GbmParams(20.0, -0.003, 0.08)
    config = SolverConfig(samples_per_node=100, price_grid=geometric_price_grid(1, 100, 10))
    p_values = np.arange(1.0, 13.0)
    monkeypatch.setattr(solver, "MAX_LATTICE_NODES", 6 * 12)
    assert surface(gbm, 5, p_values, config).B.shape == (6, 12)

    def not_solved(*args, **kwargs):
        raise AssertionError("a plant was solved before the sweep size was checked")

    monkeypatch.setattr(scenario, "solve_boundary", not_solved)
    monkeypatch.setattr(solver, "MAX_LATTICE_NODES", 6 * 12 - 1)
    with pytest.raises(ConfigError, match="12 P levels makes 72 lattice nodes"):
        surface(gbm, 5, p_values, config)


def test_surface_serialization(tmp_path, small_surface):
    out = tmp_path / "surface.csv"
    small_surface.to_long_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,p,B"
    assert len(lines) == 1 + 13 * 4

    payload = json.loads(small_surface.to_json())
    assert len(payload["times"]) == 13
    assert len(payload["B"][0]) == 4


def test_surface_csv_golden_text(tmp_path):
    surf = SurfaceGrid(
        p_values=np.array([5.0, 12.3456789]),
        times=np.array([0.0, 0.5]),
        B=np.array([[1e-7, np.inf], [1e6, 14.7]]),
    )
    out = tmp_path / "surface.csv"
    surf.to_long_csv(out)
    assert out.read_bytes() == (
        b"t,p,B\r\n"
        b"0,5,1e-07\r\n"
        b"0,12.3457,inf\r\n"
        b"0.5,5,1e+06\r\n"
        b"0.5,12.3457,14.7\r\n"
    )


def test_csv_times_keep_every_digit_past_a_million(tmp_path):
    # a daily lattice within MAX_LATTICE_NODES reaches T = 22 369 620 at grid 2
    times = np.arange(999999.0, 1000003.0)
    surf = SurfaceGrid(p_values=np.array([5.0]), times=times, B=np.full((4, 1), 2.0))
    surf.to_long_csv(tmp_path / "surface.csv")
    boundary = Boundary(times=times, values=np.full(4, 2.0), lower_bounds=np.zeros(4))
    boundary.to_csv(tmp_path / "boundary.csv")
    for name in ("surface.csv", "boundary.csv"):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [
            "999999", "1000000", "1000001", "1000002"], name


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


# --- shared-grid drives against independent solves ---------------------------


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def solo_config(gbm, plants, config):
    """`config` with the one grid a shared-grid drive solves `plants` on."""
    spans = [default_price_grid(gbm, pl, config.grid_size).levels for pl in plants]
    grid = geometric_price_grid(
        min(s[0] for s in spans), max(s[-1] for s in spans), config.grid_size
    )
    return replace(config, price_grid=grid)


CRITERION_7 = (GbmParams(40.0, -0.0014, 0.0805), 150, range(10, 41, 2))


def test_surface_equals_independent_solves_on_its_grid():
    gbm, horizon, p_values = CRITERION_7
    config = SolverConfig(samples_per_node=1000, seed=Seed(42))
    plants = [PlantParams(1.0, float(p), horizon) for p in p_values]
    surf = surface(gbm, horizon, p_values, config)
    solo = solo_config(gbm, plants, config)
    for k, plant in enumerate(plants):
        _, boundary = solve_boundary(gbm, plant, solo)
        assert np.array_equal(bits(surf.B[:, k]), bits(boundary.values))


@pytest.mark.parametrize("table", ["table2", "table3"])
def test_upgrade_equals_independent_solves_on_its_grid(request, table):
    gbm, plant, upgrade = request.getfixturevalue(table)
    after_plant = PlantParams(
        upgrade.new_emission_rate, upgrade.new_unit_profit, plant.horizon
    )
    config = SolverConfig(seed=Seed(42))
    shared = apply_upgrade(gbm, plant, upgrade, config)[:2]
    solo = solo_config(gbm, [plant, after_plant], config)
    for got, pl in zip(shared, [plant, after_plant]):
        _, want = solve_boundary(gbm, pl, solo)
        assert np.array_equal(bits(got.values), bits(want.values))
        assert np.array_equal(bits(got.lower_bounds), bits(want.lower_bounds))


def test_surface_draws_each_slice_once_within_the_cap(monkeypatch, streams):
    gbm, horizon, p_values = CRITERION_7
    config = SolverConfig(samples_per_node=1000, seed=Seed(42))
    plants = [PlantParams(1.0, float(p), horizon) for p in p_values]
    solo = solo_config(gbm, plants, config)
    draws = solver.SliceDraws(gbm, solo, solo.price_grid, shared=True)
    n_steps = int(horizon)
    all_slices = sum(draws[i].nbytes for i in range(n_steps))

    streams.clear()
    reference = surface(gbm, horizon, p_values, config).B
    assert len(streams) == n_steps  # the default cap keeps every slice
    for cap in (0, all_slices // 2):
        monkeypatch.setattr(solver, "SHARED_DRAW_BYTES", cap)
        streams.clear()
        B = surface(gbm, horizon, p_values, config).B
        assert np.array_equal(bits(B), bits(reference))
        if cap == 0:
            assert len(streams) == n_steps * len(plants)
        else:
            assert n_steps < len(streams) < n_steps * len(plants)


def sweep_with_room_for_a_block_and_a_half(monkeypatch, streams, horizon, p_values):
    """Sweep criterion 7's market over `p_values` with SHARED_DRAW_BYTES at
    1.5 top blocks, checking that only the top block is kept and that the
    bits are those of solves of their own; the number of streams drawn."""
    gbm = CRITERION_7[0]
    config = SolverConfig(samples_per_node=1000, seed=Seed(42))
    plants = [PlantParams(1.0, float(p), horizon) for p in p_values]
    solo = solo_config(gbm, plants, config)
    draws = solver.SliceDraws(gbm, solo, solo.price_grid, shared=True)
    n_steps, block = int(horizon), solver.BLOCK_DRAWS // config.samples_per_node
    top = sum(draws[i].nbytes for i in range(n_steps - 1, n_steps - 1 - block, -1))
    monkeypatch.setattr(solver, "SHARED_DRAW_BYTES", top * 3 // 2)

    streams.clear()
    B = surface(gbm, horizon, p_values, config).B
    drawn = len(streams)
    assert drawn == n_steps + (len(plants) - 1) * (n_steps - block)
    assert n_steps < drawn < n_steps * len(plants)
    for k, plant in enumerate(plants):
        _, boundary = solve_boundary(gbm, plant, solo)
        assert np.array_equal(bits(B[:, k]), bits(boundary.values))
    return drawn


def test_surface_whose_cap_runs_out_within_a_block_equals_independent_solves(
    monkeypatch, streams
):
    # Room for one block and a half: the first solve keeps the top block
    # whole and the next one not at all, so every later solve redraws each
    # slice below the top block once, and the bits stay those of solves of
    # their own.
    _, horizon, p_values = CRITERION_7
    sweep_with_room_for_a_block_and_a_half(monkeypatch, streams, horizon, p_values)


def test_surface_keeps_no_block_below_one_that_did_not_fit(monkeypatch, streams):
    # At T = 145 the bottom block holds one slice (145 % 8 == 1), which would
    # fit in the room the top block leaves; the kept slices stay one run
    # from the top, so each later solve draws the 137 below the top block.
    drawn = sweep_with_room_for_a_block_and_a_half(monkeypatch, streams, 145, (10, 20, 30))
    assert drawn == 145 + 2 * 137 == 419


def test_one_p_sweep_keeps_no_slices():
    # A lone plant reuses no slice, so the sweep is the standalone solve: the
    # same bits, without keeping every slice's draws beside the lattice.
    gbm, horizon, _ = CRITERION_7
    config = SolverConfig(samples_per_node=2000, seed=Seed(42))
    plant = PlantParams(1.0, 20.0, horizon)
    solve_boundary(gbm, plant, config)  # imports and first-use allocations, untraced
    peaks, values = [], []
    for run in (lambda: solve_boundary(gbm, plant, config)[1].values,
                lambda: surface(gbm, horizon, [20.0], config).B[:, 0]):
        tracemalloc.start()
        try:
            values.append(run())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(bits(values[1]), bits(values[0]))
    assert peaks[1] <= 1.5 * peaks[0]
