import math

import numpy as np
import pytest

from carbonstop import (
    ABOVE_GRID,
    FOUND,
    ConfigError,
    GbmParams,
    NumericError,
    PlantParams,
    PriceGrid,
    Seed,
    SolverConfig,
    TimeGrid,
    default_price_grid,
    extract_boundary,
    geometric_price_grid,
    lower_bound,
    smooth_boundary,
    solve_backward,
    solve_boundary,
    value_at,
)
from carbonstop.solver import _pava, stop_tolerance


def small_case(seed=0, **overrides):
    gbm = GbmParams(21.43, -0.0020, 0.0603)
    plant = PlantParams(0.014, 14.7, 30)
    config = SolverConfig(
        samples_per_node=overrides.pop("samples", 500),
        grid_size=overrides.pop("grid", 80),
        seed=Seed(seed),
        **overrides,
    )
    return gbm, plant, config


# --- grids and config ---------------------------------------------------


def test_time_grid():
    grid = TimeGrid(horizon=10, delta=2.5)
    assert grid.n_steps == 4
    assert np.allclose(grid.times, [0, 2.5, 5, 7.5, 10])
    with pytest.raises(ConfigError):
        TimeGrid(horizon=10, delta=3.0)
    with pytest.raises(ConfigError):
        TimeGrid(horizon=10, delta=0.0)
    with pytest.raises(ConfigError):
        TimeGrid(horizon=0, delta=1.0)
    for bad in ((math.inf, 1.0), (math.nan, 1.0), (10, math.inf), (10, math.nan)):
        with pytest.raises(ConfigError, match="finite"):
            TimeGrid(*bad)


def test_price_grid_validation():
    with pytest.raises(NumericError):
        PriceGrid(np.array([1.0]))
    with pytest.raises(NumericError):
        PriceGrid(np.array([2.0, 1.0]))
    with pytest.raises(NumericError):
        PriceGrid(np.array([0.0, 1.0]))


def test_price_grid_cell_width():
    grid = PriceGrid(np.array([1.0, 2.0, 4.0, 8.0]))
    assert grid.cell_width_at(0) == pytest.approx(1.0)
    assert grid.cell_width_at(1) == pytest.approx(2.0)  # wider neighbor
    assert grid.cell_width_at(3) == pytest.approx(4.0)


def test_geometric_price_grid():
    grid = geometric_price_grid(1.0, 100.0, 4)
    assert len(grid.levels) == 5
    ratios = grid.levels[1:] / grid.levels[:-1]
    assert np.allclose(ratios, ratios[0])
    with pytest.raises(NumericError):
        geometric_price_grid(5.0, 1.0, 10)


def test_default_price_grid_spans_anchors():
    gbm = GbmParams(21.43, -0.0020, 0.0603)
    plant = PlantParams(0.014, 14.7, 246)
    grid = default_price_grid(gbm, plant)
    l0 = 14.7 * math.exp(0.002 * 246)
    assert grid.levels[0] < min(21.43, 14.7, l0) / 2
    assert grid.levels[-1] >= 3 * max(21.43, 14.7, l0) * (1 - 1e-12)


def test_default_grid_floor_does_not_bind_on_table1():
    # A grid floor that paths reach with non-negligible probability clamps
    # continuation values and drags the boundary down: a floor of 12 pulls
    # b(0) from 43.1 to 36.8.  Extending the default grid a decade further
    # down at the same log spacing must leave b(0) within one cell.
    gbm = GbmParams(21.43, -0.0020, 0.0603)
    plant = PlantParams(0.014, 14.7, 246)
    config = SolverConfig(seed=Seed(0))
    grid, base = solve_boundary(gbm, plant, config)
    levels = grid.price_grid.levels
    ratio = levels[1] / levels[0]
    extra = math.ceil(math.log(10) / math.log(ratio))
    below = levels[0] * ratio ** -np.arange(extra, 0, -1.0)
    deeper = PriceGrid(np.concatenate([below, levels]))
    assert deeper.levels[0] <= levels[0] / 10
    _, extended = solve_boundary(
        gbm, plant, SolverConfig(seed=Seed(0), price_grid=deeper)
    )
    cell = grid.price_grid.cell_width_at(int(np.searchsorted(levels, base.values[0])))
    assert abs(extended.values[0] - base.values[0]) <= cell


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(samples_per_node=99)
    with pytest.raises(ConfigError):
        SolverConfig(grid_size=1)
    for scale in (-1e-6, math.nan, math.inf):
        with pytest.raises(ConfigError, match="stop_tol_scale"):
            SolverConfig(stop_tol_scale=scale)
    SolverConfig(stop_tol_scale=0.0)


def test_stop_tolerance_scaling():
    plant = PlantParams(0.014, 14.7, 246)
    config = SolverConfig()
    assert stop_tolerance(plant, config) == pytest.approx(1e-6 * 14.7 * 246)


def test_horizon_mismatch_rejected():
    gbm, plant, config = small_case()
    with pytest.raises(ConfigError, match="horizon"):
        solve_backward(gbm, plant, TimeGrid(horizon=29), config)


def test_upgraded_plant_rejected(table2):
    # the solver takes constant (M, P); upgrades go through apply_upgrade
    gbm, plant = table2
    with pytest.raises(ConfigError, match="upgrade"):
        solve_boundary(gbm, plant)


# --- value lattice invariants -------------------------------------------


def test_basic_invariants():
    gbm, plant, config = small_case()
    grid = solve_backward(gbm, plant, None, config)
    assert (grid.U >= 0).all()
    assert (grid.U[-1] == 0).all()
    assert (grid.V >= grid.G - 1e-9).all()
    assert grid.U.shape == (31, 81)


def test_premium_monotone_in_price_per_slice():
    gbm, plant, config = small_case()
    grid = solve_backward(gbm, plant, None, config)
    for row in grid.U:
        assert (np.diff(row) <= 1e-12).all()


def test_solve_is_deterministic():
    gbm, plant, config = small_case(seed=5)
    a = solve_backward(gbm, plant, None, config)
    b = solve_backward(gbm, plant, None, config)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.V, b.V)
    c = solve_backward(gbm, plant, None, SolverConfig(
        samples_per_node=500, grid_size=80, seed=Seed(6)))
    assert not np.array_equal(a.U, c.U)


def test_boundary_invariant_under_emission_rate():
    gbm, plant, config = small_case()
    shared = SolverConfig(
        samples_per_node=500,
        grid_size=80,
        seed=Seed(0),
        price_grid=config.resolve_grid(gbm, plant),
    )
    _, b1 = solve_boundary(gbm, plant, shared)
    scaled = PlantParams(plant.emission_rate * 7, plant.unit_profit, plant.horizon)
    _, b2 = solve_boundary(gbm, scaled, shared)
    assert np.array_equal(b1.values, b2.values, equal_nan=True)
    assert b1.status == b2.status


def test_boundary_nondecreasing_in_unit_profit():
    gbm, plant, config = small_case()
    shared = SolverConfig(
        samples_per_node=500,
        grid_size=80,
        seed=Seed(0),
        price_grid=geometric_price_grid(2.0, 120.0, 150),
    )
    _, low = solve_boundary(gbm, plant, shared)
    richer = PlantParams(plant.emission_rate, plant.unit_profit * 1.4, plant.horizon)
    _, high = solve_boundary(gbm, richer, shared)
    assert (high.values_or_inf() >= low.values_or_inf() - 1e-12).all()


# --- degenerate closed form ---------------------------------------------


def test_zero_vol_premium_matches_closed_form():
    # with sigma = 0 the recursion telescopes to
    # U(t, y) = max(0, (T - t) * (P - y * exp(mu * (T - t)))).
    gbm = GbmParams(21.43, -0.0020, 0.0)
    plant = PlantParams(0.014, 14.7, 30)
    config = SolverConfig(samples_per_node=200, grid_size=120, seed=Seed(0))
    grid = solve_backward(gbm, plant, None, config)
    levels = grid.price_grid.levels
    for i, t in enumerate(grid.time_grid.times):
        remaining = 30 - t
        exact = np.maximum(0.0, remaining * (14.7 - levels * np.exp(gbm.mu * remaining)))
        assert np.allclose(grid.U[i], exact, rtol=1e-6, atol=1e-4)


def test_zero_vol_boundary_tracks_lower_bound():
    gbm = GbmParams(21.43, -0.0020, 0.0)
    plant = PlantParams(0.014, 14.7, 30)
    config = SolverConfig(samples_per_node=200, grid_size=120, seed=Seed(0))
    grid, boundary = solve_boundary(gbm, plant, config)
    for i, t in enumerate(boundary.times):
        lb = lower_bound(plant, gbm, t)
        j = int(np.searchsorted(grid.price_grid.levels, boundary.values[i]))
        cell = grid.price_grid.cell_width_at(j)
        assert abs(boundary.values[i] - lb) <= cell


# --- boundary extraction -------------------------------------------------


def test_terminal_boundary_snaps_to_unit_profit():
    gbm, plant, config = small_case()
    grid, boundary = solve_boundary(gbm, plant, config)
    levels = grid.price_grid.levels
    expected = levels[np.searchsorted(levels, 14.7)]
    assert boundary.values[-1] == pytest.approx(expected)
    assert boundary.status[-1] == FOUND


def test_boundary_above_grid_status():
    gbm, plant, _ = small_case()
    cramped = SolverConfig(
        samples_per_node=500,
        grid_size=40,
        seed=Seed(0),
        price_grid=geometric_price_grid(1.0, 14.0, 40),  # top below P
    )
    _, boundary = solve_boundary(gbm, plant, cramped)
    assert all(s == ABOVE_GRID for s in boundary.status)
    assert np.isnan(boundary.values).all()
    assert np.isinf(boundary.values_or_inf()).all()


def test_boundary_respects_lower_bound():
    gbm, plant, config = small_case()
    grid, boundary = solve_boundary(gbm, plant, config)
    for i in range(len(boundary.times)):
        j = int(np.searchsorted(grid.price_grid.levels, boundary.values[i]))
        cell = grid.price_grid.cell_width_at(j)
        assert boundary.values[i] >= boundary.lower_bounds[i] - cell


def test_boundary_csv(tmp_path):
    gbm, plant, config = small_case()
    _, boundary = solve_boundary(gbm, plant, config)
    out = tmp_path / "boundary.csv"
    boundary.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,b,status,lower_bound"
    assert len(lines) == 32


# --- value queries and smoothing -----------------------------------------


def test_value_at():
    gbm, plant, config = small_case()
    grid = solve_backward(gbm, plant, None, config)
    levels = grid.price_grid.levels
    u, v, g = value_at(grid, 0.0, float(levels[10]))
    assert u == pytest.approx(grid.U[0, 10])
    assert v == pytest.approx(grid.V[0, 10])
    assert g == pytest.approx(grid.G[0, 10])
    with pytest.raises(ConfigError):
        value_at(grid, 0.3, float(levels[10]))
    with pytest.raises(NumericError):
        value_at(grid, 0.0, float(levels[-1]) * 2)


def test_pava():
    out = _pava(np.array([1.0, 3.0, 2.0, 4.0]))
    assert np.allclose(out, [1.0, 2.5, 2.5, 4.0])
    assert (np.diff(out) >= 0).all()


def test_smooth_boundary_methods():
    gbm, plant, config = small_case()
    _, boundary = solve_boundary(gbm, plant, config)

    assert smooth_boundary(boundary, "none") is boundary

    iso = smooth_boundary(boundary, "isotonic")
    vals = iso.values[iso.found_mask()]
    diffs = np.diff(vals[:-1])  # terminal point is pinned, exclude it
    assert (diffs <= 1e-9).all() or (diffs >= -1e-9).all()
    assert (iso.values >= iso.lower_bounds - 1e-9).all()
    assert iso.values[-1] == boundary.values[-1]

    ma = smooth_boundary(boundary, "moving-average", window=5)
    assert ma.values[-1] == boundary.values[-1]
    assert (ma.values >= ma.lower_bounds - 1e-9).all()

    with pytest.raises(ConfigError):
        smooth_boundary(boundary, "spline")
