import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbonstop import (
    ABOVE_GRID,
    FOUND,
    Boundary,
    ConfigError,
    GbmParams,
    NumericError,
    PlantParams,
    PriceGrid,
    Seed,
    SolverConfig,
    default_price_grid,
    extract_boundary,
    geometric_price_grid,
    immediate_value,
    lower_bound,
    solve_backward,
    solve_boundary,
    surface,
    value_at,
)
import carbonstop.solver as solver
from carbonstop.solver import (
    BLOCK_DRAWS,
    MAX_GRID_SIZE,
    MAX_LATTICE_NODES,
    MAX_SAMPLES,
    _Stencil,
    lattice_steps,
    stop_tolerance,
)


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


def test_lattice_steps():
    assert lattice_steps(10, 3, "3 levels", delta=2.5) == 4
    assert lattice_steps(49, 201, "grid size 200", delta=4.9) == 10
    with pytest.raises(ConfigError, match="not a positive multiple of delta 3.0"):
        lattice_steps(10, 3, "3 levels", delta=3.0)
    with pytest.raises(ConfigError, match="time step must be positive"):
        lattice_steps(10, 3, "3 levels", delta=0.0)
    with pytest.raises(ConfigError, match="horizon 0 is not a positive multiple"):
        lattice_steps(0, 3, "3 levels")
    for horizon, delta in ((math.inf, 1), (math.nan, 1), (10, math.inf), (10, math.nan)):
        with pytest.raises(ConfigError, match="finite"):
            lattice_steps(horizon, 3, "3 levels", delta=delta)
    with pytest.raises(ConfigError, match="makes inf lattice nodes"):
        lattice_steps(1, 3, "3 levels", delta=1e-310)  # 1 / 1e-310 overflows
    # 11 times by 2**26 // 11 levels fit; one level more does not
    assert lattice_steps(10, MAX_LATTICE_NODES // 11, "many levels") == 10
    with pytest.raises(ConfigError, match="T=10 at delta=1 with many levels makes"):
        lattice_steps(10, MAX_LATTICE_NODES // 11 + 1, "many levels")


def test_price_grid_validation():
    with pytest.raises(NumericError):
        PriceGrid(np.array([1.0]))
    with pytest.raises(NumericError):
        PriceGrid(np.array([2.0, 1.0]))
    with pytest.raises(NumericError):
        PriceGrid(np.array([0.0, 1.0]))
    with pytest.raises(NumericError, match="log-uniform"):
        PriceGrid(np.array([1.0, 2.0, 3.0, 4.0]))
    # any geometric sequence passes: np.geomspace, two levels, a span so
    # narrow that the log step is 5e-9, and the largest grid a config allows
    PriceGrid(np.geomspace(0.168, 72.1, 201))
    PriceGrid(np.array([3.0, 7.0]))
    geometric_price_grid(10.0, 10.001, MAX_GRID_SIZE)
    geometric_price_grid(1e-3, 1e4, MAX_GRID_SIZE)


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


@pytest.mark.parametrize(
    "gbm, plant",
    [
        (GbmParams(1e308, -0.0020, 0.0603), PlantParams(0.014, 14.7, 20)),
        (GbmParams(21.43, -0.0020, 0.0603), PlantParams(0.014, 1e308, 20)),
        # P*exp(-mu*T) = 1e200 * e^350 overflows, though e^350 alone does not
        (GbmParams(21.43, -0.5, 0.0603), PlantParams(0.014, 1e200, 700)),
    ],
    ids=["y0", "P", "drift-growth"],
)
def test_default_grid_ceiling_overflow_is_a_config_error(gbm, plant):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="y0=.*P=.*drift growth"):
            default_price_grid(gbm, plant)
        with pytest.raises(ConfigError, match="ceiling"):
            solve_boundary(gbm, plant, SolverConfig(samples_per_node=100))
        with pytest.raises(ConfigError, match="ceiling"):
            surface(gbm, plant.horizon, [1.0, plant.unit_profit])
    # Just below the largest float the default grid is still built.
    near = GbmParams(5e307, -0.0020, 0.0603)
    assert default_price_grid(near, PlantParams(0.014, 14.7, 20)).levels[-1] == 1.5e308


def test_solve_near_the_float_ceiling_raises_no_warning():
    # Continuation values near -1e308: their product overflowed when the
    # sign-change cells were found by multiplying neighbours.
    gbm = GbmParams(5e307, -0.0020, 0.0603)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, boundary = solve_boundary(gbm, PlantParams(0.014, 14.7, 20))
    assert np.isfinite(boundary.values).all()


@pytest.mark.parametrize("sigma", [2.26, 3.0, 1e100])
def test_default_grid_floor_underflow_is_a_config_error(sigma):
    # On table 1 the floor drops below the smallest normal float near sigma
    # 2.22, is subnormal at 2.26 and is 0.0 from 2.28 on.
    gbm = GbmParams(21.43, -0.0020, sigma)
    plant = PlantParams(0.014, 14.7, 246)
    with pytest.raises(ConfigError, match="sigma=.*T=246"):
        default_price_grid(gbm, plant)
    with pytest.raises(ConfigError, match="sigma"):
        solve_boundary(gbm, plant, SolverConfig(samples_per_node=100))
    # An explicit grid is not checked against the default floor.
    config = SolverConfig(
        samples_per_node=100, price_grid=geometric_price_grid(1.0, 30.0, 20)
    )
    assert solve_boundary(gbm, plant, config)[1].values[-1] == pytest.approx(14.7, rel=0.2)


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(samples_per_node=99)
    with pytest.raises(ConfigError):
        SolverConfig(grid_size=1)
    for samples in (MAX_SAMPLES + 1, 1e300):
        with pytest.raises(ConfigError, match="samples_per_node"):
            SolverConfig(samples_per_node=samples)
    for size in (MAX_GRID_SIZE + 1, 1e300):
        with pytest.raises(ConfigError, match="grid_size"):
            SolverConfig(grid_size=size)
    with pytest.raises(ConfigError, match="price_grid"):
        SolverConfig(price_grid=geometric_price_grid(1.0, 100.0, MAX_GRID_SIZE + 1))
    # a float count, integral or not, is refused here, not inside numpy
    for samples in (300.5, 2000.0):
        with pytest.raises(ConfigError, match="samples_per_node must be an integer"):
            SolverConfig(samples_per_node=samples)
    for size in (50.5, 200.0):
        with pytest.raises(ConfigError, match="grid_size must be an integer"):
            SolverConfig(grid_size=size)
    SolverConfig(samples_per_node=MAX_SAMPLES, grid_size=MAX_GRID_SIZE)
    SolverConfig(samples_per_node=np.int64(300), grid_size=np.int32(50))


def test_stop_tolerance_scaling():
    plant = PlantParams(0.014, 14.7, 246)
    config = SolverConfig()
    assert stop_tolerance(plant, config) == pytest.approx(1e-6 * 14.7 * 246)


@pytest.mark.parametrize("mu", [-5.0, 5.0])
def test_overflowing_drift_rejected(mu):
    # |mu|*T = 1230: e^{|mu| T} overflows a float, on a user grid as well
    gbm, plant = GbmParams(21.43, mu, 0.06), PlantParams(0.014, 14.7, 246)
    with pytest.raises(ConfigError, match="mu"):
        default_price_grid(gbm, plant)
    user_grid = geometric_price_grid(1.0, 100.0, 20)
    config = SolverConfig(samples_per_node=100, price_grid=user_grid)
    with pytest.raises(ConfigError, match="mu"):
        solve_boundary(gbm, plant, config)


# --- value lattice invariants -------------------------------------------


def test_basic_invariants():
    gbm, plant, config = small_case()
    grid = solve_backward(gbm, plant, config)
    assert (grid.U >= 0).all()
    assert (grid.U[-1] == 0).all()
    assert grid.U.shape == (31, 81)


def test_premium_monotone_in_price_per_slice():
    gbm, plant, config = small_case()
    grid = solve_backward(gbm, plant, config)
    for row in grid.U:
        assert (np.diff(row) <= 1e-12).all()


def test_solve_is_deterministic():
    gbm, plant, config = small_case(seed=5)
    a = solve_backward(gbm, plant, config)
    b = solve_backward(gbm, plant, config)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.G, b.G)
    c = solve_backward(gbm, plant, SolverConfig(
        samples_per_node=500, grid_size=80, seed=Seed(6)))
    assert not np.array_equal(a.U, c.U)


def test_boundary_invariant_under_emission_rate():
    gbm, plant, config = small_case()
    shared = SolverConfig(
        samples_per_node=500,
        grid_size=80,
        seed=Seed(0),
        price_grid=default_price_grid(gbm, plant, config.grid_size),
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
    assert (high.values >= low.values - 1e-12).all()


# --- degenerate closed form ---------------------------------------------


def test_zero_vol_premium_matches_closed_form():
    # with sigma = 0 the recursion telescopes to
    # U(t, y) = max(0, (T - t) * (P - y * exp(mu * (T - t)))).
    gbm = GbmParams(21.43, -0.0020, 0.0)
    plant = PlantParams(0.014, 14.7, 30)
    config = SolverConfig(samples_per_node=200, grid_size=120, seed=Seed(0))
    grid = solve_backward(gbm, plant, config)
    levels = grid.price_grid.levels
    for i, t in enumerate(grid.times):
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
    assert np.isinf(boundary.values).all()


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


def test_boundary_csv_golden_text(tmp_path):
    boundary = Boundary(
        times=np.array([0.0, 0.5, 2.0, 246.0]),
        values=np.array([12.3456789, np.inf, 1e-7, 1e6]),
        lower_bounds=np.array([1e-7, 12.3456789, 1e6, 0.0]),
    )
    out = tmp_path / "boundary.csv"
    boundary.to_csv(out)
    assert out.read_bytes() == (
        b"t,b,status,lower_bound\r\n"
        b"0,12.3457,FOUND,1e-07\r\n"
        b"0.5,,ABOVE_GRID,12.3457\r\n"
        b"2,1e-07,FOUND,1e+06\r\n"
        b"246,1e+06,FOUND,0\r\n"
    )


@pytest.mark.parametrize("sigma", [0.0603, 0.0], ids=["table1", "zero-vol"])
def test_value_grid_matches_per_node_calls(sigma):
    # G is filled with one immediate_value call per node and the bounds
    # with one lower_bound call per time; the same calls on numpy scalars
    # must give the same bits.
    gbm = GbmParams(21.43, -0.0020, sigma)
    plant = PlantParams(0.014, 14.7, 246)
    grid, boundary = solve_boundary(gbm, plant, SolverConfig(seed=Seed(3)))
    times, levels = grid.times, grid.price_grid.levels
    G = np.array([[immediate_value(plant, gbm, t, y) for y in levels] for t in times])
    lbs = np.array([lower_bound(plant, gbm, t) for t in times])

    def bits(a):
        return np.asarray(a, dtype=float).view(np.uint64)

    assert np.array_equal(bits(grid.G), bits(G))
    assert np.array_equal(bits(boundary.lower_bounds), bits(lbs))


@pytest.mark.parametrize("samples", [200, 2000, 8000])
def test_solve_keeps_about_one_lattice_beside_its_result(samples):
    # The result holds U and G; a third stored lattice would put the peak
    # near three times U.  The slices are drawn in blocks of 40, 4 and 1 at
    # these sample counts, and no block may set the peak.
    gbm = GbmParams(21.43, -0.0020, 0.0603)
    plant = PlantParams(0.014, 14.7, 246)
    # numpy imports numpy.random (and with it secrets, hashlib, ...) on first
    # use; do that before tracing, so that a first solve in the process
    # measures the solve and not the import.
    Seed(0).stream(0)
    tracemalloc.start()
    try:
        grid = solve_backward(gbm, plant, SolverConfig(samples_per_node=samples))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * grid.U.nbytes


# --- value queries -------------------------------------------------------


def test_value_at():
    gbm, plant, config = small_case()
    grid = solve_backward(gbm, plant, config)
    levels = grid.price_grid.levels
    u, v, g = value_at(grid, 0.0, float(levels[10]))
    assert u == pytest.approx(grid.U[0, 10])
    assert v == pytest.approx(plant.emission_rate * grid.U[0, 10] + grid.G[0, 10])
    assert g == pytest.approx(grid.G[0, 10])
    with pytest.raises(ConfigError):
        value_at(grid, 0.3, float(levels[10]))
    with pytest.raises(NumericError):
        value_at(grid, 0.0, float(levels[-1]) * 2)


# --- expectation operator -------------------------------------------------


def interp_expectation(C, log_factors, levels):
    """Reference operator: np.interp at every (level, draw) pair, clamped to
    the edge values outside the grid, then max(0, .) and the sample mean."""
    candidates = levels[:, None] * np.exp(log_factors)[None, :]
    return np.maximum(0.0, np.interp(candidates, levels, C)).mean(axis=1)


@st.composite
def operator_cases(draw):
    n = draw(st.integers(2, 40))
    h = draw(st.floats(1e-3, 0.7))
    levels = PriceGrid(draw(st.floats(1e-2, 1e2)) * np.exp(h * np.arange(n))).levels
    # Log-factors reach up to twice the grid's span past either edge; some
    # land exactly on a level (zero upper weight).
    reach = 2.0 * n * h
    log_factors = draw(st.lists(
        st.one_of(st.floats(-reach, reach),
                  st.integers(-2 * n, 2 * n).map(lambda m: m * h)),
        min_size=1, max_size=80,
    ))
    magnitudes = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(
        ["positive", "negative", "monotone", "alternating", "mixed"]))
    if kind == "positive":
        C = magnitudes
    elif kind == "negative":
        C = -magnitudes
    elif kind == "monotone":  # decreasing, crossing zero somewhere or nowhere
        C = np.sort(magnitudes)[::-1] - draw(st.floats(0.0, 1e3))
    elif kind == "alternating":  # a sign change in every cell
        C = magnitudes * (-1.0) ** np.arange(n)
    else:
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        C = magnitudes * np.array(signs)
    return levels, np.array(log_factors), C


@settings(deadline=None, max_examples=300)
@given(case=operator_cases())
def test_stencil_operator_matches_interp(case):
    levels, log_factors, C = case
    [stencil] = _Stencil.build(log_factors[None], PriceGrid(levels).log_step, len(levels))
    got = stencil.expected_positive_part(C)
    want = interp_expectation(C, log_factors, levels)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(C).max()


@settings(deadline=None, max_examples=100)
@given(case=operator_cases(), scales=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
def test_one_stencil_applies_to_many_continuations(case, scales):
    # A stencil built once and applied to several C gives, for each, the
    # bits of a stencil built afresh for that C alone.
    levels, log_factors, C = case
    log_step, n = PriceGrid(levels).log_step, len(levels)
    [kept] = _Stencil.build(log_factors[None], log_step, n)
    for scale in [1.0, *scales]:
        shifted = C * scale + np.roll(C, 1)
        [fresh] = _Stencil.build(log_factors[None], log_step, n)
        fresh = fresh.expected_positive_part(shifted)
        assert np.array_equal(kept.expected_positive_part(shifted), fresh)


def test_draw_cache_holds_one_entry_per_key_and_serves_only_its_inputs(streams):
    # Each variant differs from the first in one input that a slice depends
    # on; "grid size" has the log step of "grid step" and twice its levels.
    gbm, plant, config = small_case()
    step = geometric_price_grid(1.0, 100.0, config.grid_size)
    size = geometric_price_grid(1.0, 1e4, 2 * config.grid_size)
    assert step.log_step == size.log_step
    variants = [
        (gbm, config, 1.0),
        (gbm, replace(config, seed=Seed(config.seed.value + 1)), 1.0),
        (gbm, replace(config, samples_per_node=config.samples_per_node + 1), 1.0),
        (gbm, replace(config, price_grid=step), 1.0),
        (gbm, replace(config, price_grid=size), 1.0),
        (GbmParams(gbm.y0, gbm.mu, 2 * gbm.sigma), config, 1.0),
        (gbm, config, 0.5),
    ]
    shared = {}
    for market, settings, delta in variants:
        U = solve_backward(market, plant, settings, shared, delta).U
        assert same_bits(U, solve_backward(market, plant, settings, delta=delta).U)
    assert len(shared) == len(variants)

    streams.clear()
    shared = {}
    first = solve_backward(gbm, plant, config, shared).U
    second = solve_backward(gbm, plant, config, shared).U
    assert len(shared) == 1
    assert sorted(streams) == [(i,) for i in range(int(plant.horizon))]
    assert same_bits(first, second)


def test_zero_vol_solve_leaves_the_draw_cache_empty(streams):
    # The sigma = 0 branch is closed form: it neither files draws nor opens
    # a stream.
    gbm, plant, config = small_case()
    shared = {}
    grid = solve_backward(GbmParams(gbm.y0, gbm.mu, 0.0), plant, config, shared)
    assert shared == {}
    assert streams == []
    assert (grid.U > 0).any()


# --- solver invariants on small lattices ------------------------------------


@st.composite
def small_solves(draw, sigma=st.floats(0.005, 0.1)):
    gbm = GbmParams(draw(st.floats(5.0, 50.0)), draw(st.floats(-0.01, 0.01)),
                    draw(sigma))
    plant = PlantParams(draw(st.floats(1e-3, 0.1)), draw(st.floats(5.0, 40.0)),
                        draw(st.integers(2, 30)))
    config = SolverConfig(samples_per_node=draw(st.integers(100, 400)),
                          grid_size=draw(st.integers(2, 40)),
                          seed=Seed(draw(st.integers(0, 2**64 - 1))))
    return gbm, plant, config


@settings(deadline=None, max_examples=60)
@given(case=small_solves())
def test_stop_set_is_an_up_set_in_price(case):
    gbm, plant, config = case
    grid = solve_backward(gbm, plant, config)
    stops = (grid.U <= stop_tolerance(plant, config)).astype(int)
    assert (np.diff(stops, axis=1) >= 0).all()


@settings(deadline=None, max_examples=40)
@given(case=small_solves(), scale=st.floats(1e-3, 1e3))
def test_boundary_bitwise_invariant_under_emission_rate(case, scale):
    gbm, plant, config = case
    _, base = solve_boundary(gbm, plant, config)
    scaled = PlantParams(plant.emission_rate * scale, plant.unit_profit, plant.horizon)
    _, other = solve_boundary(gbm, scaled, config)
    assert np.array_equal(base.values, other.values)
    assert np.array_equal(base.lower_bounds, other.lower_bounds)


@settings(deadline=None, max_examples=40)
@given(case=small_solves(), steps=st.lists(st.floats(0.5, 10.0), min_size=1, max_size=3))
def test_boundary_nondecreasing_in_p_on_shared_grid(case, steps):
    gbm, plant, config = case
    p_values = plant.unit_profit + np.cumsum([0.0, *steps])
    B = surface(gbm, plant.horizon, p_values, config).B
    assert (B[:, 1:] >= B[:, :-1]).all()  # +inf (above the grid) compares too


@settings(deadline=None, max_examples=40)
@given(case=small_solves(sigma=st.just(0.0)))
# P - y*exp(mu*(T - t)) cancels to 0.06 at node (4, 17): an exp one ulp off
# there moves the difference by more than rtol
@example(case=(GbmParams(45.4375, -0.009925218551528264, 0.0),
               PlantParams(0.0625, 27.6875, 24),
               SolverConfig(samples_per_node=100, grid_size=38, seed=Seed(0))))
def test_zero_vol_solve_matches_closed_form(case):
    gbm, plant, config = case
    grid, boundary = solve_boundary(gbm, plant, config)
    levels = grid.price_grid.levels
    remaining = plant.horizon - grid.times
    # math.exp, as the solve takes it: np.exp may differ in the last bit
    growth = np.array([math.exp(gbm.mu * r) for r in remaining.tolist()])
    exact = remaining[:, None] * np.maximum(
        0.0, plant.unit_profit - levels * growth[:, None])
    assert np.allclose(grid.U, exact, rtol=1e-12, atol=0.0)
    for b, lb in zip(boundary.values, boundary.lower_bounds):
        j = int(np.searchsorted(levels, b))
        assert abs(b - lb) <= grid.price_grid.cell_width_at(j)


@settings(deadline=None, max_examples=100)
@given(
    case=small_solves(),
    cells=st.integers(20, 200),
    samples=st.integers(100, 1000),
    k=st.integers(1, 9),
)
def test_boundary_shifts_k_cells_when_p_scales_by_r_to_the_k(case, cells, samples, k):
    # The recursion is homogeneous of degree 1 in (y, P), so on one
    # log-uniform grid with ratio r and common draws the plant with P*r**k
    # stops exactly k levels above the plant with P.
    gbm, plant, config = case
    base = default_price_grid(gbm, plant, cells)
    r = math.exp(base.log_step)
    grid = PriceGrid(base.levels[0] * r ** np.arange(cells + k + 1))
    config = replace(config, samples_per_node=samples, price_grid=grid)
    scaled = PlantParams(plant.emission_rate, plant.unit_profit * r**k, plant.horizon)
    _, low = solve_boundary(gbm, plant, config)
    _, high = solve_boundary(gbm, scaled, config)
    found = np.isfinite(low.values)
    assert np.array_equal(np.isfinite(high.values), found)
    index = np.searchsorted(grid.levels, low.values[found])
    assert np.array_equal(np.searchsorted(grid.levels, high.values[found]), index + k)


def test_boundary_nonincreasing_in_mu_on_shared_grid():
    # With common normals, raising mu shifts every log factor up by
    # d_mu * delta; C stays nonincreasing in y through the interpolation and
    # the clamping, and the running term falls with mu.  So on one grid and
    # seed no row of b rises with mu.  (A larger sigma also lowers the
    # draws' log drift, so the order in sigma below is measured, not proven.)
    plant = PlantParams(0.014, 14.7, 246)
    gbms = [GbmParams(21.43, float(mu), 0.0603) for mu in np.linspace(-0.004, 0.001, 11)]
    spans = [default_price_grid(gbm, plant).levels for gbm in gbms]
    grid = geometric_price_grid(
        min(s[0] for s in spans), max(s[-1] for s in spans), solver.DEFAULT_GRID_SIZE
    )
    for seed in range(4):
        config = SolverConfig(samples_per_node=2000, seed=Seed(seed), price_grid=grid)
        B = np.array([solve_boundary(gbm, plant, config)[1].values for gbm in gbms])
        assert (B[1:] <= B[:-1]).all()  # +inf (above the grid) compares too


def test_boundary_nondecreasing_in_sigma_on_shared_grid_measured():
    # Measured only, unlike the mu order above: no argument shows that b
    # rises with sigma, since a larger sigma also lowers the draws' log drift
    # -sigma^2/2.  On table 1's plant and mu, one grid and seeds 0-3, no row
    # of b falls as sigma steps from 0.03 to 0.09 (6 steps x 247 times x 4
    # seeds = 5928 pairs).
    plant = PlantParams(0.014, 14.7, 246)
    gbms = [GbmParams(21.43, -0.0020, float(s)) for s in np.linspace(0.03, 0.09, 7)]
    spans = [default_price_grid(gbm, plant).levels for gbm in gbms]
    grid = geometric_price_grid(
        min(s[0] for s in spans), max(s[-1] for s in spans), solver.DEFAULT_GRID_SIZE
    )
    for seed in range(4):
        config = SolverConfig(samples_per_node=2000, seed=Seed(seed), price_grid=grid)
        B = np.array([solve_boundary(gbm, plant, config)[1].values for gbm in gbms])
        assert (B[1:] >= B[:-1]).all()  # +inf (above the grid) compares too


@pytest.mark.parametrize(
    "horizon, grid_size",
    [(1e12, 200), (1e300, 200), (1e7, 200), (3356, MAX_GRID_SIZE)],
)
def test_lattice_over_the_node_cap_is_refused_before_it_is_built(monkeypatch, horizon,
                                                                  grid_size):
    # 3357 times x 20001 levels is just over 2**26 nodes; the others would
    # ask numpy for GiB to TiB, or more than it can index.  Neither the times
    # nor the default price grid may be built first.
    def not_built(*args, **kwargs):
        raise AssertionError("an array was built before the lattice was checked")

    monkeypatch.setattr(np, "arange", not_built)
    monkeypatch.setattr(np, "geomspace", not_built)
    gbm, plant = GbmParams(21.43, 0.0, 0.0), PlantParams(0.014, 14.7, horizon)
    with pytest.raises(ConfigError, match="MAX_LATTICE_NODES") as info:
        solve_boundary(gbm, plant, SolverConfig(grid_size=grid_size))
    assert f"grid size {grid_size}" in str(info.value)
    assert f"T={horizon:g} at delta=1" in str(info.value)


def test_lattice_node_cap_counts_times_by_levels(monkeypatch):
    # T = 20 on an explicit 60-cell grid: 21 x 61 = 1281 nodes
    gbm, plant = GbmParams(21.43, -0.002, 0.0603), PlantParams(0.014, 14.7, 20)
    config = SolverConfig(samples_per_node=300, price_grid=geometric_price_grid(1, 100, 60))
    monkeypatch.setattr(solver, "MAX_LATTICE_NODES", 21 * 61)
    solve_boundary(gbm, plant, config)
    monkeypatch.setattr(solver, "MAX_LATTICE_NODES", 21 * 61 - 1)
    with pytest.raises(ConfigError, match="1281 lattice nodes"):
        solve_boundary(gbm, plant, config)
    assert MAX_LATTICE_NODES == 2**26


# --- the slice kernel against its first form, bit for bit -------------------
#
# `_Stencil.build`, `_Stencil.expected_positive_part` and the slice step of
# `solve_backward` work in place to save numpy calls and temporaries.  The
# functions below are those three as first written, one temporary per step;
# the kernel must give their bits, not merely their values.


def reference_build(log_factors, log_step, n):
    shift = np.clip(log_factors / log_step, -n, n)
    offsets = np.floor(shift)
    w = np.expm1((shift - offsets) * log_step) / math.expm1(log_step)
    lo, hi = int(offsets.min()), int(offsets.max())
    bins = offsets.astype(np.intp) - lo
    width = hi - lo + 2
    weights = np.bincount(bins, 1.0 - w, width) + np.bincount(bins + 1, w, width)
    return _Stencil(lo, bins.astype(np.min_scalar_type(width)), w, weights)


def reference_apply(stencil, C):
    n, lo, width = len(C), stencil.lo, len(stencil.weights)
    pos = np.maximum(C, 0.0)
    left, right = max(0, -lo), max(0, lo + width - 1)
    padded = np.concatenate([np.full(left, pos[0]), pos, np.full(right, pos[-1])])
    total = np.correlate(padded, stencil.weights, "valid")[lo + left : lo + left + n]
    w = stencil.w
    sign = np.sign(C)
    for i in (sign[:-1] * sign[1:] < 0).nonzero()[0]:
        excess = np.minimum(w * abs(C[i + 1]), (1.0 - w) * abs(C[i]))
        j = i - lo - np.arange(width - 1)
        inside = (j >= 0) & (j < n)
        total[j[inside]] -= np.bincount(stencil.bins, excess, width - 1)[inside]
    return total / len(w)


def reference_premium(gbm, plant, config, delta=1.0):
    """U of `solve_backward` (sigma > 0) on the default price grid, by the
    reference kernel and slice step, each slice drawn from its own stream."""
    grid = default_price_grid(gbm, plant, config.grid_size)
    n_steps = round(plant.horizon / delta)
    levels, times = grid.levels, np.arange(n_steps + 1) * delta
    remaining = plant.horizon - times
    drift, vol = gbm.log_increment(delta)
    p = plant.unit_profit
    U = np.zeros((len(times), len(levels)))
    C = np.zeros(len(levels))
    for i in range(n_steps - 1, -1, -1):
        z = config.seed.stream(i).standard_normal(config.samples_per_node)
        stencil = reference_build(drift + vol * z, grid.log_step, len(levels))
        cont = reference_apply(stencil, C)
        running = delta * (p - levels * math.exp(gbm.mu * remaining[i]))
        C = cont + running
        U[i] = np.maximum(0.0, C)
        if not np.all(np.isfinite(U[i])):
            raise NumericError(f"non-finite values in slice t={times[i]}")
    return U


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def kernel_cases(draw):
    """`operator_cases`, plus draws at and past n cells (clipped), signed
    zeros in C, and |C| up to about 1e303."""
    levels, log_factors, C = draw(operator_cases())
    n, h = len(levels), PriceGrid(levels).log_step
    edges = draw(st.lists(st.sampled_from([-3.0, -1.0, 1.0, 3.0]), max_size=4))
    log_factors = np.append(log_factors, np.array(edges) * n * h)
    zeros = draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=n, max_size=n))
    C = np.array([c if z is None else z for c, z in zip(C.tolist(), zeros)])
    return levels, log_factors, C * draw(st.sampled_from([1.0, 1e-300, 1e300]))


@settings(deadline=None, max_examples=500)
@given(case=kernel_cases())
def test_stencil_kernel_matches_its_reference_bit_for_bit(case):
    levels, log_factors, C = case
    log_step, n = PriceGrid(levels).log_step, len(levels)
    argument = log_factors.copy()
    [got] = _Stencil.build(log_factors[None], log_step, n)
    assert same_bits(log_factors, argument)
    want = reference_build(log_factors, log_step, n)
    assert got.lo == want.lo
    for name in ("bins", "w", "weights"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert same_bits(got.expected_positive_part(C), reference_apply(want, C))


@settings(deadline=None, max_examples=40)
@given(case=small_solves(), delta=st.sampled_from([1.0, 0.5, 0.2]))
def test_slice_step_matches_its_reference_bit_for_bit(case, delta):
    gbm, plant, config = case
    assert same_bits(solve_backward(gbm, plant, config, delta=delta).U,
                     reference_premium(gbm, plant, config, delta))


@pytest.mark.parametrize(
    "gbm, plant, delta",
    [(GbmParams(21.43, -0.0020, 0.0603), PlantParams(0.014, 14.7, 246), 1.0),
     (GbmParams(5e307, -0.0020, 0.0603), PlantParams(0.014, 14.7, 20), 1.0),
     (GbmParams(36.50, -0.0019, 0.0238), PlantParams(0.048, 14.5, 49), 4.9)],
    ids=["table1", "near-float-ceiling", "table2-in-steps-of-4.9"],
)
def test_default_solve_matches_its_reference_bit_for_bit(gbm, plant, delta):
    config = SolverConfig(seed=Seed(4))
    assert same_bits(solve_backward(gbm, plant, config, delta=delta).U,
                     reference_premium(gbm, plant, config, delta))


def signed_continuation(rng, n, kind):
    """A continuation C of n levels as `operator_cases` draws them, with
    some signed zeros."""
    magnitudes = rng.uniform(1e-3, 1e3, n)
    C = {
        "positive": magnitudes,
        "negative": -magnitudes,
        "monotone": np.sort(magnitudes)[::-1] - rng.uniform(0.0, 1e3),
        "alternating": magnitudes * (-1.0) ** np.arange(n),
        "mixed": magnitudes * rng.choice([-1.0, 1.0], n),
    }[kind]
    zeros = rng.random(n) < 0.1
    C[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return C


@st.composite
def block_cases(draw):
    """A block of 1 to 6 rows of log factors on one grid of up to 300 levels.

    Each row has its own centre and spread, so rows differ in lo and width;
    some draws land exactly on a level (zero upper weight), and some rows
    reach past both edges, where they clip at +-n cells to a width of
    2n + 2, over 255 (uint16 bins) from 127 levels on."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(127, 300)))
    h = draw(st.floats(1e-3, 0.7))
    levels = PriceGrid(draw(st.floats(1e-2, 1e2)) * np.exp(h * np.arange(n))).levels
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = draw(st.integers(1, 80))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        centre = draw(st.integers(-2 * n, 2 * n))
        spread = draw(st.sampled_from([0.0, 0.4, 3.0, 0.5 * n, 3.0 * n]))
        cells = centre + spread * rng.uniform(-1.0, 1.0, samples)
        if draw(st.booleans()):
            cells = np.round(cells)
        edges = draw(st.lists(st.sampled_from([-3.0, -1.0, 1.0, 3.0]), max_size=2))
        cells[: len(edges)] = np.array(edges)[:samples] * n
        rows.append(cells * h)
    kind = draw(st.sampled_from(
        ["positive", "negative", "monotone", "alternating", "mixed"]))
    C = signed_continuation(rng, n, kind) * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    return levels, np.array(rows), C


def wide_block():
    """Three rows on 300 levels: one clipped at both edges (uint16 bins),
    one narrow and one shifted up."""
    n, h = 300, 0.01
    rng = np.random.default_rng(5)
    cells = np.stack([rng.uniform(-2 * n, 2 * n, 64), rng.uniform(-3, 3, 64),
                      rng.uniform(40, 90, 64)])
    C = signed_continuation(rng, n, "mixed")
    return PriceGrid(20.0 * np.exp(h * np.arange(n))).levels, cells * h, C


@settings(deadline=None, max_examples=200)
@given(case=block_cases())
@example(case=wide_block())
def test_block_build_gives_each_row_the_bits_of_its_reference(case):
    levels, block, C = case
    log_step, n = PriceGrid(levels).log_step, len(levels)
    argument = block.copy()
    stencils = _Stencil.build(block, log_step, n)
    assert same_bits(block, argument)
    assert len(stencils) == len(block)
    for got, row in zip(stencils, block):
        want = reference_build(row, log_step, n)
        assert got.lo == want.lo
        for name in ("bins", "w", "weights"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert same_bits(got.expected_positive_part(C), reference_apply(want, C))


def test_wide_block_has_a_uint16_row():
    levels, block, _ = wide_block()
    stencils = _Stencil.build(block, PriceGrid(levels).log_step, len(levels))
    assert [s.bins.dtype for s in stencils] == [np.uint16, np.uint8, np.uint8]
    assert len({s.lo for s in stencils}) == 3


@pytest.mark.parametrize("samples", [200, 1000])
@pytest.mark.parametrize(
    "horizon",
    [lambda k: k - 7, lambda k: k, lambda k: k + 1, lambda k: 2 * k + 3],
    ids=["T<K", "T=K", "T=K+1", "T=2K+3"],
)
def test_solve_across_block_edges_matches_its_reference(streams, samples, horizon):
    # K slices a block: 40 at 200 samples, 8 at 1000.  The top block is full
    # and the last one holds what is left.  A standalone solve draws each
    # slice from its own stream exactly once.
    gbm = GbmParams(21.43, -0.0020, 0.0603)
    plant = PlantParams(0.014, 14.7, horizon(BLOCK_DRAWS // samples))
    config = SolverConfig(samples_per_node=samples, seed=Seed(7))
    U = solve_backward(gbm, plant, config).U
    assert sorted(streams) == [(i,) for i in range(int(plant.horizon))]
    assert same_bits(U, reference_premium(gbm, plant, config))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_slice_is_a_numeric_error(monkeypatch, bad):
    apply = _Stencil.expected_positive_part

    def spoiled(self, C):
        cont = apply(self, C)
        cont[3] = bad
        return cont

    monkeypatch.setattr(_Stencil, "expected_positive_part", spoiled)
    gbm, plant, config = small_case()
    with pytest.raises(NumericError, match=r"non-finite values in slice t=29\.0$"):
        solve_backward(gbm, plant, config)
