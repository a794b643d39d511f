"""The benchmark's checks reject wrong outputs, and its counts are right.

Run from the repository root:

    PYTHONPATH=src:. python3 -m pytest -q perfbench/test_checks.py
"""
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from carbonstop import (GbmParams, LatticeSpec, PlantParams, Seed, SolverConfig,
                        geometric_price_grid, lower_bound, solve_boundary, tree_solve)
import carbonstop.solver as solver
from carbonstop.solver import stop_tolerance
from perfbench import checks
from perfbench.tracing import Tracer
from perfbench.workloads import TABLE1, _gbm, _plant, grid_levels

LEVELS = np.geomspace(1.0, 100.0, 201)
TIMES = np.arange(11.0)


def on_grid(values):
    """Each value moved up to the first grid level at or above it."""
    return LEVELS[np.searchsorted(LEVELS, values)]


def shift(values, i, cells):
    out = values.copy()
    out[i] = LEVELS[np.searchsorted(LEVELS, out[i]) + cells]
    return out


@pytest.fixture(scope="module")
def table1():
    gbm, plant = _gbm(TABLE1["gbm"]), _plant(TABLE1["plant"])
    levels = grid_levels(gbm, [plant])
    reference = checks.tree_b0(gbm.mu, gbm.sigma, plant.unit_profit, 246,
                               stop_tolerance(plant, SolverConfig()),
                               lower_bound(plant, gbm, 0.0), levels[-1])
    return gbm, plant, levels, reference


def test_tree_agrees_with_the_lattice_oracle(table1):
    gbm, plant, _, reference = table1
    for y0 in (30.0, 42.0, 50.0):
        ours = checks.tree_premium(y0, gbm.mu, gbm.sigma, plant.unit_profit, 246)
        oracle = tree_solve(GbmParams(y0, gbm.mu, gbm.sigma), plant, LatticeSpec(246, 1.0))
        assert ours == pytest.approx(oracle.root_premium, rel=1e-9, abs=1e-9)
    assert reference == pytest.approx(42.490, abs=1e-3)


def test_b0_check_accepts_the_default_grid_and_rejects_a_floor_12_grid(table1):
    gbm, plant, levels, reference = table1
    _, default = solve_boundary(gbm, plant, SolverConfig(seed=Seed(0)))
    assert checks.b0_matches_tree(default.values[0], reference, levels) == []
    floor12 = geometric_price_grid(12.0, 72.1, 200)
    _, low = solve_boundary(gbm, plant, SolverConfig(seed=Seed(0), price_grid=floor12))
    assert low.values[0] == pytest.approx(36.805, abs=1e-3)
    assert checks.b0_matches_tree(low.values[0], reference, levels)


def test_on_grid_check():
    values = np.append(on_grid(np.array([14.7, 20.0])), math.inf)
    assert checks.on_grid(values, LEVELS) == []
    assert checks.on_grid(values * 1.001, LEVELS)


def test_terminal_check():
    values = on_grid(np.full(len(TIMES), 14.7))
    assert checks.terminal_at_p(values, 14.7, LEVELS) == []
    assert checks.terminal_at_p(shift(values, -1, 2), 14.7, LEVELS)


def test_lower_bound_check():
    lower = 14.7 * np.exp(0.002 * (10 - TIMES))
    values = on_grid(lower)
    values[3] = math.inf  # unfound levels are never below the bound
    assert checks.above_lower_bound(TIMES, values, lower, LEVELS) == []
    assert checks.above_lower_bound(TIMES, shift(values, 5, -2), lower, LEVELS)


def test_zero_volatility_check():
    closed = 14.7 * np.exp(0.002 * (10 - TIMES))
    values = on_grid(closed)
    assert checks.closed_form_matches(TIMES, values, closed, LEVELS) == []
    assert checks.closed_form_matches(TIMES, shift(values, 4, 2), closed, LEVELS)
    values[4] = math.inf
    assert checks.closed_form_matches(TIMES, values, closed, LEVELS)


def _rows(values):
    return [[f"{t:g}", f"{b:.6g}", "FOUND", "1"] for t, b in zip(TIMES, values)]


def test_upgrade_check():
    before = on_grid(np.linspace(30.0, 14.5, len(TIMES)))
    after = on_grid(np.linspace(34.0, 17.2, len(TIMES)))
    day = 4

    def verdict(before, after, composite_day=day):
        composite = [a if t >= composite_day else b
                     for t, a, b in zip(TIMES, _rows(after), _rows(before))]
        return checks.upgrade_consistent(TIMES, before, after, _rows(before), _rows(after),
                                         composite, day)

    assert verdict(before, after) == []
    assert verdict(before, np.where(TIMES == 6, before[6] - 1, after))  # falls below
    assert verdict(before, before.copy())  # never rises
    assert verdict(before, after, composite_day=day + 1)  # stitched a day late


def test_surface_checks():
    p = np.arange(10.0, 41.0, 2.0)
    B = p[None, :] * np.exp(0.0014 * (10 - TIMES))[:, None]
    B[0, -1] = math.inf
    assert checks.surface_monotone_in_p(B) == []
    assert checks.surface_decays(B) == []
    swapped = B.copy()
    swapped[:, [3, 4]] = swapped[:, [4, 3]]
    assert checks.surface_monotone_in_p(swapped)
    flat = B.copy()
    flat[-1, 2] = flat[0, 2]
    assert checks.surface_decays(flat)


def test_min_survival_check():
    p = np.array([10.0, 12.0, 14.0])
    row = np.array([40.0, 46.0, math.inf])
    assert checks.min_survival_matches(row, p, 45.0, 12.0) == []
    assert checks.min_survival_matches(row, p, 45.0, 14.0)
    assert checks.min_survival_matches(row, p, 50.0, 14.0) == []
    assert checks.min_survival_matches(row, p, 45.0, None)
    assert checks.min_survival_matches(np.array([40.0, 41.0, 42.0]), p, 45.0, None) == []


def test_crossing_check():
    b = np.array([40.0, 38.0, 36.0, math.inf, 30.0])
    prices = [30.0, 35.0, 37.0, 50.0, 31.0]
    assert checks.crossing_matches(b, prices, 2) == []
    assert checks.crossing_matches(b, prices, 4)
    assert checks.crossing_matches(b, prices, None)
    assert checks.crossing_matches(b, [30.0, 35.0], None) == []
    assert checks.crossing_matches(b, [30.0, 35.0], 1)
    # within the CSV's 6-digit rounding either answer stands
    near = [30.0, 38.0 * (1 - 1e-6), 37.0]
    assert checks.crossing_matches(b, near, 1) == []
    assert checks.crossing_matches(b, near, 2) == []


def test_calibration_check():
    n, mu, sigma = 400, -0.0030, 0.055
    assert checks.calibration_within_se(mu, sigma, mu, sigma, n) == []
    assert checks.calibration_within_se(mu + 4 * sigma / math.sqrt(n), sigma, mu, sigma, n)
    assert checks.calibration_within_se(mu, sigma * (1 + 4 / math.sqrt(2 * n)), mu, sigma, n)


def test_tracer_counts_one_solve():
    gbm, plant = GbmParams(40.25, 0.0007, 0.06), PlantParams(0.04, 16.8, 30)
    tracer = Tracer()
    tracer.install()
    try:
        grid, _ = solver.solve_boundary(gbm, plant, SolverConfig(samples_per_node=100,
                                                                 grid_size=20))
    finally:
        tracer.uninstall()
    n_times, n_levels = grid.U.shape
    layers = tracer.layer_metrics()
    assert layers["solver.solves"] == 1
    assert layers["plant.immediate_value_calls"] == n_times * n_levels
    assert layers["plant.lower_bound_calls"] == n_times
    assert layers["gbm.streams"] == n_times - 1
    assert 0 < layers["solver.backward_self_s"] < tracer.spans[-1].seconds


def test_run_fails_without_the_sources(tmp_path):
    root = Path(__file__).resolve().parents[1]
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cases",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
