import math

import numpy as np
import pytest

from carbonstop import (
    ConfigError,
    GbmParams,
    LatticeSpec,
    PlantParams,
    Seed,
    SolverConfig,
    enumerate_policies,
    solve_backward,
    tree_solve,
    value_at,
)


def test_spec_validation():
    with pytest.raises(ConfigError):
        LatticeSpec(0, 1.0)
    with pytest.raises(ConfigError):
        LatticeSpec(3, 0.0)


def test_factors_match_log_increment():
    gbm = GbmParams(10.0, 0.01, 0.2)
    spec = LatticeSpec(4, 2.0)
    up, down = spec.factors(gbm)
    drift = (0.01 - 0.5 * 0.04) * 2.0
    vol = 0.2 * math.sqrt(2.0)
    assert up == pytest.approx(math.exp(drift + vol))
    assert down == pytest.approx(math.exp(drift - vol))
    assert spec.mean_factor(gbm) == pytest.approx(0.5 * (up + down))
    # mean and variance of the log increment are preserved exactly
    logs = np.log([up, down])
    assert logs.mean() == pytest.approx(drift)
    assert np.sqrt(((logs - drift) ** 2).mean()) == pytest.approx(vol)


def test_tree_requires_matching_horizon():
    gbm = GbmParams(10.0, 0.0, 0.1)
    plant = PlantParams(1.0, 10.0, 5)
    with pytest.raises(ConfigError):
        tree_solve(gbm, plant, LatticeSpec(4, 1.0))
    with pytest.raises(ConfigError):
        enumerate_policies(gbm, plant, LatticeSpec(4, 1.0))


def test_enumeration_cap():
    gbm = GbmParams(10.0, 0.0, 0.1)
    plant = PlantParams(1.0, 10.0, 5)
    with pytest.raises(ConfigError, match="capped"):
        enumerate_policies(gbm, plant, LatticeSpec(5, 1.0))


def test_tree_matches_enumeration_randomized():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        gbm = GbmParams(
            float(rng.uniform(5, 50)),
            float(rng.uniform(-0.05, 0.05)),
            float(rng.uniform(0.0, 0.3)),
        )
        plant = PlantParams(
            float(rng.uniform(0.01, 1.0)), float(rng.uniform(5, 50)), float(n)
        )
        spec = LatticeSpec(n, 1.0)
        solution = tree_solve(gbm, plant, spec)
        brute = enumerate_policies(gbm, plant, spec)
        assert solution.root_value == pytest.approx(brute, rel=1e-12)


def test_tree_zero_vol_is_bang_bang():
    # with sigma = 0 the reward is linear in the halt day, so the optimum is
    # an endpoint: produce through T iff P beats the deterministic price
    for mu, p in [(-0.01, 12.0), (0.01, 12.0), (0.0, 5.0)]:
        gbm = GbmParams(10.0, mu, 0.0)
        plant = PlantParams(0.5, p, 8)
        solution = tree_solve(gbm, plant, LatticeSpec(8, 1.0))
        y_terminal = 10.0 * math.exp(mu * 8)
        best = 0.5 * 8 * max(p, y_terminal)
        assert solution.root_value == pytest.approx(best, rel=1e-12)


def test_tree_premiums_nonnegative_and_terminal_zero():
    gbm = GbmParams(20.0, -0.01, 0.15)
    plant = PlantParams(0.1, 25.0, 6)
    solution = tree_solve(gbm, plant, LatticeSpec(6, 1.0))
    for row in solution.premiums:
        assert all(u >= 0 for u in row)
    assert all(u == 0 for u in solution.premiums[-1])


def test_monte_carlo_agrees_with_tree_in_continuation_region():
    # start price far below the boundary so the waiting premium is large and
    # a relative comparison of U is meaningful
    gbm = GbmParams(10.0, -0.0019, 0.0238)
    plant = PlantParams(0.048, 14.5, 49)
    solution = tree_solve(gbm, plant, LatticeSpec(10, 4.9))
    assert solution.root_premium > 100
    grid = solve_backward(
        gbm,
        plant,
        SolverConfig(seed=Seed(42), samples_per_node=50000),
        delta=4.9,
    )
    u, _, _ = value_at(grid, 0.0, 10.0)
    assert u == pytest.approx(solution.root_premium, rel=0.01)
