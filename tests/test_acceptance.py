"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v tests/test_acceptance.py`.  Each test pins the exact
parameter sets, seeds and tolerances it is graded against; nothing here is
loosened to accommodate solver noise.
"""
import math
import time

import numpy as np
import pytest

from carbonstop import (
    Boundary,
    GbmParams,
    LatticeSpec,
    PlantParams,
    Seed,
    SolverConfig,
    apply_upgrade,
    enumerate_policies,
    estimate_gbm,
    lower_bound,
    monitor,
    simulate_path,
    solve_backward,
    solve_boundary,
    surface,
    tree_solve,
    value_at,
)
from carbonstop.solver import stop_tolerance
from conftest import one_cell, tree_start_boundary


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: FAIL ({detail})"


# The paper prints b(0) = 36.8 for this case, but the recursion in README.md
# does not reach it: the exact tree gives 42.49 and a seed-free fine-grid
# quadrature 42.23, and 36.8 reappears only when the grid floor is raised to
# 12, where clamping biases the lattice low (README "Tests" has the numbers).
# So the b(0) reference is the tree's, computed below, with a band of one
# grid cell at it; PAPER_B0 only caps that band at ±5% of the paper's value.
PAPER_B0 = 36.8


def test_criterion_1_long_horizon_boundary_endpoints(table1):
    gbm, plant = table1
    config = SolverConfig(seed=Seed(0))  # defaults: 2000 samples, 200 levels
    start = time.perf_counter()
    grid, boundary = solve_boundary(gbm, plant, config)
    elapsed = time.perf_counter() - start

    b0, bT = boundary.values[0], boundary.values[-1]
    b0_tree = tree_start_boundary(
        gbm,
        plant,
        stop_tolerance(plant, config),
        lower_bound(plant, gbm, 0.0),
        float(grid.price_grid.levels[-1]),
    )
    cell = one_cell(grid, b0_tree)
    ok_time = elapsed <= 300
    ok_bT = abs(bT - 14.7) <= one_cell(grid, 14.7)
    ok_b0 = abs(b0 - b0_tree) <= cell <= 0.05 * PAPER_B0
    report(
        "criterion 1 (long-horizon boundary endpoints)",
        ok_time and ok_bT and ok_b0,
        f"b(0)={b0:.3f} vs tree {b0_tree:.3f}±{cell:.3f}, "
        f"b(T)={bT:.3f} vs 14.7±cell, {elapsed:.1f}s",
    )


def test_criterion_1_b0_within_one_cell_of_the_tree_for_seeds_0_to_11(table1):
    # Beside the seed-0 check above: at 8000 samples b(0) lands within one
    # cell of the tree's for every solver seed of 0-11.  (At the default
    # 2000 samples seeds 2, 4, 8 and 11 put it two cells up.)
    gbm, plant = table1
    b0s = []
    for seed in range(12):
        config = SolverConfig(samples_per_node=8000, seed=Seed(seed))
        grid, boundary = solve_boundary(gbm, plant, config)
        b0s.append(boundary.values[0])
    b0_tree = tree_start_boundary(
        gbm,
        plant,
        stop_tolerance(plant, config),
        lower_bound(plant, gbm, 0.0),
        float(grid.price_grid.levels[-1]),
    )
    cell = one_cell(grid, b0_tree)
    worst = max(abs(b0 - b0_tree) for b0 in b0s)
    report(
        "criterion 1 over solver seeds 0-11 at 8000 samples",
        worst <= cell <= 0.05 * PAPER_B0,
        f"b(0) in [{min(b0s):.3f}, {max(b0s):.3f}] vs tree {b0_tree:.3f}±{cell:.3f}",
    )


def test_criterion_2_boundary_lower_bound(table1, table2, table3):
    cases = [
        (table1[0], PlantParams(0.014, 14.7, 246)),
        (table2[0], PlantParams(0.048, 14.5, 49)),
        (table2[0], PlantParams(0.041, 17.2, 49)),
        (table3[0], PlantParams(0.040, 16.8, 60)),
        (table3[0], PlantParams(0.038, 17.1, 60)),
    ]
    violations = 0
    worst = 0.0
    for gbm, plant in cases:
        grid, boundary = solve_boundary(gbm, plant, SolverConfig(seed=Seed(0)))
        for i, t in enumerate(boundary.times):
            if boundary.status[i] != "FOUND":
                continue
            lb = lower_bound(plant, gbm, float(t))
            deficit = lb - boundary.values[i]
            cell = one_cell(grid, boundary.values[i])
            worst = max(worst, deficit / cell)
            if deficit > cell:
                violations += 1
    report(
        "criterion 2 (boundary never below the continuation bound)",
        violations == 0,
        f"0 tolerated, {violations} found; worst deficit {worst:.3f} cells",
    )


def test_criterion_3_oracle_equivalence(table2):
    gbm = table2[0]
    plant = PlantParams(0.048, 14.5, 49)

    # exhaustive-policy check on small recombining trees
    rng = np.random.default_rng(1)
    worst_enum = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        g = GbmParams(
            float(rng.uniform(5, 50)),
            float(rng.uniform(-0.05, 0.05)),
            float(rng.uniform(0.0, 0.3)),
        )
        pl = PlantParams(
            float(rng.uniform(0.01, 1.0)), float(rng.uniform(5, 50)), float(n)
        )
        spec = LatticeSpec(n, 1.0)
        dp = tree_solve(g, pl, spec).root_value
        brute = enumerate_policies(g, pl, spec)
        worst_enum = max(worst_enum, abs(dp - brute) / max(abs(brute), 1e-300))

    # Monte Carlo solver vs the exact tree on the reduced instance
    spec = LatticeSpec(10, 4.9)
    tree = tree_solve(gbm, plant, spec)
    grid = solve_backward(
        gbm, plant, SolverConfig(seed=Seed(42), samples_per_node=50000), delta=4.9
    )
    levels = grid.price_grid.levels
    q = spec.mean_factor(gbm)
    worst_v = 0.0
    worst_u = 0.0
    u_floor = stop_tolerance(plant, SolverConfig())
    for i in range(11):
        t = i * 4.9
        for y, u_tree in zip(tree.node_prices[i], tree.premiums[i]):
            if not (levels[0] <= y <= levels[-1]):
                continue
            u, v, _ = value_at(grid, t, y)
            m, p = plant.emission_rate, plant.unit_profit
            v_tree = m * u_tree + m * p * t + m * y * q ** (10 - i) * (49 - t)
            worst_v = max(worst_v, abs(v - v_tree) / abs(v_tree))
            if u_tree <= u_floor:
                worst_u = max(worst_u, u)

    ok = worst_enum <= 1e-12 and worst_v <= 0.02 and worst_u <= 1.0
    report(
        "criterion 3 (oracle equivalence)",
        ok,
        f"tree-vs-enumeration {worst_enum:.2e} (<=1e-12), "
        f"solver-vs-tree value {worst_v:.2e} (<=2e-2), "
        f"stray premium {worst_u:.2e}",
    )


def test_extracted_boundary_is_the_best_policy_on_fresh_paths(table1):
    """The extracted b(t) run forward as a stopping rule under the GBM.

    On each fresh path, halt at the first t with Y_t >= b(t) and earn
    M*P*t + M*Y_t*exp(mu*(T - t))*(T - t); a path that never halts earns
    M*P*T.  Any policy's mean is a lower bound on the optimal value, so the
    boundary's must lie within 3 SE of the lattice's V(0, y0), and the same
    boundary scaled by 0.8, 1.25 or 2 must earn less on the same paths, by
    more than 3 paired SE.
    """
    gbm, plant = table1
    grid, boundary = solve_boundary(gbm, plant, SolverConfig(samples_per_node=8000))
    v0 = value_at(grid, 0.0, gbm.y0)[1]
    m, p, n_steps = plant.emission_rate, plant.unit_profit, int(plant.horizon)
    times = boundary.times
    remaining = plant.horizon - times
    per_price = m * np.exp(gbm.mu * remaining) * remaining
    drift, vol = gbm.log_increment(1.0)
    scales = (1.0, 0.8, 1.25, 2.0)
    earned = {scale: [] for scale in scales}
    # 10 000 paths from streams the solver never draws, in chunks of 5 MB
    for chunk in range(4):
        steps = drift + vol * Seed(2021).stream(chunk).standard_normal((2500, n_steps))
        paths = np.empty((2500, n_steps + 1))
        paths[:, 0] = 0.0
        np.cumsum(steps, axis=1, out=paths[:, 1:])
        paths = gbm.y0 * np.exp(paths)
        rows = np.arange(len(paths))
        for scale in scales:
            halts = paths >= scale * boundary.values
            t = np.argmax(halts, axis=1)
            halt_value = m * p * times[t] + paths[rows, t] * per_price[t]
            earned[scale].append(np.where(halts.any(axis=1), halt_value, m * p * n_steps))
    earned = {scale: np.concatenate(values) for scale, values in earned.items()}

    def mean_and_se(values):
        return values.mean(), values.std(ddof=1) / math.sqrt(len(values))

    mean, se = mean_and_se(earned[1.0])
    gaps = {scale: mean_and_se(earned[1.0] - earned[scale]) for scale in scales[1:]}
    ok = abs(mean - v0) <= 3 * se and all(gap > 3 * se for gap, se in gaps.values())
    report(
        "out-of-sample policy",
        ok,
        f"policy {mean:.3f} +- {se:.3f} vs V(0, y0) {v0:.3f}; gaps "
        + ", ".join(f"x{s}: {gap:.3f} +- {se:.3f}" for s, (gap, se) in gaps.items()),
    )


def test_criterion_4_zero_volatility_closed_form(table1):
    gbm_base, plant = table1
    gbm = GbmParams(gbm_base.y0, gbm_base.mu, 0.0)
    config = SolverConfig(seed=Seed(0))
    grid, boundary = solve_boundary(gbm, plant, config)

    worst = 0.0
    for i, t in enumerate(boundary.times):
        lb = lower_bound(plant, gbm, float(t))
        cells = abs(boundary.values[i] - lb) / one_cell(grid, lb)
        worst = max(worst, cells)
    ok_curve = worst <= 1.0

    # bang-bang rule on the deterministic path: produce through T exactly
    # when P beats the horizon price y0 * exp(mu * T)
    path = gbm.y0 * np.exp(gbm.mu * boundary.times)
    wait_report = monitor(boundary, path)  # P=14.7 > 13.12 -> never halt early

    poor = PlantParams(plant.emission_rate, 10.0, plant.horizon)  # P < 13.12
    _, poor_boundary = solve_boundary(gbm, poor, config)
    halt_report = monitor(poor_boundary, path)

    ok_rule = (not wait_report.crossed) and halt_report.crossing_index == 0
    report(
        "criterion 4 (zero-volatility closed form)",
        ok_curve and ok_rule,
        f"max |b - P*exp(-mu*(T-t))| = {worst:.3f} cells (<=1), "
        f"halt-now iff P below horizon price: {ok_rule}",
    )


def test_criterion_5_structural_invariants():
    rng = np.random.default_rng(7)
    draws = 100
    for k in range(draws):
        horizon = float(rng.integers(4, 11))
        gbm = GbmParams(
            float(rng.uniform(2, 50)),
            float(rng.uniform(-0.05, 0.05)),
            float(rng.uniform(0.0, 0.3)),
        )
        m = float(rng.uniform(0.01, 2.0))
        p = float(rng.uniform(2, 50))
        plant = PlantParams(m, p, horizon)
        config = SolverConfig(samples_per_node=128, grid_size=40, seed=Seed(k))
        shared = SolverConfig(
            samples_per_node=128,
            grid_size=40,
            seed=Seed(k),
            price_grid=config.resolve_grid(gbm, plant),
        )

        grid, boundary = solve_boundary(gbm, plant, shared)
        assert (grid.U >= 0).all(), f"draw {k}: negative premium, V = M*U + G < G"
        assert (grid.U[-1] == 0).all(), f"draw {k}: nonzero terminal premium"

        tol = stop_tolerance(plant, shared)
        for row in grid.U:
            indicator = (row <= tol).astype(int)
            assert (np.diff(indicator) >= 0).all(), f"draw {k}: non-monotone stop set"

        _, scaled = solve_boundary(gbm, PlantParams(5 * m, p, horizon), shared)
        assert np.array_equal(
            boundary.values, scaled.values, equal_nan=True
        ), f"draw {k}: boundary moved under emission-rate scaling"

        _, richer = solve_boundary(gbm, PlantParams(m, 1.3 * p, horizon), shared)
        gap = richer.values - boundary.values
        assert (gap >= -1e-12).all(), f"draw {k}: boundary fell as P rose"

    report(
        "criterion 5 (structural invariants)",
        True,
        f"{draws} randomized draws, all invariants held",
    )


def test_criterion_6_upgrade_lifts_boundary(table2, table3):
    details = []
    ok = True
    config = SolverConfig(seed=Seed(42))
    for name, case in (("mid-horizon", table2), ("short-horizon", table3)):
        before, after, _ = apply_upgrade(*case, config)
        gap = after.values - before.values
        pointwise = bool((gap >= -1e-12).all())
        strict = bool((gap > 1e-12).any())
        ok = ok and pointwise and strict
        details.append(
            f"{name}: pointwise>={pointwise}, strict somewhere={strict}, "
            f"max lift {np.nanmax(gap[np.isfinite(gap)]):.2f}"
        )
    report("criterion 6 (upgrade lifts the boundary)", ok, "; ".join(details))


def test_criterion_7_profit_sweep_surface():
    gbm = GbmParams(40.0, -0.0014, 0.0805)
    config = SolverConfig(samples_per_node=8000, seed=Seed(42))
    start = time.perf_counter()
    surf = surface(gbm, 150, range(10, 41, 2), config)
    elapsed = time.perf_counter() - start

    finite = np.isfinite(surf.B).all()
    p_ok = bool((np.diff(surf.B, axis=1) >= -1e-12).all())
    t_steps = np.diff(surf.B, axis=0)
    t_ok = bool((t_steps <= 1e-12).all())
    strict_ok = bool((surf.B[-1] < surf.B[0] - 1e-12).all())
    ok = finite and p_ok and t_ok and strict_ok and elapsed <= 1800
    report(
        "criterion 7 (halt surface monotone in profit and time)",
        ok,
        f"nondecreasing in p: {p_ok}, nonincreasing in t: {t_ok}, "
        f"strict overall decay: {strict_ok}, {elapsed:.0f}s (<=1800)",
    )


def test_criterion_8_estimator_recovery():
    mu, sigma = 0.0005, 0.02
    steps = 10000
    log_drift = mu - 0.5 * sigma**2
    se = sigma / math.sqrt(steps)
    worst_mu = 0.0
    worst_sigma = 0.0
    for seed in range(5):
        path = simulate_path(GbmParams(20.0, mu, sigma), steps, seed=Seed(seed))
        returns = np.diff(np.log(path))
        est = estimate_gbm(returns)
        worst_mu = max(worst_mu, abs(est.mu - log_drift) / se)
        worst_sigma = max(worst_sigma, abs(est.sigma - sigma) / sigma)
    ok = worst_mu <= 3.0 and worst_sigma <= 0.03
    report(
        "criterion 8 (estimator recovery)",
        ok,
        f"worst log-drift error {worst_mu:.2f} SE (<=3), "
        f"worst volatility error {worst_sigma:.2%} (<=3%)",
    )


def test_determinism_byte_identical(table2, tmp_path):
    gbm, plant, upgrade = table2
    config = SolverConfig(seed=Seed(123))
    outputs = []
    for run in range(2):
        data = b""
        for name, boundary in zip(
            ("before", "after", "composite"), apply_upgrade(gbm, plant, upgrade, config)
        ):
            path = tmp_path / f"run{run}_{name}.csv"
            boundary.to_csv(path)
            data += path.read_bytes()
        outputs.append(data)
    report(
        "determinism (same seed, same bytes)",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes compared",
    )
