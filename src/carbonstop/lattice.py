"""Small exact solvers used to validate the Monte Carlo recursion.

The Brownian increment over one step is replaced by a symmetric two-point
variable (+1/-1 with equal probability), which preserves the mean and
variance of the log-price increment and yields a recombining tree.  The
tree is a model in its own right: its reward terms use the tree's own
conditional expectation of the terminal price, so exhaustive policy
enumeration must match the dynamic program to machine precision.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ConfigError
from .gbm import GbmParams
from .plant import PlantParams, reward

ENUMERATION_MAX_STEPS = 4


@dataclass(frozen=True)
class LatticeSpec:
    """Recombining two-point discretization of the price process."""

    n_steps: int
    delta: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if not (self.delta > 0):
            raise ConfigError("delta must be positive")

    def factors(self, gbm: GbmParams) -> tuple[float, float]:
        """(up, down) multipliers matching the one-step log increment."""
        drift, spread = gbm.log_increment(self.delta)
        return math.exp(drift + spread), math.exp(drift - spread)

    def mean_factor(self, gbm: GbmParams) -> float:
        up, down = self.factors(gbm)
        return 0.5 * (up + down)


@dataclass(frozen=True)
class TreeSolution:
    """Exact backward induction results on the lattice."""

    root_premium: float  # U(0, y0)
    root_value: float  # V(0, y0) = M * U + G
    premiums: tuple[tuple[float, ...], ...]  # U per step, per node (ascending y)
    node_prices: tuple[tuple[float, ...], ...]


def tree_solve(gbm: GbmParams, plant: PlantParams, spec: LatticeSpec) -> TreeSolution:
    """Deterministic backward induction on the recombining tree.

    Node children are exact lattice nodes, so no interpolation is involved;
    the only approximation relative to the continuous model is the two-point
    increment itself.
    """
    if abs(spec.n_steps * spec.delta - plant.horizon) > 1e-9:
        raise ConfigError("n_steps * delta must equal the plant horizon")
    up, down = spec.factors(gbm)
    q = spec.mean_factor(gbm)
    n = spec.n_steps
    delta = spec.delta
    p = plant.unit_profit

    prices = [
        tuple(gbm.y0 * down ** (i - k) * up**k for k in range(i + 1))
        for i in range(n + 1)
    ]

    premiums: list[tuple[float, ...]] = [()] * (n + 1)
    premiums[n] = tuple(0.0 for _ in prices[n])
    for i in range(n - 1, -1, -1):
        nxt = premiums[i + 1]
        row = []
        for k, y in enumerate(prices[i]):
            cont = 0.5 * (nxt[k] + nxt[k + 1])
            running = delta * (p - y * q ** (n - i))
            row.append(max(0.0, cont + running))
        premiums[i] = tuple(row)

    root_u = premiums[0][0]
    m = plant.emission_rate
    # G(0, y0): the allowance sold at the tree's expected terminal price.
    root_v = m * root_u + m * gbm.y0 * q**n * plant.horizon
    return TreeSolution(
        root_premium=root_u,
        root_value=root_v,
        premiums=tuple(premiums),
        node_prices=tuple(prices),
    )


def enumerate_policies(
    gbm: GbmParams, plant: PlantParams, spec: LatticeSpec
) -> float:
    """Optimal expected reward by brute force over all stopping rules.

    A rule is a stop/continue label per non-terminal lattice node (stopping
    is forced at T).  Every path of up/down moves is equally likely; the
    allowance is always sold at the path's terminal price.
    """
    if spec.n_steps > ENUMERATION_MAX_STEPS:
        raise ConfigError(
            f"enumeration capped at n_steps <= {ENUMERATION_MAX_STEPS}"
        )
    if abs(spec.n_steps * spec.delta - plant.horizon) > 1e-9:
        raise ConfigError("n_steps * delta must equal the plant horizon")
    up, down = spec.factors(gbm)
    n = spec.n_steps
    delta = spec.delta

    nodes = [(i, k) for i in range(n) for k in range(i + 1)]
    paths = list(itertools.product((0, 1), repeat=n))  # 1 = up move

    best = -math.inf
    for labels in itertools.product((False, True), repeat=len(nodes)):
        stop_at = dict(zip(nodes, labels))
        total = 0.0
        for path in paths:
            k = 0
            tau = plant.horizon
            for i in range(n):
                if stop_at[(i, k)]:
                    tau = i * delta
                    break
                k += path[i]
            ups = sum(path)
            y_terminal = gbm.y0 * up**ups * down ** (n - ups)
            total += reward(plant, tau, y_terminal)
        value = total / len(paths)
        best = max(best, value)
    return best
