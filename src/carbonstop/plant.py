"""Plant economics: reward of a halt decision and its closed-form quantities.

A plant emits M tons of CO2 per trading day and earns P currency units per
ton emitted.  Halting production at day tau keeps the profit earned so far
and sells the unused allowance at the horizon price, giving the reward
M*P*tau + M*Y_T*(T - tau), which `reward` states; `immediate_value` is its
expectation given the price now.  (M, P) stay constant over the horizon.
An `Upgrade` is a separate value naming new (M, P) from a given trading day
on; `scenario.apply_upgrade` solves each side with constant parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .gbm import GbmParams


@dataclass(frozen=True)
class Upgrade:
    """A one-off technical upgrade changing the plant's (M, P)."""

    effective_day: float
    new_unit_profit: float  # P after the upgrade
    new_emission_rate: float  # M after the upgrade

    def __post_init__(self):
        if not (0 <= self.effective_day < math.inf):
            raise ConfigError("upgrade effective day must be finite and >= 0")
        if not (0 < self.new_unit_profit < math.inf):
            raise ConfigError("upgraded unit profit must be positive and finite")
        if not (0 < self.new_emission_rate < math.inf):
            raise ConfigError("upgraded emission rate must be positive and finite")


@dataclass(frozen=True)
class PlantParams:
    """Emission rate M, unit-carbon profit P and horizon T, all constant."""

    emission_rate: float  # M, tons CO2 per trading day
    unit_profit: float  # P, currency per ton CO2
    horizon: float  # T, trading days

    def __post_init__(self):
        if not (0 < self.emission_rate < math.inf):
            raise ConfigError("emission rate M must be positive and finite")
        if not (0 < self.unit_profit < math.inf):
            raise ConfigError("unit profit P must be positive and finite")
        if not (1 <= self.horizon < math.inf):
            raise ConfigError("horizon T must be finite and >= 1 trading day")


def reward(plant: PlantParams, tau: float, y_terminal: float) -> float:
    """Total profit of halting at day tau given terminal price y_terminal."""
    if not (0 <= tau <= plant.horizon):
        raise ConfigError(f"tau={tau} outside [0, {plant.horizon}]")
    m, p = plant.emission_rate, plant.unit_profit
    return m * p * tau + m * y_terminal * (plant.horizon - tau)


def immediate_value(plant: PlantParams, gbm: GbmParams, t: float, y: float) -> float:
    """Expected reward of halting right now at (t, y).

    Closed form: M*P*t + M*y*exp(mu*(T - t))*(T - t).
    """
    if not (0 <= t <= plant.horizon):
        raise ConfigError(f"t={t} outside [0, {plant.horizon}]")
    m, p = plant.emission_rate, plant.unit_profit
    remaining = plant.horizon - t
    return m * p * t + m * y * math.exp(gbm.mu * remaining) * remaining


def lower_bound(plant: PlantParams, gbm: GbmParams, t: float) -> float:
    """Price level P*exp(-mu*(T - t)) below which continuing is always optimal.

    Every stopping price, and hence the free boundary, lies at or above it.
    """
    return plant.unit_profit * math.exp(-gbm.mu * (plant.horizon - t))
