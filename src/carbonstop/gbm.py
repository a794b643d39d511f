"""Geometric Brownian motion price process with reproducible sampling.

All randomness flows through numpy's PCG64 generator seeded from a
SeedSequence built on (master seed, stream index).  Normal draws use
``Generator.standard_normal`` (ziggurat); the sampler choice is fixed so
that documented example values stay stable across runs.
"""
from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError


@dataclass(frozen=True)
class GbmParams:
    """Initial price and per-trading-day drift/volatility."""

    y0: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not (0 < self.y0 < math.inf):
            raise ConfigError(f"y0 must be positive and finite, got {self.y0}")
        if not math.isfinite(self.mu):
            raise ConfigError(f"mu must be finite, got {self.mu}")
        if not (0 <= self.sigma < math.inf):
            raise ConfigError(f"sigma must be nonnegative and finite, got {self.sigma}")


def check_drift(params: GbmParams, horizon: float) -> None:
    """Refuse a drift whose growth e^{|mu| T} over the horizon exceeds half the
    float exponent range, so that a price times it cannot overflow."""
    exponent = abs(params.mu) * horizon
    if exponent > 0.5 * math.log(sys.float_info.max):
        raise ConfigError(f"|mu|*T = {exponent:.4g} is too large: prices overflow")


@dataclass(frozen=True)
class Seed:
    """Master seed, a 64-bit unsigned integer."""

    value: int = 0

    def __post_init__(self):
        if not (0 <= self.value < 2**64):
            raise ConfigError(f"seed must fit in u64, got {self.value}")

    def stream(self, *indices: int) -> np.random.Generator:
        """Deterministic child generator for a given stream index tuple."""
        ss = np.random.SeedSequence([self.value, *indices])
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class PathGrid:
    """A sampled price path on a uniform time grid."""

    dt: float
    values: np.ndarray  # length steps + 1, all positive

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step", "price"])
            for i, v in enumerate(self.values):
                writer.writerow([i, f"{v:.6g}"])


def exact_step(y: float, params: GbmParams, dt: float, z: float) -> float:
    """One exact GBM transition: y * exp((mu - sigma^2/2) dt + sigma sqrt(dt) z)."""
    if not (y > 0):
        raise NumericError(f"price must be positive, got {y}")
    if not (dt > 0):
        raise NumericError(f"dt must be positive, got {dt}")
    drift = (params.mu - 0.5 * params.sigma**2) * dt
    return y * math.exp(drift + params.sigma * math.sqrt(dt) * z)


def simulate_path(
    params: GbmParams, steps: int, dt: float = 1.0, seed: Seed = Seed(0)
) -> PathGrid:
    """Simulate a path of `steps` exact GBM transitions from y0.

    The same (params, steps, dt, seed) always yields the identical path.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    z = seed.stream(0).standard_normal(steps)
    drift = (params.mu - 0.5 * params.sigma**2) * dt
    increments = drift + params.sigma * math.sqrt(dt) * z
    log_path = math.log(params.y0) + np.concatenate([[0.0], np.cumsum(increments)])
    return PathGrid(dt=dt, values=np.exp(log_path))


def expected_price(params: GbmParams, t: float) -> float:
    """E[Y_t] = y0 * exp(mu * t)."""
    if t < 0:
        raise ConfigError(f"t must be nonnegative, got {t}")
    return params.y0 * math.exp(params.mu * t)
