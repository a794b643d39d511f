"""Geometric Brownian motion price process with reproducible sampling.

`GbmParams.log_increment` states the one-step law of log(Y_{t+dt}/Y_t),
normal with mean (mu - sigma^2/2) dt and sd sigma sqrt(dt); the sampler,
the solver, its default grid and the tree oracle all read it from there.

All randomness flows through numpy's PCG64 generator seeded from a
SeedSequence built on (master seed, stream index).  Normal draws use
``Generator.standard_normal`` (ziggurat); the sampler choice is fixed so
that documented example values stay stable across runs.
"""
from __future__ import annotations

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
        if self.sigma > math.sqrt(sys.float_info.max):
            raise ConfigError(f"sigma={self.sigma} is too large: its square overflows")

    def log_increment(self, dt: float) -> tuple[float, float]:
        """(mean, sd) of the normal log(Y_{t+dt}/Y_t): ((mu - sigma^2/2) dt,
        sigma sqrt(dt))."""
        return (self.mu - 0.5 * self.sigma**2) * dt, self.sigma * math.sqrt(dt)


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


def simulate_path(
    params: GbmParams, steps: int, dt: float = 1.0, seed: Seed = Seed(0)
) -> np.ndarray:
    """Prices y0, Y_dt, ..., Y_{steps*dt} of `steps` exact GBM transitions.

    The same (params, steps, dt, seed) always yields the identical path.  A
    path that underflows to 0 or overflows to inf is a NumericError.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    z = seed.stream(0).standard_normal(steps)
    mean, sd = params.log_increment(dt)
    increments = mean + sd * z
    log_path = math.log(params.y0) + np.concatenate([[0.0], np.cumsum(increments)])
    with np.errstate(over="ignore"):  # refused below, naming the step
        path = np.exp(log_path)
    bad = np.flatnonzero(~(path > 0) | np.isinf(path))
    if len(bad):
        i = bad[0]
        raise NumericError(f"price at step {i} is {path[i]}, not a positive finite float")
    return path
