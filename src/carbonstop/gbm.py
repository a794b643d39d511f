"""Geometric Brownian motion price process with reproducible sampling.

`GbmParams.log_increment` states the one-step law of log(Y_{t+dt}/Y_t),
normal with mean (mu - sigma^2/2) dt and sd sigma sqrt(dt); the sampler,
the solver, its default grid and the tree oracle all read it from there.

All randomness flows through numpy's PCG64 generator, stream k of a master
seed started from the state that ``SeedSequence([seed, k])`` gives it.
The last 1024 such states are memoized, so reopening a stream costs only
PCG64's and the Generator's set-up, about 2 µs; a first opening also runs
the SeedSequence hash, about 15 µs.  Normal draws use
``Generator.standard_normal`` (ziggurat); the sampler choice is fixed so
that documented example values stay stable across runs.
"""
from __future__ import annotations

import functools
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


def _is_u64(value) -> bool:
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and 0 <= value < 2**64)


@dataclass(frozen=True)
class Seed:
    """Master seed, a 64-bit unsigned integer (Python or numpy), kept as an int."""

    value: int = 0

    def __post_init__(self):
        if not _is_u64(self.value):
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.value!r}")
        object.__setattr__(self, "value", int(self.value))

    def stream(self, index: int) -> np.random.Generator:
        """Child generator `index` (an integer in [0, 2^64)): PCG64 seeded
        by ``SeedSequence([value, index])``, its state memoized."""
        if not _is_u64(index):
            raise ConfigError(f"stream index must be an integer in [0, 2^64), got {index!r}")
        state = _FixedState(_seed_state(self.value, int(index)))
        return np.random.Generator(np.random.PCG64(state))


class _FixedState:
    """A seed sequence that hands PCG64 a state hashed beforehand.  PCG64
    takes only a numpy ``ISeedSequence``; the class is registered as one on
    the first hash, not at import, because importing numpy.random would
    cost every CLI start 10-20 ms."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=None) -> np.ndarray:
        return self.state  # PCG64 asks for 4 uint64 words, all there are


@functools.lru_cache(maxsize=1024)  # 32 bytes of state an entry
def _seed_state(seed: int, index: int) -> np.ndarray:
    """``SeedSequence([seed, index]).generate_state(4, np.uint64)``, read-only
    because every stream reopened on (seed, index) reads the same array."""
    from numpy.random import SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_FixedState)
    state = SeedSequence([seed, index]).generate_state(4, np.uint64)
    state.flags.writeable = False
    return state


def simulate_path(
    params: GbmParams, steps: int, dt: float = 1.0, seed: Seed = Seed(0)
) -> np.ndarray:
    """Prices y0, Y_dt, ..., Y_{steps*dt} of `steps` exact GBM transitions.

    The same (params, steps, dt, seed) always yields the identical path.  A
    path that underflows to 0 or overflows to inf is a NumericError.
    """
    if not (_is_u64(steps) and steps >= 1):
        raise ConfigError(f"steps must be an integer >= 1, got {steps!r}")
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt!r}")
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
