"""Geometric Brownian motion price process with reproducible sampling.

`GbmParams.log_increment` states the one-step law of log(Y_{t+dt}/Y_t),
normal with mean (mu - sigma^2/2) dt and sd sigma sqrt(dt); the sampler,
the solver, its default grid and the tree oracle all read it from there.

All randomness flows through numpy's PCG64 generator, stream k of a master
seed started from the state that ``SeedSequence([seed, k])`` gives it.
That state is hashed here, the same as numpy's but for STATE_BATCH
aligned indices at once, and the last few batches are cached, so a stream
costs PCG64's and the Generator's set-up, about 2 µs, where seeding
through a SeedSequence of its own took about 11 µs.  Normal draws use
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


STATE_BATCH = 256  # stream indices whose seed states are hashed at once
_MASK32 = 0xFFFF_FFFF


def _is_u64(value) -> bool:
    return isinstance(value, (int, np.integer)) and 0 <= value < 2**64


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
        by ``SeedSequence([value, index])``, its state taken from the
        cached hash of the index's aligned batch of STATE_BATCH."""
        if not _is_u64(index):
            raise ConfigError(f"stream index must be an integer in [0, 2^64), got {index!r}")
        batch, row = divmod(int(index), STATE_BATCH)
        state = _FixedState(_batch_states(self.value, batch)[row])
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


def _words(n: int) -> list[int]:
    """The 32-bit words of n >= 0, low first, [0] for 0: how SeedSequence
    reads an integer of its entropy."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=4)  # 8 KiB a batch
def _batch_states(seed: int, batch: int) -> np.ndarray:
    """Row k of the result is ``SeedSequence([seed, batch * STATE_BATCH +
    k]).generate_state(4, np.uint64)``, read-only.

    numpy's hash (pool size 4) on uint32 columns, one entry per index.  The
    entropy is the seed's words and the index's, at most 4, so none is
    mixed in after the pool is filled; no batch straddles 2^32, so every
    index in it has as many words as the first and only the low one varies.
    The multipliers' running constants stay masked Python ints, because
    numpy warns when a uint32 scalar, not an array, overflows.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_FixedState)
    seed_words, index_words = _words(seed), _words(batch * STATE_BATCH)
    entropy = np.zeros((4, STATE_BATCH), np.uint32)
    entropy[: len(seed_words) + len(index_words)] = np.array(
        seed_words + index_words, np.uint32)[:, None]
    entropy[len(seed_words)] += np.arange(STATE_BATCH, dtype=np.uint32)

    h = 0x43B0D7E5

    def hashmix(x: np.ndarray) -> np.ndarray:
        nonlocal h
        x = x ^ h
        h = h * 0x931E8875 & _MASK32
        x = x * h
        return x ^ x >> 16

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> 16

    g = 0x8B51F9DD
    out = []
    for j in range(8):
        v = pool[j % 4] ^ g
        g = g * 0x58F38DED & _MASK32
        v = v * g
        out.append((v ^ v >> 16).astype(np.uint64))
    states = np.stack([out[2 * i] | out[2 * i + 1] << 32 for i in range(4)], axis=1)
    states.flags.writeable = False  # every stream of the batch reads it
    return states


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
