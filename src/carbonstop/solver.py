"""Backward Monte Carlo recursion for the halt boundary.

The value of waiting is carried by the emission-rate-free premium U(t, y):
U vanishes exactly on the stopping set and the recursion

    U(t_i, y) = max(0, E[U(t_{i+1}, y*xi)] + delta*(P - y*exp(mu*(T - t_i))))

with xi the one-step log-normal factor, runs backward from U(T, .) = 0.
The inner expectation is a sample mean over a fixed batch of draws per
time slice; all grid nodes of a slice share the batch (common random
numbers), which makes the stopping indicator exactly monotone in y and
makes boundary comparisons across P and M exact rather than statistical.

The price grid is log-uniform, y_j = y_0 * r**j.  A draw with
log xi = (m + f) * log r, m an integer and 0 <= f < 1, moves every level j
into the cell [y_{j+m}, y_{j+m+1}] at the same linear-interpolation weight
(r**f - 1)/(r - 1).  The expectation over the batch is therefore a short
correlation of the grid values with a weight stencil binned by offset m
(the CONV idea of Lord, Fang, Bervoets & Oosterlee, 2008, without the FFT),
and a slice costs O(samples + levels * stencil width) time and O(samples +
levels) memory.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericError
from .gbm import GbmParams, Seed, check_drift
from .plant import PlantParams, immediate_value, lower_bound

FOUND = "FOUND"
ABOVE_GRID = "ABOVE_GRID"
SMOOTH_METHODS = ("none", "isotonic", "moving-average")

DEFAULT_SAMPLES = 2000
DEFAULT_GRID_SIZE = 200
DEFAULT_TOL_SCALE = 1e-6
# A slice holds a few float arrays of `samples` and of `grid + 1` entries,
# so these caps bound its memory at tens of MB; the lattice itself is three
# (horizon/delta + 1) x (grid + 1) arrays (U, G, V).
MAX_SAMPLES = 10**6
MAX_GRID_SIZE = 20000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform decision times t_0 = 0 < ... < t_n = T."""

    horizon: float
    delta: float = 1.0

    def __post_init__(self):
        if not (0 < self.delta < math.inf):
            raise ConfigError(
                f"time step must be positive and finite, got {self.delta}"
            )
        if not math.isfinite(self.horizon):
            raise ConfigError(f"horizon must be finite, got {self.horizon}")
        n = self.horizon / self.delta
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ConfigError(
                f"horizon {self.horizon} is not a positive multiple of delta {self.delta}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.delta))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.delta


@dataclass(frozen=True)
class PriceGrid:
    """Log-uniform price levels y_j = y_0 * r**j, r > 1, j = 0..m.

    Each level must lie within a relative 1e-9 of that geometric sequence.
    """

    levels: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim != 1 or len(levels) < 2:
            raise NumericError("price grid needs at least 2 levels")
        if not np.all(levels > 0) or not np.all(np.diff(levels) > 0):
            raise NumericError("price grid levels must be positive and increasing")
        object.__setattr__(self, "levels", levels)
        steps = self.log_step * np.arange(len(levels))
        if not np.abs(np.log(levels) - math.log(levels[0]) - steps).max() <= 1e-9:
            raise NumericError("price grid levels must be log-uniform (geometric)")

    @property
    def log_step(self) -> float:
        """log r, the spacing of the levels in log price."""
        levels = self.levels
        return (math.log(levels[-1]) - math.log(levels[0])) / (len(levels) - 1)

    def cell_width_at(self, j: int) -> float:
        """Width of the grid cell adjacent to level j (one-cell tolerance)."""
        levels = self.levels
        if j <= 0:
            return levels[1] - levels[0]
        if j >= len(levels) - 1:
            return levels[-1] - levels[-2]
        return max(levels[j] - levels[j - 1], levels[j + 1] - levels[j])


def default_price_grid(
    gbm: GbmParams, plant: PlantParams, size: int = DEFAULT_GRID_SIZE
) -> PriceGrid:
    """Geometric (log-uniform) grid spanning the boundary's plausible range.

    The lower edge is pushed below the anchor prices by the horizon's
    3-sigma log-diffusion: paths that drift under the grid get their
    continuation value clamped to the edge, which biases the whole lattice
    low if the grid floor is reachable with non-negligible probability.
    """
    check_drift(gbm, plant.horizon)
    p = plant.unit_profit
    l0 = p * math.exp(-gbm.mu * plant.horizon)
    log_drift = (gbm.mu - 0.5 * gbm.sigma**2) * plant.horizon
    spread = 3.0 * gbm.sigma * math.sqrt(plant.horizon)
    lo = 0.5 * min(gbm.y0, p, l0) * math.exp(min(0.0, log_drift) - spread)
    hi = 3.0 * max(gbm.y0, p, l0)
    return geometric_price_grid(lo, hi, size)


def geometric_price_grid(lo: float, hi: float, size: int) -> PriceGrid:
    if not (0 < lo < hi):
        raise NumericError(f"invalid price grid span [{lo}, {hi}]")
    return PriceGrid(np.geomspace(lo, hi, size + 1))


@dataclass(frozen=True)
class SolverConfig:
    """Monte Carlo solver knobs.

    `stop_tol_scale` (finite, >= 0) sets the absolute tolerance for
    declaring U = 0 as stop_tol_scale * P * T, the natural magnitude of U
    for the plant's constant unit profit P.  `price_grid` overrides the
    auto-built geometric grid (needed for common-grid comparisons across
    parameter variants); like every `PriceGrid` it is log-uniform.
    `samples_per_node` is capped at MAX_SAMPLES and `grid_size` (also the
    cell count of a given `price_grid`) at MAX_GRID_SIZE, which bounds a
    slice's memory whatever the input.
    """

    samples_per_node: int = DEFAULT_SAMPLES
    grid_size: int = DEFAULT_GRID_SIZE
    seed: Seed = field(default_factory=Seed)
    stop_tol_scale: float = DEFAULT_TOL_SCALE
    price_grid: PriceGrid | None = None

    def __post_init__(self):
        if not (100 <= self.samples_per_node <= MAX_SAMPLES):
            raise ConfigError(f"samples_per_node must be in [100, {MAX_SAMPLES}]")
        if not (2 <= self.grid_size <= MAX_GRID_SIZE):
            raise ConfigError(f"grid_size must be in [2, {MAX_GRID_SIZE}]")
        grid = self.price_grid
        if grid is not None and len(grid.levels) > MAX_GRID_SIZE + 1:
            raise ConfigError(f"price_grid must have at most {MAX_GRID_SIZE} cells")
        if not (0 <= self.stop_tol_scale < math.inf):
            raise ConfigError(
                f"stop_tol_scale must be finite and >= 0, got {self.stop_tol_scale}"
            )

    def resolve_grid(self, gbm: GbmParams, plant: PlantParams) -> PriceGrid:
        if self.price_grid is not None:
            return self.price_grid
        return default_price_grid(gbm, plant, self.grid_size)


@dataclass(frozen=True)
class ValueGrid:
    """U, G and V = M*U + G on the time x price lattice."""

    time_grid: TimeGrid
    price_grid: PriceGrid
    U: np.ndarray  # shape (n_times, n_levels)
    G: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class Boundary:
    """Free boundary b(t) extracted per grid time.

    `values` is +inf where no grid level stops (status ABOVE_GRID).
    `lower_bounds` carries the continuation-guarantee level so the boundary
    can be floored without re-deriving parameters.
    """

    times: np.ndarray
    values: np.ndarray
    lower_bounds: np.ndarray

    def found_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    @property
    def status(self) -> tuple[str, ...]:
        return tuple(FOUND if found else ABOVE_GRID for found in self.found_mask())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "b", "status", "lower_bound"])
            for t, b, s, lb in zip(
                self.times, self.values, self.status, self.lower_bounds
            ):
                b_txt = f"{b:.6g}" if s == FOUND else ""
                writer.writerow([f"{t:.6g}", b_txt, s, f"{lb:.6g}"])


def _slice_draws(seed: Seed, step: int, samples: int) -> np.ndarray:
    return seed.stream(step).standard_normal(samples)


def _expected_positive_part(
    C: np.ndarray, log_factors: np.ndarray, log_step: float
) -> np.ndarray:
    """Mean over k of max(0, C interpolated at y_j * exp(log_factors[k])),
    for every level y_j of a log-uniform grid with log spacing `log_step`.

    The interpolation is linear in y and clamps to C[0] below the grid and
    to C[-1] above it, as np.interp does.  Draw k has offset m = floor(log
    xi / h) and upper weight w = (r**f - 1)/(r - 1), f the fractional part,
    so level j reads (1 - w) C[j+m] + w C[j+m+1], indices clipped to the
    grid (which is the clamping).  On cells where C keeps its sign, max(0,
    .) of that is the same blend of C+ = max(0, C), a correlation with the
    weights binned by offset; each cell where C changes sign gets an exact
    correction.
    """
    n = len(C)
    # Beyond n cells every index clips to the same edge, whatever the weight.
    shift = np.clip(log_factors / log_step, -n, n)
    offsets = np.floor(shift)
    w = np.expm1((shift - offsets) * log_step) / math.expm1(log_step)
    lo, hi = int(offsets.min()), int(offsets.max())
    bins = offsets.astype(np.intp) - lo
    width = hi - lo + 2
    stencil = np.bincount(bins, 1.0 - w, width) + np.bincount(bins + 1, w, width)
    pos = np.maximum(C, 0.0)
    left, right = max(0, -lo), max(0, hi + 1)
    padded = np.concatenate([np.full(left, pos[0]), pos, np.full(right, pos[-1])])
    total = np.correlate(padded, stencil, "valid")[lo + left : lo + left + n]
    # In a cell with C[i] * C[i+1] < 0 the blend of C+ exceeds max(0, blend
    # of C) by min(w |C[i+1]|, (1 - w) |C[i]|); level j reaches cell i at
    # offset i - j.
    for i in np.flatnonzero(C[:-1] * C[1:] < 0):
        excess = np.minimum(w * abs(C[i + 1]), (1.0 - w) * abs(C[i]))
        j = i - lo - np.arange(width - 1)
        inside = (j >= 0) & (j < n)
        total[j[inside]] -= np.bincount(bins, excess, width - 1)[inside]
    return total / len(log_factors)


def solve_backward(
    gbm: GbmParams,
    plant: PlantParams,
    time_grid: TimeGrid | None = None,
    config: SolverConfig | None = None,
) -> ValueGrid:
    """Fill the value lattice by the backward recursion, for constant (M, P).

    Each slice draws one batch of normals and takes the expectation with
    `_expected_positive_part`: continuation values between levels are
    interpolated linearly in y, and a draw that leaves the grid reads the
    edge value (clamping).  Deterministic for a fixed seed.
    """
    check_drift(gbm, plant.horizon)
    config = config or SolverConfig()
    time_grid = time_grid or TimeGrid(horizon=plant.horizon)
    if abs(time_grid.horizon - plant.horizon) > 1e-9:
        raise ConfigError("time grid horizon must match the plant horizon")
    grid = config.resolve_grid(gbm, plant)

    levels = grid.levels
    times = time_grid.times
    delta = time_grid.delta
    remaining = plant.horizon - times
    p = plant.unit_profit

    if gbm.sigma == 0:
        # Along the deterministic path y*exp(mu*(T - t)) is constant, so the
        # recursion sums to U(t, y) = (T - t) * max(0, P - y*exp(mu*(T - t))).
        horizon_price = np.exp(gbm.mu * remaining)[:, None] * levels
        U = remaining[:, None] * np.maximum(0.0, p - horizon_price)
    else:
        U = np.zeros((len(times), len(levels)))
        # C is the unclamped continuation estimate, U = max(0, C).
        # Interpolating C and clamping at evaluation avoids the kink that U
        # itself has at the boundary; interpolating the clamped U would
        # overshoot at that kink and bias the boundary upward by several
        # grid cells.
        C = np.zeros(len(levels))
        drift = (gbm.mu - 0.5 * gbm.sigma**2) * delta
        vol = gbm.sigma * math.sqrt(delta)
        for i in range(time_grid.n_steps - 1, -1, -1):
            z = _slice_draws(config.seed, i, config.samples_per_node)
            cont = _expected_positive_part(C, drift + vol * z, grid.log_step)
            running = delta * (p - levels * math.exp(gbm.mu * remaining[i]))
            C = cont + running
            U[i] = np.maximum(0.0, C)
            if not np.all(np.isfinite(U[i])):
                raise NumericError(f"non-finite values in slice t={times[i]}")

    G = np.empty_like(U)
    V = np.empty_like(U)
    for i, t in enumerate(times):
        G[i] = [immediate_value(plant, gbm, t, y) for y in levels]
        V[i] = plant.emission_rate * U[i] + G[i]
    return ValueGrid(time_grid=time_grid, price_grid=grid, U=U, G=G, V=V)


def stop_tolerance(plant: PlantParams, config: SolverConfig) -> float:
    return config.stop_tol_scale * plant.unit_profit * plant.horizon


def extract_boundary(
    grid: ValueGrid,
    config: SolverConfig,
    gbm: GbmParams,
    plant: PlantParams,
) -> Boundary:
    """Smallest grid level per time where the waiting premium has vanished.

    U is exactly nonincreasing in y under the shared-draw scheme, so the
    first level with U <= tol bounds the stopping set from below (+inf if
    none does).  The terminal slice has U identically zero, so it is read
    off the running-profit sign instead: the stopping set at T degenerates
    to prices at/above P, pinning b(T) to P within a grid cell.
    """
    levels = grid.price_grid.levels
    times = grid.time_grid.times
    stops = grid.U <= stop_tolerance(plant, config)
    stops[-1] = levels >= plant.unit_profit
    values = np.where(stops.any(axis=1), levels[np.argmax(stops, axis=1)], np.inf)
    lbs = np.array([lower_bound(plant, gbm, t) for t in times])
    return Boundary(times=times, values=values, lower_bounds=lbs)


def solve_boundary(
    gbm: GbmParams,
    plant: PlantParams,
    config: SolverConfig | None = None,
    time_grid: TimeGrid | None = None,
) -> tuple[ValueGrid, Boundary]:
    """Convenience wrapper: solve the lattice and extract the raw boundary."""
    config = config or SolverConfig()
    grid = solve_backward(gbm, plant, time_grid, config)
    return grid, extract_boundary(grid, config, gbm, plant)


def time_index(times: np.ndarray, t: float) -> int:
    """Index of the grid time equal to t (within 1e-9), or a ConfigError."""
    idx = np.nonzero(np.isclose(times, t, rtol=0, atol=1e-9))[0]
    if not len(idx):
        raise ConfigError(f"t={t} is not on the time grid")
    return int(idx[0])


def value_at(grid: ValueGrid, t: float, y: float) -> tuple[float, float, float]:
    """(U, V, G) at a grid time t, linearly interpolated in y.

    Refuses to extrapolate: y must lie inside [y_0, y_m].
    """
    i = time_index(grid.time_grid.times, t)
    levels = grid.price_grid.levels
    if not (levels[0] <= y <= levels[-1]):
        raise NumericError(f"y={y} outside price grid [{levels[0]}, {levels[-1]}]")
    return tuple(float(np.interp(y, levels, a[i])) for a in (grid.U, grid.V, grid.G))


def smooth_boundary(
    boundary: Boundary, method: str = "none", window: int = 3
) -> Boundary:
    """Optional smoothing of a raw boundary.

    Methods: "none" (identity), "isotonic" (pool-adjacent-violators
    projection onto monotone curves, direction chosen by the endpoints),
    "moving-average" (centered mean over an odd `window`, shrinking at edges).
    Smoothed values are floored at the continuation lower bound and the
    terminal value is kept as extracted.
    """
    if method not in SMOOTH_METHODS:
        raise ConfigError(f"unknown smoothing method {method!r}")
    if method == "none":
        return boundary

    mask = boundary.found_mask()
    if mask.sum() < 3:
        raise NumericError("need at least 3 FOUND boundary points to smooth")
    vals = boundary.values[mask]

    if method == "isotonic":
        smoothed = _pava(vals) if vals[-1] >= vals[0] else _pava(vals[::-1])[::-1]
    else:  # moving-average
        if window < 1 or window % 2 == 0:
            raise ConfigError(f"window must be a positive odd number, got {window}")
        smoothed = np.empty_like(vals)
        half = window // 2
        for k in range(len(vals)):
            lo, hi = max(0, k - half), min(len(vals), k + half + 1)
            smoothed[k] = vals[lo:hi].mean()

    smoothed = np.maximum(smoothed, boundary.lower_bounds[mask])
    smoothed[-1] = vals[-1]

    new_values = boundary.values.copy()
    new_values[mask] = smoothed
    return replace(boundary, values=new_values)


def _pava(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators: least-squares nondecreasing fit."""
    merged: list[list[float]] = []
    for v in y:
        merged.append([float(v), 1])
        while len(merged) > 1 and merged[-2][0] > merged[-1][0]:
            v2, n2 = merged.pop()
            v1, n1 = merged.pop()
            merged.append([(v1 * n1 + v2 * n2) / (n1 + n2), n1 + n2])
    out = np.empty(len(y))
    pos = 0
    for v, n in merged:
        out[pos : pos + n] = v
        pos += n
    return out
