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
and a slice costs O(samples + levels * stencil width) time.  None of that
depends on C, P or M, so the slices are drawn and binned into `_Stencil`s a
block of K = max(1, BLOCK_DRAWS // samples) at a time, one numpy pass per
step for the whole block, and a block takes O(K * (samples + levels))
memory.  A shared-grid drive hands one draw cache to all of its solves,
so that every plant after the first only applies the stencils.
"""
from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericError
from .gbm import GbmParams, Seed, check_drift
from .plant import PlantParams, immediate_value, lower_bound

FOUND = "FOUND"
ABOVE_GRID = "ABOVE_GRID"

DEFAULT_SAMPLES = 2000
DEFAULT_GRID_SIZE = 200
# U <= STOP_TOL_SCALE * P * T counts as U = 0 (see `stop_tolerance`).
STOP_TOL_SCALE = 1e-6
# A block of slices holds a few float arrays of at most max(samples,
# BLOCK_DRAWS) draws and its stencils of up to 2 * grid + 3 entries a slice,
# so these caps bound its memory at tens of MB; the lattice itself is two
# (horizon/delta + 1) x (grid + 1) arrays (U, G), whose nodes are capped at
# MAX_LATTICE_NODES (1 GiB for the two).  A standalone solve keeps one block
# at a time; a shared-grid drive also keeps whole built blocks, about 9
# bytes per sample a slice, up to SHARED_DRAW_BYTES.
MAX_SAMPLES = 10**6
MAX_GRID_SIZE = 20000
MAX_LATTICE_NODES = 2**26
SHARED_DRAW_BYTES = 32 * 2**20
BLOCK_DRAWS = 2**13


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
    A sigma so large that this floor underflows the normal floats, or a y0,
    P or drift growth so large that the ceiling overflows, is a ConfigError;
    an explicit grid is then the way to solve.
    """
    check_drift(gbm, plant.horizon)
    p = plant.unit_profit
    l0 = p * math.exp(-gbm.mu * plant.horizon)
    log_drift, sd = gbm.log_increment(plant.horizon)
    lo = 0.5 * min(gbm.y0, p, l0) * math.exp(min(0.0, log_drift) - 3.0 * sd)
    if lo < sys.float_info.min:  # 0.0, or subnormal and too coarse to be geometric
        raise ConfigError(
            f"sigma={gbm.sigma} over the horizon T={plant.horizon} puts the default "
            f"price grid floor at {lo}, below the smallest normal float; "
            "give solver grid_min and grid_max"
        )
    hi = 3.0 * max(gbm.y0, p, l0)
    if hi > sys.float_info.max:
        raise ConfigError(
            f"y0={gbm.y0}, P={p} and the drift growth exp(-mu*T)="
            f"{math.exp(-gbm.mu * plant.horizon):.6g} put the default price grid "
            "ceiling 3*max(y0, P, P*exp(-mu*T)) above the largest float; "
            "give solver grid_min and grid_max"
        )
    return geometric_price_grid(lo, hi, size)


def geometric_price_grid(lo: float, hi: float, size: int) -> PriceGrid:
    if not (0 < lo < hi):
        raise NumericError(f"invalid price grid span [{lo}, {hi}]")
    return PriceGrid(np.geomspace(lo, hi, size + 1))


@dataclass(frozen=True)
class SolverConfig:
    """Monte Carlo solver knobs.

    `price_grid` overrides the auto-built geometric grid (needed for
    common-grid comparisons across parameter variants); like every
    `PriceGrid` it is log-uniform.  `samples_per_node` and `grid_size` must
    be integers (Python or numpy); `samples_per_node` is capped at
    MAX_SAMPLES and `grid_size` (also the cell count of a given
    `price_grid`) at MAX_GRID_SIZE, which bounds a slice's memory whatever
    the input.
    """

    samples_per_node: int = DEFAULT_SAMPLES
    grid_size: int = DEFAULT_GRID_SIZE
    seed: Seed = field(default_factory=Seed)
    price_grid: PriceGrid | None = None

    def __post_init__(self):
        samples, size = self.samples_per_node, self.grid_size
        if not (isinstance(samples, (int, np.integer)) and 100 <= samples <= MAX_SAMPLES):
            raise ConfigError(f"samples_per_node must be an integer in [100, {MAX_SAMPLES}]")
        if not (isinstance(size, (int, np.integer)) and 2 <= size <= MAX_GRID_SIZE):
            raise ConfigError(f"grid_size must be an integer in [2, {MAX_GRID_SIZE}]")
        grid = self.price_grid
        if grid is not None and len(grid.levels) > MAX_GRID_SIZE + 1:
            raise ConfigError(f"price_grid must have at most {MAX_GRID_SIZE} cells")

    def resolve_grid(self, gbm: GbmParams, plant: PlantParams) -> PriceGrid:
        if self.price_grid is not None:
            return self.price_grid
        return default_price_grid(gbm, plant, self.grid_size)


@dataclass(frozen=True)
class ValueGrid:
    """U and G on the time x price lattice; V = M*U + G is derived.

    G[i, j] is `immediate_value` at (t_i, y_j), one call per node on Python
    floats in one pass over the lattice; the benchmark counts those calls
    until G becomes a closed-form array (ROADMAP items 2 and 3).
    """

    time_grid: TimeGrid
    price_grid: PriceGrid
    emission_rate: float
    U: np.ndarray  # shape (n_times, n_levels)
    G: np.ndarray

    @property
    def V(self) -> np.ndarray:
        """The option value M*U + G, formed on each read."""
        return self.emission_rate * self.U + self.G


@dataclass(frozen=True)
class Boundary:
    """Free boundary b(t) extracted per grid time.

    `values` is +inf where no grid level stops (status ABOVE_GRID), and
    `lower_bounds` holds the continuation guarantee P*exp(-mu*(T - t)).
    """

    times: np.ndarray
    values: np.ndarray
    lower_bounds: np.ndarray

    @property
    def status(self) -> tuple[str, ...]:
        return tuple(
            FOUND if found else ABOVE_GRID for found in np.isfinite(self.values).tolist()
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "b", "status", "lower_bound"])
            for t, b, s, lb in zip(
                self.times.tolist(),
                self.values.tolist(),
                self.status,
                self.lower_bounds.tolist(),
            ):
                b_txt = f"{b:.6g}" if s == FOUND else ""
                writer.writerow([f"{t:.6g}", b_txt, s, f"{lb:.6g}"])


class _Stencil(NamedTuple):
    """One slice's draws binned on a log-uniform grid of n levels.

    Draw k has offset m = floor(log xi / h) and upper weight w = (r**f -
    1)/(r - 1), f the fractional part, so level j reads (1 - w) C[j+m] + w
    C[j+m+1], indices clipped to the grid (which is the clamping).  `bins`
    holds m - lo per draw, `weights` the draws' weight binned by offset.
    """

    lo: int
    bins: np.ndarray  # smallest unsigned dtype that holds the width
    w: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, block: np.ndarray, log_step: float, n: int) -> list["_Stencil"]:
        """The stencil of each row of a (slices x samples) block of log
        factors, every row binned to the bits of a block of its own."""
        # One new buffer carries the shift, its fraction and w.  Beyond n
        # cells every index clips to the same edge, whatever the weight.
        w = np.divide(block, log_step)
        np.minimum(np.maximum(w, -n, out=w), n, out=w)
        offsets = np.floor(w)
        w -= offsets
        w *= log_step
        np.expm1(w, out=w)
        w /= math.expm1(log_step)
        lo = np.minimum.reduce(offsets, axis=1, keepdims=True)
        offsets -= lo
        widths = (np.maximum.reduce(offsets, axis=1).astype(np.intp) + 2).tolist()
        rows, stride = len(w), max(widths)
        bins = [row.astype(np.min_scalar_type(k)) for row, k in zip(offsets, widths)]
        # Row r bins from r * stride on, so that each bin of one bincount sums
        # the same terms, in the same order, as a bincount of row r alone.
        # Bin m's upper weight belongs to bin m + 1.
        size = rows * stride
        offsets += np.arange(0, size, stride)[:, None]
        index = offsets.astype(np.intp).ravel()
        lower = np.subtract(1.0, w, out=offsets)  # a spent buffer, not a fresh one
        weights = np.bincount(index, lower.ravel(), size).reshape(rows, stride)
        upper = np.bincount(index, w.ravel(), size).reshape(rows, stride)
        weights[:, 1:] += upper[:, :-1]
        lo = lo.astype(np.intp).ravel().tolist()
        return list(map(cls, lo, bins, w, [row[:k] for row, k in zip(weights, widths)]))

    @property
    def nbytes(self) -> int:
        return self.bins.nbytes + self.w.nbytes + self.weights.nbytes

    def expected_positive_part(self, C: np.ndarray) -> np.ndarray:
        """Mean over the draws of max(0, C interpolated at y_j * xi), for
        every level y_j.

        The interpolation is linear in y and clamps to C[0] below the grid
        and to C[-1] above it, as np.interp does.  On cells where C keeps
        its sign, max(0, .) of the blend is the same blend of C+ = max(0,
        C), a correlation with the binned weights; each cell where C changes
        sign gets an exact correction.
        """
        n, lo, width = len(C), self.lo, len(self.weights)
        left, right = max(0, -lo), max(0, lo + width - 1)
        padded = np.empty(left + n + right)
        np.maximum(C, 0.0, out=padded[left : left + n])
        padded[:left] = padded[left]
        padded[left + n :] = padded[left + n - 1]
        total = np.correlate(padded, self.weights, "valid")[lo + left : lo + left + n]
        # In a cell where C changes sign the blend of C+ exceeds max(0, blend
        # of C) by min(w |C[i+1]|, (1 - w) |C[i]|); level j in [0, n) reaches
        # cell i at offset k = i - lo - j in [a, b].  The signs are compared,
        # not C[i] * C[i+1], which overflows for |C| above about 1e154.
        w = self.w
        sign = np.sign(C)
        for i in (sign[:-1] * sign[1:] < 0).nonzero()[0].tolist():
            a, b = max(0, i - lo - n + 1), min(width - 2, i - lo)
            if a <= b:
                excess = np.minimum(w * abs(C[i + 1]), (1.0 - w) * abs(C[i]))
                binned = np.bincount(self.bins, excess, width - 1)
                total[i - lo - b : i - lo - a + 1] -= binned[a : b + 1][::-1]
        total /= len(w)
        return total


class SliceDraws:
    """The `_Stencil` of every slice of one seed's draws on one price grid.

    Slice i is built on first use in a block with the slices below it, K =
    max(1, BLOCK_DRAWS // samples) in all, row k from its own
    `Seed.stream(k)` (whose seed state `gbm` memoizes) and binned to the
    bits of a slice built alone.  A slice depends on the seed, the sample
    count, the one-step log law, the grid's log step and its level count,
    and on nothing else: the operator is invariant under translation on a
    log grid, so y_0 does not enter.
    `key` holds those.  Without `shared` only the current block is kept, at
    most BLOCK_DRAWS draws (one slice's above that).  A shared one, filed
    under its key in a drive's draw cache, keeps whole blocks from the top
    down until one does not fit in SHARED_DRAW_BYTES; each solve rebuilds
    the slices below them from the same stream, to the same bits.
    """

    def __init__(
        self,
        gbm: GbmParams,
        config: SolverConfig,
        grid: PriceGrid,
        delta: float = 1.0,
        shared: bool = False,
    ):
        self.key = (
            config.seed,
            config.samples_per_node,
            gbm.log_increment(delta),
            grid.log_step,
            len(grid.levels),
        )
        self._room = SHARED_DRAW_BYTES if shared else 0
        self._kept: dict[int, _Stencil] = {}
        self._block: dict[int, _Stencil] = {}

    def __getitem__(self, i: int) -> _Stencil:
        if i in self._kept:
            return self._kept[i]
        if i not in self._block:
            self._block = {}  # so that two blocks are never held at once
            seed, samples, (drift, vol), log_step, n = self.key
            start = max(0, i + 1 - max(1, BLOCK_DRAWS // samples))
            z = np.empty((i + 1 - start, samples))
            for k, row in enumerate(z, start):
                seed.stream(k).standard_normal(out=row)
            z *= vol
            z += drift
            self._block = dict(enumerate(_Stencil.build(z, log_step, n), start))
            self._room -= sum(stencil.nbytes for stencil in self._block.values())
            if self._room >= 0:
                self._kept.update(self._block)
        return self._block[i]


def check_lattice_nodes(time_grid: TimeGrid, columns: float, what: str) -> None:
    """Refuse more than MAX_LATTICE_NODES nodes, the grid's times by
    `columns` price or P levels, named by `what`, before any is built."""
    nodes = float(time_grid.n_steps + 1) * columns  # inf past the floats
    if nodes > MAX_LATTICE_NODES:
        raise ConfigError(
            f"T={time_grid.horizon:g} at delta={time_grid.delta:g} with {what} "
            f"makes {nodes:.6g} lattice nodes, more than "
            f"MAX_LATTICE_NODES = {MAX_LATTICE_NODES}"
        )


def solve_backward(
    gbm: GbmParams,
    plant: PlantParams,
    config: SolverConfig | None = None,
    shared: dict | None = None,
    delta: float = 1.0,
) -> ValueGrid:
    """Fill the value lattice by the backward recursion, for constant (M, P).

    Slice i takes its expectation, at steps of `delta` up to the horizon,
    with one batch of normals binned on the grid: continuation values
    between levels are interpolated linearly in y, and a draw that leaves
    the grid reads the edge value (clamping).  Deterministic for a fixed
    seed.  `shared` is a shared-grid drive's draw cache, a dict: the solve
    takes its `SliceDraws` from it by their key, so they serve every solve
    of the same inputs and no other.  Without it, each block of slices is
    dropped once used.  A lattice of more than MAX_LATTICE_NODES nodes is a
    ConfigError, refused before any of it is built.  The running term of
    every row is formed in U before the recursion in three whole-lattice
    operations, so a slice step adds its row to C and clamps C into it.

    G is filled in one pass with one `immediate_value` call per node, row by
    row, on Python floats (`tolist`), not numpy scalars: the IEEE operations
    and so the values are the same, and a call costs less than half as much.
    The one-call-per-node fill stays because perfbench counts
    `immediate_value` calls per node until ROADMAP items 2 and 3 replace it
    with closed-form arrays.
    """
    check_drift(gbm, plant.horizon)
    config = config or SolverConfig()
    time_grid = TimeGrid(plant.horizon, delta)
    grid = config.resolve_grid(gbm, plant)
    check_lattice_nodes(time_grid, len(grid.levels), f"grid size {len(grid.levels) - 1}")
    draws = SliceDraws(gbm, config, grid, delta, shared is not None)
    if shared is not None:
        draws = shared.setdefault(draws.key, draws)

    levels = grid.levels
    times = time_grid.times
    remaining = plant.horizon - times
    p = plant.unit_profit

    if gbm.sigma == 0:
        # Along the deterministic path y*exp(mu*(T - t)) is constant, so the
        # recursion sums to U(t, y) = (T - t) * max(0, P - y*exp(mu*(T - t))).
        horizon_price = np.exp(gbm.mu * remaining)[:, None] * levels
        U = remaining[:, None] * np.maximum(0.0, p - horizon_price)
    else:
        # Row i of U holds the running term delta*(P - y*exp(mu*(T - t_i)))
        # until slice i overwrites it; math.exp, since np.exp over the times
        # is not bitwise the same.
        growth = [math.exp(gbm.mu * r) for r in remaining.tolist()]
        U = np.multiply(levels, np.array(growth)[:, None])
        np.subtract(p, U, out=U)
        U *= delta
        U[-1] = 0.0
        # C is the unclamped continuation estimate, U = max(0, C).
        # Interpolating C and clamping at evaluation avoids the kink that U
        # itself has at the boundary; interpolating the clamped U would
        # overshoot at that kink and bias the boundary upward by several
        # grid cells.
        C = np.zeros(len(levels))
        for i in range(time_grid.n_steps - 1, -1, -1):
            C = draws[i].expected_positive_part(C)
            C += U[i]
            # U[i] >= 0 and NaN propagates: a finite maximum means a finite row.
            if not np.maximum.reduce(np.maximum(0.0, C, out=U[i])) < math.inf:
                raise NumericError(f"non-finite values in slice t={times[i]}")

    del draws  # a standalone solve's last block, before G joins U
    ts = chain.from_iterable(map(repeat, times.tolist(), repeat(len(levels))))
    ys = chain.from_iterable(repeat(levels.tolist(), len(times)))
    nodes = map(immediate_value, repeat(plant), repeat(gbm), ts, ys)
    G = np.fromiter(nodes, float, U.size).reshape(U.shape)
    return ValueGrid(time_grid, grid, plant.emission_rate, U, G)


def stop_tolerance(plant: PlantParams, config: SolverConfig | None = None) -> float:
    """The U at or below which a node stops: STOP_TOL_SCALE * P * T, a small
    fraction of the natural magnitude of U for the plant's unit profit P.

    `config` is ignored; perfbench still passes a SolverConfig, and the
    parameter goes when it passes the plant alone (ROADMAP item 1a).
    """
    return STOP_TOL_SCALE * plant.unit_profit * plant.horizon


def extract_boundary(grid: ValueGrid, gbm: GbmParams, plant: PlantParams) -> Boundary:
    """Smallest grid level per time where the waiting premium has vanished.

    U is exactly nonincreasing in y under the shared-draw scheme, so the
    first level with U <= tol bounds the stopping set from below (+inf if
    none does).  The terminal slice has U identically zero, so it is read
    off the running-profit sign instead: the stopping set at T degenerates
    to prices at/above P, pinning b(T) to P within a grid cell.
    """
    levels = grid.price_grid.levels
    times = grid.time_grid.times
    stops = grid.U <= stop_tolerance(plant)
    stops[-1] = levels >= plant.unit_profit
    values = np.where(stops.any(axis=1), levels[np.argmax(stops, axis=1)], np.inf)
    lbs = np.array([lower_bound(plant, gbm, t) for t in times.tolist()])
    return Boundary(times=times, values=values, lower_bounds=lbs)


def solve_boundary(
    gbm: GbmParams,
    plant: PlantParams,
    config: SolverConfig | None = None,
    shared: dict | None = None,
) -> tuple[ValueGrid, Boundary]:
    """Solve the daily lattice (`shared` as in `solve_backward`); extract the boundary."""
    grid = solve_backward(gbm, plant, config, shared)
    return grid, extract_boundary(grid, gbm, plant)


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
    u, g = grid.U[i], grid.G[i]
    return tuple(
        float(np.interp(y, levels, a)) for a in (u, grid.emission_rate * u + g, g)
    )

