"""Case-study drivers: crossing detection, upgrade shifts, the P-sweep surface.

All multi-solve operations reuse the same master seed and a shared price
grid (common random numbers), so the monotone orderings they report hold
exactly, not just in expectation.  Their solves also share one
`SliceDraws`: each slice's normals and stencil are made once per drive, and
every plant after the first only applies them, to the same bits that an
independent solve on that grid and seed gives.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .gbm import GbmParams
from .plant import PlantParams, Upgrade
from .solver import (
    Boundary,
    SliceDraws,
    SolverConfig,
    TimeGrid,
    default_price_grid,
    geometric_price_grid,
    solve_boundary,
    time_index,
)


@dataclass(frozen=True)
class MonitorReport:
    """Outcome of running daily prices against a precomputed boundary."""

    crossed: bool
    crossing_index: int | None = None
    crossing_price: float | None = None
    boundary_at_crossing: float | None = None


def check_prices(prices, n_times: int) -> np.ndarray:
    """`prices` as floats, or a DataError unless they are a flat sequence of
    at most `n_times` positive finite numbers (not strings or bools)."""
    items = np.asarray(prices, dtype=object)
    if items.ndim != 1 or not all(
        isinstance(p, (int, float, np.integer, np.floating)) and not isinstance(p, bool)
        for p in items
    ):
        raise DataError("monitor.prices must be a flat sequence of numbers")
    try:
        values = items.astype(float)
    except OverflowError as exc:
        raise DataError(f"monitor.prices: {exc}") from exc
    bad = ~(np.isfinite(values) & (values > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"price {values[i]} at index {i} is not positive and finite")
    if len(values) > n_times:
        raise DataError(
            f"{len(values)} prices exceed the boundary grid of {n_times} times"
        )
    return values


def monitor(boundary: Boundary, prices) -> MonitorReport:
    """First trading day whose price reaches the boundary (touch counts).

    `prices` is a sequence aligned by position with the boundary's time
    grid, index 0 = t_0.  ABOVE_GRID boundary entries can never be crossed.
    The prices must pass `check_prices` against the boundary's times.
    """
    values = check_prices(prices, len(boundary.times))
    levels = boundary.values[: len(values)]
    hits = np.nonzero(values >= levels)[0]
    if not len(hits):
        return MonitorReport(crossed=False)
    i = int(hits[0])
    return MonitorReport(
        crossed=True,
        crossing_index=i,
        crossing_price=float(values[i]),
        boundary_at_crossing=float(levels[i]),
    )


def _solve_shared(
    gbm: GbmParams, plants: list[PlantParams], config: SolverConfig | None
) -> list[Boundary]:
    """Boundaries of plants with one horizon, solved with one seed on one
    price grid wide enough for all of them (common random numbers).

    Every solve is a `solve_boundary` call of its own, handed the drive's
    one `SliceDraws`: with more than one plant, the first solve builds each
    slice's draws and stencil and keeps them (up to solver.SHARED_DRAW_BYTES),
    and the others only apply them; a lone plant keeps none.
    """
    config = config or SolverConfig()
    if config.price_grid is None:
        spans = [default_price_grid(gbm, pl, config.grid_size).levels for pl in plants]
        lo = min(s[0] for s in spans)
        hi = max(s[-1] for s in spans)
        grid = geometric_price_grid(lo, hi, config.grid_size)
        config = replace(config, price_grid=grid)
    time_grid = TimeGrid(plants[0].horizon)
    draws = SliceDraws(gbm, config, config.price_grid, time_grid, shared=len(plants) > 1)
    return [solve_boundary(gbm, pl, config, draws)[1] for pl in plants]


def check_upgrade_day(plant: PlantParams, upgrade: Upgrade) -> None:
    """Refuse an upgrade that takes effect after the plant's horizon."""
    if upgrade.effective_day > plant.horizon:
        raise ConfigError(
            f"upgrade effective day {upgrade.effective_day} must lie in "
            f"[0, T={plant.horizon}]"
        )


def apply_upgrade(
    gbm: GbmParams,
    plant: PlantParams,
    upgrade: Upgrade,
    config: SolverConfig | None = None,
) -> tuple[Boundary, Boundary, Boundary]:
    """(before, after, composite) boundaries around a technical upgrade.

    Both boundaries are full-horizon solves with constant parameters; the
    composite stitches them at the effective day, matching the half-solid /
    half-dash presentation of an upgrade event.
    """
    check_upgrade_day(plant, upgrade)
    after_plant = PlantParams(
        upgrade.new_emission_rate, upgrade.new_unit_profit, plant.horizon
    )
    before, after = _solve_shared(gbm, [plant, after_plant], config)

    take = before.times >= upgrade.effective_day
    composite = Boundary(
        times=before.times,
        values=np.where(take, after.values, before.values),
        lower_bounds=np.where(take, after.lower_bounds, before.lower_bounds),
    )
    return before, after, composite


@dataclass(frozen=True)
class SurfaceGrid:
    """Boundary levels B(t, p) for a sweep of unit-profit values.

    ABOVE_GRID entries are +inf, as in `Boundary.values`.
    """

    p_values: np.ndarray
    times: np.ndarray
    B: np.ndarray  # shape (n_times, n_p)

    def to_long_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "p", "B"])
            p_values = self.p_values.tolist()
            for t, row in zip(self.times.tolist(), self.B.tolist()):
                for p, b in zip(p_values, row):
                    writer.writerow([f"{t:.6g}", f"{p:.6g}", f"{b:.6g}"])

    def to_json(self) -> str:
        return json.dumps(
            {
                "times": self.times.tolist(),
                "p_values": self.p_values.tolist(),
                "B": [[None if math.isinf(v) else v for v in row] for row in self.B],
            },
            indent=2,
            sort_keys=True,
        )


def p_levels(p_values) -> np.ndarray:
    """The swept unit-profit levels, sorted; a ConfigError unless they are
    nonempty, positive and distinct."""
    p_values = np.asarray(sorted(p_values), dtype=float)
    if not len(p_values) or not np.all(p_values > 0) or np.any(np.diff(p_values) == 0):
        raise ConfigError("p_values must be nonempty, positive and distinct")
    return p_values


def surface(
    gbm: GbmParams,
    horizon: float,
    p_values,
    config: SolverConfig | None = None,
) -> SurfaceGrid:
    """One boundary per P level, solved with a shared seed and price grid.

    The boundary does not depend on the emission rate, so every level is
    solved with M = 1.
    """
    p_values = p_levels(p_values)
    plants = [
        PlantParams(emission_rate=1.0, unit_profit=float(p), horizon=horizon)
        for p in p_values
    ]
    boundaries = _solve_shared(gbm, plants, config)
    return SurfaceGrid(
        p_values=p_values,
        times=boundaries[0].times,
        B=np.column_stack([b.values for b in boundaries]),
    )


def min_survival_p(surf: SurfaceGrid, t: float, y: float) -> float | None:
    """Smallest swept P whose boundary at time t sits strictly above y."""
    row = surf.B[time_index(surf.times, t)]
    qualifying = np.nonzero(row > y)[0]
    if not len(qualifying):
        return None
    return float(surf.p_values[qualifying[0]])
