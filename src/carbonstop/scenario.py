"""Case-study drivers: crossing detection, upgrade shifts, the P-sweep surface.

All multi-solve operations reuse the same master seed and a shared price
grid (common random numbers), so the monotone orderings they report hold
exactly, not just in expectation.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .gbm import GbmParams
from .market_data import PriceSeries
from .plant import PlantParams
from .solver import (
    Boundary,
    PriceGrid,
    SolverConfig,
    TimeGrid,
    default_price_grid,
    solve_boundary,
)


@dataclass(frozen=True)
class MonitorReport:
    """Outcome of running daily prices against a precomputed boundary."""

    crossed: bool
    crossing_index: int | None = None
    crossing_price: float | None = None
    boundary_at_crossing: float | None = None

    def to_dict(self) -> dict:
        return {
            "crossed": self.crossed,
            "crossing_index": self.crossing_index,
            "crossing_price": self.crossing_price,
            "boundary_at_crossing": self.boundary_at_crossing,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def monitor(boundary: Boundary, prices) -> MonitorReport:
    """First trading day whose price reaches the boundary (touch counts).

    `prices` is a PriceSeries or plain sequence aligned by position with the
    boundary's time grid, index 0 = t_0.  ABOVE_GRID boundary entries can
    never be crossed.  Every price must be a positive finite number.
    """
    if isinstance(prices, PriceSeries):
        prices = prices.prices
    try:
        values = np.asarray(prices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"prices must be numbers: {exc}") from exc
    bad = ~(np.isfinite(values) & (values > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"price {values[i]} at index {i} is not positive and finite")
    if len(values) > len(boundary.times):
        raise DataError(
            f"{len(values)} prices exceed the boundary grid of "
            f"{len(boundary.times)} times"
        )
    levels = boundary.values_or_inf()[: len(values)]
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


def _shared_grid(
    gbm: GbmParams, plants: list[PlantParams], config: SolverConfig
) -> PriceGrid:
    """One grid wide enough for every parameter set in a comparison."""
    if config.price_grid is not None:
        return config.price_grid
    spans = [default_price_grid(gbm, pl, config.grid_size).levels for pl in plants]
    lo = min(s[0] for s in spans)
    hi = max(s[-1] for s in spans)
    return PriceGrid(np.geomspace(lo, hi, config.grid_size + 1))


def apply_upgrade(
    gbm: GbmParams, plant: PlantParams, config: SolverConfig | None = None
) -> tuple[Boundary, Boundary, Boundary]:
    """(before, after, composite) boundaries around a technical upgrade.

    Both boundaries are full-horizon solves with constant parameters; the
    composite stitches them at the effective day, matching the half-solid /
    half-dash presentation of an upgrade event.
    """
    if plant.upgrade is None:
        raise ConfigError("plant has no upgrade event")
    config = config or SolverConfig()
    before_plant = PlantParams(
        emission_rate=plant.emission_rate,
        unit_profit=plant.unit_profit,
        horizon=plant.horizon,
    )
    after_plant = PlantParams(
        emission_rate=plant.upgrade.new_emission_rate,
        unit_profit=plant.upgrade.new_unit_profit,
        horizon=plant.horizon,
    )
    shared = replace(config, price_grid=_shared_grid(gbm, [before_plant, after_plant], config))

    _, before = solve_boundary(gbm, before_plant, shared)
    _, after = solve_boundary(gbm, after_plant, shared)

    switch = plant.upgrade.effective_day
    take_after = before.times >= switch
    composite_values = np.where(take_after, after.values, before.values)
    composite_status = tuple(
        a if flag else b
        for flag, a, b in zip(take_after, after.status, before.status)
    )
    composite_lbs = np.where(take_after, after.lower_bounds, before.lower_bounds)
    composite = Boundary(
        times=before.times,
        values=composite_values,
        status=composite_status,
        lower_bounds=composite_lbs,
    )
    return before, after, composite


@dataclass(frozen=True)
class SurfaceGrid:
    """Boundary levels B(t, p) for a sweep of unit-profit values.

    ABOVE_GRID entries are stored as +inf (boundary above every grid price,
    i.e. continuation regardless of the observed price).
    """

    p_values: np.ndarray
    times: np.ndarray
    B: np.ndarray  # shape (n_times, n_p)

    def to_long_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "p", "B"])
            for i, t in enumerate(self.times):
                for j, p in enumerate(self.p_values):
                    writer.writerow([f"{t:.6g}", f"{p:.6g}", f"{self.B[i, j]:.6g}"])

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

    def p_curvature(self) -> np.ndarray:
        """Discrete second difference of B in p per time (diagnostic only).

        Mostly negative values indicate the flattening of the surface as p
        grows (diminishing effect of further profit increases).
        """
        return np.diff(self.B, n=2, axis=1)


def surface(
    gbm: GbmParams,
    horizon: float,
    p_values,
    config: SolverConfig | None = None,
    emission_rate: float = 1.0,
) -> SurfaceGrid:
    """One boundary per P level, solved with a shared seed and price grid.

    The boundary does not depend on the emission rate, so `emission_rate`
    is only a placeholder for the plant parameter object.
    """
    p_values = np.asarray(sorted(p_values), dtype=float)
    if not len(p_values) or not np.all(p_values > 0) or np.any(np.diff(p_values) == 0):
        raise ConfigError("p_values must be nonempty, positive and distinct")
    config = config or SolverConfig()

    plants = [
        PlantParams(emission_rate=emission_rate, unit_profit=float(p), horizon=horizon)
        for p in p_values
    ]
    shared = replace(config, price_grid=_shared_grid(gbm, plants, config))

    time_grid = TimeGrid(horizon=horizon)
    columns = []
    for pl in plants:
        _, boundary = solve_boundary(gbm, pl, shared, time_grid)
        columns.append(boundary.values_or_inf())
    return SurfaceGrid(
        p_values=p_values, times=time_grid.times, B=np.column_stack(columns)
    )


def min_survival_p(surf: SurfaceGrid, t: float, y: float) -> float | None:
    """Smallest swept P whose boundary at time t sits strictly above y."""
    idx = np.nonzero(np.isclose(surf.times, t, rtol=0, atol=1e-9))[0]
    if not len(idx):
        raise ConfigError(f"t={t} is not on the surface time grid")
    row = surf.B[idx[0]]
    qualifying = np.nonzero(row > y)[0]
    if not len(qualifying):
        return None
    return float(surf.p_values[qualifying[0]])
