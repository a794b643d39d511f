"""Optimal production-halt boundaries under stochastic carbon allowance prices."""

from .errors import CarbonStopError, ConfigError, DataError, NumericError
from .gbm import GbmParams, Seed, simulate_path
from .lattice import LatticeSpec, TreeSolution, enumerate_policies, tree_solve
from .market_data import (
    GbmEstimate,
    PriceSeries,
    estimate_gbm,
    load_price_csv,
    log_returns,
    split_at,
)
from .plant import PlantParams, Upgrade, immediate_value, lower_bound, reward
from .scenario import (
    MonitorReport,
    SurfaceGrid,
    apply_upgrade,
    min_survival_p,
    monitor,
    surface,
)
from .solver import (
    ABOVE_GRID,
    FOUND,
    Boundary,
    PriceGrid,
    SolverConfig,
    TimeGrid,
    ValueGrid,
    default_price_grid,
    extract_boundary,
    geometric_price_grid,
    solve_backward,
    solve_boundary,
    value_at,
)

__version__ = "0.1.0"
