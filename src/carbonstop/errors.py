"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""


class CarbonStopError(Exception):
    """Base class for all package errors."""


class ConfigError(CarbonStopError):
    """Invalid run configuration (bad fields, missing sections, bad values)."""


class DataError(CarbonStopError):
    """Invalid input data (malformed CSV rows, non-monotone dates, ...)."""


class NumericError(CarbonStopError):
    """Numerical failure (degenerate grids, non-finite intermediates)."""
