"""Exception hierarchy shared across the package, and the config reader
that turns a bad numeric field into a ConfigError.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""
import sys


class CarbonStopError(Exception):
    """Base class for all package errors."""


class ConfigError(CarbonStopError):
    """Invalid run configuration (bad fields, missing sections, bad values)."""


class DataError(CarbonStopError):
    """Invalid input data (malformed CSV rows, non-monotone dates, ...)."""


class NumericError(CarbonStopError):
    """Numerical failure (degenerate grids, non-finite intermediates)."""


def config_number(block, key: str, section: str) -> float:
    """`block[key]` as a finite float.  A block that is not an object, a
    missing key or a value that is not a finite number is a ConfigError."""
    if not isinstance(block, dict):
        raise ConfigError(f"{section} config must be a JSON object")
    if key not in block:
        raise ConfigError(f"{section} config missing field '{key}'")
    return finite_number(block[key], f"{section}.{key}")


def finite_number(value, name: str) -> float:
    """`value` as a finite float, or a ConfigError naming `name`."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and abs(value) <= sys.float_info.max:  # False for NaN and inf
        return float(value)
    got = repr(value) if isinstance(value, float) else type(value).__name__
    raise ConfigError(f"{name} must be a finite number, got {got}")
