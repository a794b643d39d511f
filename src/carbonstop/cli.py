"""Command-line front end.

One JSON config per run; scalar flags (--seed, --samples, --grid) override
the corresponding config fields.  This module alone knows the config
format: each block is read by `_section`, which refuses a key the block
does not hold, each number by `config_number`, each file path by
`config_text` and each column mapping by `_columns`.  Outputs are written
atomically (temp file then rename), so an aborted run never leaves partial
files behind.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, replace
from datetime import datetime
from pathlib import Path

import click
import numpy as np

from .errors import ConfigError, DataError, NumericError
from .gbm import GbmParams, Seed
from .market_data import (
    DEFAULT_COLUMNS, estimate_gbm, load_price_csv, log_returns, split_at,
)
from .plant import PlantParams, Upgrade
from .scenario import apply_upgrade, min_survival_p, monitor, surface
from .solver import (
    SMOOTH_METHODS,
    SolverConfig,
    TimeGrid,
    geometric_price_grid,
    smooth_boundary,
    solve_boundary,
    time_index,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Every command accepts the same top-level sections, so that one config can
# carry the blocks of several commands.
SECTIONS = ("gbm", "estimate", "plant", "solver", "monitor", "surface")
PLANT_KEYS = ("M", "P", "T", "upgrade")
UPGRADE_KEYS = ("day", "P_new", "M_new")


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handle_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ConfigError as exc:
            _fail(EXIT_CONFIG, str(exc))
        except DataError as exc:
            _fail(EXIT_DATA, str(exc))
        except NumericError as exc:
            _fail(EXIT_NUMERIC, str(exc))

    return wrapper


def _write_outputs(out_dir: str, writers: dict) -> None:
    """Write each `name: writer` pair as `writer(tmp_path)`, then rename all.

    Nothing is renamed into place unless every writer succeeded, so an
    aborted run leaves the directory as it was.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, writer in writers.items():
            fd, tmp = tempfile.mkstemp(dir=out, prefix=f".{name}.")
            os.close(fd)
            staged.append((tmp, out / name))
            writer(Path(tmp))
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
    click.echo(f"wrote {', '.join(writers)} to {out}")


def _json_writer(payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return lambda tmp: tmp.write_text(text, encoding="utf-8")


def _timed(compute):
    """(compute(), seconds it took)."""
    start = time.perf_counter()
    result = compute()
    return result, time.perf_counter() - start


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for name in config:
        if name not in SECTIONS:
            raise ConfigError(f"unknown config section '{name}'")
    return config


def _section(config: dict, name: str, keys, optional: bool = False) -> dict:
    """Block `name` of `config`, checked to be an object holding only `keys`;
    an absent optional block is {}."""
    if name not in config and not optional:
        raise ConfigError(f"config missing '{name}' section")
    block = config.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config '{name}' section must be a JSON object")
    for key in block:
        if key not in keys:
            raise ConfigError(f"unknown config key '{name}.{key}'")
    return block


def config_number(block: dict, key: str, section: str) -> float:
    """`block[key]` as a finite float; a missing key is a ConfigError."""
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


def config_text(block: dict, key: str, section: str) -> str:
    """`block[key]` as a string; a missing key is a ConfigError."""
    if key not in block:
        raise ConfigError(f"{section} config missing field '{key}'")
    value = block[key]
    if not isinstance(value, str):
        raise ConfigError(
            f"{section}.{key} must be a string, got {type(value).__name__}"
        )
    return value


def _columns(block: dict, section: str) -> dict | None:
    """`block["columns"]`, checked to map date and/or price to header
    names; absent or null means the default headers."""
    columns = block.get("columns")
    if columns is None:
        return None
    name = f"{section}.columns"
    if not isinstance(columns, dict):
        raise ConfigError(
            f"{name} must be a JSON object, got {type(columns).__name__}"
        )
    for key, header in columns.items():
        if key not in DEFAULT_COLUMNS:
            raise ConfigError(
                f"unknown key '{key}' in {name}; expected date or price"
            )
        if not isinstance(header, str):
            raise ConfigError(
                f"{name}.{key} must be a string, got {type(header).__name__}"
            )
    return columns


def _plant(block: dict) -> PlantParams:
    return PlantParams(*(config_number(block, key, "plant") for key in ("M", "P", "T")))


def _constant_plant(config: dict) -> PlantParams:
    """The plant of a command that solves with constant (M, P)."""
    block = _section(config, "plant", PLANT_KEYS)
    if block.get("upgrade") is not None:
        raise ConfigError(
            "plant has an 'upgrade' block, which only the upgrade command "
            "reads (apply_upgrade); the solver takes constant (M, P)"
        )
    return _plant(block)


def _parse_day(text, flag: str):
    try:
        return datetime.strptime(text, "%Y-%m-%d").date()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{flag} must be YYYY-MM-DD, got {text!r}") from exc


def _estimate(csv_path, columns, start, end, flags: tuple[str, str]):
    """(series, GBM estimate) of a price CSV cut to [start, end); `flags`
    name the start and end options in error messages."""
    series = load_price_csv(csv_path, columns=columns)
    if start:
        _, series = split_at(series, _parse_day(start, flags[0]))
    if end:
        series, _ = split_at(series, _parse_day(end, flags[1]))
    return series, estimate_gbm(log_returns(series))


def _resolve_gbm(config: dict) -> GbmParams:
    has_gbm = "gbm" in config
    has_est = "estimate" in config
    if has_gbm == has_est:
        raise ConfigError("config needs exactly one of 'gbm' or 'estimate'")
    if has_gbm:
        keys = ("y0", "mu", "sigma")
        block = _section(config, "gbm", keys)
        return GbmParams(*(config_number(block, key, "gbm") for key in keys))
    block = _section(config, "estimate", ("csv", "columns", "start", "end", "y0"))
    series, est = _estimate(
        config_text(block, "csv", "estimate"), _columns(block, "estimate"),
        block.get("start"), block.get("end"), ("estimate.start", "estimate.end"),
    )
    y0 = config_number(block, "y0", "estimate") if "y0" in block else series.prices[-1]
    return GbmParams(y0=y0, mu=est.mu, sigma=est.sigma)


def _resolve_solver_config(
    config: dict, seed: int | None, samples: int | None, grid: int | None
) -> tuple[SolverConfig, str]:
    keys = (
        "samples", "grid", "seed", "stop_tol_scale", "smooth", "grid_min", "grid_max"
    )
    block = dict(_section(config, "solver", keys, optional=True))
    for key, flag in (("seed", seed), ("samples", samples), ("grid", grid)):
        if flag is not None:
            block[key] = flag
    if ("grid_min" in block) != ("grid_max" in block):
        raise ConfigError("grid_min and grid_max must be given together")

    def read(key, fallback, integer=False):
        value = block.get(key, fallback)
        if integer and type(value) is int:  # exact past 2**53; a bool is no int
            return value
        value = config_number(block, key, "solver") if key in block else fallback
        if integer and not value.is_integer():
            raise ConfigError(f"solver.{key} must be an integer, got {value!r}")
        return int(value) if integer else value

    default = SolverConfig()
    solver_config = SolverConfig(
        samples_per_node=read("samples", default.samples_per_node, integer=True),
        grid_size=read("grid", default.grid_size, integer=True),
        seed=Seed(read("seed", default.seed.value, integer=True)),
        stop_tol_scale=read("stop_tol_scale", default.stop_tol_scale),
    )
    if "grid_min" in block:
        lo, hi = read("grid_min", None), read("grid_max", None)
        price_grid = geometric_price_grid(lo, hi, solver_config.grid_size)
        solver_config = replace(solver_config, price_grid=price_grid)
    smooth = block.get("smooth", "none")
    if smooth not in SMOOTH_METHODS:
        raise ConfigError(f"unknown solver.smooth method {smooth!r}")
    return solver_config, smooth


def _resolve_run(
    config_path: str, seed: int | None, samples: int | None, grid: int | None
) -> tuple[dict, GbmParams, SolverConfig, str]:
    """The prologue every config-driven command shares (last: solver.smooth)."""
    config = _load_config(config_path)
    return config, _resolve_gbm(config), *_resolve_solver_config(
        config, seed, samples, grid
    )


def _summary_writer(boundary, solver_config, elapsed):
    found = boundary.found_mask()
    return _json_writer({
        "b0": float(boundary.values[0]) if found[0] else None,
        "bT": float(boundary.values[-1]) if found[-1] else None,
        "above_grid_times": int((~found).sum()),
        "runtime_seconds": elapsed,
        "seed": solver_config.seed.value,
        "samples_per_node": solver_config.samples_per_node,
        "grid_size": solver_config.grid_size,
    })


common_options = [
    click.option("--config", "config_path", required=True, type=str,
                 help="JSON run configuration."),
    click.option("--seed", type=int, default=None, help="Override master seed."),
    click.option("--out", "out_dir", type=str, default=".",
                 help="Output directory."),
    click.option("--samples", type=int, default=None,
                 help="Override samples per node."),
    click.option("--grid", type=int, default=None,
                 help="Override price grid size."),
]


def with_common_options(func):
    for option in reversed(common_options):
        func = option(func)
    return func


@click.group()
def main():
    """Production-halt boundary solver for carbon-constrained plants."""


@main.command()
@click.argument("csv_path", type=str)
@click.option("--date-column", default=DEFAULT_COLUMNS["date"], show_default=True)
@click.option("--price-column", default=DEFAULT_COLUMNS["price"], show_default=True)
@click.option("--start", default=None, help="Window start (YYYY-MM-DD, inclusive).")
@click.option("--end", default=None, help="Window end (YYYY-MM-DD, exclusive).")
@handle_errors
def estimate(csv_path, date_column, price_column, start, end):
    """Estimate daily GBM drift/volatility from a price CSV."""
    columns = {"date": date_column, "price": price_column}
    _, est = _estimate(csv_path, columns, start, end, ("--start", "--end"))
    click.echo(json.dumps(asdict(est), indent=2, sort_keys=True))


@main.command()
@with_common_options
@handle_errors
def solve(config_path, seed, out_dir, samples, grid):
    """Solve the halt boundary; writes boundary.csv and summary.json."""
    config, gbm, solver_config, smooth = _resolve_run(config_path, seed, samples, grid)
    plant = _constant_plant(config)

    boundary, elapsed = _timed(lambda: smooth_boundary(
        solve_boundary(gbm, plant, solver_config)[1], method=smooth
    ))
    _write_outputs(out_dir, {
        "boundary.csv": boundary.to_csv,
        "summary.json": _summary_writer(boundary, solver_config, elapsed),
    })


@main.command("monitor")
@with_common_options
@handle_errors
def monitor_cmd(config_path, seed, out_dir, samples, grid):
    """Solve the boundary and test daily prices against it; writes monitor.json."""
    config, gbm, solver_config, _ = _resolve_run(config_path, seed, samples, grid)
    plant = _constant_plant(config)
    block = _section(config, "monitor", ("prices_csv", "columns", "prices"))
    columns = _columns(block, "monitor")
    if "prices_csv" in block:
        path = config_text(block, "prices_csv", "monitor")
        prices = load_price_csv(path, columns=columns).prices
    elif "prices" in block:
        prices = block["prices"]
        if not isinstance(prices, list) or {type(p) for p in prices} - {int, float}:
            raise DataError("monitor.prices must be a flat list of numbers")
    else:
        raise ConfigError("monitor config needs 'prices_csv' or 'prices'")

    _, boundary = solve_boundary(gbm, plant, solver_config)
    report = monitor(boundary, prices)
    _write_outputs(out_dir, {"monitor.json": _json_writer(asdict(report))})


@main.command("upgrade")
@with_common_options
@handle_errors
def upgrade_cmd(config_path, seed, out_dir, samples, grid):
    """Solve before/after/composite boundaries around a plant upgrade."""
    config, gbm, solver_config, _ = _resolve_run(config_path, seed, samples, grid)
    block = _section(config, "plant", PLANT_KEYS)
    if block.get("upgrade") is None:
        raise ConfigError("plant config has no 'upgrade' block")
    plant = _plant(block)
    upgrade_block = _section(block, "upgrade", UPGRADE_KEYS)
    upgrade = Upgrade(
        *(config_number(upgrade_block, key, "upgrade") for key in UPGRADE_KEYS)
    )

    (before, after, composite), elapsed = _timed(
        lambda: apply_upgrade(gbm, plant, upgrade, solver_config)
    )
    _write_outputs(out_dir, {
        "boundary_before.csv": before.to_csv,
        "boundary_after.csv": after.to_csv,
        "boundary_composite.csv": composite.to_csv,
        "summary.json": _summary_writer(composite, solver_config, elapsed),
    })


@main.command("surface")
@with_common_options
@handle_errors
def surface_cmd(config_path, seed, out_dir, samples, grid):
    """Sweep unit-profit levels into a stopping surface B(t, p)."""
    config, gbm, solver_config, _ = _resolve_run(config_path, seed, samples, grid)
    keys = ("T", "p_values", "p_start", "p_stop", "p_step", "survival_query")
    block = _section(config, "surface", keys)
    horizon = config_number(block, "T", "surface")
    if "p_values" in block:
        values = block["p_values"]
        if not isinstance(values, list):
            raise ConfigError("surface.p_values must be a list of numbers")
        p_values = [finite_number(p, "surface.p_values") for p in values]
    elif all(k in block for k in ("p_start", "p_stop", "p_step")):
        start, stop, step = (
            config_number(block, key, "surface")
            for key in ("p_start", "p_stop", "p_step")
        )
        if step <= 0:
            raise ConfigError(f"surface.p_step must be positive, got {step}")
        p_values = np.arange(start, stop + 1e-9, step).tolist()
    else:
        raise ConfigError(
            "surface config needs 'p_values' or p_start/p_stop/p_step"
        )
    query = block.get("survival_query")
    if query is not None:
        query = _section(block, "survival_query", ("t", "y"))
        t, y = (config_number(query, key, "survival_query") for key in ("t", "y"))
        time_index(TimeGrid(horizon).times, t)
        if y <= 0:
            raise ConfigError(f"survival_query.y must be positive, got {y}")

    surf, elapsed = _timed(lambda: surface(gbm, horizon, p_values, solver_config))
    summary = {
        "runtime_seconds": elapsed,
        "seed": solver_config.seed.value,
        "p_values": surf.p_values.tolist(),
    }
    if query is not None:
        summary["min_survival_p"] = min_survival_p(surf, t, y)
    _write_outputs(out_dir, {
        "surface.csv": surf.to_long_csv,
        "surface.json": lambda tmp: tmp.write_text(
            surf.to_json() + "\n", encoding="utf-8"
        ),
        "surface_summary.json": _json_writer(summary),
    })


if __name__ == "__main__":
    main()
