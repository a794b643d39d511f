"""Command-line front end.

One JSON config per run; scalar flags (--seed, --samples, --grid) override
the corresponding config fields.  This module alone knows the config
format: `_section` reads every JSON object in it (the root, each section
and the `upgrade`, `survival_query` and `columns` blocks) and refuses a key
the object does not hold; `_field` reads every number, string and list,
and both name the full dotted path in their errors.  Each config-driven
command is registered by `config_command`, which reads `gbm` and `solver`
for it.
Outputs are written atomically (temp file then rename), so an aborted run
never leaves partial files behind.

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

# The exit code of each error a command may raise; 0 is success.
EXIT_CODES = {ConfigError: 2, DataError: 3, NumericError: 4}

# Every command accepts the same top-level sections, so that one config can
# carry the blocks of several commands.
SECTIONS = ("gbm", "estimate", "plant", "solver", "monitor", "surface")
PLANT_KEYS = ("M", "P", "T", "upgrade")
UPGRADE_KEYS = ("day", "P_new", "M_new")
P_RANGE = ("p_start", "p_stop", "p_step")


def handle_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except tuple(EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CODES[type(exc)])

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
    return _section({"config": config}, "config", SECTIONS)


def _field(block, key, path: str, kind: type = float):
    """`block[key]` as a finite float, or checked to be a `kind` (str, dict
    or list); a missing key is a ConfigError.  `path` is the block's dotted
    name in the config ("" for the root), so errors name `path.key`."""
    try:
        value = block[key]
    except KeyError:
        raise ConfigError(f"{path} config missing field '{key}'".lstrip()) from None
    name = f"{path}.{key}" if path else key
    if kind is not float:
        if isinstance(value, kind):
            return value
        noun = {str: "a string", dict: "a JSON object", list: "a JSON list"}[kind]
        raise ConfigError(f"{name} must be {noun}, got {type(value).__name__}")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and abs(value) <= sys.float_info.max:  # False for NaN and inf
        return float(value)
    got = repr(value) if isinstance(value, float) else type(value).__name__
    raise ConfigError(f"{name} must be a finite number, got {got}")


def _section(parent: dict, key: str, keys, path: str = "", optional: bool = False,
             kind: type | None = None) -> dict | None:
    """`parent[key]`, checked to be a JSON object holding only `keys`, each
    value a `kind` if one is given; an optional block that is absent or
    null is None.  `path` is the parent's dotted name, as for `_field`."""
    if optional and parent.get(key) is None:
        return None
    block = _field(parent, key, path, dict)
    name = f"{path}.{key}" if path else key
    for k in block:
        if k not in keys:
            raise ConfigError(
                f"unknown key '{k}' in {name}; expected one of {', '.join(keys)}"
            )
        if kind is not None:
            _field(block, k, name, kind)
    return block


def _plant(block: dict) -> PlantParams:
    return PlantParams(*(_field(block, key, "plant") for key in ("M", "P", "T")))


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
    if ("gbm" in config) == ("estimate" in config):
        raise ConfigError("config needs exactly one of 'gbm' or 'estimate'")
    if "gbm" in config:
        keys = ("y0", "mu", "sigma")
        block = _section(config, "gbm", keys)
        return GbmParams(*(_field(block, key, "gbm") for key in keys))
    block = _section(config, "estimate", ("csv", "columns", "start", "end", "y0"))
    columns = _section(
        block, "columns", DEFAULT_COLUMNS, "estimate", optional=True, kind=str
    )
    series, est = _estimate(
        _field(block, "csv", "estimate", str), columns,
        block.get("start"), block.get("end"), ("estimate.start", "estimate.end"),
    )
    y0 = _field(block, "y0", "estimate") if "y0" in block else series.prices[-1]
    return GbmParams(y0=y0, mu=est.mu, sigma=est.sigma)


def _resolve_solver_config(
    config: dict, seed: int | None, samples: int | None, grid: int | None
) -> tuple[SolverConfig, str]:
    keys = (
        "samples", "grid", "seed", "stop_tol_scale", "smooth", "grid_min", "grid_max"
    )
    block = dict(_section(config, "solver", keys) if "solver" in config else {})
    for key, flag in (("seed", seed), ("samples", samples), ("grid", grid)):
        if flag is not None:
            block[key] = flag
    if ("grid_min" in block) != ("grid_max" in block):
        raise ConfigError("grid_min and grid_max must be given together")

    def read(key, fallback, integer=False):
        value = block.get(key, fallback)
        if integer and type(value) is int:  # exact past 2**53; a bool is no int
            return value
        value = _field(block, key, "solver") if key in block else fallback
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


@click.group()
def main():
    """Production-halt boundary solver for carbon-constrained plants."""


def config_command(name: str, smooths: bool = False):
    """Register `body` as the config-driven command `name`.

    The command takes --config, --seed, --out, --samples and --grid, reads
    the config's `gbm` (or `estimate`) and then its `solver` block, and
    calls `body(config, gbm, solver_config, smooth, out_dir)`; its errors
    exit with their EXIT_CODES.  A command that does not `smooth` refuses a
    `solver.smooth` other than "none".
    """
    def register(body):
        @main.command(name, help=body.__doc__)
        @click.option("--config", "config_path", required=True, type=str,
                      help="JSON run configuration.")
        @click.option("--seed", type=int, default=None, help="Override master seed.")
        @click.option("--out", "out_dir", type=str, default=".",
                      help="Output directory.")
        @click.option("--samples", type=int, default=None,
                      help="Override samples per node.")
        @click.option("--grid", type=int, default=None,
                      help="Override price grid size.")
        @handle_errors
        def command(config_path, seed, out_dir, samples, grid):
            config = _load_config(config_path)
            gbm = _resolve_gbm(config)
            solver_config, smooth = _resolve_solver_config(config, seed, samples, grid)
            if smooth != "none" and not smooths:
                raise ConfigError(
                    f"solver.smooth {smooth!r} applies only to solve; "
                    f"{name} uses the unsmoothed boundary"
                )
            body(config, gbm, solver_config, smooth, out_dir)

        return command

    return register


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


@config_command("solve", smooths=True)
def solve(config, gbm, solver_config, smooth, out_dir):
    """Solve the halt boundary; writes boundary.csv and summary.json."""
    plant = _constant_plant(config)

    boundary, elapsed = _timed(lambda: smooth_boundary(
        solve_boundary(gbm, plant, solver_config)[1], method=smooth
    ))
    _write_outputs(out_dir, {
        "boundary.csv": boundary.to_csv,
        "summary.json": _summary_writer(boundary, solver_config, elapsed),
    })


@config_command("monitor")
def monitor_cmd(config, gbm, solver_config, _, out_dir):
    """Solve the boundary and test daily prices against it; writes monitor.json."""
    plant = _constant_plant(config)
    block = _section(config, "monitor", ("prices_csv", "columns", "prices"))
    if ("prices_csv" in block) == ("prices" in block):
        raise ConfigError("monitor config needs exactly one of 'prices_csv' or 'prices'")
    if "prices" in block:
        if block.get("columns") is not None:
            raise ConfigError("monitor.columns applies only to monitor.prices_csv")
        prices = block["prices"]  # checked by scenario.monitor
    else:
        columns = _section(
            block, "columns", DEFAULT_COLUMNS, "monitor", optional=True, kind=str
        )
        path = _field(block, "prices_csv", "monitor", str)
        prices = load_price_csv(path, columns=columns).prices

    _, boundary = solve_boundary(gbm, plant, solver_config)
    report = monitor(boundary, prices)
    _write_outputs(out_dir, {"monitor.json": _json_writer(asdict(report))})


@config_command("upgrade")
def upgrade_cmd(config, gbm, solver_config, _, out_dir):
    """Solve before/after/composite boundaries around a plant upgrade."""
    block = _section(config, "plant", PLANT_KEYS)
    upgrade_block = _section(block, "upgrade", UPGRADE_KEYS, "plant", optional=True)
    if upgrade_block is None:
        raise ConfigError("plant config has no 'upgrade' block")
    plant = _plant(block)
    upgrade = Upgrade(
        *(_field(upgrade_block, key, "plant.upgrade") for key in UPGRADE_KEYS)
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


@config_command("surface")
def surface_cmd(config, gbm, solver_config, _, out_dir):
    """Sweep unit-profit levels into a stopping surface B(t, p)."""
    keys = ("T", "p_values", *P_RANGE, "survival_query")
    block = _section(config, "surface", keys)
    horizon = _field(block, "T", "surface")
    if ("p_values" in block) == any(key in block for key in P_RANGE):
        raise ConfigError(
            "surface config needs exactly one of 'p_values' or p_start/p_stop/p_step"
        )
    if "p_values" in block:
        values = _field(block, "p_values", "surface", list)
        p_values = [_field(values, i, "surface.p_values") for i in range(len(values))]
    else:
        start, stop, step = (_field(block, key, "surface") for key in P_RANGE)
        if step <= 0:
            raise ConfigError(f"surface.p_step must be positive, got {step}")
        p_values = np.arange(start, stop + 1e-9, step).tolist()
    query = _section(block, "survival_query", ("t", "y"), "surface", optional=True)
    if query is not None:
        t, y = (_field(query, key, "surface.survival_query") for key in ("t", "y"))
        time_index(TimeGrid(horizon).times, t)
        if y <= 0:
            raise ConfigError(f"surface.survival_query.y must be positive, got {y}")

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
