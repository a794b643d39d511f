"""Command-line front end.

One JSON config per run, the only source of its settings.  `FORMAT` and
`REQUIRED` state the config format once, and `_load_config` checks the
whole file against them, whatever the command, naming a bad key by its
dotted path.  Each config-driven command is registered by
`config_command`, which resolves `solver` and hands the command a loader
for the GBM parameters that it calls after its own checks, so no price
file is opened before every check has passed.  Outputs are written
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
from pathlib import Path

import click
import numpy as np

from .errors import ConfigError, DataError, NumericError
from .gbm import GbmParams, Seed
from .market_data import (
    DEFAULT_COLUMNS, estimate_gbm, load_price_csv, log_returns, parse_date, split_at,
)
from .plant import PlantParams, Upgrade
from .scenario import (
    apply_upgrade, check_prices, check_upgrade_day, min_survival_p, monitor, p_levels,
    surface,
)
from .solver import (
    SolverConfig, geometric_price_grid, lattice_steps, solve_boundary, time_index,
)

# The exit code of each error a command may raise; 0 is success.
EXIT_CODES = {ConfigError: 2, DataError: 3, NumericError: 4}

# The config format: the keys each block may hold and the kind of each
# value, which is a nested block (a dict), NUMBER (finite, read as a float),
# INTEGER (taken exactly), STRING or NUMBERS (a list of finite numbers).
# Every command accepts every section, so that one config can carry the
# blocks of several commands, and requires the sections it reads.  Within
# a section, null means no block.
NUMBER, INTEGER, STRING = "a finite number", "an integer", "a string"
NUMBERS = "a JSON list"
COLUMNS = dict.fromkeys(DEFAULT_COLUMNS, STRING)
P_RANGE = ("p_start", "p_stop", "p_step")
FORMAT = {
    "gbm": dict.fromkeys(("y0", "mu", "sigma"), NUMBER),
    "estimate": {"csv": STRING, "columns": COLUMNS, "start": STRING, "end": STRING,
                 "y0": NUMBER},
    "plant": {"M": NUMBER, "P": NUMBER, "T": NUMBER,
              "upgrade": dict.fromkeys(("day", "P_new", "M_new"), NUMBER)},
    "solver": {"samples": INTEGER, "grid": INTEGER, "seed": INTEGER,
               "grid_min": NUMBER, "grid_max": NUMBER},
    "monitor": {"prices_csv": STRING, "columns": COLUMNS},
    "surface": {"T": NUMBER, "p_values": NUMBERS, **dict.fromkeys(P_RANGE, NUMBER),
                "survival_query": {"t": NUMBER, "y": NUMBER}},
}
# The keys a block must hold, by its dotted path.
REQUIRED = {
    "gbm": ("y0", "mu", "sigma"), "estimate": ("csv",), "plant": ("M", "P", "T"),
    "plant.upgrade": ("day", "P_new", "M_new"), "monitor": ("prices_csv",),
    "surface": ("T",), "surface.survival_query": ("t", "y"),
}


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


def _check_out_dir(out_dir: str) -> None:
    """Refuse an --out that `_write_outputs` could not make a directory: an
    existing path that is not one, or a new path under something else."""
    path = Path(out_dir).absolute()
    existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError(f"--out {out_dir}: {existing} is not a directory")


def _json_writer(payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return lambda tmp: tmp.write_text(text, encoding="utf-8")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _check(config, FORMAT)


def _check(value, kind, path: str = ""):
    """`value`, checked to be of `kind` (a block or a value kind), with its
    numbers read as floats or ints and its null nested blocks dropped.
    `path` is its dotted name in the config ("" for the root), named in
    every error."""
    name = path or "config"
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a JSON object, got {type(value).__name__}")
        for key in value:
            if key not in kind:
                raise ConfigError(
                    f"unknown key '{key}' in {name}; expected one of {', '.join(kind)}"
                )
        for key in REQUIRED.get(path, ()):
            _required(value, key, path)
        return {
            key: _check(item, kind[key], f"{path}.{key}".lstrip("."))
            for key, item in value.items()
            if item is not None or not (path and isinstance(kind[key], dict))
        }
    if kind is STRING and isinstance(value, str):
        return value
    if kind is NUMBERS and isinstance(value, list):
        return [_check(item, NUMBER, f"{name}.{i}") for i, item in enumerate(value)]
    if kind is INTEGER and type(value) is int:  # exact past 2**53; a bool is no int
        return value
    if kind in (STRING, NUMBERS):
        raise ConfigError(f"{name} must be {kind}, got {type(value).__name__}")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):  # False for NaN and inf
        got = repr(value) if isinstance(value, float) else type(value).__name__
        raise ConfigError(f"{name} must be {NUMBER}, got {got}")
    if kind is INTEGER and not float(value).is_integer():
        raise ConfigError(f"{name} must be {INTEGER}, got {value!r}")
    return int(value) if kind is INTEGER else float(value)


def _required(block: dict, key: str, path: str = ""):
    """`block[key]`, which the caller needs; `path` names the block."""
    if key not in block:
        raise ConfigError(f"{path} config missing field '{key}'".lstrip())
    return block[key]


def _plant(config: dict, solver_config: SolverConfig, upgrades: bool = False) -> PlantParams:
    """The plant, with constant (M, P) and a lattice within MAX_LATTICE_NODES;
    only a command that `upgrades` takes, and needs, an `upgrade` block."""
    block = _required(config, "plant")
    if "upgrade" in block and not upgrades:
        raise ConfigError(
            "plant has an 'upgrade' block, which only the upgrade command "
            "reads (apply_upgrade); the solver takes constant (M, P)"
        )
    if upgrades and "upgrade" not in block:
        raise ConfigError("plant config has no 'upgrade' block")
    plant = PlantParams(block["M"], block["P"], block["T"])
    size = solver_config.grid_size
    lattice_steps(plant.horizon, size + 1, f"grid size {size}")
    return plant


def _window(start, end, prefix: str) -> list:
    """The [start, end) dates of an estimation window, None for a bound that
    is not given; errors name a bound as `prefix` + start or end."""
    days = []
    for text, bound in ((start, "start"), (end, "end")):
        try:
            day = None if text is None else parse_date(text)
        except ValueError as exc:
            raise ConfigError(f"{prefix}{bound} must be YYYY-MM-DD, got {text!r}") from exc
        days.append(day)
    if None not in days and days[1] <= days[0]:
        raise ConfigError(f"{prefix}end {end} must be after {prefix}start {start}")
    return days


def _estimate(csv_path, columns, window):
    """(series, GBM estimate) of a price CSV cut to the `_window` `window`."""
    start, end = window
    series = load_price_csv(csv_path, columns=columns)
    if start:
        _, series = split_at(series, start)
    if end:
        series, _ = split_at(series, end)
    return series, estimate_gbm(log_returns(series))


def _gbm_loader(config: dict):
    """A function giving the run's GbmParams: the `gbm` block's, or those
    estimated from the `estimate` block's price file, which only the call
    opens.  Both blocks are checked here, before."""
    if ("gbm" in config) == ("estimate" in config):
        raise ConfigError("config needs exactly one of 'gbm' or 'estimate'")
    if "gbm" in config:
        gbm = GbmParams(**config["gbm"])
        return lambda: gbm
    block = config["estimate"]
    window = _window(block.get("start"), block.get("end"), "estimate.")
    if "y0" in block:
        GbmParams(block["y0"], 0.0, 0.0)  # refuse a bad y0 before the file is read

    def load():
        series, est = _estimate(block["csv"], block.get("columns"), window)
        return GbmParams(block.get("y0", series.prices[-1]), est.mu, est.sigma)

    return load


def _solver_config(config: dict) -> SolverConfig:
    """The SolverConfig of the config's `solver` block."""
    block = config.get("solver", {})
    if ("grid_min" in block) != ("grid_max" in block):
        raise ConfigError("grid_min and grid_max must be given together")
    default = SolverConfig()
    solver_config = SolverConfig(
        samples_per_node=block.get("samples", default.samples_per_node),
        grid_size=block.get("grid", default.grid_size),
        seed=Seed(block.get("seed", default.seed.value)),
    )
    if "grid_min" in block:
        lo, hi = block["grid_min"], block["grid_max"]
        price_grid = geometric_price_grid(lo, hi, solver_config.grid_size)
        solver_config = replace(solver_config, price_grid=price_grid)
    return solver_config


def _summary_writer(boundary, solver_config):
    found = np.isfinite(boundary.values)
    return _json_writer({
        "b0": float(boundary.values[0]) if found[0] else None,
        "bT": float(boundary.values[-1]) if found[-1] else None,
        "above_grid_times": int((~found).sum()),
        "seed": solver_config.seed.value,
        "samples_per_node": solver_config.samples_per_node,
        "grid_size": solver_config.grid_size,
    })


@click.group()
def main():
    """Production-halt boundary solver for carbon-constrained plants."""


def config_command(name: str):
    """Register `body` as the config-driven command `name`.

    The command takes --config and --out, checks both and calls
    `body(config, load_gbm, solver_config, out_dir)`; `body` makes its own
    checks before `load_gbm()`, which may read a price file.  Errors exit
    with their EXIT_CODES; a run that succeeds prints how long it took,
    which no written file records.
    """
    def register(body):
        @main.command(name, help=body.__doc__)
        @click.option("--config", "config_path", required=True, type=str,
                      help="JSON run configuration.")
        @click.option("--out", "out_dir", type=str, default=".",
                      help="Output directory.")
        @handle_errors
        def command(config_path, out_dir):
            start = time.perf_counter()
            config = _load_config(config_path)
            _check_out_dir(out_dir)
            body(config, _gbm_loader(config), _solver_config(config), out_dir)
            click.echo(f"{name} took {time.perf_counter() - start:.3f} s")

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
    window = _window(start, end, "--")
    _, est = _estimate(csv_path, {"date": date_column, "price": price_column}, window)
    click.echo(json.dumps(asdict(est), indent=2, sort_keys=True))


@config_command("solve")
def solve(config, load_gbm, solver_config, out_dir):
    """Solve the halt boundary; writes boundary.csv and summary.json."""
    plant = _plant(config, solver_config)
    gbm = load_gbm()
    _, boundary = solve_boundary(gbm, plant, solver_config)
    _write_outputs(out_dir, {
        "boundary.csv": boundary.to_csv,
        "summary.json": _summary_writer(boundary, solver_config),
    })


@config_command("monitor")
def monitor_cmd(config, load_gbm, solver_config, out_dir):
    """Solve the boundary and test daily prices against it; writes monitor.json."""
    plant = _plant(config, solver_config)
    block = _required(config, "monitor")
    gbm = load_gbm()
    series = load_price_csv(block["prices_csv"], columns=block.get("columns"))
    prices = check_prices(series.prices, round(plant.horizon) + 1)
    _, boundary = solve_boundary(gbm, plant, solver_config)
    report = monitor(boundary, prices)
    _write_outputs(out_dir, {"monitor.json": _json_writer(asdict(report))})


@config_command("upgrade")
def upgrade_cmd(config, load_gbm, solver_config, out_dir):
    """Solve before/after/composite boundaries around a plant upgrade."""
    plant = _plant(config, solver_config, upgrades=True)
    block = config["plant"]["upgrade"]
    upgrade = Upgrade(block["day"], block["P_new"], block["M_new"])
    check_upgrade_day(plant, upgrade)
    gbm = load_gbm()
    before, after, composite = apply_upgrade(gbm, plant, upgrade, solver_config)
    _write_outputs(out_dir, {
        "boundary_before.csv": before.to_csv,
        "boundary_after.csv": after.to_csv,
        "boundary_composite.csv": composite.to_csv,
        "summary.json": _summary_writer(composite, solver_config),
    })


@config_command("surface")
def surface_cmd(config, load_gbm, solver_config, out_dir):
    """Sweep unit-profit levels into a stopping surface B(t, p)."""
    block = _required(config, "surface")
    if ("p_values" in block) == any(key in block for key in P_RANGE):
        raise ConfigError(
            "surface config needs exactly one of 'p_values' or p_start/p_stop/p_step"
        )
    if "p_values" in block:
        p_values = block["p_values"]
        count, key = len(p_values), "surface.p_values"
    else:
        start, stop, step = (_required(block, key, "surface") for key in P_RANGE)
        if step <= 0:
            raise ConfigError(f"surface.p_step must be positive, got {step}")
        count, key = (stop + 1e-9 - start) / step, "surface.p_step"  # np.arange's length
    horizon, size = block["T"], solver_config.grid_size
    lattice_steps(horizon, count, f"{key} giving {count:.6g} P levels")
    n_steps = lattice_steps(horizon, size + 1, f"grid size {size}")
    if "p_values" not in block:
        p_values = np.arange(start, stop + 1e-9, step)
    p_values = p_levels(p_values)
    query = block.get("survival_query")
    if query is not None:
        t, y = query["t"], query["y"]
        time_index(np.arange(n_steps + 1.0), t)
        if y <= 0:
            raise ConfigError(f"surface.survival_query.y must be positive, got {y}")
    gbm = load_gbm()
    surf = surface(gbm, horizon, p_values, solver_config)
    summary = {"seed": solver_config.seed.value, "p_values": surf.p_values.tolist()}
    if query is not None:
        summary["min_survival_p"] = min_survival_p(surf, t, y)
    _write_outputs(out_dir, {
        "surface.csv": surf.to_long_csv,
        "surface.json": lambda tmp: tmp.write_text(surf.to_json() + "\n", encoding="utf-8"),
        "surface_summary.json": _json_writer(summary),
    })


if __name__ == "__main__":
    main()
