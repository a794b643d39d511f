"""Command-line front end.

One JSON config per run; scalar flags (--seed, --samples, --grid) override
the corresponding config fields.  Outputs are written atomically (temp file
then rename), so an aborted run never leaves partial files behind.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import click
import numpy as np

from .errors import ConfigError, DataError, NumericError
from .gbm import GbmParams, Seed
from .market_data import estimate_gbm, load_price_csv, log_returns, split_at
from .plant import PlantParams
from .scenario import apply_upgrade, min_survival_p, monitor, surface
from .solver import (
    SolverConfig,
    geometric_price_grid,
    smooth_boundary,
    solve_boundary,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


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


def _atomic_write(path: Path, writer) -> None:
    """Write via `writer(tmp_path)` and rename into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        writer(Path(tmp))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(
        path,
        lambda tmp: tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        ),
    )


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
    return config


def _parse_day(text: str, flag: str):
    try:
        return datetime.strptime(text, "%Y-%m-%d").date()
    except ValueError as exc:
        raise ConfigError(f"{flag} must be YYYY-MM-DD, got {text!r}") from exc


def _resolve_gbm(config: dict) -> GbmParams:
    has_gbm = "gbm" in config
    has_est = "estimate" in config
    if has_gbm == has_est:
        raise ConfigError("config needs exactly one of 'gbm' or 'estimate'")
    if has_gbm:
        block = config["gbm"]
        for key in ("y0", "mu", "sigma"):
            if key not in block:
                raise ConfigError(f"gbm config missing field '{key}'")
        return GbmParams(
            y0=float(block["y0"]), mu=float(block["mu"]), sigma=float(block["sigma"])
        )
    block = config["estimate"]
    if "csv" not in block:
        raise ConfigError("estimate config missing field 'csv'")
    series = load_price_csv(block["csv"], columns=block.get("columns"))
    if block.get("start"):
        _, series = split_at(series, _parse_day(block["start"], "estimate.start"))
    if block.get("end"):
        series, _ = split_at(series, _parse_day(block["end"], "estimate.end"))
    est = estimate_gbm(log_returns(series))
    y0 = float(block.get("y0", series.prices[-1]))
    return GbmParams(y0=y0, mu=est.mu, sigma=est.sigma)


def _resolve_solver_config(
    config: dict, seed: int | None, samples: int | None, grid: int | None
) -> SolverConfig:
    block = dict(config.get("solver", {}))
    for key, flag in (("seed", seed), ("samples", samples), ("grid", grid)):
        if flag is not None:
            block[key] = flag
    if ("grid_min" in block) != ("grid_max" in block):
        raise ConfigError("grid_min and grid_max must be given together")
    default = SolverConfig()
    try:
        solver_config = SolverConfig(
            samples_per_node=int(block.get("samples", default.samples_per_node)),
            grid_size=int(block.get("grid", default.grid_size)),
            seed=Seed(int(block.get("seed", default.seed.value))),
            stop_tol_scale=float(block.get("stop_tol_scale", default.stop_tol_scale)),
        )
        if "grid_min" in block:
            lo, hi = float(block["grid_min"]), float(block["grid_max"])
            price_grid = geometric_price_grid(lo, hi, solver_config.grid_size)
            solver_config = replace(solver_config, price_grid=price_grid)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid solver config: {exc}") from exc
    return solver_config


def _resolve_plant(config: dict) -> PlantParams:
    if "plant" not in config:
        raise ConfigError("config missing 'plant' section")
    return PlantParams.from_dict(config["plant"])


def _resolve_run(
    config_path: str, seed: int | None, samples: int | None, grid: int | None
) -> tuple[dict, GbmParams, SolverConfig]:
    """The prologue every config-driven command shares."""
    config = _load_config(config_path)
    return config, _resolve_gbm(config), _resolve_solver_config(
        config, seed, samples, grid
    )


def _boundary_summary(boundary, solver_config, elapsed) -> dict:
    found = boundary.found_mask()
    return {
        "b0": float(boundary.values[0]) if found[0] else None,
        "bT": float(boundary.values[-1]) if found[-1] else None,
        "above_grid_times": int((~found).sum()),
        "runtime_seconds": elapsed,
        "seed": solver_config.seed.value,
        "samples_per_node": solver_config.samples_per_node,
        "grid_size": solver_config.grid_size,
    }


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
@click.option("--date-column", default="date", show_default=True)
@click.option("--price-column", default="close", show_default=True)
@click.option("--volume-column", default="volume", show_default=True)
@click.option("--start", default=None, help="Window start (YYYY-MM-DD, inclusive).")
@click.option("--end", default=None, help="Window end (YYYY-MM-DD, exclusive).")
@handle_errors
def estimate(csv_path, date_column, price_column, volume_column, start, end):
    """Estimate daily GBM drift/volatility from a price CSV."""
    series = load_price_csv(
        csv_path,
        columns={
            "date": date_column,
            "price": price_column,
            "volume": volume_column,
        },
    )
    if start:
        _, series = split_at(series, _parse_day(start, "--start"))
    if end:
        series, _ = split_at(series, _parse_day(end, "--end"))
    est = estimate_gbm(log_returns(series))
    click.echo(json.dumps(est.to_dict(), indent=2, sort_keys=True))


@main.command()
@with_common_options
@handle_errors
def solve(config_path, seed, out_dir, samples, grid):
    """Solve the halt boundary; writes boundary.csv and summary.json."""
    config, gbm, solver_config = _resolve_run(config_path, seed, samples, grid)
    plant = _resolve_plant(config)
    smooth = config.get("solver", {}).get("smooth", "none")

    start_time = time.perf_counter()
    _, boundary = solve_boundary(gbm, plant, solver_config)
    boundary = smooth_boundary(boundary, method=smooth)
    elapsed = time.perf_counter() - start_time

    out = Path(out_dir)
    _atomic_write(out / "boundary.csv", boundary.to_csv)
    _write_json(
        out / "summary.json", _boundary_summary(boundary, solver_config, elapsed)
    )
    click.echo(f"wrote {out / 'boundary.csv'} and {out / 'summary.json'}")


@main.command("monitor")
@with_common_options
@handle_errors
def monitor_cmd(config_path, seed, out_dir, samples, grid):
    """Solve the boundary and test daily prices against it; writes monitor.json."""
    config, gbm, solver_config = _resolve_run(config_path, seed, samples, grid)
    plant = _resolve_plant(config)
    block = config.get("monitor")
    if not block:
        raise ConfigError("config missing 'monitor' section")
    if "prices_csv" in block:
        series = load_price_csv(block["prices_csv"], columns=block.get("columns"))
        prices = series.prices
    elif "prices" in block:
        prices = block["prices"]
    else:
        raise ConfigError("monitor config needs 'prices_csv' or 'prices'")

    _, boundary = solve_boundary(gbm, plant, solver_config)
    report = monitor(boundary, prices)

    out = Path(out_dir)
    _write_json(out / "monitor.json", report.to_dict())
    click.echo(f"wrote {out / 'monitor.json'}")


@main.command("upgrade")
@with_common_options
@handle_errors
def upgrade_cmd(config_path, seed, out_dir, samples, grid):
    """Solve before/after/composite boundaries around a plant upgrade."""
    config, gbm, solver_config = _resolve_run(config_path, seed, samples, grid)
    plant = _resolve_plant(config)
    if plant.upgrade is None:
        raise ConfigError("plant config has no 'upgrade' block")

    start_time = time.perf_counter()
    before, after, composite = apply_upgrade(gbm, plant, solver_config)
    elapsed = time.perf_counter() - start_time

    out = Path(out_dir)
    _atomic_write(out / "boundary_before.csv", before.to_csv)
    _atomic_write(out / "boundary_after.csv", after.to_csv)
    _atomic_write(out / "boundary_composite.csv", composite.to_csv)
    _write_json(
        out / "summary.json", _boundary_summary(composite, solver_config, elapsed)
    )
    click.echo(f"wrote 3 boundary CSVs and summary.json to {out}")


@main.command("surface")
@with_common_options
@handle_errors
def surface_cmd(config_path, seed, out_dir, samples, grid):
    """Sweep unit-profit levels into a stopping surface B(t, p)."""
    config, gbm, solver_config = _resolve_run(config_path, seed, samples, grid)
    block = config.get("surface")
    if not block:
        raise ConfigError("config missing 'surface' section")
    if "T" not in block:
        raise ConfigError("surface config missing field 'T'")
    horizon = float(block["T"])
    if "p_values" in block:
        p_values = [float(p) for p in block["p_values"]]
    elif all(k in block for k in ("p_start", "p_stop", "p_step")):
        p_values = np.arange(
            float(block["p_start"]),
            float(block["p_stop"]) + 1e-9,
            float(block["p_step"]),
        ).tolist()
    else:
        raise ConfigError(
            "surface config needs 'p_values' or p_start/p_stop/p_step"
        )

    start_time = time.perf_counter()
    surf = surface(gbm, horizon, p_values, solver_config)
    elapsed = time.perf_counter() - start_time

    out = Path(out_dir)
    _atomic_write(out / "surface.csv", surf.to_long_csv)
    _atomic_write(
        out / "surface.json",
        lambda tmp: tmp.write_text(surf.to_json() + "\n", encoding="utf-8"),
    )

    payload = {
        "runtime_seconds": elapsed,
        "seed": solver_config.seed.value,
        "p_values": surf.p_values.tolist(),
    }
    if "survival_query" in block:
        q = block["survival_query"]
        p_min = min_survival_p(surf, float(q["t"]), float(q["y"]))
        payload["min_survival_p"] = p_min
    _write_json(out / "surface_summary.json", payload)
    click.echo(f"wrote surface.csv, surface.json, surface_summary.json to {out}")


if __name__ == "__main__":
    main()
