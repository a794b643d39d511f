import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import carbonstop
import carbonstop.cli as cli
from carbonstop.cli import main
from carbonstop.solver import MAX_GRID_SIZE, MAX_SAMPLES


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def base_config():
    return {
        "gbm": {"y0": 21.43, "mu": -0.0020, "sigma": 0.0603},
        "plant": {"M": 0.014, "P": 14.7, "T": 20},
        "solver": {"samples": 300, "grid": 60, "seed": 1},
    }


def upgrade_config():
    payload = base_config()
    payload["plant"]["upgrade"] = {"day": 10, "P_new": 17.2, "M_new": 0.012}
    return payload


def surface_config():
    return {
        "gbm": {"y0": 20.0, "mu": -0.003, "sigma": 0.08},
        "solver": {"samples": 300, "grid": 60, "seed": 2},
        "surface": {
            "T": 10,
            "p_start": 5,
            "p_stop": 15,
            "p_step": 5,
            "survival_query": {"t": 0, "y": 1e-6},
        },
    }


def monitor_config():
    payload = base_config()
    payload["monitor"] = {"prices_csv": "prices.csv"}
    return payload


CONFIGS = {
    "solve": base_config,
    "upgrade": upgrade_config,
    "surface": surface_config,
    "monitor": monitor_config,
}


def assert_config_error(result):
    """Exit 2 with exactly one `error:` line and no traceback."""
    assert result.exit_code == 2, (result.output, result.exception)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.output


PRICE_CSV = """date,close,volume
2020-01-02,20.0,10
2020-01-03,22.0,0
2020-01-06,21.0,5
2020-01-07,23.0,5
"""


# --- estimate ---------------------------------------------------------------


def test_estimate_command(runner, tmp_path):
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text(PRICE_CSV)
    result = runner.invoke(main, ["estimate", str(csv_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["sample_count"] == 3
    assert payload["sigma"] > 0


def test_estimate_window(runner, tmp_path):
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text(PRICE_CSV)
    result = runner.invoke(
        main, ["estimate", str(csv_path), "--start", "2020-01-03"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["sample_count"] == 2
    result = runner.invoke(
        main, ["estimate", str(csv_path), "--start", "03/01/2020"]
    )
    assert result.exit_code == 2


def test_estimate_missing_file_exits_3(runner):
    result = runner.invoke(main, ["estimate", "/no/such/file.csv"])
    assert result.exit_code == 3
    assert "error:" in result.output


def test_estimate_row_without_date_exits_3(runner, tmp_path):
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text("close,date\n5.0,2020-01-02\n6.0\n")
    result = runner.invoke(main, ["estimate", str(csv_path)])
    assert result.exit_code == 3, (result.output, result.exception)
    assert "line 3" in result.output


# --- solve --------------------------------------------------------------------


def test_solve_writes_outputs(runner, tmp_path):
    config = write_config(tmp_path, base_config())
    out = tmp_path / "run"
    result = runner.invoke(main, ["solve", "--config", config, "--out", str(out)])
    assert result.exit_code == 0, result.output

    lines = (out / "boundary.csv").read_text().strip().splitlines()
    assert lines[0] == "t,b,status,lower_bound"
    assert len(lines) == 22

    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 1
    assert summary["samples_per_node"] == 300
    # terminal boundary snaps to the grid level just above P; the 60-cell
    # grid here is coarse, so allow one cell of slack
    assert 14.7 <= summary["bT"] <= 16.0


def test_solve_is_byte_deterministic(runner, tmp_path):
    config = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        result = runner.invoke(main, ["solve", "--config", config, "--out", str(out)])
        assert result.exit_code == 0
    assert (out1 / "boundary.csv").read_bytes() == (out2 / "boundary.csv").read_bytes()


def test_solve_seed_override_changes_output(runner, tmp_path):
    config = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    runner.invoke(main, ["solve", "--config", config, "--out", str(out1)])
    runner.invoke(
        main, ["solve", "--config", config, "--out", str(out2), "--seed", "99"]
    )
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["seed"] == 1 and s2["seed"] == 99


def test_solve_keeps_json_seeds_past_2_pow_53_exact(runner, tmp_path):
    # 2**53 and 2**53 + 1 are the same float but two different u64 seeds
    seeds = []
    for seed in (2**53, 2**53 + 1):
        payload = base_config()
        payload["solver"]["seed"] = seed
        config, out = write_config(tmp_path, payload), tmp_path / str(seed)
        result = runner.invoke(main, ["solve", "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        seeds.append(json.loads((out / "summary.json").read_text())["seed"])
    assert seeds == [2**53, 2**53 + 1]


def test_solve_accepts_largest_u64_seed_flag(runner, tmp_path):
    config, out = write_config(tmp_path, base_config()), tmp_path / "run"
    result = runner.invoke(
        main, ["solve", "--config", config, "--out", str(out), "--seed", str(2**64 - 1)]
    )
    assert result.exit_code == 0, result.output
    assert json.loads((out / "summary.json").read_text())["seed"] == 2**64 - 1


def test_solve_with_estimated_parameters(runner, tmp_path):
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text(PRICE_CSV)
    payload = base_config()
    del payload["gbm"]
    payload["estimate"] = {"csv": str(csv_path)}
    config = write_config(tmp_path, payload)
    result = runner.invoke(
        main, ["solve", "--config", config, "--out", str(tmp_path / "est")]
    )
    assert result.exit_code == 0, result.output


def test_solve_config_errors_exit_2(runner, tmp_path):
    # missing plant section
    payload = base_config()
    del payload["plant"]
    result = runner.invoke(
        main, ["solve", "--config", write_config(tmp_path, payload)]
    )
    assert result.exit_code == 2

    # both gbm and estimate given
    payload = base_config()
    payload["estimate"] = {"csv": "x.csv"}
    result = runner.invoke(
        main, ["solve", "--config", write_config(tmp_path, payload, "c2.json")]
    )
    assert result.exit_code == 2

    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["solve", "--config", str(bad)])
    assert result.exit_code == 2

    result = runner.invoke(main, ["solve", "--config", str(tmp_path / "none.json")])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("gbm", "y0", math.inf),
        ("gbm", "mu", math.nan),
        ("gbm", "sigma", -math.inf),
        ("plant", "M", math.nan),
        ("plant", "P", math.inf),
        ("plant", "T", math.inf),
        ("solver", "stop_tol_scale", -1e-6),
        ("solver", "stop_tol_scale", math.nan),
        ("solver", "samples", math.inf),
    ],
)
def test_solve_non_finite_exits_2(runner, tmp_path, section, key, value):
    payload = base_config()
    payload[section][key] = value
    result = runner.invoke(main, ["solve", "--config", write_config(tmp_path, payload)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("key", ["day", "P_new", "M_new"])
def test_upgrade_non_finite_exits_2(runner, tmp_path, key):
    payload = upgrade_config()
    payload["plant"]["upgrade"][key] = math.nan
    config = write_config(tmp_path, payload)
    result = runner.invoke(main, ["upgrade", "--config", config])
    assert result.exit_code == 2, result.output
    assert "finite" in result.output


@pytest.mark.parametrize("command", ["solve", "monitor"])
def test_upgrade_block_refused_outside_upgrade(runner, tmp_path, command):
    payload = upgrade_config()
    payload["monitor"] = {"prices": [1.0, 2.0]}
    result = runner.invoke(main, [command, "--config", write_config(tmp_path, payload)])
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "upgrade" in lines[0]


def test_solve_numeric_error_exits_4(runner, tmp_path):
    payload = base_config()
    payload["solver"]["grid_min"] = 50.0
    payload["solver"]["grid_max"] = 10.0  # inverted span
    config = write_config(tmp_path, payload)
    result = runner.invoke(main, ["solve", "--config", config])
    assert result.exit_code == 4


def test_solve_above_grid_writes_blank_rows(runner, tmp_path):
    # table 1 on a user grid that tops out below P = 14.7: no level stops
    payload = base_config()
    payload["plant"]["T"] = 246
    payload["solver"].update(seed=0, grid_min=1, grid_max=14)
    out = tmp_path / "run"
    result = runner.invoke(
        main, ["solve", "--config", write_config(tmp_path, payload), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output

    with open(out / "boundary.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    assert len(rows) == 247
    assert all(row[1] == "" and row[2] == "ABOVE_GRID" for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["b0"] is None and summary["bT"] is None
    assert summary["above_grid_times"] == len(rows)


def test_solve_with_smoothing(runner, tmp_path):
    payload = base_config()
    payload["solver"]["smooth"] = "isotonic"
    config = write_config(tmp_path, payload)
    result = runner.invoke(
        main, ["solve", "--config", config, "--out", str(tmp_path / "sm")]
    )
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("method", ["spline", 5, None])
def test_unknown_smooth_method_exits_before_solving(runner, tmp_path, monkeypatch, method):
    def no_solve(*args, **kwargs):
        raise AssertionError("the lattice was solved before solver.smooth was checked")

    monkeypatch.setattr(cli, "solve_boundary", no_solve)
    payload = base_config()
    payload["solver"]["smooth"] = method
    result = runner.invoke(main, ["solve", "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert "solver.smooth" in result.output


# --- monitor --------------------------------------------------------------------


def test_monitor_command(runner, tmp_path):
    payload = base_config()
    payload["monitor"] = {"prices": [1.0, 2.0, 60.0]}
    config = write_config(tmp_path, payload)
    out = tmp_path / "mon"
    result = runner.invoke(main, ["monitor", "--config", config, "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "monitor.json").read_text())
    assert report["crossed"] is True
    assert report["crossing_index"] == 2
    assert report["crossing_price"] == 60.0


def test_monitor_rejects_bad_prices_exits_3(runner, tmp_path):
    payload = base_config()
    payload["monitor"] = {"prices": [math.nan, 1000.0]}
    result = runner.invoke(
        main, ["monitor", "--config", write_config(tmp_path, payload)]
    )
    assert result.exit_code == 3
    assert "positive and finite" in result.output


@pytest.mark.parametrize(
    "prices", [5, [[30, 40]], [True, 50], ["30", 40], [None]],
    ids=["scalar", "nested", "bool", "string", "null"],
)
def test_monitor_rejects_prices_that_are_not_a_list_of_numbers(runner, tmp_path, prices):
    payload = base_config()
    payload["monitor"] = {"prices": prices}
    config = write_config(tmp_path, payload)
    result = runner.invoke(main, ["monitor", "--config", config, "--out", str(tmp_path)])
    assert result.exit_code == 3, (result.output, result.exception)
    assert "monitor.prices" in result.output


def test_monitor_requires_prices(runner, tmp_path):
    payload = base_config()
    payload["monitor"] = {}
    config = write_config(tmp_path, payload)
    assert runner.invoke(main, ["monitor", "--config", config]).exit_code == 2


# --- upgrade --------------------------------------------------------------------


def test_upgrade_command(runner, tmp_path):
    config = write_config(tmp_path, upgrade_config())
    out = tmp_path / "up"
    result = runner.invoke(main, ["upgrade", "--config", config, "--out", str(out)])
    assert result.exit_code == 0, result.output
    for name in ("boundary_before.csv", "boundary_after.csv", "boundary_composite.csv"):
        assert (out / name).exists()
    assert (out / "summary.json").exists()


def test_upgrade_without_block_exits_2(runner, tmp_path):
    config = write_config(tmp_path, base_config())
    assert runner.invoke(main, ["upgrade", "--config", config]).exit_code == 2


# --- surface --------------------------------------------------------------------


def test_surface_command(runner, tmp_path):
    config = write_config(tmp_path, surface_config())
    out = tmp_path / "surf"
    result = runner.invoke(main, ["surface", "--config", config, "--out", str(out)])
    assert result.exit_code == 0, result.output

    surf = json.loads((out / "surface.json").read_text())
    assert surf["p_values"] == [5.0, 10.0, 15.0]
    assert len(surf["times"]) == 11

    summary = json.loads((out / "surface_summary.json").read_text())
    assert summary["min_survival_p"] == 5.0

    lines = (out / "surface.csv").read_text().strip().splitlines()
    assert lines[0] == "t,p,B"
    assert len(lines) == 1 + 11 * 3


def test_surface_requires_p_levels(runner, tmp_path):
    payload = {
        "gbm": {"y0": 20.0, "mu": -0.003, "sigma": 0.08},
        "surface": {"T": 10},
    }
    config = write_config(tmp_path, payload)
    assert runner.invoke(main, ["surface", "--config", config]).exit_code == 2


# --- bad config values ------------------------------------------------------------


# (command, path to the block, key) of every numeric config field
NUMERIC_FIELDS = (
    [("solve", ("gbm",), key) for key in ("y0", "mu", "sigma")]
    + [("solve", ("plant",), key) for key in ("M", "P", "T")]
    + [("upgrade", ("plant", "upgrade"), key) for key in ("day", "P_new", "M_new")]
    + [("surface", ("surface",), key) for key in ("T", "p_start", "p_stop", "p_step")]
    + [("surface", ("surface", "survival_query"), key) for key in ("t", "y")]
    + [("solve", ("solver",), key)
       for key in ("samples", "grid", "seed", "stop_tol_scale", "grid_min", "grid_max")]
)


def set_field(command, path, key, value):
    payload = CONFIGS[command]()
    if key in ("grid_min", "grid_max"):  # the two are read only together
        payload["solver"].update(grid_min=1.0, grid_max=100.0)
    if path[:1] == ("estimate",):  # estimated parameters replace the gbm block
        del payload["gbm"]
        payload["estimate"] = {"csv": "prices.csv"}
    block = payload
    for name in path:
        block = block[name]
    block[key] = value
    return payload


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    field=st.sampled_from(NUMERIC_FIELDS),
    value=st.one_of(
        st.text(),
        st.none(),
        st.lists(st.one_of(st.integers(), st.floats(), st.text()), max_size=3),
    ),
)
def test_non_number_in_numeric_field_exits_2(runner, tmp_path, field, value):
    command, path, key = field
    config = write_config(tmp_path, set_field(command, path, key, value))
    result = runner.invoke(main, [command, "--config", config, "--out", str(tmp_path)])
    assert_config_error(result)
    assert f"{path[-1]}.{key}" in result.output


@pytest.mark.parametrize(
    "command, path, key, value",
    [
        ("solve", ("gbm",), "y0", "abc"),
        ("solve", ("plant",), "M", "x"),
        ("solve", ("plant",), "M", None),
        ("upgrade", ("plant", "upgrade"), "day", "x"),
        ("surface", ("surface",), "T", "x"),
        ("solve", (), "solver", "abc"),
        ("solve", (), "solver", None),
        ("solve", (), "solver", []),
        ("surface", (), "solver", 5),
        ("solve", ("solver",), "samples", "300"),
        ("solve", ("solver",), "samples", 300.7),
        ("solve", ("solver",), "grid", 60.5),
        ("solve", ("solver",), "seed", 1.5),
        ("solve", ("solver",), "seed", True),
        ("solve", ("solver",), "samples", MAX_SAMPLES + 1),
        ("solve", ("solver",), "samples", 1e300),
        ("solve", ("solver",), "grid", MAX_GRID_SIZE + 1),
        ("surface", ("solver",), "grid", 1e300),
        ("solve", ("gbm",), "sigma", 1e200),
        ("surface", ("gbm",), "sigma", 1e200),
        ("solve", ("solver",), "sampels", 4000),
        ("solve", ("solver",), "smoth", "isotonic"),
        ("solve", ("gbm",), "sigm", 0.0603),
        ("solve", ("plant",), "Q", 1.0),
        ("upgrade", ("plant", "upgrade"), "dday", 20),
        ("surface", ("surface",), "p_stpe", 2),
        ("surface", ("surface", "survival_query"), "z", 1.0),
        ("solve", (), "solvr", {"samples": 300}),
        ("solve", ("estimate",), "columns", 5),
        ("solve", ("estimate",), "columns", ["a"]),
        ("solve", ("estimate",), "columns", {"close": "price"}),
        ("solve", ("estimate",), "columns", {"price": 3}),
        ("solve", ("estimate",), "columns", {"volume": "qty"}),
        ("monitor", ("monitor",), "columns", 5),
        ("monitor", ("monitor",), "columns", ["a"]),
        ("monitor", ("monitor",), "columns", {"date": None}),
        ("solve", ("gbm",), "sigma", 1e100),
        ("surface", ("gbm",), "sigma", 1e100),
        ("solve", ("gbm",), "y0", 1e308),
        ("surface", ("gbm",), "y0", 1e308),
        ("solve", ("plant",), "P", 1e308),
    ],
    ids=["gbm.y0-text", "plant.M-text", "plant.M-null", "upgrade.day-text",
         "surface.T-text", "solver-text", "solver-null", "solver-list",
         "solver-number", "solver.samples-text", "solver.samples-fraction",
         "solver.grid-fraction", "solver.seed-fraction", "solver.seed-bool",
         "solver.samples-over-cap", "solver.samples-1e300", "solver.grid-over-cap",
         "solver.grid-1e300", "solve-gbm.sigma-1e200", "surface-gbm.sigma-1e200",
         "solver.sampels-unknown", "solver.smoth-unknown", "gbm.sigm-unknown",
         "plant.Q-unknown", "upgrade.dday-unknown", "surface.p_stpe-unknown",
         "survival_query.z-unknown", "solvr-unknown", "estimate.columns-number",
         "estimate.columns-list", "estimate.columns-unknown-key",
         "estimate.columns-number-header", "estimate.columns-volume",
         "monitor.columns-number",
         "monitor.columns-list", "monitor.columns-null-header",
         "solve-gbm.sigma-1e100", "surface-gbm.sigma-1e100",
         "solve-gbm.y0-1e308", "surface-gbm.y0-1e308", "solve-plant.P-1e308"],
)
def test_bad_config_value_exits_2(runner, tmp_path, command, path, key, value):
    config = write_config(tmp_path, set_field(command, path, key, value))
    result = runner.invoke(main, [command, "--config", config])
    assert_config_error(result)
    assert key in result.output


@pytest.mark.parametrize("value", [0, 1.5], ids=["zero", "fraction"])
@pytest.mark.parametrize(
    "command, section, key",
    [("solve", "estimate", "csv"), ("monitor", "monitor", "prices_csv")],
)
def test_csv_path_must_be_a_string(tmp_path, command, section, key, value):
    # open(0) would read standard input as the price file and close it; run
    # the CLI in its own process with a price CSV as stdin and check that
    # the shared file offset has not moved.
    payload = base_config()
    if section == "estimate":
        del payload["gbm"]
    payload[section] = {key: value}
    config = write_config(tmp_path, payload)
    stdin_csv = tmp_path / "stdin.csv"
    stdin_csv.write_text(PRICE_CSV)
    env = dict(os.environ, PYTHONPATH=str(Path(carbonstop.__file__).parents[1]))
    with open(stdin_csv, "rb") as stdin:
        done = subprocess.run(
            [sys.executable, "-m", "carbonstop.cli", command, "--config", config,
             "--out", str(tmp_path / "out")],
            stdin=stdin, capture_output=True, text=True, env=env, timeout=60,
        )
        offset = os.lseek(stdin.fileno(), 0, os.SEEK_CUR)
    assert done.returncode == 2, done.stderr
    assert f"{section}.{key} must be a string" in done.stderr
    assert offset == 0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "bad",
    ["x", "0.014", None, [0.014], True, 10**400],
    ids=["text", "numeric-text", "null", "list", "bool", "huge-int"],
)
def test_plant_fields_reject_non_numbers(runner, tmp_path, bad):
    for command, path, key in (
        ("solve", ("plant",), "M"), ("upgrade", ("plant", "upgrade"), "day")
    ):
        config = write_config(tmp_path, set_field(command, path, key, bad))
        result = runner.invoke(main, [command, "--config", config])
        assert_config_error(result)
        assert f"{path[-1]}.{key} must be a finite number" in result.output


def test_plant_missing_field_exits_2(runner, tmp_path):
    payload = base_config()
    del payload["plant"]["P"]
    result = runner.invoke(main, ["solve", "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert "plant config missing field 'P'" in result.output

    payload = upgrade_config()
    del payload["plant"]["upgrade"]["M_new"]
    result = runner.invoke(main, ["upgrade", "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert "upgrade config missing field 'M_new'" in result.output


def test_null_upgrade_is_no_upgrade(runner, tmp_path):
    outputs = []
    for upgrade in ("absent", None):
        payload = base_config()
        if upgrade is None:
            payload["plant"]["upgrade"] = None
        config, out = write_config(tmp_path, payload), tmp_path / str(upgrade)
        result = runner.invoke(main, ["solve", "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append((out / "boundary.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_survival_query_needs_y(runner, tmp_path):
    payload = surface_config()
    payload["surface"]["survival_query"] = {"t": 0}
    config = write_config(tmp_path, payload)
    result = runner.invoke(main, ["surface", "--config", config])
    assert_config_error(result)
    assert "'y'" in result.output


def test_survival_query_off_grid_exits_before_solving(runner, tmp_path, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before survival_query was checked")

    monkeypatch.setattr(cli, "surface", no_sweep)
    for query, message in (
        ({"t": 0.5, "y": 1e-6}, "t=0.5"),
        ({"t": 0, "y": 0}, "survival_query.y"),
        ({"t": 0, "y": -5}, "survival_query.y"),
    ):
        payload = surface_config()
        payload["surface"]["survival_query"] = query
        config = write_config(tmp_path, payload)
        result = runner.invoke(main, ["surface", "--config", config])
        assert_config_error(result)
        assert message in result.output


@pytest.mark.parametrize("step", [0, -5, math.inf, math.nan])
def test_surface_bad_p_step_exits_2(runner, tmp_path, step):
    payload = surface_config()
    payload["surface"]["p_step"] = step
    config = write_config(tmp_path, payload)
    result = runner.invoke(main, ["surface", "--config", config])
    assert_config_error(result)
    assert "p_step" in result.output


@pytest.mark.parametrize("command", ["solve", "upgrade", "surface"])
@pytest.mark.parametrize("mu", [-5.0, 5.0])
def test_overflowing_drift_exits_2(runner, tmp_path, command, mu):
    # |mu|*T = 1230: e^{|mu| T} overflows a float
    payload = CONFIGS[command]()
    payload["gbm"]["mu"] = mu
    block = payload["surface"] if command == "surface" else payload["plant"]
    block["T"] = 246
    result = runner.invoke(main, [command, "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert "mu" in result.output


def test_overflowing_drift_on_user_grid_exits_2(runner, tmp_path):
    payload = base_config()
    payload["gbm"]["mu"] = -5.0
    payload["plant"]["T"] = 246
    payload["solver"].update(grid_min=1.0, grid_max=100.0)
    result = runner.invoke(main, ["solve", "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert "mu" in result.output
