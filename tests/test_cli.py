import csv
import json
import math
import os
import re
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


def write_prices(tmp_path, prices, name="prices.csv", header=("date", "close")):
    """A price CSV of `prices` on consecutive January 2020 days; its path."""
    path = tmp_path / name
    path.write_text(",".join(header) + "\n" + "".join(
        f"2020-01-{day:02d},{price}\n" for day, price in enumerate(prices, 1)
    ))
    return str(path)


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
    # Every file a config command writes, summaries included, follows from
    # the config alone; the run time is printed, not written.
    (tmp_path / "prices.csv").write_text(PRICE_CSV)
    for command, make in CONFIGS.items():
        payload = make()
        if command == "monitor":
            payload["monitor"]["prices_csv"] = str(tmp_path / "prices.csv")
        config = write_config(tmp_path, payload, f"{command}.json")
        out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
        results = [runner.invoke(main, [command, "--config", config, "--out", str(out)])
                   for out in (out1, out2)]
        assert [result.exit_code for result in results] == [0, 0], results[0].output
        names = sorted(path.name for path in out1.iterdir())
        assert names and names == sorted(path.name for path in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        for result in results:
            assert result.output.splitlines()[-1].startswith(f"{command} took ")


def test_solve_keeps_json_seeds_past_2_pow_53_exact(runner, tmp_path):
    # 2**53 and 2**53 + 1 are the same float but two different u64 seeds
    seeds = []
    for seed in (2**53, 2**53 + 1, 2**64 - 1):
        payload = base_config()
        payload["solver"]["seed"] = seed
        config, out = write_config(tmp_path, payload), tmp_path / str(seed)
        result = runner.invoke(main, ["solve", "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        seeds.append(json.loads((out / "summary.json").read_text())["seed"])
    assert seeds == [2**53, 2**53 + 1, 2**64 - 1]


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


def test_solve_config_errors_exit_2(runner, tmp_path, monkeypatch):
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

    # the config is the one source of the solver settings: no override flags
    fail_if_called(monkeypatch)
    config = write_config(tmp_path, base_config(), "c3.json")
    for flag in ("--seed", "--samples", "--grid"):
        result = runner.invoke(main, ["solve", "--config", config, flag, "3"])
        assert result.exit_code == 2
        assert f"No such option '{flag}'" in result.output


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("gbm", "y0", math.inf),
        ("gbm", "mu", math.nan),
        ("gbm", "sigma", -math.inf),
        ("plant", "M", math.nan),
        ("plant", "P", math.inf),
        ("plant", "T", math.inf),
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
    payload["monitor"] = {"prices_csv": "prices.csv"}
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


DESCRIPTIONS = {
    "solve": "Solve the halt boundary; writes boundary.csv and summary.json.",
    "monitor": "Solve the boundary and test daily prices against it; writes monitor.json.",
    "upgrade": "Solve before/after/composite boundaries around a plant upgrade.",
    "surface": "Sweep unit-profit levels into a stopping surface B(t, p).",
}


@pytest.mark.parametrize("command", list(DESCRIPTIONS))
def test_config_command_help(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    text = " ".join(result.output.split())  # click may wrap long lines
    assert DESCRIPTIONS[command] in text
    assert set(re.findall(r"--[a-z-]+", text)) == {"--config", "--out", "--help"}


# --- monitor --------------------------------------------------------------------


def test_monitor_command(runner, tmp_path):
    payload = base_config()
    payload["monitor"] = {"prices_csv": write_prices(tmp_path, [1.0, 2.0, 60.0])}
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
    payload["monitor"] = {"prices_csv": write_prices(tmp_path, [math.nan, 1000.0])}
    result = runner.invoke(
        main, ["monitor", "--config", write_config(tmp_path, payload)]
    )
    assert result.exit_code == 3
    assert "non-finite price nan" in result.output


def test_monitor_requires_prices(runner, tmp_path):
    payload = base_config()
    payload["monitor"] = {}
    config = write_config(tmp_path, payload)
    assert runner.invoke(main, ["monitor", "--config", config]).exit_code == 2


@pytest.mark.parametrize(
    "prices, message",
    [(list(range(1, 31)), "30 prices exceed the boundary grid of 21 times")],
    ids=["csv-too-many"],
)
def test_monitor_checks_prices_before_the_solve(runner, tmp_path, monkeypatch, prices,
                                                message):
    def unsolved(*args, **kwargs):
        raise AssertionError("the lattice was solved before the prices were checked")

    monkeypatch.setattr(cli, "solve_boundary", unsolved)
    payload = base_config()  # T = 20: 21 times
    payload["monitor"] = {"prices_csv": write_prices(tmp_path, prices)}
    result = runner.invoke(main, ["monitor", "--config", write_config(tmp_path, payload)])
    assert result.exit_code == 3, (result.output, result.exception)
    assert message in result.output


@pytest.mark.parametrize(
    "command, block, message",
    [
        ("surface", {"T": 10, "p_values": [5, 10], "p_start": 5, "p_stop": 10,
                     "p_step": 5}, "exactly one"),
        ("surface", {"T": 10, "p_values": [5, 10], "p_step": 5}, "exactly one"),
    ],
    ids=["surface-values-and-range", "surface-values-and-step"],
)
def test_two_sources_for_one_input_exit_2(runner, tmp_path, monkeypatch, command,
                                          block, message):
    def untouched(*args, **kwargs):
        raise AssertionError("an input was read or solved before the config was checked")

    for name in ("load_price_csv", "solve_boundary", "surface"):
        monkeypatch.setattr(cli, name, untouched)
    payload = CONFIGS[command]()
    payload[command] = block
    result = runner.invoke(main, [command, "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert message in result.output


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
       for key in ("samples", "grid", "seed", "grid_min", "grid_max")]
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
        ("solve", ("solver",), "smooth", "isotonic"),
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
         "solver.sampels-unknown", "solver.smoth-unknown",
         "solver.smooth-unknown", "gbm.sigm-unknown",
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
    result = runner.invoke(main, [command, "--config", config, "--out", str(tmp_path)])
    assert_config_error(result)
    assert key in result.output


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random loads on the first stream, not at import: importing it
    # costs every CLI start 10-20 ms, and a command that draws nothing
    # should not pay that.
    env = dict(os.environ, PYTHONPATH=str(Path(carbonstop.__file__).parents[1]))
    code = "import carbonstop.cli, sys; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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


# --- paths the configs above do not reach ----------------------------------------


def test_surface_p_values_match_the_range(runner, tmp_path):
    outputs = []
    for name, levels in (("range", None), ("values", [5, 10, 15])):
        payload = surface_config()
        if levels is not None:
            for key in ("p_start", "p_stop", "p_step"):
                del payload["surface"][key]
            payload["surface"]["p_values"] = levels
        config, out = write_config(tmp_path, payload, f"{name}.json"), tmp_path / name
        result = runner.invoke(main, ["surface", "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append([(out / f).read_bytes() for f in ("surface.csv", "surface.json")])
    assert outputs[0] == outputs[1]


MONITOR_PRICES = [1.0, 2.0, 60.0, 3.0]


def test_monitor_price_csv_matches_inline_prices(runner, tmp_path):
    reports = []
    for source in ("csv", "csv-columns"):
        payload = base_config()
        header = ("day", "settle") if source == "csv-columns" else ("date", "close")
        csv_path = write_prices(tmp_path, MONITOR_PRICES, f"{source}.csv", header)
        payload["monitor"] = {"prices_csv": csv_path}
        if source == "csv-columns":
            payload["monitor"]["columns"] = {"date": "day", "price": "settle"}
        config, out = write_config(tmp_path, payload), tmp_path / source
        result = runner.invoke(main, ["monitor", "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        reports.append((out / "monitor.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert (report["crossed"], report["crossing_index"]) == (True, 2)


def test_estimate_end_cuts_the_window(runner, tmp_path):
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text(PRICE_CSV)
    result = runner.invoke(main, ["estimate", str(csv_path), "--end", "2020-01-07"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["sample_count"] == 2


def test_estimate_block_end_cuts_the_window(runner, tmp_path, monkeypatch):
    counts = []
    estimate_gbm = cli.estimate_gbm

    def counting(returns):
        est = estimate_gbm(returns)
        counts.append(est.sample_count)
        return est

    monkeypatch.setattr(cli, "estimate_gbm", counting)
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text(PRICE_CSV)
    payload = base_config()
    del payload["gbm"]
    payload["estimate"] = {"csv": str(csv_path), "end": "2020-01-07"}
    result = runner.invoke(
        main, ["solve", "--config", write_config(tmp_path, payload),
               "--out", str(tmp_path / "run")]
    )
    assert result.exit_code == 0, result.output
    assert counts == [2]


@pytest.mark.parametrize("key", ["grid_min", "grid_max"])
def test_grid_bound_alone_exits_2(runner, tmp_path, key):
    payload = base_config()
    payload["solver"][key] = 10.0
    result = runner.invoke(main, ["solve", "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert "grid_min and grid_max must be given together" in result.output


def test_failed_writer_leaves_the_directory_as_it_was(tmp_path):
    (tmp_path / "a.csv").write_text("old a\n")

    def fail(tmp):
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._write_outputs(str(tmp_path), {
            "a.csv": lambda tmp: tmp.write_text("new a\n"), "b.csv": fail,
        })
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]
    assert (tmp_path / "a.csv").read_text() == "old a\n"


# --- the whole config is checked before any price file is read --------------------


def fail_if_called(monkeypatch):
    def untouched(*args, **kwargs):
        raise AssertionError("a price file was read or a lattice solved before the "
                             "config was checked")

    for name in ("load_price_csv", "solve_boundary", "apply_upgrade", "surface"):
        monkeypatch.setattr(cli, name, untouched)


LATTICE_CAP = "T=1e+12 at delta=1 with grid size 60 makes"
UPGRADE = {"day": 60, "P_new": 17.2, "M_new": 0.012}
P_LIST = "p_values must be nonempty, positive and distinct"


@pytest.mark.parametrize(
    "command, section, block, message",
    [
        ("solve", "solver", {"sampels": 300}, "unknown key 'sampels' in solver"),
        ("solve", "plant", {"M": 0.014, "P": 14.7, "T": "x"}, "plant.T"),
        ("solve", "surface", {"T": 10, "p_step": "x"}, "surface.p_step"),
        ("solve", "estimate", {"csv": "no_such.csv", "start": "2020-13-06"},
         "estimate.start must be YYYY-MM-DD"),
        ("solve", "estimate", {"csv": "no_such.csv", "y0": -1.0}, "y0"),
        ("solve", "estimate", {"csv": "no_such.csv", "start": None},
         "estimate.start must be a string"),
        ("solve", "estimate", {"csv": "no_such.csv", "end": ""},
         "estimate.end must be YYYY-MM-DD"),
        ("upgrade", "monitor", {"prices_csv": "no_such.csv", "columns": 5},
         "monitor.columns"),
        ("surface", "plant", {"M": "x", "Q": 1}, "unknown key 'Q' in plant"),
        ("surface", "plant", {"M": "x", "P": 14.7, "T": 20}, "plant.M must be a finite"),
        ("surface", "plant", {"M": 0.014}, "plant config missing field 'P'"),
        ("surface", "monitor", {"prices_csv": "abc", "zzz": 1},
         "unknown key 'zzz' in monitor"),
        ("monitor", "monitor", {"prices_csv": "no_such.csv", "columns": {"date": 1}},
         "monitor.columns.date must be a string"),
        ("surface", "solver", {"smooth": "isotonic"}, "unknown key 'smooth' in solver"),
        ("solve", "plant", {"M": 0.014, "P": 14.7, "T": 1e12}, LATTICE_CAP),
        ("monitor", "plant", {"M": 0.014, "P": 14.7, "T": 1e12}, LATTICE_CAP),
        ("upgrade", "plant", {"M": 0.014, "P": 14.7, "T": 1e12, "upgrade": UPGRADE},
         LATTICE_CAP),
        ("solve", "plant", {"M": 0.014, "P": 14.7, "T": 49.5},
         "horizon 49.5 is not a positive multiple of delta 1.0"),
        ("upgrade", "plant", {"M": 0.014, "P": 14.7, "T": 49, "upgrade": UPGRADE},
         "upgrade effective day 60.0 must lie in [0, T=49.0]"),
        ("surface", "surface", {"T": 10, "p_values": []}, P_LIST),
        ("surface", "surface", {"T": 10, "p_values": [-1, 5]}, P_LIST),
        ("surface", "surface", {"T": 10, "p_values": [5, 5]}, P_LIST),
        ("solve", "solver", {"stop_tol_scale": 1e-6}, "unknown key 'stop_tol_scale'"),
        ("monitor", "monitor", {"prices_csv": "no_such.csv", "prices": [1.0]},
         "unknown key 'prices' in monitor"),
    ],
    ids=["solver-unknown-key", "plant-text", "unread-surface-text", "estimate-bad-date",
         "estimate-bad-y0", "estimate-null-start", "estimate-empty-end",
         "unread-monitor-columns", "unread-plant-unknown-key",
         "unread-plant-text", "unread-plant-missing-key", "unread-monitor-unknown-key",
         "monitor-columns-text", "solver-smooth", "solve-lattice-cap",
         "monitor-lattice-cap", "upgrade-lattice-cap", "solve-horizon-off-grid",
         "upgrade-day-after-horizon", "surface-no-p", "surface-negative-p",
         "surface-repeated-p", "solver-stop-tol-scale", "monitor-inline-prices"],
)
def test_whole_config_checked_before_any_file(runner, tmp_path, monkeypatch, command,
                                              section, block, message):
    # every config names a price file that does not exist: reading it would
    # exit 3 (or trip the stubs above) instead of naming the bad key
    fail_if_called(monkeypatch)
    payload = CONFIGS[command]()
    del payload["gbm"]
    payload["estimate"] = {"csv": "no_such.csv"}
    if command == "monitor":
        payload["monitor"] = {"prices_csv": "no_such.csv"}
    payload[section] = block
    result = runner.invoke(main, [command, "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert message in result.output


@pytest.mark.parametrize("command", list(CONFIGS))
@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_2_before_any_work(runner, tmp_path,
                                                                monkeypatch, command, under):
    fail_if_called(monkeypatch)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    config = write_config(tmp_path, CONFIGS[command]())
    result = runner.invoke(main, [command, "--config", config, "--out", str(out)])
    assert_config_error(result)
    assert f"--out {out}: {blocker} is not a directory" in result.output
    assert blocker.read_text() == "kept\n"


def test_estimate_checks_the_window_before_the_file(runner):
    result = runner.invoke(main, ["estimate", "no_such.csv", "--start", "2020-13-06"])
    assert_config_error(result)
    assert "--start must be YYYY-MM-DD" in result.output


# --- sizes and windows refused before anything is built or read ---------------------


@pytest.mark.parametrize(
    "block, message",
    [
        ({"T": 150, "p_start": 10, "p_stop": 40, "p_step": 1e-12}, "surface.p_step"),
        ({"T": 150, "p_start": 10, "p_stop": 40, "p_step": 5e-324}, "surface.p_step"),
        ({"T": 1e12, "p_values": [10, 20]}, "surface.p_values"),
        ({"T": 1e12, "p_values": [10], "survival_query": {"t": 0, "y": 45}},
         "surface.p_values"),
        # within the sweep cap, but not its lattice of 6e7 times by 61 levels
        ({"T": 6e7, "p_values": [10], "survival_query": {"t": 0, "y": 45}},
         "T=6e+07 at delta=1 with grid size 60 makes"),
    ],
    ids=["tiny-step", "subnormal-step", "long-horizon", "long-horizon-query",
         "lattice-over-cap-query"],
)
def test_surface_over_the_node_cap_exits_2(runner, tmp_path, monkeypatch, block, message):
    def not_built(*args, **kwargs):
        raise AssertionError("an array was built before the sweep size was checked")

    fail_if_called(monkeypatch)
    monkeypatch.setattr(cli.TimeGrid, "times", property(not_built))
    monkeypatch.setattr(cli.np, "arange", not_built)
    payload = surface_config()
    payload["surface"] = block
    result = runner.invoke(main, ["surface", "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert message in result.output and "MAX_LATTICE_NODES" in result.output


def test_solve_over_the_node_cap_exits_2(runner, tmp_path):
    payload = {"gbm": {"y0": 21.43, "mu": 0, "sigma": 0},
               "plant": {"M": 0.014, "P": 14.7, "T": 1e12}}
    result = runner.invoke(main, ["solve", "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert "T=1e+12" in result.output and "MAX_LATTICE_NODES" in result.output


@pytest.mark.parametrize("end", ["2020-01-03", "2020-01-06"], ids=["before", "same-day"])
def test_inverted_estimate_window_exits_2_before_reading(runner, tmp_path, monkeypatch,
                                                         end):
    fail_if_called(monkeypatch)
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text(PRICE_CSV)
    result = runner.invoke(
        main, ["estimate", str(csv_path), "--start", "2020-01-06", "--end", end]
    )
    assert_config_error(result)
    assert f"--end {end} must be after --start 2020-01-06" in result.output

    payload = base_config()
    del payload["gbm"]
    payload["estimate"] = {"csv": str(csv_path), "start": "2020-01-06", "end": end}
    result = runner.invoke(main, ["solve", "--config", write_config(tmp_path, payload)])
    assert_config_error(result)
    assert f"estimate.end {end} must be after estimate.start 2020-01-06" in result.output
