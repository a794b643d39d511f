import json
import math

import pytest
from click.testing import CliRunner

from carbonstop.cli import main


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
    payload = base_config()
    payload["plant"]["upgrade"] = {"day": 10, "P_new": 17.2, "M_new": 0.012}
    payload["plant"]["upgrade"][key] = math.nan
    config = write_config(tmp_path, payload)
    result = runner.invoke(main, ["upgrade", "--config", config])
    assert result.exit_code == 2, result.output
    assert "finite" in result.output


@pytest.mark.parametrize("command", ["solve", "monitor"])
def test_upgrade_block_refused_outside_upgrade(runner, tmp_path, command):
    payload = base_config()
    payload["plant"]["upgrade"] = {"day": 10, "P_new": 17.2, "M_new": 0.012}
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


def test_solve_with_smoothing(runner, tmp_path):
    payload = base_config()
    payload["solver"]["smooth"] = "isotonic"
    config = write_config(tmp_path, payload)
    result = runner.invoke(
        main, ["solve", "--config", config, "--out", str(tmp_path / "sm")]
    )
    assert result.exit_code == 0, result.output


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


def test_monitor_requires_prices(runner, tmp_path):
    payload = base_config()
    payload["monitor"] = {}
    config = write_config(tmp_path, payload)
    assert runner.invoke(main, ["monitor", "--config", config]).exit_code == 2


# --- upgrade --------------------------------------------------------------------


def test_upgrade_command(runner, tmp_path):
    payload = base_config()
    payload["plant"]["upgrade"] = {"day": 10, "P_new": 17.2, "M_new": 0.012}
    config = write_config(tmp_path, payload)
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
    payload = {
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
    config = write_config(tmp_path, payload)
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
