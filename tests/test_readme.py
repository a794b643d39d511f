"""The README's library examples and its `solve` config run as written,
so that pruning the API cannot silently break the documented usage."""
import json
import re
from pathlib import Path

from click.testing import CliRunner

import carbonstop.cli as cli
import carbonstop.solver as solver
from carbonstop.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = readme_blocks("python")
    assert len(blocks) >= 2, "README lost its library examples"
    namespace = {"observed_daily_prices": [21.0, 25.0, 30.0, 45.0]}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_solve_config_runs(tmp_path):
    (block,) = readme_blocks("json")
    payload = json.loads(block)
    payload["solver"].update(samples=200, grid=40)  # the README's run, made small
    config = tmp_path / "run.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    args = ["solve", "--config", str(config), "--out", str(tmp_path / "out")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, (result.output, result.exception)
    assert (tmp_path / "out" / "boundary.csv").is_file()


def config_keys(block: dict):
    for key, kind in block.items():
        yield key
        if isinstance(kind, dict):
            yield from config_keys(kind)


def test_readme_cli_section_matches_the_cli():
    # Each config key the CLI reads is documented, alone or in a JSON
    # example, and each option the CLI section names is one that a command
    # takes, so neither drifts.
    text = README.read_text(encoding="utf-8")
    undocumented = {key for key in config_keys(cli.FORMAT)
                    if f"`{key}`" not in text and f'"{key}"' not in text}
    assert not undocumented, f"README names no config key {sorted(undocumented)}"
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    options = {opt for command in main.commands.values()
               for param in command.params for opt in param.opts}
    unknown = set(re.findall(r"--[a-z][a-z-]*", section)) - options
    assert not unknown, f"README names options no command takes: {sorted(unknown)}"


def readme_number(text: str) -> int:
    """A README figure such as `20000`, `2^26` or `32 MiB` (2^20 bytes)."""
    match = re.fullmatch(r"(\d+)(?:\^(\d+))?( MiB)?", " ".join(text.split()))
    assert match, f"README figure {text!r} is not a number"
    base, power, mib = match.groups()
    return int(base) ** int(power or 1) * (2**20 if mib else 1)


def test_readme_solver_constants_match_the_code():
    # Each `NAME = value` that README gives for a solver constant is the
    # code's value, so that neither drifts.
    text = README.read_text(encoding="utf-8")
    stated = [(name, value)
              for name, value in re.findall(r"`([A-Z][A-Z_]+) =\s+([^`]+)`", text)
              if hasattr(solver, name)]
    assert {name for name, _ in stated} >= {
        "BLOCK_DRAWS", "MAX_SAMPLES", "MAX_GRID_SIZE", "MAX_LATTICE_NODES",
        "SHARED_DRAW_BYTES",
    }, "README lost a solver constant"
    for name, value in stated:
        assert readme_number(value) == getattr(solver, name), f"README's {name} = {value}"
