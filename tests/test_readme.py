"""The README's library examples and its `solve` config run as written,
so that pruning the API cannot silently break the documented usage."""
import re
from pathlib import Path

from click.testing import CliRunner

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
    config = tmp_path / "run.json"
    config.write_text(block, encoding="utf-8")
    args = ["solve", "--config", str(config), "--out", str(tmp_path / "out"),
            "--samples", "200", "--grid", "40"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, (result.output, result.exception)
    assert (tmp_path / "out" / "boundary.csv").is_file()
