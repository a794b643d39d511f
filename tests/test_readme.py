"""The README's library examples run as written, so that pruning the API
cannot silently break the documented usage."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2, "README lost its library examples"
    namespace = {"observed_daily_prices": [21.0, 25.0, 30.0, 45.0]}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
