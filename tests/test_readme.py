"""The README's examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert 0.9 < float(capsys.readouterr().out) <= 1.0
