"""The README's examples run as written."""

from __future__ import annotations

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import tcm_stance
from tcm_stance.cli import main
from tcm_stance.config import PipelineConfig, build_config, parse_config_file

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert 0.9 < float(capsys.readouterr().out) <= 1.0


def test_config_example_parses(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "pipeline.cfg"
    path.write_text(block, encoding="utf-8")
    assert build_config(parse_config_file(path)) == PipelineConfig()


def test_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("tcm-stance ")]
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


_FILE_EXTENSIONS = {"tsv", "jsonl", "csv", "txt", "svg"}


def test_named_code_exists():
    """Every backticked ``module.name`` or ``module.name.attr`` whose module
    is one of the package's (``tcm_stance.`` written or not) resolves; a file
    name such as ``features.tsv`` is skipped by its extension."""
    modules = {info.name for info in pkgutil.iter_modules(tcm_stance.__path__)}
    checked, missing = [], []
    for ref in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*){1,3})`", README.read_text("utf-8")):
        module, *names = ref.removeprefix("tcm_stance.").split(".")
        if module not in modules or not names or names[-1] in _FILE_EXTENSIONS:
            continue
        checked.append(ref)
        obj = importlib.import_module(f"tcm_stance.{module}")
        for name in names:
            if not hasattr(obj, name):
                missing.append(ref)
                break
            obj = getattr(obj, name)
    assert checked
    assert missing == []
