"""scripts/check_golden.py's compare step on a tiny tree; no pipeline runs."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_golden.py"
_spec = importlib.util.spec_from_file_location("check_golden", SCRIPT)
check_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_golden)


@pytest.fixture
def tree(tmp_path):
    """A written tree and its manifest, in `sha256sum`'s format."""
    root = tmp_path / "out"
    (root / "sub").mkdir(parents=True)
    files = {"a.csv": b"x,y\n1,2\n", "sub/b.svg": b"<svg/>\n"}
    for name, data in files.items():
        (root / name).write_bytes(data)
    manifest = tmp_path / "tree.sha256"
    manifest.write_text("".join(f"{hashlib.sha256(data).hexdigest()}  {name}\n"
                                for name, data in sorted(files.items())), encoding="utf-8")
    return root, check_golden.read_manifest(manifest)


def test_a_matching_tree_passes(tree):
    root, manifest = tree
    assert sorted(manifest) == ["a.csv", "sub/b.svg"]
    assert check_golden.compare(root, manifest) == []


def test_one_changed_byte_fails(tree):
    root, manifest = tree
    (root / "a.csv").write_bytes(b"x,y\n1,3\n")
    assert check_golden.compare(root, manifest) == ["a.csv: digest differs"]


def test_an_unlisted_file_fails(tree):
    root, manifest = tree
    (root / "sub" / "c.txt").write_bytes(b"")
    assert check_golden.compare(root, manifest) == ["sub/c.txt: not in the manifest"]


def test_a_listed_file_not_written_fails_unless_the_script_never_writes_it(tree):
    root, manifest = tree
    (root / "sub" / "b.svg").unlink()
    assert check_golden.compare(root, manifest) == ["sub/b.svg: not written"]
    assert check_golden.compare(root, manifest, frozenset({"sub/b.svg"})) == []


def test_each_script_has_its_manifest():
    for script, (manifest_name, not_written) in check_golden.CHECKS.items():
        assert (SCRIPT.parent / script).is_file()
        assert not_written <= check_golden.read_manifest(check_golden.GOLDEN / manifest_name).keys()
    assert len(check_golden.read_manifest(check_golden.GOLDEN / "sweeps.sha256")) == 11
