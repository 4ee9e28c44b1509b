"""scripts/check_golden.py's compare and run steps on tiny trees and a
two-line script; no pipeline runs."""

from __future__ import annotations

import hashlib
import sys

import pytest

import check_golden


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


def test_a_listed_file_missing_from_the_tree_fails(tree):
    root, manifest = tree
    (root / "sub" / "b.svg").unlink()
    assert check_golden.compare(root, manifest) == ["sub/b.svg: not written"]


def test_each_script_has_its_manifest():
    for script, manifest_name in check_golden.CHECKS.items():
        assert (check_golden.ROOT / "scripts" / script).is_file()
        assert check_golden.read_manifest(check_golden.GOLDEN / manifest_name)
    assert len(check_golden.read_manifest(check_golden.GOLDEN / "experiment.sha256")) == 16
    assert len(check_golden.read_manifest(check_golden.GOLDEN / "sweeps.sha256")) == 11


@pytest.mark.parametrize("body, hash_seed, problems", [
    ("pass", "1", []),
    ("pass", "2", ["a.txt: digest differs"]),
    ("(out / 'b.txt').write_text('')", "1", ["b.txt: not in the manifest"]),
    ("raise ValueError('boom')", "1", ["exited 1: ValueError: boom"]),
], ids=["passes", "hash-seed-passed-on", "unlisted-file", "non-zero-exit"])
def test_run_script_on_a_two_line_script(tmp_path, monkeypatch, body, hash_seed, problems):
    """A fake tree whose one script writes its hash seed to a.txt and runs
    ``body``; the manifest pins a.txt holding "1"."""
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "fake.py").write_text(
        "import os, pathlib, sys; out = pathlib.Path(sys.argv[2]); out.mkdir()\n"
        "(out / 'a.txt').write_text(os.environ['PYTHONHASHSEED']); " + body + "\n",
        encoding="utf-8")
    (tmp_path / "fake.sha256").write_text(f"{hashlib.sha256(b'1').hexdigest()}  a.txt\n",
                                          encoding="utf-8")
    monkeypatch.setattr(check_golden, "ROOT", tmp_path)
    monkeypatch.setattr(check_golden, "GOLDEN", tmp_path)
    monkeypatch.setattr(check_golden, "CHECKS", {"fake.py": "fake.sha256"})
    out = tmp_path / "out"
    assert check_golden.run_script(sys.executable, "fake.py", hash_seed, out) == problems
