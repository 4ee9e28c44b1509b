#!/usr/bin/env python
"""Check that the experiment and sweep scripts still write the pinned bytes.

For each interpreter given with --python (default: the one running this
script), runs scripts/run_experiment.py and scripts/run_sweeps.py, each in a
temporary directory under a random PYTHONHASHSEED, which it prints, with the
package imported from this checkout's src/.  Every file a script writes must
be listed in its manifest under tests/golden ("<sha256>  <name>" lines, as
`sha256sum` writes them) with the same digest, and every listed file must be
written.  Prints each differing file, and exits 1 on any mismatch.  Standard
library only, so that it runs under any interpreter the package supports.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# script -> the manifest that pins every file it writes
CHECKS = {"run_experiment.py": "experiment.sha256", "run_sweeps.py": "sweeps.sha256"}


def read_manifest(path: Path) -> dict[str, str]:
    """name -> sha256 hex digest."""
    digests = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def compare(tree: Path, manifest: dict[str, str]) -> list[str]:
    """One line per file under ``tree`` that the manifest does not list or
    whose digest differs, and per listed name that ``tree`` lacks; none when
    the tree matches."""
    written = {f.relative_to(tree).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tree.rglob("*") if f.is_file()}
    return sorted(
        [f"{name}: not in the manifest" for name in written.keys() - manifest.keys()]
        + [f"{name}: digest differs" for name in written.keys() & manifest.keys()
           if written[name] != manifest[name]]
        + [f"{name}: not written" for name in manifest.keys() - written.keys()])


def run_script(python: str, script: str, hash_seed: str, out: Path) -> list[str]:
    """Run ``script`` under ``python`` and ``PYTHONHASHSEED=hash_seed`` into
    the new directory ``out``, and compare its tree with the script's
    manifest: the last line of stderr on a non-zero exit, else ``compare``'s
    lines."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run([python, str(ROOT / "scripts" / script), "--outdir", str(out)],
                          cwd=out.parent, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return [f"exited {proc.returncode}: " + (proc.stderr.strip().splitlines() or [""])[-1]]
    return compare(out, read_manifest(GOLDEN / CHECKS[script]))


def check(python: str, script: str) -> bool:
    """Run ``script`` under ``python`` with a random hash seed and print how
    its tree compares."""
    hash_seed = str(random.randrange(2 ** 32))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        problems = run_script(python, script, hash_seed, out)
        files = sum(1 for f in out.rglob("*") if f.is_file())
    status = f"{len(problems)} mismatched" if problems else "ok"
    print(f"{python}: {script}, PYTHONHASHSEED={hash_seed}: {files} files vs "
          f"{CHECKS[script]}: {status}", flush=True)
    for problem in problems:
        print(f"  {problem}", flush=True)
    return not problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--python", action="append", metavar="PATH",
                        help="an interpreter to run the scripts under (repeatable)")
    args = parser.parse_args(argv)
    results = [check(python, script)
               for python in args.python or [sys.executable] for script in CHECKS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
