"""Print every end-to-end metric of every workload, by name, with its unit
and sample count; with --trace also the per-layer table of a traced pass.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--trace] [--workload NAME ...]

Each workload runs in a process of its own (``perfbench/run.py``), so every
metric comes from a process that ran only that workload.  The traced pass is
a separate run; the tracing overhead is its traced wall time minus the
untraced ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads((ROOT / ".bench_work" / workload / "result.json").read_text())


def print_end_to_end(d: dict) -> None:
    print(f"\n## {d['workload']}  (seed {d['seed']}, correct={d['correct']})")
    print(f"{'metric':<18}{'value':>14}  {'unit':<6}{'samples':>8}")
    for name, m in d["end_to_end"].items():
        print(f"{name:<18}{m['value']:>14.4f}  {m['unit']:<6}{m['samples']:>8}")
    print(f"{'failed_frac':<18}{d['failed_frac']:>14.6f}  {'ratio':<6}{1:>8}"
          f"   ({d['failed']} of {d['attempted']} operations"
          + (f", hostile shard {d['hostile']['failed']} of {d['hostile']['lines']} lines"
             f", prep exit {d['hostile']['exit_code']}" if d["hostile"] else "") + ")")
    failing = [name for name, ok in d["checks"].items() if not ok]
    print("checks: " + ("all passed" if not failing else "FAILED " + ", ".join(failing)))


def print_layers(d: dict, untraced_wall: float) -> None:
    traced = d["per_layer"]["trace.wall_s"]
    overhead = traced - untraced_wall
    print(f"\n### {d['workload']} traced pass: wall {traced:.3f} s, "
          f"untraced {untraced_wall:.3f} s, "
          f"tracing overhead {overhead:+.3f} s ({overhead / untraced_wall:+.1%})")
    print(f"{'span':<30}{'total s':>10}{'self s':>10}{'calls':>10}")
    for row in d["layers"]:
        print(f"{row['name']:<30}{row['total_s']:>10.3f}{row['self_s']:>10.3f}{row['calls']:>10}")
    print(f"{'per-layer metric':<36}{'value':>14}")
    for name, value in d["per_layer"].items():
        print(f"{name:<36}{value:>14.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also run and print a traced pass")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()

    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"machine {platform.machine()}, git {git_sha()}")
    for workload in args.workload or WORKLOADS:
        plain = run_once(workload, args.seed, args.seconds, trace=False)
        print_end_to_end(plain)
        if args.trace:
            traced = run_once(workload, args.seed, args.seconds, trace=True)
            print_layers(traced, plain["end_to_end"]["wall_s"]["value"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
