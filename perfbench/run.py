"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload crawl-10x --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the pipeline is imported from
``src/``.  Inputs are generated from ``--seed`` under ``.bench_work/``.
With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics from a traced pass.
The last line of standard output is the result; everything the pipeline
logs goes to standard error.  A fuller record of the run (samples per
metric, checks, the hostile shard, the per-layer table) is written to
``.bench_work/<workload>/result.json``, and with tracing the spans to
``.bench_work/<workload>/trace.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"


def detail(result) -> dict:
    """Everything one run measured, for result.json and the report."""
    out = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        "correct": result.correct,
        "checks": result.outcome.checks,
        "attempted": result.outcome.attempted,
        "failed": result.outcome.failed,
        "failed_frac": result.failed_frac(),
        "hostile": result.hostile,
        "setup_s": result.setup_s,
        "setup_slowdowns": result.setup_slowdowns,
        "passes": result.passes,
        "slowdowns": result.slowdowns,
        "rss_before_timed_mb": result.rss_before_timed_mb,
        "end_to_end": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in result.end_to_end().items()
        },
    }
    if result.tracer is not None:
        out["layers"] = result.tracer.layer_table()
        out["per_layer"] = layer_metrics(result)
    return out


def layer_metrics(result) -> dict[str, float]:
    metrics = result.tracer.layer_metrics()
    metrics["trace.wall_s"] = result.tracer.root.total
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tcm_stance" / "cli.py").is_file():
        print(f"error: no pipeline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workdir = WORKDIR / args.workload
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    (workdir / "result.json").write_text(json.dumps(detail(result), indent=1))

    if result.tracer is not None:
        result.tracer.write(workdir / "trace.json")
        values = layer_metrics(result)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = result.end_to_end()
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.outcome.attempted,
        "failed": result.outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
