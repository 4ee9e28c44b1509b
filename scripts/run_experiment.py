#!/usr/bin/env python
"""End-to-end experiment on a synthetic corpus.

Generates an imbalanced corpus with gold labels, runs the full pipeline
(prep, label, cross-validation, train, predict, adjust) and emits the
time-series and keyword reports.  Every artifact lands under --outdir.

Some users are generated without profile tags (--tag-noise) so the predict
stage has a real unlabeled remainder to work on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tcm_stance.cli import main as cli
from tcm_stance.synth import SynthConfig


def run(step: list[str]) -> None:
    print("+", " ".join(step), file=sys.stderr)
    code = cli(step)
    if code != 0:
        sys.exit(code)


def main() -> int:
    defaults = SynthConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("experiment_out"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--users-pos", type=int, default=defaults.users_pos)
    parser.add_argument("--users-neg", type=int, default=defaults.users_neg)
    parser.add_argument("--tag-noise", type=float, default=0.1)
    args = parser.parse_args()

    out = args.outdir
    out.mkdir(parents=True, exist_ok=True)
    seed = str(args.seed)

    run([
        "synth", "--out", str(out),
        "--users-pos", str(args.users_pos), "--users-neg", str(args.users_neg),
        "--tag-noise", str(args.tag_noise), "--seed", seed,
    ])
    run(["prep", "--tweets", str(out / "tweets.jsonl"), "--out", str(out / "docs.jsonl")])
    run([
        "label", "--docs", str(out / "docs.jsonl"), "--users", str(out / "users.jsonl"),
        "--out", str(out / "labeled.jsonl"), "--remainder", str(out / "remainder.jsonl"),
    ])
    run([
        "cv", "--labeled", str(out / "labeled.jsonl"),
        "--out", str(out / "cv_metrics.csv"), "--seed", seed,
    ])
    run([
        "train", "--labeled", str(out / "labeled.jsonl"),
        "--model-out", str(out / "model.txt"), "--features-out", str(out / "features.tsv"),
        "--seed", seed,
    ])
    run([
        "predict", "--docs", str(out / "remainder.jsonl"), "--model", str(out / "model.txt"),
        "--features", str(out / "features.tsv"), "--out", str(out / "predictions.tsv"),
    ])
    run([
        "adjust", "--predictions", str(out / "predictions.tsv"),
        "--out", str(out / "predictions_adjusted.tsv"),
    ])
    run([
        "report-timeseries", "--predictions", str(out / "predictions_adjusted.tsv"),
        "--granularity", "month",
        "--out", str(out / "timeseries.csv"), "--svg", str(out / "timeseries.svg"),
    ])
    run([
        "report-keywords", "--features", str(out / "features.tsv"),
        "--top-n", "10", "--out", str(out / "keywords.csv"),
    ])
    print(f"done; artifacts in {out}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
