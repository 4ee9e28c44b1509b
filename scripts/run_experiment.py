#!/usr/bin/env python
"""End-to-end experiment on a synthetic corpus.

Generates an imbalanced corpus with gold labels, runs the full pipeline
(prep, label, cross-validation, train, predict, adjust) and emits the
time-series and keyword reports.  Every artifact lands under --outdir.

Some users are generated without profile tags (--tag-noise) so the predict
stage has a real unlabeled remainder to work on.

It also runs the leaky comparison on the same labeled set and seed: `cv` and
a gamma sweep with --leaky-selection, which picks the chi-square features
once on every labeled document instead of inside each fold (leaky_cv.csv,
leaky_gamma.csv).  At the default K = 3000 both plans keep every selectable
term of the default corpus, so leaky_cv.csv equals cv_metrics.csv; they
differ only on a corpus with more selectable terms than K (ROADMAP item 7).
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

    def at(name: str) -> str:
        return str(out / name)

    run(["synth", "--out", str(out), "--users-pos", str(args.users_pos),
         "--users-neg", str(args.users_neg), "--tag-noise", str(args.tag_noise), "--seed", seed])
    run(["prep", "--tweets", at("tweets.jsonl"), "--out", at("docs.jsonl")])
    run(["label", "--docs", at("docs.jsonl"), "--users", at("users.jsonl"),
         "--out", at("labeled.jsonl"), "--remainder", at("remainder.jsonl")])
    run(["cv", "--labeled", at("labeled.jsonl"), "--out", at("cv_metrics.csv"), "--seed", seed])
    run(["cv", "--labeled", at("labeled.jsonl"), "--leaky-selection",
         "--out", at("leaky_cv.csv"), "--seed", seed])
    run(["sweep", "--axis", "gamma", "--values", "0.5..1.0:0.1", "--labeled", at("labeled.jsonl"),
         "--leaky-selection", "--out", at("leaky_gamma.csv"), "--seed", seed])
    run(["train", "--labeled", at("labeled.jsonl"), "--model-out", at("model.txt"),
         "--features-out", at("features.tsv"), "--seed", seed])
    run(["predict", "--docs", at("remainder.jsonl"), "--model", at("model.txt"),
         "--features", at("features.tsv"), "--out", at("predictions.tsv")])
    run(["adjust", "--predictions", at("predictions.tsv"),
         "--out", at("predictions_adjusted.tsv")])
    run(["report-timeseries", "--predictions", at("predictions_adjusted.tsv"),
         "--granularity", "month", "--out", at("timeseries.csv"), "--svg", at("timeseries.svg")])
    run(["report-keywords", "--features", at("features.tsv"), "--top-n", "10",
         "--out", at("keywords.csv")])
    print(f"done; artifacts in {out}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
