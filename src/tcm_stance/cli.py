"""Command-line pipeline driver.

Stages communicate through files (JSONL corpora, TSV predictions, CSV
reports); standard output stays quiet unless --print is given, diagnostics
go to standard error.  Exit codes: 0 success, 1 failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from dataclasses import fields
from datetime import datetime
from pathlib import Path
from typing import Sequence

from . import evaluation, reports, svm, synth
from .config import KEY_PARSERS, PipelineConfig, build_config, parse_bool, parse_config_file
from .corpus import (
    dedupe_users,
    format_timestamp,
    load_tweets,
    load_users,
    parse_timestamp,
    split_retweets,
)
from .evaluation import Prediction, cross_validate
from .features import collect_stats, load_feature_set, save_feature_set, select_features, vectorize
from .preprocess import preprocess_tweet, read_documents, write_documents
from .resources import read_lines
from .stance import Stance
from .supervision import LabeledDataset, filter_topic, label_corpus
from .synth import SynthConfig


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _warn_unconverged(fits: Sequence[svm.TrainMeta], cfg: svm.TrainConfig) -> None:
    """One warning line when any fit stopped at max_epochs above tolerance."""
    stuck = [m.final_violation for m in fits if not m.final_violation < cfg.tolerance]
    if stuck:
        _info(f"warning: {len(stuck)} of {len(fits)} fits stopped at max_epochs "
              f"(worst violation {max(stuck):.2e})")


# ---------------------------------------------------------------------------
# shared config plumbing

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per PipelineConfig field: ``--<name with _ written as ->``."""
    parser.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    for f in fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        text = " ".join(filter(None, (f.metadata.get("help"), f"(default {f.default})")))
        kwargs = {"dest": f.name, "default": None, "help": text.replace("%", "%%")}
        if KEY_PARSERS[f.name] is parse_bool:
            parser.add_argument(flag, action="store_const", const=True, **kwargs)
        else:
            parser.add_argument(flag, type=KEY_PARSERS[f.name], **kwargs)


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    file_values = parse_config_file(args.config) if args.config else None
    overrides = {key: getattr(args, key, None) for key in KEY_PARSERS}
    return build_config(file_values, overrides)


# ---------------------------------------------------------------------------
# predictions TSV: tweet_id, user_id, created_at, stance, margin

def write_predictions_tsv(
    path: Path, rows: Sequence[tuple[str, str, datetime, Stance, float]]
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tweet_id, user_id, created_at, stance, margin in rows:
            fh.write(
                f"{tweet_id}\t{user_id}\t{format_timestamp(created_at)}\t{stance.wire}\t{margin:.6f}\n"
            )


def read_predictions_tsv(path: Path) -> list[tuple[str, str, datetime, Stance, float]]:
    rows = []
    for lineno, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 tab-separated fields")
        try:
            rows.append(
                (
                    parts[0],
                    parts[1],
                    parse_timestamp(parts[2]),
                    Stance.from_wire(parts[3]),
                    float(parts[4]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows


def _write_csv_text(path: Path, text: str, echo: bool) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")
    if echo:
        sys.stdout.write(text)


def _metrics_csv_text(rows) -> str:
    buf = io.StringIO()
    evaluation.write_metrics_csv(buf, rows)
    return buf.getvalue()


def _read_labeled_dataset(path: Path) -> LabeledDataset:
    docs = read_documents(path)
    users: dict[str, Stance] = {}
    for doc in docs:
        if doc.label is None:
            raise ValueError(f"{path}: document {doc.tweet_id} has no label")
        previous = users.get(doc.user_id)
        if previous is not None and previous is not doc.label:
            raise ValueError(f"{path}: user {doc.user_id} carries conflicting labels")
        users[doc.user_id] = doc.label
    return LabeledDataset(tuple(docs), users)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        n_users_pos=args.users_pos,
        n_users_neg=args.users_neg,
        tweets_per_user=(args.tweets_min, args.tweets_max),
        signal_strength=args.signal_strength,
        tag_noise=args.tag_noise,
        label_noise=args.label_noise,
        seed=args.seed,
    )
    corpus = synth.generate(cfg)
    paths = synth.write_corpus(corpus, args.out)
    _info(
        f"synth: {len(corpus.tweets)} tweets by {len(corpus.users)} users -> "
        + ", ".join(str(p) for p in paths.values())
    )
    return 0


def cmd_prep(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    resources = cfg.load_resources()
    records, skipped = load_tweets(args.tweets)
    tweets = split_retweets(records)
    kept = 0

    def kept_docs():  # streamed to the writer, so no list of documents is held
        nonlocal kept
        for tweet in tweets:
            doc = preprocess_tweet(tweet, resources)
            if doc is not None:
                kept += 1
                yield doc

    write_documents(args.out, kept_docs())
    _info(
        f"prep: {len(records)} records ({skipped} malformed or duplicate lines skipped), "
        f"{len(tweets)} tweets after repost split, {kept} documents kept, "
        f"{len(tweets) - kept} dropped (ads or empty)"
    )
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    resources = cfg.load_resources()
    docs = read_documents(args.docs)
    users, skipped = load_users(args.users)
    users = dedupe_users(users)
    on_topic = filter_topic(docs, resources.terminology)
    dataset, remainder = label_corpus(on_topic, users, resources.tag_lexicon)
    write_documents(args.out, dataset.documents)
    if args.remainder:
        write_documents(args.remainder, remainder)
    counts = dataset.class_counts()
    _info(
        f"label: {len(docs)} documents in, {len(on_topic)} on topic, "
        f"{len(dataset.documents)} labeled "
        f"({counts[Stance.SUPPORTING]} support / {counts[Stance.OPPOSING]} oppose), "
        f"{len(remainder)} unlabeled remainder; {skipped} malformed user lines skipped"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    dataset = _read_labeled_dataset(args.labeled)
    feature_set = select_features(collect_stats(dataset), cfg.K)
    digest = feature_set.digest()
    data = [
        (vectorize(doc, feature_set), 1 if doc.label is Stance.SUPPORTING else -1)
        for doc in dataset.documents
    ]
    train_cfg = cfg.train_config()
    model = svm.train(data, train_cfg, n_features=len(feature_set), feature_set_digest=digest)
    save_feature_set(args.features_out, feature_set)
    svm.save_model(args.model_out, model)
    meta = model.train_meta
    _info(
        f"train: {len(data)} examples, {len(feature_set)} features, "
        f"{meta.epochs} epochs, final violation {meta.final_violation:.2e} "
        f"-> {args.model_out}, {args.features_out}"
    )
    _warn_unconverged([meta], train_cfg)
    return 0


def cmd_cv(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    dataset = _read_labeled_dataset(args.labeled)
    train_cfg = cfg.train_config()
    result = cross_validate(
        dataset,
        cfg.K,
        train_cfg,
        cfg.k_folds,
        seed=cfg.seed,
        leaky_selection=cfg.leaky_selection,
    )
    text = _metrics_csv_text([("-", result.report)])
    _write_csv_text(args.out, text, args.print)
    _info(
        f"cv: {cfg.k_folds} folds over {len(dataset.documents)} documents, "
        f"micro-F1 {result.report.micro_f1:.4f}, macro-F1 {result.report.macro_f1:.4f} "
        f"-> {args.out}"
    )
    _warn_unconverged(result.fits, train_cfg)
    return 0


_AXIS_BY_FLAG = {"k": "feature_count", "wi": "wi", "gamma": "gamma_min"}


# a range spec that would give more settings than this is refused before any
# list is built
MAX_SWEEP_VALUES = 1000


def parse_sweep_values(spec: str, axis: str) -> list[float]:
    """Comma lists ("0.1,0.5,1") or inclusive ranges ("0.1..1.0:0.1")."""
    spec = spec.strip()
    values: list[float] = []
    if ".." in spec:
        head, _, step_s = spec.partition(":")
        if not step_s:
            raise ValueError("range form is start..end:step")
        start_s, _, end_s = head.partition("..")
        start, end, step = float(start_s), float(end_s), float(step_s)
        if not all(map(math.isfinite, (start, end, step))):
            raise ValueError("range bounds and step must be finite numbers")
        if step <= 0 or end < start:
            raise ValueError("range form needs end >= start and step > 0")
        span = (end - start) / step  # inf if it overflows
        # round(span) + 1 values, at most MAX_SWEEP_VALUES
        if not span < MAX_SWEEP_VALUES - 0.5:
            raise ValueError(f"range {spec} gives more than {MAX_SWEEP_VALUES} values")
        count = int(round(span)) + 1
        values = [round(start + i * step, 10) for i in range(count)]
        values = [v for v in values if v <= end + 1e-9]
    else:
        values = [float(part) for part in spec.split(",") if part.strip()]
        if not all(map(math.isfinite, values)):
            raise ValueError("sweep values must be finite numbers")
    if not values:
        raise ValueError("no sweep values given")
    if axis == "feature_count":
        for v in values:
            if int(v) != v:
                raise ValueError("k axis values must be integers")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    axis = _AXIS_BY_FLAG[args.axis]
    values = parse_sweep_values(args.values, axis)
    dataset = _read_labeled_dataset(args.labeled)
    train_cfg = cfg.train_config()
    rows = evaluation.sweep(
        dataset,
        axis,
        values,
        feature_count=cfg.K,
        cfg=train_cfg,
        k=cfg.k_folds,
        seed=cfg.seed,
        leaky_selection=cfg.leaky_selection,
    )
    text = _metrics_csv_text(rows)
    _write_csv_text(args.out, text, args.print)
    if args.svg:
        Path(args.svg).write_text(reports.sweep_chart(rows, args.axis), encoding="utf-8", newline="\n")
    _info(f"sweep: axis {args.axis}, {len(rows)} settings -> {args.out}")
    # gamma_min rows all share one run's fits
    runs = rows[:1] if axis == "gamma_min" else rows
    _warn_unconverged([m for row in runs for m in row.fits], train_cfg)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = svm.load_model(args.model)
    feature_set = load_feature_set(args.features)
    digest = feature_set.digest()
    docs = read_documents(args.docs)
    rows = []
    for doc in docs:
        stance, margin = svm.predict(model, vectorize(doc, feature_set), expected_digest=digest)
        rows.append((doc.tweet_id, doc.user_id, doc.created_at, stance, margin))
    write_predictions_tsv(args.out, rows)
    n_support = sum(1 for r in rows if r[3] is Stance.SUPPORTING)
    _info(
        f"predict: {len(rows)} documents, {n_support} support / "
        f"{len(rows) - n_support} oppose -> {args.out}"
    )
    return 0


def cmd_adjust(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    rows = read_predictions_tsv(args.predictions)
    predictions = [Prediction(user_id, tweet_id, stance) for tweet_id, user_id, _, stance, _ in rows]
    adjusted = evaluation.adjust(predictions, cfg.gamma_min)
    out_rows = [
        (row[0], row[1], row[2], adj.stance, row[4]) for row, adj in zip(rows, adjusted)
    ]
    write_predictions_tsv(args.out, out_rows)
    changed = sum(1 for row, adj in zip(rows, adjusted) if row[3] is not adj.stance)
    _info(
        f"adjust: gamma_min {cfg.gamma_min:g}, {changed} of {len(rows)} predictions "
        f"flipped to the author majority -> {args.out}"
    )
    return 0


def cmd_report_timeseries(args: argparse.Namespace) -> int:
    rows = read_predictions_tsv(args.predictions)
    buckets = reports.timeseries(
        [(created_at, stance) for _, _, created_at, stance, _ in rows], args.granularity
    )
    buf = io.StringIO()
    reports.write_timeseries_csv(buf, buckets)
    _write_csv_text(args.out, buf.getvalue(), args.print)
    if args.svg:
        Path(args.svg).write_text(
            reports.timeseries_chart(buckets, args.granularity), encoding="utf-8", newline="\n"
        )
    _info(f"report-timeseries: {len(buckets)} {args.granularity} buckets -> {args.out}")
    return 0


def cmd_report_keywords(args: argparse.Namespace) -> int:
    feature_set = load_feature_set(args.features)
    support, oppose = reports.keyword_report(feature_set, args.top_n)
    buf = io.StringIO()
    reports.write_keywords_csv(buf, support, oppose)
    _write_csv_text(args.out, buf.getvalue(), args.print)
    _info(
        f"report-keywords: top {args.top_n} per class "
        f"({len(support)} support, {len(oppose)} oppose) -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcm-stance",
        description="Stance classification pipeline for Chinese microblog text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth_defaults = SynthConfig()
    p = sub.add_parser("synth", help="generate a synthetic corpus with gold labels")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--users-pos", type=int, default=synth_defaults.n_users_pos)
    p.add_argument("--users-neg", type=int, default=synth_defaults.n_users_neg)
    p.add_argument("--tweets-min", type=int, default=synth_defaults.tweets_per_user[0])
    p.add_argument("--tweets-max", type=int, default=synth_defaults.tweets_per_user[1])
    p.add_argument("--signal-strength", type=float, default=synth_defaults.signal_strength)
    p.add_argument("--tag-noise", type=float, default=synth_defaults.tag_noise)
    p.add_argument("--label-noise", type=float, default=synth_defaults.label_noise)
    p.add_argument("--seed", type=int, default=synth_defaults.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prep", help="ingest, split reposts and preprocess tweets")
    p.add_argument("--tweets", type=Path, required=True, help="tweets.jsonl input")
    p.add_argument("--out", type=Path, required=True, help="documents JSONL output")
    _add_config_flags(p)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("label", help="topic-filter documents and apply tag supervision")
    p.add_argument("--docs", type=Path, required=True)
    p.add_argument("--users", type=Path, required=True, help="users.jsonl input")
    p.add_argument("--out", type=Path, required=True, help="labeled documents JSONL")
    p.add_argument("--remainder", type=Path, default=None, help="unlabeled on-topic documents JSONL")
    _add_config_flags(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="select features and train a model on labeled documents")
    p.add_argument("--labeled", type=Path, required=True)
    p.add_argument("--model-out", type=Path, required=True)
    p.add_argument("--features-out", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="stratified cross-validation with per-fold selection")
    p.add_argument("--labeled", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="metrics CSV output")
    p.add_argument("--print", action="store_true", help="also dump the CSV to stdout")
    _add_config_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("sweep", help="metrics across a parameter range")
    p.add_argument("--axis", choices=sorted(_AXIS_BY_FLAG), required=True)
    p.add_argument("--values", required=True, help='"0.1..1.0:0.1" or "0.1,0.5,1.0"')
    p.add_argument("--labeled", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="metrics CSV output")
    p.add_argument("--svg", type=Path, default=None, help="optional line chart output")
    p.add_argument("--print", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("predict", help="classify documents with a saved model")
    p.add_argument("--docs", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="predictions TSV output")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("adjust", help="snap consistent users to their majority stance")
    p.add_argument("--predictions", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_adjust)

    p = sub.add_parser("report-timeseries", help="bucket predictions over time")
    p.add_argument("--predictions", type=Path, required=True)
    p.add_argument("--granularity", choices=reports.GRANULARITIES, default="month")
    p.add_argument("--out", type=Path, required=True, help="CSV output")
    p.add_argument("--svg", type=Path, default=None)
    p.add_argument("--print", action="store_true")
    p.set_defaults(func=cmd_report_timeseries)

    p = sub.add_parser("report-keywords", help="ranked stance keyword lists from a feature file")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--top-n", type=int, default=10, dest="top_n")
    p.add_argument("--out", type=Path, required=True, help="CSV output")
    p.add_argument("--print", action="store_true")
    p.set_defaults(func=cmd_report_keywords)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, non-zero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
