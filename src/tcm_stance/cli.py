"""Command-line pipeline driver.

Stages communicate through files (JSONL corpora, TSV predictions, CSV
reports); standard output stays quiet unless --print is given, diagnostics
go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import fields
from itertools import starmap
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import evaluation, reports, svm, synth
from .config import (
    PipelineConfig,
    build_config,
    field_parsers,
    parse_bool,
    parse_config_file,
)
from .corpus import (
    canonical_timestamp,
    check_id,
    dedupe_users,
    load_tweets,
    load_users,
    split_retweets,
)
from .features import (
    collect_stats,
    load_feature_set,
    presence_columns,
    save_feature_set,
    select_features,
    vectorize,
)
from .preprocess import (
    iter_documents,
    preprocess_tweet,
    read_documents,
    write_documents,
)
from .resources import located
from .stance import Stance
from .supervision import LabeledDataset, filter_topic, label_corpus
from .synth import SynthConfig


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _warn_unconverged(fits: Sequence[svm.TrainMeta], cfg: svm.TrainConfig) -> None:
    """One warning line when any fit stopped at max_epochs above tolerance.
    Settings that share a fit share its TrainMeta, so a fit is counted once
    by identity: two different fits can hold equal values."""
    fits = list({id(m): m for m in fits}.values())
    stuck = [m.final_violation for m in fits if not m.final_violation < cfg.tolerance]
    if stuck:
        _info(f"warning: {len(stuck)} of {len(fits)} fits stopped at max_epochs "
              f"(worst violation {max(stuck):.2e})")


# ---------------------------------------------------------------------------
# settings flags

def _add_field_flags(parser: argparse.ArgumentParser, cls: type) -> None:
    """One flag per field of the settings dataclass ``cls``:
    ``--<name with _ written as ->``, which reads None when not given."""
    parsers = field_parsers(cls)
    for f in fields(cls):
        flag = "--" + f.name.replace("_", "-")
        text = " ".join(filter(None, (f.metadata.get("help"), f"(default {f.default})")))
        kwargs = {"dest": f.name, "default": None, "help": text.replace("%", "%%")}
        if parsers[f.name] is parse_bool:
            parser.add_argument(flag, action="store_const", const=True, **kwargs)
        else:
            parser.add_argument(flag, type=parsers[f.name], **kwargs)


def _given_flags(args: argparse.Namespace, cls: type) -> dict[str, object]:
    """The values of the flags of ``cls``'s fields that were given."""
    return {key: value for key in field_parsers(cls) if (value := getattr(args, key)) is not None}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    _add_field_flags(parser, PipelineConfig)


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    file_values = parse_config_file(args.config) if args.config else None
    return build_config(file_values, _given_flags(args, PipelineConfig))


# ---------------------------------------------------------------------------
# predictions TSV: one evaluation.Prediction per line, every field set

def _prediction_line(user_id: str, tweet_id: str, stance: Stance, created_at: str,
                     margin: float) -> str:
    return f"{tweet_id}\t{user_id}\t{created_at}\t{stance.wire}\t{margin:.6f}\n"


def write_predictions_tsv(path: Path, rows: Iterable[evaluation.Prediction]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(starmap(_prediction_line, rows))


def iter_predictions_tsv(path: Path) -> Iterator[evaluation.Prediction]:
    """Stream the rows of a predictions TSV; a bad line (the ids follow the
    documents file's rule, and the margin is finite) stops the stream with
    ``path:line``."""
    with located(path) as lines:
        for line in lines:
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError("expected 5 tab-separated fields")
            # checked in column order, built in record order
            tweet_id, user_id = check_id("tweet_id", parts[0]), check_id("user_id", parts[1])
            created_at = canonical_timestamp(parts[2])
            row = evaluation.Prediction(user_id, tweet_id, Stance.from_wire(parts[3]),
                                        created_at, float(parts[4]))
            if not math.isfinite(row.margin):
                raise ValueError("margin must be a finite number")
            yield row


def read_predictions_tsv(path: Path) -> list[evaluation.Prediction]:
    return list(iter_predictions_tsv(path))


def _write_report(args: argparse.Namespace, rows: list[list[str]],
                  chart: Callable[[], str] | None = None) -> None:
    """Write rows as the --out CSV and echo it under --print; with --svg,
    render ``chart()`` there too."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    args.out.write_text(text, encoding="utf-8", newline="\n")
    if args.print:
        sys.stdout.write(text)
    if chart is not None and args.svg:
        args.svg.write_text(chart(), encoding="utf-8", newline="\n")


def _read_labeled_dataset(path: Path) -> LabeledDataset:
    docs = read_documents(path)
    with located(path):
        return LabeledDataset(tuple(docs))


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args: argparse.Namespace) -> None:
    corpus = synth.generate(SynthConfig(**_given_flags(args, SynthConfig)))
    paths = synth.write_corpus(corpus, args.out)
    _info(
        f"synth: {len(corpus.tweets)} tweets by {len(corpus.users)} users -> "
        + ", ".join(str(p) for p in paths.values())
    )


def cmd_prep(args: argparse.Namespace) -> None:
    cfg = _resolve_config(args)
    resources = cfg.load_resources()
    records, skipped = load_tweets(args.tweets)
    tweets = split_retweets(records)
    # streamed to the writer, so no list of documents is held
    kept = write_documents(
        args.out, filter(None, (preprocess_tweet(tweet, resources) for tweet in tweets)))
    _info(
        f"prep: {len(records)} records ({skipped} malformed or duplicate lines skipped), "
        f"{len(tweets)} tweets after repost split, {kept} documents kept, "
        f"{len(tweets) - kept} dropped (ads or empty)"
    )


def cmd_label(args: argparse.Namespace) -> None:
    cfg = _resolve_config(args)
    resources = cfg.load_resources()
    docs = read_documents(args.docs)
    users, skipped = load_users(args.users)
    users = dedupe_users(users)
    on_topic = filter_topic(docs, resources.terminology)
    with located(args.docs):
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


def cmd_train(args: argparse.Namespace) -> None:
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


def cmd_cv(args: argparse.Namespace) -> None:
    cfg = _resolve_config(args)
    dataset = _read_labeled_dataset(args.labeled)
    train_cfg = cfg.train_config()
    result = evaluation.cross_validate(dataset, cfg.K, train_cfg, cfg.k_folds,
                                       leaky_selection=cfg.leaky_selection)
    _write_report(args, evaluation.metrics_csv_rows([("-", result.report)]))
    _info(
        f"cv: {cfg.k_folds} folds over {len(dataset.documents)} documents, "
        f"micro-F1 {result.report.micro_f1:.4f}, macro-F1 {result.report.macro_f1:.4f} "
        f"-> {args.out}"
    )
    _warn_unconverged(result.fits, train_cfg)


_AXIS_BY_FLAG = {"k": "feature_count", "wi": "wi", "gamma": "gamma_min"}


# a range spec that would give more settings than this is refused before any
# list is built
MAX_SWEEP_VALUES = 1000


def parse_sweep_values(spec: str) -> list[float]:
    """Comma lists ("0.1,0.5,1") or inclusive ranges ("0.1..1.0:0.1"), in
    spec order; the rules on the values are ``evaluation.sweep_values``'s."""
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
    return values


def cmd_sweep(args: argparse.Namespace) -> None:
    cfg = _resolve_config(args)
    axis = _AXIS_BY_FLAG[args.axis]
    values = evaluation.sweep_values(axis, parse_sweep_values(args.values))
    dataset = _read_labeled_dataset(args.labeled)
    train_cfg = cfg.train_config()
    rows = evaluation.sweep(dataset, axis, values, feature_count=cfg.K, cfg=train_cfg,
                            k=cfg.k_folds, leaky_selection=cfg.leaky_selection)
    _write_report(args, evaluation.metrics_csv_rows(rows),
                  lambda: reports.sweep_chart(rows, args.axis))
    _info(f"sweep: axis {args.axis}, {len(rows)} settings -> {args.out}")
    _warn_unconverged([m for row in rows for m in row.fits], train_cfg)


def cmd_predict(args: argparse.Namespace) -> None:
    model = svm.load_model(args.model)
    feature_set = load_feature_set(args.features)
    svm.check_columns(model, feature_set.digest(), len(feature_set))
    index, weights = feature_set.index, model.weights
    # the encoded output lines, written after the last document, so that a
    # refused document leaves no output file
    out = bytearray()
    n_docs = n_support = 0
    for tweet_id, user_id, created_at, tokens, _ in iter_documents(args.docs):
        stance, margin = svm.score(weights, presence_columns(tokens, index))
        n_docs += 1
        n_support += stance is Stance.SUPPORTING
        out += _prediction_line(user_id, tweet_id, stance, created_at, margin).encode("utf-8")
    args.out.write_bytes(out)
    _info(
        f"predict: {n_docs} documents, {n_support} support / "
        f"{n_docs - n_support} oppose -> {args.out}"
    )


def cmd_adjust(args: argparse.Namespace) -> None:
    cfg = _resolve_config(args)
    rows = read_predictions_tsv(args.predictions)
    adjusted = evaluation.adjust(rows, cfg.gamma_min)
    write_predictions_tsv(args.out, adjusted)
    changed = sum(1 for row, out in zip(rows, adjusted) if out is not row)
    _info(
        f"adjust: gamma_min {cfg.gamma_min:g}, {changed} of {len(rows)} predictions "
        f"flipped to the author majority -> {args.out}"
    )


def cmd_report_timeseries(args: argparse.Namespace) -> None:
    rows = iter_predictions_tsv(args.predictions)
    buckets = reports.timeseries(((row.created_at, row.stance) for row in rows),
                                 args.granularity)
    _write_report(args, reports.timeseries_csv_rows(buckets),
                  lambda: reports.timeseries_chart(buckets, args.granularity))
    _info(f"report-timeseries: {len(buckets)} {args.granularity} buckets -> {args.out}")


def cmd_report_keywords(args: argparse.Namespace) -> None:
    feature_set = load_feature_set(args.features)
    support, oppose = reports.keyword_report(feature_set, args.top_n)
    _write_report(args, reports.keywords_csv_rows(support, oppose))
    _info(
        f"report-keywords: top {args.top_n} per class "
        f"({len(support)} support, {len(oppose)} oppose) -> {args.out}"
    )


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcm-stance",
        description="Stance classification pipeline for Chinese microblog text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with gold labels")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    _add_field_flags(p, SynthConfig)
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
    """Run one command.  Exit codes: 0 success, 1 failure (one ``error:``
    line on stderr), 2 usage error (from argparse)."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # one-line diagnostic, non-zero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
