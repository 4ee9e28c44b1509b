"""Scoring, stratified cross-validation, per-user consistency adjustment and
parameter sweeps.

Cross-validation and every sweep axis run one fold plan: the stratified
splits plus each training fold's chi-square ranking (the leaky variant ranks
once on the full corpus, for comparison runs only).  The pooled out-of-fold
predictions are kept so the per-user adjustment is scored on exactly them.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from typing import IO, Iterable, Sequence

from .features import (
    DEFAULT_FEATURE_COUNT,
    FeatureSet,
    SelectedTerm,
    collect_stats,
    select_features,
    vectorize,
)
from .stance import Stance
from .supervision import LabeledDataset
from .svm import TrainConfig, predict, train


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class MetricsReport:
    per_class: dict[Stance, ClassMetrics]
    micro_f1: float
    macro_f1: float


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def compute_metrics(pairs: Sequence[tuple[Stance, Stance]]) -> MetricsReport:
    """Per-class precision/recall/F1 from (gold, predicted) pairs.

    Zero denominators score 0.  Micro averages pool the counts over both
    classes; macro is the unweighted mean of the class F1 values.
    """
    if not pairs:
        raise ValueError("no predictions to score")
    per_class: dict[Stance, ClassMetrics] = {}
    for cls in (Stance.SUPPORTING, Stance.OPPOSING):
        tp = sum(1 for gold, pred in pairs if gold is cls and pred is cls)
        fp = sum(1 for gold, pred in pairs if gold is not cls and pred is cls)
        fn = sum(1 for gold, pred in pairs if gold is cls and pred is not cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[cls] = ClassMetrics(precision, recall, _f1(precision, recall), tp, fp, fn)
    tp_all = sum(m.tp for m in per_class.values())
    fp_all = sum(m.fp for m in per_class.values())
    fn_all = sum(m.fn for m in per_class.values())
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all else 0.0
    micro_f1 = _f1(micro_p, micro_r)
    macro_f1 = sum(m.f1 for m in per_class.values()) / len(per_class)
    return MetricsReport(per_class, micro_f1, macro_f1)


def stratified_kfold(
    dataset: LabeledDataset, k: int, seed: int
) -> list[tuple[list[int], list[int]]]:
    """k (train_indices, test_indices) splits with per-class round-robin deal."""
    if k < 2:
        raise ValueError("k must be at least 2")
    by_class: dict[Stance, list[int]] = {Stance.SUPPORTING: [], Stance.OPPOSING: []}
    for i, doc in enumerate(dataset.documents):
        if doc.label is None:
            raise ValueError("dataset contains an unlabeled document")
        by_class[doc.label].append(i)
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (Stance.SUPPORTING, Stance.OPPOSING):
        idxs = list(by_class[cls])
        if len(idxs) < k:
            raise ValueError(f"class {cls.wire} has fewer than k={k} examples")
        rng.shuffle(idxs)
        for j, doc_index in enumerate(idxs):
            folds[j % k].append(doc_index)
    everything = set(range(len(dataset.documents)))
    splits = []
    for fold in folds:
        test = sorted(fold)
        train_part = sorted(everything.difference(fold))
        splits.append((train_part, test))
    return splits


@dataclass(frozen=True)
class Prediction:
    user_id: str
    tweet_id: str
    stance: Stance


@dataclass(frozen=True)
class CVResult:
    report: MetricsReport
    predictions: tuple[Prediction, ...]   # pooled out-of-fold, fold order
    golds: dict[str, Stance]              # tweet_id -> gold label


_Fold = tuple[list[int], list[int], tuple[SelectedTerm, ...]]


def _fold_plan(
    dataset: LabeledDataset, max_k: int, k: int, seed: int, leaky_selection: bool
) -> list[_Fold]:
    """Stratified (train, test) splits, each with its training fold's
    chi-square ranking cut at max_k.  The K-prefix of a ranking is exactly
    the top-K selection, since ``select_features`` sorts by (-score, term)."""
    splits = stratified_kfold(dataset, k, seed)
    if leaky_selection:
        shared = select_features(collect_stats(dataset), max_k).terms
        return [(train_idx, test_idx, shared) for train_idx, test_idx in splits]
    docs = dataset.documents
    return [
        (train_idx, test_idx, select_features(
            collect_stats(LabeledDataset(tuple(docs[i] for i in train_idx), dataset.users)), max_k
        ).terms)
        for train_idx, test_idx in splits
    ]


def _run_plan(
    dataset: LabeledDataset, plan: list[_Fold], feature_count: int, cfg: TrainConfig
) -> CVResult:
    """Pooled out-of-fold predictions at one (K, training config)."""
    docs = dataset.documents
    predictions: list[Prediction] = []
    pairs: list[tuple[Stance, Stance]] = []
    golds: dict[str, Stance] = {}
    for train_idx, test_idx, ranking in plan:
        fs = FeatureSet(ranking[:feature_count])
        data = [(vectorize(docs[i], fs), 1 if docs[i].label is Stance.SUPPORTING else -1)
                for i in train_idx]
        model = train(data, cfg, n_features=len(fs))
        for i in test_idx:
            doc = docs[i]
            stance, _margin = predict(model, vectorize(doc, fs))
            predictions.append(Prediction(doc.user_id, doc.tweet_id, stance))
            pairs.append((doc.label, stance))
            golds[doc.tweet_id] = doc.label
    return CVResult(compute_metrics(pairs), tuple(predictions), golds)


def cross_validate(
    dataset: LabeledDataset,
    feature_count: int,
    cfg: TrainConfig,
    k: int = 5,
    *,
    seed: int | None = None,
    leaky_selection: bool = False,
) -> CVResult:
    plan = _fold_plan(dataset, feature_count, k, cfg.seed if seed is None else seed,
                      leaky_selection)
    return _run_plan(dataset, plan, feature_count, cfg)


def gamma_of(count_support: int, count_oppose: int) -> float:
    """Majority share of one user's predictions; always in [0.5, 1.0]."""
    if count_support < 0 or count_oppose < 0:
        raise ValueError("counts must be non-negative")
    total = count_support + count_oppose
    if total == 0:
        raise ValueError("at least one prediction required")
    return max(count_support, count_oppose) / total


def adjust(predictions: Sequence[Prediction], gamma_min: float) -> list[Prediction]:
    """Snap each sufficiently consistent user to their majority stance.

    A user qualifies when a strict majority exists (gamma > 0.5) and the
    majority share reaches gamma_min.  Idempotent; never flips a majority.
    """
    if not 0.5 <= gamma_min <= 1.0:
        raise ValueError("gamma_min must be in [0.5, 1.0]")
    counts: dict[str, list[int]] = {}
    for p in predictions:
        slot = 0 if p.stance is Stance.SUPPORTING else 1
        counts.setdefault(p.user_id, [0, 0])[slot] += 1
    majority: dict[str, Stance] = {}
    for uid, (c_s, c_o) in counts.items():
        gamma = gamma_of(c_s, c_o)
        if gamma > 0.5 and gamma >= gamma_min:
            majority[uid] = Stance.SUPPORTING if c_s > c_o else Stance.OPPOSING
    return [
        replace(p, stance=majority[p.user_id]) if p.user_id in majority else p
        for p in predictions
    ]


SWEEP_AXES = ("feature_count", "wi", "gamma_min")


def sweep(
    dataset: LabeledDataset,
    axis: str,
    values: Sequence[float],
    *,
    feature_count: int = DEFAULT_FEATURE_COUNT,
    cfg: TrainConfig | None = None,
    k: int = 5,
    seed: int | None = None,
    leaky_selection: bool = False,
) -> list[tuple[float, MetricsReport]]:
    """One metrics row per value, rows ordered by value ascending.

    All rows share one fold plan.  feature_count and wi rows run it at that
    setting and score the raw classifier (no per-user adjustment); gamma_min
    rows re-adjust one run's pooled predictions at each threshold.
    """
    cfg = cfg or TrainConfig()
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    if not values:
        raise ValueError("values must be non-empty")
    vals = sorted(values)
    for v in vals:
        if axis == "gamma_min" and not 0.5 <= v <= 1.0:
            raise ValueError("gamma_min values must be in [0.5, 1.0]")
        if axis == "wi" and not 0 < v <= 1:
            raise ValueError("wi values must be in (0, 1]")
        if axis == "feature_count" and (v < 1 or int(v) != v):
            raise ValueError("feature_count values must be positive integers")
    max_k = int(vals[-1]) if axis == "feature_count" else feature_count
    plan = _fold_plan(dataset, max_k, k, cfg.seed if seed is None else seed, leaky_selection)
    if axis == "feature_count":
        return [(float(v), _run_plan(dataset, plan, int(v), cfg).report) for v in vals]
    if axis == "wi":
        return [(v, _run_plan(dataset, plan, feature_count, replace(cfg, wi=v)).report)
                for v in vals]
    result = _run_plan(dataset, plan, feature_count, cfg)
    return [(v, compute_metrics([(result.golds[p.tweet_id], p.stance)
                                 for p in adjust(result.predictions, v)]))
            for v in vals]


# ---------------------------------------------------------------------------
# CSV emission: axis_value,class,precision,recall,f1,micro_f1,macro_f1

METRICS_CSV_HEADER = ["axis_value", "class", "precision", "recall", "f1", "micro_f1", "macro_f1"]


def format_axis_value(value: float | int | str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def metrics_csv_rows(rows: Iterable[tuple[float | int | str, MetricsReport]]) -> list[list[str]]:
    out = [list(METRICS_CSV_HEADER)]
    for value, report in rows:
        label = format_axis_value(value)
        for cls in (Stance.SUPPORTING, Stance.OPPOSING):
            m = report.per_class[cls]
            out.append(
                [
                    label,
                    cls.wire,
                    f"{m.precision:.4f}",
                    f"{m.recall:.4f}",
                    f"{m.f1:.4f}",
                    f"{report.micro_f1:.4f}",
                    f"{report.macro_f1:.4f}",
                ]
            )
    return out


def write_metrics_csv(
    fh: IO[str], rows: Iterable[tuple[float | int | str, MetricsReport]]
) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerows(metrics_csv_rows(rows))
