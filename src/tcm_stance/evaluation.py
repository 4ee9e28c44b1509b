"""Scoring, stratified cross-validation, per-user consistency adjustment and
parameter sweeps.

Cross-validation and every sweep axis run one fold plan: the stratified
splits plus each training fold's chi-square ranking (the leaky variant ranks
once on the full corpus, for comparison runs only).  The plan counts the
labeled set once and derives each training fold's counts by subtracting its
test fold's.  Cross-validation and the sweeps also share one fold-major loop
over (K, training config) settings: each fold vectorizes its documents once,
from each document's distinct terms, and fits every setting in turn, equal
vectors sharing one SparseVector and so one solver row.  A setting keeps only
its predicted stances and fits.  After the loop ``_results``, the one result
builder, scores each setting's pooled out-of-fold predictions with
``score_predictions``, one setting at a time, and keeps them for ``adjust``.
Every row and fit equals what a fresh cross-validation per setting gives.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .features import (
    DEFAULT_FEATURE_COUNT,
    SelectedTerm,
    SparseVector,
    fold_rankings,
    presence_columns,
)
from .stance import Stance
from .supervision import LabeledDataset
from .svm import TrainConfig, TrainMeta, score, shuffle, train


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
    golds, predicted = zip(*pairs)
    hits = [gold for gold, pred in pairs if gold is pred]
    per_class: dict[Stance, ClassMetrics] = {}
    for cls in (Stance.SUPPORTING, Stance.OPPOSING):
        tp = hits.count(cls)
        fp = predicted.count(cls) - tp
        fn = golds.count(cls) - tp
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
    """k (train_indices, test_indices) splits with per-class round-robin deal.
    Each class is shuffled with ``svm.shuffle``, so the deal is the one
    ``random.Random(seed).shuffle`` gives without depending on it."""
    if k < 2:
        raise ValueError("k must be at least 2")
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (Stance.SUPPORTING, Stance.OPPOSING):
        idxs = [i for i, doc in enumerate(dataset.documents) if doc.label is cls]
        if len(idxs) < k:
            raise ValueError(f"class {cls.wire} has fewer than k={k} examples")
        shuffle(rng, idxs)
        for j, doc_index in enumerate(idxs):
            folds[j % k].append(doc_index)
    everything = set(range(len(dataset.documents)))
    splits = []
    for fold in folds:
        test = sorted(fold)
        train_part = sorted(everything.difference(fold))
        splits.append((train_part, test))
    return splits


class Prediction(NamedTuple):
    """One predicted stance.  A predictions TSV line also carries the
    canonical ``created_at`` text and the margin; CV leaves both None."""

    user_id: str
    tweet_id: str
    stance: Stance
    created_at: Optional[str] = None
    margin: Optional[float] = None


@dataclass(frozen=True)
class CVResult:
    report: MetricsReport
    predictions: tuple[Prediction, ...]   # pooled out-of-fold, fold order
    golds: dict[str, Stance]              # tweet_id -> gold label
    fits: tuple[TrainMeta, ...]           # one per fold, fold order


_Fold = tuple[list[int], list[int], tuple[SelectedTerm, ...]]


def _fold_plan(
    dataset: LabeledDataset, max_k: int, k: int, seed: int, leaky_selection: bool
) -> list[_Fold]:
    """Stratified (train, test) splits, each with its training fold's
    chi-square ranking cut at max_k.  The K-prefix of a ranking is exactly
    the top-K selection, since rankings order by (-score, term).

    The labeled set is counted once, and each training fold's counts are
    derived from it by subtracting its test fold's (``fold_rankings``).  The
    leaky plan ranks the whole set, an empty test fold, once for every fold."""
    splits = stratified_kfold(dataset, k, seed)
    if leaky_selection:
        rankings = fold_rankings(dataset.documents, [()], max_k) * len(splits)
    else:
        rankings = fold_rankings(dataset.documents, [test_idx for _, test_idx in splits], max_k)
    return [(train_idx, test_idx, ranking)
            for (train_idx, test_idx), ranking in zip(splits, rankings)]


def _shared_vectors(columns: list[tuple[int, ...]], count: int) -> list[SparseVector]:
    """The vectors at K = count of documents given by their sorted columns at
    a larger K, one shared SparseVector per distinct column tuple."""
    shared: dict[tuple[int, ...], SparseVector] = {}
    vectors = []
    for cols in columns:
        if cols and cols[-1] >= count:
            cols = cols[:bisect_left(cols, count)]
        vec = shared.get(cols)
        if vec is None:
            vec = shared[cols] = SparseVector(cols)
        vectors.append(vec)
    return vectors


def _run_plan(
    dataset: LabeledDataset, plan: list[_Fold], settings: Sequence[tuple[int, TrainConfig]]
) -> list[tuple[list[Stance], tuple[TrainMeta, ...]]]:
    """Every (K, training config) setting over one plan, fold by fold.

    A fold vectorizes each of its documents once: its ``presence_columns``
    in the ranking cut at the largest K in use.  A smaller K keeps the
    columns below K, which is the vector of the K-prefix.  Equal column
    tuples share one SparseVector per (fold, K), so the solver shares their
    rows too.  Test vectors are scored as presence vectors (``score``).  Per
    setting only the predicted stances (pooled: fold order, then test index
    order) and the fits (fold order) are kept.

    A fold's effective K is ``min(count, len(ranking))``: settings that
    reach the same effective K and training config there train identical
    inputs, so they share one fit and its stances.
    """
    docs = dataset.documents
    labels = [1 if d.label is Stance.SUPPORTING else -1 for d in docs]
    max_k = max(count for count, _ in settings)
    stances: list[list[Stance]] = [[] for _ in settings]
    fits: list[list[TrainMeta]] = [[] for _ in settings]
    for train_idx, test_idx, ranking in plan:
        index = {t.term: j for j, t in enumerate(ranking[:max_k])}
        columns = [presence_columns(docs[i].tokens, index) for i in (*train_idx, *test_idx)]
        effective = [(min(count, len(ranking)), cfg) for count, cfg in settings]
        for count in dict.fromkeys(count for count, _ in effective):
            vectors = _shared_vectors(columns, count)
            data = list(zip(vectors, (labels[i] for i in train_idx)))
            test = vectors[len(train_idx):]
            fitted: dict[TrainConfig, tuple[TrainMeta, list[Stance]]] = {}
            for s, (setting_count, cfg) in enumerate(effective):
                if setting_count == count:
                    fit = fitted.get(cfg)
                    if fit is None:
                        model = train(data, cfg, n_features=count)
                        fit = fitted[cfg] = (model.train_meta,
                                             [score(model.weights, x.indices)[0] for x in test])
                    fits[s].append(fit[0])
                    stances[s].extend(fit[1])
    return [(pooled, tuple(meta)) for pooled, meta in zip(stances, fits)]


def score_predictions(predictions: Iterable[Prediction],
                      golds: dict[str, Stance]) -> MetricsReport:
    """Metrics of predictions against the gold labels, by tweet_id; a
    prediction whose tweet_id has no gold label is refused."""
    try:
        pairs = [(golds[p.tweet_id], p.stance) for p in predictions]
    except KeyError as exc:
        raise ValueError(f"no gold label for tweet_id {exc.args[0]!r}") from None
    return compute_metrics(pairs)


def _results(
    dataset: LabeledDataset, plan: list[_Fold], settings: Sequence[tuple[int, TrainConfig]]
) -> Iterator[CVResult]:
    """One scored CVResult per setting of ``_run_plan``, built as it is
    consumed, so only one setting's predictions are held at a time."""
    pooled = [dataset.documents[i] for _, test_idx, _ in plan for i in test_idx]
    golds = {d.tweet_id: d.label for d in pooled}
    for stances, fits in _run_plan(dataset, plan, settings):
        predictions = tuple(Prediction(d.user_id, d.tweet_id, s) for d, s in zip(pooled, stances))
        yield CVResult(score_predictions(predictions, golds), predictions, golds, fits)


def cross_validate(
    dataset: LabeledDataset,
    feature_count: int,
    cfg: TrainConfig,
    k: int = 5,
    *,
    leaky_selection: bool = False,
) -> CVResult:
    """Pooled out-of-fold predictions at one (K, training config), over
    stratified folds dealt with ``cfg.seed``."""
    plan = _fold_plan(dataset, feature_count, k, cfg.seed, leaky_selection)
    (result,) = _results(dataset, plan, [(feature_count, cfg)])
    return result


def gamma_of(count_support: int, count_oppose: int) -> float:
    """Majority share of one user's predictions; always in [0.5, 1.0]."""
    if count_support < 0 or count_oppose < 0:
        raise ValueError("counts must be non-negative")
    total = count_support + count_oppose
    if total == 0:
        raise ValueError("at least one prediction required")
    return max(count_support, count_oppose) / total


def adjust(predictions: Sequence[Prediction], gamma_min: float) -> list[Prediction]:
    """Snap each sufficiently consistent user to their majority stance, over
    Predictions, from cross-validation or read from a predictions TSV.

    A user qualifies when a strict majority exists (gamma > 0.5) and the
    majority share reaches gamma_min.  A Prediction whose stance changes
    comes back as ``p._replace(stance=...)``; every other one comes back as
    the same object.  Idempotent; never flips a majority.
    """
    if not 0.5 <= gamma_min <= 1.0:
        raise ValueError("gamma_min must be in [0.5, 1.0]")
    counts: dict[str, list[int]] = {}
    for p in predictions:
        counts.setdefault(p.user_id, [0, 0])[0 if p.stance is Stance.SUPPORTING else 1] += 1
    majority: dict[str, Stance] = {}
    for uid, (c_s, c_o) in counts.items():
        gamma = gamma_of(c_s, c_o)
        if gamma > 0.5 and gamma >= gamma_min:
            majority[uid] = Stance.SUPPORTING if c_s > c_o else Stance.OPPOSING
    return [p if (m := majority.get(p.user_id, p.stance)) is p.stance else p._replace(stance=m)
            for p in predictions]


SWEEP_AXES = ("feature_count", "wi", "gamma_min")


class SweepRow(tuple):
    """A ``(value, report)`` pair that also keeps, as ``fits``, the TrainMeta
    of the fold fits behind it in fold order; gamma_min rows share one run's."""

    fits: tuple[TrainMeta, ...]

    def __new__(cls, value: float, report: MetricsReport, fits: tuple[TrainMeta, ...]):
        row = super().__new__(cls, (value, report))
        row.fits = fits
        return row


def sweep_values(axis: str, values: Iterable[float]) -> list[float]:
    """The values of a sweep along ``axis``, as floats in ascending order.
    Every rule on sweep values is checked here, for the command line and the
    library alike: at least one value, no value twice, whole feature counts
    >= 1, and gamma_min values in [0.5, 1.0]."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    vals = sorted(map(float, values))
    if not vals:
        raise ValueError("no sweep values given")
    for prev, v in zip(vals, vals[1:]):
        if v == prev:
            raise ValueError(
                f"sweep values must be distinct: {format_axis_value(v)} is given more than once")
    if axis == "feature_count" and not all(v >= 1 and v.is_integer() for v in vals):
        raise ValueError("feature_count values must be positive integers")
    if axis == "gamma_min" and not all(0.5 <= v <= 1.0 for v in vals):
        raise ValueError("gamma_min values must be in [0.5, 1.0]")
    return vals


def sweep(
    dataset: LabeledDataset,
    axis: str,
    values: Sequence[float],
    *,
    feature_count: int = DEFAULT_FEATURE_COUNT,
    cfg: TrainConfig | None = None,
    k: int = 5,
    leaky_selection: bool = False,
) -> list[SweepRow]:
    """One metrics row per value of ``sweep_values``, rows ordered by value ascending.

    All rows share one fold plan.  feature_count and wi rows run it at that
    setting and score the raw classifier (no per-user adjustment); gamma_min
    rows re-adjust one ``cross_validate`` run's pooled predictions.
    """
    cfg = cfg or TrainConfig()
    vals = sweep_values(axis, values)
    if axis == "gamma_min":
        result = cross_validate(dataset, feature_count, cfg, k, leaky_selection=leaky_selection)
        return [SweepRow(v, score_predictions(adjust(result.predictions, v), result.golds),
                         result.fits) for v in vals]
    if axis == "feature_count":
        settings = [(int(v), cfg) for v in vals]
    else:
        settings = [(feature_count, replace(cfg, wi=v)) for v in vals]
    plan = _fold_plan(dataset, max(count for count, _ in settings), k, cfg.seed,
                      leaky_selection)
    return [SweepRow(v, r.report, r.fits) for v, r in zip(vals, _results(dataset, plan, settings))]


# ---------------------------------------------------------------------------
# CSV rows: axis_value,class,precision,recall,f1,micro_f1,macro_f1

METRICS_CSV_HEADER = ["axis_value", "class", "precision", "recall", "f1", "micro_f1", "macro_f1"]


def format_axis_value(value: float | int | str) -> str:
    """An integral value as an int; any other float in ``:g`` form when that
    reads back as the same float, else as ``repr``, so that distinct sweep
    values never share a label."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


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
