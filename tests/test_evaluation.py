"""Metrics, stratified folds, per-user adjustment, parameter sweeps."""

from __future__ import annotations

import ast
import math
import random
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tcm_stance
from conftest import make_dataset, peak_bytes, separable_dataset
from oracles import reference_cross_validate
from tcm_stance import evaluation
from tcm_stance.evaluation import (
    METRICS_CSV_HEADER,
    Prediction,
    _fold_plan,
    adjust,
    compute_metrics,
    cross_validate,
    format_axis_value,
    gamma_of,
    metrics_csv_rows,
    score_predictions,
    stratified_kfold,
    sweep,
)
from tcm_stance.cli import parse_sweep_values
from tcm_stance.corpus import format_timestamp
from tcm_stance.features import collect_stats, select_features
from tcm_stance.stance import Stance
from tcm_stance.supervision import LabeledDataset
from tcm_stance.svm import TrainConfig

S, O = Stance.SUPPORTING, Stance.OPPOSING

stance_st = st.sampled_from([S, O])


def test_perfect_predictions():
    report = compute_metrics([(S, S), (O, O), (S, S)])
    for cls in (S, O):
        assert report.per_class[cls].precision == 1.0
        assert report.per_class[cls].recall == 1.0
        assert report.per_class[cls].f1 == 1.0
    assert report.micro_f1 == 1.0
    assert report.macro_f1 == 1.0


def test_hand_counted_mixed_case():
    pairs = [(S, S), (S, O), (O, O), (O, O), (S, S)]
    report = compute_metrics(pairs)
    sup = report.per_class[S]
    opp = report.per_class[O]
    assert (sup.tp, sup.fp, sup.fn) == (2, 0, 1)
    assert (opp.tp, opp.fp, opp.fn) == (2, 1, 0)
    assert sup.precision == 1.0
    assert sup.recall == pytest.approx(2 / 3)
    assert sup.f1 == pytest.approx(0.8)
    assert opp.precision == pytest.approx(2 / 3)
    assert opp.recall == 1.0
    assert report.micro_f1 == pytest.approx(0.8)
    assert report.macro_f1 == pytest.approx(0.8)


def test_frozen_f1_value():
    # per-class counts chosen to make precision 0.96 and recall 0.98 exactly
    pairs = [(S, S)] * 1176 + [(O, S)] * 49 + [(S, O)] * 24
    report = compute_metrics(pairs)
    sup = report.per_class[S]
    assert sup.precision == pytest.approx(0.96, abs=1e-12)
    assert sup.recall == pytest.approx(0.98, abs=1e-12)
    assert sup.f1 == pytest.approx(0.96990, abs=1e-5)


def test_zero_denominators_score_zero():
    report = compute_metrics([(S, O), (S, O)])
    assert report.per_class[S].recall == 0.0
    assert report.per_class[S].precision == 0.0  # nothing predicted supporting
    assert report.per_class[O].precision == 0.0
    assert report.per_class[O].recall == 0.0  # no opposing gold
    assert report.micro_f1 == 0.0
    assert report.macro_f1 == 0.0


def test_empty_pairs_are_rejected():
    with pytest.raises(ValueError):
        compute_metrics([])


def test_a_prediction_without_a_gold_label_is_refused():
    golds = {"t1": S, "t2": O}
    scored = score_predictions([Prediction("u1", "t1", S), Prediction("u2", "t2", S)], golds)
    assert scored == compute_metrics([(S, S), (O, S)])
    with pytest.raises(ValueError, match=r"^no gold label for tweet_id 't9'$"):
        score_predictions([Prediction("u1", "t1", S), Prediction("u9", "t9", O)], golds)


@given(st.lists(st.tuples(stance_st, stance_st), min_size=1, max_size=40))
def test_micro_f1_equals_accuracy(pairs):
    report = compute_metrics(pairs)
    accuracy = sum(1 for g, p in pairs if g is p) / len(pairs)
    assert report.micro_f1 == pytest.approx(accuracy, abs=1e-12)
    for cls in (S, O):
        m = report.per_class[cls]
        for value in (m.precision, m.recall, m.f1):
            assert 0.0 <= value <= 1.0
        assert (m.tp, m.fp, m.fn) == (sum(g is cls and p is cls for g, p in pairs),
                                      sum(g is not cls and p is cls for g, p in pairs),
                                      sum(g is cls and p is not cls for g, p in pairs))


def balanced_dataset(n_pos: int, n_neg: int):
    rows = [(f"p{i}", ("经络", "有效"), S) for i in range(n_pos)]
    rows += [(f"n{i}", ("经络", "骗局"), O) for i in range(n_neg)]
    return make_dataset(rows)


def test_kfold_even_split():
    dataset = balanced_dataset(10, 10)
    splits = stratified_kfold(dataset, 5, seed=3)
    assert len(splits) == 5
    docs = dataset.documents
    for train_idx, test_idx in splits:
        assert len(test_idx) == 4
        assert sorted(train_idx + test_idx) == list(range(20))
        test_labels = [docs[i].label for i in test_idx]
        assert test_labels.count(S) == 2
        assert test_labels.count(O) == 2


def test_kfold_test_folds_partition_the_dataset():
    dataset = balanced_dataset(7, 5)
    splits = stratified_kfold(dataset, 3, seed=1)
    seen = sorted(i for _, test in splits for i in test)
    assert seen == list(range(12))


def test_kfold_is_seed_deterministic():
    dataset = balanced_dataset(9, 6)
    assert stratified_kfold(dataset, 3, seed=5) == stratified_kfold(dataset, 3, seed=5)


def test_kfold_rejects_underfilled_classes():
    with pytest.raises(ValueError):
        stratified_kfold(balanced_dataset(4, 2), 3, seed=0)
    with pytest.raises(ValueError):
        stratified_kfold(balanced_dataset(4, 4), 1, seed=0)


@pytest.mark.parametrize("n_pos, n_neg", [(5, 5), (9, 6), (40, 17), (130, 260)])
@pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 40])
def test_kfold_deals_the_folds_the_library_shuffle_deals(n_pos, n_neg, seed, monkeypatch):
    dataset = balanced_dataset(n_pos, n_neg)
    splits = stratified_kfold(dataset, 5, seed)
    monkeypatch.setattr(evaluation, "shuffle", lambda rng, x: rng.shuffle(x))
    assert splits == stratified_kfold(dataset, 5, seed)


@given(st.integers(2, 5), st.integers(5, 25), st.integers(5, 25), st.integers(0, 9))
def test_kfold_stratification_is_tight(k, n_pos, n_neg, seed):
    dataset = balanced_dataset(n_pos, n_neg)
    splits = stratified_kfold(dataset, k, seed)
    docs = dataset.documents
    for _, test_idx in splits:
        pos = sum(1 for i in test_idx if docs[i].label is S)
        neg = len(test_idx) - pos
        assert abs(pos - n_pos / k) < 1.0
        assert abs(neg - n_neg / k) < 1.0


def test_gamma_of_values():
    assert gamma_of(3, 1) == pytest.approx(0.75)
    assert gamma_of(2, 2) == pytest.approx(0.5)
    assert gamma_of(0, 5) == 1.0
    with pytest.raises(ValueError):
        gamma_of(0, 0)
    with pytest.raises(ValueError):
        gamma_of(-1, 2)


@given(st.integers(0, 50), st.integers(0, 50))
def test_gamma_of_range(a, b):
    if a + b == 0:
        return
    assert 0.5 <= gamma_of(a, b) <= 1.0


def preds(*rows) -> list[Prediction]:
    return [Prediction(uid, f"t{i}", s) for i, (uid, s) in enumerate(rows)]


def prediction_rows(*rows) -> list[Prediction]:
    """The same (user, stance) draws as predictions TSV rows, each with its
    own time and margin."""
    start = datetime(2013, 5, 17, 12)
    return [Prediction(uid, f"t{i}", s, format_timestamp(start + timedelta(minutes=i)),
                       (i if s is S else -i) / 8)
            for i, (uid, s) in enumerate(rows)]


# the Predictions adjust is given: from CV (three fields) and from a predictions TSV (five)
RECORD_SHAPES = (preds, prediction_rows)


def test_adjust_snaps_consistent_users():
    p = preds(("a", S), ("a", S), ("a", O), ("b", O))
    adjusted = adjust(p, 0.6)
    assert [x.stance for x in adjusted] == [S, S, S, O]
    assert [x.tweet_id for x in adjusted] == [x.tweet_id for x in p]


def test_adjust_respects_the_threshold():
    p = preds(("a", S), ("a", S), ("a", O))
    assert adjust(p, 0.7) == p  # gamma 2/3 misses the bar


def test_adjust_leaves_ties_alone():
    p = preds(("a", S), ("a", O))
    assert adjust(p, 0.5) == p


def test_adjust_at_one_only_confirms_unanimity():
    for records in RECORD_SHAPES:
        p = records(("a", S), ("a", S), ("b", S), ("b", O))
        out = adjust(p, 1.0)
        assert out == p
        assert all(after is before for after, before in zip(out, p)), records.__name__


def test_adjust_validates_threshold():
    for records in RECORD_SHAPES:
        with pytest.raises(ValueError):
            adjust(records(("a", S)), 0.4)
        with pytest.raises(ValueError):
            adjust(records(("a", S)), 1.01)
        assert adjust(records(), 0.5) == []


@given(
    st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), stance_st), max_size=30),
    st.floats(0.5, 1.0),
)
def test_adjust_is_idempotent_and_majority_preserving(rows, gamma_min):
    stances = []
    for records in RECORD_SHAPES:
        p = records(*rows)
        once = adjust(p, gamma_min)
        assert adjust(once, gamma_min) == once
        # only the stance changes, and each record keeps its type
        assert [type(x) for x in once] == [type(x) for x in p]
        assert [x._replace(stance=S) for x in once] == [x._replace(stance=S) for x in p]
        for uid in {x.user_id for x in p}:
            before = [x.stance for x in p if x.user_id == uid]
            after = [x.stance for x in once if x.user_id == uid]
            if before.count(S) > before.count(O):
                assert after.count(S) >= before.count(S)
            elif before.count(O) > before.count(S):
                assert after.count(O) >= before.count(O)
            else:
                assert after == before
        stances.append([x.stance for x in once])
    assert stances[0] == stances[1]


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name]


READERS = ("read_predictions_tsv", "iter_predictions_tsv")


def test_one_scorer_one_adjust_and_prediction_rows_read_by_field():
    """Gold/stance pairs are scored only by ``evaluation.score_predictions``,
    the per-user rule lives only in ``evaluation.adjust``, and the CLI reads
    a predictions row by field name, never by position."""
    package = Path(tcm_stance.__file__).parent
    trees = {source.stem: ast.parse(source.read_text(encoding="utf-8"))
             for source in sorted(package.glob("*.py"))}
    scorer, = (node for node in trees["evaluation"].body
               if isinstance(node, ast.FunctionDef) and node.name == "score_predictions")
    assert sum(len(_calls(tree, "compute_metrics")) for tree in trees.values()) == 1
    assert len(_calls(scorer, "compute_metrics")) == 1
    assert not hasattr(evaluation, "majorities")

    offenders = []
    for func in ast.walk(trees["cli"]):
        if not isinstance(func, ast.FunctionDef):
            continue
        # names bound to a predictions reader's rows in this function
        rows = {target.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                and any(_calls(node.value, reader) for reader in READERS)
                for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(func):
            # only the split line, before it is a row, is indexed by position
            if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, int) and ast.unparse(node.value) != "parts"):
                offenders.append(f"{func.name}:{node.lineno}")
            # and no loop unpacks a row
            if (isinstance(node, (ast.For, ast.comprehension))
                    and isinstance(node.target, ast.Tuple)
                    and isinstance(node.iter, ast.Name) and node.iter.id in rows):
                offenders.append(f"{func.name}:{node.iter.lineno}")
    assert offenders == []


CV_CFG = TrainConfig(C=1.0, wi=0.9, seed=7)


def test_cross_validate_separable_corpus():
    dataset = separable_dataset()
    result = cross_validate(dataset, 20, CV_CFG, k=4)
    assert result.report.micro_f1 >= 0.95
    assert len(result.predictions) == len(dataset.documents)
    assert set(result.golds) == {d.tweet_id for d in dataset.documents}
    for p in result.predictions:
        assert p.tweet_id in result.golds


def test_cross_validate_report_matches_its_own_pairs():
    dataset = separable_dataset()
    result = cross_validate(dataset, 20, CV_CFG, k=4)
    pairs = [(result.golds[p.tweet_id], p.stance) for p in result.predictions]
    again = compute_metrics(pairs)
    assert again == result.report


def test_cross_validate_leaky_variant_runs():
    dataset = separable_dataset()
    result = cross_validate(dataset, 20, CV_CFG, k=4, leaky_selection=True)
    assert result.report.micro_f1 >= 0.95


def test_cross_validate_is_deterministic():
    dataset = separable_dataset()
    a = cross_validate(dataset, 20, CV_CFG, k=4)
    b = cross_validate(dataset, 20, CV_CFG, k=4)
    assert a.predictions == b.predictions
    assert a.report == b.report


def test_cv_and_sweep_keep_every_fit_in_fold_order():
    dataset = separable_dataset()
    cfg = replace(CV_CFG, seed=11)
    result = cross_validate(dataset, 20, cfg, k=4)
    assert result.fits == reference_cross_validate(dataset, 20, cfg, 4, 11).fits
    assert len(result.fits) == 4
    assert all(fit.final_violation < cfg.tolerance for fit in result.fits)
    wi_rows = sweep(dataset, "wi", [0.5, 1.0], feature_count=20, cfg=cfg, k=4)
    assert [[fit.wi for fit in row.fits] for row in wi_rows] == [[0.5] * 4, [1.0] * 4]
    gamma_rows = sweep(dataset, "gamma_min", [0.5, 1.0], feature_count=20, cfg=cfg, k=4)
    assert [row.fits for row in gamma_rows] == [result.fits] * 2


def test_fits_stopped_at_max_epochs_say_so():
    dataset = separable_dataset()
    capped = replace(CV_CFG, max_epochs=1)
    result = cross_validate(dataset, 20, capped, k=4)
    assert [fit.epochs for fit in result.fits] == [1] * 4
    assert any(not fit.final_violation < capped.tolerance for fit in result.fits)
    (row,) = sweep(dataset, "feature_count", [20], cfg=capped, k=4)
    assert row.fits == result.fits


def test_sweep_rows_come_back_sorted():
    dataset = separable_dataset()
    rows = sweep(dataset, "wi", [1.0, 0.5], feature_count=20, cfg=CV_CFG, k=4)
    assert [v for v, _ in rows] == [0.5, 1.0]
    rows = sweep(dataset, "feature_count", [8, 4], cfg=CV_CFG, k=4)
    assert [v for v, _ in rows] == [4.0, 8.0]


def test_sweep_gamma_reuses_one_cross_validation():
    dataset = separable_dataset()
    rows = sweep(dataset, "gamma_min", [1.0, 0.5], feature_count=20, cfg=CV_CFG, k=4)
    assert [v for v, _ in rows] == [0.5, 1.0]
    unadjusted = cross_validate(dataset, 20, CV_CFG, k=4)
    by_value = dict(rows)
    # the 1.0 row only confirms unanimous users, which cannot beat raw output
    assert by_value[1.0].micro_f1 <= by_value[0.5].micro_f1 + 1e-12
    assert by_value[1.0].micro_f1 == pytest.approx(unadjusted.report.micro_f1, abs=1e-12)


def noisy_dataset(n_docs: int = 48, vocab: int = 30, seed: int = 3):
    """Overlapping class vocabularies, so rows differ across K and wi."""
    rng = random.Random(seed)
    rows = []
    for i in range(n_docs):
        stance = S if i % 3 else O
        lean = range(0, 20) if stance is S else range(10, vocab)
        tokens = {f"w{rng.choice(lean)}" for _ in range(4)} | {f"w{rng.randrange(vocab)}"}
        rows.append((f"u{i % 12}", sorted(tokens), stance))
    return make_dataset(rows)


@pytest.mark.parametrize("leaky", [False, True])
def test_one_fold_plan_matches_a_fresh_cross_validation_per_setting(leaky):
    dataset = noisy_dataset()
    cfg = replace(CV_CFG, seed=11)
    common = dict(cfg=cfg, k=4, leaky_selection=leaky)
    k_values = [2, 5, 12, 1000]   # 1000 is above the vocabulary
    k_rows = sweep(dataset, "feature_count", k_values, **common)
    k_refs = [reference_cross_validate(dataset, v, cfg, 4, 11, leaky) for v in k_values]
    assert k_rows == [(float(v), ref.report) for v, ref in zip(k_values, k_refs)]
    # fits compare whole TrainMeta records: epochs and final_violation too
    assert [row.fits for row in k_rows] == [ref.fits for ref in k_refs]
    assert len({report.micro_f1 for _, report in k_rows}) > 1
    wi_values = [0.2, 0.6, 1.0]
    wi_rows = sweep(dataset, "wi", wi_values, feature_count=8, **common)
    wi_refs = [reference_cross_validate(dataset, 8, replace(cfg, wi=v), 4, 11, leaky)
               for v in wi_values]
    assert wi_rows == [(v, ref.report) for v, ref in zip(wi_values, wi_refs)]
    assert [row.fits for row in wi_rows] == [ref.fits for ref in wi_refs]
    result = cross_validate(dataset, 8, cfg, k=4, leaky_selection=leaky)
    reference = reference_cross_validate(dataset, 8, cfg, 4, 11, leaky)
    assert result.report == reference.report
    assert result.predictions == reference.predictions
    assert result.golds == reference.golds
    assert result.fits == reference.fits


@pytest.mark.parametrize("leaky", [False, True])
def test_gamma_rows_rescore_the_oracle_cross_validation(leaky):
    dataset = noisy_dataset()
    cfg = replace(CV_CFG, seed=11)
    gamma_values = [0.5, 0.6, 0.75, 0.9, 1.0]
    rows = sweep(dataset, "gamma_min", gamma_values, feature_count=8, cfg=cfg, k=4,
                 leaky_selection=leaky)
    reference = reference_cross_validate(dataset, 8, cfg, 4, 11, leaky)
    expected = [(v, compute_metrics([(reference.golds[p.tweet_id], p.stance)
                                     for p in adjust(reference.predictions, v)]))
                for v in gamma_values]
    assert rows == expected
    assert [row.fits for row in rows] == [reference.fits] * len(gamma_values)
    # the thresholds must matter, or the rows would not tell them apart
    assert len({report.micro_f1 for _, report in expected}) > 1


@st.composite
def fold_corpora(draw):
    """(dataset, k) with tied scores and terms that only one test fold holds."""
    k = draw(st.integers(2, 6))
    stances = [S] * draw(st.integers(k, 3 * k)) + [O] * draw(st.integers(k, 3 * k))
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 8)))]
    rows = []
    for i, stance in enumerate(stances):
        drawn = draw(st.lists(st.sampled_from(vocab), max_size=6))   # repeats allowed
        tokens = [t for w in drawn for t in (w, w + "'")]   # twin terms: every score is tied
        if draw(st.booleans()):
            tokens.append(f"only{i}")   # in this document only, so in one test fold
        rows.append((f"u{i}", tokens, stance))
    return make_dataset(rows), k


def _exact(ranking):
    return [(t.term, t.score.hex(), t.direction) for t in ranking]


@given(fold_corpora(), st.integers(1, 40), st.integers(0, 9))
def test_fold_plan_ranks_each_training_fold_as_select_features_would(corpus, max_k, seed):
    dataset, k = corpus   # max_k runs past the vocabulary of up to 8 twin pairs
    docs = dataset.documents
    plan = _fold_plan(dataset, max_k, k, seed, False)
    assert [(train_idx, test_idx) for train_idx, test_idx, _ in plan] == \
        stratified_kfold(dataset, k, seed)
    for train_idx, _, ranking in plan:
        training = LabeledDataset(tuple(docs[i] for i in train_idx))
        expected = select_features(collect_stats(training), max_k).terms
        assert ranking == expected
        assert _exact(ranking) == _exact(expected)


@pytest.mark.parametrize("k", [3, 5])
def test_a_fold_plan_counts_each_document_twice(k):
    """Once in the whole labeled set and once in its test fold, however many
    folds there are."""

    class CountedTokens(tuple):
        iterations = 0

        def __iter__(self):
            CountedTokens.iterations += 1
            return super().__iter__()

    plain = noisy_dataset(n_docs=60)
    docs = tuple(d._replace(tokens=CountedTokens(d.tokens)) for d in plain.documents)
    dataset = LabeledDataset(docs)
    _fold_plan(dataset, 8, k, 11, False)
    assert CountedTokens.iterations == 2 * len(docs)


def test_a_k_sweep_peaks_no_higher_than_one_cross_validation():
    """Settings run fold by fold and keep only their stances; a loop that
    kept every setting's Predictions to the end would peak about 30% higher
    here."""
    dataset = noisy_dataset(n_docs=600, vocab=40)
    k_values = [4, 8, 16, 32]
    cfg = replace(CV_CFG, max_epochs=2)  # the solver's memory does not grow with epochs
    cv_peak = peak_bytes(lambda: cross_validate(dataset, k_values[-1], cfg, k=5))
    sweep_peak = peak_bytes(lambda: sweep(dataset, "feature_count", k_values, cfg=cfg, k=5))
    assert sweep_peak <= 1.1 * cv_peak


def test_k_values_past_the_vocabulary_share_one_fit_per_fold(monkeypatch):
    dataset = noisy_dataset()
    vocab = max(len(ranking) for _, _, ranking in _fold_plan(dataset, 1000, 4, 7, False))
    values = [4, vocab + 1, 1000]
    separate = [cross_validate(dataset, count, CV_CFG, k=4) for count in values]
    calls = []
    real_train = evaluation.train

    def counting_train(data, cfg, n_features, **kwargs):
        calls.append(n_features)
        return real_train(data, cfg, n_features, **kwargs)

    monkeypatch.setattr(evaluation, "train", counting_train)
    rows = sweep(dataset, "feature_count", values, cfg=CV_CFG, k=4)
    assert len(calls) == 2 * 4  # K = 4, then one fit per fold for both larger values
    assert [(v, report) for v, report in rows] == [(v, r.report) for v, r in zip(values, separate)]
    assert [row.fits for row in rows] == [r.fits for r in separate]


def test_sweep_validates_inputs():
    dataset = separable_dataset(4, 1)
    with pytest.raises(ValueError):
        sweep(dataset, "temperature", [1.0])
    with pytest.raises(ValueError):
        sweep(dataset, "wi", [])
    with pytest.raises(ValueError):
        sweep(dataset, "wi", [0.0])
    with pytest.raises(ValueError):
        sweep(dataset, "gamma_min", [0.3])
    with pytest.raises(ValueError):
        sweep(dataset, "feature_count", [2.5])
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive integers"):
            sweep(dataset, "feature_count", [value])


def test_sweep_refuses_a_repeated_value():
    """The library holds to the rules of the command line: two equal values
    would give two identical rows sharing one label."""
    dataset = separable_dataset(4, 1)
    with pytest.raises(ValueError, match=r"^sweep values must be distinct: 0\.5 is given"):
        sweep(dataset, "wi", [0.5, 0.5])
    with pytest.raises(ValueError, match=r"^sweep values must be distinct: 5 is given"):
        sweep(dataset, "feature_count", [5, 5.0])
    with pytest.raises(ValueError, match=r"^wi must be in \(0, 1\]$"):
        sweep(dataset, "wi", [0.5, 2.0])


def test_metrics_csv_shape():
    report = compute_metrics([(S, S), (O, O), (S, O)])
    rows = metrics_csv_rows([(0.5, report), (3000, report)])
    assert rows[0] == METRICS_CSV_HEADER
    assert len(rows) == 5
    assert rows[1][:2] == ["0.5", "support"]
    assert rows[2][:2] == ["0.5", "oppose"]
    assert rows[3][0] == "3000"
    for row in rows[1:]:
        for cell in row[2:]:
            assert len(cell.split(".")[1]) == 4


def test_format_axis_value():
    assert format_axis_value(0.5) == "0.5"
    assert format_axis_value(3000.0) == "3000"
    assert format_axis_value(7) == "7"
    assert format_axis_value("pre") == "pre"


def test_distinct_sweep_values_print_distinct_axis_values():
    """Six significant digits would print the three gamma values all as 0.5
    and the two wi values both as 0.123457."""
    gamma = parse_sweep_values("0.5..0.5000001:0.00000005")
    wi = parse_sweep_values("0.1234567,0.1234568")
    assert [format_axis_value(v) for v in gamma] == ["0.5", "0.50000005", "0.5000001"]
    assert [format_axis_value(v) for v in wi] == ["0.1234567", "0.1234568"]
