"""End-to-end gates with hard numeric thresholds.

Each test prints one [PASS]/[FAIL] line through the capture-disabled fixture
so a full run doubles as a scoreboard.  Budgets are wall-clock seconds on an
ordinary desktop machine.
"""

from __future__ import annotations

import json
import random
import time
from datetime import datetime

import pytest

import oracles
from conftest import make_dataset, make_doc
from tcm_stance.cli import main
from tcm_stance.evaluation import (
    Prediction,
    adjust,
    compute_metrics,
    cross_validate,
    gamma_of,
    stratified_kfold,
    sweep,
)
from tcm_stance.corpus import load_tweets, split_retweets
from tcm_stance.features import (
    SparseVector,
    TermStats,
    chi_square,
    collect_stats,
    select_features,
    vectorize,
)
from tcm_stance.preprocess import preprocess_tweet, segment
from tcm_stance.resources import TermList, load_resources
from tcm_stance.stance import Stance
from tcm_stance.supervision import filter_topic, label_corpus
from tcm_stance.svm import TrainConfig, dual_objective, solve_dual
from tcm_stance.synth import SynthConfig, generate

S, O = Stance.SUPPORTING, Stance.OPPOSING


@pytest.fixture
def announce(capfd):
    def _announce(name: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f"  ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _announce


def test_chi_square_matches_the_contingency_oracle(announce):
    rng = random.Random(20260826)
    t0 = time.perf_counter()
    worst = 0.0
    terms_checked = 0
    for _ in range(200):
        vocab = [f"w{i}" for i in range(rng.randint(1, 30))]
        n_docs = rng.randint(2, 50)
        rows = []
        for i in range(n_docs):
            if i == 0:
                stance = S
            elif i == 1:
                stance = O
            else:
                stance = rng.choice((S, O))
            size = rng.randint(1, min(len(vocab), 8))
            rows.append((f"u{i}", tuple(rng.sample(vocab, size)), stance))
        dataset = make_dataset(rows)
        for stats in collect_stats(dataset):
            expected = oracles.chi2_from_counts(
                stats.df_pos, stats.df_neg, stats.n_pos, stats.n_neg
            )
            worst = max(worst, abs(chi_square(stats) - expected))
            terms_checked += 1
    elapsed = time.perf_counter() - t0
    announce(
        "chi-square equals the 2x2 contingency oracle",
        worst <= 1e-9 and elapsed < 5.0,
        f"{terms_checked} terms over 200 corpora, worst diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_solver_matches_closed_form_and_grid_search(announce):
    t0 = time.perf_counter()

    unit = solve_dual(
        [(SparseVector((0,), (1.0,)), 1), (SparseVector((0,), (-1.0,)), -1)],
        TrainConfig(C=1.0, wi=1.0, seed=1),
        1,
        fit_bias=False,
    )
    closed_form_ok = abs(unit.weights[0] - 1.0) <= 1e-3

    cfg = TrainConfig(C=0.03, wi=1.0, tolerance=1e-8, max_epochs=20000, seed=0)
    worst_gap = 0.0
    draws_beaten = 0
    for trial in range(50):
        rng = random.Random(1000 + trial)
        points = [[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(4)]
        labels = [1, 1, -1, -1]
        data = [
            (SparseVector((0, 1), (px, py)), y)
            for (px, py), y in zip(points, labels)
        ]
        sol = solve_dual(data, cfg, 2)
        trained = dual_objective(data, sol.alphas, cfg)
        grid = oracles.grid_min_dual(points, labels, cfg.C, cfg.wi, step=1e-3)
        worst_gap = max(worst_gap, abs(trained - grid))
        caps = [cfg.C * cfg.wi if y > 0 else cfg.C for _, y in data]
        for _ in range(20):
            draw = [rng.uniform(0.0, cap) for cap in caps]
            if dual_objective(data, draw, cfg) >= trained - 1e-9:
                draws_beaten += 1
    elapsed = time.perf_counter() - t0
    announce(
        "dual solver matches closed form and exhaustive grid search",
        closed_form_ok and worst_gap <= 1e-3 and draws_beaten == 1000 and elapsed < 60.0,
        f"worst grid gap {worst_gap:.2e}, {draws_beaten}/1000 draws dominated, {elapsed:.1f}s",
    )


# Shared heavyweight state: the default-size synthetic corpus and its
# cross-validation, built once and reused by the three end-to-end gates.
_STATE: dict = {}


def _pipeline_state() -> dict:
    if not _STATE:
        t0 = time.perf_counter()
        corpus = generate(SynthConfig())
        resources = load_resources()
        docs = []
        for tweet in split_retweets(corpus.tweets):
            doc = preprocess_tweet(tweet, resources)
            if doc is not None:
                docs.append(doc)
        on_topic = filter_topic(docs, resources.terminology)
        dataset, remainder = label_corpus(on_topic, corpus.users, resources.tag_lexicon)
        result = cross_validate(dataset, 3000, TrainConfig(), k=5)
        _STATE.update(
            dataset=dataset,
            remainder=remainder,
            result=result,
            build_seconds=time.perf_counter() - t0,
        )
    return _STATE


def test_the_pipeline_recovers_synthetic_stances(announce):
    state = _pipeline_state()
    result = state["result"]
    raw_micro = result.report.micro_f1
    adjusted = adjust(result.predictions, 0.5)
    pairs = [(result.golds[p.tweet_id], p.stance) for p in adjusted]
    adjusted_micro = compute_metrics(pairs).micro_f1
    elapsed = state["build_seconds"]
    announce(
        "default synthetic corpus is learned and adjustment helps",
        state["remainder"] == []
        and raw_micro >= 0.95
        and adjusted_micro >= raw_micro
        and adjusted_micro >= 0.97
        and elapsed < 120.0,
        f"micro {raw_micro:.4f} -> {adjusted_micro:.4f} adjusted, built in {elapsed:.0f}s",
    )


def test_class_weight_trades_minority_precision_for_recall(announce):
    state = _pipeline_state()
    t0 = time.perf_counter()
    values = [round(0.1 * i, 1) for i in range(1, 11)]
    rows = sweep(state["dataset"], "wi", values, feature_count=3000, k=5)
    elapsed = time.perf_counter() - t0
    by_value = {v: r for v, r in rows}
    low = by_value[0.1].per_class[O]
    high = by_value[1.0].per_class[O]
    announce(
        "wi endpoints move opposing precision and recall in opposite directions",
        list(by_value) == values
        and high.precision > low.precision
        and low.recall > high.recall
        and elapsed < 600.0,
        f"P {low.precision:.3f}->{high.precision:.3f}, "
        f"R {low.recall:.3f}->{high.recall:.3f}, {elapsed:.0f}s",
    )


def test_consistency_adjustment_never_hurts(announce):
    state = _pipeline_state()
    rows = dict(sweep(state["dataset"], "gamma_min", [0.5, 0.75, 1.0],
                      feature_count=3000, k=5))
    identity = adjust(state["result"].predictions, 1.0)
    unchanged = identity == list(state["result"].predictions)
    raw_micro = state["result"].report.micro_f1
    announce(
        "lowering gamma_min only helps and 1.0 is the identity",
        rows[0.5].micro_f1 >= rows[1.0].micro_f1
        and rows[1.0].micro_f1 == raw_micro
        and unchanged,
        f"micro at 0.5 {rows[0.5].micro_f1:.4f} vs at 1.0 {rows[1.0].micro_f1:.4f}",
    )


def test_randomized_invariants_hold(announce, tmp_path):
    rng = random.Random(31415)
    t0 = time.perf_counter()
    cases = 0

    for _ in range(150):
        a, b = rng.randint(0, 30), rng.randint(0, 30)
        if a + b == 0:
            a = 1
        assert 0.5 <= gamma_of(a, b) <= 1.0
        cases += 1

    for _ in range(150):
        preds = [
            Prediction(f"u{rng.randint(0, 5)}", f"t{i}", rng.choice((S, O)))
            for i in range(rng.randint(1, 40))
        ]
        gamma_min = rng.uniform(0.5, 1.0)
        once = adjust(preds, gamma_min)
        assert adjust(once, gamma_min) == once
        for uid in {p.user_id for p in preds}:
            before = [p.stance for p in preds if p.user_id == uid]
            after = [p.stance for p in once if p.user_id == uid]
            if before.count(S) == before.count(O):
                assert after == before
            else:
                majority = S if before.count(S) > before.count(O) else O
                assert after.count(majority) >= before.count(majority)
        cases += 1

    words = ["中医", "中医药", "爱好", "有效", "骗局", "经络", "穴位"]
    alphabet = "中医药爱好有效骗局经络穴位的了x，"
    for _ in range(150):
        lex = TermList.of(rng.sample(words, rng.randint(1, len(words))))
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        tokens = segment(text, lex)
        assert "".join(tokens) == text
        assert all(len(t) <= 8 for t in tokens)
        cases += 1

    stats = [TermStats(w, 10, rng.randint(1, 5), rng.randint(0, 5), 5, 5)
             for w in words]
    fs = select_features(stats, len(stats))
    for _ in range(150):
        tokens = tuple(rng.choice(words + ["别的", "话题"])
                       for _ in range(rng.randint(0, 10)))
        vec = vectorize(make_doc("t", "u", tokens), fs)
        assert list(vec.indices) == sorted(set(vec.indices))
        assert all(0 <= i < len(fs) for i in vec.indices)
        assert all(v == 1.0 for v in vec.values)
        assert len(vec.indices) == len({t for t in tokens if t in fs.index})
        cases += 1

    for _ in range(150):
        pairs = [(rng.choice((S, O)), rng.choice((S, O)))
                 for _ in range(rng.randint(1, 60))]
        report = compute_metrics(pairs)
        accuracy = sum(1 for g, p in pairs if g is p) / len(pairs)
        assert abs(report.micro_f1 - accuracy) < 1e-12
        for cls in (S, O):
            m = report.per_class[cls]
            assert 0.0 <= m.precision <= 1.0
            assert 0.0 <= m.recall <= 1.0
            assert 0.0 <= m.f1 <= 1.0
        cases += 1

    for _ in range(150):
        k = rng.randint(2, 5)
        n_pos, n_neg = rng.randint(k, 20), rng.randint(k, 20)
        rows = [(f"p{i}", ("经络", "有效"), S) for i in range(n_pos)]
        rows += [(f"n{i}", ("经络", "骗局"), O) for i in range(n_neg)]
        dataset = make_dataset(rows)
        splits = stratified_kfold(dataset, k, rng.randint(0, 999))
        seen = sorted(i for _, test in splits for i in test)
        assert seen == list(range(n_pos + n_neg))
        for train_idx, test_idx in splits:
            assert sorted(train_idx + test_idx) == list(range(n_pos + n_neg))
            pos = sum(1 for i in test_idx if dataset.documents[i].label is S)
            assert abs(pos - n_pos / k) < 1.0
        cases += 1

    base_ts = datetime(2013, 3, 1).isoformat()
    chains_path = tmp_path / "chains.jsonl"
    for _ in range(100):
        lines = []
        expected = 0
        for b in range(rng.randint(1, 5)):
            node = None
            depth = rng.randint(0, 6)
            for j in range(depth, -1, -1):
                node = {"id": f"r{b}x{j}", "user_id": f"u{j}", "text": f"tx{j}",
                        "created_at": base_ts, "retweet": node}
            lines.append(json.dumps(node) + "\n")
            expected += depth + 1
        chains_path.write_text("".join(lines), encoding="utf-8")
        records, _ = load_tweets(chains_path)
        tweets = split_retweets(records)
        assert len(tweets) == expected
        ids = [t.id for t in tweets]
        assert len(set(ids)) == len(ids)
        cases += 1

    elapsed = time.perf_counter() - t0
    announce(
        "randomized invariants hold",
        cases == 1000 and elapsed < 30.0,
        f"{cases} cases in {elapsed:.1f}s",
    )


def _run_chain(outdir) -> list:
    d = outdir / "d"
    files = {
        "tweets": d / "tweets.jsonl",
        "users": d / "users.jsonl",
        "gold": d / "gold.tsv",
        "docs": outdir / "docs.jsonl",
        "labeled": outdir / "labeled.jsonl",
        "rest": outdir / "rest.jsonl",
        "model": outdir / "m.txt",
        "features": outdir / "f.tsv",
        "cv": outdir / "cv.csv",
        "sweep": outdir / "sw.csv",
        "sweep_svg": outdir / "sw.svg",
        "preds": outdir / "p.tsv",
        "adjusted": outdir / "a.tsv",
        "ts": outdir / "ts.csv",
        "ts_svg": outdir / "ts.svg",
        "keywords": outdir / "kw.csv",
    }
    steps = [
        ["synth", "--out", str(d), "--users-pos", "20", "--users-neg", "8",
         "--tweets-min", "3", "--tweets-max", "6", "--tag-noise", "0.2",
         "--seed", "11"],
        ["prep", "--tweets", str(files["tweets"]), "--out", str(files["docs"])],
        ["label", "--docs", str(files["docs"]), "--users", str(files["users"]),
         "--out", str(files["labeled"]), "--remainder", str(files["rest"])],
        ["train", "--labeled", str(files["labeled"]), "--model-out", str(files["model"]),
         "--features-out", str(files["features"]), "--K", "80"],
        ["cv", "--labeled", str(files["labeled"]), "--out", str(files["cv"]),
         "--K", "80", "--k-folds", "3"],
        ["sweep", "--axis", "gamma", "--values", "0.5,0.75,1.0",
         "--labeled", str(files["labeled"]), "--out", str(files["sweep"]),
         "--svg", str(files["sweep_svg"]), "--K", "80", "--k-folds", "3"],
        ["predict", "--docs", str(files["rest"]), "--model", str(files["model"]),
         "--features", str(files["features"]), "--out", str(files["preds"])],
        ["adjust", "--predictions", str(files["preds"]), "--out", str(files["adjusted"]),
         "--gamma-min", "0.6"],
        ["report-timeseries", "--predictions", str(files["adjusted"]),
         "--out", str(files["ts"]), "--svg", str(files["ts_svg"])],
        ["report-keywords", "--features", str(files["features"]),
         "--out", str(files["keywords"])],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return [files[k] for k in sorted(files)]


def test_repeated_runs_are_byte_identical(announce, tmp_path):
    first = _run_chain(tmp_path / "one")
    second = _run_chain(tmp_path / "two")
    mismatched = [
        a.name for a, b in zip(first, second) if a.read_bytes() != b.read_bytes()
    ]
    announce(
        "two identical runs emit byte-identical artifacts",
        len(first) == 16 and mismatched == [],
        f"{len(first)} files compared" + (f", mismatched: {mismatched}" if mismatched else ""),
    )
