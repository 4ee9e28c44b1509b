"""Chi-square scoring, feature selection, sparse vectorization."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import make_dataset, make_doc
from tcm_stance.features import (
    FeatureSet,
    SelectedTerm,
    SparseVector,
    TermStats,
    chi_square,
    collect_stats,
    feature_set_to_tsv,
    fold_rankings,
    load_feature_set,
    save_feature_set,
    select_features,
    vectorize,
)
from tcm_stance.stance import Stance
from tcm_stance.supervision import LabeledDataset


def test_chi_square_frozen_value():
    stats = TermStats("t", 4, 2, 0, 2, 2)
    assert chi_square(stats) == pytest.approx(4.0, abs=1e-12)
    assert oracles.chi2_from_counts(2, 0, 2, 2) == pytest.approx(4.0, abs=1e-12)


def test_chi_square_zero_under_independence():
    assert chi_square(TermStats("t", 4, 1, 1, 2, 2)) == pytest.approx(0.0, abs=1e-12)


def test_chi_square_zero_when_term_is_everywhere():
    assert chi_square(TermStats("t", 4, 2, 2, 2, 2)) == 0.0


def test_chi_square_preconditions():
    with pytest.raises(ValueError):
        chi_square(TermStats("t", 4, 0, 0, 0, 4))  # no supporting docs at all
    with pytest.raises(ValueError):
        chi_square(TermStats("t", 4, 0, 0, 2, 2))  # term absent everywhere


@given(st.data())
def test_chi_square_matches_contingency_table(data):
    n_pos = data.draw(st.integers(1, 20))
    n_neg = data.draw(st.integers(1, 20))
    df_pos = data.draw(st.integers(0, n_pos))
    df_neg = data.draw(st.integers(0, n_neg))
    if df_pos + df_neg == 0:
        df_pos = 1
    stats = TermStats("t", n_pos + n_neg, df_pos, df_neg, n_pos, n_neg)
    expected = oracles.chi2_from_counts(df_pos, df_neg, n_pos, n_neg)
    assert chi_square(stats) == pytest.approx(expected, abs=1e-9)


@given(st.integers(1, 15), st.integers(1, 15), st.data())
def test_chi_square_is_class_symmetric(n_pos, n_neg, data):
    df_pos = data.draw(st.integers(0, n_pos))
    df_neg = data.draw(st.integers(0, n_neg))
    if df_pos + df_neg == 0:
        df_neg = 1
    n = n_pos + n_neg
    left = chi_square(TermStats("t", n, df_pos, df_neg, n_pos, n_neg))
    right = chi_square(TermStats("t", n, df_neg, df_pos, n_neg, n_pos))
    assert left == pytest.approx(right, abs=1e-9)


def test_collect_stats_counts_presence_not_frequency():
    dataset = make_dataset([
        ("u1", ("中医", "好", "好"), Stance.SUPPORTING),
        ("u2", ("中医", "差"), Stance.OPPOSING),
        ("u3", ("好",), Stance.SUPPORTING),
    ])
    stats = {s.term: s for s in collect_stats(dataset)}
    assert stats["中医"] == TermStats("中医", 3, 1, 1, 2, 1)
    assert stats["好"] == TermStats("好", 3, 2, 0, 2, 1)
    assert stats["差"] == TermStats("差", 3, 0, 1, 2, 1)
    assert set(stats) == {"中医", "好", "差"}


def test_collect_stats_requires_both_classes():
    dataset = make_dataset([("u1", ("中医",), Stance.SUPPORTING)])
    with pytest.raises(ValueError):
        collect_stats(dataset)


def _stats_corpus():
    # "a" appears in every supporting doc only, "b" is weaker, "z" and "y"
    # share identical counts so they tie on score
    return [
        TermStats("a", 10, 5, 0, 5, 5),
        TermStats("b", 10, 4, 1, 5, 5),
        TermStats("z", 10, 1, 4, 5, 5),
        TermStats("y", 10, 1, 4, 5, 5),
        TermStats("m", 10, 2, 2, 5, 5),
    ]


def test_select_features_orders_by_score_then_term():
    fs = select_features(_stats_corpus(), 5)
    assert [t.term for t in fs.terms] == ["a", "b", "y", "z", "m"]
    scores = [t.score for t in fs.terms]
    assert scores == sorted(scores, reverse=True)
    assert fs.terms[0].score == pytest.approx(10.0)


def test_select_features_assigns_directions():
    fs = select_features(_stats_corpus(), 5)
    by_term = {t.term: t.direction for t in fs.terms}
    assert by_term["a"] is Stance.SUPPORTING
    assert by_term["b"] is Stance.SUPPORTING
    assert by_term["z"] is Stance.OPPOSING
    assert by_term["m"] is Stance.OPPOSING  # exact independence is not support


def _sorted_selection(stats, k):
    """select_features as a full sort by (-score, term), stable for repeats."""
    scored = sorted(stats, key=lambda s: (-chi_square(s), s.term))
    return FeatureSet(tuple(
        SelectedTerm(s.term, chi_square(s),
                     Stance.SUPPORTING if s.df_pos * s.n_total > (s.df_pos + s.df_neg) * s.n_pos
                     else Stance.OPPOSING)
        for s in scored[:k]
    ))


@st.composite
def term_stats(draw):
    n_pos, n_neg = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    terms = draw(st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=15))
    stats = []
    for term in terms:   # repeated terms and equal counts give tied keys
        df_pos, df_neg = draw(st.integers(0, n_pos)), draw(st.integers(0, n_neg))
        if df_pos + df_neg == 0:
            df_pos = 1
        stats.append(TermStats(term, n_pos + n_neg, df_pos, df_neg, n_pos, n_neg))
    return stats


def _outcome(select, stats, k):
    try:
        return select(stats, k)
    except ValueError as exc:   # both terms of a repeated pair chosen
        return str(exc)


@given(term_stats(), st.integers(1, 20))
def test_select_features_heap_equals_a_full_sort(stats, k):
    assert _outcome(select_features, stats, k) == _outcome(_sorted_selection, stats, k)


def test_select_features_clamps_k():
    assert len(select_features(_stats_corpus(), 2)) == 2
    assert len(select_features(_stats_corpus(), 500)) == 5
    with pytest.raises(ValueError):
        select_features(_stats_corpus(), 0)


def test_feature_set_index_and_duplicates():
    fs = select_features(_stats_corpus(), 3)
    assert fs.index == {"a": 0, "b": 1, "y": 2}
    same = FeatureSet(fs.terms)
    object.__setattr__(same, "index", {})
    assert same == fs and hash(same) == hash(fs)
    assert repr(fs) == f"FeatureSet(terms={fs.terms!r})"
    with pytest.raises(ValueError):
        FeatureSet((
            SelectedTerm("x", 1.0, Stance.SUPPORTING),
            SelectedTerm("x", 0.5, Stance.OPPOSING),
        ))


def test_vectorize_is_sorted_binary_presence():
    fs = select_features(_stats_corpus(), 5)
    doc_tokens = ("m", "a", "致谢", "a", "y")
    from conftest import make_doc

    vec = vectorize(make_doc("t", "u", doc_tokens), fs)
    assert vec.indices == (0, 2, 4)
    assert vec.values == (1.0, 1.0, 1.0)
    assert vectorize(make_doc("t", "u", ()), fs).indices == ()


def test_sparse_vector_validation():
    SparseVector((0, 3, 7))
    with pytest.raises(ValueError):
        SparseVector((3, 0))
    with pytest.raises(ValueError):
        SparseVector((0, 0))
    with pytest.raises(ValueError):
        SparseVector((-1,))
    with pytest.raises(ValueError):
        SparseVector((0, 1), (1.0,))


@pytest.mark.parametrize("indices, message", [
    ((3, 0), "indices must be strictly increasing"),
    ((0, 2, 2), "indices must be strictly increasing"),
    ((-2, -1), "indices must be non-negative"),
    ((-1,), "indices must be non-negative"),
])
def test_sparse_vector_errors_name_the_broken_rule(indices, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SparseVector(indices)


def test_digest_tracks_content():
    fs = select_features(_stats_corpus(), 3)
    same = select_features(_stats_corpus(), 3)
    fewer = select_features(_stats_corpus(), 2)
    assert fs.digest() == same.digest()
    assert fs.digest() != fewer.digest()
    assert len(fs.digest()) == 64


def test_feature_set_tsv_round_trip(tmp_path):
    fs = select_features(_stats_corpus(), 4)
    path = tmp_path / "features.tsv"
    save_feature_set(path, fs)
    loaded = load_feature_set(path)
    assert [t.term for t in loaded.terms] == [t.term for t in fs.terms]
    assert [t.direction for t in loaded.terms] == [t.direction for t in fs.terms]
    # scores are stored at fixed precision, so the digest survives the trip
    assert loaded.digest() == fs.digest()
    save_feature_set(tmp_path / "again.tsv", loaded)
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


def test_feature_set_tsv_shape():
    fs = select_features(_stats_corpus(), 2)
    lines = feature_set_to_tsv(fs).splitlines()
    assert lines[0].split("\t") == ["1", "a", "10.000000", "support"]
    assert lines[1].split("\t")[1] == "b"


@pytest.mark.parametrize("text", [
    "1\ta\tten\tsupport\n",
    "1\ta\t1.0\tneutral\n",
    "2\ta\t1.0\tsupport\n",
    "1\ta\t1.0\n",
])
def test_load_feature_set_rejects_malformed(tmp_path, text):
    path = tmp_path / "features.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        load_feature_set(path)


def test_load_feature_set_names_the_line_of_a_repeated_term(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("1\t疗效\t2.0\tsupport\n2\t骗局\t1.5\toppose\n3\t疗效\t1.0\toppose\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: duplicate term '疗效'") + "$"):
        load_feature_set(path)


@pytest.mark.parametrize("term", ["a\tb", "a\nb", "a\rb", "", "a\ud800b"],
                         ids=["tab", "lf", "cr", "empty", "lone-surrogate"])
def test_feature_set_refuses_a_term_its_tsv_cannot_hold(tmp_path, term):
    with pytest.raises(ValueError, match=re.escape(
            f"term {term!r} is empty or contains a tab, a line break or a lone surrogate") + "$"):
        save_feature_set(tmp_path / "features.tsv",
                         FeatureSet((SelectedTerm(term, 1.0, Stance.SUPPORTING),)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("term", ["", "a\rb"], ids=["empty", "cr"])
def test_load_feature_set_names_the_line_of_an_unsavable_term(tmp_path, term):
    path = tmp_path / "features.tsv"
    path.write_bytes(f"1\t疗效\t2.0\tsupport\n2\t{term}\t1.5\toppose\n".encode("utf-8"))
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: term {term!r} is empty")):
        load_feature_set(path)


def test_random_corpora_match_oracle_end_to_end():
    rng = random.Random(411)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(25):
        rows = []
        rows.append(("u0", tuple(rng.sample(vocab, 3)), Stance.SUPPORTING))
        rows.append(("u1", tuple(rng.sample(vocab, 3)), Stance.OPPOSING))
        for i in range(rng.randint(0, 12)):
            stance = rng.choice((Stance.SUPPORTING, Stance.OPPOSING))
            rows.append((f"u{i + 2}", tuple(rng.sample(vocab, rng.randint(1, 6))), stance))
        dataset = make_dataset(rows)
        for s in collect_stats(dataset):
            expected = oracles.chi2_from_counts(s.df_pos, s.df_neg, s.n_pos, s.n_neg)
            assert chi_square(s) == pytest.approx(expected, abs=1e-9)


def test_counting_rejects_an_unlabeled_document():
    docs = (
        make_doc("t1", "u1", ("x",), Stance.SUPPORTING),
        make_doc("t2", "u2", ("y",), Stance.OPPOSING),
        make_doc("t3", "u3", ("x", "z"), None),
    )
    with pytest.raises(ValueError, match="document t3 has no label"):
        LabeledDataset(docs)
    with pytest.raises(ValueError, match="dataset contains an unlabeled document"):
        fold_rankings(docs, [[0]], 3)
