"""The commands after training: predict, adjust and report-timeseries,
byte for byte against list pipelines over per-row objects (oracles.py)."""

from __future__ import annotations

import csv
import io
import json
import random
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_doc, peak_bytes
from oracles import (
    reference_adjust,
    reference_predict,
    reference_read_predictions,
    reference_timeseries,
)
from tcm_stance import reports
from tcm_stance.cli import main
from tcm_stance.corpus import format_timestamp
from tcm_stance.features import FeatureSet, SelectedTerm, save_feature_set
from tcm_stance.preprocess import read_documents, write_documents
from tcm_stance.stance import Stance
from tcm_stance.svm import Model, TrainMeta, save_model

_VOCAB = ("中医", "针灸", "经络", "穴位")
_OUTSIDE = ("骗局", "外")
# values whose sums land on 0.0 and -0.0, margins that print as 0, and
# magnitudes whose sum depends on the order of the additions
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25, -0.75, 1e-7, -1e-7, 3.0, 1e16, -1e16]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


def _write_model(d: Path, terms, weights, digest: str | None = None) -> None:
    """features.tsv over ``terms`` and model.txt with ``weights`` (bias last)."""
    fs = FeatureSet(tuple(SelectedTerm(t, 1.0, Stance.SUPPORTING) for t in terms))
    save_feature_set(d / "features.tsv", fs)
    meta = TrainMeta(1.0, 0.9, 42, 1, 0.0)
    save_model(d / "model.txt", Model(tuple(weights), digest or fs.digest(), meta))


def _predict(d: Path, out: str) -> int:
    return main(["predict", "--docs", str(d / "docs.jsonl"), "--model", str(d / "model.txt"),
                 "--features", str(d / "features.tsv"), "--out", str(d / out)])


def _write_docs(d: Path, token_lists) -> None:
    write_documents(d / "docs.jsonl", (
        make_doc(f"t{i}", f"u{i % 3}", tokens, created_at=f"2013-05-17T12:00:{i % 60:02d}")
        for i, tokens in enumerate(token_lists)))


@given(
    n_terms=st.integers(1, len(_VOCAB)),
    weights=st.lists(_WEIGHTS, min_size=len(_VOCAB) + 1, max_size=len(_VOCAB) + 1),
    token_lists=st.lists(st.lists(st.sampled_from(_VOCAB + _OUTSIDE), max_size=6), max_size=6),
)
@example(n_terms=1, weights=[0.5, 0, 0, 0, -0.0], token_lists=[[], ["外"]])  # bias only, -0.0
@example(n_terms=1, weights=[-0.5, 0, 0, 0, 0.5], token_lists=[["中医", "中医"]])  # exactly 0.0
# added in column order the margin is 0.0; in token order it would be 1.0
@example(n_terms=3, weights=[1.0, 1e16, -1e16, 0, 0.0], token_lists=[["经络", "针灸", "中医"]])
def test_predict_matches_the_reference_pipeline(n_terms, weights, token_lists):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        _write_model(d, _VOCAB[:n_terms], [*weights[:n_terms], weights[-1]])
        _write_docs(d, token_lists)
        assert _predict(d, "new.tsv") == 0
        reference_predict(d / "docs.jsonl", d / "model.txt", d / "features.tsv", d / "ref.tsv")
        assert (d / "new.tsv").read_bytes() == (d / "ref.tsv").read_bytes()


@pytest.mark.parametrize("fault", ["digest", "index range", "bad document"])
def test_predict_refuses_as_the_reference_does_and_writes_nothing(tmp_path, capsys, fault):
    terms, weights = _VOCAB, [0.5, -0.25, 1.0, -1.0, 0.125]
    if fault == "digest":
        _write_model(tmp_path, terms, weights, digest="0" * 64)
    elif fault == "index range":
        # a model one weight short of its features: the last term is column 3
        fs = FeatureSet(tuple(SelectedTerm(t, 1.0, Stance.SUPPORTING) for t in terms))
        _write_model(tmp_path, terms[:3], weights[:3] + weights[-1:], digest=fs.digest())
        save_feature_set(tmp_path / "features.tsv", fs)
    else:
        _write_model(tmp_path, terms, weights)
    _write_docs(tmp_path, [["中医"], ["穴位", "外"], ["经络"]])
    if fault == "bad document":
        lines = (tmp_path / "docs.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace('"tokens":["经络"]', '"tokens":["经络",""]')
        (tmp_path / "docs.jsonl").write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError) as refused:
        reference_predict(tmp_path / "docs.jsonl", tmp_path / "model.txt",
                          tmp_path / "features.tsv", tmp_path / "ref.tsv")
    capsys.readouterr()
    assert _predict(tmp_path, "new.tsv") == 1
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    if fault == "bad document":
        assert "docs.jsonl:3: " in str(refused.value)
    assert not (tmp_path / "new.tsv").exists()
    assert not (tmp_path / "ref.tsv").exists()


# JSON texts of a "tokens" value: not a list, non-string tokens (hashable
# and not), and an empty token
@pytest.mark.parametrize("tokens", ['"x"', "[1]", "[null]", "[true]", '[""]', '[["x"]]', "[{}]"])
def test_a_malformed_token_list_is_refused_with_its_line(tmp_path, capsys, tokens):
    _write_model(tmp_path, _VOCAB, [0.5, -0.25, 1.0, -1.0, 0.125])
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"tweet_id":"t1","user_id":"u1","created_at":"2013-05-17T12:00:00",'
                    f'"tokens":{tokens}}}\n'
                    + json.dumps({"tweet_id": "t2", "user_id": "u1",
                                  "created_at": "2013-05-17T12:00:00", "tokens": ["中医"]}) + "\n",
                    encoding="utf-8")
    message = f"{docs}:1: tokens must be a list of non-empty strings"
    with pytest.raises(ValueError) as refused:
        read_documents(docs)
    assert str(refused.value) == message
    assert _predict(tmp_path, "preds.tsv") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "preds.tsv").exists()


def test_predict_holds_one_output_line_per_document(tmp_path):
    """5,000 documents of ten tokens peak at about 0.56 MB on CPython 3.11:
    about 0.3 MB of argument parsing and I/O buffers plus about 55 bytes per
    encoded output line.  Holding a Document and a row per document, as
    a list pipeline does, peaks at about 2.3 MB."""
    rng = random.Random(0)
    vocab = [f"词{i:02d}" for i in range(50)]
    _write_model(tmp_path, vocab[:20], [rng.uniform(-1, 1) for _ in range(21)])
    n = 5000
    start = datetime(2013, 1, 1)
    write_documents(tmp_path / "docs.jsonl", (
        make_doc(f"t{i:05d}", f"user{i % 20:02d}", rng.choices(vocab, k=10),
                 created_at=format_timestamp(start + timedelta(minutes=i)))
        for i in range(n)))
    assert peak_bytes(lambda: _predict(tmp_path, "preds.tsv")) < 160 * n


_USERS = ("u1", "u2", "u3")
# finite margins only: a non-finite one is refused (tested below)
_MARGIN_TEXTS = st.one_of(
    st.sampled_from(["1e-7", "-0", "-1e-7", "0.5", "-2.25", "3", "0.0000005", "1e308"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_ROWS = st.lists(st.tuples(
    st.sampled_from(_USERS),
    st.sampled_from(list(Stance)),
    st.datetimes(min_value=datetime(2012, 1, 1), max_value=datetime(2014, 12, 31, 23, 59, 59)),
    st.booleans(),  # zero-padded timestamp or not
    _MARGIN_TEXTS,
), max_size=12)


def _write_predictions(path: Path, rows) -> None:
    lines = []
    for i, (user_id, stance, ts, padded, margin) in enumerate(rows):
        when = (ts.isoformat(timespec="seconds") if padded else
                f"{ts.year}-{ts.month}-{ts.day}T{ts.hour}:{ts.minute}:{ts.second}")
        lines.append(f"t{i}\t{user_id}\t{when}\t{stance.wire}\t{margin}\n")
    path.write_text("".join(lines), encoding="utf-8")


def _reference_timeseries(path: Path, granularity: str) -> tuple[bytes, bytes]:
    """CSV and SVG bytes of the report over the fully read rows, bucketed
    by their parsed times."""
    rows = reference_read_predictions(path)
    buckets = [reports.TimeBucket(*bucket) for bucket in reference_timeseries(
        [(ts, stance) for _, _, ts, stance, _ in rows], granularity)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(reports.timeseries_csv_rows(buckets))
    return (buf.getvalue().encode("utf-8"),
            reports.timeseries_chart(buckets, granularity).encode("utf-8"))


# 2/3 and 3/4 are the shares of users with two of three or three of four
# rows; 0.5 leaves a tied user alone
@given(rows=_ROWS, gamma_min=st.sampled_from([0.5, 0.6, 2 / 3, 0.75, 1.0]))
@example(rows=[("u1", Stance.SUPPORTING, datetime(2013, 1, 2, 3, 4, 5), False, "1e-7"),
               ("u1", Stance.OPPOSING, datetime(2013, 2, 2, 3, 4, 5), True, "-0"),
               ("u2", Stance.OPPOSING, datetime(2013, 2, 2, 3, 4, 5), True, "-0"),
               ("u2", Stance.OPPOSING, datetime(2013, 4, 2, 3, 4, 5), False, "0.5"),
               ("u2", Stance.SUPPORTING, datetime(2013, 4, 2, 3, 4, 5), False, "0.5")],
         gamma_min=2 / 3)
def test_adjust_and_timeseries_match_the_reference_pipeline(rows, gamma_min):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        _write_predictions(d / "preds.tsv", rows)
        assert main(["adjust", "--predictions", str(d / "preds.tsv"), "--out", str(d / "new.tsv"),
                     "--gamma-min", repr(gamma_min)]) == 0
        reference_adjust(d / "preds.tsv", d / "ref.tsv", gamma_min)
        assert (d / "new.tsv").read_bytes() == (d / "ref.tsv").read_bytes()
        for granularity in reports.GRANULARITIES:
            assert main(["report-timeseries", "--predictions", str(d / "preds.tsv"),
                         "--granularity", granularity, "--out", str(d / "ts.csv"),
                         "--svg", str(d / "ts.svg")]) == 0
            csv_bytes, svg_bytes = _reference_timeseries(d / "preds.tsv", granularity)
            assert (d / "ts.csv").read_bytes() == csv_bytes
            assert (d / "ts.svg").read_bytes() == svg_bytes


@pytest.mark.parametrize("tweet_id, user_id, text", [
    ("t9", "", "missing or empty user_id"),
    ("", "u1", "missing or empty tweet_id"),
    ("t9", "u\r1", "user_id contains a tab, a line break or a lone surrogate"),
    ("t\r9", "u1", "tweet_id contains a tab, a line break or a lone surrogate"),
], ids=["empty-user", "empty-tweet", "cr-user", "cr-tweet"])
def test_adjust_refuses_an_id_that_breaks_the_documents_id_rule(tmp_path, capsys, tweet_id,
                                                               user_id, text):
    path = tmp_path / "preds.tsv"
    _write_predictions(path, [("u1", Stance.SUPPORTING, datetime(2013, 1, 2), True, "0.5")] * 2)
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{tweet_id}\t{user_id}\t2013-01-02T00:00:00\toppose\t-0.5\n")
    assert main(["adjust", "--predictions", str(path), "--out", str(tmp_path / "out"),
                 "--gamma-min", "0.6"]) == 1
    assert capsys.readouterr().err == f"error: {path}:3: {text}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["adjust", "report-timeseries"])
def test_a_bad_predictions_line_is_refused_with_no_output(tmp_path, capsys, command):
    path = tmp_path / "preds.tsv"
    _write_predictions(path, [("u1", Stance.SUPPORTING, datetime(2013, 1, 2), True, "0.5")] * 2)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("t9\tu1\t2013-01-02T00:00:00\tsupport\n")
    with pytest.raises(ValueError) as refused:
        reference_read_predictions(path)
    capsys.readouterr()
    assert main([command, "--predictions", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    assert str(refused.value) == f"{path}:3: expected 5 tab-separated fields"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["adjust", "report-timeseries"])
@pytest.mark.parametrize("margin", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_a_non_finite_margin_is_refused_with_no_output(tmp_path, capsys, command, margin):
    path = tmp_path / "preds.tsv"
    _write_predictions(path, [("u1", Stance.SUPPORTING, datetime(2013, 1, 2), True, "0.5"),
                              ("u1", Stance.OPPOSING, datetime(2013, 1, 3), True, margin)])
    with pytest.raises(ValueError) as refused:
        reference_read_predictions(path)
    assert str(refused.value) == f"{path}:2: margin must be a finite number"
    capsys.readouterr()
    assert main([command, "--predictions", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    assert not (tmp_path / "out").exists()
