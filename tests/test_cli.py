"""Command line flow: every subcommand, exit codes, config precedence."""

from __future__ import annotations

import argparse
import codecs
import csv
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from datetime import datetime
from pathlib import Path

import pytest

from conftest import TS, make_doc
from tcm_stance.cli import (
    MAX_SWEEP_VALUES,
    _resolve_config,
    build_parser,
    main,
    parse_sweep_values,
    read_predictions_tsv,
    write_predictions_tsv,
)
from tcm_stance.config import PipelineConfig, build_config, parse_config_file
from tcm_stance.corpus import load_tweets, split_retweets
from tcm_stance.features import load_feature_set
from tcm_stance.preprocess import preprocess_tweet, read_documents, write_documents
from tcm_stance.stance import Stance
from tcm_stance.svm import load_model
from tcm_stance.synth import SynthConfig, generate, read_gold, write_corpus


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once on a small corpus; tests inspect the files."""
    root = tmp_path_factory.mktemp("flow")
    data = root / "data"
    paths = {
        "docs": root / "docs.jsonl",
        "labeled": root / "labeled.jsonl",
        "remainder": root / "rest.jsonl",
        "model": root / "model.txt",
        "features": root / "features.tsv",
        "cv": root / "cv.csv",
        "sweep": root / "sweep.csv",
        "sweep_svg": root / "sweep.svg",
        "preds": root / "preds.tsv",
        "adjusted": root / "adjusted.tsv",
        "ts": root / "timeseries.csv",
        "ts_svg": root / "timeseries.svg",
        "keywords": root / "keywords.csv",
    }
    steps = [
        ["synth", "--out", str(data), "--users-pos", "8", "--users-neg", "6",
         "--tweets-min", "4", "--tweets-max", "8", "--tag-noise", "0.25",
         "--seed", "5"],
        ["prep", "--tweets", str(data / "tweets.jsonl"), "--out", str(paths["docs"])],
        ["label", "--docs", str(paths["docs"]), "--users", str(data / "users.jsonl"),
         "--out", str(paths["labeled"]), "--remainder", str(paths["remainder"])],
        ["train", "--labeled", str(paths["labeled"]), "--model-out", str(paths["model"]),
         "--features-out", str(paths["features"]), "--K", "60"],
        ["cv", "--labeled", str(paths["labeled"]), "--out", str(paths["cv"]),
         "--K", "60", "--k-folds", "3"],
        ["sweep", "--axis", "gamma", "--values", "0.5,1.0",
         "--labeled", str(paths["labeled"]), "--out", str(paths["sweep"]),
         "--svg", str(paths["sweep_svg"]), "--K", "60", "--k-folds", "3"],
        ["predict", "--docs", str(paths["remainder"]), "--model", str(paths["model"]),
         "--features", str(paths["features"]), "--out", str(paths["preds"])],
        ["adjust", "--predictions", str(paths["preds"]), "--out", str(paths["adjusted"]),
         "--gamma-min", "0.6"],
        ["report-timeseries", "--predictions", str(paths["adjusted"]),
         "--out", str(paths["ts"]), "--svg", str(paths["ts_svg"])],
        ["report-keywords", "--features", str(paths["features"]),
         "--out", str(paths["keywords"]), "--top-n", "5"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    paths["data"] = data
    return paths


def test_pipeline_produces_all_files(pipeline):
    for key, path in pipeline.items():
        if key == "data":
            continue
        assert path.is_file(), key
        assert path.stat().st_size > 0, key


def test_prep_emits_readable_documents(pipeline):
    docs = read_documents(pipeline["docs"])
    assert docs
    assert all(d.tokens for d in docs)
    assert all(d.label is None for d in docs)


def test_prep_streams_the_documents_it_would_have_listed(pipeline, tmp_path, capsys):
    tweets = tmp_path / "tweets.jsonl"
    extra = [{"id": "ad", "text": "中医促销", "user_id": "u1", "created_at": "2013-05-17T12:00:00"},
             {"id": "empty", "text": "转发微博", "user_id": "u1",
              "created_at": "2013-05-17T12:00:00"}]
    tweets.write_bytes((pipeline["data"] / "tweets.jsonl").read_bytes() + b"{broken\n"
                       + "".join(json.dumps(o, ensure_ascii=False) + "\n" for o in extra)
                       .encode("utf-8"))
    records, skipped = load_tweets(tweets)
    split = split_retweets(records)
    resources = PipelineConfig().load_resources()
    docs = [d for d in (preprocess_tweet(t, resources) for t in split) if d is not None]
    listed = tmp_path / "listed.jsonl"
    write_documents(listed, docs)
    streamed = tmp_path / "streamed.jsonl"
    capsys.readouterr()
    assert main(["prep", "--tweets", str(tweets), "--out", str(streamed)]) == 0
    assert streamed.read_bytes() == listed.read_bytes()
    assert skipped == 1 and len(split) - len(docs) == 2
    assert capsys.readouterr().err == (
        f"prep: {len(records)} records ({skipped} malformed or duplicate lines skipped), "
        f"{len(split)} tweets after repost split, {len(docs)} documents kept, "
        f"{len(split) - len(docs)} dropped (ads or empty)\n"
    )


def test_prep_skips_an_invalid_utf8_line(tmp_path, capsys):
    tweets = tmp_path / "tweets.jsonl"
    good = [f'{{"id":"t{i}","user_id":"u1","text":"针灸有效","created_at":"2013-05-17T12:00:00"}}'
            .encode("utf-8") for i in range(3)]
    bad = b'{"id":"t9","user_id":"u1","text":"\xff\xfe","created_at":"2013-05-17T12:00:00"}'
    tweets.write_bytes(b"\n".join([good[0], bad, good[1], good[2]]) + b"\n")
    assert main(["prep", "--tweets", str(tweets), "--out", str(tmp_path / "docs.jsonl")]) == 0
    assert "(1 malformed or duplicate lines skipped)" in capsys.readouterr().err
    assert [d.tweet_id for d in read_documents(tmp_path / "docs.jsonl")] == ["t0", "t1", "t2"]


def test_synth_without_tuning_flags_writes_the_default_corpus(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
    expected = write_corpus(generate(SynthConfig()), tmp_path / "lib")
    for path in expected.values():
        assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes(), path.name


def test_a_year_below_1000_passes_every_stage(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--users-pos", "6", "--users-neg", "4",
                 "--tweets-min", "3", "--tweets-max", "5", "--seed", "7"]) == 0
    with open(data / "tweets.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"id":"old","user_id":"nobody","text":"中医针灸有效",'
                 '"created_at":"0999-01-01T00:00:00"}\n')
    steps = [
        ["prep", "--tweets", str(data / "tweets.jsonl"), "--out", str(tmp_path / "docs.jsonl")],
        ["label", "--docs", str(tmp_path / "docs.jsonl"), "--users", str(data / "users.jsonl"),
         "--out", str(tmp_path / "labeled.jsonl"), "--remainder", str(tmp_path / "rest.jsonl")],
        ["train", "--labeled", str(tmp_path / "labeled.jsonl"), "--K", "60",
         "--model-out", str(tmp_path / "model.txt"),
         "--features-out", str(tmp_path / "features.tsv")],
        ["predict", "--docs", str(tmp_path / "rest.jsonl"), "--model", str(tmp_path / "model.txt"),
         "--features", str(tmp_path / "features.tsv"), "--out", str(tmp_path / "preds.tsv")],
        ["adjust", "--predictions", str(tmp_path / "preds.tsv"),
         "--out", str(tmp_path / "adjusted.tsv")],
        ["report-timeseries", "--predictions", str(tmp_path / "adjusted.tsv"),
         "--out", str(tmp_path / "ts.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    lines = (tmp_path / "adjusted.tsv").read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.startswith("old\t")][0].startswith(
        "old\tnobody\t0999-01-01T00:00:00\t")
    periods = [row[0] for row in read_csv(tmp_path / "ts.csv")[1:]]
    assert periods[0] == "0999-01"
    assert periods == sorted(periods) and len(periods) == len(set(periods))


def test_label_splits_and_labels(pipeline, default_resources):
    from tcm_stance.corpus import load_users
    from tcm_stance.supervision import user_stance

    labeled = read_documents(pipeline["labeled"])
    remainder = read_documents(pipeline["remainder"])
    assert labeled and remainder
    assert all(d.label is not None for d in labeled)
    assert all(d.label is None for d in remainder)
    users, _ = load_users(pipeline["data"] / "users.jsonl")
    stances = {u.user_id: user_stance(u.tags, default_resources.tag_lexicon)
               for u in users}
    assert all(stances[d.user_id] is None for d in remainder)
    for d in labeled:
        assert d.label is stances[d.user_id]


def test_trained_model_ties_to_the_feature_file(pipeline):
    model = load_model(pipeline["model"])
    from tcm_stance.features import load_feature_set

    fs = load_feature_set(pipeline["features"])
    assert model.feature_set_digest == fs.digest()
    assert model.n_features == len(fs)


def _fit_commands(pipeline, out: Path) -> list[tuple[list[str], int]]:
    """train, cv and two sweeps on the pipeline's labeled file, each with the
    number of fits it runs."""
    labeled = str(pipeline["labeled"])
    common = ["--labeled", labeled, "--K", "60", "--k-folds", "3"]
    return [
        (["train", *common, "--model-out", str(out / "m.txt"),
          "--features-out", str(out / "f.tsv")], 1),
        (["cv", *common, "--out", str(out / "cv.csv")], 3),
        (["sweep", "--axis", "wi", "--values", "0.5,1.0", *common,
          "--out", str(out / "wi.csv")], 6),
        (["sweep", "--axis", "gamma", "--values", "0.5,1.0", *common,
          "--out", str(out / "gamma.csv")], 3),
    ]


def test_fits_stopped_at_max_epochs_are_reported(pipeline, tmp_path, monkeypatch, capsys):
    train_config = PipelineConfig.train_config
    monkeypatch.setattr(PipelineConfig, "train_config",
                        lambda self: replace(train_config(self), max_epochs=1))
    for argv, fits in _fit_commands(pipeline, tmp_path):
        capsys.readouterr()
        assert main(argv) == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning")]
        assert len(warnings) == 1, argv
        assert re.fullmatch(rf"warning: [1-9]\d* of {fits} fits stopped at max_epochs "
                            r"\(worst violation \d\.\d\de[+-]\d+\)", warnings[0]), warnings


def test_converged_fits_print_no_warning(pipeline, tmp_path, capsys):
    for argv, _fits in _fit_commands(pipeline, tmp_path):
        capsys.readouterr()
        assert main(argv) == 0
        assert "warning" not in capsys.readouterr().err, argv


def test_cv_csv_shape(pipeline):
    rows = read_csv(pipeline["cv"])
    assert rows[0] == ["axis_value", "class", "precision", "recall", "f1",
                       "micro_f1", "macro_f1"]
    assert [r[:2] for r in rows[1:]] == [["-", "support"], ["-", "oppose"]]


def test_sweep_csv_and_chart(pipeline):
    rows = read_csv(pipeline["sweep"])
    assert [r[0] for r in rows[1:]] == ["0.5", "0.5", "1", "1"]
    ET.fromstring(pipeline["sweep_svg"].read_text(encoding="utf-8"))


def test_predictions_cover_the_remainder(pipeline):
    remainder = read_documents(pipeline["remainder"])
    preds = read_predictions_tsv(pipeline["preds"])
    assert len(preds) == len(remainder)
    assert {p[0] for p in preds} == {d.tweet_id for d in remainder}
    assert all(isinstance(p[3], Stance) for p in preds)


def test_adjust_command_applies_library_semantics(pipeline):
    from tcm_stance.evaluation import Prediction, adjust

    raw = read_predictions_tsv(pipeline["preds"])
    adjusted = read_predictions_tsv(pipeline["adjusted"])
    expected = adjust([Prediction(uid, tid, stance) for tid, uid, _ts, stance, _m in raw],
                      0.6)
    assert [row[3] for row in adjusted] == [p.stance for p in expected]
    # everything except the stance column survives untouched
    assert [row[:3] for row in adjusted] == [row[:3] for row in raw]


def test_timeseries_totals_match_predictions(pipeline):
    preds = read_predictions_tsv(pipeline["adjusted"])
    rows = read_csv(pipeline["ts"])
    total = sum(int(r[1]) + int(r[2]) for r in rows[1:])
    assert total == len(preds)
    ET.fromstring(pipeline["ts_svg"].read_text(encoding="utf-8"))


def test_keywords_csv_is_bounded_by_top_n(pipeline):
    rows = read_csv(pipeline["keywords"])
    assert rows[0] == ["class", "rank", "term", "score"]
    assert 1 <= len(rows) - 1 <= 10


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--no-such-flag"])
    assert exc.value.code == 2


def test_runtime_errors_exit_1(tmp_path, capsys):
    rc = main(["prep", "--tweets", str(tmp_path / "absent.jsonl"),
               "--out", str(tmp_path / "docs.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_conflicting_user_labels_are_fatal(tmp_path, capsys):
    docs = [
        make_doc("t1", "u1", ("经络", "穴位"), Stance.SUPPORTING),
        make_doc("t2", "u1", ("经络", "拔罐"), Stance.OPPOSING),
        make_doc("t3", "u2", ("经络", "拔罐"), Stance.OPPOSING),
    ]
    path = tmp_path / "labeled.jsonl"
    write_documents(path, docs)
    rc = main(["train", "--labeled", str(path),
               "--model-out", str(tmp_path / "m.txt"),
               "--features-out", str(tmp_path / "f.tsv")])
    assert rc == 1
    assert "u1" in capsys.readouterr().err


def test_cv_print_echoes_csv(pipeline, capsys):
    out = pipeline["cv"].parent / "cv2.csv"
    rc = main(["cv", "--labeled", str(pipeline["labeled"]), "--out", str(out),
               "--K", "60", "--k-folds", "3", "--print"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "axis_value" in captured.out
    assert out.read_text(encoding="utf-8").startswith("axis_value")


def test_parse_sweep_values():
    assert parse_sweep_values("0.1..0.3:0.1", "wi") == pytest.approx([0.1, 0.2, 0.3])
    assert parse_sweep_values("0.5,1.0", "gamma_min") == [0.5, 1.0]
    assert parse_sweep_values("10,20", "feature_count") == [10.0, 20.0]
    assert parse_sweep_values("0.5..1.0:0.25", "gamma_min") == pytest.approx([0.5, 0.75, 1.0])


@pytest.mark.parametrize("spec", ["", "0.3..0.1:0.1", "0.1..0.3:0", "0.1..0.3:-0.1",
                                  "a,b", "1..2", "3000.5,10", "..:"])
def test_parse_sweep_values_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        parse_sweep_values(spec, "feature_count" if "3000" in spec else "wi")


@pytest.mark.parametrize("spec, axis", [("inf", "feature_count"), ("0.5,nan", "gamma_min"),
                                        ("-inf,1", "wi"), ("0.1..inf:0.1", "wi"),
                                        ("nan..1.0:0.1", "wi"), ("0.5..1.0:inf", "wi")])
def test_parse_sweep_values_rejects_non_finite_values(spec, axis):
    with pytest.raises(ValueError, match="must be finite numbers"):
        parse_sweep_values(spec, axis)


def test_parse_sweep_values_caps_the_range_length():
    assert len(parse_sweep_values(f"0..{MAX_SWEEP_VALUES - 1}:1", "feature_count")) == (
        MAX_SWEEP_VALUES)
    with pytest.raises(ValueError, match=f"more than {MAX_SWEEP_VALUES} values"):
        parse_sweep_values(f"0..{MAX_SWEEP_VALUES}:1", "feature_count")
    with pytest.raises(ValueError, match=f"more than {MAX_SWEEP_VALUES} values"):
        parse_sweep_values(f"0..{MAX_SWEEP_VALUES - 0.5}:1", "feature_count")


@pytest.mark.parametrize("spec", ["0.5..1.0:1e-12", "-1e308..1e308:1"])
def test_a_runaway_range_is_refused_before_any_list_is_built(spec):
    # in a child under an address-space cap, so that a parser that builds the
    # list ends in MemoryError instead of taking the machine's memory
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))\n"
            "from tcm_stance.cli import parse_sweep_values\n"
            "parse_sweep_values(sys.argv[1], 'wi')\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code, spec], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        f"ValueError: range {spec} gives more than {MAX_SWEEP_VALUES} values")


def test_sweep_command_reports_a_bad_range(tmp_path, capsys):
    rc = main(["sweep", "--axis", "wi", "--values", "0.1..inf:0.1",
               "--labeled", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "w.csv")])
    assert rc == 1
    assert capsys.readouterr().err.strip() == "error: range bounds and step must be finite numbers"
    assert not (tmp_path / "w.csv").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text(
        "# tuning\nwi = 0.5\nseed = 7\nleaky_selection = yes\n", encoding="utf-8"
    )
    values = parse_config_file(cfg_path)
    assert values == {"wi": "0.5", "seed": "7", "leaky_selection": "yes"}
    cfg = build_config(values, {"wi": 0.7, "K": None})
    assert cfg.wi == 0.7
    assert cfg.seed == 7
    assert cfg.leaky_selection is True
    assert cfg.K == 3000
    assert cfg.gamma_min == 0.5


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text("svm_cost = 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1"):
        parse_config_file(cfg_path)
    cfg_path.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_file(cfg_path)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(K=0)
    with pytest.raises(ValueError):
        PipelineConfig(wi=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(gamma_min=0.4)
    with pytest.raises(ValueError):
        PipelineConfig(k_folds=1)
    with pytest.raises(ValueError, match=r"^C must be positive$"):
        PipelineConfig(C=0)
    with pytest.raises(ValueError, match=r"^wi must be in \(0, 1\]$"):
        PipelineConfig(wi=1.5)


def test_a_config_value_that_does_not_parse_names_its_key(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"^config key 'K': invalid literal for int"):
        build_config({"K": "abc"})
    with pytest.raises(ValueError, match=r"^config key 'leaky_selection': not a boolean"):
        build_config({"leaky_selection": "maybe"})
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text("K = abc\n", encoding="utf-8")
    rc = main(["train", "--labeled", str(tmp_path / "absent.jsonl"),
               "--model-out", str(tmp_path / "m.txt"), "--features-out", str(tmp_path / "f.tsv"),
               "--config", str(cfg_path)])
    assert rc == 1
    assert "error: config key 'K':" in capsys.readouterr().err


def test_config_file_ignores_a_leading_byte_order_mark(tmp_path):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text("\ufeffK = 10\nseed = 3\n", encoding="utf-8")
    assert parse_config_file(cfg_path) == {"K": "10", "seed": "3"}


def test_config_file_with_invalid_utf8_names_the_file_and_offset(tmp_path, capsys):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_bytes(b"K = 1\xff0\n")
    with pytest.raises(ValueError, match=r"pipeline\.cfg: not valid UTF-8 at byte offset 5$"):
        parse_config_file(cfg_path)
    cfg_path.write_bytes(b"\xef\xbb\xbfK = 1\xff0\n")  # the offset counts the BOM
    with pytest.raises(ValueError, match=r"pipeline\.cfg: not valid UTF-8 at byte offset 8$"):
        parse_config_file(cfg_path)
    rc = main(["adjust", "--predictions", str(tmp_path / "absent.tsv"),
               "--out", str(tmp_path / "out.tsv"), "--config", str(cfg_path)])
    assert rc == 1
    assert f"error: {cfg_path}: not valid UTF-8 at byte offset 8" in capsys.readouterr().err


def test_config_file_rejects_a_repeated_key(tmp_path):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text("K = 10\n# comment\nseed = 3\nK = 20\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=r"pipeline\.cfg:4: config key 'K' already set on line 1$"):
        parse_config_file(cfg_path)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def _non_default(f, tmp_path) -> object:
    """A valid value of field f other than its default."""
    if isinstance(f.default, bool):
        return not f.default
    if isinstance(f.default, int):
        return f.default + 1
    if isinstance(f.default, float):
        return (f.default + 1) / 2 if f.default < 1 else f.default / 2
    return tmp_path / f"my {f.name} #1.txt"


@pytest.mark.parametrize("f", fields(PipelineConfig), ids=lambda f: f.name)
def test_every_setting_is_a_config_key_and_a_flag(f, tmp_path):
    value = _non_default(f, tmp_path)
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text(f"{f.name} = {value}\n", encoding="utf-8")
    flag = ["--" + f.name.replace("_", "-")]
    if not isinstance(value, bool):
        flag.append(str(value))
    base = ["cv", "--labeled", "in.jsonl", "--out", "out.csv"]
    from_file = _resolve_config(build_parser().parse_args(base + ["--config", str(cfg_path)]))
    from_flag = _resolve_config(build_parser().parse_args(base + flag))
    assert getattr(from_file, f.name) == value
    assert from_file == from_flag != PipelineConfig()


def test_every_subcommand_prints_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # no line wrap inside a long default path
    for f in fields(PipelineConfig):  # a % in a default must not break the help text
        if isinstance(f.default, Path):
            monkeypatch.setattr(f, "default", f.default.with_name("100%_" + f.default.name))
    for name in _subcommands():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0, name
        out = capsys.readouterr().out
        if "--K" in out:
            assert "(default 3000)" in out and "100%_" in out, name


def test_predictions_tsv_round_trip(tmp_path):
    rows = [
        ("t1", "u1", datetime(2013, 2, 3, 4, 5, 6), Stance.SUPPORTING, 1.25),
        ("t2", "u2", datetime(2013, 3, 4, 5, 6, 7), Stance.OPPOSING, -0.333333),
    ]
    path = tmp_path / "preds.tsv"
    write_predictions_tsv(path, rows)
    back = read_predictions_tsv(path)
    assert back == rows
    text = path.read_text(encoding="utf-8")
    assert "1.250000" in text and "-0.333333" in text


# ids that a str.splitlines() reader would cut in two, and one that a
# reader stripping its lines would change
_LINE_BREAKING_IDS = ["a\u2028b", "a\u2029b", "a\x85b", "a\x1cb", "a\x1db", "a\x1eb",
                      "a\x0bb", "a\x0cb", " lead"]


def test_ids_with_other_line_separators_pass_every_stage(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--users-pos", "6", "--users-neg", "4",
                 "--tweets-min", "3", "--tweets-max", "5", "--seed", "7"]) == 0
    with open(data / "tweets.jsonl", "a", encoding="utf-8") as fh:
        for tid in _LINE_BREAKING_IDS:
            fh.write(json.dumps({"id": tid, "user_id": "nobody", "text": "中医针灸有效",
                                 "created_at": "2013-05-17T12:00:00"}, ensure_ascii=False) + "\n")

    def run(name, *argv):
        assert main([name, *map(str, argv)]) == 0, name

    run("prep", "--tweets", data / "tweets.jsonl", "--out", tmp_path / "docs.jsonl")
    run("label", "--docs", tmp_path / "docs.jsonl", "--users", data / "users.jsonl",
        "--out", tmp_path / "labeled.jsonl", "--remainder", tmp_path / "rest.jsonl")
    run("train", "--labeled", tmp_path / "labeled.jsonl", "--K", "60",
        "--model-out", tmp_path / "model.txt", "--features-out", tmp_path / "features.tsv")
    run("predict", "--docs", tmp_path / "rest.jsonl", "--model", tmp_path / "model.txt",
        "--features", tmp_path / "features.tsv", "--out", tmp_path / "preds.tsv")
    run("adjust", "--predictions", tmp_path / "preds.tsv", "--out", tmp_path / "adjusted.tsv")
    rest_ids = [d.tweet_id for d in read_documents(tmp_path / "rest.jsonl")]
    assert rest_ids[-len(_LINE_BREAKING_IDS):] == _LINE_BREAKING_IDS
    for name in ("preds.tsv", "adjusted.tsv"):
        rows = read_predictions_tsv(tmp_path / name)
        assert [row[0] for row in rows] == rest_ids, name
        assert {row[1] for row in rows[-len(_LINE_BREAKING_IDS):]} == {"nobody"}, name

    # CRLF line ends: the same features and predictions, so the same outputs
    for name in ("features.tsv", "preds.tsv"):
        path = tmp_path / name
        (tmp_path / f"crlf_{name}").write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    run("predict", "--docs", tmp_path / "rest.jsonl", "--model", tmp_path / "model.txt",
        "--features", tmp_path / "crlf_features.tsv", "--out", tmp_path / "preds2.tsv")
    run("adjust", "--predictions", tmp_path / "crlf_preds.tsv", "--out", tmp_path / "adjusted2.tsv")
    assert (tmp_path / "preds2.tsv").read_bytes() == (tmp_path / "preds.tsv").read_bytes()
    assert (tmp_path / "adjusted2.tsv").read_bytes() == (tmp_path / "adjusted.tsv").read_bytes()


@pytest.mark.parametrize("reader, name", [
    (read_documents, "docs.jsonl"),
    (read_predictions_tsv, "preds.tsv"),
    (load_feature_set, "features.tsv"),
    (load_model, "model.txt"),
    (read_gold, "data/gold.tsv"),
], ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_invalid_utf8_in_a_pipeline_file_names_the_file_and_offset(
        pipeline, tmp_path, reader, name, bom):
    data = (pipeline["docs"].parent / name).read_bytes()
    cut = data.rindex(b"\n", 0, -1) + 1  # the last line starts with an ASCII byte
    path = tmp_path / Path(name).name
    path.write_bytes(bom + data[:cut] + b"\xff" + data[cut + 1:])
    offset = len(bom) + cut  # the BOM counts
    with pytest.raises(ValueError, match=re.escape(f"{path}: not valid UTF-8 at byte offset {offset}")
                       + "$"):
        reader(path)
    # and without the bad byte the file reads, BOM or not
    path.write_bytes(bom + data)
    reader(path)


def test_a_command_reports_invalid_utf8_with_the_file(pipeline, tmp_path, capsys):
    path = tmp_path / "preds.tsv"
    path.write_bytes(b"\xff" + pipeline["preds"].read_bytes())
    capsys.readouterr()
    assert main(["adjust", "--predictions", str(path), "--out", str(tmp_path / "out.tsv")]) == 1
    assert capsys.readouterr().err == f"error: {path}: not valid UTF-8 at byte offset 0\n"
