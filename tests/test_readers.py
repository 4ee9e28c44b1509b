"""Every reader against byte-edited copies of a small valid file.

A strict reader either returns or raises a ResourceFormatError whose message
starts with the path and names, if any, a non-blank line of the file.  A
lenient reader never raises on content: its records plus its skip count are
the file's non-blank lines.  Where a writer exists, accepted records that are
written and read back are the same records, and writing them again gives the
same bytes.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcm_stance.cli import read_predictions_tsv, write_predictions_tsv
from tcm_stance.config import parse_config_file
from tcm_stance.corpus import load_tweets, load_users
from tcm_stance.features import load_feature_set, save_feature_set
from tcm_stance.preprocess import read_documents, write_documents
from tcm_stance.resources import (
    ResourceFormatError,
    load_char_map,
    load_resources,
    load_tag_lexicon,
    load_term_list,
)
from tcm_stance.svm import load_model, save_model
from tcm_stance.synth import read_gold

# every hypothesis test in this file runs under these settings; together they
# take a few seconds
FUZZ = settings(max_examples=60, deadline=None)


def _text(*lines: str) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


DOCUMENTS = _text(
    '{"tweet_id":"t1","user_id":"u1","created_at":"2014-01-01T00:00:00",'
    '"tokens":["中医","有效"],"label":"support"}',
    '{"tweet_id":"t2","user_id":"u2","created_at":"2014-02-03T04:05:06","tokens":["骗局"]}',
)
PREDICTIONS = _text("t1\tu1\t2014-01-01T00:00:00\tsupport\t0.500000",
                    "t2\tu2\t2014-02-03T04:05:06\toppose\t-1.250000")
FEATURES = _text("1\t中医\t3.500000\tsupport", "2\t骗局\t1.250000\toppose")
MODEL = _text("stance-svm v2", "K 2", "C 1", "wi 0.9", "seed 42", "digest d", "epochs 3",
              "violation 0", "0.5", "-0.25", "0.125")
STRICT_FILES = {
    "documents": (read_documents, DOCUMENTS),
    "predictions": (read_predictions_tsv, PREDICTIONS),
    "features": (load_feature_set, FEATURES),
    "model": (load_model, MODEL),
    "gold": (read_gold, _text("t1\tsupport", "t2\toppose")),
    "config": (parse_config_file, _text("# tuning", "K = 10", "C = 0.5", "leaky_selection = no")),
    "term-list": (load_term_list, _text("# terms", "中医", "针灸")),
    # the segmentation lexicon, which load_resources reads into the merged list
    "segmentation": (lambda path: load_resources({"segmentation_lexicon": path}),
                     _text("# words", "中医药", "针灸")),
    "tag-lexicon": (load_tag_lexicon, _text("中医爱好\tsupport", "# against", "反中医\toppose")),
    "char-map": (load_char_map, _text("醫\t医", "藥\t药")),
}
LENIENT_FILES = {
    "tweets": (load_tweets, _text(
        '{"id":"1","user_id":"u1","text":"中医有效","created_at":"2014-01-01T00:00:00"}',
        '{"id":"2","user_id":"u2","text":"转发","created_at":"2014-01-02T00:00:00",'
        '"retweet":{"id":"9","user_id":"u3","text":"骗局","created_at":"2014-01-01T08:00:00"}}',
    )),
    "users": (load_users, _text('{"user_id":"u1","tags":["中医爱好"]}',
                                '{"user_id":"u2","tags":["反中医","养生"]}')),
}

# bytes that matter to some reader, offered besides arbitrary ones
_PAYLOADS = [b"\n", b"\r", b"\t", b" ", b"#", b"-", b"0", b"9", b".", b"e", b"=", b'"', b"\\",
             b",", b"[", b"{", b"}", b"nan", b"inf", codecs.BOM_UTF8, b"\xff", b"\xe4\xb8"]

# (kind, position, span length, payload); a position past the end of the
# data is taken modulo its length plus one
EDITS = st.lists(st.tuples(
    st.sampled_from(["flip", "insert", "delete", "duplicate", "truncate"]),
    st.integers(0, 400),
    st.integers(1, 12),
    st.one_of(st.sampled_from(_PAYLOADS), st.binary(min_size=1, max_size=3)),
), min_size=1, max_size=3)


def edited(data: bytes, edits: list[tuple[str, int, int, bytes]]) -> bytes:
    for kind, pos, span, payload in edits:
        i = pos % (len(data) + 1)
        j = min(len(data), i + span)
        if kind == "flip" and i < len(data):
            data = data[:i] + bytes([data[i] ^ (1 << (span % 8))]) + data[i + 1:]
        elif kind == "insert":
            data = data[:i] + payload + data[i:]
        elif kind == "delete":
            data = data[:i] + data[j:]
        elif kind == "duplicate":
            data = data[:j] + data[i:j] + data[j:]
        elif kind == "truncate":
            data = data[:i]
    return data


def _is_blank(line: bytes) -> bool:
    """Whether a line (no "\\n") is whitespace only, as every reader skips it."""
    try:
        return not line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", STRICT_FILES)
@FUZZ
@given(edits=EDITS)
def test_a_strict_reader_loads_or_names_a_line_of_the_file(name, edits, fuzz_dir):
    reader, valid = STRICT_FILES[name]
    path = fuzz_dir / name
    data = edited(valid, edits)
    path.write_bytes(data)
    try:
        reader(path)
    except ResourceFormatError as exc:
        message = str(exc)
        assert message.startswith(f"{path}:"), message
        named = re.match(r"(\d+): ", message[len(f"{path}:"):])
        if named:
            lines = data.removeprefix(codecs.BOM_UTF8).split(b"\n")
            lineno = int(named[1])
            assert 1 <= lineno <= len(lines) and not _is_blank(lines[lineno - 1]), message


@pytest.mark.parametrize("name", LENIENT_FILES)
@FUZZ
@given(edits=EDITS)
def test_a_lenient_reader_counts_every_line_it_skips(name, edits, fuzz_dir):
    reader, valid = LENIENT_FILES[name]
    path = fuzz_dir / name
    data = edited(valid, edits)
    path.write_bytes(data)
    records, skipped = reader(path)
    lines = data.removeprefix(codecs.BOM_UTF8).split(b"\n")
    assert len(records) + skipped == sum(not _is_blank(line) for line in lines)


# reader, writer, a valid file, and the records as the file holds them:
# margins and scores to 6 decimals
ROUND_TRIPS = {
    "documents": (read_documents, write_documents, DOCUMENTS, lambda docs: docs),
    "predictions": (read_predictions_tsv, write_predictions_tsv, PREDICTIONS,
                    lambda rows: [row._replace(margin=round(row.margin, 6)) for row in rows]),
    "features": (load_feature_set, save_feature_set, FEATURES,
                 lambda fs: [replace(t, score=round(t.score, 6)) for t in fs.terms]),
    "model": (load_model, save_model, MODEL,
              lambda model: (model.weights, model.feature_set_digest, model.train_meta)),
}


@pytest.mark.parametrize("name", ROUND_TRIPS)
@FUZZ
@given(edits=EDITS)
@example(edits=[])
@example(edits=[("insert", MODEL.index(b"digest d") + 8, 1, b"\r\r")])  # digest 'd\r'
def test_accepted_records_read_back_from_what_is_written(name, edits, fuzz_dir):
    reader, writer, valid, as_written = ROUND_TRIPS[name]
    source, first, second = (fuzz_dir / f"{name}.{n}" for n in ("in", "1", "2"))
    source.write_bytes(edited(valid, edits))
    try:
        records = reader(source)
    except ResourceFormatError:
        return
    writer(first, records)
    again = reader(first)
    # repr compares floats exactly, nan and the sign of zero included
    assert repr(as_written(again)) == repr(as_written(records))
    writer(second, again)
    assert second.read_bytes() == first.read_bytes()
