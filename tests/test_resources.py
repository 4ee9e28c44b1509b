"""Resource loading: term lists, tag lexicon, char map, bundled data files."""

from __future__ import annotations

import ast
import random
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import make_resources
from oracles import reference_union

import tcm_stance
from tcm_stance.cli import read_predictions_tsv
from tcm_stance.config import parse_config_file
from tcm_stance.features import load_feature_set
from tcm_stance.preprocess import read_documents
from tcm_stance.resources import (
    DEFAULT_PATHS,
    SEARCH_TAGS_PATH,
    ResourceFormatError,
    TermList,
    load_char_map,
    load_resources,
    load_tag_lexicon,
    load_term_list,
    read_lines,
)
from tcm_stance.stance import Stance
from tcm_stance.svm import load_model
from tcm_stance.synth import read_gold


def test_term_list_of_normalizes():
    tl = TermList.of([" 中医 ", "中医", "", "爱好", "  "])
    assert tuple(tl) == ("中医", "爱好")
    assert "中医" in tl
    assert "养生" not in tl
    assert len(tl) == 2
    # the derived fields are neither compared, hashed nor shown
    same = TermList(("中医", "爱好"))
    assert same.kept["养生"]  # remembered by one list's keep map only
    assert tl == same and hash(tl) == hash(same)
    assert tl != TermList(("爱好", "中医"))
    assert repr(tl) == "TermList(terms=('中医', '爱好'))"
    assert [f.name for f in fields(tl) if f.compare] == ["terms"]


def test_term_list_lengths_per_first_character():
    tl = TermList.of(["中医药", "中医", "中药", "中", "爱好", "a", "马兜铃酸"])
    assert tl.lengths_by_first_char == {"中": (3, 2), "爱": (2,), "马": (4,)}
    assert TermList.of(["a", "中"]).lengths_by_first_char == {}
    assert TermList.of([]).lengths_by_first_char == {}


def test_term_list_rejects_raw_duplicates_and_blanks():
    with pytest.raises(ValueError):
        TermList(("中医", "中医"))
    with pytest.raises(ValueError):
        TermList(("",))
    with pytest.raises(ValueError):
        TermList((" 中医",))


def _segmentation_lists(paths) -> list[TermList]:
    return [load_term_list(paths[key]) for key in
            ("segmentation_lexicon", "terminology_lexicon", "stopword_list", "ad_keywords")]


def test_the_merged_lexicon_equals_the_chained_unions(default_resources):
    merged = default_resources.segment_lexicon
    assert merged.terms == reference_union(*_segmentation_lists(DEFAULT_PATHS)).terms


def test_the_merged_lexicon_keeps_first_occurrences_of_overlapping_lists(tmp_path):
    """Four generated lists over a small alphabet, so that terms repeat within
    and across them; blanks, comments and padded terms included."""
    rng = random.Random(0)
    paths = {}
    for key in ("segmentation_lexicon", "terminology_lexicon", "stopword_list", "ad_keywords"):
        lines = ["# generated"]
        for _ in range(300):
            term = "".join(rng.choices("中医药针灸", k=rng.randint(1, 4)))
            lines.append(rng.choice([term, f" {term} ", "", term]))
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text("\n".join(lines) + "\n", encoding="utf-8")
    lists = _segmentation_lists(paths)
    merged = load_resources(paths).segment_lexicon
    assert merged.terms == reference_union(*lists).terms
    assert len(merged) < sum(map(len, lists))
    table: dict[str, set[int]] = {}
    for term in merged:
        if len(term) > 1:
            table.setdefault(term[0], set()).add(len(term))
    assert merged.lengths_by_first_char == {
        first: tuple(sorted(sizes, reverse=True)) for first, sizes in table.items()}


def test_load_term_list(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("# comment\n中医\n\n 爱好 \n中医\n", encoding="utf-8")
    assert tuple(load_term_list(path)) == ("中医", "爱好")


def test_read_lines_skips_lines_of_unicode_whitespace_only(tmp_path):
    """U+3000, U+0085, U+2028 and the other characters ``str.strip``
    removes make a line blank; inside a line they are kept."""
    path = tmp_path / "lines.txt"
    blanks = ["\u3000", "\u0085", "\u2028", "\x1c", " \t\u3000\r", "\r", ""]
    path.write_text("a\n" + "".join(f"{blank}\n" for blank in blanks) + "b\u2028c\u3000\n",
                    encoding="utf-8", newline="")
    assert list(read_lines(path)) == [(1, "a"), (len(blanks) + 2, "b\u2028c\u3000")]


def test_load_term_list_rejects_bad_encoding(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_bytes("中医\n".encode("utf-8") + b"\xff\xfe\n")
    with pytest.raises(ResourceFormatError, match="byte offset"):
        load_term_list(path)


def test_load_term_list_ignores_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("\ufeff中医\n爱好\n", encoding="utf-8")
    terms = load_term_list(path)
    assert tuple(terms) == ("中医", "爱好")
    assert "中医" in terms
    path.write_bytes("\ufeff中医\n".encode("utf-8") + b"\xff\n")
    with pytest.raises(ResourceFormatError, match="byte offset 10$"):
        load_term_list(path)


def test_load_tag_lexicon(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("中医爱好\tsupport\n反中医\toppose\n中医爱好\tsupport\n", encoding="utf-8")
    lex = load_tag_lexicon(path)
    assert lex == {"中医爱好": Stance.SUPPORTING, "反中医": Stance.OPPOSING}


def test_load_tag_lexicon_conflict_is_fatal(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("中医爱好\tsupport\n中医爱好\toppose\n", encoding="utf-8")
    with pytest.raises(ResourceFormatError, match=r":2"):
        load_tag_lexicon(path)


@pytest.mark.parametrize("line", ["中医爱好", "中医爱好\tmaybe", "\tsupport", "中医爱好\t"])
def test_load_tag_lexicon_rejects_bad_rows(tmp_path, line):
    path = tmp_path / "tags.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ResourceFormatError, match=r":1"):
        load_tag_lexicon(path)


def test_load_char_map(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("醫\t医\n藥\t药\n医\t医\n", encoding="utf-8")
    assert load_char_map(path) == {"醫": "医", "藥": "药"}


def test_load_char_map_rejects_multi_char_cells(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("醫藥\t医\n", encoding="utf-8")
    with pytest.raises(ResourceFormatError, match="single characters"):
        load_char_map(path)


@pytest.mark.parametrize("key", ["醫藥", ""])
def test_resources_refuse_a_char_map_key_that_is_not_one_character(key):
    with pytest.raises(ValueError, match="single characters"):
        make_resources(char_map={key: "医"})


def test_load_char_map_conflict_is_fatal(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("醫\t医\n醫\t药\n", encoding="utf-8")
    with pytest.raises(ResourceFormatError, match=r":2"):
        load_char_map(path)


_DOC = '{"tweet_id":"t1","user_id":"u1","created_at":"2014-01-01T00:00:00","tokens":["a"]}'
_MODEL_HEAD = ["stance-svm v2", "K 1", "C 1", "wi 0.9", "seed 42", "digest d", "epochs 3",
               "violation 0"]

# reader, file lines, number of the bad line, what the reader says about it
STRICT_READERS = {
    "documents": (read_documents, [_DOC, '{"tweet_id":"","user_id":"u1"}'], 2,
                  "missing or empty tweet_id"),
    "predictions": (read_predictions_tsv, ["t1\tu1\t2014-01-01T00:00:00\tsupport\t0.5",
                                           "t2\tu1\t2014-01-01T00:00:00\tsupport"], 2,
                    "expected 5 tab-separated fields"),
    "features": (load_feature_set, ["1\ta\t1.000000\tsupport", "3\tb\t0.500000\toppose"], 2,
                 "ranks must be consecutive from 1"),
    "gold": (read_gold, ["t1\tsupport", "t2\tneutral"], 2, "unknown stance word: 'neutral'"),
    "model-header": (load_model, ["stance-svm v3"] + _MODEL_HEAD[1:] + ["0.5", "0.1"], 1,
                     "not a model file (bad header 'stance-svm v3')"),
    "model-key": (load_model, _MODEL_HEAD[:3] + ["w 0.9"] + _MODEL_HEAD[4:] + ["0.5", "0.1"],
                  4, "expected 'wi ...' line, got 'w 0.9'"),
    "model-weight": (load_model, _MODEL_HEAD + ["0.5", "abc"], 10,
                     "could not convert string to float: 'abc'"),
    "tag-lexicon": (load_tag_lexicon, ["# tags", "中医爱好\tsupport", "反中医"], 3,
                    "expected 'tag<TAB>stance'"),
    "char-map": (load_char_map, ["醫\t医", "", "醫藥\t医"], 3, "cells must be single characters"),
    "config-key": (parse_config_file, ["K = 10", "svm_cost = 2"], 2,
                   "unknown config key 'svm_cost'"),
    "config-value": (parse_config_file, ["# tuning", "K = abc"], 2,
                     "config key 'K': invalid literal for int() with base 10: 'abc'"),
}


@pytest.mark.parametrize("name", STRICT_READERS)
def test_every_strict_reader_names_the_file_and_line(name, tmp_path):
    reader, lines, bad_line, text = STRICT_READERS[name]
    path = tmp_path / "input"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ResourceFormatError) as exc:
        reader(path)
    assert str(exc.value) == f"{path}:{bad_line}: {text}"


def test_only_the_locator_formats_a_line_number():
    """A line number in an error message comes from ``resources.located``,
    so no other module interpolates one into a string."""
    offenders = []
    for source in sorted(Path(tcm_stance.__file__).parent.glob("*.py")):
        if source.name == "resources.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FormattedValue) and "lineno" in ast.unparse(node.value):
                offenders.append(f"{source.name}:{node.lineno}")
    assert offenders == []


def test_load_resources_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown resource keys"):
        load_resources({"word_list": "x.txt"})


def test_load_resources_is_reproducible(default_resources):
    again = load_resources()
    assert tuple(again.segment_lexicon) == tuple(default_resources.segment_lexicon)
    assert again.char_map == default_resources.char_map
    assert again.tag_lexicon == default_resources.tag_lexicon


def test_default_paths_all_exist():
    for path in DEFAULT_PATHS.values():
        assert path.is_file(), path
    assert SEARCH_TAGS_PATH.is_file()


def test_bundled_tag_lexicon_covers_both_stances(default_resources):
    lex = default_resources.tag_lexicon
    assert lex["中医爱好"] is Stance.SUPPORTING
    assert lex["中医粉"] is Stance.SUPPORTING
    assert lex["反中医"] is Stance.OPPOSING
    assert lex["中医黑"] is Stance.OPPOSING
    by_stance = {s: [t for t, v in lex.items() if v is s] for s in Stance}
    assert len(by_stance[Stance.SUPPORTING]) >= 10
    assert len(by_stance[Stance.OPPOSING]) >= 3


def test_bundled_search_tags_load(default_resources):
    tags = load_term_list(SEARCH_TAGS_PATH)
    assert "中医" in tags
    assert len(tags) == 9
    # search tags are interest markers, not stance markers
    overlap = [t for t in tags if t in default_resources.tag_lexicon]
    assert overlap == []


def test_filter_lists_are_reachable_by_the_segmenter(default_resources):
    res = default_resources
    for word in res.stopwords:
        assert word in res.segment_lexicon, word
    for word in res.ad_keywords:
        assert word in res.segment_lexicon, word
    for word in res.terminology:
        assert word in res.segment_lexicon, word


def test_bundled_terms_fit_the_segmenter_window(default_resources):
    # longest-prefix matching scans at most 8 characters, so longer entries
    # would be dead weight
    assert max(map(len, default_resources.segment_lexicon)) <= 8


def test_bundled_char_map_is_simplifying(default_resources):
    cmap = default_resources.char_map
    assert cmap["醫"] == "医"
    assert cmap["藥"] == "药"
    # applying the map twice must equal applying it once
    for target in cmap.values():
        assert target not in cmap
