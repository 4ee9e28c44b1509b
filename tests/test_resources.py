"""Resource loading: term lists, tag lexicon, char map, bundled data files."""

from __future__ import annotations

import pytest

from tcm_stance.resources import (
    DEFAULT_PATHS,
    SEARCH_TAGS_PATH,
    ResourceFormatError,
    TermList,
    load_char_map,
    load_resources,
    load_tag_lexicon,
    load_term_list,
)
from tcm_stance.stance import Stance


def test_term_list_of_normalizes():
    tl = TermList.of([" 中医 ", "中医", "", "爱好", "  "])
    assert tuple(tl) == ("中医", "爱好")
    assert "中医" in tl
    assert "养生" not in tl
    assert len(tl) == 2
    assert tl.max_term_len == 2


def test_term_list_longest_term_per_first_character():
    tl = TermList.of(["中医药", "中医", "爱好", "a", "马兜铃酸"])
    assert tl.longest_by_first_char == {"中": 3, "爱": 2, "a": 1, "马": 4}
    assert tl.max_term_len == 4
    assert TermList.of([]).longest_by_first_char == {}
    assert TermList.of([]).max_term_len == 0


def test_term_list_rejects_raw_duplicates_and_blanks():
    with pytest.raises(ValueError):
        TermList(("中医", "中医"))
    with pytest.raises(ValueError):
        TermList(("",))
    with pytest.raises(ValueError):
        TermList((" 中医",))


def test_term_list_union_keeps_order():
    tl = TermList.of(["a", "b"]).union(["b", "c"])
    assert tuple(tl) == ("a", "b", "c")


def test_load_term_list(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("# comment\n中医\n\n 爱好 \n中医\n", encoding="utf-8")
    assert tuple(load_term_list(path)) == ("中医", "爱好")


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


def test_load_char_map_conflict_is_fatal(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("醫\t医\n醫\t药\n", encoding="utf-8")
    with pytest.raises(ResourceFormatError, match=r":2"):
        load_char_map(path)


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
    assert default_resources.segment_lexicon.max_term_len <= 8


def test_bundled_char_map_is_simplifying(default_resources):
    cmap = default_resources.char_map
    assert cmap["醫"] == "医"
    assert cmap["藥"] == "药"
    # applying the map twice must equal applying it once
    for target in cmap.values():
        assert target not in cmap
