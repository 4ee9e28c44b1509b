"""Text pipeline: simplification, entity stripping, segmentation, filtering."""

from __future__ import annotations

import json
import random
import re
import tempfile
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import TS, make_doc, make_resources, peak_bytes
from oracles import (
    reference_is_noise_token,
    reference_remove_stopwords,
    reference_segment,
    reference_strip_entities,
    reference_to_simplified,
    reference_write_documents,
)
from tcm_stance import resources
from tcm_stance.corpus import Tweet, format_timestamp
from tcm_stance.preprocess import (
    MAX_MATCH,
    Document,
    is_advertisement,
    preprocess_tweet,
    read_documents,
    relabel,
    remove_stopwords,
    segment,
    strip_entities,
    to_simplified,
    write_documents,
)
from tcm_stance.resources import TermList, is_noise_token
from tcm_stance.stance import Stance
from tcm_stance.supervision import MIN_TOPIC_TERMS, is_tcm_topic

cjk_text = st.text(alphabet="中医药爱好不信有效假骗abc，。", max_size=20)


def test_to_simplified_maps_only_known_chars():
    simplify = make_resources(char_map={"醫": "医", "藥": "药"}).simplify
    assert to_simplified("中醫藥x", simplify) == "中医药x"
    assert to_simplified("", simplify) == ""
    assert to_simplified("abc", simplify) == "abc"


def test_to_simplified_with_bundled_map(default_resources):
    assert to_simplified("中醫很好", default_resources.simplify) == "中医很好"


# CJK (traditional and simplified), ASCII, punctuation, symbols, whitespace
# and control characters
mixed_chars = st.sampled_from("中醫医藥药好骗aZ1，。!?、()$¥+©😀 \t\n\u3000\x00\x1f\u200b\u00ad")
mixed_text = st.text(alphabet=st.one_of(mixed_chars, st.characters()), max_size=30)
char_maps = st.dictionaries(st.one_of(mixed_chars, st.characters()),
                            st.one_of(mixed_chars, st.characters()), max_size=12)


@given(mixed_text, char_maps)
def test_to_simplified_matches_the_map_lookup_reference(text, cmap):
    resources = make_resources(char_map=cmap)
    assert to_simplified(text, resources.simplify) == reference_to_simplified(text, cmap)


@pytest.mark.parametrize("cmap", [
    {"]": "1", "[": "2", "\\": "3", "^": "4", "-": "5"},
    {"^": "1", "a": "2"},                # "^" first would negate the class
    {"a": "1", "-": "2", "z": "3"},      # "a-z" would be a range
    {"😀": "笑"},                        # outside the BMP
    {"醫": "醫", "藥": "药"},            # a key mapped to itself
    {},
], ids=["brackets-backslash-caret-dash", "caret-first", "dash-between", "non-bmp",
        "identity", "empty"])
def test_to_simplified_takes_every_key_literally(cmap):
    text = "a]b[c\\d^e-f😀醫藥z-a^ 中医"
    simplify = make_resources(char_map=cmap).simplify
    assert to_simplified(text, simplify) == reference_to_simplified(text, cmap)


def test_simplify_is_rebuilt_with_the_char_map():
    resources = make_resources(char_map={"醫": "医"})
    assert to_simplified("醫藥", resources.simplify) == "医藥"
    swapped = replace(resources, char_map={"藥": "药"})
    assert to_simplified("醫藥", swapped.simplify) == "醫药"


STOPWORDS = ["的", "了", "没有", "，", "a"]
tokens_lists = st.lists(
    st.one_of(st.text(alphabet=mixed_chars, max_size=4), mixed_text, st.sampled_from(STOPWORDS)),
    max_size=20)


@given(tokens_lists)
def test_remove_stopwords_matches_the_reference(tokens):
    stop = TermList.of(STOPWORDS)
    assert [is_noise_token(t) for t in tokens] == [reference_is_noise_token(t) for t in tokens]
    assert remove_stopwords(tokens, stop) == reference_remove_stopwords(tokens, stop)


@given(tokens_lists, st.lists(st.sampled_from(["中医", "的", "a", "，", "没有", "x"]), max_size=5))
def test_term_filters_agree_with_plain_membership_tests(tokens, terms):
    term_list = TermList.of(terms)
    assert term_list.members == frozenset(term_list)
    assert remove_stopwords(tokens, term_list) == reference_remove_stopwords(tokens, term_list)
    assert is_advertisement(tokens, term_list) == any(t in term_list for t in tokens)
    hits = {t for t in tokens if t in term_list}
    doc = make_doc("t", "u", tuple(tokens))
    assert is_tcm_topic(doc, term_list) == (len(hits) >= MIN_TOPIC_TERMS)


def test_strip_entities_removes_mentions_and_urls():
    assert strip_entities("@shen 看 http://t.cn/ab1") == "看"


def test_strip_entities_deletes_bracket_codes_without_spacing():
    assert strip_entities("好[哈哈]棒") == "好棒"


def test_strip_entities_removes_platform_markers():
    assert strip_entities("转发微博") == ""
    assert strip_entities(":-) 不错 :(") == "不错"


def test_strip_entities_keeps_long_bracket_spans():
    # anything longer than 8 chars between brackets is real text, not a code
    text = "[这是一段很长的引用文字]"
    assert strip_entities(text) == text


def test_strip_entities_collapses_whitespace_runs():
    assert strip_entities("一  二\t三\n四") == "一 二 三 四"


@given(st.text(max_size=80))
def test_strip_entities_never_grows_or_pads(text):
    out = strip_entities(text)
    assert len(out) <= len(text)
    assert out == out.strip()
    assert "  " not in out
    assert "\n" not in out and "\t" not in out


# pieces of every entity, so that one pattern's removal can make or break
# another's match
_ENTITY_PIECES = st.sampled_from([
    "http", "https://", "://", "t.cn/a", "@", "用户", "_", "[", "]", "哈哈", ":", "-", ")",
    "(", "转发微博", "回复", " ", "\n", "中医", "a", "h", "\u3000",
])


@given(st.one_of(st.lists(_ENTITY_PIECES, max_size=16).map("".join), st.text(max_size=40)))
@example("@http://x")
@example("[@]:-)")
@example("h@ttp://x [a] :)")
def test_strip_entities_matches_the_unguarded_sequence(text):
    assert strip_entities(text) == reference_strip_entities(text)


def test_segment_prefers_longest_prefix():
    lex = TermList.of(["中医", "中医药", "爱好"])
    assert segment("中医爱好", lex) == ["中医", "爱好"]
    assert segment("中医药爱好", lex) == ["中医药", "爱好"]


def test_segment_falls_back_to_single_chars():
    lex = TermList.of(["中医"])
    assert segment("xy中", lex) == ["x", "y", "中"]
    assert segment("", lex) == []


def test_segment_ignores_lexicon_entries_longer_than_window():
    lex = TermList.of(["abcdefghi"])  # 9 chars, outside the match window
    assert segment("abcdefghi", lex) == list("abcdefghi")


@given(cjk_text, st.lists(st.sampled_from(["中医", "中医药", "爱好", "有效", "骗"]), max_size=5))
def test_segment_concatenation_reproduces_input(text, words):
    lex = TermList.of(words) if words else TermList.of(["中医"])
    tokens = segment(text, lex)
    assert "".join(tokens) == text
    assert all(tokens)


@st.composite
def lexicon_and_text(draw):
    """A lexicon over few characters, so entries share first characters, with
    terms from one character to past the MAX_MATCH window; and a text built
    from whole terms, terms cut short and characters outside the lexicon."""
    alphabet = "中医药针"
    term = st.integers(1, MAX_MATCH + 3).flatmap(
        lambda size: st.text(alphabet=alphabet, min_size=size, max_size=size))
    terms = draw(st.lists(term, max_size=20))
    filler = st.text(alphabet=alphabet + "好x，", max_size=3)
    piece = st.one_of(filler, st.sampled_from(terms)) if terms else filler
    parts = draw(st.lists(st.tuples(piece, st.integers(1, MAX_MATCH + 3)), max_size=12))
    return TermList.of(terms), "".join(part[:cut] for part, cut in parts)


@given(lexicon_and_text())
def test_segment_matches_the_probe_every_length_reference(case):
    lex, text = case
    assert segment(text, lex) == reference_segment(text, lex)


@st.composite
def gapped_lexicon_and_text(draw):
    """Per first character, terms of a few lengths with gaps between them
    (say only 2 and 5), some longer than MAX_MATCH; and a text that ends in a
    cut-short term, so that candidates would run past its end."""
    alphabet = "中医药针"
    sizes = st.sets(st.sampled_from([1, 2, 3, 5, 7, MAX_MATCH, MAX_MATCH + 1, MAX_MATCH + 4]),
                    max_size=3)
    terms = []
    for first in alphabet:
        for size in draw(sizes):
            rests = st.text(alphabet=alphabet, min_size=size - 1, max_size=size - 1)
            terms += [first + rest for rest in draw(st.lists(rests, min_size=1, max_size=2))]
    filler = st.text(alphabet=alphabet + "好x", max_size=3)
    piece = st.one_of(filler, st.sampled_from(terms)) if terms else filler
    parts = draw(st.lists(piece, max_size=10))
    tail = draw(piece)
    text = "".join(parts) + tail[:draw(st.integers(0, max(len(tail) - 1, 0)))]
    return TermList.of(terms), text


@given(gapped_lexicon_and_text())
def test_segment_matches_the_reference_on_gapped_lengths(case):
    lex, text = case
    assert segment(text, lex) == reference_segment(text, lex)


@given(gapped_lexicon_and_text())
def test_segment_probes_only_lengths_its_lexicon_holds(case):
    lex, text = case
    _tokens, probes = count_probes(segment, text, lex)
    table = lex.lengths_by_first_char
    for cand in probes:
        assert len(cand) in table[cand[0]] and 2 <= len(cand) <= MAX_MATCH, cand


class CountingTermList(TermList):
    """Records membership tests, as the benchmark's probe counter counts them."""

    probes: list[str] = []

    def __contains__(self, term):
        CountingTermList.probes.append(term)
        return super().__contains__(term)


def count_probes(segmenter, text, lexicon):
    """The tokens and every string probed, in order."""
    counting = object.__new__(CountingTermList)
    counting.__dict__.update(vars(lexicon))
    CountingTermList.probes = []
    tokens = segmenter(text, counting)
    return tokens, CountingTermList.probes


def test_segment_probes_go_through_the_lexicon_and_fewer_than_the_reference(default_resources):
    lex = default_resources.segment_lexicon
    text = "我觉得中医针灸很有效，但是马兜铃酸有毒，中药要小心。" * 3
    tokens, probes = count_probes(segment, text, lex)
    ref_tokens, ref_probes = count_probes(reference_segment, text, lex)
    assert tokens == ref_tokens
    assert 0 < len(probes) < len(ref_probes)


def test_remove_stopwords_drops_noise_tokens():
    stop = TermList.of(["的"])
    tokens = ["中医", "的", "，", "。", " ", "好", "a1"]
    assert remove_stopwords(tokens, stop) == ["中医", "好", "a1"]


def test_remove_stopwords_judges_each_distinct_token_once_per_list(monkeypatch):
    judged = []
    monkeypatch.setattr(resources, "is_noise_token",
                        lambda token: judged.append(token) or reference_is_noise_token(token))
    monkeypatch.setattr(resources, "KEPT_SIZE", 3)
    stop = TermList.of(["的"])
    tokens = ["中医", "的", "，", "中医", "好", "x", "好"]
    for _ in range(2):
        assert remove_stopwords(tokens, stop) == reference_remove_stopwords(tokens, stop)
    # a stopword is not judged as noise, and the first three tokens seen are
    # held; tokens past the cap are judged on every lookup
    assert dict(stop.kept) == {"中医": True, "的": False, "，": False}
    assert judged == ["中医", "，"] + ["好", "x", "好"] * 2
    assert TermList.of(["的"]).kept == {}


def test_is_advertisement():
    ads = TermList.of(["促销"])
    assert is_advertisement(["买", "促销"], ads)
    assert not is_advertisement(["买"], ads)
    assert not is_advertisement([], ads)


def tweet(text: str) -> Tweet:
    return Tweet("t1", "u1", text, TS)


def test_preprocess_tweet_full_pipeline():
    res = make_resources(
        lexicon=["中医", "爱好"],
        stopwords=["的"],
        char_map={"醫": "医"},
    )
    doc = preprocess_tweet(tweet("@u 中醫的爱好 http://x.cn/1"), res)
    assert doc is not None
    assert doc.tokens == ("中医", "爱好")
    assert doc.tweet_id == "t1"
    assert doc.user_id == "u1"
    assert doc.created_at == TS
    assert doc.label is None


def test_preprocess_tweet_drops_advertisements():
    res = make_resources(lexicon=["中医"], ads=["促销"])
    assert preprocess_tweet(tweet("中医促销"), res) is None


def test_preprocess_tweet_drops_empty_results():
    res = make_resources(lexicon=["中医"], stopwords=["的"])
    assert preprocess_tweet(tweet("的的 。。"), res) is None
    assert preprocess_tweet(tweet("转发微博"), res) is None


def test_multi_char_stopword_needs_whole_token(default_resources):
    # the merged lexicon guarantees 没有 comes out as one token and is dropped
    doc = preprocess_tweet(tweet("没有经络"), default_resources)
    assert doc is not None
    assert "没有" not in doc.tokens
    assert "经络" in doc.tokens


def test_document_round_trip(tmp_path):
    docs = [
        make_doc("t1", "用户甲", ("中医", "针灸", "中医"), Stance.SUPPORTING),
        make_doc("t2", "用户甲", ("针灸", "骗局"), Stance.OPPOSING),
        make_doc("t3", "用户乙", ("中医",), None),
    ]
    path = tmp_path / "docs.jsonl"
    write_documents(path, docs)
    a, b, c = read = read_documents(path)
    assert read == docs
    # equal tokens and user ids read from one file are one string
    assert a.user_id is b.user_id
    assert a.tokens[0] is a.tokens[2] is c.tokens[0]
    assert a.tokens[1] is b.tokens[0]


# the characters JSON escapes or that an encoder might: quote, backslash,
# C0 controls, DEL, the line and paragraph separators, non-BMP characters
_JSON_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x7f\u2028\u2029\U0001f600中a'),
                       st.characters(max_codepoint=0x1f),
                       st.characters(blacklist_categories=("Cs",))),
    min_size=1, max_size=8)
_DOCUMENTS = st.builds(
    Document,
    tweet_id=_JSON_TEXT,
    user_id=st.one_of(_JSON_TEXT, st.sampled_from(["u1", "用户甲"])),
    created_at=st.datetimes(min_value=datetime(1, 1, 1),
                            max_value=datetime(9999, 12, 31, 23, 59, 59)).map(format_timestamp),
    tokens=st.lists(st.one_of(_JSON_TEXT, st.sampled_from(["中医", "u1"])), max_size=6).map(tuple),
    label=st.sampled_from([None, *Stance]),
)


@given(st.lists(_DOCUMENTS, max_size=8))
def test_write_documents_matches_the_reference_encoder(docs):
    with tempfile.TemporaryDirectory() as tmp:
        written, reference = Path(tmp) / "written.jsonl", Path(tmp) / "reference.jsonl"
        assert write_documents(written, iter(docs)) == len(docs)
        reference_write_documents(reference, docs)
        assert written.read_bytes() == reference.read_bytes()


def test_write_documents_returns_how_many_it_wrote(tmp_path):
    docs = (make_doc(f"t{i}", "u1", ("中医",)) for i in range(3))
    assert write_documents(tmp_path / "docs.jsonl", docs) == 3
    assert len(read_documents(tmp_path / "docs.jsonl")) == 3
    assert write_documents(tmp_path / "empty.jsonl", iter(())) == 0
    assert (tmp_path / "empty.jsonl").read_bytes() == b""


@pytest.mark.parametrize("field", ["tweet_id", "user_id", "tokens"])
def test_both_document_writers_refuse_a_lone_surrogate(tmp_path, field):
    doc = make_doc("t1", "u1", ("中医",))._replace(
        **{field: ("中医", "a\ud800") if field == "tokens" else "a\ud800"})
    for writer in (write_documents, reference_write_documents):
        with pytest.raises(UnicodeEncodeError):
            writer(tmp_path / "docs.jsonl", [doc])


def test_a_document_carries_no_instance_dict():
    doc = make_doc("t1", "u1", ("中医",))
    assert not hasattr(doc, "__dict__")
    with pytest.raises(AttributeError):
        doc.tokens = ()
    tweet = Tweet("t1", "u1", "中医", TS)
    assert not hasattr(tweet, "__dict__")
    with pytest.raises(AttributeError):
        tweet.text = ""


def test_read_documents_holds_a_small_vocabulary_once(tmp_path):
    """Documents over a 50-token vocabulary peak at 360-440 bytes each on
    CPython 3.10-3.13; with a str per token occurrence, over 1,000."""
    rng = random.Random(0)
    vocab = [f"词{i:02d}" for i in range(50)]
    stances = (Stance.SUPPORTING, Stance.OPPOSING, None)
    n = 1000
    path = tmp_path / "docs.jsonl"
    write_documents(path, (
        make_doc(f"t{i:05d}", f"user{i % 20:02d}", rng.choices(vocab, k=10), stances[i % 3])
        for i in range(n)
    ))
    assert peak_bytes(lambda: read_documents(path)) < 600 * n


def test_read_documents_reports_line_numbers(tmp_path):
    path = tmp_path / "docs.jsonl"
    good = '{"tweet_id":"t1","user_id":"u1","created_at":"2013-05-17T12:00:00","tokens":["x"]}'
    path.write_text(good + "\n{broken\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2"):
        read_documents(path)


@pytest.mark.parametrize("line", [
    '{"user_id":"u1","created_at":"2013-05-17T12:00:00","tokens":["x"]}',
    '{"tweet_id":"t1","created_at":"2013-05-17T12:00:00","tokens":["x"]}',
    '{"tweet_id":"t1","user_id":"u1","created_at":"bad","tokens":["x"]}',
    '{"tweet_id":"t1","user_id":"u1","created_at":"2013-05-17T12:00:00","tokens":"x"}',
    '{"tweet_id":"t1","user_id":"u1","created_at":"2013-05-17T12:00:00","tokens":[""]}',
    '{"tweet_id":"t1","user_id":"u1","created_at":"2013-05-17T12:00:00","tokens":["x"],"label":"meh"}',
    '{"tweet_id":"x\\ty","user_id":"u1","created_at":"2013-05-17T12:00:00","tokens":["x"]}',
    '{"tweet_id":"x\\r","user_id":"u1","created_at":"2013-05-17T12:00:00","tokens":["x"]}',
    '{"tweet_id":"x\\ud800","user_id":"u1","created_at":"2013-05-17T12:00:00","tokens":["x"]}',
    '{"tweet_id":"t1","user_id":"u\\n1","created_at":"2013-05-17T12:00:00","tokens":["x"]}',
    '{"tweet_id":"t1","user_id":"用\\udfff","created_at":"2013-05-17T12:00:00","tokens":["x"]}',
    '[]',
    pytest.param("[" * 200000 + "]" * 200000, id="nested-too-deep-for-json"),
])
def test_read_documents_rejects_malformed_records(tmp_path, line):
    path = tmp_path / "docs.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1"):
        read_documents(path)


@pytest.mark.parametrize("char", ["\t", "\r", "\n", "\ud800"],
                         ids=["tab", "cr", "lf", "lone-surrogate"])
def test_read_documents_refuses_a_token_that_would_break_a_tsv_line(tmp_path, char):
    # features.tsv and the predictions TSV hold tokens and ids one per field
    path = tmp_path / "docs.jsonl"
    good = {"tweet_id": "t1", "user_id": "u1", "created_at": "2013-05-17T12:00:00",
            "tokens": ["有效"]}
    bad = {**good, "tweet_id": "t2", "tokens": ["有效", f"有效{char}1"]}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: token contains a tab, a line break or a lone surrogate")):
        read_documents(path)


def test_relabel_returns_new_document():
    doc = make_doc("t1", "u1", ("中医",), None)
    labeled = relabel(doc, Stance.OPPOSING)
    assert labeled.label is Stance.OPPOSING
    assert doc.label is None
    assert relabel(labeled, None).label is None
