"""Corpus ingestion: JSONL parsing, repost flattening, profile merging."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from datetime import datetime
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcm_stance.cli import main
from tcm_stance.preprocess import read_documents
from tcm_stance.stance import Stance
from tcm_stance.corpus import (
    MAX_CHAIN_DEPTH,
    MAX_TAGS,
    TEXT_CLAMP,
    TIMESTAMP_FORMAT,
    Tweet,
    UserProfile,
    dedupe_users,
    format_timestamp,
    load_tweets,
    load_users,
    parse_timestamp,
    split_retweets,
    write_tweets_jsonl,
    write_users_jsonl,
)

TS = datetime(2013, 5, 17, 12, 0, 0)
WIRE_TS = "2013-05-17T12:00:00"


def tweet_obj(tid="t1", uid="u1", text="看中医", created=WIRE_TS, **extra):
    obj = {"id": tid, "user_id": uid, "text": text, "created_at": created}
    obj.update(extra)
    return obj


def write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o, ensure_ascii=False) for o in objs) + "\n",
                    encoding="utf-8")


def chain_obj(depth: int, prefix: str = "c") -> dict:
    """A stored repost chain: `depth` nested originals under the root <prefix>0."""
    obj = None
    for k in range(depth, -1, -1):
        node = tweet_obj(tid=f"{prefix}{k}", uid=f"u{k}", text=f"text{k}")
        if obj is not None:
            node["retweet"] = obj
        obj = node
    return obj


def chain(depth: int, prefix: str = "c") -> tuple[Tweet, ...]:
    """The record `chain_obj(depth, prefix)` flattens to."""
    return tuple(Tweet(f"{prefix}0" if k == 0 else f"{prefix}0#{k}", f"u{k}", f"text{k}", TS)
                 for k in range(depth + 1))


def test_timestamp_round_trip():
    assert parse_timestamp(WIRE_TS) == TS
    assert format_timestamp(TS) == WIRE_TS


def strptime_or_error(value: str):
    try:
        return datetime.strptime(value, TIMESTAMP_FORMAT)
    except ValueError:
        return ValueError


def parse_or_error(value: str):
    try:
        return parse_timestamp(value)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("value", [
    "2013-00-17T12:00:00", "2013-13-17T12:00:00",
    "2013-05-00T12:00:00", "2013-05-32T12:00:00", "2013-02-29T12:00:00",
    "2012-02-29T12:00:00",
    "2013-05-17T24:00:00", "2013-05-17T12:60:00",
    "2013-05-17T12:00:60", "2013-05-17T12:00:61",
    "0000-01-01T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:59:59",
    "2014-3-7T1:2:3", "2014-03-07T01:02:3", "999-01-01T00:00:00",
    "２０１４-03-07T01:02:03", "2014-０３-07T01:02:03",
    "2013-05-17 12:00:00", "2013-05-17T12:00:00Z", "2013-05-17T12:00:00\n", "",
])
def test_parse_timestamp_matches_strptime(value):
    assert parse_or_error(value) == strptime_or_error(value)


@given(st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}", fullmatch=True))
def test_parse_timestamp_matches_strptime_on_canonical_shapes(value):
    assert parse_or_error(value) == strptime_or_error(value)


@given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)))
def test_canonical_timestamps_round_trip_for_every_year(value):
    value = value.replace(microsecond=0)
    text = (f"{value.year:04d}-{value.month:02d}-{value.day:02d}T"
            f"{value.hour:02d}:{value.minute:02d}:{value.second:02d}")
    assert format_timestamp(value) == text
    assert parse_timestamp(text) == value
    assert format_timestamp(parse_timestamp(text)) == text


@pytest.mark.parametrize("bad", [123, None, ["2013-05-17T12:00:00"]])
def test_parse_timestamp_rejects_non_strings(bad):
    with pytest.raises(ValueError):
        parse_timestamp(bad)


def test_load_tweets_keeps_order_and_counts_malformed(tmp_path):
    path = tmp_path / "tweets.jsonl"
    lines = [
        json.dumps(tweet_obj(tid="t1")),
        "{not json",
        json.dumps({"user_id": "u1", "text": "x", "created_at": WIRE_TS}),
        json.dumps(tweet_obj(tid="t3", created="2013/05/17 12:00")),
        "",
        json.dumps([1, 2, 3]),
        json.dumps(tweet_obj(tid="t2")),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    records, skipped = load_tweets(path)
    assert [r[0].id for r in records] == ["t1", "t2"]
    assert skipped == 4


def test_load_tweets_clamps_long_text(tmp_path):
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [tweet_obj(text="医" * (TEXT_CLAMP + 25))])
    records, skipped = load_tweets(path)
    assert skipped == 0
    assert len(records[0][0].text) == TEXT_CLAMP


def test_load_tweets_parses_nested_repost(tmp_path):
    inner = tweet_obj(tid="t0", uid="u0", text="原文")
    outer = tweet_obj(tid="t1", uid="u1", text="转发", retweet=inner)
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [outer])
    records, skipped = load_tweets(path)
    assert skipped == 0
    assert records == [(Tweet("t1", "u1", "转发", TS), Tweet("t1#1", "u0", "原文", TS))]


def test_load_tweets_rejects_absurd_nesting(tmp_path):
    obj = tweet_obj(tid="deep0")
    for k in range(1, 70):
        obj = tweet_obj(tid=f"deep{k}", retweet=obj)
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [obj, tweet_obj(tid="ok")])
    records, skipped = load_tweets(path)
    assert [r[0].id for r in records] == ["ok"]
    assert skipped == 1


def test_load_tweets_skips_and_counts_invalid_utf8(tmp_path):
    path = tmp_path / "tweets.jsonl"
    good = [json.dumps(tweet_obj(tid=f"t{i}"), ensure_ascii=False).encode("utf-8")
            for i in range(3)]
    bad = json.dumps(tweet_obj(tid="bad", text="中医XX"), ensure_ascii=False).encode("utf-8")
    lines = [good[0], bad.replace(b"XX", b"\xff\xfe"), good[1], good[2]]
    path.write_bytes(b"\n".join(lines) + b"\n")
    records, skipped = load_tweets(path)
    assert [r[0].id for r in records] == ["t0", "t1", "t2"]
    assert skipped == 1


def test_load_tweets_keeps_the_first_record_of_a_repeated_id(tmp_path):
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [
        tweet_obj(tid="t1", text="第一"),
        tweet_obj(tid="t2"),
        tweet_obj(tid="t1", text="第二", retweet=tweet_obj(tid="t9")),
        tweet_obj(tid="t3"),
        tweet_obj(tid="t2"),
    ])
    records, skipped = load_tweets(path)
    assert [r[0].id for r in records] == ["t1", "t2", "t3"]
    assert records[0][0].text == "第一"
    assert skipped == 2
    ids = [t.id for t in split_retweets(records)]
    assert len(ids) == len(set(ids))


def test_load_tweets_skips_ids_that_collide_with_repost_positions(tmp_path):
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [
        tweet_obj(tid="a", retweet=tweet_obj(tid="a0", uid="u0")),
        tweet_obj(tid="a#1"),
        tweet_obj(tid="b", retweet=tweet_obj(tid="inner#1", uid="u0")),
    ])
    records, skipped = load_tweets(path)
    assert [r[0].id for r in records] == ["a", "b"]
    assert skipped == 1
    ids = [t.id for t in split_retweets(records)]
    assert ids == ["a", "a#1", "b", "b#1"]


@pytest.mark.parametrize("record", [
    tweet_obj(tid="b\tc"),
    tweet_obj(tid="b\nc"),
    tweet_obj(tid="b\rc"),
    tweet_obj(uid="u\t1"),
    tweet_obj(retweet=tweet_obj(tid="t0", uid="u\n0")),
])
def test_load_tweets_skips_ids_that_would_break_a_tsv_line(tmp_path, record):
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [tweet_obj(tid="t0"), record, tweet_obj(tid="t2")])
    records, skipped = load_tweets(path)
    assert [r[0].id for r in records] == ["t0", "t2"]
    assert skipped == 1


def test_load_tweets_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_tweets(tmp_path / "absent.jsonl")


def test_tweets_jsonl_round_trip(tmp_path):
    records = [chain(2), chain(0, "d"), (Tweet("x", "u", "中文 text", TS),)]
    path = tmp_path / "tweets.jsonl"
    write_tweets_jsonl(path, records)
    loaded, skipped = load_tweets(path)
    assert skipped == 0
    assert loaded == records


def test_tweets_jsonl_is_not_ascii_escaped(tmp_path):
    path = tmp_path / "tweets.jsonl"
    write_tweets_jsonl(path, [(Tweet("x", "u", "中医", TS),)])
    assert "中医" in path.read_text(encoding="utf-8")


def test_load_users_basic(tmp_path):
    path = tmp_path / "users.jsonl"
    write_jsonl(path, [
        {"user_id": "u1", "tags": ["中医爱好", " 养生 ", ""]},
        {"user_id": "u2"},
    ])
    users, skipped = load_users(path)
    assert skipped == 0
    assert users == [
        UserProfile("u1", ("中医爱好", "养生")),
        UserProfile("u2", ()),
    ]


def test_load_users_clamps_tags(tmp_path):
    path = tmp_path / "users.jsonl"
    write_jsonl(path, [{"user_id": "u1", "tags": [f"tag{i}" for i in range(15)]}])
    users, _ = load_users(path)
    assert users[0].tags == tuple(f"tag{i}" for i in range(MAX_TAGS))


def test_load_users_counts_malformed(tmp_path):
    path = tmp_path / "users.jsonl"
    lines = [
        json.dumps({"user_id": "u1", "tags": []}),
        json.dumps({"tags": ["x"]}),
        json.dumps({"user_id": "u2", "tags": "not-a-list"}),
        json.dumps({"user_id": "u3", "tags": ["ok", 7]}),
        "garbage",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    users, skipped = load_users(path)
    assert [u.user_id for u in users] == ["u1"]
    assert skipped == 4


def test_load_users_skips_and_counts_invalid_utf8(tmp_path):
    path = tmp_path / "users.jsonl"
    path.write_bytes(b'{"user_id":"u1","tags":[]}\n'
                     b'{"user_id":"u2","tags":["\xff\xfe"]}\n'
                     b'{"user_id":"u3","tags":[]}\n')
    users, skipped = load_users(path)
    assert [u.user_id for u in users] == ["u1", "u3"]
    assert skipped == 1


def test_a_leading_byte_order_mark_keeps_the_first_record(tmp_path):
    bom = "\ufeff"
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text(bom + json.dumps(tweet_obj(tid="a")) + "\n"
                      + json.dumps(tweet_obj(tid="b")) + "\n", encoding="utf-8")
    records, skipped = load_tweets(tweets)
    assert [r[0].id for r in records] == ["a", "b"]
    assert skipped == 0
    users = tmp_path / "users.jsonl"
    users.write_text(bom + '{"user_id":"u1","tags":["中医"]}\n{"user_id":"u2"}\n',
                     encoding="utf-8")
    assert load_users(users) == ([UserProfile("u1", ("中医",)), UserProfile("u2", ())], 0)

    # a BOM anywhere else is a malformed line
    tweets.write_text(json.dumps(tweet_obj(tid="a")) + "\n"
                      + bom + json.dumps(tweet_obj(tid="b")) + "\n", encoding="utf-8")
    records, skipped = load_tweets(tweets)
    assert [r[0].id for r in records] == ["a"]
    assert skipped == 1
    users.write_text('{"user_id":"u1"}\n' + bom + '{"user_id":"u2"}\n', encoding="utf-8")
    assert load_users(users) == ([UserProfile("u1", ())], 1)


def test_users_jsonl_round_trip(tmp_path):
    users = [UserProfile("u1", ("中医爱好", "养生")), UserProfile("u2", ())]
    path = tmp_path / "users.jsonl"
    write_users_jsonl(path, users)
    loaded, skipped = load_users(path)
    assert skipped == 0
    assert loaded == users


def test_split_plain_tweet_is_identity(tmp_path):
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [tweet_obj(tid="t9", uid="u9", text="  保留  空白　")])
    records, _ = load_tweets(path)
    tweets = split_retweets(records)
    assert tweets == [Tweet("t9", "u9", "  保留  空白　", TS)]


def test_split_chain_ids_positions_and_texts(tmp_path):
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [chain_obj(2)])
    records, _ = load_tweets(path)
    tweets = split_retweets(records)
    assert [t.id for t in tweets] == ["c0", "c0#1", "c0#2"]
    assert [t.user_id for t in tweets] == ["u0", "u1", "u2"]
    assert [t.text for t in tweets] == ["text0", "text1", "text2"]


def test_split_depth_limit_boundary(tmp_path):
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [chain_obj(MAX_CHAIN_DEPTH)])
    records, skipped = load_tweets(path)
    assert skipped == 0
    assert records == [chain(MAX_CHAIN_DEPTH)]
    assert len(split_retweets(records)) == MAX_CHAIN_DEPTH + 1 == 17
    write_jsonl(path, [chain_obj(MAX_CHAIN_DEPTH + 1)])
    assert load_tweets(path) == ([], 1)


def test_split_skips_only_the_offending_record(tmp_path):
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [tweet_obj(tid="a"), chain_obj(MAX_CHAIN_DEPTH + 1),
                       tweet_obj(tid="ok"), chain_obj(1, "d")])
    records, skipped = load_tweets(path)
    assert skipped == 1
    assert [t.id for t in split_retweets(records)] == ["a", "ok", "d0", "d0#1"]


def test_a_depth_rejected_record_does_not_reserve_its_id(tmp_path):
    path = tmp_path / "tweets.jsonl"
    write_jsonl(path, [chain_obj(MAX_CHAIN_DEPTH + 1, "x"), chain_obj(1, "x")])
    records, skipped = load_tweets(path)
    assert skipped == 1
    assert records == [chain(1, "x")]


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=8))
def test_split_conserves_posts_and_keeps_ids_unique(depths):
    objs = []
    for i, depth in enumerate(depths):
        objs.append(tweet_obj(tid=f"base{i}", uid=f"au{i}", text="root",
                              retweet=chain_obj(depth, f"b{i}n")))
    with tempfile.TemporaryDirectory() as tmp:
        write_jsonl(Path(tmp) / "tweets.jsonl", objs)
        records, skipped = load_tweets(Path(tmp) / "tweets.jsonl")
    assert skipped == 0
    tweets = split_retweets(records)
    assert len(tweets) == sum(d + 2 for d in depths)
    ids = [t.id for t in tweets]
    assert len(set(ids)) == len(ids)


def test_json_nested_too_deep_to_parse_is_skipped_and_counted(tmp_path):
    deep = b'{"a":' * 200_000
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_bytes(json.dumps(tweet_obj(tid="t0")).encode() + b"\n" + deep + b"\n"
                       + json.dumps(tweet_obj(tid="t1")).encode() + b"\n")
    records, skipped = load_tweets(tweets)
    assert [r[0].id for r in records] == ["t0", "t1"]
    assert skipped == 1
    users = tmp_path / "users.jsonl"
    users.write_bytes(b'{"user_id":"u1"}\n' + deep + b'\n{"user_id":"u2"}\n')
    profiles, skipped = load_users(users)
    assert [u.user_id for u in profiles] == ["u1", "u2"]
    assert skipped == 1
    assert main(["prep", "--tweets", str(tweets), "--out", str(tmp_path / "docs.jsonl")]) == 0


def _chain_line(root: str, uid: str, depth: int, text: str) -> bytes:
    obj = chain_obj(depth, "n")
    obj.update(id=root, user_id=uid)
    node = obj
    while node is not None:
        node["text"] = text
        node = node.get("retweet")
    return json.dumps(obj, ensure_ascii=False).encode("utf-8")


_ROOT_IDS = st.sampled_from(["a", "b", "c", "a#1", "b\tc", "c\rd", "d\ne", "中"])
_USER_IDS = st.sampled_from(["u1", "u2", "u\t3"])
# on-topic for either side, off-topic, an advertisement and one left empty
_TEXTS = st.sampled_from(["中医针灸有效", "中药推拿骗局", "经络穴位很好", "看中医", "text",
                          "中医针灸促销", "转发微博"])
_CHAIN_LINES = st.builds(_chain_line, _ROOT_IDS, _USER_IDS,
                         st.integers(0, MAX_CHAIN_DEPTH + 4), _TEXTS)
# well-formed, on-topic chains, so that some corpora can be trained on
_TOPIC_LINES = st.builds(_chain_line, st.sampled_from(["a", "b", "c", "中"]),
                         st.sampled_from(["u1", "u2"]), st.integers(0, 4),
                         st.sampled_from(["中医针灸有效", "中药推拿骗局", "经络穴位很好"]))
# the root authors above and the u<k> authors of nested positions:
# supporting, opposing, conflicting or without a stance
_PROFILES = [UserProfile("u0"), UserProfile("u1", ("中医爱好",)), UserProfile("u2", ("反中医",)),
             UserProfile("u\t3", ("中医爱好", "反中医")), UserProfile("u4", ("中医爱好",)),
             UserProfile("u5", ("旅行",))]


@st.composite
def _truncated_lines(draw) -> bytes:
    line = draw(_CHAIN_LINES)
    return line[:draw(st.integers(1, len(line) - 1))]


_HOSTILE_LINES = st.one_of(
    _CHAIN_LINES,
    _truncated_lines(),
    st.binary(max_size=40).map(lambda b: b"\xff" + b.replace(b"\n", b"")),  # never UTF-8
    st.just(b"  "),
)


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard error of one CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=30)
@given(st.lists(_HOSTILE_LINES, max_size=12), st.lists(_TOPIC_LINES, max_size=4))
def test_ingest_and_prep_survive_hostile_lines(hostile, topic):
    """Hostile tweet lines, interleaved with on-topic ones, through prep,
    label, train and predict."""
    lines = [line for pair in zip_longest(hostile, topic) for line in pair if line is not None]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        path = d / "tweets.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        records, skipped = load_tweets(path)
        assert len(records) + skipped == sum(1 for line in lines if line.strip())
        assert all(len(record) <= MAX_CHAIN_DEPTH + 1 for record in records)
        ids = [t.id for t in split_retweets(records)]
        assert len(ids) == len(set(ids))
        assert not any(set(tid) & {"\t", "\r", "\n"} for tid in ids)
        write_users_jsonl(d / "users.jsonl", _PROFILES)
        for argv in (
            ["prep", "--tweets", str(path), "--out", str(d / "docs.jsonl")],
            ["label", "--docs", str(d / "docs.jsonl"), "--users", str(d / "users.jsonl"),
             "--out", str(d / "labeled.jsonl"), "--remainder", str(d / "rest.jsonl")],
        ):
            code, err = _run(argv)
            assert code == 0, (argv, err)
        train = ["train", "--labeled", str(d / "labeled.jsonl"),
                 "--model-out", str(d / "model.txt"), "--features-out", str(d / "features.tsv")]
        code, err = _run(train)
        if {doc.label for doc in read_documents(d / "labeled.jsonl")} != set(Stance):
            assert (code, err) == (1, "error: chi-square statistics need examples of both "
                                      "classes\n")
            return
        assert code == 0, err
        code, err = _run(["predict", "--docs", str(d / "rest.jsonl"), "--model",
                          str(d / "model.txt"), "--features", str(d / "features.tsv"),
                          "--out", str(d / "preds.tsv")])
        assert code == 0, err
        with open(d / "preds.tsv", encoding="utf-8", newline="") as fh:
            predicted = [line.split("\t")[0] for line in fh]
        assert len(predicted) == len(set(predicted))
        assert predicted == [doc.tweet_id for doc in read_documents(d / "rest.jsonl")]


def test_dedupe_users_merges_in_first_seen_order():
    users = [
        UserProfile("u1", ("a", "b")),
        UserProfile("u2", ("c",)),
        UserProfile("u1", ("b", "d")),
    ]
    assert dedupe_users(users) == [
        UserProfile("u1", ("a", "b", "d")),
        UserProfile("u2", ("c",)),
    ]


def test_dedupe_users_caps_merged_tags():
    users = [
        UserProfile("u1", tuple(f"a{i}" for i in range(6))),
        UserProfile("u1", tuple(f"b{i}" for i in range(6))),
    ]
    merged = dedupe_users(users)[0]
    assert len(merged.tags) == MAX_TAGS
    assert merged.tags[:6] == tuple(f"a{i}" for i in range(6))


@given(st.lists(
    st.tuples(
        st.sampled_from(["u1", "u2", "u3"]),
        st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
    ),
    max_size=12,
))
def test_dedupe_users_is_idempotent(raw):
    users = [UserProfile(uid, tuple(tags)) for uid, tags in raw]
    once = dedupe_users(users)
    assert dedupe_users(once) == once
