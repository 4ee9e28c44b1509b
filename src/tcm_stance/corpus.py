"""Ingestion of tweets and user profiles from line-oriented JSON files.

A stored post may carry its repost chain as a nested record under the
"retweet" key.  ``load_tweets`` flattens each chain in one pass so that every
post, original or reposted, becomes one standalone ``Tweet`` attributed to its
own author and timestamp; ``split_retweets`` concatenates the records.
"""

from __future__ import annotations

import codecs
import json
import re
from dataclasses import dataclass
from datetime import date, datetime
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

TEXT_CLAMP = 280            # repost commentary can double the 140-char post limit
MAX_CHAIN_DEPTH = 16
MAX_TAGS = 10
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"
# the zero-padded form format_timestamp writes, which records carry; ASCII
# digits only, since strptime also reads other Unicode digits and keeps that path
_CANONICAL_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}")
# tab, CR and LF would break a line of the predictions TSV; "#" in a
# top-level id is reserved for the "<id>#k" ids of repost positions
_TSV_BREAKERS = frozenset("\t\r\n")
# json.loads joins escaped surrogate pairs, so a surrogate left in a str is
# a lone one, which no UTF-8 output can hold
_SURROGATE = re.compile("[\ud800-\udfff]")
# the C scanner behind json.loads, configured as json.loads configures it
_SCAN = json.JSONDecoder().scan_once


class Tweet(NamedTuple):
    """One flattened post; reposted entries get ids suffixed ``base#k``.
    ``created_at`` is canonical timestamp text (``canonical_timestamp``)."""

    id: str
    user_id: str
    text: str
    created_at: str


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    tags: tuple[str, ...] = ()


def decode_line(text: str) -> object:
    """``json.loads(text)`` by a shorter path for the common line: the
    scanner's value is kept only when it spans the whole string.  Anything
    else (whitespace around the value, a BOM, extra data, a scanner error)
    goes to ``json.loads``, so every result and every error is the standard
    library's.  A RecursionError propagates from either call alike."""
    try:
        obj, end = _SCAN(text, 0)
    except (StopIteration, ValueError):
        return json.loads(text)
    return obj if end == len(text) else json.loads(text)


def canonical_timestamp(value: object) -> str:
    """Read TIMESTAMP_FORMAT and return the zero-padded text that
    ``format_timestamp`` writes for it.  Text already in that form is
    range-checked by ``fromisoformat`` and returned as it is; anything else
    (unpadded fields, non-ASCII digits) goes to ``strptime``, which accepts
    and rejects exactly what it always did, and is formatted once."""
    if not isinstance(value, str):
        raise ValueError("created_at must be a string")
    if _CANONICAL_TIMESTAMP.fullmatch(value):
        datetime.fromisoformat(value)
        return value
    return format_timestamp(datetime.strptime(value, TIMESTAMP_FORMAT))


def timestamp_date(text: str) -> date:
    """The calendar date of canonical timestamp text."""
    return date.fromisoformat(text[:10])


def format_timestamp(value: datetime) -> str:
    """Zero-padded ``YYYY-MM-DDTHH:MM:SS``, four-digit year included, plus
    the UTC offset of an aware value: ``isoformat(timespec="seconds")``.
    Without microseconds a bare ``isoformat()`` gives the same text and
    skips parsing a keyword."""
    return value.isoformat(timespec="seconds") if value.microsecond else value.isoformat()


def unsafe_id(value: str) -> bool:
    """True when an id holds a tab, CR, LF or lone surrogate, any of which
    would break the line or the UTF-8 encoding of an output file.  All four
    are unprintable, so a printable id, the common case, is one C scan."""
    return not value.isprintable() and (
        not _TSV_BREAKERS.isdisjoint(value)
        or (not value.isascii() and _SURROGATE.search(value) is not None))


def check_id(name: str, value: object) -> str:
    """``value``, if it is a non-empty string that ``unsafe_id`` passes."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"missing or empty {name}")
    if not value.isprintable() and unsafe_id(value):  # skips a call for the common id
        raise ValueError(f"{name} contains a tab, a line break or a lone surrogate")
    return value


def _flatten(obj: object) -> tuple[Tweet, ...]:
    """Check one record node by node and flatten its repost chain, root first.

    The root keeps its id; position k gets ``<root id>#k``.  A chain nested
    deeper than MAX_CHAIN_DEPTH raises ValueError like any other bad node.
    """
    tweets: list[Tweet] = []
    node = obj
    while node is not None:
        if len(tweets) > MAX_CHAIN_DEPTH:
            raise ValueError("repost chain deeper than MAX_CHAIN_DEPTH")
        if not isinstance(node, dict):
            raise ValueError("tweet record must be a JSON object")
        tid = node.get("id")
        text = node.get("text")
        if not isinstance(tid, str) or not tid:
            raise ValueError("missing or empty id")
        uid = check_id("user_id", node.get("user_id"))
        if not isinstance(text, str):
            raise ValueError("text must be a string")
        if tweets:
            tid = f"{tweets[0].id}#{len(tweets)}"
        elif "#" in tid or unsafe_id(tid):
            raise ValueError("id contains '#', a tab, a line break or a lone surrogate")
        tweets.append(Tweet(tid, uid, text[:TEXT_CLAMP],
                            canonical_timestamp(node.get("created_at"))))
        node = node.get("retweet")
    return tuple(tweets)


def _ingest(path: str | Path, parse: Callable[[object], object]) -> tuple[list, int]:
    """Parse each non-blank JSONL line; returns (records, skipped count).  A
    line with bad UTF-8 or JSON, or that ``parse`` rejects, is skipped.  A
    BOM is dropped from the first line only."""
    records = []
    skipped = 0
    with open(path, "rb") as fh:
        for line in chain((fh.readline().removeprefix(codecs.BOM_UTF8),), fh):
            try:
                text = line.decode("utf-8").strip()
                if text:
                    records.append(parse(decode_line(text)))
            except (ValueError, TypeError, RecursionError):
                skipped += 1
    return records, skipped


def load_tweets(path: str | Path) -> tuple[list[tuple[Tweet, ...]], int]:
    """Read a tweets.jsonl file.

    Returns one record per kept line in file order, each its flattened repost
    chain with the root first, plus a count of skipped lines: malformed ones
    (invalid UTF-8 and JSON nested too deep to parse included), chains deeper
    than MAX_CHAIN_DEPTH, repeats of a root id already kept, and records whose
    id contains "#" or an ``unsafe_id`` character or whose chain has a
    user_id with one.  An unreadable file raises OSError.
    """
    seen: set[str] = set()

    def parse(obj: object) -> tuple[Tweet, ...]:
        record = _flatten(obj)
        if record[0].id in seen:
            raise ValueError("duplicate id")
        seen.add(record[0].id)
        return record

    return _ingest(path, parse)


def _parse_user(obj: object) -> UserProfile:
    if not isinstance(obj, dict):
        raise ValueError("user record must be a JSON object")
    uid = obj.get("user_id")
    if not isinstance(uid, str) or not uid:
        raise ValueError("missing or empty user_id")
    raw_tags = obj.get("tags", [])
    if not isinstance(raw_tags, list):
        raise ValueError("tags must be a list")
    tags = []
    for tag in raw_tags:
        if not isinstance(tag, str):
            raise ValueError("tags must be strings")
        tag = tag.strip()
        if tag:
            tags.append(tag)
    return UserProfile(uid, tuple(tags[:MAX_TAGS]))


def load_users(path: str | Path) -> tuple[list[UserProfile], int]:
    """Read a users.jsonl file; returns (profiles, skipped line count)."""
    return _ingest(path, _parse_user)


def split_retweets(records: Iterable[tuple[Tweet, ...]]) -> list[Tweet]:
    """Concatenate flattened records into one list of standalone tweets."""
    return [tweet for record in records for tweet in record]


def dedupe_users(users: Iterable[UserProfile]) -> list[UserProfile]:
    """Merge duplicate profiles: first-seen order, tag union capped at MAX_TAGS."""
    merged: dict[str, list[str]] = {}
    for user in users:
        tags = merged.setdefault(user.user_id, [])
        for tag in user.tags:
            if tag not in tags:
                tags.append(tag)
    return [UserProfile(uid, tuple(tags[:MAX_TAGS])) for uid, tags in merged.items()]


# ---------------------------------------------------------------------------
# serialization helpers (used by the synthetic generator, preprocess and the CLI)

_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def write_jsonl(path: str | Path, objs: Iterable[object]) -> None:
    """Write each object as one compact JSON line, non-ASCII kept as is."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objs:
            fh.write(_ENCODER.encode(obj) + "\n")


def _record_to_obj(record: tuple[Tweet, ...]) -> dict:
    obj = None
    for tweet in reversed(record):
        node: dict = {
            "id": tweet.id,
            "user_id": tweet.user_id,
            "text": tweet.text,
            "created_at": tweet.created_at,
        }
        if obj is not None:
            node["retweet"] = obj
        obj = node
    return obj


def write_tweets_jsonl(path: str | Path, records: Iterable[tuple[Tweet, ...]]) -> None:
    """Write each record as one line, its tail nested under "retweet"."""
    write_jsonl(path, map(_record_to_obj, records))


def write_users_jsonl(path: str | Path, users: Iterable[UserProfile]) -> None:
    write_jsonl(path, ({"user_id": user.user_id, "tags": list(user.tags)} for user in users))
