"""Ingestion of tweets and user profiles from line-oriented JSON files.

A stored post may carry its repost chain as a nested record under the
"retweet" key.  ``load_tweets`` flattens each chain in one pass so that every
post, original or reposted, becomes one standalone ``Tweet`` attributed to its
own author and timestamp; ``split_retweets`` concatenates the records.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable

TEXT_CLAMP = 280            # repost commentary can double the 140-char post limit
MAX_CHAIN_DEPTH = 16
MAX_TAGS = 10
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"
# the zero-padded form format_timestamp writes; ASCII digits only, since
# strptime also reads other Unicode digits and keeps that path
_CANONICAL_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}")
# tab, CR and LF would break a line of the predictions TSV; "#" in a
# top-level id is reserved for the "<id>#k" ids of repost positions
_TSV_BREAKERS = frozenset("\t\r\n")


@dataclass(frozen=True)
class Tweet:
    """One flattened post; reposted entries get ids suffixed ``base#k``."""

    id: str
    user_id: str
    text: str
    created_at: datetime


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    tags: tuple[str, ...] = ()


def parse_timestamp(value: object) -> datetime:
    """Read TIMESTAMP_FORMAT.  The canonical zero-padded form takes the fast
    ``fromisoformat`` path; anything else (unpadded fields, non-ASCII digits)
    goes to ``strptime``, which accepts and rejects exactly what it always did."""
    if not isinstance(value, str):
        raise ValueError("created_at must be a string")
    if _CANONICAL_TIMESTAMP.fullmatch(value):
        return datetime.fromisoformat(value)
    return datetime.strptime(value, TIMESTAMP_FORMAT)


def format_timestamp(value: datetime) -> str:
    """Zero-padded ``YYYY-MM-DDTHH:MM:SS``, four-digit year included."""
    return value.isoformat(timespec="seconds")


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
        uid = node.get("user_id")
        text = node.get("text")
        if not isinstance(tid, str) or not tid:
            raise ValueError("missing or empty id")
        if not isinstance(uid, str) or not uid:
            raise ValueError("missing or empty user_id")
        if not _TSV_BREAKERS.isdisjoint(uid):
            raise ValueError("user_id contains a tab or line break")
        if not isinstance(text, str):
            raise ValueError("text must be a string")
        if tweets:
            tid = f"{tweets[0].id}#{len(tweets)}"
        elif "#" in tid or not _TSV_BREAKERS.isdisjoint(tid):
            raise ValueError("id contains '#', a tab or a line break")
        tweets.append(Tweet(tid, uid, text[:TEXT_CLAMP], parse_timestamp(node.get("created_at"))))
        node = node.get("retweet")
    return tuple(tweets)


def load_tweets(path: str | Path) -> tuple[list[tuple[Tweet, ...]], int]:
    """Read a tweets.jsonl file.

    Returns one record per kept line in file order, each its flattened repost
    chain with the root first, plus a count of skipped lines: malformed ones
    (invalid UTF-8 and JSON nested too deep to parse included), chains deeper
    than MAX_CHAIN_DEPTH, repeats of a root id already kept, and records whose
    id contains "#", a tab, CR or LF or whose chain has a user_id with a tab,
    CR or LF.  An unreadable file raises OSError.
    """
    records: list[tuple[Tweet, ...]] = []
    seen: set[str] = set()
    skipped = 0
    with open(path, "rb") as fh:
        for line in fh:
            try:
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                record = _flatten(json.loads(text))
                if record[0].id in seen:
                    raise ValueError("duplicate id")
                seen.add(record[0].id)
                records.append(record)
            except (ValueError, TypeError, RecursionError):
                skipped += 1
    return records, skipped


def load_users(path: str | Path) -> tuple[list[UserProfile], int]:
    """Read a users.jsonl file; returns (profiles, skipped line count)."""
    users: list[UserProfile] = []
    skipped = 0
    with open(path, "rb") as fh:
        for line in fh:
            try:
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                obj = json.loads(text)
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
                users.append(UserProfile(uid, tuple(tags[:MAX_TAGS])))
            except (ValueError, TypeError, RecursionError):
                skipped += 1
    return users, skipped


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
# serialization helpers (used by the synthetic generator and the CLI)

def user_to_obj(user: UserProfile) -> dict:
    return {"user_id": user.user_id, "tags": list(user.tags)}


def write_tweets_jsonl(path: str | Path, records: Iterable[tuple[Tweet, ...]]) -> None:
    """Write each record as one line, its tail nested under "retweet"."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            obj = None
            for tweet in reversed(record):
                node: dict = {
                    "id": tweet.id,
                    "user_id": tweet.user_id,
                    "text": tweet.text,
                    "created_at": format_timestamp(tweet.created_at),
                }
                if obj is not None:
                    node["retweet"] = obj
                obj = node
            fh.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def write_users_jsonl(path: str | Path, users: Iterable[UserProfile]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user in users:
            fh.write(json.dumps(user_to_obj(user), ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
