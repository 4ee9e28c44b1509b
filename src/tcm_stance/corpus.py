"""Ingestion of tweets and user profiles from line-oriented JSON files.

A stored post may carry its repost chain as a nested record under the
"retweet" key.  ``split_retweets`` flattens each chain so that every post,
original or reposted, becomes one standalone text unit attributed to its own
author and timestamp.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Optional

TEXT_CLAMP = 280            # repost commentary can double the 140-char post limit
MAX_CHAIN_DEPTH = 16
MAX_TAGS = 10
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"
# the zero-padded form format_timestamp writes; ASCII digits only, since
# strptime also reads other Unicode digits and keeps that path
_CANONICAL_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}")
# tab, CR and LF would break a line of the predictions TSV; "#" in a
# top-level id is reserved for split_retweets' "<id>#k" positions
_TSV_BREAKERS = frozenset("\t\r\n")

# parse-side guard only; the 16-deep business rule is enforced in split_retweets
_PARSE_DEPTH_CAP = 64


@dataclass(frozen=True)
class RawTweet:
    id: str
    user_id: str
    text: str
    created_at: datetime
    retweet: Optional["RawTweet"] = None


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


def _parse_chain(obj: object) -> RawTweet:
    nodes = []
    cur = obj
    while cur is not None:
        if not isinstance(cur, dict):
            raise ValueError("tweet record must be a JSON object")
        nodes.append(cur)
        if len(nodes) > _PARSE_DEPTH_CAP:
            raise ValueError("repost chain implausibly deep")
        cur = cur.get("retweet")

    built: RawTweet | None = None
    for node in reversed(nodes):
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
        built = RawTweet(
            id=tid,
            user_id=uid,
            text=text[:TEXT_CLAMP],
            created_at=parse_timestamp(node.get("created_at")),
            retweet=built,
        )
    assert built is not None
    if "#" in built.id or not _TSV_BREAKERS.isdisjoint(built.id):
        raise ValueError("id contains '#', a tab or a line break")
    return built


def load_tweets(path: str | Path) -> tuple[list[RawTweet], int]:
    """Read a tweets.jsonl file.

    Returns the well-formed records in file order plus a count of skipped
    lines: malformed ones (invalid UTF-8 included), repeats of an id already
    read, and records whose id contains "#", a tab, CR or LF or whose chain
    has a user_id with a tab, CR or LF.  An unreadable file raises OSError.
    """
    raws: list[RawTweet] = []
    seen: set[str] = set()
    skipped = 0
    with open(path, "rb") as fh:
        for line in fh:
            try:
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                raw = _parse_chain(json.loads(text))
                if raw.id in seen:
                    raise ValueError("duplicate id")
                seen.add(raw.id)
                raws.append(raw)
            except (ValueError, TypeError):
                skipped += 1
    return raws, skipped


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
            except (ValueError, TypeError):
                skipped += 1
    return users, skipped


def split_retweets(raws: Iterable[RawTweet]) -> list[Tweet]:
    """Flatten repost chains into standalone tweets.

    Position k in a chain is emitted with id ``<base id>#k`` (the original
    keeps its id), so output ids stay unique as long as input ids are unique
    and free of "#", which ``load_tweets`` ensures.
    Records nested deeper than MAX_CHAIN_DEPTH are rejected whole.
    """
    tweets: list[Tweet] = []
    for raw in raws:
        chain = []
        node: RawTweet | None = raw
        while node is not None and len(chain) <= MAX_CHAIN_DEPTH + 1:
            chain.append(node)
            node = node.retweet
        if len(chain) - 1 > MAX_CHAIN_DEPTH:
            continue
        for pos, entry in enumerate(chain):
            tid = raw.id if pos == 0 else f"{raw.id}#{pos}"
            tweets.append(Tweet(tid, entry.user_id, entry.text, entry.created_at))
    return tweets


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

def raw_tweet_to_obj(raw: RawTweet) -> dict:
    obj: dict = {
        "id": raw.id,
        "user_id": raw.user_id,
        "text": raw.text,
        "created_at": format_timestamp(raw.created_at),
    }
    if raw.retweet is not None:
        obj["retweet"] = raw_tweet_to_obj(raw.retweet)
    return obj


def user_to_obj(user: UserProfile) -> dict:
    return {"user_id": user.user_id, "tags": list(user.tags)}


def write_tweets_jsonl(path: str | Path, raws: Iterable[RawTweet]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for raw in raws:
            fh.write(json.dumps(raw_tweet_to_obj(raw), ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def write_users_jsonl(path: str | Path, users: Iterable[UserProfile]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user in users:
            fh.write(json.dumps(user_to_obj(user), ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
