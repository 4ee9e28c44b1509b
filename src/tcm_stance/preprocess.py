"""Text normalization: simplification, entity stripping, dictionary
segmentation, stopword removal and advertisement filtering."""

from __future__ import annotations

import functools
import json
import re
import unicodedata
from dataclasses import dataclass
from datetime import datetime
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .corpus import Tweet, format_timestamp, parse_timestamp, write_jsonl
from .resources import Resources, TermList, read_lines
from .stance import Stance

MAX_MATCH = 8  # longest lexicon entry the segmenter will consider

_URL_RE = re.compile(r"https?://\S+")
_MENTION_RE = re.compile(r"@\w{0,30}")
_BRACKET_RE = re.compile(r"\[[^\[\]]{0,8}\]")
_ASCII_EMOTICON_RE = re.compile(r":-\)|:-\(|:\)|:\(")
_PLATFORM_MARKERS = ("转发微博", "回复")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class Document:
    """A preprocessed tweet: token sequence plus carry-through identifiers."""

    tweet_id: str
    user_id: str
    created_at: datetime
    tokens: tuple[str, ...]
    label: Optional[Stance] = None


def to_simplified(text: str, table: Mapping[int, str]) -> str:
    """Map characters through a ``str.maketrans`` table of the char map
    (``Resources.simplify_table``)."""
    return text.translate(table)


def strip_entities(text: str) -> str:
    """Drop URLs, @mentions, [bracketed] emoticon codes, ASCII emoticons and
    platform markers, then collapse whitespace runs.  Never grows the text."""
    text = _URL_RE.sub("", text)
    text = _MENTION_RE.sub("", text)
    text = _BRACKET_RE.sub("", text)
    text = _ASCII_EMOTICON_RE.sub("", text)
    for marker in _PLATFORM_MARKERS:
        text = text.replace(marker, "")
    return _WS_RE.sub(" ", text).strip()


def segment(text: str, lexicon: TermList) -> list[str]:
    """Forward maximum matching: longest lexicon prefix wins, single character
    fallback.  Concatenating the tokens reproduces the input exactly.

    At each position only the lengths the lexicon's first-character table
    allows are probed: from the longest term starting with that character
    (capped at MAX_MATCH) down to 2."""
    tokens: list[str] = []
    append = tokens.append
    longest = lexicon.longest_by_first_char.get
    contains = lexicon.__contains__
    i, n = 0, len(text)
    while i < n:
        match = text[i]
        # length-1 lookups are skipped: a single-char lexicon hit and the
        # fallback emit the same token either way
        top = longest(match, 0)
        if top > 1:
            for length in range(min(MAX_MATCH, top, n - i), 1, -1):
                cand = text[i:i + length]
                if contains(cand):
                    match = cand
                    break
        append(match)
        i += len(match)
    return tokens


# Memoised, since the answer depends on the token string alone.  Segmenter
# output is lexicon entries and single characters, so the working set is at
# most the segmentation lexicon plus the input's distinct characters;
# maxsize caps the cache for any other caller.
@functools.lru_cache(maxsize=1 << 16)
def _is_noise_token(token: str) -> bool:
    # pure punctuation/symbols or pure whitespace (incl. control chars)
    return all(unicodedata.category(ch)[0] in "PSZC" for ch in token)


def remove_stopwords(tokens: Iterable[str], stoplist: TermList) -> list[str]:
    stopwords = stoplist.members
    return [t for t in tokens if not (t in stopwords or _is_noise_token(t))]


def is_advertisement(tokens: Iterable[str], adlist: TermList) -> bool:
    return not adlist.members.isdisjoint(tokens)


def preprocess_tweet(tweet: Tweet, resources: Resources) -> Optional[Document]:
    """Full pipeline for one tweet; None when filtered out (ad or empty)."""
    text = to_simplified(tweet.text, resources.simplify_table)
    text = strip_entities(text)
    tokens = segment(text, resources.segment_lexicon)
    tokens = remove_stopwords(tokens, resources.stopwords)
    if not tokens or is_advertisement(tokens, resources.ad_keywords):
        return None
    return Document(tweet.id, tweet.user_id, tweet.created_at, tuple(tokens))


# ---------------------------------------------------------------------------
# document JSONL (pipeline-internal file format)

def document_to_obj(doc: Document) -> dict:
    obj: dict = {
        "tweet_id": doc.tweet_id,
        "user_id": doc.user_id,
        "created_at": format_timestamp(doc.created_at),
        "tokens": list(doc.tokens),
    }
    if doc.label is not None:
        obj["label"] = doc.label.wire
    return obj


def document_from_obj(obj: object) -> Document:
    if not isinstance(obj, dict):
        raise ValueError("document record must be a JSON object")
    tweet_id = obj.get("tweet_id")
    user_id = obj.get("user_id")
    tokens = obj.get("tokens")
    if not isinstance(tweet_id, str) or not tweet_id:
        raise ValueError("missing or empty tweet_id")
    if not isinstance(user_id, str) or not user_id:
        raise ValueError("missing or empty user_id")
    if (not isinstance(tokens, list) or not all(map(isinstance, tokens, repeat(str)))
            or "" in tokens):
        raise ValueError("tokens must be a list of non-empty strings")
    label = obj.get("label")
    return Document(
        tweet_id=tweet_id,
        user_id=user_id,
        created_at=parse_timestamp(obj.get("created_at")),
        tokens=tuple(tokens),
        label=None if label is None else Stance.from_wire(label),
    )


def write_documents(path: str | Path, docs: Iterable[Document]) -> None:
    write_jsonl(path, map(document_to_obj, docs))


def read_documents(path: str | Path) -> list[Document]:
    docs = []
    for lineno, line in read_lines(path):
        try:
            docs.append(document_from_obj(json.loads(line)))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return docs


def relabel(doc: Document, label: Optional[Stance]) -> Document:
    return Document(doc.tweet_id, doc.user_id, doc.created_at, doc.tokens, label)
