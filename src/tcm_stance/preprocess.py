"""Text normalization: simplification, entity stripping, dictionary
segmentation, stopword removal and advertisement filtering."""

from __future__ import annotations

import re
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .corpus import Tweet, canonical_timestamp, check_id, decode_line
from .resources import Resources, TermList, located
from .stance import Stance

MAX_MATCH = 8  # longest lexicon entry the segmenter will consider

_URL_RE = re.compile(r"https?://\S+")
_MENTION_RE = re.compile(r"@\w{0,30}")
_BRACKET_RE = re.compile(r"\[[^\[\]]{0,8}\]")
_ASCII_EMOTICON_RE = re.compile(r":-\)|:-\(|:\)|:\(")
_PLATFORM_MARKERS = ("转发微博", "回复")
_WS_RE = re.compile(r"\s+")


class Document(NamedTuple):
    """A preprocessed tweet: token sequence plus carry-through identifiers
    and the tweet's canonical timestamp text."""

    tweet_id: str
    user_id: str
    created_at: str
    tokens: tuple[str, ...]
    label: Optional[Stance] = None


def to_simplified(text: str, simplify: Callable[[str], str]) -> str:
    """Replace each character of ``text`` that the char map holds, through
    the substitution derived from it (``Resources.simplify``)."""
    return simplify(text)


def strip_entities(text: str) -> str:
    """Drop URLs, @mentions, [bracketed] emoticon codes, ASCII emoticons and
    platform markers, then collapse whitespace runs.  Never grows the text.
    Each pattern runs only on a text that holds the literal every one of its
    matches starts with or contains, so a skipped run would have matched
    nothing."""
    if "http" in text:
        text = _URL_RE.sub("", text)
    if "@" in text:
        text = _MENTION_RE.sub("", text)
    if "[" in text:
        text = _BRACKET_RE.sub("", text)
    if ":" in text:
        text = _ASCII_EMOTICON_RE.sub("", text)
    for marker in _PLATFORM_MARKERS:
        text = text.replace(marker, "")
    return _WS_RE.sub(" ", text).strip()


def segment(text: str, lexicon: TermList) -> list[str]:
    """Forward maximum matching: longest lexicon prefix wins, single character
    fallback.  Concatenating the tokens reproduces the input exactly.

    At each position only the lengths above 1 that some lexicon term starting
    with that character has are probed, longest first, up to MAX_MATCH and
    the end of the text."""
    tokens: list[str] = []
    append = tokens.append
    lengths_of = lexicon.lengths_by_first_char.get
    contains = lexicon.__contains__
    i, n = 0, len(text)
    while i < n:
        match = text[i]
        lengths = lengths_of(match)
        if lengths:
            limit = n - i if n - i < MAX_MATCH else MAX_MATCH
            for length in lengths:
                if length <= limit:
                    cand = text[i:i + length]
                    if contains(cand):
                        match = cand
                        break
        append(match)
        i += len(match)
    return tokens


def remove_stopwords(tokens: Iterable[str], stoplist: TermList) -> list[str]:
    """The tokens, in order, that are neither terms of ``stoplist`` nor
    noise (``resources.is_noise_token``); each distinct token is judged once
    per stop list (``TermList.kept``)."""
    return list(filter(stoplist.kept.__getitem__, tokens))


def is_advertisement(tokens: Iterable[str], adlist: TermList) -> bool:
    return not adlist.members.isdisjoint(tokens)


def preprocess_tweet(tweet: Tweet, resources: Resources) -> Optional[Document]:
    """Full pipeline for one tweet; None when filtered out (ad or empty)."""
    text = to_simplified(tweet.text, resources.simplify)
    text = strip_entities(text)
    tokens = segment(text, resources.segment_lexicon)
    tokens = remove_stopwords(tokens, resources.stopwords)
    if not tokens or is_advertisement(tokens, resources.ad_keywords):
        return None
    return Document(tweet.id, tweet.user_id, tweet.created_at, tuple(tokens))


# ---------------------------------------------------------------------------
# document JSONL (pipeline-internal file format)

# what follows the tokens on a line: the label, if any, and the closing brace
_LINE_ENDS = {None: "}\n"} | {
    stance: f',"label":{encode_basestring(stance.wire)}}}\n' for stance in Stance}


class _Literals(dict):
    """str -> its JSON string literal, encoded the first time it is looked up."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = encode_basestring(text)
        return literal


_BAD_TOKENS = "tokens must be a list of non-empty strings"


class SharedStrings(dict):
    """str -> the first equal str looked up, so that documents read together
    share one string per distinct token and user id.  A key is checked the
    first time it is looked up, so each distinct token is checked once: one
    that is not a non-empty string is refused, and a string must pass the id
    rule (``check_id``), since a token that holds a tab, CR, LF or lone
    surrogate could not be written to a feature or predictions TSV.  Only
    checked strings are stored, so a lookup of anything else always reaches
    the check; an unhashable key raises TypeError before it."""

    def __missing__(self, text: object) -> str:
        if not isinstance(text, str) or not text:
            raise ValueError(_BAD_TOKENS)
        self[text] = check_id("token", text)
        return text


def document_from_obj(obj: object, strings: SharedStrings) -> Document:
    """Check one decoded record and return its Document.  The user id and
    each token become their shared string in ``strings``, which checks each
    distinct token."""
    if not isinstance(obj, dict):
        raise ValueError("document record must be a JSON object")
    tweet_id = check_id("tweet_id", obj.get("tweet_id"))
    user_id = check_id("user_id", obj.get("user_id"))
    tokens = obj.get("tokens")
    if not isinstance(tokens, list):
        raise ValueError(_BAD_TOKENS)
    try:
        tokens = tuple(map(strings.__getitem__, tokens))
    except TypeError:  # an unhashable token: a list or an object
        raise ValueError(_BAD_TOKENS) from None
    label = obj.get("label")
    return Document._make((tweet_id, strings[user_id], canonical_timestamp(obj.get("created_at")),
                           tokens, None if label is None else Stance.from_wire(label)))


def write_documents(path: str | Path, docs: Iterable[Document]) -> int:
    """Write one compact JSON line per document; returns their count.  A
    line is the bytes ``write_jsonl`` gives the document's object, fields in
    the order tweet_id, user_id, created_at, tokens and label (when set).
    User ids and tokens repeat, so each is encoded once per call."""
    literal = _Literals().__getitem__
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write = fh.write
        for count, doc in enumerate(docs, 1):
            write(f'{{"tweet_id":{encode_basestring(doc.tweet_id)},'
                  f'"user_id":{literal(doc.user_id)},'
                  f'"created_at":"{doc.created_at}",'
                  f'"tokens":[{",".join(map(literal, doc.tokens))}]{_LINE_ENDS[doc.label]}')
    return count


def iter_documents(path: str | Path) -> Iterator[Document]:
    """Stream the documents of a documents file (``document_from_obj``); a
    bad record stops the stream with ``path:line``."""
    # decoding gives every occurrence its own str; one per distinct token
    # and user id holds a labeled set in about half the memory
    strings = SharedStrings()
    with located(path) as lines:
        for line in lines:
            yield document_from_obj(decode_line(line), strings)


def read_documents(path: str | Path) -> list[Document]:
    return list(iter_documents(path))
