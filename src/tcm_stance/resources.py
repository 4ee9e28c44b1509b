"""Lexicon resources and their plain-text loaders.

Six resources drive the pipeline: the segmentation word list, the domain
terminology list, stopwords, advertisement keywords, the traditional to
simplified character map and the profile-tag stance lexicon.  Seed versions
of each ship under ``data/``; all are meant to be replaced or extended by
larger files of the same format.
"""

from __future__ import annotations

import re
import unicodedata
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .stance import Stance


class ResourceFormatError(ValueError):
    pass


# the most tokens a TermList's keep map holds, which bounds its memory
# whatever the input; a token past that is judged on every lookup
KEPT_SIZE = 1 << 16


def is_noise_token(token: str) -> bool:
    """True when every character is punctuation, a symbol, a separator
    (whitespace included) or a control character: a token that a stopword
    filter drops whatever its list."""
    return all(unicodedata.category(ch)[0] in "PSZC" for ch in token)


class _Kept(dict):
    """token -> False when a stopword filter over ``members`` drops it (a
    member or a noise token), else True; filled the first time a token is
    looked up, up to KEPT_SIZE tokens."""

    def __init__(self, members: frozenset[str]) -> None:
        super().__init__()
        self.members = members

    def __missing__(self, token: str) -> bool:
        keep = not (token in self.members or is_noise_token(token))
        if len(self) < KEPT_SIZE:
            self[token] = keep
        return keep


@dataclass(frozen=True)
class TermList:
    """Ordered set of non-empty, whitespace-trimmed terms with O(1) membership."""

    terms: tuple[str, ...]
    # the terms as a frozenset, for membership tests in hot loops without a
    # Python-level ``__contains__`` call per test
    members: frozenset[str] = field(init=False, repr=False, compare=False)
    # token -> whether a stopword filter over this list keeps it: False for
    # a term or an ``is_noise_token``, True otherwise; each distinct token is
    # judged once and remembered with the list
    kept: Mapping[str, bool] = field(init=False, repr=False, compare=False)
    # the distinct lengths above 1 of the terms starting with each character,
    # longest first; characters with no such term are absent.  The segmenter
    # never probes length 1, since a one-character term and its
    # single-character fallback are the same token
    lengths_by_first_char: Mapping[str, tuple[int, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = set()
        lengths: dict[str, set[int]] = {}
        for term in self.terms:
            if not isinstance(term, str) or not term or term != term.strip():
                raise ValueError(f"bad term: {term!r}")
            if term in seen:
                raise ValueError(f"duplicate term: {term!r}")
            seen.add(term)
            if len(term) > 1:
                lengths.setdefault(term[0], set()).add(len(term))
        members = frozenset(self.terms)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "kept", _Kept(members))
        object.__setattr__(self, "lengths_by_first_char", {
            first: tuple(sorted(sizes, reverse=True)) for first, sizes in lengths.items()})

    @classmethod
    def of(cls, terms: Iterable[str]) -> "TermList":
        """Normalizing constructor: trims, drops empties, keeps first occurrence."""
        cleaned: dict[str, None] = {}
        for term in terms:
            term = term.strip()
            if term:
                cleaned.setdefault(term, None)
        return cls(tuple(cleaned))

    def __contains__(self, term: object) -> bool:
        return term in self.members

    def __iter__(self) -> Iterator[str]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


# tag → stance; exact string match against profile tags
TagLexicon = dict[str, Stance]
# single traditional character → single simplified character
CharMap = dict[str, str]


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    r"""Stream (line number, line) for each non-blank line of a UTF-8 file.
    Lines end at "\n" only (not U+2028, U+0085, ...), minus a "\r" before
    it; a leading BOM is dropped; invalid UTF-8 is reported with its byte
    offset, the BOM counted."""
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.isspace():
                    yield lineno, line.removesuffix("\n").removesuffix("\r")
    except UnicodeDecodeError as exc:
        # the text layer decodes in chunks, so its offsets are chunk-relative
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as found:
            exc = found
        raise ResourceFormatError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from exc


def _data_rows(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped line), skipping # comments."""
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line.startswith("#"):
            yield lineno, line


class located(AbstractContextManager):
    """Lines of a strict file, or given (line number, line) ``rows`` of it,
    for a ``with`` block that refuses a bad one: a ValueError or
    RecursionError raised there becomes a ResourceFormatError that reads
    "path:line: message", ``lineno`` being the line last handed out, or
    "path: message" before the first.  A ResourceFormatError passes through."""

    def __init__(self, path: str | Path, rows: Iterable[tuple[int, str]] | None = None) -> None:
        self.path = path
        self.rows = rows
        self.lineno: int | None = None

    def __iter__(self) -> Iterator[str]:
        for self.lineno, line in read_lines(self.path) if self.rows is None else self.rows:
            yield line

    def __exit__(self, exc_type: type | None, exc: BaseException | None, tb: object) -> None:
        if isinstance(exc, (ValueError, RecursionError)) and not isinstance(exc, ResourceFormatError):
            where = self.path if self.lineno is None else f"{self.path}:{self.lineno}"
            raise ResourceFormatError(f"{where}: {exc}") from exc


def load_term_list(path: str | Path) -> TermList:
    return TermList.of(line for _, line in _data_rows(path))


def load_tag_lexicon(path: str | Path) -> TagLexicon:
    lexicon: TagLexicon = {}
    with located(path, _data_rows(path)) as lines:
        for line in lines:
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise ValueError("expected 'tag<TAB>stance'")
            tag, stance = parts[0].strip(), Stance.from_wire(parts[1].strip())
            if tag in lexicon and lexicon[tag] is not stance:
                raise ValueError(f"conflicting stance for tag {tag!r}")
            lexicon[tag] = stance
    return lexicon


def load_char_map(path: str | Path) -> CharMap:
    cmap: CharMap = {}
    with located(path, _data_rows(path)) as lines:
        for line in lines:
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError("expected 'char<TAB>char'")
            trad, simp = parts[0].strip(), parts[1].strip()
            if len(trad) != 1 or len(simp) != 1:
                raise ValueError("cells must be single characters")
            if trad == simp:
                continue
            if trad in cmap and cmap[trad] != simp:
                raise ValueError(f"conflicting mapping for {trad!r}")
            cmap[trad] = simp
    return cmap


DATA_DIR = Path(__file__).parent / "data"

DEFAULT_PATHS: dict[str, Path] = {
    "segmentation_lexicon": DATA_DIR / "segmentation.txt",
    "terminology_lexicon": DATA_DIR / "terminology.txt",
    "stopword_list": DATA_DIR / "stopwords.txt",
    "ad_keywords": DATA_DIR / "ad_keywords.txt",
    "char_map": DATA_DIR / "char_map.tsv",
    "tag_lexicon": DATA_DIR / "tag_lexicon.tsv",
}

# profile tags originally used to find domain-interested accounts; the
# synthetic generator reuses them as stance-neutral decoy tags
SEARCH_TAGS_PATH = DATA_DIR / "search_tags.txt"


@dataclass(frozen=True)
class Resources:
    """Loaded resource bundle.

    ``segment_lexicon`` is the segmentation word list merged with the
    terminology, stopword and advertisement lists: multi-character entries of
    those lists can only be recognized downstream if the segmenter emits them
    as whole tokens.  ``simplify`` is ``char_map`` applied to a text,
    derived at construction: one character class of the map's keys, so that
    only the characters the map holds cost a lookup.  An empty map leaves a
    text as it is.
    """

    char_map: CharMap
    segment_lexicon: TermList
    stopwords: TermList
    ad_keywords: TermList
    terminology: TermList
    tag_lexicon: TagLexicon
    simplify: Callable[[str], str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table = dict(self.char_map)
        if any(len(key) != 1 for key in table):
            raise ValueError("char map keys must be single characters")
        simplify = str  # str() of a str is that str
        if table:
            keys = re.compile(f"[{''.join(map(re.escape, table))}]")
            simplify = partial(keys.sub, lambda match: table[match[0]])
        object.__setattr__(self, "simplify", simplify)


def load_resources(paths: Mapping[str, str | Path] | None = None) -> Resources:
    resolved: dict[str, str | Path] = dict(DEFAULT_PATHS)
    if paths:
        unknown = set(paths) - set(DEFAULT_PATHS)
        if unknown:
            raise ValueError(f"unknown resource keys: {sorted(unknown)}")
        resolved.update(paths)
    terminology = load_term_list(resolved["terminology_lexicon"])
    stopwords = load_term_list(resolved["stopword_list"])
    ad_keywords = load_term_list(resolved["ad_keywords"])
    segment_lexicon = TermList.of(chain(
        load_term_list(resolved["segmentation_lexicon"]), terminology, stopwords, ad_keywords))
    return Resources(
        char_map=load_char_map(resolved["char_map"]),
        segment_lexicon=segment_lexicon,
        stopwords=stopwords,
        ad_keywords=ad_keywords,
        terminology=terminology,
        tag_lexicon=load_tag_lexicon(resolved["tag_lexicon"]),
    )
