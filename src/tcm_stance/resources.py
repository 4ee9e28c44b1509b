"""Lexicon resources and their plain-text loaders.

Six resources drive the pipeline: the segmentation word list, the domain
terminology list, stopwords, advertisement keywords, the traditional to
simplified character map and the profile-tag stance lexicon.  Seed versions
of each ship under ``data/``; all are meant to be replaced or extended by
larger files of the same format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .stance import Stance


class ResourceFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TermList:
    """Ordered set of non-empty, whitespace-trimmed terms with O(1) membership."""

    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        seen = set()
        longest: dict[str, int] = {}  # first character -> longest term length
        for term in self.terms:
            if not isinstance(term, str) or not term or term != term.strip():
                raise ValueError(f"bad term: {term!r}")
            if term in seen:
                raise ValueError(f"duplicate term: {term!r}")
            seen.add(term)
            if len(term) > longest.get(term[0], 0):
                longest[term[0]] = len(term)
        object.__setattr__(self, "_index", frozenset(self.terms))
        object.__setattr__(self, "_longest", longest)

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
        return term in self._index  # type: ignore[attr-defined]

    @property
    def members(self) -> frozenset[str]:
        """The terms as a frozenset, for membership tests in hot loops
        without a Python-level ``__contains__`` call per test."""
        return self._index  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[str]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def max_term_len(self) -> int:
        return max(self._longest.values(), default=0)  # type: ignore[attr-defined]

    @property
    def longest_by_first_char(self) -> Mapping[str, int]:
        """Length of the longest term starting with each character."""
        return self._longest  # type: ignore[attr-defined]

    def union(self, other: Iterable[str]) -> "TermList":
        merged = dict.fromkeys(self.terms)
        for term in other:
            merged.setdefault(term, None)
        return TermList(tuple(merged))


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
                if line.strip():
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


def load_term_list(path: str | Path) -> TermList:
    return TermList.of(line for _, line in _data_rows(path))


def load_tag_lexicon(path: str | Path) -> TagLexicon:
    lexicon: TagLexicon = {}
    for lineno, line in _data_rows(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ResourceFormatError(f"{path}:{lineno}: expected 'tag<TAB>stance'")
        tag, word = parts[0].strip(), parts[1].strip()
        try:
            stance = Stance.from_wire(word)
        except ValueError as exc:
            raise ResourceFormatError(f"{path}:{lineno}: {exc}") from exc
        if tag in lexicon and lexicon[tag] is not stance:
            raise ResourceFormatError(f"{path}:{lineno}: conflicting stance for tag {tag!r}")
        lexicon[tag] = stance
    return lexicon


def load_char_map(path: str | Path) -> CharMap:
    cmap: CharMap = {}
    for lineno, line in _data_rows(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ResourceFormatError(f"{path}:{lineno}: expected 'char<TAB>char'")
        trad, simp = parts[0].strip(), parts[1].strip()
        if len(trad) != 1 or len(simp) != 1:
            raise ResourceFormatError(f"{path}:{lineno}: cells must be single characters")
        if trad == simp:
            continue
        if trad in cmap and cmap[trad] != simp:
            raise ResourceFormatError(f"{path}:{lineno}: conflicting mapping for {trad!r}")
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
    as whole tokens.  ``simplify_table`` is ``char_map`` as a
    ``str.translate`` table, derived at construction.
    """

    char_map: CharMap
    segment_lexicon: TermList
    stopwords: TermList
    ad_keywords: TermList
    terminology: TermList
    tag_lexicon: TagLexicon
    simplify_table: dict[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "simplify_table", str.maketrans(self.char_map))


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
    segment_lexicon = (
        load_term_list(resolved["segmentation_lexicon"])
        .union(terminology)
        .union(stopwords)
        .union(ad_keywords)
    )
    return Resources(
        char_map=load_char_map(resolved["char_map"]),
        segment_lexicon=segment_lexicon,
        stopwords=stopwords,
        ad_keywords=ad_keywords,
        terminology=terminology,
        tag_lexicon=load_tag_lexicon(resolved["tag_lexicon"]),
    )
