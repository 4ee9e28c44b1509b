"""Chi-square vocabulary scoring, top-K term selection and binary vectors.

Scores use the independence-test form over document-level presence counts:

    chi2(t, c) = N * (P(t,c)P(~t,~c) - P(t,~c)P(~t,c))^2
                 / (P(t) P(~t) P(c) P(~c))

with every probability estimated as count / N over the labeled corpus.  The
supporting class plays the role of c; by symmetry the score is the same with
the classes swapped, so one score per term is enough for a binary problem.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import unsafe_id
from .preprocess import Document
from .resources import located
from .stance import Stance
from .supervision import LabeledDataset

DEFAULT_FEATURE_COUNT = 3000


@dataclass(frozen=True)
class TermStats:
    """Document-frequency counts for one term over a two-class corpus."""

    term: str
    n_total: int
    df_pos: int   # supporting documents containing the term
    df_neg: int   # opposing documents containing the term
    n_pos: int
    n_neg: int


def _presence(docs: Iterable[Document]) -> tuple[int, int, dict[str, list[int]]]:
    """Supporting and opposing document counts, and per distinct token the
    [supporting, opposing] counts of the documents that contain it; an
    unlabeled document is an error."""
    n_pos = n_neg = 0
    df: dict[str, list[int]] = {}
    for doc in docs:
        if doc.label is Stance.SUPPORTING:
            n_pos += 1
            slot = 0
        elif doc.label is Stance.OPPOSING:
            n_neg += 1
            slot = 1
        else:
            raise ValueError("dataset contains an unlabeled document")
        for term in dict.fromkeys(doc.tokens):
            df.setdefault(term, [0, 0])[slot] += 1
    return n_pos, n_neg, df


def _check_classes(n_pos: int, n_neg: int) -> None:
    if n_pos == 0 or n_neg == 0:
        raise ValueError("chi-square statistics need examples of both classes")


def collect_stats(dataset: LabeledDataset) -> list[TermStats]:
    """Presence counts per distinct token; requires both classes present."""
    n_pos, n_neg, df = _presence(dataset.documents)
    _check_classes(n_pos, n_neg)
    n_total = n_pos + n_neg
    return [TermStats(t, n_total, c[0], c[1], n_pos, n_neg) for t, c in df.items()]


def _chi2(df_pos: int, df_neg: int, n_pos: int, n_neg: int, n: int) -> float:
    """The chi-square formula of the module docstring, from presence counts."""
    df_t = df_pos + df_neg
    if df_t >= n:
        return 0.0
    p_t_c = df_pos / n
    p_t_nc = df_neg / n
    p_nt_c = (n_pos - df_pos) / n
    p_nt_nc = (n_neg - df_neg) / n
    p_t = df_t / n
    p_c = n_pos / n
    numerator = n * (p_t_c * p_nt_nc - p_t_nc * p_nt_c) ** 2
    denominator = p_t * (1.0 - p_t) * p_c * (1.0 - p_c)
    return numerator / denominator


def chi_square(stats: TermStats) -> float:
    """Chi-square score of one term; 0.0 when the term is in every document."""
    n = stats.n_total
    if not 0 < stats.n_pos < n:
        raise ValueError("both classes must be non-empty")
    if stats.df_pos + stats.df_neg < 1:
        raise ValueError("term must appear in at least one document")
    return _chi2(stats.df_pos, stats.df_neg, stats.n_pos, stats.n_neg, n)


def _direction(df_pos: int, df_neg: int, n_pos: int, n: int) -> Stance:
    """The class a term's presence is positively associated with: supporting
    iff P(t,c) > P(t) P(c), compared in integers as df_pos * N > df_t * n_pos."""
    if df_pos * n > (df_pos + df_neg) * n_pos:
        return Stance.SUPPORTING
    return Stance.OPPOSING


@dataclass(frozen=True)
class SelectedTerm:
    term: str
    score: float
    direction: Stance  # class the term's presence is positively associated with


def _check_term(t: SelectedTerm) -> None:
    """Refuse a term that a features.tsv line cannot hold: an empty one, or
    one with a tab, CR, LF or lone surrogate (the ``unsafe_id`` rule); and a
    score no chi-square selection gives: one not a finite number >= 0."""
    if not t.term or unsafe_id(t.term):
        raise ValueError(f"term {t.term!r} is empty or contains a tab, a line break "
                         "or a lone surrogate")
    if not 0.0 <= t.score < math.inf:
        raise ValueError("score must be a finite number >= 0")


@dataclass(frozen=True)
class FeatureSet:
    """Selected terms in rank order, each one ``_check_term`` passes, plus a
    term → column index lookup."""

    terms: tuple[SelectedTerm, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for t in self.terms:
            _check_term(t)
        object.__setattr__(self, "index", {t.term: i for i, t in enumerate(self.terms)})
        if len(self.index) != len(self.terms):
            raise ValueError("duplicate terms in feature set")

    def __len__(self) -> int:
        return len(self.terms)

    def digest(self) -> str:
        """Digest of the canonical TSV form; ties models to their features."""
        return hashlib.sha256(feature_set_to_tsv(self).encode("utf-8")).hexdigest()


def select_features(stats: list[TermStats], k: int = DEFAULT_FEATURE_COUNT) -> FeatureSet:
    """Top-k terms by score, ties broken by term; k clamps to the vocabulary."""
    if k < 1:
        raise ValueError("k must be at least 1")
    # the k smallest (-score, term) keys; the position breaks a tie between
    # repeated terms as a stable sort would
    best = heapq.nsmallest(k, ((-chi_square(s), s.term, i, s) for i, s in enumerate(stats)))
    return FeatureSet(tuple(
        SelectedTerm(s.term, -neg, _direction(s.df_pos, s.df_neg, s.n_pos, s.n_total))
        for neg, _, _, s in best
    ))


def _training_keys(
    whole: dict[str, list[int]], test: dict[str, list[int]], n_pos: int, n_neg: int
) -> Iterator[tuple[float, str, int, int]]:
    """(-score, term, df_pos, df_neg) of each term of a training fold, whose
    counts are the whole set's minus its test fold's; n_pos and n_neg are the
    training fold's class sizes."""
    n = n_pos + n_neg
    absent = (0, 0)
    for term, (p, q) in whole.items():
        t_p, t_q = test.get(term, absent)
        p -= t_p
        q -= t_q
        if p or q:
            yield -_chi2(p, q, n_pos, n_neg, n), term, p, q


def fold_rankings(
    documents: Sequence[Document], test_folds: Iterable[Sequence[int]], k: int
) -> list[tuple[SelectedTerm, ...]]:
    """Per test fold, ``select_features(collect_stats(training fold), k).terms``
    of its training fold, every document outside it.

    The documents are counted once; a training fold's counts are those
    minus its test fold's, and a term it no longer contains is dropped."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n_pos, n_neg, whole = _presence(documents)
    rankings = []
    for test_idx in test_folds:
        test_pos, test_neg, test = _presence(documents[i] for i in test_idx)
        f_pos, f_neg = n_pos - test_pos, n_neg - test_neg
        _check_classes(f_pos, f_neg)
        best = heapq.nsmallest(k, _training_keys(whole, test, f_pos, f_neg))
        rankings.append(tuple(SelectedTerm(term, -neg, _direction(p, q, f_pos, f_pos + f_neg))
                              for neg, term, p, q in best))
    return rankings


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector with strictly increasing indices.

    ``vectorize`` always produces presence vectors (every value 1.0); the
    explicit values field exists so solver tests can feed general points.
    """

    indices: tuple[int, ...]
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.values:
            object.__setattr__(self, "values", (1.0,) * len(self.indices))
        if len(self.values) != len(self.indices):
            raise ValueError("indices and values length mismatch")
        idx = self.indices
        if not all(map(operator.lt, idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if idx and idx[0] < 0:  # the smallest, once increasing
            raise ValueError("indices must be non-negative")


def presence_columns(tokens: Iterable[str], index: Mapping[str, int]) -> tuple[int, ...]:
    """The sorted columns, in a term -> column ``index``, of the distinct
    tokens it holds: the indices of the tokens' presence vector."""
    return tuple(sorted(map(index.__getitem__, index.keys() & tokens)))


def vectorize(doc: Document, feature_set: FeatureSet) -> SparseVector:
    return SparseVector(presence_columns(doc.tokens, feature_set.index))


# ---------------------------------------------------------------------------
# TSV round trip: rank, term, score (6 decimals), direction

def feature_set_to_tsv(fs: FeatureSet) -> str:
    lines = [
        f"{rank}\t{t.term}\t{t.score:.6f}\t{t.direction.wire}"
        for rank, t in enumerate(fs.terms, 1)
    ]
    return "".join(line + "\n" for line in lines)


def save_feature_set(path: str | Path, fs: FeatureSet) -> None:
    Path(path).write_text(feature_set_to_tsv(fs), encoding="utf-8", newline="\n")


def load_feature_set(path: str | Path) -> FeatureSet:
    terms: dict[str, SelectedTerm] = {}
    with located(path) as lines:
        for line in lines:
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError("expected 4 tab-separated fields")
            rank_s, term, score_s, direction_s = parts
            rank = int(rank_s)
            selected = SelectedTerm(term, float(score_s), Stance.from_wire(direction_s))
            _check_term(selected)
            if rank != len(terms) + 1:
                raise ValueError("ranks must be consecutive from 1")
            if term in terms:
                raise ValueError(f"duplicate term {term!r}")
            terms[term] = selected
    return FeatureSet(tuple(terms.values()))
