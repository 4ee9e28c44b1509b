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
import operator
from dataclasses import dataclass
from pathlib import Path

from .preprocess import Document
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


def collect_stats(dataset: LabeledDataset) -> list[TermStats]:
    """Presence counts per distinct token; requires both classes present."""
    n_pos = sum(1 for d in dataset.documents if d.label is Stance.SUPPORTING)
    n_neg = sum(1 for d in dataset.documents if d.label is Stance.OPPOSING)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("chi-square statistics need examples of both classes")
    n_total = n_pos + n_neg
    df: dict[str, list[int]] = {}
    for doc in dataset.documents:
        slot = 0 if doc.label is Stance.SUPPORTING else 1
        for term in dict.fromkeys(doc.tokens):
            df.setdefault(term, [0, 0])[slot] += 1
    return [TermStats(t, n_total, c[0], c[1], n_pos, n_neg) for t, c in df.items()]


def chi_square(stats: TermStats) -> float:
    """Chi-square score of one term; 0.0 when the term is in every document."""
    n = stats.n_total
    if not 0 < stats.n_pos < n:
        raise ValueError("both classes must be non-empty")
    df_t = stats.df_pos + stats.df_neg
    if df_t < 1:
        raise ValueError("term must appear in at least one document")
    if df_t >= n:
        return 0.0
    p_t_c = stats.df_pos / n
    p_t_nc = stats.df_neg / n
    p_nt_c = (stats.n_pos - stats.df_pos) / n
    p_nt_nc = (stats.n_neg - stats.df_neg) / n
    p_t = df_t / n
    p_c = stats.n_pos / n
    numerator = n * (p_t_c * p_nt_nc - p_t_nc * p_nt_c) ** 2
    denominator = p_t * (1.0 - p_t) * p_c * (1.0 - p_c)
    return numerator / denominator


@dataclass(frozen=True)
class SelectedTerm:
    term: str
    score: float
    direction: Stance  # class the term's presence is positively associated with


@dataclass(frozen=True)
class FeatureSet:
    """Selected terms in rank order plus a term → column index lookup."""

    terms: tuple[SelectedTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {t.term: i for i, t in enumerate(self.terms)})
        if len(self.index) != len(self.terms):  # type: ignore[attr-defined]
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
    scored = [(chi_square(s), s) for s in stats]
    scored.sort(key=lambda pair: (-pair[0], pair[1].term))
    chosen = []
    for score, s in scored[:k]:
        # positively associated with supporting iff P(t,c) > P(t) P(c);
        # compared in integers: df_pos * N > (df_pos + df_neg) * n_pos
        if s.df_pos * s.n_total > (s.df_pos + s.df_neg) * s.n_pos:
            direction = Stance.SUPPORTING
        else:
            direction = Stance.OPPOSING
        chosen.append(SelectedTerm(s.term, score, direction))
    return FeatureSet(tuple(chosen))


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


def vectorize(doc: Document, feature_set: FeatureSet) -> SparseVector:
    index = feature_set.index  # type: ignore[attr-defined]
    cols = {index[t] for t in doc.tokens if t in index}
    return SparseVector(tuple(sorted(cols)))


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
    terms = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
        rank_s, term, score_s, direction_s = parts
        try:
            rank = int(rank_s)
            score = float(score_s)
            direction = Stance.from_wire(direction_s)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if rank != len(terms) + 1:
            raise ValueError(f"{path}:{lineno}: ranks must be consecutive from 1")
        terms.append(SelectedTerm(term, score, direction))
    return FeatureSet(tuple(terms))
