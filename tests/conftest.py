from __future__ import annotations

import gc
import tracemalloc
from itertools import chain

import pytest
from hypothesis import HealthCheck, settings

from tcm_stance.preprocess import Document
from tcm_stance.resources import Resources, TermList, load_resources
from tcm_stance.stance import Stance
from tcm_stance.supervision import LabeledDataset

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

TS = "2013-05-17T12:00:00"  # records carry canonical timestamp text


def make_doc(tweet_id, user_id, tokens, label=None, created_at=TS) -> Document:
    return Document(tweet_id, user_id, created_at, tuple(tokens), label)


def peak_bytes(run) -> int:
    """The traced heap's peak, in bytes, while ``run()`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_dataset(rows) -> LabeledDataset:
    """rows: (user_id, tokens, stance) triples; tweet ids are positional."""
    return LabeledDataset(tuple(make_doc(f"t{i:04d}", user_id, tokens, stance)
                                for i, (user_id, tokens, stance) in enumerate(rows)))


def make_resources(lexicon=(), stopwords=(), ads=(), terminology=(),
                   char_map=None, tag_lexicon=None) -> Resources:
    """In-memory Resources with the same lexicon merge the loader applies."""
    stop = TermList.of(stopwords)
    ad = TermList.of(ads)
    term = TermList.of(terminology)
    seg = TermList.of(chain(lexicon, term, stop, ad))
    return Resources(
        char_map=dict(char_map or {}),
        segment_lexicon=seg,
        stopwords=stop,
        ad_keywords=ad,
        terminology=term,
        tag_lexicon=dict(tag_lexicon or {}),
    )


# A small linearly separable corpus: plenty of users per class so stratified
# folds stay populated, one shared token so the vocabulary overlaps.
def separable_dataset(users_per_class: int = 8, docs_per_user: int = 3) -> LabeledDataset:
    rows = []
    for u in range(users_per_class):
        for d in range(docs_per_user):
            rows.append((f"su{u}", ("经络", "穴位", "有效", f"杂{d}"), Stance.SUPPORTING))
    for u in range(users_per_class):
        for d in range(docs_per_user):
            rows.append((f"ou{u}", ("经络", "穴位", "骗局", f"杂{d}"), Stance.OPPOSING))
    return make_dataset(rows)


@pytest.fixture(scope="session")
def default_resources() -> Resources:
    return load_resources()
