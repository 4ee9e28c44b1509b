"""Distant supervision: topic filtering and tag-derived tweet labels.

Labels come from user profiles, not from the tweets themselves: a user whose
stance-bearing tags all agree passes that stance down to every one of their
on-topic tweets.  Users with no stance tags, or with conflicting ones, stay
unlabeled and their tweets become prediction input instead of training data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .corpus import UserProfile
from .preprocess import Document
from .resources import TagLexicon, TermList
from .stance import Stance

MIN_TOPIC_TERMS = 2  # distinct terminology hits required to count as on-topic


def is_tcm_topic(doc: Document, terminology: TermList) -> bool:
    return len(terminology.members.intersection(doc.tokens)) >= MIN_TOPIC_TERMS


def filter_topic(docs: Iterable[Document], terminology: TermList) -> list[Document]:
    return [doc for doc in docs if is_tcm_topic(doc, terminology)]


def user_stance(tags: Iterable[str], lexicon: TagLexicon) -> Optional[Stance]:
    """Stance implied by profile tags; None when absent or conflicting."""
    found = {lexicon[tag] for tag in tags if tag in lexicon}
    if len(found) == 1:
        return next(iter(found))
    return None


@dataclass(frozen=True)
class LabeledDataset:
    """Training documents: each has a label, no two share a ``tweet_id``
    (CV results are keyed by it), and each author carries one label."""

    documents: tuple[Document, ...]

    def __post_init__(self) -> None:
        labels: dict[str, Stance] = {}
        tweet_ids: set[str] = set()
        for doc in self.documents:
            if doc.label is None:
                raise ValueError(f"document {doc.tweet_id} has no label")
            if doc.tweet_id in tweet_ids:
                raise ValueError(f"duplicate tweet_id {doc.tweet_id!r}")
            tweet_ids.add(doc.tweet_id)
            if labels.setdefault(doc.user_id, doc.label) is not doc.label:
                raise ValueError(f"user {doc.user_id} carries conflicting labels")

    def class_counts(self) -> dict[Stance, int]:
        labels = [doc.label for doc in self.documents]
        return {cls: labels.count(cls) for cls in (Stance.SUPPORTING, Stance.OPPOSING)}


def label_corpus(
    docs: Iterable[Document],
    users: Iterable[UserProfile],
    lexicon: TagLexicon,
) -> tuple[LabeledDataset, list[Document]]:
    """Split topic-filtered documents into a labeled set and a remainder.

    Documents whose author has a resolvable stance get that label; everything
    else (unknown author, no tags, conflicting tags) lands in the remainder,
    unlabeled.  A ``tweet_id`` repeated in the labeled set is refused.
    """
    stances: dict[str, Stance] = {}
    for user in users:
        stance = user_stance(user.tags, lexicon)
        if stance is not None:
            stances[user.user_id] = stance
    labeled: list[Document] = []
    remainder: list[Document] = []
    for doc in docs:
        stance = stances.get(doc.user_id)
        if stance is None:
            remainder.append(doc if doc.label is None else doc._replace(label=None))
        else:
            labeled.append(doc._replace(label=stance))
    return LabeledDataset(tuple(labeled)), remainder
