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
from .preprocess import Document, relabel
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
    documents: tuple[Document, ...]
    users: dict[str, Stance]  # every labeled document's author appears here

    def class_counts(self) -> dict[Stance, int]:
        counts = {Stance.SUPPORTING: 0, Stance.OPPOSING: 0}
        for doc in self.documents:
            if doc.label is not None:
                counts[doc.label] += 1
        return counts


def label_corpus(
    docs: Iterable[Document],
    users: Iterable[UserProfile],
    lexicon: TagLexicon,
) -> tuple[LabeledDataset, list[Document]]:
    """Split topic-filtered documents into a labeled set and a remainder.

    Documents whose author has a resolvable stance get that label; everything
    else (unknown author, no tags, conflicting tags) lands in the remainder.
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
            remainder.append(doc)
        else:
            labeled.append(relabel(doc, stance))
    return LabeledDataset(tuple(labeled), stances), remainder
