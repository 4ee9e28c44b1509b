"""Distant supervision: topic filter and tag-derived user stance."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_doc
from tcm_stance.corpus import UserProfile
from tcm_stance.resources import TermList
from tcm_stance.stance import Stance
from tcm_stance.supervision import (
    MIN_TOPIC_TERMS,
    LabeledDataset,
    filter_topic,
    is_tcm_topic,
    label_corpus,
    user_stance,
)

TERMS = TermList.of(["经络", "穴位", "拔罐"])


def test_topic_needs_two_distinct_terms():
    assert is_tcm_topic(make_doc("t", "u", ("经络", "穴位")), TERMS)
    assert not is_tcm_topic(make_doc("t", "u", ("经络", "经络")), TERMS)
    assert not is_tcm_topic(make_doc("t", "u", ("经络", "吃饭")), TERMS)
    assert not is_tcm_topic(make_doc("t", "u", ()), TERMS)
    assert MIN_TOPIC_TERMS == 2


@given(st.lists(st.sampled_from(["经络", "穴位", "拔罐", "吃饭", "电影"]), max_size=8),
       st.lists(st.sampled_from(["经络", "穴位", "拔罐", "天气"]), max_size=4))
def test_topic_check_is_monotone_in_tokens(tokens, extra):
    doc = make_doc("t", "u", tokens)
    grown = make_doc("t", "u", tuple(tokens) + tuple(extra))
    if is_tcm_topic(doc, TERMS):
        assert is_tcm_topic(grown, TERMS)


def test_filter_topic_keeps_order():
    docs = [
        make_doc("t1", "u", ("经络", "穴位")),
        make_doc("t2", "u", ("经络",)),
        make_doc("t3", "u", ("拔罐", "穴位")),
    ]
    assert [d.tweet_id for d in filter_topic(docs, TERMS)] == ["t1", "t3"]


LEX = {
    "中医爱好": Stance.SUPPORTING,
    "中医粉": Stance.SUPPORTING,
    "反中医": Stance.OPPOSING,
}


def test_user_stance_from_tags():
    assert user_stance(["中医爱好"], LEX) is Stance.SUPPORTING
    assert user_stance(["美食", "反中医"], LEX) is Stance.OPPOSING
    assert user_stance(["中医爱好", "中医粉"], LEX) is Stance.SUPPORTING


def test_user_stance_unresolvable_cases():
    assert user_stance([], LEX) is None
    assert user_stance(["美食", "旅游"], LEX) is None
    assert user_stance(["中医爱好", "反中医"], LEX) is None


def test_label_corpus_splits_and_labels():
    docs = [
        make_doc("t1", "fan", ("经络", "穴位")),
        make_doc("t2", "hater", ("经络", "拔罐")),
        make_doc("t3", "ghost", ("经络", "穴位")),
        make_doc("t4", "fan", ("拔罐", "穴位")),
        make_doc("t5", "torn", ("经络", "穴位")),
    ]
    users = [
        UserProfile("fan", ("中医爱好",)),
        UserProfile("hater", ("反中医",)),
        UserProfile("torn", ("中医爱好", "反中医")),
        UserProfile("idle", ("中医粉",)),
    ]
    dataset, remainder = label_corpus(docs, users, LEX)

    assert [d.tweet_id for d in dataset.documents] == ["t1", "t2", "t4"]
    assert [d.label for d in dataset.documents] == [
        Stance.SUPPORTING, Stance.OPPOSING, Stance.SUPPORTING,
    ]
    assert [d.tweet_id for d in remainder] == ["t3", "t5"]
    assert all(d.label is None for d in remainder)

    # each labeled author carries the stance their tags resolve to; an
    # unknown author and one with conflicting tags stay unlabeled
    assert {(d.user_id, d.label) for d in dataset.documents} == {
        ("fan", Stance.SUPPORTING), ("hater", Stance.OPPOSING)}
    assert [d.user_id for d in remainder] == ["ghost", "torn"]

    assert dataset.class_counts() == {Stance.SUPPORTING: 2, Stance.OPPOSING: 1}


def test_label_corpus_clears_the_label_of_a_remainder_document():
    docs = [
        make_doc("t1", "ghost", ("经络", "穴位"), Stance.OPPOSING),
        make_doc("t2", "ghost", ("经络", "拔罐")),
        make_doc("t3", "fan", ("经络", "拔罐"), Stance.OPPOSING),
    ]
    dataset, remainder = label_corpus(docs, [UserProfile("fan", ("中医爱好",))], LEX)
    assert [(d.tweet_id, d.label) for d in remainder] == [("t1", None), ("t2", None)]
    assert remainder[1] is docs[1]  # an unlabeled document passes through as it is
    assert [(d.tweet_id, d.label) for d in dataset.documents] == [("t3", Stance.SUPPORTING)]


@pytest.mark.parametrize("docs, message", [
    ([make_doc("t1", "u1", ("x",), Stance.SUPPORTING), make_doc("t2", "u2", ("y",))],
     "document t2 has no label"),
    ([make_doc("t1", "u1", ("x",), Stance.SUPPORTING),
      make_doc("t1", "u2", ("y",), Stance.OPPOSING)],
     "duplicate tweet_id 't1'"),
    ([make_doc("t1", "u1", ("x",), Stance.SUPPORTING),
      make_doc("t2", "u1", ("y",), Stance.OPPOSING)],
     "user u1 carries conflicting labels"),
], ids=["no-label", "repeated-tweet-id", "conflicting-labels"])
def test_a_labeled_dataset_refuses_what_training_cannot_use(docs, message):
    with pytest.raises(ValueError) as refused:
        LabeledDataset(tuple(docs))
    assert str(refused.value) == message


def test_label_corpus_with_bundled_lexicon(default_resources):
    docs = [make_doc("t1", "u1", ("经络", "穴位"))]
    users = [UserProfile("u1", ("中医黑",))]
    dataset, remainder = label_corpus(docs, users, default_resources.tag_lexicon)
    assert remainder == []
    assert dataset.documents[0].label is Stance.OPPOSING
