"""Synthetic corpus generator: determinism, shape, label and topic validity."""

from __future__ import annotations

import re

import pytest

from tcm_stance.corpus import canonical_timestamp, load_tweets, load_users, split_retweets
from tcm_stance.preprocess import preprocess_tweet
from tcm_stance.resources import ResourceFormatError
from tcm_stance.stance import Stance
from tcm_stance.supervision import is_tcm_topic, user_stance
from tcm_stance.synth import SynthConfig, generate, read_gold, write_corpus

SMALL = SynthConfig(users_pos=12, users_neg=5, tweets_min=3, tweets_max=6, seed=99)


def test_generation_is_deterministic():
    assert generate(SMALL) == generate(SMALL)


def test_different_seeds_differ():
    other = SynthConfig(users_pos=12, users_neg=5, tweets_min=3, tweets_max=6, seed=100)
    assert generate(SMALL) != generate(other)


def test_corpus_shape():
    corpus = generate(SMALL)
    assert len(corpus.users) == 17
    pos = [u for u in corpus.users if u.user_id.startswith("us")]
    neg = [u for u in corpus.users if u.user_id.startswith("uo")]
    assert len(pos) == 12
    assert len(neg) == 5
    assert all(len(record) == 1 for record in corpus.tweets)
    per_user: dict[str, int] = {}
    for t in split_retweets(corpus.tweets):
        per_user[t.user_id] = per_user.get(t.user_id, 0) + 1
    assert set(per_user) == {u.user_id for u in corpus.users}
    assert all(3 <= n <= 6 for n in per_user.values())
    assert set(corpus.gold) == {t.id for t in split_retweets(corpus.tweets)}


def test_timestamps_stay_in_the_window():
    corpus = generate(SMALL)
    lo = "2013-01-01T00:00:00"
    hi = "2014-03-01T00:00:00"  # 14 months on
    for t in split_retweets(corpus.tweets):
        # canonical text orders as its time does
        assert canonical_timestamp(t.created_at) == t.created_at
        assert lo <= t.created_at < hi


def test_gold_matches_the_author_class_even_with_label_noise():
    noisy = SynthConfig(users_pos=8, users_neg=4, tweets_min=2, tweets_max=4,
                        label_noise=0.5, seed=7)
    corpus = generate(noisy)
    for t in split_retweets(corpus.tweets):
        expected = Stance.SUPPORTING if t.user_id.startswith("us") else Stance.OPPOSING
        assert corpus.gold[t.id] is expected


def test_tags_resolve_to_the_gold_stance(default_resources):
    corpus = generate(SMALL)
    lex = default_resources.tag_lexicon
    for u in corpus.users:
        expected = Stance.SUPPORTING if u.user_id.startswith("us") else Stance.OPPOSING
        assert user_stance(u.tags, lex) is expected


def test_tag_noise_empties_tag_sets():
    cfg = SynthConfig(users_pos=6, users_neg=3, tweets_min=2, tweets_max=3,
                      tag_noise=1.0, seed=1)
    corpus = generate(cfg)
    assert all(u.tags == () for u in corpus.users)


def test_every_tweet_survives_preprocessing_on_topic(default_resources):
    corpus = generate(SMALL)
    for tweet in split_retweets(corpus.tweets):
        doc = preprocess_tweet(tweet, default_resources)
        assert doc is not None, tweet.text
        assert is_tcm_topic(doc, default_resources.terminology), tweet.text


def test_write_corpus_round_trips(tmp_path):
    corpus = generate(SMALL)
    paths = write_corpus(corpus, tmp_path)
    tweets, skipped_t = load_tweets(paths["tweets"])
    users, skipped_u = load_users(paths["users"])
    assert (skipped_t, skipped_u) == (0, 0)
    assert tuple(tweets) == corpus.tweets
    assert tuple(users) == corpus.users
    assert read_gold(paths["gold"]) == corpus.gold


def test_read_gold_names_the_line_of_a_bad_stance(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("t1\tsupport\n\nt2\tsupportx\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: unknown stance word: 'supportx'")):
        read_gold(path)


def test_read_gold_refuses_a_repeated_tweet_id(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("t1\tsupport\nt2\toppose\nt1\toppose\n", encoding="utf-8")
    with pytest.raises(ResourceFormatError) as refused:
        read_gold(path)
    assert str(refused.value) == f"{path}:3: duplicate tweet_id 't1'"


def test_write_corpus_is_byte_deterministic(tmp_path):
    a = write_corpus(generate(SMALL), tmp_path / "a")
    b = write_corpus(generate(SMALL), tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()


@pytest.mark.parametrize("kwargs", [
    {"users_pos": 0},
    {"tweets_min": 0, "tweets_max": 5},
    {"tweets_min": 6, "tweets_max": 2},
    {"signal_strength": 1.5},
    {"tag_noise": -0.1},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(**kwargs)
