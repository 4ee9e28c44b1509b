"""Deterministic synthetic corpus generator.

Produces a microblog-like corpus with a known gold stance per user so the
whole pipeline (preprocess, label, select, train, adjust) can be exercised
and scored without real data.  Tweets are comma-joined token lists: every
tweet plants two distinct neutral terminology terms (so it passes the topic
filter), a handful of shared background words, and, with probability
``signal_strength``, one to three terms from its author's class vocabulary.
The two class vocabularies are disjoint, so at high signal strength the
corpus is close to linearly separable after feature selection.
"""

from __future__ import annotations

import calendar
import random
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .corpus import (
    Tweet,
    UserProfile,
    check_id,
    format_timestamp,
    write_tweets_jsonl,
    write_users_jsonl,
)
from .resources import SEARCH_TAGS_PATH, DEFAULT_PATHS, load_tag_lexicon, load_term_list, located
from .stance import Stance

# regimen-and-trust flavored vocabulary for supporting authors
SUPPORT_TERMS: tuple[str, ...] = (
    "养生", "健康", "治疗", "身体", "医生", "科学", "中国", "国家", "食疗", "调理",
)

# toxicity-and-controversy flavored vocabulary for opposing authors
OPPOSE_TERMS: tuple[str, ...] = (
    "马兜铃酸", "朱砂", "注射液", "龙胆泻肝丸", "方舟子", "事件", "反对", "注射",
    "毒性", "副作用",
)

# background vocabulary common to both classes
SHARED_TERMS: tuple[str, ...] = (
    "今天", "明天", "天气", "工作", "生活", "朋友", "时间", "文章", "分享", "学习",
    "喜欢", "觉得", "希望", "问题", "新闻", "电影", "音乐", "旅行", "城市", "北京",
    "上海", "公司", "学校", "老师", "学生", "孩子", "父母", "晚上", "早上", "周末",
)

# topic markers planted in every tweet; deliberately disjoint from both class
# vocabularies so they carry no stance signal
NEUTRAL_TERMINOLOGY: tuple[str, ...] = (
    "中医", "针灸", "推拿", "艾灸", "经络", "穴位", "拔罐", "刮痧",
)


# tweets are dated over MONTHS months from January of START_YEAR
START_YEAR = 2013
MONTHS = 14


@dataclass(frozen=True)
class SynthConfig:
    """The generator's settings; each field is also a ``synth`` flag."""

    users_pos: int = 187
    users_neg: int = 29
    tweets_min: int = 10  # each user's tweet count is drawn from [tweets_min, tweets_max]
    tweets_max: int = 30
    signal_strength: float = 0.8
    tag_noise: float = 0.0     # probability a user's tag set comes out empty
    label_noise: float = 0.0   # probability a tweet reads like the other class
    seed: int = 42

    def __post_init__(self) -> None:
        if self.users_pos < 1 or self.users_neg < 1:
            raise ValueError("user counts must be positive")
        if not 1 <= self.tweets_min <= self.tweets_max:
            raise ValueError("tweets per user need 1 <= tweets_min <= tweets_max")
        for name in ("signal_strength", "tag_noise", "label_noise"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class SynthCorpus:
    tweets: tuple[tuple[Tweet, ...], ...]  # one record per post, no reposts
    users: tuple[UserProfile, ...]
    gold: dict[str, Stance]  # tweet id -> author's gold stance


def _random_timestamp(rng: random.Random) -> str:
    year, month = divmod(START_YEAR * 12 + rng.randrange(MONTHS), 12)
    month += 1
    day = rng.randint(1, calendar.monthrange(year, month)[1])
    return format_timestamp(datetime(year, month, day, rng.randint(0, 23), rng.randint(0, 59),
                                     rng.randint(0, 59)))


def generate(cfg: SynthConfig) -> SynthCorpus:
    rng = random.Random(cfg.seed)
    class_vocab = {Stance.SUPPORTING: SUPPORT_TERMS, Stance.OPPOSING: OPPOSE_TERMS}
    tag_lexicon = load_tag_lexicon(DEFAULT_PATHS["tag_lexicon"])
    tag_pool = {
        Stance.SUPPORTING: [t for t, s in tag_lexicon.items() if s is Stance.SUPPORTING],
        Stance.OPPOSING: [t for t, s in tag_lexicon.items() if s is Stance.OPPOSING],
    }
    neutral_tags = list(load_term_list(SEARCH_TAGS_PATH))

    users: list[UserProfile] = []
    tweets: list[tuple[Tweet, ...]] = []
    gold: dict[str, Stance] = {}
    tweet_no = 0
    plan = [
        (Stance.SUPPORTING, "us", cfg.users_pos),
        (Stance.OPPOSING, "uo", cfg.users_neg),
    ]
    for stance, prefix, count in plan:
        for u in range(count):
            uid = f"{prefix}{u:04d}"
            if rng.random() < cfg.tag_noise:
                tags: tuple[str, ...] = ()
            else:
                own = rng.sample(tag_pool[stance], rng.randint(1, min(3, len(tag_pool[stance]))))
                decoys = rng.sample(neutral_tags, rng.randint(0, 2))
                tags = tuple(own + decoys)
            users.append(UserProfile(uid, tags))
            for _ in range(rng.randint(cfg.tweets_min, cfg.tweets_max)):
                tweet_no += 1
                tid = f"t{tweet_no:06d}"
                content_stance = stance
                if cfg.label_noise and rng.random() < cfg.label_noise:
                    content_stance = stance.other()
                tokens = rng.sample(NEUTRAL_TERMINOLOGY, 2)
                tokens += rng.sample(SHARED_TERMS, rng.randint(3, 8))
                if rng.random() < cfg.signal_strength:
                    tokens += rng.sample(class_vocab[content_stance], rng.randint(1, 3))
                rng.shuffle(tokens)
                text = "，".join(tokens)
                tweets.append((Tweet(tid, uid, text, _random_timestamp(rng)),))
                gold[tid] = stance
    return SynthCorpus(tuple(tweets), tuple(users), gold)


def write_corpus(corpus: SynthCorpus, outdir: str | Path) -> dict[str, Path]:
    """Write tweets.jsonl, users.jsonl and gold.tsv; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "tweets": outdir / "tweets.jsonl",
        "users": outdir / "users.jsonl",
        "gold": outdir / "gold.tsv",
    }
    write_tweets_jsonl(paths["tweets"], corpus.tweets)
    write_users_jsonl(paths["users"], corpus.users)
    with open(paths["gold"], "w", encoding="utf-8", newline="\n") as fh:
        for tid, stance in corpus.gold.items():
            fh.write(f"{tid}\t{stance.wire}\n")
    return paths


def read_gold(path: str | Path) -> dict[str, Stance]:
    gold: dict[str, Stance] = {}
    with located(path) as lines:
        for line in lines:
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError("expected 'tweet_id<TAB>stance'")
            tweet_id = check_id("tweet_id", parts[0])
            if tweet_id in gold:
                raise ValueError(f"duplicate tweet_id {tweet_id!r}")
            gold[tweet_id] = Stance.from_wire(parts[1])
    return gold
