"""Deterministic benchmark inputs, made from a seed.

The benchmark writes every file the pipeline reads.  It does not call
``tcm_stance.synth``: a change to the program's own generator must not change
what the benchmark measures.  The corpora mirror the shape of
``synth.generate`` (users with 10..30 tweets, two neutral terminology terms
per tweet, shared background words and, with probability 0.8, one to three
words of the author's class vocabulary).  Profile tags and the traditional
character forms are read from the bundled resource files, so labels and
simplification resolve with the program's default resources.

Two corpora are written:

* ``write_crawl``: the "classify a crawl" input, decorated like scraped text
  (traditional characters, URLs, @mentions, ``[表情]`` codes, repost chains
  and malformed JSON lines).
* ``write_bigvocab``: a corpus over a generated Zipf-weighted vocabulary,
  with the word list the segmenter needs in ``lexicon.txt``.

``write_hostile`` adds a small shard of input that the pipeline's ingest
contract must survive: an invalid UTF-8 line, duplicate ids and a repost
chain deeper than the 16 levels the program accepts.

Each writer returns a ``Manifest`` describing what a correct run must
produce from the files.
"""

from __future__ import annotations

import calendar
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "tcm_stance" / "data"

SUPPORT = "support"
OPPOSE = "oppose"

# the default synthetic vocabulary (first 10 / 10 / 30 entries of the lists
# in tcm_stance.synth)
SUPPORT_TERMS = ("养生", "健康", "治疗", "身体", "医生", "科学", "中国", "国家", "食疗", "调理")
OPPOSE_TERMS = ("马兜铃酸", "朱砂", "注射液", "龙胆泻肝丸", "方舟子", "事件", "反对", "注射",
                "毒性", "副作用")
SHARED_TERMS = (
    "今天", "明天", "天气", "工作", "生活", "朋友", "时间", "文章", "分享", "学习",
    "喜欢", "觉得", "希望", "问题", "新闻", "电影", "音乐", "旅行", "城市", "北京",
    "上海", "公司", "学校", "老师", "学生", "孩子", "父母", "晚上", "早上", "周末",
)
NEUTRAL_TERMINOLOGY = ("中医", "针灸", "推拿", "艾灸", "经络", "穴位", "拔罐", "刮痧")

DEFAULT_USERS = (187, 29)
TWEETS_PER_USER = (10, 30)
SIGNAL_STRENGTH = 0.8
MONTHS = 14
MAX_CHAIN_DEPTH = 16  # the program's limit; the hostile shard goes one past it

EMOTICON_CODES = ("[哈哈]", "[微笑]", "[心]", "[赞]", "[泪]", "[怒]")


@dataclass
class Manifest:
    """What a correct pipeline run must produce from the written files."""

    records: int = 0            # well-formed top-level records
    malformed: int = 0          # injected lines the ingest must skip and count
    chain_positions: int = 0    # reposted entries inside the records
    record_ids: list[list[str]] = field(default_factory=list)  # flattened ids per record
    gold: dict[str, str] = field(default_factory=dict)         # flattened id -> author stance

    @property
    def lines(self) -> int:
        return self.records + self.malformed

    @property
    def flattened(self) -> int:
        return self.records + self.chain_positions


@dataclass
class HostileManifest:
    """Per-line expectations for the hostile shard."""

    lines: int = 0
    good_ids: list[str] = field(default_factory=list)       # must come out exactly once
    duplicate_ids: list[str] = field(default_factory=list)  # reused ids: must not come out twice
    rejected_ids: list[str] = field(default_factory=list)   # too-deep chain: must not come out


@dataclass(frozen=True)
class _Tweet:
    id: str
    user_id: str
    text: str
    created_at: str
    stance: str


# ---------------------------------------------------------------------------
# bundled resources

def _data_lines(name: str) -> list[str]:
    lines = (DATA_DIR / name).read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.startswith("#")]


def _tag_pools() -> tuple[dict[str, list[str]], list[str]]:
    pools: dict[str, list[str]] = {SUPPORT: [], OPPOSE: []}
    for line in _data_lines("tag_lexicon.tsv"):
        tag, stance = line.split("\t")
        pools[stance].append(tag)
    return pools, _data_lines("search_tags.txt")


def _traditional_forms() -> dict[str, str]:
    """simplified -> traditional, the first pair listed for each character."""
    inverse: dict[str, str] = {}
    for line in _data_lines("char_map.tsv"):
        trad, simp = line.split("\t")
        if trad != simp:
            inverse.setdefault(simp, trad)
    return inverse


def _bundled_chars() -> set[str]:
    chars: set[str] = set()
    for path in sorted(DATA_DIR.iterdir()):
        chars.update(path.read_text(encoding="utf-8"))
    return chars


# ---------------------------------------------------------------------------
# users and tweets

def _timestamp(rng: random.Random) -> str:
    month0 = 2013 * 12 + rng.randrange(MONTHS)
    year, month = divmod(month0, 12)
    month += 1
    day = rng.randint(1, calendar.monthrange(year, month)[1])
    return (f"{year:04d}-{month:02d}-{day:02d}T"
            f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}")


TokenDraw = Callable[[random.Random, str], list[str]]


def _users_and_tweets(
    rng: random.Random,
    users: tuple[int, int],
    tag_noise: float,
    label_noise: float,
    draw: TokenDraw,
) -> tuple[list[dict], list[_Tweet]]:
    tag_pool, decoys = _tag_pools()
    profiles: list[dict] = []
    tweets: list[_Tweet] = []
    for stance, prefix, count in ((SUPPORT, "us", users[0]), (OPPOSE, "uo", users[1])):
        other = OPPOSE if stance == SUPPORT else SUPPORT
        for u in range(count):
            uid = f"{prefix}{u:05d}"
            tags: list[str] = []
            if rng.random() >= tag_noise:
                pool = tag_pool[stance]
                tags = rng.sample(pool, rng.randint(1, min(3, len(pool))))
                tags += rng.sample(decoys, rng.randint(0, 2))
            profiles.append({"user_id": uid, "tags": tags})
            for _ in range(rng.randint(*TWEETS_PER_USER)):
                content = other if rng.random() < label_noise else stance
                tokens = rng.sample(NEUTRAL_TERMINOLOGY, 2) + draw(rng, content)
                rng.shuffle(tokens)
                tid = f"t{len(tweets) + 1:07d}"
                tweets.append(_Tweet(tid, uid, "，".join(tokens), _timestamp(rng), stance))
    return profiles, tweets


def _default_draw(rng: random.Random, stance: str) -> list[str]:
    tokens = rng.sample(SHARED_TERMS, rng.randint(3, 8))
    if rng.random() < SIGNAL_STRENGTH:
        pool = SUPPORT_TERMS if stance == SUPPORT else OPPOSE_TERMS
        tokens += rng.sample(pool, rng.randint(1, 3))
    return tokens


def _zipf_draw(words: list[str], exponent: float) -> Callable[[random.Random, int], list[str]]:
    """Draw n words, weight rank ** -exponent, repeats collapsed."""
    cum = list(itertools.accumulate(rank ** -exponent for rank in range(1, len(words) + 1)))

    def draw(r: random.Random, n: int) -> list[str]:
        return list(dict.fromkeys(r.choices(words, cum_weights=cum, k=n)))

    return draw


def _dump(obj: object) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _tweet_obj(tweet: _Tweet, text: str) -> dict:
    return {"id": tweet.id, "user_id": tweet.user_id, "text": text, "created_at": tweet.created_at}


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _write_users_and_gold(outdir: Path, profiles: list[dict], gold: dict[str, str]) -> None:
    _write_lines(outdir / "users.jsonl", [_dump(p) for p in profiles])
    _write_lines(outdir / "gold.tsv", [f"{tid}\t{stance}" for tid, stance in gold.items()])


def _plain_records(tweets: list[_Tweet]) -> tuple[list[str], Manifest]:
    manifest = Manifest(records=len(tweets))
    lines = []
    for tweet in tweets:
        lines.append(_dump(_tweet_obj(tweet, tweet.text)))
        manifest.record_ids.append([tweet.id])
        manifest.gold[tweet.id] = tweet.stance
    return lines, manifest


# ---------------------------------------------------------------------------
# corpora

def _make_words(rng: random.Random, count: int, banned: set[str], taken: set[str]) -> list[str]:
    alphabet = [chr(cp) for cp in range(0x4E00, 0x9FA6) if chr(cp) not in banned]
    words: list[str] = []
    while len(words) < count:
        word = "".join(rng.choices(alphabet, k=rng.randint(2, 3)))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


BIGVOCAB_SHARED = 20000
BIGVOCAB_CLASS = 1500


def write_bigvocab(
    outdir: Path,
    seed: int,
    users: tuple[int, int] = (2 * DEFAULT_USERS[0], 2 * DEFAULT_USERS[1]),
) -> Manifest:
    """A corpus whose vocabulary makes the feature count K matter.

    The words are random two- and three-character strings over CJK code
    points that occur in no bundled resource file, so no bundled lexicon,
    stopword, advertisement or character-map entry can touch them.  They are
    listed in ``lexicon.txt``, to be passed as ``--segmentation-lexicon``.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"bigvocab-{seed}")
    taken: set[str] = set()
    banned = _bundled_chars()
    shared = _make_words(rng, BIGVOCAB_SHARED, banned, taken)
    classes = {
        SUPPORT: _make_words(rng, BIGVOCAB_CLASS, banned, taken),
        OPPOSE: _make_words(rng, BIGVOCAB_CLASS, banned, taken),
    }
    # the flatter shared draw puts about 14k distinct terms into a training
    # fold; the steeper class draw keeps the stance signal as strong as in
    # the default corpus
    draw_shared = _zipf_draw(shared, 0.8)
    draw_class = {stance: _zipf_draw(words, 1.0) for stance, words in classes.items()}

    def draw(r: random.Random, stance: str) -> list[str]:
        tokens = draw_shared(r, r.randint(3, 8))
        if r.random() < SIGNAL_STRENGTH:
            tokens += draw_class[stance](r, r.randint(1, 3))
        return tokens

    profiles, tweets = _users_and_tweets(rng, users, 0.0, 0.0, draw)
    lines, manifest = _plain_records(tweets)
    _write_lines(outdir / "tweets.jsonl", lines)
    _write_users_and_gold(outdir, profiles, manifest.gold)
    _write_lines(outdir / "lexicon.txt", shared + classes[SUPPORT] + classes[OPPOSE])
    return manifest


CRAWL_USERS = (10 * DEFAULT_USERS[0], 10 * DEFAULT_USERS[1])
CRAWL_TAG_NOISE = 0.8     # share of authors without profile tags: their tweets are predicted
CRAWL_LABEL_NOISE = 0.05  # share of tweets that read like the other stance
REPOST_RATE = 0.2
MALFORMED_RATE = 0.01


def _decorate(rng: random.Random, text: str, trad: dict[str, str]) -> str:
    """Scraped-text noise that preprocessing removes exactly: traditional
    forms of characters, an @mention, an emoticon code, a URL."""
    chars = [trad[ch] if ch in trad and rng.random() < 0.5 else ch for ch in text]
    parts = "".join(chars).split("，")
    if rng.random() < 0.3:
        parts.insert(rng.randint(0, len(parts)), rng.choice(EMOTICON_CODES))
    if rng.random() < 0.1:
        parts.insert(rng.randint(0, len(parts)), ":)")
    text = "，".join(parts)
    if rng.random() < 0.3:
        text = f"@u{rng.randrange(10 ** 6):06d}：{text}"
    if rng.random() < 0.3:
        slug = "".join(rng.choices("abcdefghijkmnpqrstuvwxyzABCDEFGHJKLMNPQRSTUVWXYZ23456789",
                                   k=7))
        text = f"{text} http://t.cn/{slug}"
    return text


def _malformed_line(rng: random.Random, n: int, sample: str) -> str:
    """One line the ingest must skip; the kind cycles with n."""
    bad = {"id": f"bad{n:06d}", "user_id": "us00000", "text": "中医，针灸",
           "created_at": "2013-01-01T00:00:00"}
    kind = n % 6
    if kind == 0:
        return sample[: rng.randint(5, len(sample) - 5)]   # truncated JSON
    if kind == 1:
        return _dump(["not", "an", "object"])
    if kind == 2:
        del bad["user_id"]
    elif kind == 3:
        bad["text"] = 42
    elif kind == 4:
        bad["created_at"] = "yesterday"
    else:
        bad["retweet"] = "not a record"
    return _dump(bad)


def write_crawl(outdir: Path, seed: int, users: tuple[int, int] = CRAWL_USERS) -> Manifest:
    """A decorated crawl in ``tweets.jsonl``: most authors untagged, reposts
    nested as chains."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"crawl-{seed}")
    trad = _traditional_forms()
    profiles, tweets = _users_and_tweets(rng, users, CRAWL_TAG_NOISE, CRAWL_LABEL_NOISE,
                                         _default_draw)
    rng.shuffle(tweets)

    manifest = Manifest()
    lines: list[str] = []
    i = 0
    while i < len(tweets):
        depth = 0
        if rng.random() < REPOST_RATE:
            depth = min(rng.choice((1, 1, 1, 1, 1, 1, 1, 2, 2, 3)), len(tweets) - i - 1)
        chain = tweets[i:i + depth + 1]
        i += depth + 1
        obj = None
        for pos in range(depth, -1, -1):   # innermost repost first
            text = _decorate(rng, chain[pos].text, trad)
            if pos == 0 and depth and rng.random() < 0.5:
                text = "转发微博 " + text
            node = _tweet_obj(chain[pos], text)
            if obj is not None:
                node["retweet"] = obj
            obj = node
        line = _dump(obj)
        if rng.random() < MALFORMED_RATE:
            lines.append(_malformed_line(rng, manifest.malformed, line))
            manifest.malformed += 1
        lines.append(line)
        ids = [chain[0].id] + [f"{chain[0].id}#{pos}" for pos in range(1, depth + 1)]
        manifest.records += 1
        manifest.chain_positions += depth
        manifest.record_ids.append(ids)
        for tid, tweet in zip(ids, chain):
            manifest.gold[tid] = tweet.stance

    _write_lines(outdir / "tweets.jsonl", lines)
    _write_users_and_gold(outdir, profiles, manifest.gold)
    return manifest


def write_hostile(outdir: Path, seed: int) -> HostileManifest:
    """Twelve clean records, two more that reuse their ids, a repost chain
    one level deeper than the program accepts and one invalid UTF-8 line."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"hostile-{seed}")
    _, tweets = _users_and_tweets(rng, (2, 1), 0.0, 0.0, _default_draw)
    records = [_tweet_obj(t, t.text) | {"id": f"h{n:04d}"} for n, t in enumerate(tweets[:12], 1)]
    manifest = HostileManifest(good_ids=[r["id"] for r in records])
    manifest.duplicate_ids = rng.sample(manifest.good_ids, 2)
    for tweet, reused in zip(tweets[12:14], manifest.duplicate_ids):
        duplicate = _tweet_obj(tweet, tweet.text) | {"id": reused}
        records.insert(rng.randrange(len(records) + 1), duplicate)

    deep: dict | None = None
    for level in range(MAX_CHAIN_DEPTH + 1, -1, -1):   # innermost repost first
        tweet = tweets[14 + level]
        node = _tweet_obj(tweet, tweet.text) | {"id": f"deep{level:02d}"}
        if deep is not None:
            node["retweet"] = deep
        deep = node
    records.insert(rng.randrange(len(records) + 1), deep)
    manifest.rejected_ids = ["deep00"] + [f"deep00#{pos}" for pos in range(1, MAX_CHAIN_DEPTH + 2)]

    lines = [_dump(r).encode("utf-8") for r in records]
    invalid = _dump(_tweet_obj(tweets[0], "中医，针灸，XX") | {"id": "h9999"}).encode("utf-8")
    lines.insert(rng.randrange(1, len(lines)), invalid.replace(b"XX", b"\xff\xfe"))
    (outdir / "tweets.jsonl").write_bytes(b"".join(line + b"\n" for line in lines))
    manifest.lines = len(lines)
    return manifest
