"""Timeline ingestion: load, validate, normalize and filter profile timelines.

Input is line-delimited JSON, one tweet per line, plus an optional profile
metadata file keyed by profile_id. Profiles with fewer than 10 tweets after
within-profile tweet_id dedup are dropped. All types are immutable after
ingest and safe to share across threads.
"""
from __future__ import annotations

import gzip
import json
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from .util import canonical_dumps

MIN_TWEETS_PER_PROFILE = 10
TOKEN_MIN = 10
TOKEN_MAX = 64

MENTION_TOKEN = "@USER"
URL_TOKEN = "HTTPURL"

CORPUS_CACHE_FORMAT = "mission-profiler-corpus"
CORPUS_CACHE_VERSION = 1

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"(?<![\w@])@\w+")
_WS_RE = re.compile(r"\s+")
_VS16 = "️"


class IngestError(ValueError):
    """Raised in strict mode for malformed input; carries the line number."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}" if lineno else message)


def _load_emoji_table() -> dict[str, str]:
    table: dict[str, str] = {}
    raw = resources.files("mission_profiler").joinpath("data/emoji_aliases.tsv").read_text("utf-8")
    for line in raw.splitlines():
        if not line or line.startswith("#"):
            continue
        codes, name = line.split("\t")
        seq = "".join(chr(int(c, 16)) for c in codes.split())
        table[seq] = name
        # emoji are frequently written with a trailing variation selector
        if len(seq) == 1:
            table[seq + _VS16] = name
    return table


_EMOJI_TABLE = _load_emoji_table()
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


@dataclass(frozen=True)
class Tweet:
    tweet_id: str
    profile_id: str
    text_raw: str
    text_norm: str
    timestamp: int
    is_retweet: bool
    hashtags: tuple[str, ...]
    urls: tuple[str, ...]
    mentions_count: int


@dataclass(frozen=True)
class ProfileMetadata:
    followers: int = 0
    following: int = 0
    listed: int = 0
    statuses: int = 0
    favourites: int = 0
    protected: bool = False
    verified: bool = False
    geo_enabled: bool = False
    contributors_enabled: bool = False
    withheld_countries: int = 0
    has_location: bool = False
    description_len: int = 0
    created_at: int | None = None
    friends_ids: tuple[str, ...] | None = None
    retweeted_ids: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ProfileTimeline:
    profile_id: str
    tweets: tuple[Tweet, ...]
    metadata: ProfileMetadata | None = None

    def last_timestamp(self) -> int:
        return self.tweets[-1].timestamp


@dataclass
class IngestStats:
    lines_total: int = 0
    blank: int = 0
    malformed: int = 0
    duplicates: int = 0
    dropped_short: int = 0  # tweets discarded with under-threshold profiles
    kept_tweets: int = 0
    kept_profiles: int = 0
    dropped_profiles: int = 0

    def conserved(self) -> bool:
        return (
            self.blank + self.malformed + self.duplicates
            + self.dropped_short + self.kept_tweets
        ) == self.lines_total

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class Corpus:
    profiles: dict[str, ProfileTimeline] = field(default_factory=dict)
    ingest_stats: IngestStats = field(default_factory=IngestStats)

    def all_tweets(self):
        for timeline in self.profiles.values():
            yield from timeline.tweets

    def n_tweets(self) -> int:
        return sum(len(t.tweets) for t in self.profiles.values())


def normalize_tweet(text_raw: str) -> str:
    """Normalize tweet text: mention/URL tokens, emoji aliases, whitespace.

    Idempotent: the replacement tokens never match their own patterns.
    """
    text = _URL_RE.sub(URL_TOKEN, text_raw)
    text = _MENTION_RE.sub(MENTION_TOKEN, text)
    if not text.isascii():
        text = _alias_emoji(text)
    return _WS_RE.sub(" ", text).strip()


def _alias_emoji(text: str) -> str:
    """Replace emoji sequences by ':alias:', scanning left to right and
    taking the longest table entry at each position. Every entry is one or
    two codepoints and starts with a non-ASCII one, so only non-ASCII
    positions are tried, two codepoints before one (flags and VS16 forms
    win over their prefixes)."""
    parts: list[str] = []
    done = 0  # text[:done] is already in parts
    for m in _NON_ASCII_RE.finditer(text):
        i = m.start()
        if i < done:  # second codepoint of a pair just replaced
            continue
        for seq in (text[i:i + 2], text[i]):
            name = _EMOJI_TABLE.get(seq)
            if name is not None:
                parts += (text[done:i], f":{name}:")
                done = i + len(seq)
                break
    parts.append(text[done:])
    return "".join(parts)


def emoji_alias(char: str) -> str | None:
    """Shortname for a single emoji sequence, or None if unknown."""
    return _EMOJI_TABLE.get(char)


def is_retweet(tweet: Tweet) -> bool:
    return tweet.is_retweet or tweet.text_norm.startswith(f"RT {MENTION_TOKEN}")


def unique_tweets(timeline: ProfileTimeline) -> list[Tweet]:
    """Non-retweet tweets, first occurrence per distinct text_norm, in order."""
    seen: set[str] = set()
    out: list[Tweet] = []
    for tweet in timeline.tweets:
        if is_retweet(tweet):
            continue
        if tweet.text_norm in seen:
            continue
        seen.add(tweet.text_norm)
        out.append(tweet)
    return out


def topic_model_eligible(timeline: ProfileTimeline) -> list[Tweet]:
    """Unique tweets whose whitespace token count is within [10, 64]."""
    out = []
    for tweet in unique_tweets(timeline):
        n_tokens = len(tweet.text_norm.split())
        if TOKEN_MIN <= n_tokens <= TOKEN_MAX:
            out.append(tweet)
    return out


def _parse_timestamp(value, lineno: int) -> int:
    if isinstance(value, bool):
        raise IngestError("created_at must be a timestamp", lineno)
    if isinstance(value, (int, float)):
        ts = int(value)
    elif isinstance(value, str):
        try:
            ts = int(float(value))
        except ValueError:
            try:
                dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
            except ValueError as exc:
                raise IngestError(f"unparseable timestamp {value!r}", lineno) from exc
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            ts = int(dt.timestamp())
    else:
        raise IngestError(f"unparseable timestamp {value!r}", lineno)
    if ts <= 0:
        raise IngestError(f"non-positive timestamp {value!r}", lineno)
    return ts


def _parse_tweet(obj: dict, lineno: int) -> Tweet:
    try:
        tweet_id = str(obj["tweet_id"])
        profile_id = str(obj["profile_id"])
        text_raw = obj["text"]
        ts = _parse_timestamp(obj["created_at"], lineno)
    except KeyError as exc:
        raise IngestError(f"missing field {exc.args[0]}", lineno) from exc
    if not isinstance(text_raw, str):
        raise IngestError("text must be a string", lineno)
    hashtags = tuple(str(h).lstrip("#").lower() for h in obj.get("hashtags") or [])
    urls = tuple(str(u) for u in obj.get("urls") or [])
    return Tweet(
        tweet_id=tweet_id,
        profile_id=profile_id,
        text_raw=text_raw,
        text_norm=normalize_tweet(text_raw),
        timestamp=ts,
        is_retweet=bool(obj.get("is_retweet", False)),
        hashtags=hashtags,
        urls=urls,
        mentions_count=int(obj.get("mentions", 0)),
    )


def _parse_metadata(obj: dict, lineno: int) -> ProfileMetadata:
    def count(key: str) -> int:
        value = int(obj.get(key, 0) or 0)
        if value < 0:
            raise IngestError(f"negative count for {key}", lineno)
        return value

    withheld = obj.get("withheld_countries", 0)
    if isinstance(withheld, list):
        withheld = len(withheld)
    has_location = obj.get("has_location")
    if has_location is None:
        has_location = bool(str(obj.get("location") or "").strip())
    description_len = obj.get("description_len")
    if description_len is None:
        description_len = len(str(obj.get("description") or ""))
    created = obj.get("created_at")
    friends = obj.get("friends_ids")
    retweeted = obj.get("retweeted_ids")
    return ProfileMetadata(
        followers=count("followers"),
        following=count("following"),
        listed=count("listed"),
        statuses=count("statuses"),
        favourites=count("favourites"),
        protected=bool(obj.get("protected", False)),
        verified=bool(obj.get("verified", False)),
        geo_enabled=bool(obj.get("geo_enabled", False)),
        contributors_enabled=bool(obj.get("contributors_enabled", False)),
        withheld_countries=int(withheld or 0),
        has_location=bool(has_location),
        description_len=int(description_len or 0),
        created_at=_parse_timestamp(created, lineno) if created is not None else None,
        friends_ids=tuple(str(f) for f in friends) if friends is not None else None,
        retweeted_ids=tuple(str(r) for r in retweeted) if retweeted is not None else None,
    )


def load_timelines(
    tweets_path: str | Path,
    profiles_path: str | Path | None = None,
    strict: bool = False,
) -> Corpus:
    """Load a tweet JSONL file (and optional profile metadata) into a Corpus.

    Malformed lines are counted and skipped unless strict, in which case the
    first violation aborts with its line number. A repeated tweet_id within
    a profile counts as a duplicate and keeps the first occurrence.
    """
    stats = IngestStats()
    by_profile: dict[str, dict[str, Tweet]] = {}
    with open(tweets_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stats.lines_total += 1
            if not line.strip():
                stats.blank += 1
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise IngestError("expected a JSON object", lineno)
                tweet = _parse_tweet(obj, lineno)
            except (json.JSONDecodeError, IngestError, TypeError, ValueError) as exc:
                if strict:
                    if isinstance(exc, IngestError):
                        raise
                    raise IngestError(str(exc), lineno) from exc
                stats.malformed += 1
                continue
            bucket = by_profile.setdefault(tweet.profile_id, {})
            if tweet.tweet_id in bucket:
                stats.duplicates += 1
                continue
            bucket[tweet.tweet_id] = tweet

    profiles: dict[str, ProfileTimeline] = {}
    for profile_id in sorted(by_profile):
        tweets = sorted(by_profile[profile_id].values(), key=lambda t: (t.timestamp, t.tweet_id))
        if len(tweets) < MIN_TWEETS_PER_PROFILE:
            stats.dropped_short += len(tweets)
            stats.dropped_profiles += 1
            continue
        profiles[profile_id] = ProfileTimeline(profile_id=profile_id, tweets=tuple(tweets))
        stats.kept_tweets += len(tweets)
        stats.kept_profiles += 1

    if profiles_path is not None:
        _attach_metadata(profiles, profiles_path, strict)

    assert stats.conserved(), "ingest accounting must cover every input line"
    return Corpus(profiles=profiles, ingest_stats=stats)


def _attach_metadata(profiles: dict[str, ProfileTimeline], path: str | Path, strict: bool) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                profile_id = str(obj["profile_id"])
                meta = _parse_metadata(obj, lineno)
            except (json.JSONDecodeError, KeyError, IngestError, TypeError, ValueError) as exc:
                if strict:
                    if isinstance(exc, IngestError):
                        raise
                    raise IngestError(str(exc), lineno) from exc
                continue
            timeline = profiles.get(profile_id)
            if timeline is None:
                continue
            if (
                strict
                and meta.created_at is not None
                and meta.created_at > timeline.last_timestamp()
            ):
                raise IngestError(
                    f"created_at after last tweet for profile {profile_id}", lineno
                )
            profiles[profile_id] = replace(timeline, metadata=meta)


def _tweet_to_dict(t: Tweet) -> dict:
    return {
        "tweet_id": t.tweet_id,
        "profile_id": t.profile_id,
        "text_raw": t.text_raw,
        "text_norm": t.text_norm,
        "timestamp": t.timestamp,
        "is_retweet": t.is_retweet,
        "hashtags": list(t.hashtags),
        "urls": list(t.urls),
        "mentions_count": t.mentions_count,
    }


def _metadata_to_dict(m: ProfileMetadata) -> dict:
    d = dict(m.__dict__)
    d["friends_ids"] = list(m.friends_ids) if m.friends_ids is not None else None
    d["retweeted_ids"] = list(m.retweeted_ids) if m.retweeted_ids is not None else None
    return d


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the versioned binary corpus cache (gzip-compressed JSON)."""
    payload = {
        "format": CORPUS_CACHE_FORMAT,
        "version": CORPUS_CACHE_VERSION,
        "ingest_stats": corpus.ingest_stats.as_dict(),
        "profiles": [
            {
                "profile_id": pid,
                "tweets": [_tweet_to_dict(t) for t in tl.tweets],
                "metadata": _metadata_to_dict(tl.metadata) if tl.metadata else None,
            }
            for pid, tl in sorted(corpus.profiles.items())
        ],
    }
    # mtime=0 keeps the gzip container byte-stable across runs
    with open(path, "wb") as fh, gzip.GzipFile(filename="", mode="wb", fileobj=fh, mtime=0) as gz:
        gz.write(canonical_dumps(payload).encode("utf-8"))


def load_corpus(path: str | Path) -> Corpus:
    with gzip.open(path, "rb") as gz:
        payload = json.loads(gz.read().decode("utf-8"))
    if payload.get("format") != CORPUS_CACHE_FORMAT:
        raise IngestError(f"not a corpus cache: {path}")
    if payload.get("version") != CORPUS_CACHE_VERSION:
        raise IngestError(f"unsupported corpus cache version {payload.get('version')}")
    profiles = {}
    for entry in payload["profiles"]:
        meta = entry.get("metadata")
        if meta is not None:
            meta = ProfileMetadata(
                **{
                    **meta,
                    "friends_ids": tuple(meta["friends_ids"]) if meta.get("friends_ids") is not None else None,
                    "retweeted_ids": tuple(meta["retweeted_ids"]) if meta.get("retweeted_ids") is not None else None,
                }
            )
        tweets = tuple(
            Tweet(**{**t, "hashtags": tuple(t["hashtags"]), "urls": tuple(t["urls"])})
            for t in entry["tweets"]
        )
        profiles[entry["profile_id"]] = ProfileTimeline(
            profile_id=entry["profile_id"], tweets=tweets, metadata=meta
        )
    stats = IngestStats(**payload["ingest_stats"])
    return Corpus(profiles=profiles, ingest_stats=stats)
