"""Timeline ingestion: load, validate, normalize and filter profile timelines.

Input is line-delimited JSON, one tweet per line, plus an optional profile
metadata file keyed by profile_id. Profiles with fewer than 10 tweets after
within-profile tweet_id dedup are dropped. A Tweet keeps only what later
stages read: not its profile id (its timeline has it), raw text or mention
count. All types are immutable after ingest and safe to share across threads.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Callable

from .util import canonical_dumps, loads_line

MIN_TWEETS_PER_PROFILE = 10
TOKEN_MIN = 10
TOKEN_MAX = 64

MENTION_TOKEN = "@USER"
URL_TOKEN = "HTTPURL"

CORPUS_CACHE_FORMAT = "mission-profiler-corpus"
CORPUS_CACHE_VERSION = 2
# gzip's fastest level: level 9 wrote the benchmark corpora 5-8 times slower
# for files 17-29% smaller; load_corpus reads any level
CORPUS_GZIP_LEVEL = 1

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
# an @ that follows neither a word character nor another @; written with the
# @ first so the scan can search for the literal, and the lookbehind, which
# spans the @ itself, looks at the character before it
_MENTION_RE = re.compile(r"@(?<![\w@]@)\w+")
_VS16 = "️"
# the last second datetime can hold, 9999-12-31T23:59:59Z; a later time is malformed
MAX_TIMESTAMP = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())
# the largest profile count, the int64 maximum; a larger or negative one is malformed
MAX_COUNT = 2**63 - 1


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
    text_norm: str
    timestamp: int
    is_retweet: bool
    hashtags: tuple[str, ...]
    urls: tuple[str, ...]


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
    malformed_profile_lines: int = 0  # metadata lines skipped; conserved() counts tweet lines only

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


def normalize_tweet(text_raw: str) -> str:
    """Normalize tweet text: mention/URL tokens, emoji aliases, whitespace.

    Idempotent: the replacement tokens never match their own patterns.
    Each pass runs only on text that holds what its pattern must match
    (both patterns are case-sensitive). Whitespace runs are what str.split
    splits on, the same set as the regex class \\s.
    """
    text = text_raw
    if "http" in text or "www." in text:
        text = _URL_RE.sub(URL_TOKEN, text)
    if "@" in text:
        text = _MENTION_RE.sub(MENTION_TOKEN, text)
    if not text.isascii():
        text = _alias_emoji(text)
    return " ".join(text.split())


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
    if ts > MAX_TIMESTAMP:
        raise IngestError(f"timestamp {value!r} is after 9999-12-31T23:59:59Z", lineno)
    return ts


def _parse_line(line: str, lineno: int, parse: Callable[[dict, int], object]):
    """parse(obj, lineno) of the line's JSON object. Whatever makes the line
    malformed, a number out of range included, raises IngestError naming it."""
    try:
        obj = loads_line(line)
        if not isinstance(obj, dict):
            raise IngestError("expected a JSON object", lineno)
        return parse(obj, lineno)
    except IngestError:
        raise
    except KeyError as exc:
        raise IngestError(f"missing field {exc.args[0]}", lineno) from exc
    except (TypeError, ValueError, OverflowError) as exc:  # a JSONDecodeError is a ValueError
        raise IngestError(str(exc), lineno) from exc


def _parse_tweet(obj: dict, lineno: int) -> tuple[str, Tweet]:
    """(profile_id, tweet) of one tweets.jsonl line; its mention count is checked, not kept."""
    tweet_id = str(obj["tweet_id"])
    profile_id = str(obj["profile_id"])
    text_raw = obj["text"]
    ts = _parse_timestamp(obj["created_at"], lineno)
    if not isinstance(text_raw, str):
        raise IngestError("text must be a string", lineno)
    hashtags = tuple(str(h).lstrip("#").lower() for h in _array(obj, "hashtags", lineno) or [])
    urls = tuple(str(u) for u in _array(obj, "urls", lineno) or [])
    int(obj.get("mentions", 0))
    return profile_id, Tweet(
        tweet_id=tweet_id,
        text_norm=normalize_tweet(text_raw),
        timestamp=ts,
        is_retweet=bool(_flag(obj, "is_retweet", lineno)),
        hashtags=hashtags,
        urls=urls,
    )


def _array(obj: dict, key: str, lineno: int) -> list | None:
    """obj[key], a JSON array, or None when it is null or absent; any other value makes the line malformed."""
    value = obj.get(key)
    if value is not None and not isinstance(value, list):
        raise IngestError(f"{key} must be an array", lineno)
    return value


def _flag(obj: dict, key: str, lineno: int) -> bool | None:
    """obj[key], a JSON true or false, or None when it is null or absent; any other value makes the line malformed."""
    value = obj.get(key)
    if value is not None and not isinstance(value, bool):
        raise IngestError(f"{key} must be true or false", lineno)
    return value


def _parse_metadata(obj: dict, lineno: int) -> ProfileMetadata:
    counts = {key: obj.get(key) for key in ("followers", "following", "listed", "statuses", "favourites")}
    withheld = obj.get("withheld_countries")
    counts["withheld_countries"] = len(withheld) if isinstance(withheld, list) else withheld
    description_len = obj.get("description_len")
    counts["description_len"] = len(str(obj.get("description") or "")) if description_len is None else description_len
    for key, value in counts.items():
        counts[key] = int(value or 0)
        if not 0 <= counts[key] <= MAX_COUNT:
            raise IngestError(f"count out of range for {key}", lineno)
    has_location = _flag(obj, "has_location", lineno)
    if has_location is None:
        has_location = bool(str(obj.get("location") or "").strip())
    created = obj.get("created_at")
    friends = _array(obj, "friends_ids", lineno)
    retweeted = _array(obj, "retweeted_ids", lineno)
    return ProfileMetadata(
        **counts,
        protected=bool(_flag(obj, "protected", lineno)),
        verified=bool(_flag(obj, "verified", lineno)),
        geo_enabled=bool(_flag(obj, "geo_enabled", lineno)),
        contributors_enabled=bool(_flag(obj, "contributors_enabled", lineno)),
        has_location=has_location,
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
    a profile (the profile_id of its line) counts as a duplicate and keeps
    the first occurrence.
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
                profile_id, tweet = _parse_line(line, lineno, _parse_tweet)
            except IngestError:
                if strict:
                    raise
                stats.malformed += 1
                continue
            bucket = by_profile.setdefault(profile_id, {})
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
        _attach_metadata(profiles, profiles_path, strict, stats)

    assert stats.conserved(), "ingest accounting must cover every input line"
    return Corpus(profiles=profiles, ingest_stats=stats)


def _attach_metadata(profiles: dict[str, ProfileTimeline], path: str | Path, strict: bool, stats: IngestStats) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                profile_id, meta = _parse_line(
                    line, lineno, lambda obj, n: (str(obj["profile_id"]), _parse_metadata(obj, n)))
            except IngestError:
                if strict:
                    raise
                stats.malformed_profile_lines += 1
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


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the versioned binary corpus cache (gzip-compressed JSON).
    Tweets and metadata are written field by field; their tuples encode as
    JSON arrays."""
    import gzip  # the corpus cache alone is gzip, and a run writes none

    payload = {
        "format": CORPUS_CACHE_FORMAT,
        "version": CORPUS_CACHE_VERSION,
        "ingest_stats": corpus.ingest_stats.as_dict(),
        "profiles": [
            {
                "profile_id": pid,
                "tweets": [vars(t) for t in tl.tweets],
                "metadata": vars(tl.metadata) if tl.metadata else None,
            }
            for pid, tl in sorted(corpus.profiles.items())
        ],
    }
    # mtime=0 keeps the gzip container byte-stable across runs
    with open(path, "wb") as fh, gzip.GzipFile(
        filename="", mode="wb", compresslevel=CORPUS_GZIP_LEVEL, fileobj=fh, mtime=0
    ) as gz:
        gz.write(canonical_dumps(payload).encode("utf-8"))


def load_corpus(path: str | Path) -> Corpus:
    import gzip

    with gzip.open(path, "rb") as gz:
        payload = loads_line(gz.read().decode("utf-8"))
    if payload.get("format") != CORPUS_CACHE_FORMAT:
        raise IngestError(f"not a corpus cache: {path}")
    if payload.get("version") != CORPUS_CACHE_VERSION:
        raise IngestError(f"unsupported corpus cache version {payload.get('version')}")
    profiles = {}
    for entry in payload["profiles"]:
        meta = entry.get("metadata")
        if meta is not None:  # its JSON arrays are the id tuples
            meta = ProfileMetadata(**{k: tuple(v) if isinstance(v, list) else v for k, v in meta.items()})
        tweets = tuple(
            Tweet(**{**t, "hashtags": tuple(t["hashtags"]), "urls": tuple(t["urls"])})
            for t in entry["tweets"]
        )
        profiles[entry["profile_id"]] = ProfileTimeline(
            profile_id=entry["profile_id"], tweets=tweets, metadata=meta
        )
    stats = IngestStats(**payload["ingest_stats"])
    return Corpus(profiles=profiles, ingest_stats=stats)
