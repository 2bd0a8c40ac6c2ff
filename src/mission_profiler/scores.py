"""Per-tweet toxicity and per-profile bot scores via pluggable clients.

Backends are mock (constant or callable) or HTTP (POST one text, receive
one score); a precomputed score file loads whole through
``load_score_source``. Results persist in a JSONL cache whose save/load
round-trip is byte-stable; cached entries are never re-fetched.
"""
from __future__ import annotations

import csv
import json
import math
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .ingest import Corpus
from .util import canonical_dumps

CACHE_FORMAT = "mission-profiler-score-cache"
CACHE_VERSION = 1

TOXICITY_URL_ENV = "MISSION_PROFILER_TOXICITY_URL"
TOXICITY_TOKEN_ENV = "MISSION_PROFILER_TOXICITY_TOKEN"


class ScoreError(Exception):
    """A single scoring request failed; retryable."""


class BackendUnavailable(Exception):
    """The scoring backend is down; abort the run (partial cache survives)."""


@dataclass(frozen=True)
class BotScores:
    profile_id: str
    overall: float
    spammer: float


@dataclass
class BotScoreSummary:
    overall_mean: float
    overall_std: float
    spammer_mean: float
    spammer_std: float
    n_scored: int
    n_missing: int


def _check_unit(value: float, what: str) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0) or math.isnan(value):
        raise ValueError(f"{what} {value} outside [0, 1]")
    return value


class ScoreCache:
    """Toxicity and bot scores with per-entry provenance and a missing set."""

    def __init__(self) -> None:
        self.toxicity: dict[str, float] = {}
        self.bots: dict[str, BotScores] = {}
        self.missing: set[str] = set()
        self._tox_source: dict[str, str] = {}
        self._bot_source: dict[str, str] = {}

    def put_toxicity(self, tweet_id: str, score: float, source: str = "unknown") -> None:
        self.toxicity[tweet_id] = _check_unit(score, "toxicity score")
        self._tox_source[tweet_id] = source
        self.missing.discard(tweet_id)

    def put_bots(self, profile_id: str, overall: float, spammer: float, source: str = "unknown") -> None:
        self.bots[profile_id] = BotScores(
            profile_id,
            _check_unit(overall, "bot score"),
            _check_unit(spammer, "spammer score"),
        )
        self._bot_source[profile_id] = source

    def provenance(self, entry_id: str) -> str | None:
        return self._tox_source.get(entry_id) or self._bot_source.get(entry_id)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps({"format": CACHE_FORMAT, "version": CACHE_VERSION}) + "\n")
            for tweet_id in sorted(self.toxicity):
                fh.write(canonical_dumps({
                    "kind": "toxicity",
                    "tweet_id": tweet_id,
                    "score": self.toxicity[tweet_id],
                    "source": self._tox_source.get(tweet_id, "unknown"),
                }) + "\n")
            for profile_id in sorted(self.bots):
                b = self.bots[profile_id]
                fh.write(canonical_dumps({
                    "kind": "bots",
                    "profile_id": profile_id,
                    "overall": b.overall,
                    "spammer": b.spammer,
                    "source": self._bot_source.get(profile_id, "unknown"),
                }) + "\n")
            for tweet_id in sorted(self.missing):
                fh.write(canonical_dumps({"kind": "missing", "tweet_id": tweet_id}) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ScoreCache":
        cache = cls()
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            if header.get("format") != CACHE_FORMAT:
                raise ValueError(f"not a score cache: {path}")
            if header.get("version") != CACHE_VERSION:
                raise ValueError(f"unsupported score cache version {header.get('version')}")
            for line in fh:
                if not line.strip():
                    continue
                row = json.loads(line)
                kind = row.get("kind")
                if kind == "toxicity":
                    cache.put_toxicity(row["tweet_id"], row["score"], row.get("source", "unknown"))
                elif kind == "bots":
                    cache.put_bots(row["profile_id"], row["overall"], row["spammer"], row.get("source", "unknown"))
                elif kind == "missing":
                    cache.missing.add(row["tweet_id"])
                else:
                    raise ValueError(f"unknown cache row kind {kind!r}")
        return cache


class MockToxicityClient:
    """Deterministic backend for tests and demos."""

    name = "mock"

    def __init__(self, value: float | Callable[[str, str], float] = 0.5):
        self._value = value

    def score(self, tweet_id: str, text: str) -> float:
        if callable(self._value):
            return self._value(tweet_id, text)
        return self._value


class HTTPToxicityClient:
    """POSTs one text per request to a remote scorer; returns one score.

    Endpoint and auth token come from the environment unless given
    explicitly. The response may be a bare float or {"score": x}.
    """

    name = "http"

    def __init__(self, url: str | None = None, token: str | None = None, timeout: float = 10.0):
        self.url = url or os.environ.get(TOXICITY_URL_ENV)
        self.token = token if token is not None else os.environ.get(TOXICITY_TOKEN_ENV)
        self.timeout = timeout
        if not self.url:
            raise BackendUnavailable(f"no endpoint URL; set {TOXICITY_URL_ENV}")

    def score(self, tweet_id: str, text: str) -> float:
        body = canonical_dumps({"text": text}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(self.url, data=body, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                payload = resp.read().decode("utf-8")
        except urllib.error.URLError as exc:
            raise BackendUnavailable(str(exc)) from exc
        try:
            parsed = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ScoreError(f"unparseable response: {payload[:80]!r}") from exc
        if isinstance(parsed, dict):
            parsed = parsed.get("score")
        if not isinstance(parsed, (int, float)):
            raise ScoreError(f"no score in response for tweet {tweet_id}")
        return float(parsed)


class MockBotClient:
    name = "mock"

    def __init__(self, overall: float = 0.2, spammer: float = 0.1):
        self._overall = overall
        self._spammer = spammer

    def score(self, profile_id: str) -> tuple[float, float]:
        return self._overall, self._spammer


class _RateLimiter:
    def __init__(self, rps: float | None):
        self._interval = 1.0 / rps if rps else 0.0
        self._last = 0.0

    def wait(self) -> None:
        if not self._interval:
            return
        now = time.monotonic()
        delta = self._last + self._interval - now
        if delta > 0:
            time.sleep(delta)
        self._last = time.monotonic()


def score_toxicity(
    corpus: Corpus,
    client,
    rate_limit: float | None = None,
    cache: ScoreCache | None = None,
    max_retries: int = 3,
    backoff_base: float = 0.5,
) -> ScoreCache:
    """Score every unique tweet_id in the corpus, reusing the warm cache.

    Per-tweet failures retry with exponential backoff up to max_retries and
    then land in cache.missing. A BackendUnavailable aborts immediately;
    everything scored so far stays in the cache for resumption.
    """
    cache = cache if cache is not None else ScoreCache()
    limiter = _RateLimiter(rate_limit)
    for tweet in sorted(corpus.all_tweets(), key=lambda t: t.tweet_id):
        if tweet.tweet_id in cache.toxicity:
            continue
        attempt = 0
        while True:
            limiter.wait()
            try:
                value = client.score(tweet.tweet_id, tweet.text_norm)
                try:
                    cache.put_toxicity(tweet.tweet_id, value, source=client.name)
                except ValueError as exc:  # out-of-range response: retryable
                    raise ScoreError(str(exc)) from exc
                break
            except ScoreError:
                attempt += 1
                if attempt > max_retries:
                    cache.missing.add(tweet.tweet_id)
                    break
                if backoff_base:
                    time.sleep(backoff_base * (2 ** (attempt - 1)))
    return cache


def score_bots(
    corpus: Corpus,
    client,
    cache: ScoreCache | None = None,
    rate_limit: float | None = None,
) -> ScoreCache:
    cache = cache if cache is not None else ScoreCache()
    limiter = _RateLimiter(rate_limit)
    for profile_id in sorted(corpus.profiles):
        if profile_id in cache.bots:
            continue
        limiter.wait()
        try:
            overall, spammer = client.score(profile_id)
        except ScoreError:
            continue
        cache.put_bots(profile_id, overall, spammer, source=client.name)
    return cache


def load_precomputed_scores(path: str | Path) -> tuple[ScoreCache, list[tuple[int, str]]]:
    """Load (tweet_id, score) or (profile_id, overall, spammer) rows.

    Accepts CSV or JSONL; returns the cache plus rejected rows as
    (row number, reason). Scores outside [0, 1] are rejected, not clamped.
    """
    cache = ScoreCache()
    rejects: list[tuple[int, str]] = []
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    is_jsonl = bool(lines) and lines[0].lstrip().startswith("{")

    def add_tox(lineno: int, tweet_id: str, raw_score) -> None:
        try:
            cache.put_toxicity(str(tweet_id), float(raw_score), source="precomputed")
        except (TypeError, ValueError) as exc:
            rejects.append((lineno, str(exc)))

    def add_bots(lineno: int, profile_id: str, raw_overall, raw_spammer) -> None:
        try:
            cache.put_bots(str(profile_id), float(raw_overall), float(raw_spammer), source="precomputed")
        except (TypeError, ValueError) as exc:
            rejects.append((lineno, str(exc)))

    if is_jsonl:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                rejects.append((lineno, f"bad json: {exc}"))
                continue
            if "tweet_id" in row and "score" in row:
                add_tox(lineno, row["tweet_id"], row["score"])
            elif "profile_id" in row and "overall" in row:
                add_bots(lineno, row["profile_id"], row["overall"], row.get("spammer", 0.0))
            else:
                rejects.append((lineno, "unrecognized row shape"))
    else:
        for lineno, row in enumerate(csv.reader(lines), start=1):
            if not row:
                continue
            if lineno == 1 and row and not _is_number(row[-1]):
                continue  # header
            if len(row) == 2:
                add_tox(lineno, row[0], row[1])
            elif len(row) == 3:
                add_bots(lineno, row[0], row[1], row[2])
            else:
                rejects.append((lineno, f"expected 2 or 3 columns, got {len(row)}"))
    return cache, rejects


def load_score_source(path: str | Path) -> ScoreCache:
    """Read a score file: a cache as ScoreCache.save writes it, or a
    precomputed table for load_precomputed_scores. Any invalid row raises
    ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if first.lstrip().startswith("{") and CACHE_FORMAT in first:
        return ScoreCache.load(path)
    cache, rejects = load_precomputed_scores(path)
    if rejects:
        rows = ", ".join(str(r[0]) for r in rejects[:5])
        raise ValueError(f"{len(rejects)} invalid score rows (rows {rows})")
    return cache


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def bot_score_summary(group: Iterable[str], cache: ScoreCache) -> BotScoreSummary:
    """Mean and population standard deviation of bot scores over a group."""
    group = list(group)
    if not group:
        raise ValueError("empty profile group")
    overall = [cache.bots[p].overall for p in group if p in cache.bots]
    spammer = [cache.bots[p].spammer for p in group if p in cache.bots]
    missing = sum(1 for p in group if p not in cache.bots)

    def mean_std(values: list[float]) -> tuple[float, float]:
        if not values:
            return float("nan"), float("nan")
        m = sum(values) / len(values)
        var = sum((v - m) ** 2 for v in values) / len(values)
        return m, math.sqrt(var)

    o_mean, o_std = mean_std(overall)
    s_mean, s_std = mean_std(spammer)
    return BotScoreSummary(o_mean, o_std, s_mean, s_std, len(overall), missing)
