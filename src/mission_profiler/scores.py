"""Per-tweet toxicity and per-profile bot scores, from every backend.

``toxicity_scores`` and ``bot_scores`` pick the backend: a score file read
whole by ``load_score_source``, a constant mock, or, for toxicity, a
remote scorer that ``score_toxicity`` asks one tweet at a time (HTTP:
POST one text, receive one score). Results persist in a JSONL cache whose
save/load round-trip is byte-stable; cached entries are never re-fetched.
"""
from __future__ import annotations

import csv
import math
import os
import time
from pathlib import Path
from typing import Iterable

from .ingest import Corpus
from .util import canonical_dumps, json_object, loads_line

CACHE_FORMAT = "mission-profiler-score-cache"
CACHE_VERSION = 1

TOXICITY_URL_ENV = "MISSION_PROFILER_TOXICITY_URL"
TOXICITY_TOKEN_ENV = "MISSION_PROFILER_TOXICITY_TOKEN"
HTTP_TIMEOUT_S = 10.0
# a request that fails for one tweet is retried after 0.5, 1 and 2 s, then
# the tweet is listed as missing
MAX_RETRIES = 3
BACKOFF_BASE_S = 0.5


class ScoreError(Exception):
    """A single scoring request failed; retryable."""


class BackendUnavailable(Exception):
    """The scoring backend is down; abort the run (partial cache survives)."""


def _check_unit(value, what: str) -> float:
    """value as a float in [0, 1], or ValueError; a JSON integer too large
    for a float is out of range too."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not 0.0 <= number <= 1.0:  # false for NaN too
        raise ValueError(f"{what} {number} outside [0, 1]")
    return number


class ScoreCache:
    """Toxicity and bot scores with per-entry provenance and a missing set."""

    def __init__(self) -> None:
        self.toxicity: dict[str, float] = {}
        self.bots: dict[str, dict[str, float]] = {}  # by profile: {"overall", "spammer"}
        self.missing: set[str] = set()
        self._tox_source: dict[str, str] = {}
        self._bot_source: dict[str, str] = {}

    def put_toxicity(self, tweet_id: str, score: float, source: str = "unknown") -> None:
        self.toxicity[tweet_id] = _check_unit(score, "toxicity score")
        self._tox_source[tweet_id] = source
        self.missing.discard(tweet_id)

    def put_bots(self, profile_id: str, overall: float, spammer: float, source: str = "unknown") -> None:
        self.bots[profile_id] = {
            "overall": _check_unit(overall, "bot score"), "spammer": _check_unit(spammer, "spammer score"),
        }
        self._bot_source[profile_id] = source

    def provenance(self, entry_id: str) -> str | None:
        return self._tox_source.get(entry_id) or self._bot_source.get(entry_id)

    def save(self, path: str | Path) -> None:
        """Write the cache to a temp file beside path, then move it into
        place: a save cut short leaves the file that was there, or none."""
        tmp = Path(f"{path}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(canonical_dumps({"format": CACHE_FORMAT, "version": CACHE_VERSION}) + "\n")
                for tweet_id in sorted(self.toxicity):
                    fh.write(canonical_dumps({
                        "kind": "toxicity",
                        "tweet_id": tweet_id,
                        "score": self.toxicity[tweet_id],
                        "source": self._tox_source.get(tweet_id, "unknown"),
                    }) + "\n")
                for profile_id in sorted(self.bots):
                    fh.write(canonical_dumps({
                        "kind": "bots",
                        "profile_id": profile_id,
                        **self.bots[profile_id],
                        "source": self._bot_source.get(profile_id, "unknown"),
                    }) + "\n")
                for tweet_id in sorted(self.missing):
                    fh.write(canonical_dumps({"kind": "missing", "tweet_id": tweet_id}) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "ScoreCache":
        cache = cls()
        with open(path, "r", encoding="utf-8") as fh:
            header = json_object(fh.readline(), f"{path}: row 1")
            if header.get("format") != CACHE_FORMAT:
                raise ValueError(f"not a score cache: {path}")
            if header.get("version") != CACHE_VERSION:
                raise ValueError(f"unsupported score cache version {header.get('version')}")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                row = json_object(line, f"{path}: row {lineno}")
                kind = row.get("kind")
                try:
                    if kind == "toxicity":
                        cache.put_toxicity(row["tweet_id"], row["score"], row.get("source", "unknown"))
                    elif kind == "bots":
                        cache.put_bots(row["profile_id"], row["overall"], row["spammer"], row.get("source", "unknown"))
                    elif kind == "missing":
                        cache.missing.add(row["tweet_id"])
                    else:
                        raise ValueError(f"unknown cache row kind {kind!r}")
                except KeyError as exc:
                    raise ValueError(f"{path}: row {lineno} ({kind!r}) lacks the key {exc}") from None
                except (TypeError, ValueError) as exc:  # an unknown kind, or a score not in [0, 1]
                    raise ValueError(f"{path}: row {lineno}: {exc}") from None
        return cache


class HTTPToxicityClient:
    """POSTs one text per request to a remote scorer; returns one score.

    Endpoint and auth token come from the environment variables
    TOXICITY_URL_ENV and TOXICITY_TOKEN_ENV. The response may be a bare
    float or {"score": x}. A 4xx status other than 429 is a ScoreError for
    that tweet; 429, 5xx and connection errors are BackendUnavailable.
    """

    name = "http"

    def __init__(self):
        self.url = os.environ.get(TOXICITY_URL_ENV)
        self.token = os.environ.get(TOXICITY_TOKEN_ENV)
        if not self.url:
            raise BackendUnavailable(f"no endpoint URL; set {TOXICITY_URL_ENV}")

    def score(self, tweet_id: str, text: str) -> float:
        import urllib.error  # the HTTP stack loads only for this backend
        import urllib.request

        body = canonical_dumps({"text": text}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(self.url, data=body, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as resp:
                payload = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            exc.close()
            if 400 <= exc.code < 500 and exc.code != 429:
                raise ScoreError(f"tweet {tweet_id}: {exc}") from exc
            raise BackendUnavailable(str(exc)) from exc
        except urllib.error.URLError as exc:
            raise BackendUnavailable(str(exc)) from exc
        try:
            parsed = loads_line(payload)
        except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
            raise ScoreError(f"unparseable response: {payload[:80]!r}") from exc
        if isinstance(parsed, dict):
            parsed = parsed.get("score")
        if not isinstance(parsed, (int, float)):
            raise ScoreError(f"no score in response for tweet {tweet_id}")
        return parsed  # ScoreCache.put_toxicity checks it


def score_toxicity(
    corpus: Corpus, client, cache: ScoreCache, rate_limit: float | None = None,
) -> ScoreCache:
    """Ask client for every unique tweet_id in the corpus that cache holds
    no score for, and add the answers to cache.

    Requests start at least 1 / rate_limit seconds apart. Per-tweet
    failures retry with exponential backoff up to MAX_RETRIES and then land
    in cache.missing. A BackendUnavailable aborts immediately; everything
    scored so far stays in the cache for resumption.
    """
    interval = 1.0 / rate_limit if rate_limit else 0.0
    last_request = 0.0
    for tweet in sorted(corpus.all_tweets(), key=lambda t: t.tweet_id):
        if tweet.tweet_id in cache.toxicity:
            continue
        attempt = 0
        while True:
            if interval:
                delay = last_request + interval - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                last_request = time.monotonic()
            try:
                value = client.score(tweet.tweet_id, tweet.text_norm)
                try:
                    cache.put_toxicity(tweet.tweet_id, value, source=client.name)
                except ValueError as exc:  # out-of-range response: retryable
                    raise ScoreError(str(exc)) from exc
                break
            except ScoreError:
                attempt += 1
                if attempt > MAX_RETRIES:
                    cache.missing.add(tweet.tweet_id)
                    break
                time.sleep(BACKOFF_BASE_S * (2 ** (attempt - 1)))
    return cache


def toxicity_scores(
    corpus: Corpus, backend: str, source: str | None, mock_value: float, resume: str | Path,
    rate_limit: float | None = None,
) -> ScoreCache:
    """Toxicity scores from one backend. `file` reads the table at source
    whole and `none` scores nothing. `mock` and `http` start from the scores
    saved at resume, keeping the corpus's tweets only. `mock` then gives
    every other tweet mock_value; `http` asks for the rest, and when the
    endpoint stops answering it saves the scores so far at resume and
    re-raises BackendUnavailable."""
    if backend == "file":
        return load_score_source(source)
    cache = ScoreCache()
    if backend == "none":
        return cache
    if Path(resume).exists():
        saved = ScoreCache.load(resume)
        for tweet in corpus.all_tweets():
            if tweet.tweet_id in saved.toxicity:
                cache.put_toxicity(tweet.tweet_id, saved.toxicity[tweet.tweet_id], saved.provenance(tweet.tweet_id))
    if backend == "mock":
        for tweet in corpus.all_tweets():
            if tweet.tweet_id not in cache.toxicity:
                cache.put_toxicity(tweet.tweet_id, mock_value, source="mock")
        return cache
    try:  # the client is made in here: it raises when no endpoint is set
        score_toxicity(corpus, HTTPToxicityClient(), cache, rate_limit)
    except BackendUnavailable:
        cache.save(resume)
        raise
    return cache


def bot_scores(corpus: Corpus, backend: str, source: str | None) -> ScoreCache:
    """Bot scores from one backend: the table at source (`file`), the
    constants 0.2 overall and 0.1 spammer for every profile (`mock`), or
    none."""
    if backend == "file":
        return load_score_source(source)
    cache = ScoreCache()
    if backend == "mock":
        for profile_id in corpus.profiles:
            cache.put_bots(profile_id, 0.2, 0.1, source="mock")
    return cache


def load_score_source(path: str | Path) -> ScoreCache:
    """Read a score file: a cache as ScoreCache.save writes it, or a table
    of (tweet_id, score) and (profile_id, overall, spammer) rows as CSV
    (an optional header row) or JSONL objects. A table row that does not
    parse, has another shape or holds a score outside [0, 1] is invalid;
    any invalid row raises ValueError listing the first five row numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first.lstrip().startswith("{") and CACHE_FORMAT in first:
            return ScoreCache.load(path)
        lines = (first + fh.read()).splitlines()
    cache = ScoreCache()
    rows: list[tuple[int, list]] = []  # (row number, fields)
    rejects: list[int] = []
    if first.lstrip().startswith("{"):
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                row = loads_line(line)
            except ValueError:  # a JSONDecodeError, or an integer over the digit limit
                row = None
            if isinstance(row, dict) and "tweet_id" in row and "score" in row:
                rows.append((lineno, [row["tweet_id"], row["score"]]))
            elif isinstance(row, dict) and "profile_id" in row and "overall" in row:
                rows.append((lineno, [row["profile_id"], row["overall"], row.get("spammer", 0.0)]))
            else:
                rejects.append(lineno)
    else:
        rows = [(lineno, row) for lineno, row in enumerate(csv.reader(lines), start=1) if row]
        if rows and rows[0][0] == 1:
            try:
                float(rows[0][1][-1])
            except ValueError:  # a header row
                del rows[0]
    for lineno, row in rows:
        try:
            if len(row) == 2:
                cache.put_toxicity(str(row[0]), row[1], source="precomputed")
            elif len(row) == 3:
                cache.put_bots(str(row[0]), row[1], row[2], source="precomputed")
            else:
                rejects.append(lineno)
        except (TypeError, ValueError):
            rejects.append(lineno)
    if rejects:
        first_rows = ", ".join(map(str, sorted(rejects)[:5]))
        raise ValueError(f"{len(rejects)} invalid score rows (rows {first_rows})")
    return cache


def bot_score_summary(group: Iterable[str], cache: ScoreCache) -> dict:
    """Mean and population standard deviation of bot scores over a group,
    with the counts of scored and missing profiles: the report's botometer
    row. Means and deviations are None when no member is scored."""
    group = list(group)
    if not group:
        raise ValueError("empty profile group")
    scored = [cache.bots[p] for p in group if p in cache.bots]
    row = {"n_scored": len(scored), "n_missing": len(group) - len(scored)}
    for key in ("overall", "spammer"):
        values = [b[key] for b in scored]
        mean = std = None
        if values:
            mean = sum(values) / len(values)
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        row[f"{key}_mean"], row[f"{key}_std"] = mean, std
    return row
