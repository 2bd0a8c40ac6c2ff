"""Topic probability vectors, the topic->category catalog, and aggregates.

Topic vectors are produced by an external model and ingested from JSONL;
a deterministic keyword-hash assigner stands in for that model in tests
and demos.
"""
from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import Corpus, topic_model_eligible, unique_tweets
from .scores import ScoreCache
from .util import canonical_dumps

DEFAULT_K = 200
RENORM_TOLERANCE = 1e-3

CATEGORIES = (
    "everyday",
    "no_topic",
    "news_blogs",
    "politics",
    "entertainment",
    "sports",
    "profanity",
    "health_covid",
)


class TPVError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        super().__init__(f"row {lineno}: {message}" if lineno else message)


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class TopicAggregate:
    topic: int
    tweet_count: int
    median_toxicity: float | None


@dataclass(frozen=True)
class TopicCatalog:
    """Maps each of K topic indices to one of the eight categories."""

    K: int
    category_of: tuple[str, ...]

    def __post_init__(self):
        if len(self.category_of) != self.K:
            raise CatalogError(f"catalog covers {len(self.category_of)} of {self.K} topics")
        unknown = set(self.category_of) - set(CATEGORIES)
        if unknown:
            raise CatalogError(f"unknown categories: {sorted(unknown)}")

    def category(self, topic: int) -> str:
        return self.category_of[topic]

    @classmethod
    def demo(cls, K: int) -> "TopicCatalog":
        # cyclic assignment for synthetic runs
        return cls(K=K, category_of=tuple(CATEGORIES[i % len(CATEGORIES)] for i in range(K)))

    @classmethod
    def load(cls, path: str | Path) -> "TopicCatalog":
        mapping: dict[int, str] = {}
        for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), start=1):
            if not line.strip() or line.startswith("#"):
                continue
            try:
                idx_str, category = line.split("\t")
                idx = int(idx_str)
            except ValueError as exc:
                raise CatalogError(f"line {lineno}: expected 'index<TAB>category'") from exc
            if idx in mapping:
                raise CatalogError(f"line {lineno}: duplicate topic index {idx}")
            mapping[idx] = category
        if not mapping:
            raise CatalogError("empty catalog")
        K = max(mapping) + 1
        if sorted(mapping) != list(range(K)):
            missing = sorted(set(range(K)) - set(mapping))
            raise CatalogError(f"missing topic indices: {missing[:10]}")
        return cls(K=K, category_of=tuple(mapping[i] for i in range(K)))

    def save(self, path: str | Path) -> None:
        lines = [f"{i}\t{c}" for i, c in enumerate(self.category_of)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_tpvs(path: str | Path, K: int) -> dict[str, np.ndarray]:
    """Load {"tweet_id", "probs"} JSONL rows into K-vectors.

    Rows whose probabilities sum within 1e-3 of 1 are renormalized; larger
    deviations, wrong dimensions and negative entries are rejected with
    their row number.
    """
    tpvs: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TPVError(f"bad json: {exc}", lineno) from exc
            try:
                tweet_id = str(row["tweet_id"])
                probs = np.asarray(row["probs"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise TPVError(f"bad row: {exc}", lineno) from exc
            tpvs[tweet_id] = _validate_tpv(probs, K, lineno)
    return tpvs


def _validate_tpv(probs: np.ndarray, K: int, lineno: int | None = None) -> np.ndarray:
    if probs.ndim != 1 or probs.shape[0] != K:
        raise TPVError(f"expected {K} probabilities, got {probs.shape}", lineno)
    if np.any(probs < 0):
        raise TPVError("negative probability", lineno)
    total = float(probs.sum())
    if abs(total - 1.0) > RENORM_TOLERANCE:
        raise TPVError(f"probabilities sum to {total:.6f}", lineno)
    if total == 0.0:
        raise TPVError("all-zero probability vector", lineno)
    return probs / total


def save_tpvs(tpvs: dict[str, np.ndarray], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tweet_id in sorted(tpvs):
            row = {"tweet_id": tweet_id, "probs": [float(p) for p in tpvs[tweet_id]]}
            fh.write(canonical_dumps(row) + "\n")


def as_saved(tpvs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The vectors exactly as load_tpvs reads back the file save_tpvs
    writes: ordered by tweet id and normalised once more."""
    return {tweet_id: tpvs[tweet_id] / float(tpvs[tweet_id].sum()) for tweet_id in sorted(tpvs)}


def dominant_topic(tpv: np.ndarray) -> int:
    """Argmax topic index; ties break to the lowest index."""
    return int(np.argmax(tpv))


def assign_dominant_topics(tpvs: dict[str, np.ndarray]) -> dict[str, int]:
    return {tweet_id: dominant_topic(v) for tweet_id, v in tpvs.items()}


def topic_aggregates(
    assignments: dict[str, int], cache: ScoreCache, K: int
) -> dict[int, TopicAggregate]:
    """Per-topic tweet counts and median toxicity over scored tweets."""
    by_topic: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    for tweet_id, topic in assignments.items():
        counts[topic] = counts.get(topic, 0) + 1
        score = cache.toxicity.get(tweet_id)
        if score is not None:
            by_topic.setdefault(topic, []).append(score)
    out = {}
    for topic in range(K):
        scores = by_topic.get(topic)
        out[topic] = TopicAggregate(
            topic=topic,
            tweet_count=counts.get(topic, 0),
            median_toxicity=float(statistics.median(scores)) if scores else None,
        )
    return out


def _hash_bucket(token: str, K: int, seed: int) -> int:
    digest = hashlib.sha256(f"{seed}:{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % K


def baseline_topic_assigner(
    corpus: Corpus, K: int, seed: int, eligible_only: bool = True
) -> dict[str, np.ndarray]:
    """Keyword-hash stand-in for the external topic model.

    Each tweet's tokens hash into K buckets and the bucket counts normalize
    into a probability vector; identical (text, seed) always give identical
    vectors. By default only length-eligible unique tweets are covered,
    mirroring the coverage of the real model; eligible_only=False covers
    every unique tweet with at least one token.
    """
    tpvs: dict[str, np.ndarray] = {}
    for profile_id in sorted(corpus.profiles):
        timeline = corpus.profiles[profile_id]
        tweets = topic_model_eligible(timeline) if eligible_only else unique_tweets(timeline)
        for tweet in tweets:
            counts = np.zeros(K, dtype=float)
            for token in tweet.text_norm.split():
                counts[_hash_bucket(token, K, seed)] += 1.0
            total = counts.sum()
            if total == 0.0:
                continue
            tpvs[tweet.tweet_id] = counts / total
    return tpvs
