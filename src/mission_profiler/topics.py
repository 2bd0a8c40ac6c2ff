"""Topic probability vectors, the topic->category catalog, and aggregates.

Topic vectors come from an external model as JSONL, or from a keyword-hash
stand-in for that model in tests and demos. Both are held as (ids, matrix):
the sorted tweet ids, each once, and a float (n, K) matrix of their vectors.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import Corpus, topic_model_eligible
from .scores import ScoreCache
from .util import canonical_dumps, loads_line, median

DEFAULT_K = 200
RENORM_TOLERANCE = 1e-3
# rows that load_tpvs converts to floats at once: larger blocks convert no
# faster, and their lists of Python floats raise the peak memory of a run
_TPV_BLOCK_ROWS = 256

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


def load_tpvs(path: str | Path, K: int) -> tuple[list[str], np.ndarray]:
    """Load {"tweet_id", "probs"} JSONL rows as (ids, matrix) of K-vectors.

    Rows whose probabilities sum within 1e-3 of 1 are renormalized; larger
    deviations, wrong dimensions, negative entries, NaN or infinite entries
    and integers too long to read are rejected with their row number. When
    several rows are bad, the first one is reported. Rows are checked one
    block of _TPV_BLOCK_ROWS at a time as they are read, and a line that
    does not read as a row is reported once the rows before it are checked.
    The matrix's rows come in tweet-id order, so later sums do not depend
    on the line order; of repeated ids, the last row wins.
    """
    ids: list[str] = []
    blocks: list[np.ndarray] = []
    pending: list[tuple[int, object]] = []  # (line number, probs) of the rows not yet checked
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = loads_line(line)
                except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
                    raise TPVError(f"bad json: {exc}", lineno) from exc
                try:
                    ids.append(str(row["tweet_id"]))
                    pending.append((lineno, row["probs"]))
                except (KeyError, TypeError, ValueError) as exc:
                    raise TPVError(f"bad row: {exc}", lineno) from exc
                if len(pending) == _TPV_BLOCK_ROWS:
                    block, pending = pending, []  # taken first, so the handler below does not check it again
                    blocks.append(_checked_block(block, K))
        except (OSError, ValueError):  # a bad line (a TPVError) or a read error: a bad row before it comes first
            _checked_block(pending, K)
            raise
    blocks.append(_checked_block(pending, K))
    return _by_tweet_id(ids, np.concatenate(blocks))


def _by_tweet_id(ids: list[str], matrix: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ids and their rows; of repeated ids, the last row wins."""
    row_of = {tweet_id: i for i, tweet_id in enumerate(ids)}
    order = sorted(row_of)
    return (ids, matrix) if order == ids else (order, matrix[[row_of[t] for t in order]])


def _checked_block(rows: list[tuple[int, object]], K: int) -> np.ndarray:
    """The probs of (line number, probs) rows as one (n, K) float matrix,
    each row renormalized; or the TPVError of the first bad row. A block
    that does not convert as one is walked to its first row that does not
    convert or has another shape, and the rows before that one are checked
    first. Every TPVError about a row's probs is worded here."""
    if not rows:
        return np.empty((0, K))
    try:
        matrix = np.array([probs for _, probs in rows], dtype=float)
    except (TypeError, ValueError, OverflowError):
        matrix = None
    if matrix is None or matrix.shape != (len(rows), K):
        for i, (lineno, probs) in enumerate(rows):
            try:
                shape = np.asarray(probs, dtype=float).shape
                if shape != (K,):
                    raise TPVError(f"expected {K} probabilities, got {shape}", lineno)
            except (TypeError, ValueError, OverflowError) as exc:  # a TPVError is a ValueError
                _checked_block(rows[:i], K)  # a bad row before it comes first
                if isinstance(exc, TPVError):
                    raise
                raise TPVError(f"bad row: {exc}", lineno) from exc
    with np.errstate(invalid="ignore"):  # a row holding inf and -inf sums to NaN; its TPVError is the one signal
        sums = matrix.sum(axis=1)
    # a NaN or infinite entry makes its row's sum NaN or infinite
    bad = (matrix < 0).any(axis=1) | ~np.isfinite(sums) | (np.abs(sums - 1.0) > RENORM_TOLERANCE)
    if bad.any():
        first = int(np.argmax(bad))
        probs, lineno = matrix[first], rows[first][0]
        if np.any(probs < 0):
            raise TPVError("negative probability", lineno)
        if not np.all(np.isfinite(probs)):
            raise TPVError("non-finite probability", lineno)
        raise TPVError(f"probabilities sum to {float(probs.sum()):.6f}", lineno)
    matrix /= sums[:, None]
    return matrix


def save_tpvs(ids: list[str], matrix: np.ndarray, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tweet_id, probs in zip(ids, matrix):
            fh.write(canonical_dumps({"tweet_id": tweet_id, "probs": probs.tolist()}) + "\n")


def topic_aggregates(assignments: dict[str, int], cache: ScoreCache, K: int) -> dict[int, dict]:
    """Per-topic tweet counts and median toxicity over scored tweets: the
    aggregates.json rows ("topic", "tweet_count", "median_toxicity"), by topic."""
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
        out[topic] = {
            "topic": topic,
            "tweet_count": counts.get(topic, 0),
            "median_toxicity": float(median(scores)) if scores else None,
        }
    return out


def _hash_bucket(token: str, K: int, seed: int) -> int:
    digest = hashlib.sha256(f"{seed}:{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % K


def baseline_topic_assigner(corpus: Corpus, K: int, seed: int) -> tuple[list[str], np.ndarray]:
    """Keyword-hash stand-in for the external topic model.

    Each tweet's tokens hash into K buckets and the bucket counts normalize
    into a probability vector; identical (text, seed) always give identical
    vectors. Only length-eligible unique tweets are covered, mirroring the
    coverage of the real model; each has at least ingest.TOKEN_MIN tokens,
    so no vector is all zero. Returns (ids, matrix), as load_tpvs does.
    """
    tweets = [t for p in sorted(corpus.profiles) for t in topic_model_eligible(corpus.profiles[p])]
    matrix = np.zeros((len(tweets), K))
    for i, tweet in enumerate(tweets):
        for token in tweet.text_norm.split():
            matrix[i, _hash_bucket(token, K, seed)] += 1.0
    matrix /= matrix.sum(axis=1, keepdims=True)
    return _by_tweet_id([t.tweet_id for t in tweets], matrix)
