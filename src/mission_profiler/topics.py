"""Topic probability vectors, the topic->category catalog, and aggregates.

Topic vectors come from an external model as JSONL, or from a keyword-hash
stand-in for that model in tests and demos. Both are held as (ids, matrix):
the sorted tweet ids, each once, and a float (n, K) matrix of their vectors.
"""
from __future__ import annotations

import hashlib
import json
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
    deviations, wrong dimensions, negative entries and NaN or infinite
    entries are rejected with their row number. When several rows are bad,
    the first one is reported. Rows are parsed one at a time, converted to
    floats in blocks of _TPV_BLOCK_ROWS, and checked and renormalized as one
    (n, K) matrix. Its rows come in tweet-id order, so later sums do not
    depend on the line order; of repeated ids, the last row wins.
    """
    ids: list[str] = []
    linenos: list[int] = []
    block: list = []  # the probs lists of rows not yet converted
    blocks: list[np.ndarray] = []
    error: Exception | None = None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = loads_line(line)
                except json.JSONDecodeError as exc:
                    raise TPVError(f"bad json: {exc}", lineno) from exc
                try:
                    tweet_id = str(row["tweet_id"])
                    probs = row["probs"]
                except (KeyError, TypeError, ValueError) as exc:
                    raise TPVError(f"bad row: {exc}", lineno) from exc
                if type(probs) is not list or len(probs) != K:
                    _tpv_row(probs, K, lineno)  # raises: these are not K numbers
                ids.append(tweet_id)
                linenos.append(lineno)
                block.append(probs)
                if len(block) == _TPV_BLOCK_ROWS:
                    full, block = block, []
                    _convert_block(full, linenos[-len(full):], K, blocks)
        except Exception as exc:  # raised below, after the rows before it are checked
            error = exc
    if block:  # rows before any error above, so a bad one among them comes first
        try:
            _convert_block(block, linenos[-len(block):], K, blocks)
        except Exception as exc:
            error = exc
    matrix = np.concatenate(blocks) if blocks else np.empty((0, K))
    del blocks
    with np.errstate(invalid="ignore"):  # a row holding inf and -inf sums to NaN; its TPVError is the one signal
        sums = matrix.sum(axis=1)
    # a NaN or infinite entry makes its row's sum NaN or infinite
    bad = (matrix < 0).any(axis=1) | ~np.isfinite(sums) | (np.abs(sums - 1.0) > RENORM_TOLERANCE)
    if bad.any():
        first = int(np.argmax(bad))
        _validate_tpv(matrix[first], K, linenos[first])
    if error is not None:
        raise error
    matrix /= sums[:, None]
    return _by_tweet_id(ids, matrix)


def _by_tweet_id(ids: list[str], matrix: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ids and their rows; of repeated ids, the last row wins."""
    row_of = {tweet_id: i for i, tweet_id in enumerate(ids)}
    order = sorted(row_of)
    return (ids, matrix) if order == ids else (order, matrix[[row_of[t] for t in order]])


def _tpv_row(probs, K: int, lineno: int) -> np.ndarray:
    """One row's probs as a K-vector of floats, or the TPVError of a row
    that does not convert or has another shape."""
    try:
        vector = np.asarray(probs, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TPVError(f"bad row: {exc}", lineno) from exc
    if vector.shape != (K,):
        _validate_tpv(vector, K, lineno)
    return vector


def _convert_block(block: list, linenos: list[int], K: int, blocks: list[np.ndarray]) -> None:
    """Append the rows of block to blocks as one (n, K) float matrix. A block
    that does not convert as one converts row by row: the rows before the
    first bad one are appended, and that row's error is raised."""
    try:
        matrix = np.array(block, dtype=float)
    except (TypeError, ValueError, OverflowError):
        matrix = None
    if matrix is not None and matrix.shape == (len(block), K):
        blocks.append(matrix)
        return
    rows: list[np.ndarray] = []
    try:
        for probs, lineno in zip(block, linenos):
            rows.append(_tpv_row(probs, K, lineno))
    finally:
        blocks.append(np.asarray(rows, dtype=float).reshape(-1, K))


def _validate_tpv(probs: np.ndarray, K: int, lineno: int | None = None) -> None:
    """Raise the TPVError for one bad vector; the one place each is worded.
    An all-zero vector fails the sum check."""
    if probs.ndim != 1 or probs.shape[0] != K:
        raise TPVError(f"expected {K} probabilities, got {probs.shape}", lineno)
    if np.any(probs < 0):
        raise TPVError("negative probability", lineno)
    if not np.all(np.isfinite(probs)):
        raise TPVError("non-finite probability", lineno)
    total = float(probs.sum())
    if abs(total - 1.0) > RENORM_TOLERANCE:
        raise TPVError(f"probabilities sum to {total:.6f}", lineno)


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
