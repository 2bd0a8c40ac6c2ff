"""The per-profile metric battery: toxicity concentration, lexical stats,
activity/burstiness, hashtag and URL usage, and derived profile fields.

All functions here are pure per-profile computations keyed by profile_id,
so the metric stage can run data-parallel with a deterministic merge. Each
battery returns its part of the profile's metrics.jsonl row as a dict
under the row's own keys; ``compute_metric_bundle`` joins them.
"""
from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np

from .ingest import ProfileMetadata, ProfileTimeline, is_retweet, unique_tweets
from .readability import LEXICAL_KEYS, readability_metrics
from .scores import ScoreCache
from .util import median

SECONDS_PER_DAY = 86400
MIN_BURSTINESS_EVENTS = 3


def gini_index(values) -> float:
    """Concentration of non-negative values in [0, 1).

    Sorted O(n log n) evaluation of the mean-absolute-difference form
    sum_ij |x_i - x_j| / (2 n^2 mean); an all-zero vector scores 0.
    """
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise ValueError("empty input")
    if np.any(x < 0):
        raise ValueError("negative values")
    total = x.sum()
    if total == 0.0:
        return 0.0
    x = np.sort(x)
    n = x.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * x).sum() - (n + 1) * total) / (n * total))


def burstiness_from_cv(r: float, n: int) -> float:
    """Finite-size-corrected burstiness of a coefficient of variation r
    over n events; -1 for periodic, approaching 1 as concentration peaks."""
    if n < MIN_BURSTINESS_EVENTS:
        raise ValueError(f"need at least {MIN_BURSTINESS_EVENTS} events, got {n}")
    root_p = math.sqrt(n + 1)
    root_m = math.sqrt(n - 1)
    return (root_p * r - root_m) / ((root_p - 2.0) * r + root_m)


def burstiness(timestamps) -> tuple[float | None, float, int]:
    """(B, r_cv, n_events) for an ascending timestamp series.

    B is None for fewer than 3 events or an all-identical series (zero
    mean inter-event time).
    """
    ts = list(timestamps)
    n = len(ts)
    if n < 2:
        return None, 0.0, n
    taus = np.diff(np.asarray(ts, dtype=float))
    mean_tau = float(taus.mean())
    if mean_tau == 0.0:
        return None, 0.0, n
    r = float(taus.std() / mean_tau)
    if n < MIN_BURSTINESS_EVENTS:
        return None, r, n
    return burstiness_from_cv(r, n), r, n


def time_delta_histogram(timestamps) -> dict[int, int]:
    """Counts of whole-day gaps between consecutive timestamps."""
    ts = list(timestamps)
    hist: dict[int, int] = {}
    for earlier, later in zip(ts, ts[1:]):
        day_gap = (later - earlier) // SECONDS_PER_DAY
        hist[day_gap] = hist.get(day_gap, 0) + 1
    return hist


def activity_metrics(timeline: ProfileTimeline) -> dict:
    """Tweet counts, burstiness and the whole-day gap histogram (string
    keys in day order) of the row."""
    timestamps = [t.timestamp for t in timeline.tweets]
    b, r_cv, n_events = burstiness(timestamps)
    hist = time_delta_histogram(timestamps)
    deltas = [gap for gap, count in hist.items() for _ in range(count)]
    return {
        "n_tweets": len(timeline.tweets),
        "n_unique": len(unique_tweets(timeline)),
        "n_retweets": sum(1 for t in timeline.tweets if is_retweet(t)),
        "burstiness": b,
        "r_cv": r_cv,
        "n_events": n_events,
        "delta_days_hist": {str(k): v for k, v in sorted(hist.items())},
        "median_delta_days": float(median(deltas)) if deltas else None,
    }


def hashtag_url_stats(timeline: ProfileTimeline) -> dict:
    n_tweets = len(timeline.tweets)
    tags = [tag for tweet in timeline.tweets for tag in tweet.hashtags]
    urls = [url for tweet in timeline.tweets for url in tweet.urls]
    # uniqueness is case-insensitive (hashtags arrive lowercased at ingest)
    unique_tags = {t.lower() for t in tags}
    unique_urls = {u.lower() for u in urls}
    return {
        "total_hashtags": len(tags),
        "unique_hashtags": len(unique_tags),
        "hashtags_per_tweet": len(tags) / n_tweets if n_tweets else 0.0,
        "total_urls": len(urls),
        "unique_urls": len(unique_urls),
        "urls_per_tweet": len(urls) / n_tweets if n_tweets else 0.0,
    }


def toxicity_metrics(timeline: ProfileTimeline, cache: ScoreCache) -> dict:
    """Median and Gini index of the profile's scored tweets; both None
    when none is scored."""
    scores = [cache.toxicity[t.tweet_id] for t in timeline.tweets if t.tweet_id in cache.toxicity]
    if not scores:
        return {"toxicity_median": None, "toxicity_gini": None, "n_scored": 0}
    return {
        "toxicity_median": float(median(scores)),
        "toxicity_gini": gini_index(scores),
        "n_scored": len(scores),
    }


def profile_derived(metadata: ProfileMetadata | None, last_tweet_ts: int) -> dict:
    ratio = age_days = year = None
    if metadata is not None:
        ratio = metadata.followers / metadata.following if metadata.following > 0 else None
        if metadata.created_at is not None:
            age_days = (last_tweet_ts - metadata.created_at) / SECONDS_PER_DAY
            year = datetime.fromtimestamp(metadata.created_at, timezone.utc).year
    return {"followers_following_ratio": ratio, "account_age_days": age_days, "creation_year": year}


# a profile without a non-empty tweet has every lexical metric null
_NO_LEXICAL = dict.fromkeys(LEXICAL_KEYS)


def compute_metric_bundle(timeline: ProfileTimeline, cache: ScoreCache) -> dict:
    """The profile's metrics.jsonl row."""
    return {
        "profile_id": timeline.profile_id,
        **toxicity_metrics(timeline, cache),
        **(readability_metrics([t.text_norm for t in timeline.tweets]) or _NO_LEXICAL),
        **activity_metrics(timeline),
        **hashtag_url_stats(timeline),
        **profile_derived(timeline.metadata, timeline.last_timestamp()),
    }
