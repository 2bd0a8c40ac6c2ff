"""The per-profile metric battery: toxicity concentration, lexical stats,
activity/burstiness, hashtag and URL usage, and derived profile fields.

All functions here are pure per-profile computations keyed by profile_id,
so the metric stage can run data-parallel with a deterministic merge.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .ingest import ProfileMetadata, ProfileTimeline, is_retweet, unique_tweets
from .readability import LexicalMetrics, readability_metrics
from .scores import ScoreCache

SECONDS_PER_DAY = 86400
MIN_BURSTINESS_EVENTS = 3


@dataclass
class ToxicityMetrics:
    profile_id: str
    median: float | None
    gini: float | None
    n_scored: int


@dataclass
class ActivityMetrics:
    n_tweets: int
    n_unique: int
    n_retweets: int
    burstiness_B: float | None
    r_cv: float
    n_events: int
    delta_days_hist: dict[int, int]
    median_delta_days: float | None


@dataclass
class HashtagMetrics:
    total_hashtags: int
    unique_hashtags: int
    hashtags_per_tweet: float
    total_urls: int
    unique_urls: int
    urls_per_tweet: float


@dataclass
class ProfileDerived:
    followers_following_ratio: float | None
    account_age_days: float | None
    creation_year: int | None


@dataclass
class MetricBundle:
    profile_id: str
    toxicity: ToxicityMetrics
    lexical: LexicalMetrics | None
    activity: ActivityMetrics
    hashtags: HashtagMetrics
    derived: ProfileDerived


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


def activity_metrics(timeline: ProfileTimeline) -> ActivityMetrics:
    timestamps = [t.timestamp for t in timeline.tweets]
    b, r_cv, n_events = burstiness(timestamps)
    hist = time_delta_histogram(timestamps)
    deltas = [gap for gap, count in hist.items() for _ in range(count)]
    return ActivityMetrics(
        n_tweets=len(timeline.tweets),
        n_unique=len(unique_tweets(timeline)),
        n_retweets=sum(1 for t in timeline.tweets if is_retweet(t)),
        burstiness_B=b,
        r_cv=r_cv,
        n_events=n_events,
        delta_days_hist=hist,
        median_delta_days=float(statistics.median(deltas)) if deltas else None,
    )


def hashtag_url_stats(timeline: ProfileTimeline) -> HashtagMetrics:
    n_tweets = len(timeline.tweets)
    tags: list[str] = []
    urls: list[str] = []
    for tweet in timeline.tweets:
        tags.extend(tweet.hashtags)
        urls.extend(tweet.urls)
    # uniqueness is case-insensitive (hashtags arrive lowercased at ingest)
    unique_tags = {t.lower() for t in tags}
    unique_urls = {u.lower() for u in urls}
    return HashtagMetrics(
        total_hashtags=len(tags),
        unique_hashtags=len(unique_tags),
        hashtags_per_tweet=len(tags) / n_tweets if n_tweets else 0.0,
        total_urls=len(urls),
        unique_urls=len(unique_urls),
        urls_per_tweet=len(urls) / n_tweets if n_tweets else 0.0,
    )


def toxicity_metrics(timeline: ProfileTimeline, cache: ScoreCache) -> ToxicityMetrics:
    scores = [
        cache.toxicity[t.tweet_id]
        for t in timeline.tweets
        if t.tweet_id in cache.toxicity
    ]
    if not scores:
        return ToxicityMetrics(timeline.profile_id, median=None, gini=None, n_scored=0)
    return ToxicityMetrics(
        profile_id=timeline.profile_id,
        median=float(statistics.median(scores)),
        gini=gini_index(scores),
        n_scored=len(scores),
    )


def profile_derived(metadata: ProfileMetadata | None, last_tweet_ts: int) -> ProfileDerived:
    if metadata is None:
        return ProfileDerived(None, None, None)
    ratio = metadata.followers / metadata.following if metadata.following > 0 else None
    age_days = None
    year = None
    if metadata.created_at is not None:
        age_days = (last_tweet_ts - metadata.created_at) / SECONDS_PER_DAY
        year = datetime.fromtimestamp(metadata.created_at, timezone.utc).year
    return ProfileDerived(
        followers_following_ratio=ratio,
        account_age_days=age_days,
        creation_year=year,
    )


def compute_metric_bundle(timeline: ProfileTimeline, cache: ScoreCache) -> MetricBundle:
    return MetricBundle(
        profile_id=timeline.profile_id,
        toxicity=toxicity_metrics(timeline, cache),
        lexical=readability_metrics([t.text_norm for t in timeline.tweets]),
        activity=activity_metrics(timeline),
        hashtags=hashtag_url_stats(timeline),
        derived=profile_derived(timeline.metadata, timeline.last_timestamp()),
    )


def bundle_to_dict(bundle: MetricBundle) -> dict:
    """Flatten a MetricBundle into a JSON-serializable row for metrics.jsonl."""
    lex = bundle.lexical
    return {
        "profile_id": bundle.profile_id,
        "toxicity_median": bundle.toxicity.median,
        "toxicity_gini": bundle.toxicity.gini,
        "n_scored": bundle.toxicity.n_scored,
        "flesch_ease": lex.flesch_ease if lex else None,
        "flesch_kincaid_grade": lex.flesch_kincaid_grade if lex else None,
        "linsear_write": lex.linsear_write if lex else None,
        "ari": lex.ari if lex else None,
        "lexical_diversity_mtld": lex.lexical_diversity_mtld if lex else None,
        "chars_per_tweet": lex.chars_per_tweet if lex else None,
        "words_per_tweet": lex.words_per_tweet if lex else None,
        "n_tweets": bundle.activity.n_tweets,
        "n_unique": bundle.activity.n_unique,
        "n_retweets": bundle.activity.n_retweets,
        "burstiness": bundle.activity.burstiness_B,
        "r_cv": bundle.activity.r_cv,
        "n_events": bundle.activity.n_events,
        "delta_days_hist": {str(k): v for k, v in sorted(bundle.activity.delta_days_hist.items())},
        "median_delta_days": bundle.activity.median_delta_days,
        "total_hashtags": bundle.hashtags.total_hashtags,
        "unique_hashtags": bundle.hashtags.unique_hashtags,
        "hashtags_per_tweet": bundle.hashtags.hashtags_per_tweet,
        "total_urls": bundle.hashtags.total_urls,
        "unique_urls": bundle.hashtags.unique_urls,
        "urls_per_tweet": bundle.hashtags.urls_per_tweet,
        "followers_following_ratio": bundle.derived.followers_following_ratio,
        "account_age_days": bundle.derived.account_age_days,
        "creation_year": bundle.derived.creation_year,
    }
