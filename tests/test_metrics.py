import math
import random

import numpy as np
import pytest

from mission_profiler.ingest import ProfileMetadata
from mission_profiler.metrics import (
    activity_metrics,
    burstiness,
    burstiness_from_cv,
    compute_metric_bundle,
    gini_index,
    hashtag_url_stats,
    profile_derived,
    time_delta_histogram,
    toxicity_metrics,
)
from mission_profiler.scores import ScoreCache

from conftest import BASE_TS, make_timeline, make_tweet


def pairwise_gini(values):
    """O(n^2) oracle: sum of |xi - xj| over ordered pairs / (2 n^2 mean)."""
    n = len(values)
    mean = sum(values) / n
    if mean == 0:
        return 0.0
    total = sum(abs(a - b) for a in values for b in values)
    return total / (2 * n * n * mean)


# -- gini -----------------------------------------------------------------------

def test_gini_constant_vector():
    assert gini_index([0.3, 0.3, 0.3]) == pytest.approx(0.0, abs=1e-12)


def test_gini_1234():
    # ordered-pair absolute differences sum to 20; 20 / (2 * 16 * 2.5)
    assert gini_index([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)
    assert pairwise_gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)


def test_gini_single_spike():
    # (n-1)/n pattern
    assert gini_index([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-12)
    assert pairwise_gini([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-12)


def test_gini_matches_pairwise_oracle():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 200)
        values = [rng.random() * rng.choice([1, 10, 100]) for _ in range(n)]
        assert gini_index(values) == pytest.approx(pairwise_gini(values), abs=1e-9)


def test_gini_scale_invariance():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 100)
        values = [rng.random() for _ in range(n)]
        c = rng.uniform(0.001, 1000)
        assert gini_index(values) == pytest.approx(gini_index([c * v for v in values]), abs=1e-9)


def test_gini_range():
    rng = random.Random(6)
    for _ in range(500):
        values = [rng.random() for _ in range(rng.randint(1, 50))]
        g = gini_index(values)
        assert 0.0 <= g < 1.0


def test_gini_errors():
    with pytest.raises(ValueError):
        gini_index([])
    with pytest.raises(ValueError):
        gini_index([1.0, -0.5])
    assert gini_index([0.0, 0.0]) == 0.0


# -- burstiness -------------------------------------------------------------------

def test_periodic_is_minus_one():
    ts = [BASE_TS + i * 3600 for i in range(10)]
    b, r, n = burstiness(ts)
    assert r == 0.0
    assert b == pytest.approx(-1.0, abs=1e-12)


def test_formula_n10_r1():
    expected = (math.sqrt(11) - 3) / ((math.sqrt(11) - 2) + 3)
    assert burstiness_from_cv(1.0, 10) == pytest.approx(expected, abs=1e-12)
    assert burstiness_from_cv(1.0, 10) == pytest.approx(0.0733, abs=1e-4)


def test_two_timestamps_is_none():
    b, r, n = burstiness([BASE_TS, BASE_TS + 10])
    assert b is None
    assert n == 2


def test_identical_timestamps_is_none():
    b, r, n = burstiness([BASE_TS] * 5)
    assert b is None
    assert r == 0.0


def test_bounds_on_fuzzed_series():
    rng = random.Random(31)
    for _ in range(10_000):
        n = rng.randint(3, 40)
        ts = BASE_TS
        series = [ts]
        for _ in range(n - 1):
            ts += rng.randint(1, 10_000)
            series.append(ts)
        b, r, _ = burstiness(series)
        assert -1.0 <= b <= 1.0
        assert r >= 0.0


def test_b_increases_in_r_for_fixed_n():
    for n in range(3, 30):
        values = [burstiness_from_cv(r, n) for r in np.linspace(0.0, math.sqrt(n - 1), 30)]
        diffs = np.diff(values)
        assert np.all(diffs > 0)


def test_b_reaches_bounds():
    for n in (3, 10, 50):
        assert burstiness_from_cv(0.0, n) == pytest.approx(-1.0)
        assert burstiness_from_cv(math.sqrt(n - 1), n) == pytest.approx(1.0)


# -- time deltas -----------------------------------------------------------------

def test_same_day_pair():
    assert time_delta_histogram([BASE_TS, BASE_TS + 100]) == {0: 1}


def test_day_one_one_three():
    day = 86400
    ts = [BASE_TS + day, BASE_TS + day + 50, BASE_TS + 3 * day]
    hist = time_delta_histogram(ts)
    assert hist == {0: 1, 1: 1}  # 50s gap and just-under-2-days gap


def test_exact_two_day_gap():
    day = 86400
    assert time_delta_histogram([BASE_TS, BASE_TS, BASE_TS + 2 * day]) == {0: 1, 2: 1}


def test_daily_tweets_full_year():
    day = 86400
    ts = [BASE_TS + i * day for i in range(366)]
    assert time_delta_histogram(ts) == {1: 365}


def test_hist_counts_sum_to_n_minus_one():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 50)
        ts = sorted(BASE_TS + rng.randint(0, 10**7) for _ in range(n))
        hist = time_delta_histogram(ts)
        assert sum(hist.values()) == n - 1


# -- hashtags / urls --------------------------------------------------------------

def _timeline_with_tags(n_tweets, tags_per_tweet):
    tweets = [
        make_tweet(i, "p", f"text {i}", BASE_TS + i, hashtags=tags_per_tweet[i] if i < len(tags_per_tweet) else [])
        for i in range(n_tweets)
    ]
    return make_timeline("p", tweets=tweets)


def test_hashtag_ratio():
    tags = [["a"] * 2 for _ in range(15)]  # 30 hashtags over 20 tweets
    tl = _timeline_with_tags(20, tags)
    stats = hashtag_url_stats(tl)
    assert stats.total_hashtags == 30
    assert stats.hashtags_per_tweet == pytest.approx(1.5)


def test_hashtag_case_insensitive_unique():
    tl = make_timeline("p", tweets=[
        make_tweet(0, "p", "x", BASE_TS, hashtags=["A"]),
        make_tweet(1, "p", "y", BASE_TS + 1, hashtags=["a"]),
    ])
    stats = hashtag_url_stats(tl)
    assert stats.total_hashtags == 2
    assert stats.unique_hashtags == 1


def test_no_hashtags_all_zero():
    tl = _timeline_with_tags(5, [])
    stats = hashtag_url_stats(tl)
    assert stats.total_hashtags == stats.unique_hashtags == 0
    assert stats.hashtags_per_tweet == 0.0
    assert stats.total_urls == 0


def test_url_stats():
    tl = make_timeline("p", tweets=[
        make_tweet(0, "p", "x", BASE_TS, urls=["https://a.example/1", "https://a.example/1"]),
        make_tweet(1, "p", "y", BASE_TS + 1, urls=["https://b.example/2"]),
    ])
    stats = hashtag_url_stats(tl)
    assert stats.total_urls == 3
    assert stats.unique_urls == 2
    assert stats.urls_per_tweet == pytest.approx(1.5)


# -- toxicity metrics ---------------------------------------------------------------

def test_toxicity_metrics_basic():
    tl = make_timeline("p", texts=["a", "b", "c"])
    cache = ScoreCache()
    for t, s in zip(tl.tweets, [0.1, 0.5, 0.9]):
        cache.put_toxicity(t.tweet_id, s)
    tox = toxicity_metrics(tl, cache)
    assert tox.median == pytest.approx(0.5)
    assert tox.n_scored == 3
    assert tox.gini == pytest.approx(pairwise_gini([0.1, 0.5, 0.9]), abs=1e-12)


def test_toxicity_metrics_missing_scores_null():
    tl = make_timeline("p", texts=["a", "b"])
    tox = toxicity_metrics(tl, ScoreCache())
    assert tox.median is None
    assert tox.gini is None
    assert tox.n_scored == 0


def test_toxicity_metrics_partial_scores_use_present_only():
    tl = make_timeline("p", texts=["a", "b", "c", "d"])
    cache = ScoreCache()
    cache.put_toxicity(tl.tweets[0].tweet_id, 0.2)
    cache.put_toxicity(tl.tweets[2].tweet_id, 0.4)
    tox = toxicity_metrics(tl, cache)
    assert tox.n_scored == 2
    assert tox.median == pytest.approx(0.3)


# -- derived profile fields -----------------------------------------------------------

def test_followers_following_ratio():
    meta = ProfileMetadata(followers=10, following=4)
    d = profile_derived(meta, BASE_TS)
    assert d.followers_following_ratio == pytest.approx(2.5)


def test_ratio_null_when_following_zero():
    meta = ProfileMetadata(followers=10, following=0)
    assert profile_derived(meta, BASE_TS).followers_following_ratio is None


def test_account_age_and_year():
    created = 1262304000  # 2010-01-01T00:00:00Z
    meta = ProfileMetadata(created_at=created)
    d = profile_derived(meta, created + 100 * 86400)
    assert d.account_age_days == pytest.approx(100.0)
    assert d.creation_year == 2010


def test_missing_metadata_gives_nulls():
    d = profile_derived(None, BASE_TS)
    assert d.followers_following_ratio is None
    assert d.account_age_days is None
    assert d.creation_year is None


# -- bundle -----------------------------------------------------------------------------

def test_bundle_counts():
    tweets = [
        make_tweet(0, "p", "alpha beta gamma", BASE_TS),
        make_tweet(1, "p", "alpha beta gamma", BASE_TS + 60),
        make_tweet(2, "p", "RT @x something", BASE_TS + 120, is_retweet=True),
        make_tweet(3, "p", "delta epsilon", BASE_TS + 86400 * 2),
    ]
    tl = make_timeline("p", tweets=tweets)
    bundle = compute_metric_bundle(tl, ScoreCache())
    assert bundle.activity.n_tweets == 4
    assert bundle.activity.n_unique == 2
    assert bundle.activity.n_retweets == 1
    assert sum(bundle.activity.delta_days_hist.values()) == 3
    assert bundle.activity.n_unique <= bundle.activity.n_tweets
