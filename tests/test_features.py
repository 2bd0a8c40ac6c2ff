import numpy as np
import pytest

from mission_profiler.features import (
    FEATURE_CATALOG,
    FEATURE_NAMES,
    N_FEATURES,
    catalog_hash,
    extract_features,
    feature_matrix,
    group_indices,
    load_features,
    save_features,
)
from mission_profiler.ingest import ProfileMetadata
from mission_profiler.metrics import bundle_to_dict, compute_metric_bundle
from mission_profiler.scores import ScoreCache
from mission_profiler.topics import CATEGORIES

from conftest import BASE_TS, make_timeline, make_tweet


def _bundle(timeline, scores=None):
    """The profile's metrics.jsonl row, which extract_features reads."""
    cache = ScoreCache()
    for t, s in zip(timeline.tweets, scores or []):
        cache.put_toxicity(t.tweet_id, s)
    return bundle_to_dict(compute_metric_bundle(timeline, cache))


def _counts(**kw):
    counts = {c: 0 for c in CATEGORIES}
    counts.update(kw)
    return counts


def test_catalog_is_the_literal_enumeration():
    # 8 category counts + 1 toxicity + 5 lexical + 2 length = 16 content
    # 6 auxiliary; 5 activity + 13 profile = 18 activity_profile
    assert N_FEATURES == 40
    assert len(group_indices("content")) == 16
    assert len(group_indices("auxiliary")) == 6
    assert len(group_indices("activity_profile")) == 18
    assert len(group_indices("all")) == 40
    groups = {g for _, g in FEATURE_CATALOG}
    assert groups == {"content", "auxiliary", "activity_profile"}


def test_group_indices_disjoint_cover():
    seen = sorted(
        i for g in ("content", "auxiliary", "activity_profile") for i in group_indices(g)
    )
    assert seen == list(range(N_FEATURES))


def test_null_toxicity_imputes_zero_with_mask():
    tl = make_timeline("p", texts=["some words here now"] * 3)
    fv = extract_features("p", _bundle(tl), _counts(), None)
    idx = FEATURE_NAMES.index("median_toxicity")
    assert fv.values[idx] == 0.0
    assert fv.mask[idx]


def test_identical_profiles_identical_vectors():
    tl_a = make_timeline("a", texts=["alpha beta gamma delta"] * 4)
    tl_b = make_timeline("b", texts=["alpha beta gamma delta"] * 4)
    fa = extract_features("a", _bundle(tl_a, [0.5] * 4), _counts(politics=4), None)
    fb = extract_features("b", _bundle(tl_b, [0.5] * 4), _counts(politics=4), None)
    assert np.array_equal(fa.values, fb.values)
    assert np.array_equal(fa.mask, fb.mask)


def test_boolean_and_date_encodings():
    meta = ProfileMetadata(
        followers=10, following=5, verified=True, protected=False,
        has_location=True, description_len=42,
        created_at=BASE_TS - 10 * 86400,
    )
    tweets = [make_tweet(i, "p", f"word{i} more text", BASE_TS + i * 3600) for i in range(4)]
    tl = make_timeline("p", tweets=tweets, metadata=meta)
    fv = extract_features("p", _bundle(tl), _counts(), meta)
    assert fv.values[FEATURE_NAMES.index("verified")] == 1.0
    assert fv.values[FEATURE_NAMES.index("protected")] == 0.0
    assert fv.values[FEATURE_NAMES.index("has_location")] == 1.0
    assert fv.values[FEATURE_NAMES.index("description_len")] == 42.0
    age = fv.values[FEATURE_NAMES.index("account_age_days")]
    assert age == pytest.approx(10 + 3 * 3600 / 86400)


def test_golden_profile_vector_recomputed_from_oracles():
    """Pinned vector for one fixed profile, every entry derived by hand or
    from the already-tested metric functions."""
    day = 86400
    tweets = [
        make_tweet(0, "p", "The cat sat on the mat.", BASE_TS),
        make_tweet(1, "p", "The cat sat on the mat.", BASE_TS + day),
        make_tweet(2, "p", "dogs bark loudly outside tonight", BASE_TS + 2 * day, hashtags=["dogs"]),
        make_tweet(3, "p", "RT @x echo", BASE_TS + 3 * day, is_retweet=True),
    ]
    meta = ProfileMetadata(followers=8, following=2, statuses=100,
                           created_at=BASE_TS - 100 * day)
    tl = make_timeline("p", tweets=tweets, metadata=meta)
    fv = extract_features("p", _bundle(tl, [0.1, 0.2, 0.3, 0.4]),
                          _counts(everyday=2, sports=1), meta)

    def val(name):
        return fv.values[FEATURE_NAMES.index(name)]

    assert val("tweets_everyday") == 2
    assert val("tweets_sports") == 1
    assert val("median_toxicity") == pytest.approx(0.25)  # median of 4 scores
    assert val("n_tweets") == 4
    assert val("n_retweets") == 1
    assert val("n_unique") == 2  # two identical texts deduplicate, retweet drops
    assert val("total_hashtags") == 1
    assert val("hashtags_per_tweet") == pytest.approx(0.25)
    assert val("median_delta_days") == 1.0
    assert val("followers") == 8
    assert val("account_age_days") == pytest.approx(103.0)
    # periodic daily posting
    assert val("burstiness") == pytest.approx(-1.0)
    assert not fv.mask[FEATURE_NAMES.index("median_toxicity")]


def test_matrix_shapes_and_order():
    tl = make_timeline("b", texts=["one two three four"] * 3)
    fb = extract_features("b", _bundle(tl), _counts(), None)
    tl2 = make_timeline("a", texts=["five six seven eight"] * 3)
    fa = extract_features("a", _bundle(tl2), _counts(), None)
    ids, X, M = feature_matrix([fb, fa])
    assert ids == ["a", "b"]  # sorted
    assert X.shape == (2, N_FEATURES)
    assert M.shape == (2, N_FEATURES)


def test_save_load_round_trip(tmp_path):
    tl = make_timeline("p", texts=["alpha beta gamma delta"] * 3)
    fv = extract_features("p", _bundle(tl, [0.5] * 3), _counts(politics=3), None)
    path = tmp_path / "features.jsonl"
    save_features([fv], path)
    loaded = load_features(path)
    assert len(loaded) == 1
    assert np.array_equal(loaded[0].values, fv.values)
    assert np.array_equal(loaded[0].mask, fv.mask)


def test_load_rejects_foreign_catalog(tmp_path):
    path = tmp_path / "features.jsonl"
    path.write_text('{"format": "mission-profiler-features", "version": 1, "catalog_hash": "beef"}\n')
    with pytest.raises(ValueError):
        load_features(path)


def test_catalog_hash_stable():
    assert catalog_hash() == catalog_hash()
    assert len(catalog_hash()) == 64
