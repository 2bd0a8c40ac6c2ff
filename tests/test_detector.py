import random
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mission_profiler.detector import (
    NOT_ON_MISSION,
    ON_MISSION,
    assign_topic_labels,
    detect_clusters,
    fleiss_kappa,
    global_topic_average,
    ntpv,
    overlap_evidence,
    top3_gap,
    toxicity_threshold,
)
from mission_profiler.ingest import ProfileMetadata


# -- global average -----------------------------------------------------------------

def test_single_profile_single_tweet():
    avg = global_topic_average([np.array([0.5, 0.5])], n_profiles=1)
    assert np.allclose(avg, [0.5, 0.5])


def test_sum_divided_by_profiles():
    tpvs = [np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.array([0.5, 1.5])]
    avg = global_topic_average(tpvs, n_profiles=2)
    assert np.allclose(avg, [1.0, 1.0])


def test_zero_entries_floored_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        avg = global_topic_average([np.array([1.0, 0.0])], n_profiles=1)
    assert avg[1] == 1e-12
    assert any("zero global average" in str(w.message) for w in caught)


def test_streaming_oracle_agreement():
    rng = np.random.default_rng(42)
    tpvs = [rng.dirichlet(np.ones(20)) for _ in range(500)]
    avg = global_topic_average(tpvs, n_profiles=37)
    # two-pass streaming oracle: accumulate entrywise in plain python
    totals = [0.0] * 20
    for v in tpvs:
        for k in range(20):
            totals[k] += float(v[k])
    oracle = [t / 37 for t in totals]
    assert np.allclose(avg, oracle, atol=1e-9)
    # the same vectors as the rows of one (n, K) array give the same bits
    matrix = np.array(tpvs)
    assert global_topic_average(matrix, n_profiles=37).tobytes() == avg.tobytes()
    assert ntpv(matrix[:40], avg).tobytes() == ntpv(tpvs[:40], avg).tobytes()


def test_no_tpvs_raises():
    with pytest.raises(ValueError):
        global_topic_average([], n_profiles=1)


def test_per_tweet_mean_flag():
    tpvs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    avg = global_topic_average(tpvs, n_profiles=1, per_tweet_mean=True)
    assert np.allclose(avg, [0.5, 0.5])


# -- ntpv ---------------------------------------------------------------------------

def test_single_profile_single_tweet_all_ones():
    tpv = np.array([0.4, 0.6])
    avg = global_topic_average([tpv], n_profiles=1)
    result = ntpv([tpv], avg)
    assert np.allclose(result, [1.0, 1.0], atol=1e-9)


def test_profile_mean_equal_to_global_average_is_all_ones():
    avg = np.array([0.2, 0.3, 0.5])
    result = ntpv([np.array([0.1, 0.4, 0.5]), np.array([0.3, 0.2, 0.5])], avg)
    assert np.allclose(result, [1.0, 1.0, 1.0])


def test_focused_profile_exceeds_one_on_its_topic():
    # two profiles; profile b posts exclusively topic 1 while a is uniform
    a = [np.array([0.5, 0.5]) for _ in range(4)]
    b = [np.array([0.0, 1.0]) for _ in range(4)]
    avg = global_topic_average(a + b, n_profiles=2)
    # hand oracle: avg = [2.0, 6.0] / 2 = [1.0, 3.0]; b mean = [0, 1]
    assert np.allclose(avg, [1.0, 3.0])
    result = ntpv(b, avg)
    assert np.allclose(result, [0.0, 1.0 / 3.0])
    assert int(np.argmax(result)) == 1


def test_ntpv_argmax_invariant_to_positive_scaling():
    rng = np.random.default_rng(9)
    base = [rng.dirichlet(np.ones(12)) for _ in range(30)]
    avg = global_topic_average(base, n_profiles=5)
    mine = base[:7]
    label_before = int(np.argmax(ntpv(mine, avg)))
    scaled_avg = global_topic_average([v * 4.2 for v in base], n_profiles=5)
    label_after = int(np.argmax(ntpv([v * 4.2 for v in mine], scaled_avg)))
    assert label_before == label_after


# -- top3 gaps -------------------------------------------------------------------------

def test_gaps_basic():
    assert top3_gap(np.array([0.6, 0.3, 0.1])) == (pytest.approx(0.3), pytest.approx(0.2))


def test_gaps_uniform_zero():
    assert top3_gap(np.full(5, 0.2)) == (pytest.approx(0.0), pytest.approx(0.0))


def test_gaps_order_independent():
    assert top3_gap(np.array([0.1, 0.6, 0.3])) == (pytest.approx(0.3), pytest.approx(0.2))


def test_gaps_fewer_than_three_nonzero_is_none():
    assert top3_gap(np.array([0.7, 0.3, 0.0])) is None


# -- labels -----------------------------------------------------------------------------

def _agg(topic, tweet_count, median_toxicity):
    """One aggregates.json row, as topics.topic_aggregates returns it."""
    return {"topic": topic, "tweet_count": tweet_count, "median_toxicity": median_toxicity}


def _aggs(tox_by_topic, K=8):
    return {t: _agg(t, 10, tox_by_topic.get(t)) for t in range(K)}


def test_assign_labels():
    ntpvs = {
        "a": np.array([0.1, 2.0, 0.3, 0, 0, 0, 0, 0]),
        "b": np.array([1.5, 1.5, 0, 0, 0, 0, 0, 0]),
    }
    assert assign_topic_labels(ntpvs) == {"a": 1, "b": 0}  # tie -> lowest index


# -- cluster designation ------------------------------------------------------------------

def _label_map(assignments):
    """Topic labels as assign_topic_labels returns them: {profile_id: topic}."""
    return dict(assignments)


def _skewed_cluster_fixture():
    """Three large high-toxicity clusters (62 + 26 + 8 profiles) next to 72
    profiles spread over singleton and pair labels on low-toxicity topics."""
    assignments = {}
    for i in range(62):
        assignments[f"pol{i:03d}"] = 54
    for i in range(26):
        assignments[f"hea{i:03d}"] = 47
    for i in range(8):
        assignments[f"new{i:03d}"] = 190
    # 72 leftovers: 24 pair-topics (48 profiles) + 24 singleton topics
    leftovers = []
    topic = 0
    for i in range(24):
        leftovers.extend([f"msc{2 * i:03d}", f"msc{2 * i + 1:03d}"])
        assignments[f"msc{2 * i:03d}"] = topic
        assignments[f"msc{2 * i + 1:03d}"] = topic
        topic += 1
        if topic == 47:
            topic += 1
    singles_start = 48
    for i in range(24):
        pid = f"msc{singles_start + i:03d}"
        leftovers.append(pid)
        while topic in (47, 54, 190):
            topic += 1
        assignments[pid] = topic
        topic += 1
    tox = {54: 0.150, 47: 0.148, 190: 0.146}
    for t in set(assignments.values()) - {54, 47, 190}:
        tox[t] = 0.08 + (t % 10) * 0.001  # 0.080..0.089
    aggs = {t: _agg(t, 5, tox[t]) for t in sorted(set(assignments.values()))}
    return assignments, aggs


def test_skewed_cluster_fixture_yields_96_on_mission():
    assignments, aggs = _skewed_cluster_fixture()
    labels = _label_map(assignments)
    clusters, designations = detect_clusters(sorted(assignments), labels, aggs)
    on = [p for p, d in designations.items() if d["label"] == ON_MISSION]
    not_on = [p for p, d in designations.items() if d["label"] == NOT_ON_MISSION]
    assert len(on) == 96
    assert len(not_on) == 72
    sizes = sorted((c["size"] for c in clusters if c["on_mission"]), reverse=True)
    assert sizes == [62, 26, 8]


def test_cluster_rows_carry_the_designation_file_keys():
    assignments = {"a": 4, "b": 4, "c": 4, "d": 1}
    metadata = {"a": _meta(friends=["b"]), "b": _meta(), "c": _meta(), "d": _meta()}
    clusters, designations = detect_clusters(
        sorted(assignments), _label_map(assignments), _aggs({4: 0.9, 1: 0.1}), metadata=metadata,
    )
    assert clusters == [
        {"cluster_id": "t4", "topic_label": 4, "size": 3, "topic_median_toxicity": 0.9, "on_mission": True,
         "friend_overlap": 0.5, "shared_retweet_ratio": None},
        {"cluster_id": "t1", "topic_label": 1, "size": 1, "topic_median_toxicity": 0.1, "on_mission": False,
         "friend_overlap": None, "shared_retweet_ratio": None},
    ]
    assert designations["a"]["evidence"] == {
        "cluster_size": 3, "topic_median_tox": 0.9, "friend_overlap": 0.5, "shared_retweet_ratio": None,
        "top3_gaps": None,
    }


def test_all_singletons_zero_on_mission():
    assignments = {f"p{i}": i for i in range(10)}
    aggs = {i: _agg(i, 1, 0.9) for i in range(10)}
    _, designations = detect_clusters(sorted(assignments), _label_map(assignments), aggs)
    assert all(d["label"] == NOT_ON_MISSION for d in designations.values())


def test_low_toxicity_cluster_gated_out():
    assignments = {f"p{i}": 3 for i in range(5)}
    aggs = _aggs({3: 0.01, 0: 0.5, 1: 0.6, 2: 0.7})
    _, designations = detect_clusters(
        sorted(assignments), _label_map(assignments), aggs, tox_gate=("absolute", 0.1)
    )
    assert all(d["label"] == NOT_ON_MISSION for d in designations.values())


def test_every_profile_designated_exactly_once():
    rng = random.Random(12)
    assignments = {f"p{i}": rng.randint(0, 20) for i in range(300)}
    aggs = {t: _agg(t, 3, rng.random()) for t in range(21)}
    _, designations = detect_clusters(sorted(assignments), _label_map(assignments), aggs)
    assert sorted(designations) == sorted(assignments)


def test_on_mission_count_monotone_in_thresholds():
    rng = random.Random(13)
    assignments = {f"p{i}": rng.randint(0, 12) for i in range(200)}
    aggs = {t: _agg(t, 3, rng.random()) for t in range(13)}
    labels = _label_map(assignments)
    group = sorted(assignments)

    def count_on(min_cluster, tox):
        _, d = detect_clusters(group, labels, aggs, min_cluster=min_cluster,
                               tox_gate=("absolute", tox))
        return sum(1 for x in d.values() if x["label"] == ON_MISSION)

    for tox in np.linspace(0, 1, 8):
        counts = [count_on(mc, tox) for mc in range(1, 12)]
        assert counts == sorted(counts, reverse=True)
    for mc in range(1, 8):
        counts = [count_on(mc, t) for t in np.linspace(0, 1, 12)]
        assert counts == sorted(counts, reverse=True)


def test_percentile_gate():
    aggs = {t: _agg(t, 1, 0.1 * t) for t in range(11)}  # 0.0 .. 1.0
    assert toxicity_threshold(aggs, ("percentile", 75.0)) == pytest.approx(0.75)
    assert toxicity_threshold(aggs, ("absolute", 0.33)) == 0.33


def _linear_percentile(values, p):
    """The p-th percentile, interpolating linearly between the two closest
    ranks of the sorted values (numpy's default method)."""
    xs = sorted(values)
    rank = p / 100 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.floats(0.0, 1.0)), min_size=1, max_size=60), st.floats(0.0, 100.0))
def test_percentile_gate_matches_a_linear_interpolation_oracle(medians, p):
    aggs = {t: _agg(t, 1, m) for t, m in enumerate(medians)}
    scored = [m for m in medians if m is not None]  # topics without a median take no part
    if not scored:
        with pytest.raises(ValueError, match="no topic has a median toxicity"):
            toxicity_threshold(aggs, ("percentile", p))
        return
    expected = _linear_percentile(scored, p)
    assert toxicity_threshold(aggs, ("percentile", p)) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_empty_group_raises():
    with pytest.raises(ValueError):
        detect_clusters([], {}, {})


# -- overlap evidence -------------------------------------------------------------------

def _meta(friends=None, retweets=None):
    return ProfileMetadata(
        friends_ids=tuple(friends) if friends is not None else None,
        retweeted_ids=tuple(retweets) if retweets is not None else None,
    )


def test_all_pairwise_friends():
    metadata = {
        "a": _meta(friends=["b", "c"]),
        "b": _meta(friends=["a", "c"]),
        "c": _meta(friends=["a", "b"]),
    }
    ev = overlap_evidence(["a", "b", "c"], metadata)
    assert ev["friend_overlap"] == pytest.approx(1.0)


def test_no_friend_data_is_null():
    metadata = {"a": _meta(), "b": _meta()}
    ev = overlap_evidence(["a", "b"], metadata)
    assert ev["friend_overlap"] is None
    assert ev["shared_retweet_ratio"] is None


def test_two_of_four_share_a_retweet():
    metadata = {
        "a": _meta(retweets=["r1"]),
        "b": _meta(retweets=["r1"]),
        "c": _meta(retweets=["r9"]),
        "d": _meta(retweets=[]),
    }
    ev = overlap_evidence(["a", "b", "c", "d"], metadata)
    assert ev["shared_retweet_ratio"] == pytest.approx(0.5)


def test_one_sided_friend_listing_counts():
    metadata = {"a": _meta(friends=["b"]), "b": _meta(friends=[])}
    ev = overlap_evidence(["a", "b"], metadata)
    assert ev["friend_overlap"] == pytest.approx(1.0)


# the pairwise form overlap_evidence had before it counted in one pass, kept as its oracle
def _reference_overlap_evidence(members: list[str], metadata: dict[str, ProfileMetadata | None]) -> dict:
    """Friendship and retweet overlap within a cluster, as the
    "friend_overlap" and "shared_retweet_ratio" keys of its row.

    friend_overlap is the fraction of member pairs connected as friends
    (either direction); shared_retweet_ratio is the fraction of members
    sharing at least one retweeted id with another member. Both are None
    when no member carries the underlying data.
    """
    friends = {
        m: set(meta.friends_ids)
        for m in members
        if (meta := metadata.get(m)) is not None and meta.friends_ids is not None
    }
    retweets = {
        m: set(meta.retweeted_ids)
        for m in members
        if (meta := metadata.get(m)) is not None and meta.retweeted_ids is not None
    }

    friend_overlap = None
    if friends:
        pairs = 0
        connected = 0
        ordered = sorted(members)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if a not in friends and b not in friends:
                    continue
                pairs += 1
                if b in friends.get(a, ()) or a in friends.get(b, ()):
                    connected += 1
        friend_overlap = connected / pairs if pairs else None

    shared_retweet_ratio = None
    if retweets:
        sharing = 0
        for m in members:
            mine = retweets.get(m)
            if mine is None:
                continue
            others = set().union(*(retweets[o] for o in retweets if o != m)) if len(retweets) > 1 else set()
            if mine & others:
                sharing += 1
        shared_retweet_ratio = sharing / len(members)

    return {"friend_overlap": friend_overlap, "shared_retweet_ratio": shared_retweet_ratio}


# members "m0".."m11"; the ids they list also hold "x0".."x3", which no member has
_IDS = st.sampled_from([f"m{i}" for i in range(12)] + [f"x{i}" for i in range(4)])
_ID_LISTS = st.one_of(st.none(), st.lists(_IDS, max_size=8))


@st.composite
def _clusters(draw):
    members = draw(st.permutations([f"m{i}" for i in range(draw(st.integers(1, 12)))]))
    metadata = {}
    for m in members:
        kind = draw(st.sampled_from(["missing", "none", "meta"]))
        if kind == "none":
            metadata[m] = None
        elif kind == "meta":
            metadata[m] = _meta(friends=draw(_ID_LISTS), retweets=draw(_ID_LISTS))
    return members, metadata


@settings(max_examples=400, deadline=None)
@given(_clusters())
def test_overlap_evidence_matches_the_pairwise_reference(cluster):
    # lists may name the member itself, ids outside the cluster and an id twice
    members, metadata = cluster
    got = overlap_evidence(members, metadata)
    want = _reference_overlap_evidence(members, metadata)
    assert got == want
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}


@pytest.mark.parametrize("metadata,want", [
    ({}, (None, None)),  # no member has metadata
    ({"a": None, "b": None, "c": None}, (None, None)),
    ({"a": _meta(friends=[], retweets=[]), "b": _meta()}, (0.0, 0.0)),
    ({"a": _meta(friends=["a", "z"], retweets=["r", "r"])}, (0.0, 0.0)),  # itself, an outsider, a repeat
    ({"a": _meta(friends=["b"]), "b": _meta(friends=["a"]), "c": _meta(friends=["b"])}, (2 / 3, None)),
    ({"a": _meta(friends=["b"], retweets=["r"]), "c": _meta(retweets=["r", "s"])}, (1 / 2, 2 / 3)),
])
def test_overlap_evidence_edge_cases(metadata, want):
    ev = overlap_evidence(["a", "b", "c"], metadata)
    assert (ev["friend_overlap"], ev["shared_retweet_ratio"]) == want
    assert ev == _reference_overlap_evidence(["a", "b", "c"], metadata)


def test_overlap_evidence_of_a_2000_member_cluster_is_fast():
    # 2 000 members listing 40 friends and 30 retweets each took 12 s when every pair was visited
    rng = random.Random(7)
    members = [f"p{i}" for i in range(2000)]
    metadata = {
        m: _meta(friends=rng.sample(members, 40), retweets=[f"r{rng.randrange(20000)}" for _ in range(30)])
        for m in members
    }
    start = time.perf_counter()
    ev = overlap_evidence(members, metadata)
    assert time.perf_counter() - start < 2.0
    assert 0.0 < ev["friend_overlap"] < 1.0 and 0.0 < ev["shared_retweet_ratio"] <= 1.0


# -- fleiss kappa --------------------------------------------------------------------------

def test_unanimous_kappa_is_one():
    ratings = [["x", "x", "x"] for _ in range(10)]
    report = fleiss_kappa(ratings)
    assert report["kappa"] == 1.0
    assert report["n_items"] == 10
    assert report["n_raters"] == 3
    assert report["n_categories"] == 1


def test_random_raters_kappa_near_zero():
    rng = random.Random(42)
    ratings = [[rng.choice(["a", "b"]) for _ in range(2)] for _ in range(10_000)]
    report = fleiss_kappa(ratings)
    assert abs(report["kappa"]) < 0.05


def test_hand_worked_matrix():
    # items x raters, 2 categories; P-bar = 2/3, Pe = 1/2, kappa = 1/3
    ratings = [
        ["A", "A", "A"],
        ["A", "A", "B"],
        ["B", "B", "B"],
        ["A", "B", "B"],
    ]
    report = fleiss_kappa(ratings)
    assert report["kappa"] == pytest.approx(1 / 3, abs=1e-12)
    assert report["n_categories"] == 2


def test_kappa_bounds_fuzz():
    rng = random.Random(17)
    for _ in range(200):
        n_items = rng.randint(2, 20)
        n_raters = rng.randint(2, 5)
        cats = ["a", "b", "c"][: rng.randint(1, 3)]
        ratings = [[rng.choice(cats) for _ in range(n_raters)] for _ in range(n_items)]
        report = fleiss_kappa(ratings)
        assert -1.0 <= report["kappa"] <= 1.0


def test_kappa_validates_shape():
    with pytest.raises(ValueError):
        fleiss_kappa([["a", "b"], ["a"]])
    with pytest.raises(ValueError):
        fleiss_kappa([["a"]])
    with pytest.raises(ValueError):
        fleiss_kappa([])
