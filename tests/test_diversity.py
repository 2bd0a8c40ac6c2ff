import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from mission_profiler.diversity import (
    GROUP_BOUNDARIES,
    GROUP_NAMES,
    MAX_ENTROPY,
    CategoryProbabilityVector,
    DiversityError,
    assign_group,
    category_probability,
    diversity_profile,
    group_partition,
    shannon_entropy,
)
from mission_profiler.topics import CATEGORIES, TopicCatalog

from conftest import make_timeline


def _cpv(values):
    return CategoryProbabilityVector(profile_id="p", cp=tuple(values))


# -- category probability ---------------------------------------------------------

def _timeline_with_topics(profile_id, topics):
    texts = [f"tweet number {i} about something" for i in range(len(topics))]
    tl = make_timeline(profile_id, texts=texts)
    assignments = {t.tweet_id: topic for t, topic in zip(tl.tweets, topics)}
    return tl, assignments


def test_cpv_fractions():
    catalog = TopicCatalog.demo(8)  # topic i -> category i
    politics = CATEGORIES.index("politics")
    everyday = CATEGORIES.index("everyday")
    tl, assignments = _timeline_with_topics("p", [politics] * 4 + [everyday] * 6)
    cpv = category_probability(tl, catalog, assignments)
    assert cpv.cp[politics] == pytest.approx(0.4)
    assert cpv.cp[everyday] == pytest.approx(0.6)
    assert sum(cpv.cp) == pytest.approx(1.0)


def test_cpv_one_hot():
    catalog = TopicCatalog.demo(8)
    tl, assignments = _timeline_with_topics("p", [2] * 5)
    cpv = category_probability(tl, catalog, assignments)
    assert cpv.cp[2] == 1.0
    assert sum(cpv.cp) == 1.0


def test_cpv_uniform_eight():
    catalog = TopicCatalog.demo(8)
    tl, assignments = _timeline_with_topics("p", list(range(8)))
    cpv = category_probability(tl, catalog, assignments)
    assert all(v == pytest.approx(0.125) for v in cpv.cp)


def test_cpv_no_covered_tweets_raises():
    catalog = TopicCatalog.demo(8)
    tl, _ = _timeline_with_topics("p", [0])
    with pytest.raises(DiversityError):
        category_probability(tl, catalog, {})


def test_cpv_ignores_uncovered_tweets():
    catalog = TopicCatalog.demo(8)
    tl, assignments = _timeline_with_topics("p", [1] * 4)
    partial = {k: v for k, v in list(assignments.items())[:2]}
    cpv = category_probability(tl, catalog, partial)
    assert cpv.cp[1] == 1.0


# -- entropy ------------------------------------------------------------------------

def test_entropy_two_equal_categories():
    h = shannon_entropy(_cpv([0.5, 0.5, 0, 0, 0, 0, 0, 0]))
    assert h == pytest.approx(0.6931, abs=1e-4)  # ln 2


def test_entropy_one_hot_zero():
    assert shannon_entropy(_cpv([1, 0, 0, 0, 0, 0, 0, 0])) == 0.0


def test_entropy_uniform_four():
    h = shannon_entropy(_cpv([0.25] * 4 + [0] * 4))
    assert h == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_permutation_invariant():
    rng = random.Random(7)
    for _ in range(100):
        p = [rng.random() for _ in range(8)]
        total = sum(p)
        p = [x / total for x in p]
        shuffled = p[:]
        rng.shuffle(shuffled)
        assert shannon_entropy(_cpv(p)) == pytest.approx(shannon_entropy(_cpv(shuffled)), abs=1e-12)


def test_entropy_bounded_by_support_size():
    rng = random.Random(8)
    for _ in range(200):
        k = rng.randint(1, 8)
        p = [rng.random() for _ in range(k)] + [0.0] * (8 - k)
        total = sum(p)
        p = [x / total for x in p]
        assert shannon_entropy(_cpv(p)) <= math.log(k) + 1e-12


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=8, max_size=8).filter(any))
def test_entropy_matches_scipy(counts):
    # category_probability divides each category's count by the total
    total = sum(counts)
    p = np.asarray([c / total for c in counts])
    assert abs(shannon_entropy(p) - stats.entropy(counts)) <= 1e-12


# -- group binning -----------------------------------------------------------------

def test_boundaries_are_half_integer_logs():
    expected = [math.log(k + 0.5) for k in range(1, 8)]
    assert len(GROUP_BOUNDARIES) == 7
    for got, want in zip(GROUP_BOUNDARIES, expected):
        assert abs(got - want) < 1e-12


def test_prototype_two_category_profile_is_group_ii():
    assert assign_group(0.69) == "II"  # ln 2 rounds to 0.69


def test_boundary_belongs_to_upper_bin():
    # ln(2.5) (0.91 at two decimals) opens group III
    assert assign_group(math.log(2.5)) == "III"
    assert assign_group(math.log(2.5) - 1e-9) == "II"


def test_max_entropy_is_group_viii():
    assert assign_group(math.log(8)) == "VIII"


def test_out_of_range_raises():
    with pytest.raises(DiversityError):
        assign_group(-0.01)
    with pytest.raises(DiversityError):
        assign_group(math.log(8) + 0.01)


def test_assign_group_matches_linear_scan():
    rng = random.Random(123)

    def scan(h):
        for i, b in enumerate(GROUP_BOUNDARIES):
            if h < b:
                return GROUP_NAMES[i]
        return GROUP_NAMES[7]

    for _ in range(100_000):
        h = rng.uniform(0.0, MAX_ENTROPY)
        assert assign_group(h) == scan(h)


# -- partition ----------------------------------------------------------------------

def _profile(pid, h):
    # entropy value h realized as a two-point distribution is not needed;
    # build the dataclass directly for partition tests
    from mission_profiler.diversity import DiversityProfile

    return DiversityProfile(
        profile_id=pid,
        cpv=_cpv([1, 0, 0, 0, 0, 0, 0, 0]),
        entropy_H=h,
        group=assign_group(h),
    )


def test_partition_example():
    profiles = {
        "a": _profile("a", 0.0),
        "b": _profile("b", 0.69),
        "c": _profile("c", 2.0),  # below ln 7.5 = 2.0149
    }
    partition, cdf = group_partition(profiles)
    assert partition["I"] == ["a"]
    assert partition["II"] == ["b"]
    assert partition["VII"] == ["c"]


def test_partition_empty():
    partition, cdf = group_partition({})
    assert all(v == [] for v in partition.values())
    assert cdf == []


def test_partition_covers_everything():
    rng = random.Random(77)
    profiles = {}
    for i in range(10_000):
        p = [rng.random() for _ in range(8)]
        total = sum(p)
        cpv = _cpv([x / total for x in p])
        h = shannon_entropy(cpv)
        from mission_profiler.diversity import DiversityProfile

        profiles[f"p{i}"] = DiversityProfile(f"p{i}", cpv, h, assign_group(h))
    partition, cdf = group_partition(profiles)
    sizes = [len(v) for v in partition.values()]
    assert sum(sizes) == 10_000
    all_ids = [pid for group in partition.values() for pid in group]
    assert len(set(all_ids)) == 10_000
    assert len(cdf) == 10_000
    # cdf values non-decreasing within each group
    by_group = {}
    for g, h in cdf:
        by_group.setdefault(g, []).append(h)
    for values in by_group.values():
        assert values == sorted(values)


def test_diversity_profile_end_to_end():
    catalog = TopicCatalog.demo(8)
    tl, assignments = _timeline_with_topics("p", list(range(8)))
    profile = diversity_profile(tl, catalog, assignments)
    assert profile.group == "VIII"
    assert profile.entropy_H == pytest.approx(math.log(8), abs=1e-12)
