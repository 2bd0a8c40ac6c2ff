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
    DiversityError,
    assign_group,
    category_counts,
    diversity_profile,
    group_partition,
    row_categories,
    shannon_entropy,
)
from mission_profiler.topics import CATEGORIES, TopicCatalog


# -- category probability ---------------------------------------------------------

def _profile_with_topics(topics, K=8):
    """A profile whose tweets have one-hot topic vectors of the given topics:
    its matrix rows (all of them) and their categories under the demo catalog."""
    matrix = np.eye(K)[topics]
    return list(range(len(topics))), row_categories(TopicCatalog.demo(K), matrix)


def _cpv(rows, categories):
    return diversity_profile(category_counts(rows, categories))[0]


def test_cpv_fractions():
    politics = CATEGORIES.index("politics")
    everyday = CATEGORIES.index("everyday")
    rows, categories = _profile_with_topics([politics] * 4 + [everyday] * 6)  # topic i -> category i
    cpv = _cpv(rows, categories)
    assert cpv[politics] == pytest.approx(0.4)
    assert cpv[everyday] == pytest.approx(0.6)
    assert sum(cpv) == pytest.approx(1.0)


def test_cpv_one_hot():
    cpv = _cpv(*_profile_with_topics([2] * 5))
    assert cpv[2] == 1.0
    assert sum(cpv) == 1.0


def test_cpv_uniform_eight():
    cpv = _cpv(*_profile_with_topics(list(range(8))))
    assert all(v == pytest.approx(0.125) for v in cpv)


def test_cpv_no_covered_tweets_raises():
    _, categories = _profile_with_topics([0])
    with pytest.raises(DiversityError):
        _cpv([], categories)


def test_cpv_ignores_uncovered_tweets():
    rows, categories = _profile_with_topics([1] * 4)
    partial = rows[:2]
    cpv = _cpv(partial, categories)
    assert cpv[1] == 1.0
    assert category_counts(partial, categories).sum() == 2


def test_row_categories_follow_the_catalog_and_break_ties_to_the_lowest_topic():
    catalog = TopicCatalog.demo(20)  # topic i -> category i % 8
    matrix = np.zeros((3, 20))
    matrix[0, 9] = 1.0
    matrix[1, [12, 3]] = 0.5  # a tie: topic 3 wins
    matrix[2, 19] = 1.0
    assert row_categories(catalog, matrix).tolist() == [1, 3, 3]
    assert row_categories(catalog, np.zeros((0, 20))).tolist() == []


def test_category_counts_are_indexed_like_categories():
    categories = np.array([7, 0, 7, 2])
    assert category_counts([0, 2, 3, 0], categories).tolist() == [0, 0, 1, 0, 0, 0, 0, 3]
    assert category_counts([], categories).tolist() == [0] * len(CATEGORIES)


# -- entropy ------------------------------------------------------------------------

def test_entropy_two_equal_categories():
    h = shannon_entropy([0.5, 0.5, 0, 0, 0, 0, 0, 0])
    assert h == pytest.approx(0.6931, abs=1e-4)  # ln 2


def test_entropy_one_hot_zero():
    assert shannon_entropy([1, 0, 0, 0, 0, 0, 0, 0]) == 0.0


def test_entropy_uniform_four():
    h = shannon_entropy([0.25] * 4 + [0] * 4)
    assert h == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_permutation_invariant():
    rng = random.Random(7)
    for _ in range(100):
        p = [rng.random() for _ in range(8)]
        total = sum(p)
        p = [x / total for x in p]
        shuffled = p[:]
        rng.shuffle(shuffled)
        assert shannon_entropy(p) == pytest.approx(shannon_entropy(shuffled), abs=1e-12)


def test_entropy_bounded_by_support_size():
    rng = random.Random(8)
    for _ in range(200):
        k = rng.randint(1, 8)
        p = [rng.random() for _ in range(k)] + [0.0] * (8 - k)
        total = sum(p)
        p = [x / total for x in p]
        assert shannon_entropy(p) <= math.log(k) + 1e-12


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=8, max_size=8).filter(any))
def test_entropy_matches_scipy(counts):
    # diversity_profile divides each category's count by the total
    total = sum(counts)
    p = np.asarray([c / total for c in counts])
    assert abs(shannon_entropy(p) - stats.entropy(counts)) <= 1e-12
    cpv, h = diversity_profile(np.asarray(counts))
    assert cpv == tuple(p.tolist())
    assert h == shannon_entropy(p)


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

def test_partition_example():
    entropy = {
        "a": 0.0,
        "b": 0.69,
        "c": 2.0,  # below ln 7.5 = 2.0149
    }
    partition, cdf = group_partition(entropy)
    assert partition["I"] == ["a"]
    assert partition["II"] == ["b"]
    assert partition["VII"] == ["c"]


def test_partition_empty():
    partition, cdf = group_partition({})
    assert all(v == [] for v in partition.values())
    assert cdf == []


def test_partition_covers_everything():
    rng = random.Random(77)
    entropy = {}
    for i in range(10_000):
        p = [rng.random() for _ in range(8)]
        total = sum(p)
        entropy[f"p{i}"] = shannon_entropy([x / total for x in p])
    partition, cdf = group_partition(entropy)
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
    rows, categories = _profile_with_topics(list(range(8)))
    cpv, h = diversity_profile(category_counts(rows, categories))
    assert cpv == (0.125,) * 8
    assert assign_group(h) == "VIII"
    assert h == pytest.approx(math.log(8), abs=1e-12)
