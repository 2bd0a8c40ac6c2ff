"""util.median and util.percentile against the library functions they
stand in for: statistics.median and numpy's default percentile."""
import math
import statistics

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mission_profiler.util import median, percentile

INTS = st.integers(-(2**53), 2**53)
FLOATS = st.floats(-1e300, 1e300)  # finite, with room for b - a
QUANTILES = st.one_of(st.sampled_from([0, 25, 50, 75, 100]), st.floats(0.0, 100.0))


def _mixes_signed_zeros(xs) -> bool:
    return {math.copysign(1.0, x) for x in xs if x == 0} == {1.0, -1.0}


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(INTS, min_size=1, max_size=60), st.lists(FLOATS, min_size=1, max_size=60)))
@example([3, 1, 2, 2])
@example([0.0, -0.0])
def test_median_is_statistics_median(xs):
    got, expected = median(xs), statistics.median(xs)
    assert type(got) is type(expected) and repr(got) == repr(expected)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(INTS, min_size=1, max_size=60), st.lists(FLOATS, min_size=1, max_size=60)), QUANTILES)
@example([-1.0, -0.0], 100)  # numpy gives 0.0, not the maximum -0.0 itself
@example([-0.0], 100)
@example([0.0, -0.0, 1.0], 25)
@example([1, 2], 50)
def test_percentile_is_numpys_default_percentile(xs, q):
    got, expected = percentile(xs, q), float(np.percentile(xs, q))
    assert type(got) is float
    if _mixes_signed_zeros(xs):  # numpy partitions, so which zero it takes is not fixed
        assert got == expected
    else:
        assert repr(got) == repr(expected)


def test_a_maximum_of_negative_zero_at_q100_is_positive_zero_as_in_numpy():
    assert repr(percentile([-1.0, -0.0], 100)) == repr(float(np.percentile([-1.0, -0.0], 100))) == "0.0"
