"""util.median, util.percentile, util.loads_line and util.sha256_file
against the library functions they stand in for: statistics.median, numpy's
default percentile, json.loads and hashlib.sha256 of the file's bytes."""
import hashlib
import json
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mission_profiler.util import _HASH_CHUNK, loads_line, median, percentile, sha256_file

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


# JSON values with NaN, infinities, integers beyond 64 bits and strings of
# any character, lone surrogates among them
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.floats(), st.integers(-(2**70), 2**70), st.sampled_from([2**64, -(2**64) - 1]),
        st.text(st.characters(exclude_categories=())), st.sampled_from(["\ud800", "a\udfffb", "\ud83d\ude00"]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)
# what may come before or after a value on a line: JSON whitespace, other
# whitespace, a BOM, a second value ("Extra data") and stray characters
_AROUND = st.lists(
    st.sampled_from([" ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\xa0", "\u2028", "\ufeff", "0", "{}", "x", ",",
                     "NaN", "]", "\ud800"]),
    max_size=3,
).map("".join)


def _decoded(fn, line):
    try:
        return "ok", repr(fn(line))  # repr: NaN equals itself, and -0.0 differs from 0.0
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        _JSON_VALUES.map(json.dumps),
        _JSON_VALUES.map(lambda v: json.dumps(v, ensure_ascii=False)),
        st.sampled_from(["NaN", "-Infinity", "Infinity", "1" + "0" * 5000, '"\\ud800"', '"\\udc00x"', "[1,", "",
                         '{"a": 1} {"b": 2}', "nul", "1e999", "-0", "1.0e-400"]),
        st.text(max_size=8),
    ),
    _AROUND, _AROUND,
)
@example('{"tweet_id": "t1"}', "", "\n")
@example("[1]", "\ufeff", "")
def test_loads_line_is_json_loads(value, before, after):
    line = before + value + after
    assert _decoded(loads_line, line) == _decoded(json.loads, line)


@pytest.mark.parametrize("size", [
    0, 1, _HASH_CHUNK - 1, _HASH_CHUNK, _HASH_CHUNK + 1, 3 * _HASH_CHUNK + 12345,
], ids=["empty", "one-byte", "a-byte-under-the-buffer", "one-buffer", "a-byte-over", "buffers-and-a-tail"])
def test_sha256_file_is_the_sha256_of_the_files_bytes(tmp_path, size):
    path = tmp_path / "data.bin"
    path.write_bytes(random.Random(size).randbytes(size))
    assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert sha256_file(str(path)) == sha256_file(path)
