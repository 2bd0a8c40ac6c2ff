import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mission_profiler import topics
from mission_profiler.diversity import row_categories
from mission_profiler.ingest import load_timelines
from mission_profiler.scores import ScoreCache
from mission_profiler.topics import (
    CATEGORIES,
    CatalogError,
    RENORM_TOLERANCE,
    TopicCatalog,
    TPVError,
    baseline_topic_assigner,
    load_tpvs,
    save_tpvs,
    topic_aggregates,
)

from conftest import make_timeline

DATA = Path(__file__).parent / "data"


def _write_tpv_rows(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# -- load_tpvs -----------------------------------------------------------------

def test_renormalized_within_tolerance(tmp_path):
    path = tmp_path / "tpv.jsonl"
    _write_tpv_rows(path, [{"tweet_id": "t1", "probs": [0.25, 0.25, 0.25, 0.2505]}])
    tpvs = dict(zip(*load_tpvs(path, K=4)))
    assert tpvs["t1"].sum() == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch_reports_row(tmp_path):
    path = tmp_path / "tpv.jsonl"
    _write_tpv_rows(path, [
        {"tweet_id": "t1", "probs": [0.5, 0.5]},
        {"tweet_id": "t2", "probs": [1.0]},
    ])
    with pytest.raises(TPVError) as err:
        load_tpvs(path, K=2)
    assert "row 2" in str(err.value)


def test_sum_beyond_tolerance_rejected(tmp_path):
    path = tmp_path / "tpv.jsonl"
    _write_tpv_rows(path, [{"tweet_id": "t1", "probs": [0.6, 0.6]}])
    with pytest.raises(TPVError):
        load_tpvs(path, K=2)


def test_negative_probability_rejected(tmp_path):
    path = tmp_path / "tpv.jsonl"
    _write_tpv_rows(path, [{"tweet_id": "t1", "probs": [1.1, -0.1]}])
    with pytest.raises(TPVError):
        load_tpvs(path, K=2)


def test_a_row_of_both_infinities_raises_its_tpv_error_without_a_numpy_warning(tmp_path):
    path = tmp_path / "tpv.jsonl"
    path.write_text('{"tweet_id": "a", "probs": [Infinity, -Infinity, 0.5]}\n', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning from the row sums would come first
        with pytest.raises(TPVError) as err:
            load_tpvs(path, K=3)
    assert str(err.value) == "row 1: negative probability"


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_a_nan_or_infinite_probability_is_rejected_with_its_row(tmp_path, value):
    path = tmp_path / "tpv.jsonl"
    path.write_text('{"tweet_id": "a", "probs": [0.5, 0.5]}\n{"tweet_id": "b", "probs": [' + value + ', 0.0]}\n')
    with pytest.raises(TPVError) as err:
        load_tpvs(path, K=2)
    assert str(err.value) == "row 2: non-finite probability"


def test_a_probability_too_large_for_a_float_is_rejected_with_its_row(tmp_path):
    # an integer written out in digits converts to no float: it raised a bare OverflowError
    path = tmp_path / "tpv.jsonl"
    path.write_text('{"tweet_id": "a", "probs": [0.5, 0.5]}\n{"tweet_id": "b", "probs": [' + str(10**400) + ', 0.0]}\n')
    with pytest.raises(TPVError, match="^row 2: bad row: "):
        load_tpvs(path, K=2)


def test_an_overlong_integer_is_bad_json_with_its_row(tmp_path):
    path = tmp_path / "tpv.jsonl"
    path.write_text('{"tweet_id": "a", "probs": [0.5, 0.5]}\n'
                    '{"tweet_id": "b", "probs": [1' + "0" * 5000 + ', 0.0]}\n', encoding="utf-8")
    with pytest.raises(TPVError, match=r"^row 2: bad json: Exceeds the limit") as err:
        load_tpvs(path, K=2)
    assert err.value.lineno == 2


@pytest.mark.parametrize("rows, error", [
    ([{"tweet_id": f"t{i}", "probs": [[0.5], [0.5]]} for i in range(3)], "row 1: expected 2 probabilities, got (2, 1)"),
    ([{"tweet_id": "t0", "probs": [[0.5, 0.5]]}], "row 1: expected 2 probabilities, got (1, 2)"),
], ids=["every_row_nested", "one_row_of_one_row"])
def test_a_block_of_rows_with_the_right_size_but_another_shape_is_refused(tmp_path, rows, error):
    # a block reshaped to (n, K) after it converts would accept both files
    path = tmp_path / "tpv.jsonl"
    _write_tpv_rows(path, rows)
    with pytest.raises(TPVError) as err:
        load_tpvs(path, K=2)
    assert str(err.value) == error


def test_generated_fixture_loads_with_unit_sums(tmp_path):
    rng = np.random.default_rng(5)
    rows = []
    for i in range(1000):
        p = rng.dirichlet(np.ones(8))
        rows.append({"tweet_id": f"t{i}", "probs": [float(x) for x in p]})
    path = tmp_path / "tpv.jsonl"
    _write_tpv_rows(path, rows)
    tpvs = dict(zip(*load_tpvs(path, K=8)))
    assert len(tpvs) == 1000
    for v in tpvs.values():
        assert abs(v.sum() - 1.0) < 1e-9


def test_load_tpvs_returns_the_vectors_in_tweet_id_order(tmp_path):
    rng = np.random.default_rng(6)
    rows = [{"tweet_id": f"t{i:03d}", "probs": [float(x) for x in rng.dirichlet(np.ones(8))]}
            for i in reversed(range(300))]
    _write_tpv_rows(tmp_path / "in.jsonl", rows)
    tpvs = dict(zip(*load_tpvs(tmp_path / "in.jsonl", K=8)))
    assert list(tpvs) == sorted(row["tweet_id"] for row in rows)
    by_id = {row["tweet_id"]: np.asarray(row["probs"]) for row in rows}
    assert all(np.array_equal(v, by_id[k] / by_id[k].sum()) for k, v in tpvs.items())


# -- dominant topic --------------------------------------------------------------

def _dominant(v):
    # the demo catalog of at most 8 topics maps topic i to category i
    return int(row_categories(TopicCatalog.demo(len(v)), v[None, :])[0])


def test_dominant_argmax():
    assert _dominant(np.array([0.1, 0.7, 0.2])) == 1


def test_dominant_tie_lowest_index():
    assert _dominant(np.array([0.5, 0.5])) == 0


def test_dominant_uniform_k200():
    assert _dominant(np.full(200, 1 / 200)) == 0


def test_dominant_invariant_under_rescaling():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.dirichlet(np.ones(16))
        c = rng.uniform(0.1, 50.0)
        assert _dominant(v) == _dominant(v * c)


# -- the matrix paths against the row-at-a-time code they replaced ---------------------

def _reference_validate_tpv(probs, K, lineno=None):
    if probs.ndim != 1 or probs.shape[0] != K:
        raise TPVError(f"expected {K} probabilities, got {probs.shape}", lineno)
    if np.any(probs < 0):
        raise TPVError("negative probability", lineno)
    if not np.all(np.isfinite(probs)):
        raise TPVError("non-finite probability", lineno)
    total = float(probs.sum())
    if abs(total - 1.0) > RENORM_TOLERANCE:
        raise TPVError(f"probabilities sum to {total:.6f}", lineno)
    if total == 0.0:
        raise TPVError("all-zero probability vector", lineno)
    return probs / total


def _reference_load_tpvs(path, K):
    tpvs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TPVError(f"bad json: {exc}", lineno) from exc
            try:
                tweet_id = str(row["tweet_id"])
                probs = np.asarray(row["probs"], dtype=float)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise TPVError(f"bad row: {exc}", lineno) from exc
            tpvs[tweet_id] = _reference_validate_tpv(probs, K, lineno)
    return {tweet_id: tpvs[tweet_id] for tweet_id in sorted(tpvs)}


def _reference_save_tpvs(tpvs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for tweet_id in sorted(tpvs):
            row = {"tweet_id": tweet_id, "probs": [float(p) for p in tpvs[tweet_id]]}
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n")


def _reference_dominant_topics(tpvs):
    return {tweet_id: int(np.argmax(v)) for tweet_id, v in tpvs.items()}


_SPECIALS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, 5e-324]


@st.composite
def _vector_maps(draw, normalised=False):
    """{tweet id: K-vector} with 0-300 rows, K from 1-200, in unsorted id
    order; duplicate ids (when written to a file), argmax ties, NaN and inf."""
    K = draw(st.integers(1, 200))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([None, 1, 2, 3]))  # few levels: many ties
    if levels is None:
        matrix = rng.dirichlet(np.ones(K), size=n)
    else:
        matrix = rng.integers(0, levels + 1, size=(n, K)).astype(float)
        matrix[:, 0] += matrix.sum(axis=1) == 0  # no all-zero rows
    if normalised:
        matrix /= matrix.sum(axis=1, keepdims=True)
        # still within the tolerance, so load_tpvs renormalises
        matrix *= 1.0 + rng.uniform(-5e-4, 5e-4, size=(n, 1))
    if n:
        for _ in range(draw(st.integers(0, 4))):
            value = draw(st.sampled_from(_SPECIALS))
            matrix[draw(st.integers(0, n - 1)), draw(st.integers(0, K - 1))] = value
    pool = draw(st.integers(1, 400))  # fewer ids than rows gives duplicates
    ids = [f"t{i}" for i in rng.integers(0, pool, size=n)]
    return K, ids, matrix


def _assert_same_vectors(got, expected):
    assert list(got) == list(expected)
    for tweet_id, v in expected.items():
        assert got[tweet_id].dtype == v.dtype and got[tweet_id].tobytes() == v.tobytes(), tweet_id


def _load_tpv_map(path, K):
    return dict(zip(*load_tpvs(path, K)))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by type, message and row
        return type(exc), str(exc), getattr(exc, "lineno", None)


def _write_rows(path, ids, matrix, blank_every=0):
    with open(path, "w", encoding="utf-8") as fh:
        for i, (tweet_id, v) in enumerate(zip(ids, matrix)):
            if blank_every and i % blank_every == 0:
                fh.write("\n")
            fh.write(json.dumps({"tweet_id": tweet_id, "probs": [float(p) for p in v]}) + "\n")


@settings(max_examples=60, deadline=None)
@given(_vector_maps(normalised=True), st.integers(0, 5))
@example((9, ["b", "a", "b"], np.full((3, 9), 1 / 9)), 2)
def test_load_tpvs_matches_the_row_at_a_time_reference(tmp_path_factory, drawn, blank_every):
    K, ids, matrix = drawn
    path = tmp_path_factory.mktemp("tpv") / "tpv.jsonl"
    _write_rows(path, ids, matrix, blank_every)
    got, expected = _outcome(_load_tpv_map, path, K), _outcome(_reference_load_tpvs, path, K)
    assert got[0] == expected[0]
    if got[0] == "ok":
        _assert_same_vectors(got[1], expected[1])
    else:
        assert got == expected


@settings(max_examples=60, deadline=None)
@given(_vector_maps(), st.booleans())
def test_save_tpvs_and_argmax_match_the_references(tmp_path_factory, drawn, normalised):
    K, ids, matrix = drawn
    if normalised:
        with np.errstate(all="ignore"):
            matrix = matrix / matrix.sum(axis=1, keepdims=True)
    tpvs = {tweet_id: v.copy() for tweet_id, v in zip(ids, matrix)}
    order = sorted(tpvs)
    rows = np.array([tpvs[t] for t in order]).reshape(len(order), K)
    catalog, dominant = TopicCatalog.demo(K), _reference_dominant_topics(tpvs)
    expected = [CATEGORIES.index(catalog.category(dominant[t])) for t in order]
    assert row_categories(catalog, rows).tolist() == expected
    d = tmp_path_factory.mktemp("save")
    got = _outcome(save_tpvs, order, rows, d / "new.jsonl")
    expected = _outcome(_reference_save_tpvs, tpvs, d / "ref.jsonl")
    assert got == expected  # ("ok", None), or the same ValueError for NaN and inf
    assert (d / "new.jsonl").read_bytes() == (d / "ref.jsonl").read_bytes()


def _corrupt(kind, tweet_id, v):
    """One malformed line of each kind load_tpvs rejects."""
    probs = [float(p) for p in v]
    return {
        "json": '{"tweet_id": "' + tweet_id + '", "probs": [',
        "no_id": json.dumps({"probs": probs}),
        "no_probs": json.dumps({"tweet_id": tweet_id}),
        "not_a_row": json.dumps(probs),
        "string_probs": json.dumps({"tweet_id": tweet_id, "probs": "0.5"}),
        "dict_probs": json.dumps({"tweet_id": tweet_id, "probs": {"a": 1.0}}),
        "scalar_probs": json.dumps({"tweet_id": tweet_id, "probs": 1.0}),
        "nested_probs": json.dumps({"tweet_id": tweet_id, "probs": [probs]}),
        "ragged_probs": json.dumps({"tweet_id": tweet_id, "probs": [probs, [1.0, 2.0, 3.0]]}),
        "overflow": '{"tweet_id": "' + tweet_id + '", "probs": [1' + "0" * 400 + "]}",
        "short": json.dumps({"tweet_id": tweet_id, "probs": probs[:-1]}),
        "long": json.dumps({"tweet_id": tweet_id, "probs": probs + [0.0]}),
        "negative": json.dumps({"tweet_id": tweet_id, "probs": [-1e-9] + probs[1:]}),
        "negative_inf": json.dumps({"tweet_id": tweet_id, "probs": [-float("inf")] + probs[1:]}),
        "sum_off": json.dumps({"tweet_id": tweet_id, "probs": [p * 1.0011 for p in probs]}),
        "all_zero": json.dumps({"tweet_id": tweet_id, "probs": [0.0] * len(probs)}),
    }[kind]


_CORRUPTIONS = ["json", "no_id", "no_probs", "not_a_row", "string_probs", "dict_probs", "scalar_probs",
                "nested_probs", "ragged_probs", "overflow", "short", "long", "negative", "negative_inf",
                "sum_off", "all_zero"]


@settings(max_examples=150, deadline=None)
@given(
    _vector_maps(normalised=True),
    st.lists(st.tuples(st.integers(0, 299), st.sampled_from(_CORRUPTIONS)), min_size=1, max_size=4),
)
def test_malformed_tpv_files_raise_what_the_reference_raises(tmp_path_factory, drawn, corruptions):
    K, ids, matrix = drawn
    lines = [json.dumps({"tweet_id": t, "probs": [float(p) for p in v]}) for t, v in zip(ids, matrix)]
    for row, kind in corruptions:
        if lines:
            i = row % len(lines)
            lines[i] = _corrupt(kind, ids[i], matrix[i])
    path = tmp_path_factory.mktemp("bad") / "tpv.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    got, expected = _outcome(_load_tpv_map, path, K), _outcome(_reference_load_tpvs, path, K)
    assert got[0] == expected[0]
    if got[0] == "ok":
        _assert_same_vectors(got[1], expected[1])
    else:
        assert got == expected


def test_a_later_json_error_does_not_hide_an_earlier_bad_row(tmp_path):
    path = tmp_path / "tpv.jsonl"
    path.write_text('{"tweet_id": "a", "probs": [0.5, 0.5]}\n'
                    '{"tweet_id": "b", "probs": [0.9, 0.3]}\n'
                    '{"tweet_id": "c", "probs": [\n'
                    '{"tweet_id": "d", "probs": [-0.5, 1.5]}\n', encoding="utf-8")
    with pytest.raises(TPVError) as err:
        load_tpvs(path, K=2)
    assert err.value.lineno == 2
    assert str(err.value) == "row 2: probabilities sum to 1.200000"


def test_a_read_error_does_not_hide_an_earlier_bad_row(tmp_path):
    # the bad row opens a block, and bytes that are not UTF-8 come 240 rows
    # (over 8 KB, so in a later chunk of the decoder) on, in the same block
    B = topics._TPV_BLOCK_ROWS
    good = json.dumps({"tweet_id": "a", "probs": [0.5, 0.5]}).encode() + b"\n"
    path = tmp_path / "tpv.jsonl"
    path.write_bytes(good * B + b'{"tweet_id": "b", "probs": [0.9, 0.3]}\n' + good * 240 + b'{"tweet_id": "\xff"}\n')
    with pytest.raises(TPVError) as err:
        load_tpvs(path, K=2)
    assert str(err.value) == f"row {B + 1}: probabilities sum to 1.200000"


# rows of K entries that only the conversion of their block to floats finds
# bad, and one that only the matrix check finds bad
_BLOCK_CORRUPTIONS = {
    "nested": lambda probs: [[p] for p in probs],
    "dict_entry": lambda probs: [{"a": 1.0}] + probs[1:],
    "string_entry": lambda probs: ["x"] + probs[1:],
    "ragged_entry": lambda probs: [[0.5, 0.5]] + probs[1:],
    "overflow": lambda probs: [10**400] + probs[1:],
    "negative": lambda probs: [-1e-9] + probs[1:],
}
_B = topics._TPV_BLOCK_ROWS


@pytest.mark.parametrize("corruptions", [
    [],
    *([(_B - 1, kind)] for kind in _BLOCK_CORRUPTIONS),  # the last row of the first block
    *([(_B, kind)] for kind in _BLOCK_CORRUPTIONS),  # the first row of the second block
    *([(_B + 10, kind), (_B + 20, "json")] for kind in _BLOCK_CORRUPTIONS),  # before a later JSON error
    [(_B - 1, "nested"), (_B + 5, "negative")],
    [(_B - 1, "negative"), (_B + 5, "nested")],
    [(_B + 3, "negative"), (_B + 5, "nested")],  # both in the block that does not convert as one
    [(2 * _B + 3, "dict_entry"), (2 * _B + 4, "json")],
], ids=lambda corruptions: "-".join(f"{row}:{kind}" for row, kind in corruptions) or "clean")
def test_load_tpvs_over_several_blocks_matches_the_row_at_a_time_reference(tmp_path, corruptions):
    K = 3
    matrix = np.random.default_rng(7).dirichlet(np.ones(K), size=2 * _B + 100)
    lines = [json.dumps({"tweet_id": f"t{i:05d}", "probs": [float(p) for p in v]}) for i, v in enumerate(matrix)]
    for row, kind in corruptions:
        if kind == "json":
            lines[row] = '{"tweet_id": "t", "probs": ['
        else:
            probs = _BLOCK_CORRUPTIONS[kind]([float(p) for p in matrix[row]])
            lines[row] = json.dumps({"tweet_id": f"t{row:05d}", "probs": probs})
    path = tmp_path / "tpv.jsonl"
    # a blank line every 100 rows: line numbers run ahead of row numbers
    path.write_text("".join(("\n" if i % 100 == 0 else "") + line + "\n" for i, line in enumerate(lines)),
                    encoding="utf-8")
    got, expected = _outcome(_load_tpv_map, path, K), _outcome(_reference_load_tpvs, path, K)
    assert got[0] == expected[0]
    if got[0] == "ok":
        _assert_same_vectors(got[1], expected[1])
    else:
        assert got == expected


# -- per-topic aggregation ---------------------------------------------------------

def _cache(scores):
    cache = ScoreCache()
    for tid, s in scores.items():
        cache.put_toxicity(tid, s)
    return cache


def test_topic_median_odd():
    assignments = {"a": 3, "b": 3, "c": 3}
    cache = _cache({"a": 0.1, "b": 0.15, "c": 0.2})
    assert topic_aggregates(assignments, cache, 5)[3]["median_toxicity"] == pytest.approx(0.15)


def test_topic_median_even():
    assignments = {"a": 1, "b": 1}
    cache = _cache({"a": 0.1, "b": 0.2})
    assert topic_aggregates(assignments, cache, 5)[1]["median_toxicity"] == pytest.approx(0.15)


def test_topic_median_empty_is_none():
    assert topic_aggregates({"a": 3}, _cache({"a": 0.5}), 8)[7]["median_toxicity"] is None


def test_aggregate_counts_sum_to_assigned():
    rng = np.random.default_rng(3)
    assignments = {f"t{i}": int(rng.integers(0, 6)) for i in range(500)}
    cache = _cache({f"t{i}": float(rng.random()) for i in range(500)})
    aggs = topic_aggregates(assignments, cache, K=6)
    assert sum(a["tweet_count"] for a in aggs.values()) == 500
    unscored = topic_aggregates({"x": 2}, ScoreCache(), K=6)
    assert unscored[2]["median_toxicity"] is None  # null iff no scored tweets


def test_aggregates_are_the_rows_of_aggregates_json():
    aggs = topic_aggregates({"a": 1, "b": 1, "c": 0}, _cache({"a": 0.25}), K=3)
    assert list(aggs) == [0, 1, 2]
    assert aggs[1] == {"topic": 1, "tweet_count": 2, "median_toxicity": 0.25}
    assert aggs[2] == {"topic": 2, "tweet_count": 0, "median_toxicity": None}


# -- catalog ------------------------------------------------------------------------

def test_catalog_demo_cyclic():
    catalog = TopicCatalog.demo(20)
    assert catalog.category(0) == "everyday"
    assert catalog.category(8) == "everyday"
    assert catalog.category(3) == "politics"


def test_catalog_round_trip_byte_identical(tmp_path):
    catalog = TopicCatalog.demo(16)
    p1 = tmp_path / "catalog.tsv"
    p2 = tmp_path / "catalog2.tsv"
    catalog.save(p1)
    TopicCatalog.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_catalog_rejects_unknown_category(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text("0\teveryday\n1\tnonsense\n")
    with pytest.raises(CatalogError):
        TopicCatalog.load(path)


def test_catalog_requires_full_cover(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text("0\teveryday\n2\tpolitics\n")
    with pytest.raises(CatalogError):
        TopicCatalog.load(path)


@pytest.mark.parametrize("text, error", [
    ("0\teveryday\n1 politics\n", "line 2: expected 'index<TAB>category'"),
    ("0\teveryday\nx\tpolitics\n", "line 2: expected 'index<TAB>category'"),
    ("0\teveryday\n1\tpolitics\n0\tsports\n", "line 3: duplicate topic index 0"),
    ("# a comment\n\n", "empty catalog"),
], ids=["no_tab", "no_index", "duplicate", "empty"])
def test_catalog_load_names_what_is_wrong(tmp_path, text, error):
    path = tmp_path / "catalog.tsv"
    path.write_text(text)
    with pytest.raises(CatalogError, match=f"^{error}$"):
        TopicCatalog.load(path)


def test_catalog_has_exactly_eight_categories():
    assert len(CATEGORIES) == 8
    assert set(CATEGORIES) == {
        "everyday", "no_topic", "news_blogs", "politics",
        "entertainment", "sports", "profanity", "health_covid",
    }


# -- baseline assigner -----------------------------------------------------------------

def test_identical_tweets_identical_tpvs():
    text = " ".join(f"tok{i}" for i in range(12))
    tl_a = make_timeline("a", texts=[text])
    tl_b = make_timeline("b", texts=[text])
    from mission_profiler.ingest import Corpus, IngestStats

    corpus = Corpus(profiles={"a": tl_a, "b": tl_b}, ingest_stats=IngestStats())
    tpvs = dict(zip(*baseline_topic_assigner(corpus, K=20, seed=1)))
    a, b = tpvs["a-0"], tpvs["b-0"]
    assert np.array_equal(a, b)


def test_single_token_tweet_one_hot():
    from mission_profiler.ingest import Corpus, IngestStats

    tl = make_timeline("a", texts=[" ".join(["solo"] * 10)])  # ten tokens: eligible for the topic model
    corpus = Corpus(profiles={"a": tl}, ingest_stats=IngestStats())
    tpvs = dict(zip(*baseline_topic_assigner(corpus, K=20, seed=1)))
    v = tpvs["a-0"]
    assert v.max() == 1.0
    assert v.sum() == 1.0


def test_golden_baseline_tpv_file(tmp_path):
    corpus = load_timelines(DATA / "golden_corpus_tweets.jsonl")
    tpvs = baseline_topic_assigner(corpus, K=20, seed=42)
    out = tmp_path / "tpv.jsonl"
    save_tpvs(*tpvs, out)
    golden = (DATA / "golden_baseline_tpv_seed42.jsonl").read_bytes()
    assert out.read_bytes() == golden


def test_assignments_cover_tpv_map():
    corpus = load_timelines(DATA / "golden_corpus_tweets.jsonl")
    ids, matrix = baseline_topic_assigner(corpus, K=20, seed=42)
    tpvs = dict(zip(ids, matrix))
    categories = row_categories(TopicCatalog.demo(20), matrix)
    assert len(categories) == len(tpvs) == len(ids)
    assert set(categories.tolist()) <= set(range(len(CATEGORIES)))
