import json

import numpy as np
import pytest

from mission_profiler.features import (
    FEATURE_CATALOG,
    FEATURE_NAMES,
    N_FEATURES,
    catalog_hash,
    extract_features,
    group_indices,
    load_features,
    save_features,
)
from mission_profiler.ingest import ProfileMetadata
from mission_profiler.metrics import compute_metric_bundle
from mission_profiler.scores import ScoreCache
from mission_profiler.topics import CATEGORIES

from conftest import BASE_TS, make_timeline, make_tweet


def _bundle(timeline, scores=None):
    """The profile's metrics.jsonl row, which extract_features reads."""
    cache = ScoreCache()
    for t, s in zip(timeline.tweets, scores or []):
        cache.put_toxicity(t.tweet_id, s)
    return compute_metric_bundle(timeline, cache)


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
    values, mask = extract_features("p", _bundle(tl), _counts(), None)
    idx = FEATURE_NAMES.index("median_toxicity")
    assert values[idx] == 0.0
    assert mask[idx]


def test_identical_profiles_identical_vectors():
    tl_a = make_timeline("a", texts=["alpha beta gamma delta"] * 4)
    tl_b = make_timeline("b", texts=["alpha beta gamma delta"] * 4)
    values_a, mask_a = extract_features("a", _bundle(tl_a, [0.5] * 4), _counts(politics=4), None)
    values_b, mask_b = extract_features("b", _bundle(tl_b, [0.5] * 4), _counts(politics=4), None)
    assert np.array_equal(values_a, values_b)
    assert np.array_equal(mask_a, mask_b)


def test_boolean_and_date_encodings():
    meta = ProfileMetadata(
        followers=10, following=5, verified=True, protected=False,
        has_location=True, description_len=42,
        created_at=BASE_TS - 10 * 86400,
    )
    tweets = [make_tweet(i, f"word{i} more text", BASE_TS + i * 3600) for i in range(4)]
    tl = make_timeline("p", tweets=tweets, metadata=meta)
    values, _ = extract_features("p", _bundle(tl), _counts(), meta)
    assert values[FEATURE_NAMES.index("verified")] == 1.0
    assert values[FEATURE_NAMES.index("protected")] == 0.0
    assert values[FEATURE_NAMES.index("has_location")] == 1.0
    assert values[FEATURE_NAMES.index("description_len")] == 42.0
    age = values[FEATURE_NAMES.index("account_age_days")]
    assert age == pytest.approx(10 + 3 * 3600 / 86400)


def test_golden_profile_vector_recomputed_from_oracles():
    """Pinned vector for one fixed profile, every entry derived by hand or
    from the already-tested metric functions."""
    day = 86400
    tweets = [
        make_tweet(0, "The cat sat on the mat.", BASE_TS),
        make_tweet(1, "The cat sat on the mat.", BASE_TS + day),
        make_tweet(2, "dogs bark loudly outside tonight", BASE_TS + 2 * day, hashtags=["dogs"]),
        make_tweet(3, "RT @x echo", BASE_TS + 3 * day, is_retweet=True),
    ]
    meta = ProfileMetadata(followers=8, following=2, statuses=100,
                           created_at=BASE_TS - 100 * day)
    tl = make_timeline("p", tweets=tweets, metadata=meta)
    values, mask = extract_features("p", _bundle(tl, [0.1, 0.2, 0.3, 0.4]),
                                    _counts(everyday=2, sports=1), meta)

    def val(name):
        return values[FEATURE_NAMES.index(name)]

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
    assert not mask[FEATURE_NAMES.index("median_toxicity")]


def test_matrix_shapes_and_order(tmp_path):
    # a file whose rows are not in id order loads sorted by id
    tl = make_timeline("b", texts=["one two three four"] * 3)
    values_b, mask_b = extract_features("b", _bundle(tl), _counts(), None)
    tl2 = make_timeline("a", texts=["five six seven eight"] * 3)
    values_a, mask_a = extract_features("a", _bundle(tl2), _counts(), None)
    path = tmp_path / "features.jsonl"
    save_features(["b", "a"], np.stack([values_b, values_a]), np.stack([mask_b, mask_a]), path)
    ids, X, M = load_features(path)
    assert ids == ["a", "b"]  # sorted
    assert X.shape == (2, N_FEATURES)
    assert M.shape == (2, N_FEATURES)
    assert np.array_equal(X, np.stack([values_a, values_b]))
    assert np.array_equal(M, np.stack([mask_a, mask_b]))


def test_save_load_round_trip(tmp_path):
    tl = make_timeline("p", texts=["alpha beta gamma delta"] * 3)
    values, mask = extract_features("p", _bundle(tl, [0.5] * 3), _counts(politics=3), None)
    path = tmp_path / "features.jsonl"
    save_features(["p"], values[None, :], mask[None, :], path)
    ids, X, M = load_features(path)
    assert ids == ["p"]
    assert np.array_equal(X, values[None, :])
    assert np.array_equal(M, mask[None, :])


def test_a_file_without_rows_loads_as_an_empty_matrix(tmp_path):
    path = tmp_path / "features.jsonl"
    save_features([], np.zeros((0, N_FEATURES)), np.zeros((0, N_FEATURES), dtype=bool), path)
    ids, X, M = load_features(path)
    assert ids == []
    assert X.shape == M.shape == (0, N_FEATURES)
    assert M.dtype == bool


def test_load_rejects_a_header_of_another_format_naming_the_file(tmp_path):
    path = tmp_path / "features.jsonl"
    path.write_text('{"format": "mission-profiler-score-cache", "version": 1}\n')
    with pytest.raises(ValueError) as raised:
        load_features(path)
    assert str(raised.value) == f"not a feature file: {path}"


def test_load_rejects_foreign_catalog(tmp_path):
    path = tmp_path / "features.jsonl"
    path.write_text('{"format": "mission-profiler-features", "version": 1, "catalog_hash": "beef"}\n')
    with pytest.raises(ValueError, match="produced with a different catalog") as raised:
        load_features(path)
    assert str(path) in str(raised.value)  # as its other header errors name it


def _rows_file(path, rows):
    """A feature file holding, for each (profile_id, n_values, n_mask), a row
    of that many zero values and unset mask bits."""
    save_features([], np.zeros((0, N_FEATURES)), np.zeros((0, N_FEATURES), dtype=bool), path)
    with open(path, "a", encoding="utf-8") as fh:
        for profile_id, n_values, n_mask in rows:
            fh.write(json.dumps({"profile_id": profile_id, "values": [0.0] * n_values, "mask": [False] * n_mask}) + "\n")


def test_a_repeated_profile_id_is_refused_naming_its_line(tmp_path):
    # it used to load as ['a', 'a', 'b'], so a train/test split could hold the profile twice
    path = tmp_path / "features.jsonl"
    _rows_file(path, [(p, N_FEATURES, N_FEATURES) for p in ("a", "b", "a")])
    with pytest.raises(ValueError, match="^line 4: profile a has an earlier row$"):
        load_features(path)


@pytest.mark.parametrize("n_values, n_mask, message", [
    (N_FEATURES - 1, N_FEATURES, f"values holds {N_FEATURES - 1} items"),
    (N_FEATURES + 1, N_FEATURES, f"values holds {N_FEATURES + 1} items"),
    (N_FEATURES, N_FEATURES - 1, f"mask holds {N_FEATURES - 1} items"),
    (N_FEATURES, 0, "mask holds 0 items"),
])
def test_a_row_of_the_wrong_width_is_refused_naming_its_line(tmp_path, n_values, n_mask, message):
    # numpy's "inhomogeneous shape" error used to name no row
    path = tmp_path / "features.jsonl"
    _rows_file(path, [("a", N_FEATURES, N_FEATURES), ("b", N_FEATURES, N_FEATURES), ("c", n_values, n_mask)])
    with pytest.raises(ValueError, match=f"^line 4: {message}, not {N_FEATURES}$"):
        load_features(path)


@pytest.mark.parametrize("key, item", [
    ("values", None), ("values", True), ("values", "1.5"), ("values", float("nan")), ("values", float("inf")),
    ("values", 10**400), ("values", [0.0]), ("mask", "no"), ("mask", 0), ("mask", None),
], ids=["null", "true", "string", "nan", "inf", "int-beyond-float", "list", "mask-string", "mask-0", "mask-null"])
def test_a_value_or_mask_item_of_the_wrong_kind_is_refused_naming_its_line(tmp_path, key, item):
    # a null value used to load as NaN with its mask bit unset, and "no" as a set mask bit
    path = tmp_path / "features.jsonl"
    _rows_file(path, [("a", N_FEATURES, N_FEATURES)])
    row = {"profile_id": "b", "values": [0.0] * N_FEATURES, "mask": [False] * N_FEATURES}
    row[key][3] = item
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    kind = "a finite number" if key == "values" else "true or false"
    with pytest.raises(ValueError, match=f"^line 3: {key} holds an item that is not {kind}$"):
        load_features(path)


@pytest.mark.parametrize("line, message", [
    ('["a"]', "not a JSON object"),
    ('"a"', "not a JSON object"),
    ('{"values": [], "mask": []}', "no profile_id"),
    ('{"profile_id": "b", "mask": []}', "no values"),
    ('{"profile_id": "b", "values": []}', "no mask"),
    ('{"profile_id": 7, "values": [], "mask": []}', "profile_id is not a string"),
    ('{"profile_id": "b", "values": 5, "mask": []}', "values is not a list"),
    (json.dumps({"profile_id": "b", "values": [0.0] * N_FEATURES, "mask": {"x": 1}}), "mask is not a list"),
], ids=["list", "string", "no-id", "no-values", "no-mask", "int-id", "values-int", "mask-object"])
def test_a_row_of_the_wrong_shape_is_refused_naming_its_line(tmp_path, line, message):
    # these used to escape as a bare KeyError or TypeError naming no line
    path = tmp_path / "features.jsonl"
    _rows_file(path, [("a", N_FEATURES, N_FEATURES)])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError, match=f"^line 3: {message}$"):
        load_features(path)


@pytest.mark.parametrize("line", ["{garbled", '{"profile_id": "b",', "[1, 2", "1" * 5000],
                         ids=["garbled", "cut-short", "open-list", "int-over-the-digit-limit"])
def test_a_row_that_is_not_json_is_refused_naming_its_line(tmp_path, line):
    # it used to escape as a bare JSONDecodeError naming no line of the file
    path = tmp_path / "features.jsonl"
    _rows_file(path, [("a", N_FEATURES, N_FEATURES)])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError, match="^line 3: bad json: "):
        load_features(path)


@pytest.mark.parametrize("header, error", [
    ("", "bad json: "),
    ("{garbled\n", "bad json: "),
    ("[]\n", "not a JSON object"),
    ('"mission-profiler-features"\n', "not a JSON object"),
], ids=["empty", "garbled", "list", "string"])
def test_a_header_that_is_not_a_json_object_is_refused_naming_the_file(tmp_path, header, error):
    # an empty file used to raise a bare JSONDecodeError, and a list an AttributeError
    path = tmp_path / "features.jsonl"
    path.write_text(header, encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        load_features(path)
    assert str(raised.value).startswith(f"{path}: line 1: {error}")


def test_integer_values_load_as_floats(tmp_path):
    path = tmp_path / "features.jsonl"
    _rows_file(path, [])
    row = {"profile_id": "a", "values": [3] + [0.0] * (N_FEATURES - 1), "mask": [True] * N_FEATURES}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    ids, X, M = load_features(path)
    assert X[0, 0] == 3.0 and X.dtype == float
    assert M[0].tolist() == row["mask"]


def test_catalog_hash_stable():
    assert catalog_hash() == catalog_hash()
    assert len(catalog_hash()) == 64
