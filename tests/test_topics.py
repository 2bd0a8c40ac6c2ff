import json
from pathlib import Path

import numpy as np
import pytest

from mission_profiler.ingest import load_timelines
from mission_profiler.scores import ScoreCache
from mission_profiler.topics import (
    CATEGORIES,
    CatalogError,
    TopicCatalog,
    TPVError,
    as_saved,
    assign_dominant_topics,
    baseline_topic_assigner,
    dominant_topic,
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
    tpvs = load_tpvs(path, K=4)
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


def test_generated_fixture_loads_with_unit_sums(tmp_path):
    rng = np.random.default_rng(5)
    rows = []
    for i in range(1000):
        p = rng.dirichlet(np.ones(8))
        rows.append({"tweet_id": f"t{i}", "probs": [float(x) for x in p]})
    path = tmp_path / "tpv.jsonl"
    _write_tpv_rows(path, rows)
    tpvs = load_tpvs(path, K=8)
    assert len(tpvs) == 1000
    for v in tpvs.values():
        assert abs(v.sum() - 1.0) < 1e-9


def test_as_saved_equals_the_saved_file_read_back(tmp_path):
    rng = np.random.default_rng(6)
    rows = [{"tweet_id": f"t{i:03d}", "probs": [float(x) for x in rng.dirichlet(np.ones(8))]}
            for i in reversed(range(300))]
    _write_tpv_rows(tmp_path / "in.jsonl", rows)
    tpvs = load_tpvs(tmp_path / "in.jsonl", K=8)
    save_tpvs(tpvs, tmp_path / "out.jsonl")
    reread = load_tpvs(tmp_path / "out.jsonl", K=8)
    expected = as_saved(tpvs)
    assert list(expected) == list(reread) == sorted(tpvs)
    assert all(np.array_equal(expected[k], reread[k]) for k in reread)


# -- dominant topic --------------------------------------------------------------

def test_dominant_argmax():
    assert dominant_topic(np.array([0.1, 0.7, 0.2])) == 1


def test_dominant_tie_lowest_index():
    assert dominant_topic(np.array([0.5, 0.5])) == 0


def test_dominant_uniform_k200():
    assert dominant_topic(np.full(200, 1 / 200)) == 0


def test_dominant_invariant_under_rescaling():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.dirichlet(np.ones(16))
        c = rng.uniform(0.1, 50.0)
        assert dominant_topic(v) == dominant_topic(v * c)


# -- per-topic aggregation ---------------------------------------------------------

def _cache(scores):
    cache = ScoreCache()
    for tid, s in scores.items():
        cache.put_toxicity(tid, s)
    return cache


def test_topic_median_odd():
    assignments = {"a": 3, "b": 3, "c": 3}
    cache = _cache({"a": 0.1, "b": 0.15, "c": 0.2})
    assert topic_aggregates(assignments, cache, 5)[3].median_toxicity == pytest.approx(0.15)


def test_topic_median_even():
    assignments = {"a": 1, "b": 1}
    cache = _cache({"a": 0.1, "b": 0.2})
    assert topic_aggregates(assignments, cache, 5)[1].median_toxicity == pytest.approx(0.15)


def test_topic_median_empty_is_none():
    assert topic_aggregates({"a": 3}, _cache({"a": 0.5}), 8)[7].median_toxicity is None


def test_aggregate_counts_sum_to_assigned():
    rng = np.random.default_rng(3)
    assignments = {f"t{i}": int(rng.integers(0, 6)) for i in range(500)}
    cache = _cache({f"t{i}": float(rng.random()) for i in range(500)})
    aggs = topic_aggregates(assignments, cache, K=6)
    assert sum(a.tweet_count for a in aggs.values()) == 500
    unscored = topic_aggregates({"x": 2}, ScoreCache(), K=6)
    assert unscored[2].median_toxicity is None  # null iff no scored tweets


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
    tpvs = baseline_topic_assigner(corpus, K=20, seed=1)
    a, b = tpvs["a-0"], tpvs["b-0"]
    assert np.array_equal(a, b)


def test_single_token_tweet_one_hot():
    from mission_profiler.ingest import Corpus, IngestStats

    tl = make_timeline("a", texts=["solo"])
    corpus = Corpus(profiles={"a": tl}, ingest_stats=IngestStats())
    tpvs = baseline_topic_assigner(corpus, K=20, seed=1, eligible_only=False)
    v = tpvs["a-0"]
    assert v.max() == 1.0
    assert v.sum() == 1.0


def test_golden_baseline_tpv_file(tmp_path):
    corpus = load_timelines(DATA / "golden_corpus_tweets.jsonl")
    tpvs = baseline_topic_assigner(corpus, K=20, seed=42)
    out = tmp_path / "tpv.jsonl"
    save_tpvs(tpvs, out)
    golden = (DATA / "golden_baseline_tpv_seed42.jsonl").read_bytes()
    assert out.read_bytes() == golden


def test_assignments_cover_tpv_map():
    corpus = load_timelines(DATA / "golden_corpus_tweets.jsonl")
    tpvs = baseline_topic_assigner(corpus, K=20, seed=42)
    assignments = assign_dominant_topics(tpvs)
    assert set(assignments) == set(tpvs)
