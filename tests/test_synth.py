import statistics

import numpy as np
import pytest

from mission_profiler.diversity import assign_group, row_categories, shannon_entropy
from mission_profiler.ingest import load_timelines
from mission_profiler.metrics import burstiness
from mission_profiler.synth import (
    ArchetypeSpec,
    SynthSpecError,
    default_specs,
    generate,
    load_specs,
    write_bundle,
)
from mission_profiler.topics import TopicCatalog


def small_specs(n=10):
    specs = default_specs(n_on_mission=n, n_genuine=n)
    for s in specs:
        s.tweets_per_profile = (15, 25)
    return specs


def test_shape_and_label_counts():
    bundle = generate(small_specs(10), K=20, seed=42)
    assert len(bundle.labels) == 20
    assert sum(1 for v in bundle.labels.values() if v == "on_mission") == 10
    assert len(bundle.profiles) == 20
    assert len(bundle.tweets) >= 20 * 15


def test_every_tweet_has_tpv_and_toxicity():
    bundle = generate(small_specs(5), K=20, seed=1)
    ids = {t["tweet_id"] for t in bundle.tweets}
    assert set(bundle.tpvs) == ids
    assert set(bundle.toxicity.toxicity) == ids


def test_toxicity_in_unit_interval_and_tpvs_sum_to_one():
    bundle = generate(small_specs(5), K=20, seed=2)
    assert all(0.0 <= v <= 1.0 for v in bundle.toxicity.toxicity.values())
    for v in bundle.tpvs.values():
        assert abs(float(np.sum(v)) - 1.0) < 1e-9
        assert np.all(v >= 0)


def test_byte_identical_regeneration(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_bundle(generate(small_specs(6), K=20, seed=99), a)
    write_bundle(generate(small_specs(6), K=20, seed=99), b)
    for name in ("tweets.jsonl", "profiles.jsonl", "tpvs.jsonl", "toxicity_cache.jsonl", "labels.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_different_seed_differs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_bundle(generate(small_specs(6), K=20, seed=1), a)
    write_bundle(generate(small_specs(6), K=20, seed=2), b)
    assert (a / "tweets.jsonl").read_bytes() != (b / "tweets.jsonl").read_bytes()


def test_periodic_burst_pattern_round_trips_to_minus_one(tmp_path):
    spec = ArchetypeSpec(
        name="periodic", n_profiles=4, on_mission=False,
        burst_pattern="periodic", tweets_per_profile=(20, 30),
    )
    bundle = generate([spec], K=20, seed=3)
    out = tmp_path / "bundle"
    paths = write_bundle(bundle, out)
    corpus = load_timelines(paths["tweets"], paths["profiles"])
    assert len(corpus.profiles) == 4
    for timeline in corpus.profiles.values():
        b, _, _ = burstiness([t.timestamp for t in timeline.tweets])
        assert b == pytest.approx(-1.0, abs=0.05)


def test_on_mission_entropy_lands_in_diverse_groups():
    from mission_profiler.topics import CATEGORIES

    bundle = generate(default_specs(30, 30), K=20, seed=42)
    catalog = TopicCatalog.demo(20)
    categories = row_categories(catalog, np.array(list(bundle.tpvs.values())))
    category_of = dict(zip(bundle.tpvs, categories.tolist()))
    by_profile: dict[str, list[int]] = {}
    for tweet in bundle.tweets:
        by_profile.setdefault(tweet["profile_id"], []).append(category_of[tweet["tweet_id"]])
    entropies = {}
    for pid, category_list in by_profile.items():
        counts = [0] * len(CATEGORIES)
        for c in category_list:
            counts[c] += 1
        total = sum(counts)
        cp = np.array([n / total for n in counts])
        entropies[pid] = shannon_entropy(cp)
    mission_h = [h for p, h in entropies.items() if bundle.labels[p] == "on_mission"]
    mean_h = sum(mission_h) / len(mission_h)
    assert assign_group(mean_h) in ("VI", "VII", "VIII")


def test_mission_topic_toxicity_gap_at_least_point_two():
    bundle = generate(default_specs(30, 30), K=20, seed=42)
    assignments = dict(zip(bundle.tpvs, np.argmax(np.array(list(bundle.tpvs.values())), axis=1).tolist()))

    def dominant_topic_median_tox(profile_id):
        topics_count: dict[int, int] = {}
        scores_by_topic: dict[int, list[float]] = {}
        for tweet in bundle.tweets:
            if tweet["profile_id"] != profile_id:
                continue
            topic = assignments[tweet["tweet_id"]]
            topics_count[topic] = topics_count.get(topic, 0) + 1
            scores_by_topic.setdefault(topic, []).append(bundle.toxicity.toxicity[tweet["tweet_id"]])
        top = max(topics_count, key=lambda t: (topics_count[t], -t))
        return statistics.median(scores_by_topic[top])

    mission = [dominant_topic_median_tox(p) for p, l in sorted(bundle.labels.items()) if l == "on_mission"]
    genuine = [dominant_topic_median_tox(p) for p, l in sorted(bundle.labels.items()) if l == "genuine"]
    assert statistics.mean(mission) - statistics.mean(genuine) >= 0.2


def test_spec_validation():
    with pytest.raises(SynthSpecError):
        ArchetypeSpec(name="x", n_profiles=0, on_mission=False).validate(20)
    with pytest.raises(SynthSpecError):
        ArchetypeSpec(name="x", n_profiles=1, on_mission=True).validate(20)  # no mission topic
    with pytest.raises(SynthSpecError):
        ArchetypeSpec(name="x", n_profiles=1, on_mission=False,
                      tweets_per_profile=(5, 8)).validate(20)
    with pytest.raises(SynthSpecError):
        ArchetypeSpec(name="x", n_profiles=1, on_mission=False,
                      burst_pattern="weird").validate(20)
    with pytest.raises(SynthSpecError):
        generate([], K=20, seed=1)
    with pytest.raises(SynthSpecError):
        generate(small_specs(2), K=4, seed=1)


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("""
    {
      "K": 16,
      "archetypes": [
        {"name": "m", "n_profiles": 3, "on_mission": true, "mission_topic": 2,
         "toxicity_dist": {"2": [0.9, 0.05]}, "tweets_per_profile": [12, 15]},
        {"name": "g", "n_profiles": 2, "on_mission": false, "tweets_per_profile": [12, 15]}
      ]
    }
    """)
    specs, K = load_specs(path)
    assert K == 16
    assert specs[0].toxicity_dist == {2: (0.9, 0.05)}
    bundle = generate(specs, K, seed=5)
    assert len(bundle.labels) == 5


def test_friend_density_creates_within_archetype_edges():
    spec = ArchetypeSpec(
        name="m", n_profiles=8, on_mission=True, mission_topic=1,
        friend_density=1.0, tweets_per_profile=(12, 15),
    )
    bundle = generate([spec], K=20, seed=4)
    for profile in bundle.profiles:
        assert len(profile["friends_ids"]) == 7  # fully connected


def test_ingested_bundle_survives_filtering(tmp_path):
    bundle = generate(small_specs(5), K=20, seed=6)
    paths = write_bundle(bundle, tmp_path / "b")
    corpus = load_timelines(paths["tweets"], paths["profiles"])
    assert len(corpus.profiles) == 10  # nothing dropped below 10 tweets
    assert corpus.ingest_stats.malformed == 0


def test_on_mission_top_gap_exceeds_genuine():
    from mission_profiler.detector import top3_gap

    bundle = generate(default_specs(30, 30), K=20, seed=42)
    by_profile: dict[str, list] = {}
    for tweet in bundle.tweets:
        by_profile.setdefault(tweet["profile_id"], []).append(bundle.tpvs[tweet["tweet_id"]])
    gaps = {}
    for pid, vectors in by_profile.items():
        gap = top3_gap(np.mean(np.stack(vectors), axis=0))
        assert gap is not None
        gaps[pid] = gap[0]
    mission = sorted(g for p, g in gaps.items() if bundle.labels[p] == "on_mission")
    genuine = sorted(g for p, g in gaps.items() if bundle.labels[p] == "genuine")
    assert statistics.median(mission) > statistics.median(genuine)
