import errno
import hashlib
import json
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mission_profiler import classifier, detector, diversity, features, ingest, metrics, pipeline, scores, topics
from mission_profiler.ingest import Corpus, ProfileTimeline
from mission_profiler.pipeline import (
    Pipeline,
    PipelineError,
    RunConfig,
    StaleCacheError,
    parse_tox_gate,
    run_pipeline,
)
from mission_profiler.readability import LEXICAL_KEYS
from mission_profiler.synth import default_specs, generate, write_bundle
from mission_profiler.topics import CATEGORIES, TopicCatalog
from mission_profiler.util import sha256_file

from conftest import BAD_LABELS, NO_SPACE, FailingScorer, fill_disk_for, make_tweet, tweet_row, write_tweet_lines, BASE_TS
from test_detector import _linear_percentile


def _small_bundle(tmp_path, n=8, seed=11):
    specs = default_specs(n_on_mission=n, n_genuine=n)
    for s in specs:
        s.tweets_per_profile = (15, 25)
    bundle = generate(specs, K=20, seed=seed)
    return write_bundle(bundle, tmp_path / "bundle")


def _config(paths, **overrides):
    cfg = RunConfig(
        tweets=str(paths["tweets"]),
        profiles=str(paths["profiles"]),
        tpvs=str(paths["tpvs"]),
        K=20,
        toxicity_backend="file",
        toxicity_path=str(paths["toxicity"]),
        labels=str(paths["labels"]),
        detect_group="VII",
        seed=11,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_end_to_end_report_shape(tmp_path):
    paths = _small_bundle(tmp_path)
    report = run_pipeline(_config(paths), tmp_path / "run")
    assert set(report["group_sizes"]) == {"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}
    assert "lexical_table" in report and "VIII" in report["lexical_table"]
    assert "profile_table" in report
    assert isinstance(report["cluster_table"], list)
    assert set(report["ablation_table"]) == {"content", "auxiliary", "activity_profile", "all"}
    assert isinstance(report["wild_table"], list)
    assert report["config_hash"]
    out = tmp_path / "run"
    assert (out / "report" / "report.json").exists()
    assert (out / "report" / "plots" / "fig_entropy_cdf.csv").exists()


def test_rerun_reuses_cache_and_reproduces_report(tmp_path):
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    out = tmp_path / "run"
    run_pipeline(config, out)
    report_bytes = (out / "report" / "report.json").read_bytes()
    manifest_mtime = (out / "ingest" / "manifest.json").stat().st_mtime_ns
    run_pipeline(config, out)
    assert (out / "report" / "report.json").read_bytes() == report_bytes
    # the ingest stage is not run again on the second run
    assert (out / "ingest" / "manifest.json").stat().st_mtime_ns == manifest_mtime


def test_two_fresh_runs_byte_identical(tmp_path):
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    run_pipeline(config, tmp_path / "run1")
    run_pipeline(config, tmp_path / "run2")
    for rel in (
        "report/report.json",
        "classify/model_linear_svm.json",
        "classify/model_decision_tree.json",
        "classify/model_random_forest.json",
    ):
        a = (tmp_path / "run1" / rel).read_bytes()
        b = (tmp_path / "run2" / rel).read_bytes()
        assert a == b, rel


def test_artifacts_do_not_depend_on_the_line_order_of_the_inputs(tmp_path):
    paths = _small_bundle(tmp_path)
    shuffled_dir = tmp_path / "shuffled"
    shuffled_dir.mkdir()
    shuffled = dict(paths)
    rng = random.Random(20240611)
    for key in ("tweets", "profiles", "tpvs", "toxicity"):
        lines = paths[key].read_text(encoding="utf-8").splitlines(keepends=True)
        head = lines[:1] if key == "toxicity" else []  # the score cache's format line stays first
        body = lines[len(head):]
        rng.shuffle(body)
        assert body != lines[len(head):], key
        shuffled[key] = shuffled_dir / paths[key].name
        shuffled[key].write_text("".join(head + body), encoding="utf-8")
    configs = {"run": _config(paths), "shuffled_run": _config(shuffled)}
    for name, config in configs.items():
        run_pipeline(config, tmp_path / name)

    def artifacts(name):
        out, config = tmp_path / name, configs[name]
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")
        # config_hash and the input paths are the only bytes allowed to differ
        return {
            str(rel): (out / rel).read_bytes()
            .replace(config.config_hash().encode(), b"<config_hash>")
            .replace(str(shuffled_dir).encode(), b"<inputs>")
            .replace(str(paths["tweets"].parent).encode(), b"<inputs>")
            for rel in files
        }

    original, reordered = artifacts("run"), artifacts("shuffled_run")
    assert list(reordered) == list(original)
    assert {"topics/aggregates.json", "classify/model_random_forest.json", "report/report.json"} <= set(original)
    for rel in original:
        assert reordered[rel] == original[rel], rel


def _append_orphan_vectors(path, n=40, K=20):
    """Add n topic vectors for tweet ids that no corpus holds."""
    rng = random.Random(3)
    with open(path, "a", encoding="utf-8") as fh:
        for i in range(n):
            probs = [rng.random() for _ in range(K)]
            fh.write(json.dumps({"tweet_id": f"orphan-{i}", "probs": [p / sum(probs) for p in probs]}) + "\n")


def test_topic_vectors_of_tweets_outside_the_corpus_leave_the_designations_unchanged(tmp_path):
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    run_pipeline(config, tmp_path / "run")
    _append_orphan_vectors(paths["tpvs"])  # same path, so the same config hash
    with pytest.warns(UserWarning, match="40 topic vectors reference unknown tweets"):
        run_pipeline(config, tmp_path / "with_orphans")
    for name in ("topics/aggregates.json", "group/groups.json", "detect/designations.json"):
        assert (tmp_path / "with_orphans" / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def _share_tweet_ids(path, n=40):
    """Give n tweets of the file to a second profile too: each copy keeps the
    tweet id, text and time, under the profile that follows its own in id order."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    profile_ids = sorted({row["profile_id"] for row in rows})
    with open(path, "a", encoding="utf-8") as fh:
        for row in rows[:n]:
            following = profile_ids[(profile_ids.index(row["profile_id"]) + 1) % len(profile_ids)]
            fh.write(json.dumps({**row, "profile_id": following}) + "\n")


_PINNED_DIGESTS = {
    "user": {
        "topics/aggregates.json": "a98572f27fe4bef9934019f8337adc7ab0f6cdd39d68f714a85cafa6c9974ad6",
        "group/groups.json": "4f5e28549cdbe92f4c1b9d0e2d964bdba3843f36ddec05180339058f1008bf3d",
        "detect/designations.json": "33cbd78cecf6fe0d6652c152df5b0eeb5659abb030b6d2e15d4a13eb2a03a5b5",
        "features/features.jsonl": "a2bd225b37b939bee70bf4166cee06760119355f5abb7d6ca086a84795355a81",
        "classify/eval.json": "29f0d305ea45d2ba6c6ae2dbdabe764ef26088e5a52f6cedc86a2128b8747cab",
        "classify/ablation.json": "3e5861d1a0c35b6530aa2c20800c30d3bff257668cfb5e989d02ac3140e73c14",
    },
    "shared": {
        "topics/aggregates.json": "91699184984b147a7526af42b7b85662a5cf6932b3efe48b1ecbf097af6130d2",
        "group/groups.json": "d14e55419f6f62f59e36778191961950d52de787605674684a699e3fc59bb1e7",
        "detect/designations.json": "79e6d8ce3bec33922904c8d25d1ae5c4ba30900a8f0360324f12897ce7fd6ef4",
        "features/features.jsonl": "2a9c54f3f9a5d5ed7669792928fd1b5a2226a161be87580636a304a5f8f2ceb2",
        "classify/eval.json": "cb867f2b90889f23016bbfd510cf0ad0289f2923bb7449f3c4536f83cad2724f",
        "classify/ablation.json": "461ebe129e0fd5e88da6c3243189d943ed27c70695949a85f7bb8f33a90da24b",
    },
    "baseline": {
        "topics/tpvs.jsonl": "ffb11591f57f9c601e8d8068bb6ebb6cb9242b20c60626bb35f77cc2dafd1b71",
        "topics/aggregates.json": "3daadfc6fd3f673ca9a76a231cb4fbe91c8f68b4895a998800db34ed0089a8bb",
        "group/groups.json": "8219ad73662fe3d407998ebdbd14dfa0c16dba22517dcc881b72d73493f2546a",
        "detect/designations.json": "ea20b9621acdd63ed03217e75cde818e943a41969f8c6b1d16b8f5202da82de6",
        "features/features.jsonl": "6d2ba09b6cd5e4b8edc11d9f504f9cd64f24c9020efe6a87df1755305a49953a",
        "classify/eval.json": "7f7c509b6b8191e66a2d310d9cb4d92fa1ed61c866e759a7cf30d4f33b9d3df9",
        "classify/ablation.json": "0e7b18da3c241754ab1b931b82132778120d3528bf0fc68615053d809a320d96",
    },
}


@pytest.mark.parametrize("source", sorted(_PINNED_DIGESTS))
def test_cold_run_topic_artifact_digests_pinned(tmp_path, source):
    # digests of what the stages that read topic vectors, and the classifier's
    # evaluation rows, wrote for this bundle;
    # two runs of the same code agree with each other, these also catch a change
    # of bytes between versions of the code
    paths = _small_bundle(tmp_path)
    if source == "shared":
        _share_tweet_ids(paths["tweets"])
        config = _config(paths)
    elif source == "user":
        _append_orphan_vectors(paths["tpvs"], n=2)
        first = json.loads(paths["tpvs"].read_text(encoding="utf-8").splitlines()[0])
        with open(paths["tpvs"], "a", encoding="utf-8") as fh:  # a repeated id: its last row wins
            fh.write(json.dumps({"tweet_id": first["tweet_id"], "probs": first["probs"][::-1]}) + "\n")
        config = _config(paths)
    else:
        config = _config(paths, tpvs=None, use_baseline_topics=True)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(config, out)
    got = {}
    for rel in _PINNED_DIGESTS[source]:
        data = (out / rel).read_bytes()
        if rel == "features/features.jsonl":
            data = data.split(b"\n", 1)[1]  # the header line
        data = data.replace(config.config_hash().encode(), b"")  # the hash covers the input paths
        got[rel] = hashlib.sha256(data).hexdigest()
    assert got == _PINNED_DIGESTS[source]


# -- the corpus joined to the topic vectors ---------------------------------------
# The dict-based join that topic_rows replaced, kept verbatim as a reference:
# the topics and detect stages' own-vector filter, the tweet -> topic dict, the
# timeline-based category counts of group and features, and detect's member rows.


def _reference_corpus_topic_aggregates(corpus, tpvs, cache, K, warn):
    own_ids, own = _reference_corpus_vectors(corpus, tpvs)
    if len(own_ids) < len(tpvs[0]):
        warn(f"{len(tpvs[0]) - len(own_ids)} topic vectors reference unknown tweets")
    if not own_ids:
        warn("no tweet in the corpus has a topic vector")
    return topics.topic_aggregates(_reference_dominant_topics(own_ids, own), cache, K)


def _reference_corpus_vectors(corpus, tpvs):
    """The ids and rows of the corpus's own tweets: tpvs itself when every row is theirs."""
    ids, matrix = tpvs
    known_ids = {t.tweet_id for t in corpus.all_tweets()}
    own = [i for i, tid in enumerate(ids) if tid in known_ids]
    return tpvs if len(own) == len(ids) else ([ids[i] for i in own], matrix[own])


def _reference_dominant_topics(ids, matrix):
    """The argmax topic of every row, by id; ties break to the lowest index."""
    return dict(zip(ids, np.argmax(matrix, axis=1).tolist()))


def _reference_category_counts(timeline, catalog, assignments):
    """Tweet counts per category over the profile's TPV-covered tweets."""
    counts = {c: 0 for c in CATEGORIES}
    for tweet in timeline.tweets:
        topic = assignments.get(tweet.tweet_id)
        if topic is not None:
            counts[catalog.category(topic)] += 1
    return counts


def _reference_member_rows(corpus, tpvs, members):
    row_of = {tid: i for i, tid in enumerate(tpvs[0])}
    return {
        profile_id: [row_of[t.tweet_id] for t in corpus.profiles[profile_id].tweets if t.tweet_id in row_of]
        for profile_id in members
    }


@st.composite
def _joined_corpora(draw):
    """A corpus of 0-6 profiles over a pool of tweet ids, so that profiles
    share ids, and topic vectors as (ids, matrix) for some of the pool (the
    rest of the tweets have none) and for 0-5 ids no profile holds."""
    pool = draw(st.integers(1, 30))
    profiles = {}
    for p in range(draw(st.integers(0, 6))):
        picked = draw(st.lists(st.integers(0, pool - 1), unique=True, max_size=12))
        tweets = tuple(make_tweet(f"t{i}", ts=BASE_TS + draw(st.integers(0, 5))) for i in picked)
        profiles[f"p{p}"] = ProfileTimeline(profile_id=f"p{p}", tweets=tweets)
    covered = draw(st.sets(st.integers(0, pool - 1)))
    ids = sorted({f"t{i}" for i in covered} | {f"orphan-{i}" for i in range(draw(st.integers(0, 5)))})
    K = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(0, 3, size=(len(ids), K)).astype(float)  # few levels: argmax ties
    matrix[:, 0] += matrix.sum(axis=1) == 0
    matrix /= matrix.sum(axis=1, keepdims=True)
    return Corpus(profiles=profiles), (ids, matrix), TopicCatalog.demo(K)


@settings(max_examples=150, deadline=None)
@given(_joined_corpora())
@example((  # every vector is the corpus's own; p1 shares t0 and has an uncovered tweet, p2 has no covered one
    Corpus(profiles={
        p: ProfileTimeline(profile_id=p, tweets=tuple(make_tweet(t) for t in tweet_ids))
        for p, tweet_ids in {"p0": ["t0", "t1"], "p1": ["t2", "t0"], "p2": ["t3"]}.items()
    }),
    (["t0", "t1", "t2"], np.array([[0.5, 0.5], [0.2, 0.8], [1.0, 0.0]])),
    TopicCatalog.demo(2),
))
def test_the_topic_row_join_gives_what_the_dict_based_reference_gave(drawn):
    corpus, tpvs, catalog = drawn
    ids, matrix = tpvs
    K = matrix.shape[1]
    rows = pipeline.topic_rows(corpus, ids)
    assert list(rows) == sorted(corpus.profiles)

    # per-profile category counts, and the groups' category vectors made from them
    assignments = _reference_dominant_topics(*tpvs)
    categories = diversity.row_categories(catalog, matrix)
    expected_counts = {p: _reference_category_counts(corpus.profiles[p], catalog, assignments) for p in rows}
    for profile_id, covered in rows.items():
        counts = diversity.category_counts(covered, categories)
        assert dict(zip(CATEGORIES, counts.tolist())) == expected_counts[profile_id]
    groups, _ = pipeline.group_profiles(corpus, catalog, tpvs, lambda text: None)
    expected_cpv = {
        p: tuple(counts[c] / sum(counts.values()) for c in CATEGORIES)
        for p, counts in expected_counts.items() if any(counts.values())
    }
    assert groups["cpv"] == expected_cpv

    # own rows: the aggregates, their warnings, and the vectors the global average sums
    cache = scores.ScoreCache()
    for i, tweet_id in enumerate(ids[::2]):
        cache.put_toxicity(tweet_id, i % 5 / 4)
    got_warnings, expected_warnings = [], []
    aggs = pipeline.corpus_topic_aggregates(corpus, tpvs, cache, K, got_warnings.append)
    assert aggs == _reference_corpus_topic_aggregates(corpus, tpvs, cache, K, expected_warnings.append)
    assert got_warnings == expected_warnings
    members = [p for p, covered in rows.items() if covered]
    if not members:
        return
    seen = {"members": []}
    real_average, real_ntpv = detector.global_topic_average, detector.ntpv

    def average(vectors, n_profiles, **kwargs):
        seen["own"] = vectors
        return real_average(vectors, n_profiles, **kwargs)

    def ntpv(vectors, global_avg):
        seen["members"].append(vectors)
        return real_ntpv(vectors, global_avg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "global_topic_average", average)
        mp.setattr(detector, "ntpv", ntpv)
        pipeline.designate(corpus, tpvs, catalog, aggs, {"I": members}, "I", 1, ("absolute", 0.5), lambda text: None)
    own = _reference_corpus_vectors(corpus, tpvs)[1]
    assert (seen["own"] is matrix) == (own is matrix)  # no copy when every vector is the corpus's own
    assert seen["own"].tobytes() == own.tobytes()
    # nTPV rows: each member's vectors, in timeline order
    expected_rows = _reference_member_rows(corpus, tpvs, members)
    assert [v.tobytes() for v in seen["members"]] == [matrix[expected_rows[p]].tobytes() for p in members]


def _zero_topic(path, topic=19):
    """Move the mass of one topic in every vector of the file to topic 0."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    for row in rows:
        row["probs"][0] += row["probs"][topic]
        row["probs"][topic] = 0.0
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def test_a_topic_of_zero_global_average_is_a_detect_warning_of_the_run(tmp_path):
    paths = _small_bundle(tmp_path)
    _zero_topic(paths["tpvs"])
    config, out = _config(paths), tmp_path / "run"
    message = "detect: 1 topics have zero global average; floored to 1e-12"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cold = run_pipeline(config, out)
    assert message in cold["warnings"]
    assert [str(w.message) for w in caught].count(message) == 1  # once, in the stage's words
    assert json.loads((out / "detect" / "manifest.json").read_text())["warnings"] == [message]
    (out / "report" / "report.json").unlink()
    assert run_pipeline(config, out) == cold  # a warm rerun keeps it


@pytest.mark.parametrize("member, reason", [
    ("ghost-0001", "is not in the corpus"),
    (None, "has no tweet with a topic vector"),
])
def test_a_group_member_without_topic_vectors_is_named_in_the_detect_error(tmp_path, member, reason):
    paths = _small_bundle(tmp_path)
    corpus = ingest.load_timelines(paths["tweets"], paths["profiles"])
    tpvs, catalog = pipeline.topic_vectors(20, 11, str(paths["tpvs"]), None)
    if member is None:  # a profile whose vectors are left out
        member = sorted(corpus.profiles)[0]
        held = {t.tweet_id for t in corpus.profiles[member].tweets}
        keep = [i for i, tweet_id in enumerate(tpvs[0]) if tweet_id not in held]
        tpvs = ([tpvs[0][i] for i in keep], tpvs[1][keep])
    aggs = pipeline.corpus_topic_aggregates(corpus, tpvs, scores.ScoreCache(), 20, lambda text: None)
    partition = {"VIII": sorted(corpus.profiles)[1:4] + [member]}
    with pytest.raises(ValueError, match=f"^group VIII member {member} {reason}$"):
        pipeline.designate(corpus, tpvs, catalog, aggs, partition, "VIII", 3, ("absolute", 0.5), lambda text: None)


def test_stale_cache_aborts(tmp_path):
    paths = _small_bundle(tmp_path)
    out = tmp_path / "run"
    run_pipeline(_config(paths), out)
    changed = _config(paths, seed=999)
    with pytest.raises(StaleCacheError):
        run_pipeline(changed, out)


def test_lock_file_blocks_concurrent_runs(tmp_path):
    paths = _small_bundle(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text(str(os.getpid()))  # a holder that is alive
    with pytest.raises(PipelineError) as err:
        run_pipeline(_config(paths), out)
    assert err.value.stage == "lock"
    assert err.value.exit_code == 4
    assert (out / ".lock").read_text() == str(os.getpid())


def test_a_lock_left_by_a_run_that_is_gone_is_reclaimed(tmp_path):
    paths = _small_bundle(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # exited and reaped: no process has its pid now
    (out / ".lock").write_text(str(child.pid))
    with pytest.warns(UserWarning, match="stale lock"):
        report = run_pipeline(_config(paths), out)
    assert report == run_pipeline(_config(paths), tmp_path / "clean")
    assert not (out / ".lock").exists()


def test_corrupt_tpv_aborts_naming_stage_and_row(tmp_path):
    paths = _small_bundle(tmp_path)
    lines = Path(paths["tpvs"]).read_text().splitlines()
    bad = json.loads(lines[4])
    bad["probs"] = bad["probs"][:-1]  # dimension mismatch on row 5
    lines[4] = json.dumps(bad)
    Path(paths["tpvs"]).write_text("\n".join(lines) + "\n")
    with pytest.raises(PipelineError) as err:
        run_pipeline(_config(paths), tmp_path / "run")
    assert err.value.stage == "topics"
    assert "row 5" in str(err.value)
    assert err.value.exit_code == 12


def test_a_nan_topic_probability_stops_the_run_in_topics_naming_the_row(tmp_path):
    paths = _small_bundle(tmp_path)
    lines = Path(paths["tpvs"]).read_text().splitlines()
    bad = json.loads(lines[0])
    bad["probs"][0] = float("nan")
    lines[0] = json.dumps(bad)
    Path(paths["tpvs"]).write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    with pytest.raises(PipelineError) as err:
        run_pipeline(_config(paths), out)
    assert err.value.stage == "topics"
    assert err.value.exit_code == 12
    assert "row 1: non-finite probability" in str(err.value)
    assert not (out / "group").exists()


def test_unavailable_scorer_aborts_score_and_keeps_the_partial_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("MISSION_PROFILER_TOXICITY_URL", raising=False)
    paths = _small_bundle(tmp_path)
    out = tmp_path / "run"
    with pytest.raises(PipelineError) as err:
        run_pipeline(_config(paths, toxicity_backend="http"), out)
    assert err.value.stage == "score"
    assert err.value.exit_code == 11
    assert (out / "score" / pipeline.PARTIAL_SCORES).exists()
    assert not (out / "score" / "toxicity_cache.jsonl").exists()
    assert not (out / "score" / "manifest.json").exists()


def _score_file(out):
    return (out / "score" / "toxicity_cache.jsonl").read_bytes()


def test_a_run_stopped_by_an_unavailable_scorer_resumes_from_its_partial_scores(tmp_path, monkeypatch):
    monkeypatch.setattr(scores, "HTTPToxicityClient", FailingScorer)
    monkeypatch.setattr(FailingScorer, "requests", [])
    paths = _small_bundle(tmp_path)
    cfg = _config(paths, toxicity_backend="http")
    clean = tmp_path / "clean"
    clean_report = run_pipeline(cfg, clean)
    assert len(FailingScorer.requests) == 324

    out = tmp_path / "run"
    monkeypatch.setattr(FailingScorer, "requests", [])
    monkeypatch.setattr(FailingScorer, "fail_after", 30)
    with pytest.raises(PipelineError) as err:
        run_pipeline(cfg, out)
    assert err.value.stage == "score"
    partial = out / "score" / pipeline.PARTIAL_SCORES
    saved = scores.ScoreCache.load(partial)
    assert len(saved.toxicity) == 30
    saved.put_toxicity("not-in-the-corpus", 0.5, "http")  # dropped on resume
    saved.save(partial)

    monkeypatch.setattr(FailingScorer, "requests", [])
    monkeypatch.setattr(FailingScorer, "fail_after", None)
    assert run_pipeline(cfg, out) == clean_report
    assert len(FailingScorer.requests) == 294  # the 30 scored before the failure are not asked again
    assert not partial.exists()
    assert _score_file(out) == _score_file(clean)


def test_a_mock_run_keeps_the_partial_scores_of_an_http_run(tmp_path, monkeypatch):
    monkeypatch.setattr(scores, "HTTPToxicityClient", FailingScorer)
    monkeypatch.setattr(FailingScorer, "requests", [])
    monkeypatch.setattr(FailingScorer, "fail_after", 30)
    paths = _small_bundle(tmp_path)
    with pytest.raises(PipelineError):
        run_pipeline(_config(paths, toxicity_backend="http"), tmp_path / "http")
    http_scores = scores.ScoreCache.load(tmp_path / "http" / "score" / pipeline.PARTIAL_SCORES).toxicity
    out = tmp_path / "run"  # a fresh out dir: an http run's manifests would not match a mock config
    (out / "score").mkdir(parents=True)
    os.replace(tmp_path / "http" / "score" / pipeline.PARTIAL_SCORES, out / "score" / pipeline.PARTIAL_SCORES)
    run_pipeline(_config(paths, toxicity_backend="mock", mock_toxicity_value=0.75), out)
    cache = scores.ScoreCache.load(out / "score" / "toxicity_cache.jsonl")
    assert len(http_scores) == 30 and len(cache.toxicity) == 324
    for tweet_id, score in cache.toxicity.items():
        expected = (http_scores[tweet_id], "http") if tweet_id in http_scores else (0.75, "mock")
        assert (score, cache.provenance(tweet_id)) == expected
    assert not (out / "score" / pipeline.PARTIAL_SCORES).exists()


def test_a_partial_score_save_cut_short_leaves_the_earlier_file(tmp_path, monkeypatch):
    monkeypatch.setattr(scores, "HTTPToxicityClient", FailingScorer)
    monkeypatch.setattr(FailingScorer, "requests", [])
    monkeypatch.setattr(FailingScorer, "fail_after", 30)
    paths = _small_bundle(tmp_path)
    cfg = _config(paths, toxicity_backend="http")
    out = tmp_path / "run"
    with pytest.raises(PipelineError):
        run_pipeline(cfg, out)
    partial = out / "score" / pipeline.PARTIAL_SCORES
    earlier = partial.read_bytes()

    dumps = scores.canonical_dumps
    rows = []

    def dumps_until_the_disk_fills(obj):  # the save of the 60 scores stops at its 40th row
        rows.append(obj)
        if len(rows) == 40:
            raise OSError(28, "No space left on device")
        return dumps(obj)

    monkeypatch.setattr(scores, "canonical_dumps", dumps_until_the_disk_fills)
    monkeypatch.setattr(FailingScorer, "fail_after", 60)
    with pytest.raises(PipelineError, match="No space left on device") as err:
        run_pipeline(cfg, out)
    assert err.value.exit_code == 11
    assert partial.read_bytes() == earlier
    assert [p.name for p in (out / "score").iterdir()] == [pipeline.PARTIAL_SCORES]  # no temp file left

    monkeypatch.setattr(scores, "canonical_dumps", dumps)
    monkeypatch.setattr(FailingScorer, "requests", [])
    monkeypatch.setattr(FailingScorer, "fail_after", None)
    report = run_pipeline(cfg, out)
    assert len(FailingScorer.requests) == 294  # the 30 scores of the earlier file are not asked again
    assert report == run_pipeline(cfg, tmp_path / "clean")
    assert _score_file(out) == _score_file(tmp_path / "clean")


@pytest.mark.parametrize("stage, module, name, suffix", NO_SPACE)
def test_a_full_disk_in_a_stage_s_write_or_manifest_stops_the_run_with_that_stage_s_code(
    tmp_path, monkeypatch, stage, module, name, suffix,
):
    # these used to end the run with a bare OSError, exit 1
    paths = _small_bundle(tmp_path)
    fill_disk_for(monkeypatch, module, name, suffix)
    out = tmp_path / "run"
    with pytest.raises(PipelineError) as err:
        run_pipeline(_config(paths), out)
    cause = err.value.__cause__
    assert isinstance(cause, OSError) and cause.errno == errno.ENOSPC
    assert (err.value.stage, err.value.exit_code) == (stage, pipeline.EXIT_CODES[stage])
    assert str(err.value) == f"stage {stage}: {cause}"
    assert not (out / ".lock").exists()


def test_a_stage_s_pipeline_error_passes_through_the_run_unchanged(tmp_path, monkeypatch):
    monkeypatch.delenv("MISSION_PROFILER_TOXICITY_URL", raising=False)
    paths = _small_bundle(tmp_path)
    with pytest.raises(PipelineError) as err:
        run_pipeline(_config(paths, toxicity_backend="http"), tmp_path / "run")
    assert str(err.value).startswith("stage score: backend unavailable: ")
    assert isinstance(err.value.__cause__, scores.BackendUnavailable)


def test_every_stage_and_every_failure_outside_the_stages_has_an_exit_code():
    assert set(pipeline.EXIT_CODES) == {*pipeline.STAGES, "config", "stale-cache", "lock"}
    assert len(set(pipeline.EXIT_CODES.values())) == len(pipeline.EXIT_CODES)


@pytest.mark.parametrize("kind", ["toxicity", "bot"])
@pytest.mark.parametrize("path", [None, "no_such_scores.csv"])
def test_a_file_backend_needs_an_existing_score_file(tmp_path, kind, path):
    # a missing bot_path used to give a run with every bot score null, and a
    # toxicity_path naming no file an uncaught FileNotFoundError, exit 1
    paths = _small_bundle(tmp_path)
    cfg = _config(paths, **{f"{kind}_backend": "file", f"{kind}_path": path and str(tmp_path / path)})
    with pytest.raises(PipelineError) as err:
        Pipeline(cfg, tmp_path / "run")
    assert err.value.stage == "config"
    assert err.value.exit_code == 2
    assert f"{kind}_path" in str(err.value)
    assert not (tmp_path / "run").exists()


def test_missing_input_is_config_error(tmp_path):
    with pytest.raises(PipelineError) as err:
        RunConfig(tweets=str(tmp_path / "nope.jsonl")).validate()
    assert err.value.stage == "config"
    assert err.value.exit_code == 2


@pytest.mark.parametrize("overrides, error", [
    ({"profiles": "no_profiles.jsonl"}, "profiles file not found: "),
    ({"tpvs": "no_tpvs.jsonl"}, "tpv file not found: "),
    ({"catalog": "no_catalog.tsv"}, "catalog file not found: "),
    ({"tpvs": None}, "either tpvs or use_baseline_topics is required"),
    ({"toxicity_backend": "perspective"}, "unknown toxicity backend 'perspective'"),
    ({"bot_backend": "botometer"}, "unknown bot backend 'botometer'"),
    ({"detect_group": "IX"}, "unknown entropy group 'IX'"),
])
def test_a_config_naming_a_missing_file_or_an_unknown_choice_is_a_config_error(tmp_path, overrides, error):
    paths = _small_bundle(tmp_path)
    cfg = _config(paths, **{
        key: str(tmp_path / value) if key in ("profiles", "tpvs", "catalog") and value else value
        for key, value in overrides.items()
    })
    with pytest.raises(PipelineError) as err:
        Pipeline(cfg, tmp_path / "run")
    assert (err.value.stage, err.value.exit_code) == ("config", 2)
    assert str(err.value).startswith(f"stage config: {error}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field, value", [
    ("K", "20"), ("min_cluster", "3"), ("K", True), ("seed", 1.5), ("strict", 1), ("tpvs", 5),
])
def test_a_config_field_of_the_wrong_json_type_is_a_config_error_before_any_stage(tmp_path, field, value):
    # "K": "20" used to stop topics with a TypeError, and "min_cluster": "3"
    # detect, exit 1, after the earlier stages had run
    paths = _small_bundle(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_config(paths).as_dict(), field: value}), encoding="utf-8")
    with pytest.raises(PipelineError) as err:
        run_pipeline(RunConfig.from_file(path), tmp_path / "run")
    assert err.value.stage == "config"
    assert err.value.exit_code == 2
    assert f"{field} must be of type" in str(err.value)
    assert not (tmp_path / "run").exists()


def test_an_int_where_a_float_is_declared_is_a_valid_config(tmp_path):
    paths = _small_bundle(tmp_path)
    Pipeline(_config(paths, toxicity_backend="mock", mock_toxicity_value=1), tmp_path / "run")


@pytest.mark.parametrize("content", [b'{"tweets": "t.jsonl",', b"[1, 2]", b'{"tweets": "t.jsonl", "k": 20}', b"\xff{}"])
def test_a_config_file_that_is_no_json_object_of_the_fields_is_a_config_error(tmp_path, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    with pytest.raises(PipelineError) as err:
        RunConfig.from_file(path)
    assert err.value.stage == "config"
    assert err.value.exit_code == 2
    assert f"bad config file {path}" in str(err.value)


def test_a_labels_file_that_does_not_exist_is_a_config_error(tmp_path):
    paths = _small_bundle(tmp_path)
    with pytest.raises(PipelineError) as err:
        Pipeline(_config(paths, labels=str(tmp_path / "no_labels.csv")), tmp_path / "run")
    assert err.value.exit_code == 2
    assert "labels file not found" in str(err.value)


@pytest.mark.parametrize("content, error", BAD_LABELS)
def test_a_labels_row_without_a_label_or_a_labels_file_that_is_not_utf8_is_a_classify_error(tmp_path, content, error):
    # both used to stop the run with a bare IndexError or UnicodeDecodeError, exit 1
    paths = _small_bundle(tmp_path)
    labels = tmp_path / "labels.csv"
    labels.write_bytes(content)
    with pytest.raises(PipelineError) as err:
        run_pipeline(_config(paths, labels=str(labels)), tmp_path / "run")
    assert err.value.stage == "classify"
    assert err.value.exit_code == 17
    assert str(err.value) == f"stage classify: {labels}: {error}"


def test_a_label_that_matches_no_profile_is_a_classify_warning_in_the_report_and_manifest(tmp_path):
    # a stray space in an id used to lose that label without a word
    paths = _small_bundle(tmp_path)
    rows = Path(paths["labels"]).read_text(encoding="utf-8").splitlines()
    first, label = rows[1].split(",")
    rows[1] = f"{first} ,{label}"
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join(rows + ["ghost,genuine"]) + "\n", encoding="utf-8")
    warning = f"classify: 2 labels match no profile and were dropped: {f'{first} '!r}, 'ghost'"
    out = tmp_path / "run"
    with pytest.warns(UserWarning, match="labels match no profile"):
        report = run_pipeline(_config(paths, labels=str(labels)), out)
    assert warning in report["warnings"]
    assert warning in json.loads((out / "classify" / "manifest.json").read_text())["warnings"]
    assert json.loads((out / "classify" / "eval.json").read_text())["n_test"] > 0


def test_labeled_rows_names_the_first_five_labels_that_match_no_profile():
    warned = []
    X = np.arange(6.0).reshape(3, 2)
    labels = {"p1 ": 1, "p2": 0, "p3": 1, **{f"g{i}": 0 for i in range(6)}}
    X_lab, y = pipeline.labeled_rows(["p1", "p2", "p3"], X, labels, warned.append)
    assert X_lab.tolist() == X[1:].tolist() and y.tolist() == [0, 1]
    assert warned == ["7 labels match no profile and were dropped: 'g0', 'g1', 'g2', 'g3', 'g4', ..."]
    pipeline.labeled_rows(["p2", "p3"], X[1:], {"p2": 0, "p3": 1}, warned.append)
    assert len(warned) == 1


def test_labels_load_in_any_case_and_with_spaces_around(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text(
        "profile_id,label\np1, On_Mission \np2,TRUE\np3,1\np4,Genuine\np5, not_on_mission\np6,False\np7,0\n",
        encoding="utf-8",
    )
    assert pipeline.load_labels_csv(str(labels)) == {"p1": 1, "p2": 1, "p3": 1, "p4": 0, "p5": 0, "p6": 0, "p7": 0}


def test_tox_gate_parsing():
    assert parse_tox_gate("p75") == ("percentile", 75.0)
    assert parse_tox_gate("abs:0.14") == ("absolute", 0.14)
    with pytest.raises(PipelineError):
        parse_tox_gate("banana")
    assert parse_tox_gate("p0") == ("percentile", 0.0)
    assert parse_tox_gate("p100") == ("percentile", 100.0)


@pytest.mark.parametrize("gate", ["p150", "p-1", "pnan", "abs:nan", "abs:inf"])
def test_out_of_range_or_non_finite_tox_gate_is_a_config_error(tmp_path, gate):
    # before any stage runs: p150 and pnan used to fail in detect, abs:nan to designate nothing
    paths = _small_bundle(tmp_path)
    with pytest.raises(PipelineError) as err:
        Pipeline(_config(paths, tox_gate=gate), tmp_path / "run")
    assert err.value.exit_code == 2
    assert "bad tox gate" in str(err.value)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", [1.5, -0.1, float("nan"), pytest.param(10**400, id="int-too-large-for-a-float")])
def test_mock_toxicity_value_outside_unit_interval_is_a_config_error(tmp_path, value):
    paths = _small_bundle(tmp_path)
    with pytest.raises(PipelineError) as err:
        Pipeline(_config(paths, toxicity_backend="mock", mock_toxicity_value=value), tmp_path / "run")
    assert err.value.exit_code == 2
    assert "mock_toxicity_value" in str(err.value)


def test_mock_toxicity_value_is_checked_only_for_the_mock_backend(tmp_path):
    paths = _small_bundle(tmp_path)
    Pipeline(_config(paths, mock_toxicity_value=1.5), tmp_path / "run")


@pytest.mark.parametrize("backend", ["file", "none", "mock"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.5"])
def test_a_mock_toxicity_value_that_is_not_a_finite_number_is_a_config_error_for_every_backend(
    tmp_path, backend, value,
):
    # the config hash holds the value whichever backend runs, and its JSON has no NaN
    paths = _small_bundle(tmp_path)
    with pytest.raises(PipelineError) as err:
        Pipeline(_config(paths, toxicity_backend=backend, mock_toxicity_value=value), tmp_path / "run")
    assert err.value.stage == "config"
    assert err.value.exit_code == 2
    assert "mock_toxicity_value" in str(err.value)
    assert not (tmp_path / "run").exists()


# -- degenerate corpora -------------------------------------------------------------

def _degenerate_run(tmp_path, rows, **config_overrides):
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, rows)
    kwargs = dict(tweets=str(tweets), use_baseline_topics=True, K=20,
                  toxicity_backend="mock", seed=1)
    kwargs.update(config_overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_pipeline(RunConfig(**kwargs), tmp_path / "run")


def test_single_profile_corpus_completes(tmp_path):
    rows = [
        tweet_row(f"t{i}", "only", text=f"this profile talks about topic {i} with enough tokens here",
                  ts=BASE_TS + i * 3600)
        for i in range(12)
    ]
    report = _degenerate_run(tmp_path, rows)
    assert sum(report["group_sizes"].values()) == 1
    assert report["ingest_stats"]["kept_profiles"] == 1


def test_all_duplicate_tweets_complete_with_warnings(tmp_path):
    text = "identical text repeated again and again with many tokens inside"
    rows = [tweet_row(f"t{i}", "dup", text=text, ts=BASE_TS + i * 60) for i in range(15)]
    report = _degenerate_run(tmp_path, rows)
    assert report["ingest_stats"]["kept_profiles"] == 1
    # one unique tweet -> trained classifier impossible; recorded as warning
    assert any("classifier skipped" in w for w in report["warnings"])


def test_zero_hashtags_completes(tmp_path):
    rows = [
        tweet_row(f"t{i}", "plain", text=f"this tweet number {i} has absolutely no hashtags at all",
                  ts=BASE_TS + i * 3600)
        for i in range(12)
    ]
    report = _degenerate_run(tmp_path, rows)
    assert report["group_sizes"]
    metrics_file = (tmp_path / "run" / "metrics" / "metrics.jsonl").read_text().splitlines()[1:]
    rows_json = [json.loads(line) for line in metrics_file]
    assert all(r["total_hashtags"] == 0 for r in rows_json)


def test_missing_toxicity_scores_complete_with_warnings(tmp_path):
    rows = [
        tweet_row(f"t{i}", "unscored", text=f"some tweet {i} that was never sent to the scorer",
                  ts=BASE_TS + i * 3600)
        for i in range(12)
    ]
    report = _degenerate_run(tmp_path, rows, toxicity_backend="none")
    assert any("no toxicity score" in w for w in report["warnings"])
    assert any("toxicity metrics are null" in w for w in report["warnings"])


def test_empty_detect_group_warns(tmp_path):
    paths = _small_bundle(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_pipeline(_config(paths, detect_group="II"), tmp_path / "run")
    assert any("is empty" in w for w in report["warnings"])


# -- plot exports --------------------------------------------------------------------

@pytest.fixture()
def plot_dir(tmp_path):
    paths = _small_bundle(tmp_path)
    run_pipeline(_config(paths), tmp_path / "run")
    return tmp_path / "run" / "report" / "plots"


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_boxplot_csv_schema(plot_dir):
    header, rows = _read_csv(plot_dir / "fig_toxicity_median_box.csv")
    assert header == ["group", "min", "q1", "median", "q3", "max"]
    for row in rows:
        values = [float(v) for v in row[1:]]
        assert values == sorted(values)  # five-number summary is ordered


def test_cdf_csv_sorted(plot_dir):
    for name in ("fig_entropy_cdf.csv", "fig_burstiness_cdf.csv", "fig_tweets_cdf.csv"):
        header, rows = _read_csv(plot_dir / name)
        by_group = {}
        for group, value in rows:
            by_group.setdefault(group, []).append(float(value))
        for values in by_group.values():
            assert values == sorted(values)


def test_time_delta_hist_counts_match_metrics(tmp_path):
    paths = _small_bundle(tmp_path)
    out = tmp_path / "run"
    run_pipeline(_config(paths), out)
    header, rows = _read_csv(out / "report" / "plots" / "fig_time_delta_hist.csv")
    total_hist = sum(int(r[2]) for r in rows)
    metrics_lines = (out / "metrics" / "metrics.jsonl").read_text().splitlines()[1:]
    expected = 0
    grouped = json.loads((out / "group" / "groups.json").read_text())["groups"]
    grouped_ids = {pid for members in grouped.values() for pid in members}
    for line in metrics_lines:
        row = json.loads(line)
        if row["profile_id"] in grouped_ids:
            expected += row["n_tweets"] - 1
    assert total_hist == expected


def test_report_tables_and_plot_rows_match_a_recomputation_from_the_runs_files(tmp_path):
    """Every figure CSV row and the report's lexical, profile and designation
    tables, recomputed from metrics.jsonl, groups.json, designations.json and
    the input corpus: exact, but for the boxplot quartiles, which a linear
    interpolation of the sorted values gives to within float rounding."""
    paths = _small_bundle(tmp_path)
    out = tmp_path / "run"
    run_pipeline(_config(paths), out)
    metric_lines = (out / "metrics" / "metrics.jsonl").read_text().splitlines()[1:]
    by_id = {row["profile_id"]: row for row in map(json.loads, metric_lines)}
    groups = json.loads((out / "group" / "groups.json").read_text())
    partition, entropy = groups["groups"], groups["entropy"]
    designations = json.loads((out / "detect" / "designations.json").read_text())["designations"]
    corpus = ingest.load_timelines(paths["tweets"], paths["profiles"])
    report = json.loads((out / "report" / "report.json").read_text())
    names = ["I", "II", "III", "IV", "V", "VI", "VII", "VIII"]

    def values(group, key):
        return [by_id[p][key] for p in partition[group] if by_id[p][key] is not None]

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    expected = {"fig_entropy_cdf.csv": [[g, repr(h)] for g in names for h in sorted(entropy[p] for p in partition[g])]}
    boxes = {"fig_toxicity_median_box.csv": "toxicity_median", "fig_toxicity_gini_box.csv": "toxicity_gini"}
    for name, key in [
        ("fig_tweets_cdf.csv", "n_tweets"), ("fig_unique_tweets_cdf.csv", "n_unique"),
        ("fig_hashtags_total_cdf.csv", "total_hashtags"), ("fig_hashtags_unique_cdf.csv", "unique_hashtags"),
        ("fig_hashtags_ratio_cdf.csv", "hashtags_per_tweet"), ("fig_burstiness_cdf.csv", "burstiness"),
    ]:
        expected[name] = [[g, repr(float(v))] for g in names for v in sorted(values(g, key))]
    gap_hist, year_bars = [], []
    for g in names:
        gaps, years = Counter(), Counter(values(g, "creation_year"))
        for hist in values(g, "delta_days_hist"):
            gaps.update({int(gap): n for gap, n in hist.items()})
        gap_hist += [[g, str(gap), str(n)] for gap, n in sorted(gaps.items())]
        year_bars += [[g, str(year), str(n)] for year, n in sorted(years.items())]
    expected["fig_time_delta_hist.csv"] = gap_hist
    expected["fig_profile_age_bars.csv"] = year_bars
    expected["fig_top3_gaps_cdf.csv"] = [list(row) for row in sorted(
        (d["label"], repr(float(d["evidence"]["top3_gaps"][0])), repr(float(d["evidence"]["top3_gaps"][1])))
        for d in designations if d["evidence"].get("top3_gaps")
    )]
    assert sorted([*expected, *boxes]) == sorted(pipeline.PLOTS)
    for name, rows in expected.items():
        assert rows, name
        assert _read_csv(out / "report" / "plots" / name)[1] == rows, name
    for name, key in boxes.items():
        rows = _read_csv(out / "report" / "plots" / name)[1]
        assert rows and [row[0] for row in rows] == [g for g in names if values(g, key)]
        for group, *quartiles in rows:
            oracle = [_linear_percentile(values(group, key), p) for p in (0, 25, 50, 75, 100)]
            assert [float(q) for q in quartiles] == pytest.approx(oracle, rel=1e-12, abs=1e-15), (name, group)

    compared = names[1:]  # group I is left out of the comparative tables
    assert report["lexical_table"] == {
        g: {**{key: mean(values(g, key)) for key in LEXICAL_KEYS}, "n_profiles": len(partition[g])} for g in compared
    }
    profile_table = {}
    for g in compared:
        metas = [corpus.profiles[p].metadata for p in partition[g] if corpus.profiles[p].metadata]
        row = profile_table[g] = {"n_profiles": len(partition[g])}
        if metas:
            for key in ("followers", "following", "listed", "statuses", "favourites"):
                row[key] = mean([getattr(m, key) for m in metas])
            for key in ("protected", "verified", "has_location"):
                row[f"pct_{key}"] = 100.0 * sum(getattr(m, key) for m in metas) / len(metas)
            row["followers_following_ratio"] = row["followers"] / row["following"] if row["following"] else None
    assert report["profile_table"] == profile_table
    labels = [d["label"] for d in designations]
    assert report["designation_counts"] == {label: labels.count(label) for label in ("on_mission", "not_on_mission")}


def test_outputs_embed_config_hash(tmp_path):
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    out = tmp_path / "run"
    report = run_pipeline(config, out)
    h = config.config_hash()
    assert report["config_hash"] == h
    designations = json.loads((out / "detect" / "designations.json").read_text())
    assert designations["config_hash"] == h
    model = json.loads((out / "classify" / "model_linear_svm.json").read_text())
    assert model["config_hash"] == h
    first_line = (out / "report" / "plots" / "fig_entropy_cdf.csv").read_text().splitlines()[0]
    assert h in first_line


# -- the benchmark's hook points ---------------------------------------------------------

def test_the_benchmark_tracer_finds_every_function_it_wraps():
    """perfbench/tracer.py wraps module-level functions and Pipeline methods
    by name; a renamed one fails its install."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    result = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Recorder())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


# -- in-memory hand-off ----------------------------------------------------------------

# the parsers of the user files a run hands on without a copy
_PARSERS = ("load_timelines", "load_tpvs", "load_score_source")


def _count_loads(monkeypatch) -> Counter:
    """Count calls of the user-file parsers, of the score-cache loader and
    of the metric battery."""
    calls: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "load_timelines", counting("load_timelines", ingest.load_timelines))
    monkeypatch.setattr(topics, "load_tpvs", counting("load_tpvs", topics.load_tpvs))
    monkeypatch.setattr(scores, "load_score_source", counting("load_score_source", scores.load_score_source))
    cache_load = scores.ScoreCache.__dict__["load"].__func__
    monkeypatch.setattr(scores.ScoreCache, "load", classmethod(counting("cache_load", cache_load)))
    monkeypatch.setattr(
        metrics, "compute_metric_bundle", counting("compute_metric_bundle", metrics.compute_metric_bundle)
    )
    return calls


def test_cold_run_reads_inputs_once_and_warm_rerun_loads_nothing(tmp_path, monkeypatch):
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    calls = _count_loads(monkeypatch)
    report = run_pipeline(config, tmp_path / "run")
    # each input is parsed once; the toxicity file is in the cache format
    assert calls == Counter(
        compute_metric_bundle=report["ingest_stats"]["kept_profiles"],
        load_timelines=1, load_tpvs=1, load_score_source=1, cache_load=1,
    )
    calls.clear()
    assert run_pipeline(config, tmp_path / "run") == report
    assert not calls


def test_rerun_rebuilds_a_deleted_output_byte_identically(tmp_path, monkeypatch):
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    out = tmp_path / "run"
    run_pipeline(config, out)
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    calls = _count_loads(monkeypatch)
    # each deleted file, and the user files its stage parses again after the earlier stages' hits
    for rel, parsed in (
        ("features/features.jsonl", {"load_timelines", "load_tpvs"}),
        ("metrics/metrics.jsonl", {"load_timelines", "load_score_source"}),
        ("topics/aggregates.json", {"load_timelines", "load_tpvs", "load_score_source"}),
        ("group/groups.json", {"load_timelines", "load_tpvs"}),
        ("detect/designations.json", {"load_timelines", "load_tpvs"}),
        ("classify/wild.json", set()),
        ("report/report.json", {"load_timelines"}),
        ("report/plots/fig_entropy_cdf.csv", {"load_timelines"}),
    ):
        (out / rel).unlink()
        calls.clear()
        run_pipeline(config, out)
        after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before, rel
        assert {name: calls[name] for name in _PARSERS if calls[name]} == dict.fromkeys(parsed, 1), rel
        if rel.startswith("features/"):
            # rebuilt from metrics.jsonl: no metric bundle is computed again
            assert calls["compute_metric_bundle"] == 0


def test_a_baseline_topics_run_rebuilds_its_designations_byte_identically(tmp_path):
    # the rerun reads the baseline vectors back from tpvs.jsonl; the cold run handed on the same values
    paths = _small_bundle(tmp_path)
    config = _config(paths, tpvs=None, use_baseline_topics=True)
    out = tmp_path / "run"
    run_pipeline(config, out)
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert Path("topics/tpvs.jsonl") in before
    (out / "detect" / "designations.json").unlink()
    run_pipeline(config, out)
    assert {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_a_run_writes_no_copy_of_a_user_file(tmp_path):
    paths = _small_bundle(tmp_path)
    bots = tmp_path / "bots.csv"
    bots.write_text("".join(f"{row.split(',')[0]},0.3,0.1\n" for row in paths["labels"].read_text().splitlines()[1:]))
    copies = ("ingest/corpus.bin", "topics/tpvs.jsonl", "score/toxicity_cache.jsonl", "score/bot_cache.jsonl")
    run_pipeline(_config(paths, bot_backend="file", bot_path=str(bots)), tmp_path / "files")
    assert [rel for rel in copies if (tmp_path / "files" / rel).exists()] == []
    # computed values are written: baseline vectors and the scores of the mock backends
    computed = _config(paths, tpvs=None, use_baseline_topics=True, toxicity_backend="mock", bot_backend="mock")
    report = run_pipeline(computed, tmp_path / "computed")
    assert [rel for rel in copies if (tmp_path / "computed" / rel).exists()] == list(copies[1:])
    assert report["botometer_table"]


def test_every_file_a_stage_writes_is_a_manifest_output(tmp_path):
    paths = _small_bundle(tmp_path)
    out = tmp_path / "run"
    run_pipeline(_config(paths), out)
    for stage in pipeline.STAGES:
        d = out / stage
        written = sorted(p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file())
        written.remove("manifest.json")
        assert written == json.loads((d / "manifest.json").read_text(encoding="utf-8"))["outputs"], stage


def test_classify_takes_its_evaluation_and_models_from_the_ablations_fits(tmp_path, monkeypatch):
    # the ablation fits its twelve cells in one pass of classifier._fit
    fits = []
    real_fit = classifier._fit
    monkeypatch.setattr(
        classifier, "_fit", lambda X, y, seed, groups, kinds, config: fits.append((tuple(groups), tuple(kinds)))
        or real_fit(X, y, seed, groups, kinds, config),
    )
    paths = _small_bundle(tmp_path)
    out = tmp_path / "run"
    run_pipeline(_config(paths), out)
    evaluation = json.loads((out / "classify" / "eval.json").read_text(encoding="utf-8"))
    ablation = json.loads((out / "classify" / "ablation.json").read_text(encoding="utf-8"))
    assert evaluation["models"] == ablation["table"]["all"]
    labels = pipeline.load_labels_csv(paths["labels"])
    ids, _, _ = features.load_features(out / "features" / "features.jsonl")
    labeled = [p for p in ids if p in labels]
    assert len(labeled) >= 5
    assert evaluation["n_train"] + evaluation["n_test"] == len(labeled)
    assert fits == [(("content", "auxiliary", "activity_profile", "all"), classifier.MODEL_KINDS)]


def test_skipped_classify_removes_an_earlier_runs_models(tmp_path):
    paths = _small_bundle(tmp_path)
    labels = tmp_path / "labels.csv"
    labels.write_text(Path(paths["labels"]).read_text(encoding="utf-8"), encoding="utf-8")
    config = _config(paths, labels=str(labels))
    out = tmp_path / "run"
    first = run_pipeline(config, out)
    assert first["eval"] and sorted(p.name for p in (out / "classify").glob("model_*.json"))
    # same out dir, same config, labels of one class: classify reruns and skips
    ids = [row.split(",")[0] for row in labels.read_text(encoding="utf-8").splitlines()[1:]]
    labels.write_text("profile_id,label\n" + "".join(f"{pid},genuine\n" for pid in ids), encoding="utf-8")
    with pytest.warns(UserWarning, match="classifier skipped"):
        report = run_pipeline(config, out)
    assert any("classifier skipped" in w for w in report["warnings"])
    assert not list((out / "classify").glob("model_*.json"))
    assert report["eval"] == {}


_PRODUCED = {
    "catalog": "topics/catalog.tsv",
    "aggregates": "topics/aggregates.json",
    "groups": "group/groups.json",
    "metrics": "metrics/metrics.jsonl",
    "detect": "detect/designations.json",
    "features": "features/features.jsonl",
    "classify_eval": "classify/eval.json",
    "classify_ablation": "classify/ablation.json",
    "classify_wild": "classify/wild.json",
    "classify_model_svm": "classify/model_linear_svm.json",
    "classify_model_tree": "classify/model_decision_tree.json",
    "classify_model_forest": "classify/model_random_forest.json",
}


def _assert_manifests_match_disk(out, paths):
    """Every digest a manifest records is the sha256 of that file as it is now."""
    given = {
        "tweets": paths["tweets"], "profiles": paths["profiles"], "tpvs": paths["tpvs"],
        "toxicity_source": paths["toxicity"], "labels": paths["labels"],
    }
    manifests = sorted(out.glob("*/manifest.json"))
    assert len(manifests) == len(pipeline.STAGES)
    for manifest_path in manifests:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for name, digest in manifest["inputs"].items():
            path = given.get(name) or out / _PRODUCED[name]
            assert digest == sha256_file(path), (manifest["stage"], name)
        assert sorted(manifest["output_hashes"]) == manifest["outputs"]
        for name, digest in manifest["output_hashes"].items():
            assert digest == sha256_file(manifest_path.parent / name), (manifest["stage"], name)


def _count_cache_hits(monkeypatch) -> list[bool]:
    hits: list[bool] = []
    cached = Pipeline._cached

    def counting(self, stage, inputs):
        hits.append(cached(self, stage, inputs))
        return hits[-1]

    monkeypatch.setattr(Pipeline, "_cached", counting)
    return hits


def test_a_run_hashes_each_file_once_and_the_next_run_hashes_them_again(tmp_path, monkeypatch):
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    out = tmp_path / "run"
    run_pipeline(config, out)
    seen: list[Path] = []
    real = pipeline.sha256_file
    monkeypatch.setattr(pipeline, "sha256_file", lambda path: seen.append(Path(path)) or real(path))
    hits = _count_cache_hits(monkeypatch)
    pipe = Pipeline(config, out)
    pipe.run()
    assert hits == [True] * len(pipeline.STAGES)
    # each config input and each stage output is read once, the latter to verify it
    expected = {Path(paths[k]).resolve() for k in ("tweets", "profiles", "tpvs", "toxicity", "labels")}
    for manifest_path in out.glob("*/manifest.json"):
        outputs = json.loads(manifest_path.read_text(encoding="utf-8"))["outputs"]
        expected.update((manifest_path.parent / name).resolve() for name in outputs)
    assert sorted(seen) == sorted(expected)
    first = list(seen)
    seen.clear()
    pipe.run()
    assert seen == first


def test_rebuilt_output_hands_later_stages_its_new_digest(tmp_path, monkeypatch):
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    out = tmp_path / "run"
    run_pipeline(config, out)
    (out / "metrics" / "metrics.jsonl").unlink()
    (out / "group" / "groups.json").unlink()
    calls = _count_loads(monkeypatch)
    run_pipeline(config, out)
    # both rebuilt stages take the corpus, which is parsed once
    assert {name: calls[name] for name in _PARSERS if calls[name]} == dict.fromkeys(_PARSERS, 1)
    hits = _count_cache_hits(monkeypatch)
    run_pipeline(config, out)
    assert hits == [True] * len(pipeline.STAGES)
    _assert_manifests_match_disk(out, paths)


def test_corrupted_outputs_are_rebuilt_not_reused(tmp_path):
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    out = tmp_path / "run"
    run_pipeline(config, out)
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    metric_rows = out / "metrics" / "metrics.jsonl"
    metric_rows.write_bytes(metric_rows.read_bytes()[: metric_rows.stat().st_size // 2])
    report = bytearray((out / "report" / "report.json").read_bytes())
    report[len(report) // 2] ^= 0x01
    (out / "report" / "report.json").write_bytes(bytes(report))
    run_pipeline(config, out)
    after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert after == before
    _assert_manifests_match_disk(out, paths)


def test_manifest_without_output_digests_is_a_miss(tmp_path, monkeypatch):
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    out = tmp_path / "run"
    run_pipeline(config, out)
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    manifest_path = out / "metrics" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["output_hashes"]  # as written before manifests recorded them
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    hits = _count_cache_hits(monkeypatch)
    run_pipeline(config, out)
    assert hits[pipeline.STAGES.index("metrics")] is False
    assert sum(hits) == len(pipeline.STAGES) - 1
    assert {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("damage", [
    pytest.param(lambda data: data[:40], id="cut-short"),
    pytest.param(lambda data: b"[]", id="not-an-object"),
    pytest.param(lambda data: b"\xff" + data, id="not-utf8"),
])
def test_an_unreadable_manifest_is_a_miss(tmp_path, monkeypatch, damage):
    # a manifest cut short, as a killed write leaves it, used to stop every later run with a JSONDecodeError
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    out = tmp_path / "run"
    run_pipeline(config, out)
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    manifest_path = out / "detect" / "manifest.json"
    manifest_path.write_bytes(damage(manifest_path.read_bytes()))
    hits = _count_cache_hits(monkeypatch)
    run_pipeline(config, out)
    assert hits[pipeline.STAGES.index("detect")] is False
    assert sum(hits) == len(pipeline.STAGES) - 1
    assert {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_a_manifest_listing_a_file_its_stage_no_longer_declares_is_a_miss_that_deletes_it(tmp_path, monkeypatch):
    # an out dir of earlier code: ingest wrote corpus.bin and its manifest lists it, digest and all
    paths = _small_bundle(tmp_path)
    config = _config(paths)
    out = tmp_path / "run"
    run_pipeline(config, out)
    (out / "keep.txt").write_text("not the stage's", encoding="utf-8")
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    corpus_bin = out / "ingest" / "corpus.bin"
    ingest.save_corpus(ingest.load_timelines(paths["tweets"], paths["profiles"]), corpus_bin)
    manifest_path = out / "ingest" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["outputs"] = ["../keep.txt", "corpus.bin"]  # a name outside the stage dir is never deleted
    manifest["output_hashes"] = {name: sha256_file(out / "ingest" / name) for name in manifest["outputs"]}
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    hits = _count_cache_hits(monkeypatch)
    run_pipeline(config, out)
    assert hits[pipeline.STAGES.index("ingest")] is False
    assert sum(hits) == len(pipeline.STAGES) - 1
    assert not corpus_bin.exists()
    assert {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_malformed_profile_lines_are_counted_and_warned_about(tmp_path):
    paths = _small_bundle(tmp_path)
    with open(paths["profiles"], "a", encoding="utf-8") as fh:
        fh.write('{"profile_id": "x", "followers": 1e999}\n')
    with pytest.warns(UserWarning, match="ingest: 1 malformed profile metadata lines were skipped"):
        report = run_pipeline(_config(paths), tmp_path / "run")
    assert report["ingest_stats"]["malformed_profile_lines"] == 1
    assert "ingest: 1 malformed profile metadata lines were skipped" in report["warnings"]
    manifest = json.loads((tmp_path / "run" / "ingest" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stats"]["malformed_profile_lines"] == 1
    assert manifest["warnings"] == ["ingest: 1 malformed profile metadata lines were skipped"]


@pytest.mark.parametrize("field,value", [
    pytest.param("followers", str(10**400), id="followers-10**400"),
    pytest.param("description_len", str(10**400), id="description_len-10**400"),
    ("friends_ids", '"12345"'),
])
def test_a_later_malformed_line_for_a_profile_is_skipped_and_the_run_completes(tmp_path, field, value):
    # a count too large for a float used to kill the metrics or features stage with an OverflowError
    paths = _small_bundle(tmp_path)
    profile_id = json.loads(Path(paths["profiles"]).read_text(encoding="utf-8").splitlines()[0])["profile_id"]
    with open(paths["profiles"], "a", encoding="utf-8") as fh:
        fh.write(f'{{"profile_id": "{profile_id}", "{field}": {value}}}\n')
    with pytest.warns(UserWarning, match="ingest: 1 malformed profile metadata lines were skipped"):
        report = run_pipeline(_config(paths), tmp_path / "run")
    assert report["ingest_stats"]["malformed_profile_lines"] == 1


def test_rebuilt_report_keeps_the_warnings_of_cached_stages(tmp_path):
    paths = _small_bundle(tmp_path)
    tox = Path(paths["toxicity"])
    lines = tox.read_text(encoding="utf-8").splitlines(keepends=True)
    tox.write_text("".join(lines[:1] + lines[21:]), encoding="utf-8")  # header kept, 20 scores left out
    config = _config(paths)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cold = run_pipeline(config, out)
    assert "score: 20 tweets have no toxicity score" in cold["warnings"]
    first = (out / "report" / "report.json").read_bytes()
    (out / "report" / "report.json").unlink()
    assert run_pipeline(config, out) == cold
    assert (out / "report" / "report.json").read_bytes() == first
    manifest = json.loads((out / "score" / "manifest.json").read_text())
    assert manifest["warnings"] == ["score: 20 tweets have no toxicity score"]
    assert "warnings" not in json.loads((out / "ingest" / "manifest.json").read_text())
