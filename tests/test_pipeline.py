import json
import warnings
from collections import Counter
from pathlib import Path

import pytest

from mission_profiler import ingest, metrics, pipeline, scores, topics
from mission_profiler.pipeline import (
    Pipeline,
    PipelineError,
    RunConfig,
    StaleCacheError,
    parse_tox_gate,
    run_pipeline,
)
from mission_profiler.synth import default_specs, generate, write_bundle
from mission_profiler.util import sha256_file

from conftest import tweet_row, write_tweet_lines, BASE_TS


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
    corpus_mtime = (out / "ingest" / "corpus.bin").stat().st_mtime_ns
    run_pipeline(config, out)
    assert (out / "report" / "report.json").read_bytes() == report_bytes
    # ingest output untouched on the second run
    assert (out / "ingest" / "corpus.bin").stat().st_mtime_ns == corpus_mtime


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
    (out / ".lock").write_text("123")
    with pytest.raises(PipelineError) as err:
        run_pipeline(_config(paths), out)
    assert err.value.stage == "lock"
    assert err.value.exit_code == 4


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


def test_unavailable_scorer_aborts_score_and_keeps_the_partial_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("MISSION_PROFILER_TOXICITY_URL", raising=False)
    paths = _small_bundle(tmp_path)
    out = tmp_path / "run"
    with pytest.raises(PipelineError) as err:
        run_pipeline(_config(paths, toxicity_backend="http"), out)
    assert err.value.stage == "score"
    assert err.value.exit_code == 11
    assert (out / "score" / "toxicity_cache.jsonl").exists()
    assert not (out / "score" / "manifest.json").exists()


def test_missing_input_is_config_error(tmp_path):
    with pytest.raises(PipelineError) as err:
        RunConfig(tweets=str(tmp_path / "nope.jsonl")).validate()
    assert err.value.stage == "config"
    assert err.value.exit_code == 2


def test_tox_gate_parsing():
    assert parse_tox_gate("p75") == ("percentile", 75.0)
    assert parse_tox_gate("abs:0.14") == ("absolute", 0.14)
    with pytest.raises(PipelineError):
        parse_tox_gate("banana")


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


# -- in-memory hand-off ----------------------------------------------------------------

def _count_loads(monkeypatch) -> Counter:
    """Count calls of the artifact loaders and of the metric battery."""
    calls: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (ingest, pipeline):
        monkeypatch.setattr(mod, "load_corpus", counting("load_corpus", ingest.load_corpus))
    monkeypatch.setattr(topics, "load_tpvs", counting("load_tpvs", topics.load_tpvs))
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
    # the input topic vectors and toxicity cache are each read once
    assert calls == Counter(
        compute_metric_bundle=report["ingest_stats"]["kept_profiles"], load_tpvs=1, cache_load=1
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
    for rel in (
        "features/features.jsonl", "metrics/metrics.jsonl", "topics/tpvs.jsonl", "group/groups.json",
        "detect/designations.json", "classify/wild.json", "report/report.json",
        "report/plots/fig_entropy_cdf.csv",
    ):
        (out / rel).unlink()
        calls.clear()
        run_pipeline(config, out)
        after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before, rel
        if rel.startswith("features/"):
            # rebuilt from metrics.jsonl: no metric bundle is computed again
            assert calls["compute_metric_bundle"] == 0


def test_every_file_a_stage_writes_is_a_manifest_output(tmp_path):
    paths = _small_bundle(tmp_path)
    out = tmp_path / "run"
    run_pipeline(_config(paths), out)
    for stage in pipeline.STAGES:
        d = out / stage
        written = sorted(p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file())
        written.remove("manifest.json")
        assert written == json.loads((d / "manifest.json").read_text(encoding="utf-8"))["outputs"], stage


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
    "corpus": "ingest/corpus.bin",
    "toxicity": "score/toxicity_cache.jsonl",
    "tpvs": "topics/tpvs.jsonl",
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
        "tweets": paths["tweets"], "profiles": paths["profiles"],
        "toxicity_source": paths["toxicity"], "labels": paths["labels"],
    }
    manifests = sorted(out.glob("*/manifest.json"))
    assert len(manifests) == len(pipeline.STAGES)
    for manifest_path in manifests:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for name, digest in manifest["inputs"].items():
            if manifest["stage"] == "topics" and name == "tpvs":
                path = paths["tpvs"]
            else:
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
    (out / "topics" / "tpvs.jsonl").unlink()
    run_pipeline(config, out)
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
    corpus = out / "ingest" / "corpus.bin"
    corpus.write_bytes(corpus.read_bytes()[: corpus.stat().st_size // 2])
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
