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
    ):
        (out / rel).unlink()
        calls.clear()
        run_pipeline(config, out)
        after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before, rel
        if rel.startswith("features/"):
            # rebuilt from metrics.jsonl: no metric bundle is computed again
            assert calls["compute_metric_bundle"] == 0
