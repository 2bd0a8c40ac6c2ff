"""Smoke check of the benchmark harness at a small size.

    python -m pytest -q perfbench/test_smoke.py

It runs every workload once untraced and once traced, and fails if a
workload or metric named here or in BENCHMARK.json is missing from the
output, so neither can be dropped silently. It also checks that the
benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = {"long_timelines", "many_profiles"}
END_TO_END = {"run_s", "rerun_s", "setup_s", "peak_rss_mb"}
PRINTED = {"error_rate", "detector.detect_f1", "classifier.svm_f1", "classifier.forest_f1"}
PER_LAYER = {
    *(f"pipeline.stage_{s}_s" for s in (
        "ingest", "score", "topics", "group", "metrics", "detect", "features", "classify", "report")),
    "pipeline.rerun_cache_hits", "util.sha256_file_s", "util.sha256_file_bytes",
    "ingest.load_timelines_s", "ingest.normalize_tweet_s", "ingest.normalize_tweet_calls",
    "ingest.save_corpus_s", "ingest.load_corpus_s", "ingest.load_corpus_calls",
    "scores.cache_load_s", "scores.cache_load_calls", "scores.cache_save_s", "topics.load_tpvs_s", "topics.load_tpvs_calls", "topics.topic_aggregates_s",
    "diversity.diversity_profile_s", "metrics.compute_metric_bundle_s",
    "metrics.compute_metric_bundle_calls", "metrics.bundles_per_profile",
    "readability.readability_metrics_s", "readability.count_syllables_calls",
    "readability.distinct_words", "readability.syllable_calls_per_word",
    "detector.detect_clusters_s", "detector.overlap_evidence_s", "detector.max_cluster_size",
    "features.extract_features_s", "classifier.train_linear_svm_s", "classifier.train_decision_tree_s",
    "classifier.train_random_forest_s", "classifier.ablation_s", "classifier.flag_in_wild_s",
    "classifier.models_trained", "classifier.tree_nodes", "trace.overhead_s",
    "detector.detect_f1", "classifier.svm_f1", "classifier.forest_f1",
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.5"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_names_every_workload_and_metric():
    assert {w["name"] for w in SPEC["workloads"]} == WORKLOADS
    assert END_TO_END <= {m["name"] for m in SPEC["end_to_end"]}
    assert PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert PRINTED <= printed
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["pipeline.rerun_cache_hits"] == 9
        assert metrics["classifier.models_trained"] == 15


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "many_profiles", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
