"""The repository's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload many_profiles --seed 1 --seconds 50 --trace 0

It writes the workload's seeded inputs under .perfbench_work/ in the
checkout, then runs the pipeline closed-loop, one fresh process at a
time (perfbench/child.py), until --seconds have passed: each process
times its set-up, one cold run into a fresh out dir and repeated warm
reruns into the same dir. Before each of them, set-up-only processes
time set-up alone. Every run's outputs are checked; a run that
raises or fails a check counts as failed.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced runs with traced ones and holds the
per-layer metrics instead. A human-readable summary comes first; the last
line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 3  # set-up only processes before each pipeline run, on top of its own set-up
RERUNS = 20  # warm reruns per untraced process
MIN_RUNS = 2  # two cold runs at least, so their artifact bytes can be compared
CHILD_TIMEOUT_S = 150
# the acceptance criterion 8 artifact set: byte-identical across repeated runs
CRITERION_8 = (
    "report/report.json",
    "classify/model_linear_svm.json",
    "classify/model_decision_tree.json",
    "classify/model_random_forest.json",
)


class BenchError(Exception):
    """The harness itself could not run; no result is printed."""


class Runner:
    """Starts the workload's processes in one run directory and stops them."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(run_dir / "tmp")}
        (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
        self.procs: list[subprocess.Popen] = []
        # every process runs on one CPU, so a run never migrates mid-way
        self.cpu = max(os.sched_getaffinity(0))

    def popen(self, cmd: list[str], stderr_name: str) -> subprocess.Popen:
        with open(self.run_dir / stderr_name, "w") as err:
            proc = subprocess.Popen(
                cmd, cwd=self.run_dir, env=self.env, stdout=subprocess.PIPE, stderr=err, text=True,
            )
        self.procs.append(proc)
        os.sched_setaffinity(proc.pid, {self.cpu})
        return proc

    def child(self, index: int, *, setup_only: bool = False, spans: str | None = None) -> dict:
        """One fresh interpreter; returns its set-up time and result (or error)."""
        cmd = [sys.executable, str(HERE / "child.py"), "--out", f"runs/{index}"]
        if setup_only:
            cmd.append("--setup-only")
        elif spans:
            cmd += ["--reruns", "1", "--spans", spans]
        else:
            cmd += ["--reruns", str(RERUNS)]
        start = time.perf_counter()
        proc = self.popen(cmd, f"child{index}.err")
        ready = proc.stdout.readline().strip()
        setup_s = time.perf_counter() - start
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"index": index, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        if ready != "ready" or proc.returncode != 0:
            err = (self.run_dir / f"child{index}.err").read_text(errors="replace").strip().splitlines()
            return {"index": index, "error": f"exit {proc.returncode}: {err[-1] if err else ready}"}
        result = {} if setup_only else json.loads(out.strip().splitlines()[-1])
        return {"index": index, "setup_s": setup_s, "traced": bool(spans), **result}

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            if proc.stdout:
                proc.stdout.close()


# -- output checks ----------------------------------------------------------------


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for rel in CRITERION_8:
        data = (out / rel).read_bytes() if (out / rel).exists() else b"(absent)"
        h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def check_outputs(out: Path, wl, result: dict) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct."""
    from mission_profiler.pipeline import STAGES

    problems = []
    if not result.get("rerun_matches", False):
        problems.append("a warm rerun returned a different report")
    report = json.loads((out / "report/report.json").read_text())
    stats = report["ingest_stats"]
    accounted = stats["blank"] + stats["malformed"] + stats["duplicates"] + stats["dropped_short"] + stats["kept_tweets"]
    if accounted != stats["lines_total"] or stats["lines_total"] != wl.n_tweets:
        problems.append(f"ingest stats not conserved: {stats}")
    if (stats["kept_tweets"], stats["kept_profiles"]) != (wl.n_tweets, wl.n_profiles):
        problems.append(f"ingest kept {stats['kept_profiles']} profiles / {stats['kept_tweets']} tweets")

    groups_data = json.loads((out / "group/groups.json").read_text())
    grouped = [p for members in groups_data["groups"].values() for p in members]
    if len(grouped) != len(set(grouped)) or set(grouped) != set(groups_data["entropy"]):
        problems.append("a grouped profile is not in exactly one group")

    detect = json.loads((out / "detect/designations.json").read_text())
    designated = sorted(d["profile_id"] for d in detect["designations"])
    if designated != sorted(groups_data["groups"].get(wl.config["detect_group"], [])):
        problems.append("designations do not cover the detect group exactly")

    evals = json.loads((out / "classify/eval.json").read_text())
    if "models" not in evals:
        problems.append(f"classifier skipped: {evals.get('skipped')}")

    if result.get("traced"):
        hits = result["counters"]["rerun"]["pipeline.cache_hits"]["amount"]
        if hits != len(STAGES):
            problems.append(f"traced rerun hit the cache in {hits} stages")
    return problems


def f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


def quality(out: Path, wl) -> dict[str, float]:
    """Designations against synth ground truth over the detect group, and
    the held-out F1 of two classifiers from eval.json."""
    detect = json.loads((out / "detect/designations.json").read_text())
    tp = fp = fn = 0
    for d in detect["designations"]:
        predicted = d["label"] == "on_mission"
        actual = wl.labels[d["profile_id"]] == "on_mission"
        tp += predicted and actual
        fp += predicted and not actual
        fn += actual and not predicted
    models = json.loads((out / "classify/eval.json").read_text())["models"]
    return {
        "detector.detect_f1": f1(tp, fp, fn),
        "classifier.svm_f1": models["linear_svm"]["f1"],
        "classifier.forest_f1": models["random_forest"]["f1"],
    }


# -- per-layer metrics from a traced run ---------------------------------------------


def layer_metrics(result: dict, spans_path: Path, out: Path) -> dict[str, float]:
    from mission_profiler.pipeline import STAGES

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    cold = [s for s in spans if s["phase"] == "cold"]

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in cold if s["name"] == name)

    def calls(name: str) -> int:
        return sum(1 for s in cold if s["name"] == name)

    counters, rerun = result["counters"]["cold"], result["counters"]["rerun"]
    run_span = next(s for s in cold if s["name"] == "pipeline.run")
    run_s = run_span["end"] - run_span["start"]
    kept_profiles = json.loads((out / "report/report.json").read_text())["ingest_stats"]["kept_profiles"]
    syllables = counters["readability.count_syllables"]
    m = {f"pipeline.stage_{stage}_s": total(f"pipeline.stage_{stage}") for stage in STAGES}
    m.update({
        "pipeline.rerun_cache_hits": rerun["pipeline.cache_hits"]["amount"],
        "pipeline.run_self_s": run_span["self_s"],
        "pipeline.stage_share": sum(m.values()) / run_s,
        "util.sha256_file_s": rerun["util.sha256_file"]["seconds"],
        "util.sha256_file_bytes": rerun["util.sha256_file"]["amount"],
        "ingest.load_timelines_s": total("ingest.load_timelines"),
        "ingest.normalize_tweet_s": counters["ingest.normalize_tweet"]["seconds"],
        "ingest.normalize_tweet_calls": counters["ingest.normalize_tweet"]["calls"],
        "ingest.save_corpus_s": total("ingest.save_corpus"),
        "ingest.load_corpus_s": total("ingest.load_corpus"),
        "ingest.load_corpus_calls": calls("ingest.load_corpus"),
        "scores.cache_load_s": total("scores.cache_load"),
        "scores.cache_load_calls": calls("scores.cache_load"),
        "scores.cache_save_s": total("scores.cache_save"),
        "topics.load_tpvs_s": total("topics.load_tpvs"),
        "topics.load_tpvs_calls": calls("topics.load_tpvs"),
        "topics.topic_aggregates_s": total("topics.topic_aggregates"),
        "diversity.diversity_profile_s": counters["diversity.diversity_profile"]["seconds"],
        "metrics.compute_metric_bundle_s": counters["metrics.compute_metric_bundle"]["seconds"],
        "metrics.compute_metric_bundle_calls": counters["metrics.compute_metric_bundle"]["calls"],
        "metrics.bundles_per_profile": counters["metrics.compute_metric_bundle"]["calls"] / kept_profiles,
        "readability.readability_metrics_s": counters["readability.readability_metrics"]["seconds"],
        "readability.count_syllables_calls": syllables["calls"],
        "readability.distinct_words": syllables["amount"],
        "readability.syllable_calls_per_word": syllables["calls"] / max(syllables["amount"], 1),
        "detector.detect_clusters_s": total("detector.detect_clusters"),
        "detector.overlap_evidence_s": total("detector.overlap_evidence"),
        "detector.max_cluster_size": max(
            (c["size"] for c in json.loads((out / "detect/designations.json").read_text())["clusters"]), default=0
        ),
        "features.extract_features_s": counters["features.extract_features"]["seconds"],
        "classifier.train_linear_svm_s": total("classifier.train_linear_svm"),
        "classifier.train_decision_tree_s": total("classifier.train_decision_tree"),
        "classifier.train_random_forest_s": total("classifier.train_random_forest"),
        "classifier.ablation_s": total("classifier.ablation"),
        "classifier.flag_in_wild_s": total("classifier.flag_in_wild"),
        "classifier.models_trained": sum(calls(f"classifier.train_{k}") for k in ("linear_svm", "decision_tree", "random_forest")),
        "classifier.tree_nodes": tree_nodes(out),
        "trace.run_s": run_s,
    })
    return m


def tree_nodes(out: Path) -> int:
    """Internal nodes of the saved tree and forest: one split search each."""
    def count(node: dict) -> int:
        return 0 if node["leaf"] else 1 + count(node["left"]) + count(node["right"])

    tree = json.loads((out / "classify/model_decision_tree.json").read_text())["parameters"]
    forest = json.loads((out / "classify/model_random_forest.json").read_text())["parameters"]
    return count(tree["root"]) + sum(count(t["root"]) for t in forest["trees"])


def top_self_times(spans_path: Path, n: int = 8) -> list[tuple[str, float]]:
    totals: dict[str, float] = {}
    for line in spans_path.read_text().splitlines():
        span = json.loads(line)
        if span["phase"] == "cold":
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["self_s"]
    return sorted(totals.items(), key=lambda kv: -kv[1])[:n]


# -- measuring ----------------------------------------------------------------------


def measure(args) -> tuple[dict, int, int]:
    import workloads

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = None
    try:
        wl = workloads.build(args.workload, args.seed, run_dir, scale=args.scale)
        runner = Runner(run_dir)

        setups = []
        runs = []
        index = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            # the probes sit between the pipeline runs, across the whole
            # window, so a slow moment of the machine touches few of them
            for _ in range(0 if args.trace else SETUP_PROBES):
                probe = runner.child(index, setup_only=True)
                if "error" in probe:
                    raise BenchError(f"set-up probe failed: {probe['error']}")
                setups.append(probe["setup_s"])
                shutil.rmtree(run_dir / f"runs/{index}", ignore_errors=True)
                index += 1
            traced = bool(args.trace) and len(runs) % 2 == 1
            spans = f"spans{index}.jsonl" if traced else None
            runs.append(runner.child(index, spans=spans))
            index += 1
            now = time.perf_counter()
            if len(runs) >= MIN_RUNS and now + (now - start) > deadline:
                break

        reference = None
        failed = 0
        for run in runs:
            out = run_dir / f"runs/{run['index']}"
            if "error" not in run:
                try:
                    problems = check_outputs(out, wl, run)
                except (OSError, KeyError, ValueError) as exc:
                    problems = [f"outputs unreadable: {exc!r}"]
                run["digest"] = artifact_digest(out)
                reference = reference or run["digest"]
                if run["digest"] != reference:
                    problems.append("criterion-8 artifacts differ from the first run's")
                if problems:
                    run["error"] = "; ".join(problems)
            if "error" in run:
                failed += 1
                print(f"run {run['index']} failed: {run['error']}")
        ok = [r for r in runs if "error" not in r]
        if not ok:
            raise BenchError("every run failed")
        first_out = run_dir / f"runs/{ok[0]['index']}"
        untraced = [r for r in ok if not r["traced"]]

        scores = quality(first_out, wl)
        print(f"workload {args.workload}, seed {args.seed}: {wl.n_profiles} profiles, {wl.n_tweets} tweets")
        print(f"criterion-8 artifact sha256 {reference}")
        print(f"  {'error_rate':<38} {failed / len(runs):12.6g}  ({failed} of {len(runs)} runs failed)")
        for name, value in scores.items():
            print(f"  {name:<38} {value:12.6g}")
        if not args.trace:
            setups += [r["setup_s"] for r in ok]
            reruns = [s for r in ok for s in r["rerun_s"]]
            samples = {
                "run_s": [r["run_s"] for r in ok],
                "rerun_s": reruns,
                "setup_s": setups,
                "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
            }
            metrics = {name: statistics.median(values) for name, values in samples.items()}
            for name, value in metrics.items():
                print(f"  {name:<38} {value:12.6g}  (median of {len(samples[name])}, max {max(samples[name]):.6g})")
            print("  run_s samples: " + " ".join(f"{v:.4g}" for v in samples["run_s"]))
            return metrics, len(runs), failed

        traced = [r for r in ok if r["traced"]]
        if not traced or not untraced:
            raise BenchError("trace mode needs one good untraced and one good traced run")
        per_run = [
            layer_metrics(r, run_dir / f"spans{r['index']}.jsonl", run_dir / f"runs/{r['index']}")
            for r in traced
        ]
        metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(r["run_s"] for r in untraced)
        metrics.update(scores)
        print(f"traced runs {len(traced)}, untraced runs {len(untraced)}")
        for name, value in metrics.items():
            if name not in scores:
                print(f"  {name:<38} {value:12.6g}")
        last_spans = run_dir / f"spans{traced[-1]['index']}.jsonl"
        print("  largest self times in the last traced cold run:")
        for name, self_s in top_self_times(last_spans):
            print(f"    {name:<36} {self_s:10.4f} s")
        kept = WORK / f"spans-{args.workload}.jsonl"
        shutil.copyfile(last_spans, kept)
        print(f"  its spans: {kept.relative_to(ROOT)}")
        return metrics, len(runs), failed
    finally:
        if runner is not None:
            runner.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the workload (smoke check)")
    args = parser.parse_args()
    # a terminated run still stops its processes and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mission_profiler").is_dir() or not spec_path.is_file():
        print(f"perfbench: {SRC}/mission_profiler or {spec_path} missing; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    try:
        metrics, attempted, failed = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
