"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line. Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete."""
import json
import math
import random
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from mission_profiler.classifier import evaluate
from mission_profiler.detector import (
    ON_MISSION,
    NOT_ON_MISSION,
    detect_clusters,
    fleiss_kappa,
    global_topic_average,
    ntpv,
)
from mission_profiler.diversity import GROUP_BOUNDARIES, assign_group
from mission_profiler.metrics import burstiness, burstiness_from_cv, gini_index
from mission_profiler.pipeline import RunConfig, run_pipeline
from mission_profiler.readability import (
    automated_readability_index,
    flesch_reading_ease,
    linsear_write,
)
from mission_profiler.topics import load_tpvs


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS  {label} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def run42(acceptance_bundle, tmp_path_factory):
    """One full pipeline run over the seed-42 bundle, with timings."""
    out = tmp_path_factory.mktemp("acceptance_run")
    t0 = time.perf_counter()
    config = RunConfig(**acceptance_bundle["config"])
    report = run_pipeline(config, out)
    elapsed = time.perf_counter() - t0
    return {"out": out, "report": report, "config": config, "run_seconds": elapsed}


def test_criterion_1_entropy_bins():
    with criterion(1, "entropy bin constants and boundary assignments"):
        start = time.perf_counter()
        expected = [math.log(k + 0.5) for k in range(1, 8)]
        for got, want in zip(GROUP_BOUNDARIES, expected):
            assert abs(got - want) <= 1e-12
        assert assign_group(0.69) == "II"
        # 0.91 is ln(2.5) at two decimals; the boundary value itself
        # opens group III
        assert assign_group(math.log(2.5)) == "III"
        assert time.perf_counter() - start < 1.0


def test_criterion_2_gini_oracle():
    with criterion(2, "sorted-formula Gini vs pairwise oracle + scale invariance"):
        start = time.perf_counter()
        rng = random.Random(20_24)
        for _ in range(1000):
            n = rng.randint(1, 200)
            x = np.array([rng.random() * rng.choice([1.0, 10.0, 100.0]) for _ in range(n)])
            mean = x.mean()
            oracle = 0.0 if mean == 0 else float(
                np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * mean)
            )
            assert abs(gini_index(x) - oracle) <= 1e-9
            c = rng.uniform(0.01, 100.0)
            assert abs(gini_index(x) - gini_index(c * x)) <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_3_burstiness():
    with criterion(3, "burstiness limits, pinned value, bounds on fuzz"):
        start = time.perf_counter()
        periodic = [1_600_000_000 + 3600 * i for i in range(50)]
        b, _, _ = burstiness(periodic)
        assert abs(b - (-1.0)) <= 1e-9
        assert abs(burstiness_from_cv(1.0, 10) - 0.0733) <= 1e-4
        rng = random.Random(3)
        for _ in range(10_000):
            n = rng.randint(3, 50)
            ts = 1_600_000_000
            series = [ts]
            for _ in range(n - 1):
                ts += rng.randint(1, 100_000)
                series.append(ts)
            b, _, _ = burstiness(series)
            assert -1.0 <= b <= 1.0
        assert time.perf_counter() - start < 5.0


def test_criterion_4_readability():
    with criterion(4, "hand-derived readability values"):
        sentence = "The cat sat on the mat."
        assert abs(flesch_reading_ease(sentence) - 116.145) <= 1e-6
        assert abs(automated_readability_index(sentence) - (-5.085)) <= 1e-6
        hundred = " ".join(["cat"] * 100) + "."
        assert abs(linsear_write(hundred) - 50.0) <= 1e-6


def test_criterion_5_ntpv_sanity(acceptance_bundle):
    with criterion(5, "nTPV self-normalization and streaming-oracle agreement"):
        # a corpus of one profile with one covered tweet: the profile mean
        # equals the global average, so the ratio is 1 on the support
        tpv = np.array([0.25, 0.5, 0.25, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-mass topic floor is expected here
            avg = global_topic_average([tpv], n_profiles=1)
        result = ntpv([tpv], avg)
        support = tpv > 0
        assert np.all(np.abs(result[support] - 1.0) <= 1e-9)
        # and under per-tweet-mean normalization for a multi-tweet profile
        tpvs = [np.array([0.3, 0.7]), np.array([0.5, 0.5]), np.array([0.1, 0.9])]
        avg2 = global_topic_average(tpvs, n_profiles=1, per_tweet_mean=True)
        result2 = ntpv(tpvs, avg2)
        assert np.all(np.abs(result2 - 1.0) <= 1e-9)

        _ids, bundle_tpvs = load_tpvs(acceptance_bundle["paths"]["tpvs"], K=20)
        n_profiles = len({t["profile_id"] for t in acceptance_bundle["bundle"].tweets})
        avg3 = global_topic_average(bundle_tpvs, n_profiles)
        totals = [0.0] * 20
        for vec in bundle_tpvs:  # second pass, entrywise python sums
            for k in range(20):
                totals[k] += float(vec[k])
        oracle = np.array([t / n_profiles for t in totals])
        assert np.all(np.abs(avg3 - oracle) <= 1e-9)


def test_criterion_6_cluster_designation():
    with criterion(6, "skewed cluster fixture designates exactly 96/72"):
        from test_detector import _label_map, _skewed_cluster_fixture

        assignments, aggs = _skewed_cluster_fixture()
        labels = _label_map(assignments)
        clusters, designations = detect_clusters(sorted(assignments), labels, aggs)
        on = sum(1 for d in designations.values() if d["label"] == ON_MISSION)
        not_on = sum(1 for d in designations.values() if d["label"] == NOT_ON_MISSION)
        assert (on, not_on) == (96, 72)


def test_criterion_7_classifier_suite(acceptance_bundle, run42):
    with criterion(7, "synthetic-bundle classifier quality, ablation, oracle"):
        report = run42["report"]
        svm = report["eval"]["linear_svm"]
        assert svm["f1"] >= 0.95
        assert svm["accuracy"] >= 0.95
        table = report["ablation_table"]
        cells = [(g, k) for g in table for k in table[g]]
        assert len(cells) == 12
        for group in ("content", "auxiliary", "activity_profile"):
            assert table["all"]["linear_svm"]["f1"] >= table[group]["linear_svm"]["f1"]
        # planted on-mission profiles in the flagged (non-detect) groups are found
        wild = json.loads((run42["out"] / "classify" / "wild.json").read_text())
        truth = acceptance_bundle["bundle"].labels
        planted = [d for d in wild["designations"] if truth[d["profile_id"]] == "on_mission"]
        assert planted
        hit_rate = sum(d["prediction"] for d in planted) / len(planted)
        assert hit_rate >= 0.9
        # metrics must equal the confusion-matrix definitions exactly
        for kind, cell in report["eval"].items():
            tp, tn, fp, fn = cell["tp"], cell["tn"], cell["fp"], cell["fn"]
            assert cell["f1"] == (2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
            assert cell["accuracy"] == (tp + tn) / (tp + tn + fp + fn)
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 40)
            y = np.array([rng.randint(0, 1) for _ in range(n)])
            p = np.array([rng.randint(0, 1) for _ in range(n)])
            rep = evaluate(p, y)
            tp = int(((p == 1) & (y == 1)).sum())
            tn = int(((p == 0) & (y == 0)).sum())
            fp = int(((p == 1) & (y == 0)).sum())
            fn = int(((p == 0) & (y == 1)).sum())
            assert (rep["tp"], rep["tn"], rep["fp"], rep["fn"]) == (tp, tn, fp, fn)
            assert rep["f1"] == (2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
            assert rep["accuracy"] == (tp + tn) / n
        assert run42["run_seconds"] < 60.0


def test_criterion_8_determinism(acceptance_bundle, run42, tmp_path):
    with criterion(8, "repeated runs produce byte-identical artifacts"):
        config = RunConfig(**acceptance_bundle["config"])
        run_pipeline(config, tmp_path / "second")
        for rel in (
            "report/report.json",
            "classify/model_linear_svm.json",
            "classify/model_decision_tree.json",
            "classify/model_random_forest.json",
        ):
            first = (run42["out"] / rel).read_bytes()
            second = (tmp_path / "second" / rel).read_bytes()
            assert first == second, rel


def test_criterion_9_fleiss_kappa():
    with criterion(9, "kappa exact on unanimity, near zero for random raters"):
        unanimous = [["x", "x", "x"] for _ in range(25)]
        assert fleiss_kappa(unanimous)["kappa"] == 1.0
        rng = random.Random(42)
        ratings = [[rng.choice(["a", "b"]) for _ in range(2)] for _ in range(10_000)]
        assert abs(fleiss_kappa(ratings)["kappa"]) <= 0.05


def test_criterion_10_robustness(tmp_path):
    with criterion(10, "degenerate corpora complete with warnings"):
        from conftest import tweet_row, write_tweet_lines, BASE_TS

        cases = {
            "single_profile": [
                tweet_row(f"t{i}", "only", text=f"a lone profile writing tweet {i} with plenty of tokens",
                          ts=BASE_TS + i * 3600)
                for i in range(12)
            ],
            "all_duplicates": [
                tweet_row(f"t{i}", "dup",
                          text="the very same text repeated every single time right here",
                          ts=BASE_TS + i * 60)
                for i in range(15)
            ],
            "zero_hashtags": [
                tweet_row(f"t{i}", "plain", text=f"profile number one keeps posting tweet {i} without tags",
                          ts=BASE_TS + i * 3600)
                for i in range(12)
            ],
        }
        for name, rows in cases.items():
            case_dir = tmp_path / name
            case_dir.mkdir()
            tweets = case_dir / "tweets.jsonl"
            write_tweet_lines(tweets, rows)
            config = RunConfig(tweets=str(tweets), use_baseline_topics=True, K=20,
                               toxicity_backend="mock", seed=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = run_pipeline(config, case_dir / "run")
            assert report["group_sizes"], name

        # missing toxicity scores: same corpus, no scoring backend
        case_dir = tmp_path / "missing_toxicity"
        case_dir.mkdir()
        tweets = case_dir / "tweets.jsonl"
        write_tweet_lines(tweets, cases["single_profile"])
        config = RunConfig(tweets=str(tweets), use_baseline_topics=True, K=20,
                           toxicity_backend="none", seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_pipeline(config, case_dir / "run")
        assert any("no toxicity score" in w for w in report["warnings"])
