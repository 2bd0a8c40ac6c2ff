import json

import pytest
from click.testing import CliRunner

from mission_profiler.cli import main
from mission_profiler.synth import default_specs, generate, write_bundle

from conftest import tweet_row, write_tweet_lines, BASE_TS


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_bundle")
    specs = default_specs(n_on_mission=8, n_genuine=8)
    for s in specs:
        s.tweets_per_profile = (15, 25)
    write_bundle(generate(specs, K=20, seed=5), out)
    return out


@pytest.fixture(scope="module")
def run_dir(bundle_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    config = {
        "tweets": str(bundle_dir / "tweets.jsonl"),
        "profiles": str(bundle_dir / "profiles.jsonl"),
        "tpvs": str(bundle_dir / "tpvs.jsonl"),
        "K": 20,
        "toxicity_backend": "file",
        "toxicity_path": str(bundle_dir / "toxicity_cache.jsonl"),
        "labels": str(bundle_dir / "labels.csv"),
        "detect_group": "VII",
        "seed": 5,
    }
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config))
    result = CliRunner().invoke(main, ["run", "--config", str(config_path), "--out", str(out / "run")])
    assert result.exit_code == 0, result.output
    return out / "run"


def test_run_produces_report(run_dir):
    assert (run_dir / "report" / "report.json").exists()


def test_ingest_command(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, [tweet_row(f"t{i}", "p", ts=BASE_TS + i) for i in range(12)])
    out = tmp_path / "corpus.bin"
    result = CliRunner().invoke(main, ["ingest", "--tweets", str(tweets), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "kept 1 profiles / 12 tweets" in result.output
    assert out.exists()


def test_score_command_mock(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, [tweet_row(f"t{i}", "p", ts=BASE_TS + i) for i in range(12)])
    corpus = tmp_path / "corpus.bin"
    CliRunner().invoke(main, ["ingest", "--tweets", str(tweets), "--out", str(corpus)])
    cache = tmp_path / "tox.jsonl"
    result = CliRunner().invoke(main, [
        "score", "--corpus", str(corpus), "--backend", "mock",
        "--toxicity-cache", str(cache), "--mock-value", "0.7",
    ])
    assert result.exit_code == 0, result.output
    assert "12 scored" in result.output


def test_score_command_file_stores_whole_table(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, [tweet_row(f"t{i}", "p", ts=BASE_TS + i) for i in range(12)])
    corpus = tmp_path / "corpus.bin"
    CliRunner().invoke(main, ["ingest", "--tweets", str(tweets), "--out", str(corpus)])
    table = tmp_path / "scores.csv"
    table.write_text("".join(f"t{i},0.{i % 10}\n" for i in range(15)))  # t12..t14 are not in the corpus
    bots = tmp_path / "bots.csv"
    bots.write_text("p,0.3,0.4\n")
    cache, bot_cache = tmp_path / "tox.jsonl", tmp_path / "bots.jsonl"
    result = CliRunner().invoke(main, [
        "score", "--corpus", str(corpus), "--backend", "file", "--toxicity-file", str(table),
        "--toxicity-cache", str(cache), "--bot-file", str(bots), "--bot-cache", str(bot_cache),
    ])
    assert result.exit_code == 0, result.output
    assert "15 scored, 0 missing" in result.output
    assert "bots: 1 profiles scored" in result.output
    # the pipeline's score-source loader also reads a saved cache back unchanged
    again = tmp_path / "tox2.jsonl"
    result = CliRunner().invoke(main, [
        "score", "--corpus", str(corpus), "--backend", "file", "--toxicity-file", str(cache),
        "--toxicity-cache", str(again),
    ])
    assert result.exit_code == 0, result.output
    assert again.read_bytes() == cache.read_bytes()


def test_kappa_command(tmp_path):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("a,a,a\na,a,b\nb,b,b\na,b,b\n")
    result = CliRunner().invoke(main, ["kappa", "--ratings", str(ratings)])
    assert result.exit_code == 0, result.output
    assert "kappa=0.3333" in result.output


def test_detect_command(bundle_dir, run_dir, tmp_path):
    out = tmp_path / "designations.json"
    result = CliRunner().invoke(main, [
        "detect",
        "--corpus", str(run_dir / "ingest" / "corpus.bin"),
        "--tpv", str(bundle_dir / "tpvs.jsonl"),
        "--toxicity-cache", str(bundle_dir / "toxicity_cache.jsonl"),
        "--groups", str(run_dir / "group" / "groups.json"),
        "--group", "VII",
        "--k", "20",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["group"] == "VII"
    assert payload["designations"]


def test_train_and_evaluate_commands(bundle_dir, run_dir, tmp_path):
    model_path = tmp_path / "model.json"
    features = run_dir / "features" / "features.jsonl"
    labels = bundle_dir / "labels.csv"
    result = CliRunner().invoke(main, [
        "train", "--labels", str(labels), "--features", str(features),
        "--model", "svm", "--seed", "5", "--out", str(model_path),
    ])
    assert result.exit_code == 0, result.output
    assert model_path.exists()
    result = CliRunner().invoke(main, [
        "evaluate", "--model", str(model_path), "--features", str(features),
        "--labels", str(labels),
    ])
    assert result.exit_code == 0, result.output
    assert "f1=" in result.output


def test_ablate_command(bundle_dir, run_dir, tmp_path):
    out = tmp_path / "ablation.json"
    result = CliRunner().invoke(main, [
        "ablate", "--labels", str(bundle_dir / "labels.csv"),
        "--features", str(run_dir / "features" / "features.jsonl"),
        "--seed", "5", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    table = json.loads(out.read_text())["table"]
    assert len(table) == 4


def test_flag_command(bundle_dir, run_dir, tmp_path):
    model_path = tmp_path / "model.json"
    CliRunner().invoke(main, [
        "train", "--labels", str(bundle_dir / "labels.csv"),
        "--features", str(run_dir / "features" / "features.jsonl"),
        "--model", "svm", "--seed", "5", "--out", str(model_path),
    ])
    out = tmp_path / "wild.json"
    result = CliRunner().invoke(main, [
        "flag", "--model", str(model_path),
        "--features", str(run_dir / "features" / "features.jsonl"),
        "--groups", str(run_dir / "group" / "groups.json"),
        "--exclude-group", "VII", "--sample", "5", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert "flagged" in result.output


def test_group_command(bundle_dir, run_dir, tmp_path):
    out = tmp_path / "groups.json"
    result = CliRunner().invoke(main, [
        "group", "--corpus", str(run_dir / "ingest" / "corpus.bin"),
        "--tpv", str(bundle_dir / "tpvs.jsonl"), "--k", "20",
        "--out", str(out), "--cdf-csv", str(tmp_path / "cdf.csv"),
    ])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["groups"]
    assert (tmp_path / "cdf.csv").read_text().startswith("group,H")


def test_synth_command_deterministic(tmp_path):
    runner = CliRunner()
    for name in ("a", "b"):
        result = runner.invoke(main, ["synth", "--seed", "3", "--out", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
    assert (tmp_path / "a" / "tweets.jsonl").read_bytes() == (tmp_path / "b" / "tweets.jsonl").read_bytes()


def test_stage_failure_exit_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tweets": str(tmp_path / "missing.jsonl")}))
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 2  # config failure class


def test_flag_group_range_parsing():
    from mission_profiler.cli import _parse_group_selection

    assert _parse_group_selection("II..VII", "VIII") == ["II", "III", "IV", "V", "VI", "VII"]
    assert _parse_group_selection("II,IV", "VIII") == ["II", "IV"]
    assert _parse_group_selection(None, "VII") == ["I", "II", "III", "IV", "V", "VI", "VIII"]


def test_topics_baseline_command(run_dir, tmp_path):
    out = tmp_path / "topics"
    result = CliRunner().invoke(main, [
        "topics", "--baseline", "--corpus", str(run_dir / "ingest" / "corpus.bin"),
        "--k", "20", "--seed", "5", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert (out / "tpvs.jsonl").exists()
    assert (out / "catalog.tsv").read_text().startswith("0\teveryday")


def test_metrics_command(bundle_dir, run_dir, tmp_path):
    out = tmp_path / "metrics.jsonl"
    result = CliRunner().invoke(main, [
        "metrics", "--corpus", str(run_dir / "ingest" / "corpus.bin"),
        "--toxicity-cache", str(bundle_dir / "toxicity_cache.jsonl"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 16
    assert all("burstiness" in r for r in rows)


def test_stage_commands_match_pipeline_artifacts(run_dir, tmp_path):
    """group, metrics and detect on a run's own stage inputs write the run's
    artifacts, minus the config-hash key or header line."""
    corpus = str(run_dir / "ingest" / "corpus.bin")
    tpvs, catalog = str(run_dir / "topics" / "tpvs.jsonl"), str(run_dir / "topics" / "catalog.tsv")
    tox = str(run_dir / "score" / "toxicity_cache.jsonl")
    runner = CliRunner()
    for args in (
        ["group", "--corpus", corpus, "--tpv", tpvs, "--catalog", catalog,
         "--out", str(tmp_path / "groups.json"), "--cdf-csv", str(tmp_path / "entropy_cdf.csv")],
        ["metrics", "--corpus", corpus, "--toxicity-cache", tox, "--out", str(tmp_path / "metrics.jsonl")],
        ["detect", "--corpus", corpus, "--tpv", tpvs, "--catalog", catalog, "--toxicity-cache", tox,
         "--groups", str(run_dir / "group" / "groups.json"), "--group", "VII", "--min-cluster", "3",
         "--tox-gate", "p75", "--out", str(tmp_path / "designations.json")],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output

    for stage, name in (("group", "groups.json"), ("detect", "designations.json")):
        payload = json.loads((run_dir / stage / name).read_text())
        del payload["config_hash"]
        assert json.loads((tmp_path / name).read_text()) == payload, name
    for stage, name in (("group", "entropy_cdf.csv"), ("metrics", "metrics.jsonl")):
        lines = (run_dir / stage / name).read_text().splitlines(keepends=True)
        assert (tmp_path / name).read_text() == "".join(lines[1:]), name


@pytest.mark.filterwarnings("ignore::UserWarning")  # the one-profile run warns of empty groups
def test_topics_baseline_command_matches_pipeline(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, [
        tweet_row(f"t{i}", "p", text=f"tweet {i} about topic {i % 3} with a few more words", ts=BASE_TS + i)
        for i in range(12)
    ])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tweets": str(tweets), "use_baseline_topics": True, "K": 20,
                                  "toxicity_backend": "mock", "seed": 9}))
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [
        "topics", "--baseline", "--corpus", str(tmp_path / "run" / "ingest" / "corpus.bin"),
        "--k", "20", "--seed", "9", "--out", str(tmp_path / "topics"),
    ])
    assert result.exit_code == 0, result.output
    for name in ("tpvs.jsonl", "catalog.tsv"):
        assert (tmp_path / "topics" / name).read_bytes() == (tmp_path / "run" / "topics" / name).read_bytes()
