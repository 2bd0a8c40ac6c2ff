import gzip
import http.server
import json
import threading

import pytest
from click.testing import CliRunner

from mission_profiler import scores
from mission_profiler.cli import main
from mission_profiler.ingest import IngestError, load_corpus
from mission_profiler.pipeline import EXIT_CODES, topic_vectors
from mission_profiler.synth import default_specs, generate, write_bundle
from mission_profiler.topics import TopicCatalog
from mission_profiler.util import canonical_dumps, derive_seed

from conftest import (
    BAD_LABELS, NO_SPACE, FailingScorer, FakeClock, fill_disk_for, tweet_row, write_tweet_lines, BASE_TS,
)
from test_pipeline import _zero_topic


def _run_config(bundle_dir, path, **overrides):
    config = {
        "tweets": str(bundle_dir / "tweets.jsonl"),
        "profiles": str(bundle_dir / "profiles.jsonl"),
        "tpvs": str(bundle_dir / "tpvs.jsonl"),
        "K": 20,
        "labels": str(bundle_dir / "labels.csv"),
        "detect_group": "VII",
        "seed": 5,
        **overrides,
    }
    path.write_text(json.dumps(config))
    return path


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
    config_path = _run_config(
        bundle_dir, out / "config.json",
        toxicity_backend="file", toxicity_path=str(bundle_dir / "toxicity_cache.jsonl"),
    )
    result = CliRunner().invoke(main, ["run", "--config", str(config_path), "--out", str(out / "run")])
    assert result.exit_code == 0, result.output
    return out / "run"


@pytest.fixture(scope="module")
def corpus_bin(bundle_dir, tmp_path_factory):
    """The bundle's corpus as CLI ingest hands it to the other stage commands."""
    out = tmp_path_factory.mktemp("cli_corpus") / "corpus.bin"
    result = CliRunner().invoke(main, [
        "ingest", "--tweets", str(bundle_dir / "tweets.jsonl"), "--profiles", str(bundle_dir / "profiles.jsonl"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    return out


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


def test_score_command_rejects_a_mock_value_outside_the_unit_interval(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, [tweet_row(f"t{i}", "p", ts=BASE_TS + i) for i in range(12)])
    corpus = tmp_path / "corpus.bin"
    CliRunner().invoke(main, ["ingest", "--tweets", str(tweets), "--out", str(corpus)])
    cache = tmp_path / "tox.jsonl"
    result = CliRunner().invoke(main, [
        "score", "--corpus", str(corpus), "--backend", "mock",
        "--toxicity-cache", str(cache), "--mock-value", "1.5",
    ])
    assert result.exit_code == 2, result.output
    assert "--mock-value" in result.output
    assert not cache.exists()


@pytest.mark.parametrize("value", ["nan", "-nan", "inf"])
def test_score_command_rejects_a_non_finite_mock_value(tmp_path, value):
    # NaN fails neither bound comparison of the [0, 1] range, so the range alone let it through
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, [tweet_row(f"t{i}", "p", ts=BASE_TS + i) for i in range(12)])
    corpus = tmp_path / "corpus.bin"
    CliRunner().invoke(main, ["ingest", "--tweets", str(tweets), "--out", str(corpus)])
    cache = tmp_path / "tox.jsonl"
    result = CliRunner().invoke(main, [
        "score", "--corpus", str(corpus), "--backend", "mock",
        "--toxicity-cache", str(cache), "--mock-value", value,
    ])
    assert result.exit_code == 2, result.output
    assert "--mock-value" in result.output
    assert "scored" not in result.output
    assert not cache.exists()


class _Unparseable(http.server.BaseHTTPRequestHandler):
    """A scorer whose every answer the client rejects with a ScoreError."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = b"not json"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_score_command_http_backs_off_between_retries(tmp_path, monkeypatch):
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, [tweet_row(f"t{i}", "p", ts=BASE_TS + i) for i in range(12)])
    corpus = tmp_path / "corpus.bin"
    CliRunner().invoke(main, ["ingest", "--tweets", str(tweets), "--out", str(corpus)])
    slept = []
    monkeypatch.setattr(scores.time, "sleep", slept.append)
    server = http.server.HTTPServer(("127.0.0.1", 0), _Unparseable)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("MISSION_PROFILER_TOXICITY_URL", f"http://127.0.0.1:{server.server_port}/")
        result = CliRunner().invoke(main, [
            "score", "--corpus", str(corpus), "--backend", "http", "--toxicity-cache", str(tmp_path / "tox.jsonl"),
        ])
    finally:
        server.shutdown()
        server.server_close()
    assert result.exit_code == 0, result.output
    assert "0 scored, 12 missing" in result.output
    # the pipeline's HTTP settings: 3 retries per tweet, waiting 0.5, 1 and 2 s
    assert slept == [0.5, 1.0, 2.0] * 12


def test_score_command_spaces_its_requests_by_rps(tmp_path, monkeypatch):
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, [tweet_row(f"t{i}", "p", ts=BASE_TS + i) for i in range(12)])
    corpus = tmp_path / "corpus.bin"
    CliRunner().invoke(main, ["ingest", "--tweets", str(tweets), "--out", str(corpus)])
    clock = FakeClock()
    monkeypatch.setattr(scores, "time", clock)
    monkeypatch.setattr(scores, "HTTPToxicityClient", FailingScorer)
    monkeypatch.setattr(FailingScorer, "requests", [])
    result = CliRunner().invoke(main, [
        "score", "--corpus", str(corpus), "--backend", "http", "--rps", "4",
        "--toxicity-cache", str(tmp_path / "tox.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert "12 scored" in result.output
    assert clock.sleeps == [0.25] * 11  # instant answers: the first request waits for none


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


def test_score_command_mock_writes_the_caches_of_a_mock_run(bundle_dir, corpus_bin, tmp_path):
    config = _run_config(bundle_dir, tmp_path / "config.json", toxicity_backend="mock", bot_backend="mock")
    run = tmp_path / "run"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(run)])
    assert result.exit_code == 0, result.output
    tox, bots = tmp_path / "tox.jsonl", tmp_path / "bots.jsonl"
    result = CliRunner().invoke(main, [
        "score", "--corpus", str(corpus_bin), "--backend", "mock",
        "--toxicity-cache", str(tox), "--bot-cache", str(bots),
    ])
    assert result.exit_code == 0, result.output
    assert tox.read_bytes() == (run / "score" / "toxicity_cache.jsonl").read_bytes()
    assert bots.read_bytes() == (run / "score" / "bot_cache.jsonl").read_bytes()


def test_score_command_resumes_from_its_cache_for_the_corpus_tweets(tmp_path, monkeypatch):
    specs = default_specs(n_on_mission=8, n_genuine=8)
    for s in specs:
        s.tweets_per_profile = (15, 25)
    paths = write_bundle(generate(specs, K=20, seed=11), tmp_path / "bundle")
    corpus = tmp_path / "corpus.bin"
    result = CliRunner().invoke(main, [
        "ingest", "--tweets", str(paths["tweets"]), "--profiles", str(paths["profiles"]), "--out", str(corpus),
    ])
    assert result.exit_code == 0, result.output
    monkeypatch.setattr(scores, "HTTPToxicityClient", FailingScorer)

    def score(cache):
        return CliRunner().invoke(main, [
            "score", "--corpus", str(corpus), "--backend", "http", "--toxicity-cache", str(cache),
        ])

    monkeypatch.setattr(FailingScorer, "requests", [])
    clean = tmp_path / "clean.jsonl"
    assert score(clean).exit_code == 0
    assert len(FailingScorer.requests) == 324

    monkeypatch.setattr(FailingScorer, "requests", [])
    monkeypatch.setattr(FailingScorer, "fail_after", 30)
    cache = tmp_path / "tox.jsonl"
    result = score(cache)
    assert result.exit_code == 11
    assert "connection refused" in result.output
    saved = scores.ScoreCache.load(cache)
    assert len(saved.toxicity) == 30
    saved.put_toxicity("not-in-the-corpus", 0.5, "http")  # dropped on resume
    saved.save(cache)

    monkeypatch.setattr(FailingScorer, "requests", [])
    monkeypatch.setattr(FailingScorer, "fail_after", None)
    result = score(cache)
    assert result.exit_code == 0, result.output
    assert len(FailingScorer.requests) == 294  # the 30 scored before the failure are not asked again
    assert "324 scored, 0 missing" in result.output
    assert cache.read_bytes() == clean.read_bytes()


def test_run_with_an_invalid_bot_file_fails_in_score_before_any_toxicity_request(bundle_dir, tmp_path, monkeypatch):
    bots = tmp_path / "bots.csv"
    bots.write_text("profile_id,overall,spammer\np0,1.5,0.1\n")
    config = _run_config(
        bundle_dir, tmp_path / "config.json", toxicity_backend="http", bot_backend="file", bot_path=str(bots),
    )
    monkeypatch.setattr(scores, "HTTPToxicityClient", FailingScorer)
    monkeypatch.setattr(FailingScorer, "requests", [])
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 11, result.output
    assert "error [score]" in result.output
    assert "invalid score rows" in result.output
    assert FailingScorer.requests == []


def test_run_with_a_bot_cache_row_lacking_a_key_fails_in_score(bundle_dir, tmp_path):
    bots = tmp_path / "bots.jsonl"
    header = json.dumps({"format": scores.CACHE_FORMAT, "version": scores.CACHE_VERSION})
    bots.write_text(header + "\n" + json.dumps({"kind": "bots", "profile_id": "x", "overall": 0.5}) + "\n")
    config = _run_config(
        bundle_dir, tmp_path / "config.json", toxicity_path=str(bundle_dir / "toxicity_cache.jsonl"),
        bot_backend="file", bot_path=str(bots),
    )
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 11, result.output
    assert "error [score]" in result.output
    assert "row 2 ('bots') lacks the key 'spammer'" in result.output


@pytest.mark.parametrize("name, rows, error", [
    ("tox.jsonl", ['{"tweet_id": "t1", "score": 0.5}', "5"], "1 invalid score rows (rows 2)"),
    ("tox_cache.jsonl", [json.dumps({"format": scores.CACHE_FORMAT, "version": scores.CACHE_VERSION}), "5"],
     "tox_cache.jsonl: row 2: not a JSON object"),
    ("tox_cache.jsonl", [json.dumps({"format": scores.CACHE_FORMAT, "version": scores.CACHE_VERSION}), "{bad"],
     "tox_cache.jsonl: row 2: bad json"),
], ids=["table", "cache-not-an-object", "cache-bad-json"])
def test_run_with_a_toxicity_row_that_is_no_json_object_fails_in_score(bundle_dir, tmp_path, name, rows, error):
    toxicity = tmp_path / name
    toxicity.write_text("\n".join(rows) + "\n")
    config = _run_config(bundle_dir, tmp_path / "config.json", toxicity_path=str(toxicity))
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 11, result.output
    assert "error [score]" in result.output
    assert error in result.output


def test_score_command_bot_file_without_bot_cache_is_a_usage_error(corpus_bin, tmp_path):
    bots = tmp_path / "bots.csv"
    bots.write_text("p0,0.3,0.4\n")
    tox = tmp_path / "tox.jsonl"
    result = CliRunner().invoke(main, [
        "score", "--corpus", str(corpus_bin), "--backend", "mock",
        "--toxicity-cache", str(tox), "--bot-file", str(bots),
    ])
    assert result.exit_code == 2, result.output
    assert "--bot-cache" in result.output
    assert not tox.exists()


def test_kappa_command(tmp_path):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("a,a,a\na,a,b\nb,b,b\na,b,b\n")
    result = CliRunner().invoke(main, ["kappa", "--ratings", str(ratings)])
    assert result.exit_code == 0, result.output
    assert "kappa=0.3333" in result.output


def test_detect_command(bundle_dir, run_dir, corpus_bin, tmp_path):
    out = tmp_path / "designations.json"
    result = CliRunner().invoke(main, [
        "detect",
        "--corpus", str(corpus_bin),
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
    # the run's classify stage seeds its ablation with this derived seed
    out = tmp_path / "ablation.json"
    result = CliRunner().invoke(main, [
        "ablate", "--labels", str(bundle_dir / "labels.csv"),
        "--features", str(run_dir / "features" / "features.jsonl"),
        "--seed", str(derive_seed(5, "classify")), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    table = json.loads(out.read_text())["table"]
    assert len(table) == 4
    assert table == json.loads((run_dir / "classify" / "ablation.json").read_text())["table"]


def test_labeled_commands_note_the_rows_without_a_label(bundle_dir, run_dir, tmp_path):
    rows = (bundle_dir / "labels.csv").read_text().splitlines()
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join(rows[:1] + rows[3:]) + "\n")  # header kept, two profiles unlabeled
    result = CliRunner().invoke(main, [
        "evaluate", "--model", str(run_dir / "classify" / "model_linear_svm.json"),
        "--features", str(run_dir / "features" / "features.jsonl"), "--labels", str(labels),
    ])
    assert result.exit_code == 0, result.output
    assert "note: 2 feature rows have no label and were dropped" in result.output


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


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate", "flag"])
def test_classify_commands_refuse_a_feature_file_holding_a_null_value(bundle_dir, run_dir, tmp_path, command):
    lines = (run_dir / "features" / "features.jsonl").read_text().splitlines(keepends=True)
    row = json.loads(lines[2])
    row["values"][0] = None
    features = tmp_path / "features.jsonl"
    features.write_text("".join(lines[:2] + [json.dumps(row) + "\n"] + lines[3:]))
    args = {
        "train": ["--labels", str(bundle_dir / "labels.csv"), "--out", str(tmp_path / "model.json")],
        "evaluate": ["--labels", str(bundle_dir / "labels.csv"),
                     "--model", str(run_dir / "classify" / "model_linear_svm.json")],
        "ablate": ["--labels", str(bundle_dir / "labels.csv"), "--out", str(tmp_path / "ablation.json")],
        "flag": ["--model", str(run_dir / "classify" / "model_linear_svm.json"),
                 "--groups", str(run_dir / "group" / "groups.json"), "--out", str(tmp_path / "wild.json")],
    }[command]
    result = CliRunner().invoke(main, [command, "--features", str(features), *args])
    assert result.exit_code == 17, result.output
    assert "error [classify]: line 3: values holds an item that is not a finite number" in result.output
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "wild.json").exists()


@pytest.mark.parametrize("row, message", [
    ({"values": []}, "no profile_id"),
    ({"profile_id": "x", "values": 5, "mask": []}, "values is not a list"),
    (["x"], "not a JSON object"),
], ids=["no-id", "values-int", "not-an-object"])
def test_flag_names_the_line_of_a_feature_row_of_the_wrong_shape(run_dir, tmp_path, row, message):
    lines = (run_dir / "features" / "features.jsonl").read_text().splitlines(keepends=True)
    features = tmp_path / "features.jsonl"
    features.write_text("".join(lines[:2] + [json.dumps(row) + "\n"] + lines[2:]))
    result = CliRunner().invoke(main, [
        "flag", "--model", str(run_dir / "classify" / "model_linear_svm.json"), "--features", str(features),
        "--groups", str(run_dir / "group" / "groups.json"), "--out", str(tmp_path / "wild.json"),
    ])
    assert result.exit_code == 17, result.output
    assert f"error [classify]: line 3: {message}\n" in result.output
    assert not (tmp_path / "wild.json").exists()


def _detect_args(bundle_dir, corpus_bin, tpvs, groups, out):
    return [
        "detect", "--corpus", str(corpus_bin), "--tpv", str(tpvs), "--k", "20",
        "--toxicity-cache", str(bundle_dir / "toxicity_cache.jsonl"),
        "--groups", str(groups), "--group", "VII", "--out", str(out),
    ]


def test_detect_command_names_a_group_member_the_corpus_lacks(bundle_dir, run_dir, corpus_bin, tmp_path):
    groups = json.loads((run_dir / "group" / "groups.json").read_text())
    groups["groups"]["VII"].append("ghost-0001")
    path = tmp_path / "groups.json"
    path.write_text(json.dumps(groups))
    out = tmp_path / "designations.json"
    result = CliRunner().invoke(main, _detect_args(bundle_dir, corpus_bin, bundle_dir / "tpvs.jsonl", path, out))
    assert result.exit_code == 15, result.output
    assert "error [detect]: group VII member ghost-0001 is not in the corpus" in result.output
    assert not out.exists()


def test_detect_command_refuses_a_group_member_listed_twice(bundle_dir, run_dir, corpus_bin, tmp_path):
    # the repeated member used to count twice in its cluster's size and in pct_of_group
    groups = json.loads((run_dir / "group" / "groups.json").read_text())
    members = groups["groups"]["VII"]
    members.append(members[0])
    path = tmp_path / "groups.json"
    path.write_text(json.dumps(groups))
    out = tmp_path / "designations.json"
    result = CliRunner().invoke(main, _detect_args(bundle_dir, corpus_bin, bundle_dir / "tpvs.jsonl", path, out))
    assert result.exit_code == 15, result.output
    assert f"error [detect]: group VII member {members[0]} is listed twice" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, code, stage", [("detect", 15, "detect"), ("flag", 17, "classify")])
@pytest.mark.parametrize("content, problem", [
    ('{"partition": {}}', "'groups' is not an object mapping each group name to a list of profile ids"),
    ("[1]", "not a JSON object"),
    ('{"groups": [["p1"]]}', "'groups' is not an object mapping each group name to a list of profile ids"),
    ('{"groups": {"VII": "p1"}}', "'groups' is not an object mapping each group name to a list of profile ids"),
    ('{"groups": {"VII": [1]}}', "'groups' is not an object mapping each group name to a list of profile ids"),
    ('{"groups": ', "bad json"),
], ids=["no-groups", "a-list", "groups-a-list", "members-a-string", "member-an-int", "cut-short"])
def test_detect_and_flag_name_a_groups_file_of_the_wrong_shape(
    bundle_dir, run_dir, corpus_bin, tmp_path, command, code, stage, content, problem,
):
    # the file used to fail as `'groups'` or `list indices must be integers or slices, not str`, naming no file
    path = tmp_path / "groups.json"
    path.write_text(content)
    out = tmp_path / "out.json"
    if command == "detect":
        args = _detect_args(bundle_dir, corpus_bin, bundle_dir / "tpvs.jsonl", path, out)
    else:
        args = [
            "flag", "--model", str(run_dir / "classify" / "model_linear_svm.json"),
            "--features", str(run_dir / "features" / "features.jsonl"), "--groups", str(path), "--out", str(out),
        ]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == code, result.output
    assert f"error [{stage}]: {path}: {problem}" in result.output
    assert not out.exists()


def test_detect_command_prints_the_zero_global_average_warning_as_a_warning(bundle_dir, run_dir, corpus_bin, tmp_path):
    tpvs = tmp_path / "tpvs.jsonl"
    tpvs.write_text((bundle_dir / "tpvs.jsonl").read_text())
    _zero_topic(tpvs)
    out = tmp_path / "designations.json"
    groups = run_dir / "group" / "groups.json"
    result = CliRunner().invoke(main, _detect_args(bundle_dir, corpus_bin, tpvs, groups, out))
    assert result.exit_code == 0, result.output
    assert "warning: 1 topics have zero global average; floored to 1e-12" in result.output


def test_group_command(bundle_dir, corpus_bin, tmp_path):
    out = tmp_path / "groups.json"
    result = CliRunner().invoke(main, [
        "group", "--corpus", str(corpus_bin),
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


def test_flag_command_on_a_runs_files_writes_its_wild_json(run_dir, tmp_path):
    # the run flags with the SVM it trained; flag reads the SVM's saved file
    out = tmp_path / "wild.json"
    result = CliRunner().invoke(main, [
        "flag", "--model", str(run_dir / "classify" / "model_linear_svm.json"),
        "--features", str(run_dir / "features" / "features.jsonl"),
        "--groups", str(run_dir / "group" / "groups.json"),
        "--exclude-group", "VII", "--sample", "100", "--seed", str(derive_seed(5, "wild")), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    wild = json.loads((run_dir / "classify" / "wild.json").read_text())
    del wild["config_hash"]
    assert wild["designations"]
    assert json.loads(out.read_text()) == wild


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
@pytest.mark.parametrize("content, error", BAD_LABELS)
def test_labeled_commands_fail_as_a_run_on_a_labels_row_without_a_label_or_a_file_that_is_not_utf8(
    run_dir, tmp_path, command, content, error,
):
    labels = tmp_path / "labels.csv"
    labels.write_bytes(content)
    args = ["--labels", str(labels), "--features", str(run_dir / "features" / "features.jsonl")]
    if command == "evaluate":
        args += ["--model", str(run_dir / "classify" / "model_linear_svm.json")]
    else:
        args += ["--out", str(tmp_path / "out.json")]
    result = CliRunner().invoke(main, [command, *args])
    assert result.exit_code == 17
    assert f"error [classify]: {labels}: {error}" in result.output


def test_flag_warns_of_group_members_without_a_feature_row(run_dir, tmp_path):
    features = run_dir / "features" / "features.jsonl"
    real = json.loads(features.read_text(encoding="utf-8").splitlines()[1])["profile_id"]
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"groups": {"II": ["ghost2", real, "ghost1"]}}), encoding="utf-8")
    result = CliRunner().invoke(main, [
        "flag", "--model", str(run_dir / "classify" / "model_linear_svm.json"), "--features", str(features),
        "--groups", str(groups), "--group-range", "II", "--out", str(tmp_path / "wild.json"),
    ])
    assert result.exit_code == 0, result.output
    assert result.stderr.splitlines() == [
        "warning: group II: 2 members have no feature row and were dropped: 'ghost1', 'ghost2'",
    ]
    assert "/1 flagged" in result.stdout


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate", "flag"])
@pytest.mark.parametrize("defect, error", [
    ("repeat", "line 3: profile {first} has an earlier row"),
    ("narrow", "line 2: values holds 39 items, not 40"),
])
def test_feature_commands_fail_as_a_run_on_a_repeated_or_misshapen_feature_row(
    bundle_dir, run_dir, tmp_path, command, defect, error,
):
    lines = (run_dir / "features" / "features.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    first = json.loads(lines[1])
    if defect == "repeat":
        lines.insert(2, lines[1])
    else:
        lines[1] = canonical_dumps({**first, "values": first["values"][:-1]}) + "\n"
    features = tmp_path / "features.jsonl"
    features.write_text("".join(lines), encoding="utf-8")
    labels = ["--labels", str(bundle_dir / "labels.csv")]
    model = ["--model", str(run_dir / "classify" / "model_linear_svm.json")]
    out = ["--out", str(tmp_path / "out.json")]
    args = {
        "train": labels + out, "ablate": labels + out, "evaluate": labels + model,
        "flag": model + out + ["--groups", str(run_dir / "group" / "groups.json")],
    }[command]
    result = CliRunner().invoke(main, [command, "--features", str(features), *args])
    assert result.exit_code == 17
    assert f"error [classify]: {error.format(first=first['profile_id'])}" in result.output
    assert not (tmp_path / "out.json").exists()


def test_run_with_a_config_file_that_is_not_json_is_a_config_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"tweets": "tweets.jsonl",')
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 2
    assert "bad config file" in result.output
    assert not (tmp_path / "run").exists()


def test_stage_failure_exit_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tweets": str(tmp_path / "missing.jsonl")}))
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 2  # config failure class


def _file_run_config(bundle_dir, path, **overrides):
    return _run_config(bundle_dir, path, toxicity_backend="file",
                       toxicity_path=str(bundle_dir / "toxicity_cache.jsonl"), **overrides)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("stage, module, name, suffix", NO_SPACE)
def test_run_exits_with_the_code_of_the_stage_a_full_disk_stops(
    bundle_dir, tmp_path, monkeypatch, stage, module, name, suffix,
):
    config = _file_run_config(bundle_dir, tmp_path / "config.json")
    fill_disk_for(monkeypatch, module, name, suffix)
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == EXIT_CODES[stage], result.output
    assert type(result.exception) is SystemExit
    assert result.stderr == f"error [{stage}]: stage {stage}: [Errno 28] No space left on device\n", result.stderr


def test_a_catalog_of_another_k_stops_a_run_in_topics_and_cli_group_in_group(bundle_dir, corpus_bin, tmp_path):
    catalog = tmp_path / "catalog.tsv"
    TopicCatalog.demo(8).save(catalog)
    config = _file_run_config(bundle_dir, tmp_path / "config.json", catalog=str(catalog))
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 12, result.output
    assert result.stderr == "error [topics]: stage topics: catalog has K=8, config has K=20\n", result.stderr
    result = CliRunner().invoke(main, [
        "group", "--corpus", str(corpus_bin), "--tpv", str(bundle_dir / "tpvs.jsonl"), "--catalog", str(catalog),
        "--k", "20", "--out", str(tmp_path / "groups.json"),
    ])
    assert result.exit_code == 13, result.output
    assert result.stderr == "error [group]: catalog has K=8, config has K=20\n", result.stderr
    assert not (tmp_path / "groups.json").exists()


def test_run_exits_10_when_a_strict_ingest_meets_a_malformed_line(bundle_dir, tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    lines = (bundle_dir / "tweets.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    tweets.write_text("".join(lines) + "not json\n", encoding="utf-8")
    config = _file_run_config(bundle_dir, tmp_path / "config.json", tweets=str(tweets), strict=True)
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 10, result.output
    assert result.stderr.startswith(f"error [ingest]: stage ingest: line {len(lines) + 1}: "), result.stderr


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_into_the_out_dir_of_another_config_exits_3(bundle_dir, tmp_path):
    config = _file_run_config(bundle_dir, tmp_path / "config.json")
    runner, out = CliRunner(), str(tmp_path / "run")
    assert runner.invoke(main, ["run", "--config", str(config), "--out", out]).exit_code == 0
    result = runner.invoke(main, ["run", "--config", str(config), "--seed", "6", "--out", out])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("error [stale-cache]: stage ingest: out dir holds artifacts"), result.stderr


def test_run_with_an_out_dir_it_cannot_make_is_a_config_error(bundle_dir, tmp_path):
    # it used to end in a FileExistsError traceback, exit 1
    config = _file_run_config(bundle_dir, tmp_path / "config.json")
    (tmp_path / "file").write_text("")
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "file" / "run")])
    assert result.exit_code == 2, result.output
    assert type(result.exception) is SystemExit
    assert result.stderr.startswith("error [config]: "), result.stderr


def test_detect_command_rejects_a_group_that_is_not_of_groups_i_to_viii(bundle_dir, run_dir, corpus_bin, tmp_path):
    # --group VIIII used to exit 0 with a "group is empty" warning, where a run exits 2
    out = tmp_path / "designations.json"
    args = _detect_args(bundle_dir, corpus_bin, bundle_dir / "tpvs.jsonl", run_dir / "group" / "groups.json", out)
    args[args.index("--group") + 1] = "VIIII"
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--group'" in result.output
    assert "'VIIII' is not an entropy group" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
def test_labeled_commands_warn_of_labels_that_match_no_profile(bundle_dir, run_dir, tmp_path, command):
    labels = tmp_path / "labels.csv"
    labels.write_text((bundle_dir / "labels.csv").read_text(encoding="utf-8") + "ghost,genuine\n", encoding="utf-8")
    args = ["--labels", str(labels), "--features", str(run_dir / "features" / "features.jsonl")]
    if command == "evaluate":
        args += ["--model", str(run_dir / "classify" / "model_linear_svm.json")]
    else:
        args += ["--out", str(tmp_path / "out.json")]
    result = CliRunner().invoke(main, [command, *args])
    assert result.exit_code == 0, result.output
    assert "warning: 1 labels match no profile and were dropped: 'ghost'" in result.stderr.splitlines()


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate", "flag"])
@pytest.mark.parametrize("defect, error", [
    ("garbled", "line 3: bad json: "),
    ("empty", "{path}: line 1: bad json: "),
    ("list-header", "{path}: line 1: not a JSON object"),
])
def test_feature_commands_name_the_line_of_a_garbled_feature_file(
    bundle_dir, run_dir, tmp_path, command, defect, error,
):
    lines = (run_dir / "features" / "features.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    features = tmp_path / "features.jsonl"
    features.write_text({
        "garbled": "".join(lines[:2] + ["{garbled\n"] + lines[2:]),
        "empty": "",
        "list-header": "[]\n" + "".join(lines[1:]),
    }[defect], encoding="utf-8")
    labels = ["--labels", str(bundle_dir / "labels.csv")]
    model = ["--model", str(run_dir / "classify" / "model_linear_svm.json")]
    out = ["--out", str(tmp_path / "out.json")]
    args = {
        "train": labels + out, "ablate": labels + out, "evaluate": labels + model,
        "flag": model + out + ["--groups", str(run_dir / "group" / "groups.json")],
    }[command]
    result = CliRunner().invoke(main, [command, "--features", str(features), *args])
    assert result.exit_code == 17, result.output
    assert result.stderr.startswith(f"error [classify]: {error.format(path=features)}"), result.stderr
    assert not (tmp_path / "out.json").exists()


def test_flag_group_range_parsing():
    from mission_profiler.cli import _group_selection

    assert _group_selection(None, None, "II..VII") == ["II", "III", "IV", "V", "VI", "VII"]
    assert _group_selection(None, None, "II,IV") == ["II", "IV"]
    assert _group_selection(None, None, "IV..IV") == ["IV"]
    assert _group_selection(None, None, None) is None  # flag then takes every group but --exclude-group


@pytest.mark.parametrize("option, value, error", [
    ("--group-range", "II,XX", "'XX' is not an entropy group"),
    ("--group-range", "XX..II", "'XX' is not an entropy group"),
    ("--group-range", "II..IX", "'IX' is not an entropy group"),
    ("--group-range", "II..IV..VI", "'IV..VI' is not an entropy group"),
    ("--group-range", "VII..II", "the range 'VII..II' does not ascend"),
    ("--group-range", ",", "',' names no entropy group"),
    ("--exclude-group", "viii", "'viii' is not an entropy group"),
])
def test_flag_command_rejects_a_group_selection_that_is_not_of_groups_i_to_viii(
    run_dir, tmp_path, option, value, error,
):
    out = tmp_path / "wild.json"
    result = CliRunner().invoke(main, [
        "flag", "--model", str(run_dir / "classify" / "model_linear_svm.json"),
        "--features", str(run_dir / "features" / "features.jsonl"),
        "--groups", str(run_dir / "group" / "groups.json"), option, value, "--out", str(out),
    ])
    assert result.exit_code == 2, result.output  # a usage error
    assert f"Invalid value for '{option}'" in result.output
    assert error in result.output
    assert not out.exists()


def test_topics_baseline_command(corpus_bin, tmp_path):
    out = tmp_path / "topics"
    result = CliRunner().invoke(main, [
        "topics", "--baseline", "--corpus", str(corpus_bin),
        "--k", "20", "--seed", "5", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert (out / "tpvs.jsonl").exists()
    assert (out / "catalog.tsv").read_text().startswith("0\teveryday")


def test_topics_command_checks_the_given_vectors_and_writes_only_the_catalog(bundle_dir, tmp_path):
    # later commands take the --tpv file itself: a copy read back would normalise the vectors twice
    out = tmp_path / "topics"
    result = CliRunner().invoke(main, ["topics", "--tpv", str(bundle_dir / "tpvs.jsonl"), "--k", "20", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in out.iterdir()) == ["catalog.tsv"]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"tweet_id": "t", "probs": [0.5, 0.5]}) + "\n")
    result = CliRunner().invoke(main, ["topics", "--tpv", str(bad), "--k", "20", "--out", str(tmp_path / "bad")])
    assert result.exit_code == 12, result.output
    assert "row 1: expected 20 probabilities" in result.output


def test_a_probability_too_large_for_a_float_stops_the_topics_command_with_its_row(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"tweet_id": "t", "probs": [' + str(10**400) + ', 0.0]}\n')
    result = CliRunner().invoke(main, ["topics", "--tpv", str(bad), "--k", "2", "--out", str(tmp_path / "out")])
    assert result.exit_code == 12, result.output
    assert result.stderr.startswith("error [topics]: row 1: bad row: "), result.stderr


@pytest.mark.parametrize("flags", [["--tpv", "bad.jsonl", "--k", "3"]], ids=["bad_tpv"])
def test_a_failed_topics_command_leaves_no_out_directory(tmp_path, flags):
    (tmp_path / "bad.jsonl").write_text("not json\n", encoding="utf-8")
    flags = [str(tmp_path / f) if f.endswith(".jsonl") else f for f in flags]
    out = tmp_path / "new" / "dir"
    result = CliRunner().invoke(main, ["topics", *flags, "--out", str(out)])
    assert result.exit_code == 12, result.output
    assert result.stderr.startswith("error [topics]: "), result.stderr
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("args, error", [
    (["topics", "--k", "3", "--out", "new/dir"], "either --tpv or --baseline is required"),
    (["topics", "--baseline", "--k", "3", "--out", "new/dir"], "--corpus is required with --baseline"),
    (["score", "--corpus", "garbage.bin", "--backend", "file", "--toxicity-cache", "new/tox.jsonl"],
     "--toxicity-file is required for the file backend"),
], ids=["topics_without_tpv_or_baseline", "topics_baseline_without_corpus", "score_file_without_toxicity_file"])
def test_a_missing_option_combination_is_a_usage_error_before_any_input_is_read(tmp_path, args, error):
    # an unreadable corpus, or none: the usage error comes first
    (tmp_path / "garbage.bin").write_bytes(b"not a corpus")
    args = [str(tmp_path / a) if a == "garbage.bin" or a.startswith("new/") else a for a in args]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert error in result.stderr and "error [" not in result.stderr, result.stderr
    assert not (tmp_path / "new").exists()


def test_metrics_command(bundle_dir, corpus_bin, tmp_path):
    out = tmp_path / "metrics.jsonl"
    result = CliRunner().invoke(main, [
        "metrics", "--corpus", str(corpus_bin),
        "--toxicity-cache", str(bundle_dir / "toxicity_cache.jsonl"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 16
    assert all("burstiness" in r for r in rows)


def test_metrics_command_reads_a_score_table_as_a_run_does(bundle_dir, corpus_bin, tmp_path):
    # a run takes a CSV table as its toxicity_path and copies it nowhere; metrics used to want a cache
    cache = scores.ScoreCache.load(bundle_dir / "toxicity_cache.jsonl")
    table = tmp_path / "tox.csv"
    table.write_text("".join(f"{tweet_id},{score!r}\n" for tweet_id, score in cache.toxicity.items()))
    for name, path in (("from_table.jsonl", table), ("from_cache.jsonl", bundle_dir / "toxicity_cache.jsonl")):
        result = CliRunner().invoke(main, [
            "metrics", "--corpus", str(corpus_bin), "--toxicity-cache", str(path), "--out", str(tmp_path / name),
        ])
        assert result.exit_code == 0, result.output
    assert (tmp_path / "from_table.jsonl").read_bytes() == (tmp_path / "from_cache.jsonl").read_bytes()


def test_stage_commands_match_pipeline_artifacts(bundle_dir, run_dir, corpus_bin, tmp_path):
    """group, metrics and detect on the run's inputs (the corpus as CLI ingest
    writes it, the bundle's topic vectors and scores) and the run's catalog
    write the run's artifacts, minus the config-hash key or header line."""
    corpus = str(corpus_bin)
    tpvs, catalog = str(bundle_dir / "tpvs.jsonl"), str(run_dir / "topics" / "catalog.tsv")
    tox = str(bundle_dir / "toxicity_cache.jsonl")
    runner = CliRunner()
    for args in (
        ["group", "--corpus", corpus, "--tpv", tpvs, "--catalog", catalog, "--k", "20",
         "--out", str(tmp_path / "groups.json"), "--cdf-csv", str(tmp_path / "entropy_cdf.csv")],
        ["metrics", "--corpus", corpus, "--toxicity-cache", tox, "--out", str(tmp_path / "metrics.jsonl")],
        ["detect", "--corpus", corpus, "--tpv", tpvs, "--catalog", catalog, "--k", "20", "--toxicity-cache", tox,
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


def test_detect_command_leaves_out_topic_vectors_of_tweets_outside_the_corpus(bundle_dir, run_dir, corpus_bin, tmp_path):
    tpvs = bundle_dir / "tpvs.jsonl"
    with_orphans = tmp_path / "tpvs_with_orphans.jsonl"
    with_orphans.write_text(tpvs.read_text() + "".join(
        json.dumps({"tweet_id": f"orphan-{i}", "probs": [0.0] * i + [1.0] + [0.0] * (19 - i)}) + "\n"
        for i in range(20)
    ))
    outputs = []
    for path in (tpvs, with_orphans):
        outputs.append(tmp_path / f"{path.stem}.designations.json")
        result = CliRunner().invoke(main, [
            "detect", "--corpus", str(corpus_bin), "--tpv", str(path),
            "--catalog", str(run_dir / "topics" / "catalog.tsv"), "--k", "20",
            "--toxicity-cache", str(bundle_dir / "toxicity_cache.jsonl"),
            "--groups", str(run_dir / "group" / "groups.json"), "--group", "VII", "--out", str(outputs[-1]),
        ])
        assert result.exit_code == 0, result.output
    assert "20 topic vectors reference unknown tweets" in result.output
    assert outputs[1].read_bytes() == outputs[0].read_bytes()


@pytest.mark.parametrize("command, exit_code", [("group", 13), ("detect", 15)])
def test_group_and_detect_commands_fail_as_a_run_when_k_does_not_match_the_catalog(
    bundle_dir, run_dir, corpus_bin, tmp_path, command, exit_code,
):
    tpvs, catalog = bundle_dir / "tpvs.jsonl", run_dir / "topics" / "catalog.tsv"
    with pytest.raises(Exception) as run_error:  # a run with K=200 over the same K=20 files
        topic_vectors(200, 5, str(tpvs), str(catalog))
    out = tmp_path / "out.json"
    args = [command, "--corpus", str(corpus_bin), "--tpv", str(tpvs),
            "--catalog", str(catalog), "--k", "200", "--out", str(out)]
    if command == "detect":
        args += ["--toxicity-cache", str(bundle_dir / "toxicity_cache.jsonl"),
                 "--groups", str(run_dir / "group" / "groups.json"), "--group", "VII"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == exit_code, result.output
    assert f"error [{command}]: {run_error.value}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("gate", ["p150", "p-1", "pnan", "abs:nan", "abs:inf"])
def test_detect_command_rejects_an_out_of_range_or_non_finite_tox_gate(bundle_dir, run_dir, corpus_bin, tmp_path, gate):
    out = tmp_path / "designations.json"
    result = CliRunner().invoke(main, [
        "detect", "--corpus", str(corpus_bin),
        "--tpv", str(bundle_dir / "tpvs.jsonl"), "--catalog", str(run_dir / "topics" / "catalog.tsv"),
        "--k", "20", "--toxicity-cache", str(bundle_dir / "toxicity_cache.jsonl"),
        "--groups", str(run_dir / "group" / "groups.json"), "--group", "VII",
        "--tox-gate", gate, "--out", str(out),
    ])
    assert result.exit_code == 2, result.output  # the exit code of a config error
    assert "bad tox gate" in result.output
    assert not out.exists()


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
    result = runner.invoke(main, ["ingest", "--tweets", str(tweets), "--out", str(tmp_path / "corpus.bin")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [
        "topics", "--baseline", "--corpus", str(tmp_path / "corpus.bin"),
        "--k", "20", "--seed", "9", "--out", str(tmp_path / "topics"),
    ])
    assert result.exit_code == 0, result.output
    for name in ("tpvs.jsonl", "catalog.tsv"):
        assert (tmp_path / "topics" / name).read_bytes() == (tmp_path / "run" / "topics" / name).read_bytes()


def _stage_args(bundle_dir, run_dir, corpus_bin, tmp_path):
    """Arguments that each command that reads a file completes with, by command."""
    features = str(run_dir / "features" / "features.jsonl")
    svm = str(run_dir / "classify" / "model_linear_svm.json")
    tox, tpvs = str(bundle_dir / "toxicity_cache.jsonl"), str(bundle_dir / "tpvs.jsonl")
    groups, labels = str(run_dir / "group" / "groups.json"), str(bundle_dir / "labels.csv")
    out = str(tmp_path / "out")
    bots = tmp_path / "bots.csv"
    bots.write_text("profile_id,overall,spammer\np0,0.1,0.2\n")
    return {
        "ingest": {"--tweets": str(bundle_dir / "tweets.jsonl"), "--profiles": str(bundle_dir / "profiles.jsonl"),
                   "--out": out},
        "score": {"--corpus": str(corpus_bin), "--backend": "file", "--toxicity-file": tox,
                  "--bot-file": str(bots), "--bot-cache": str(tmp_path / "bot_cache.jsonl"),
                  "--toxicity-cache": out},
        "topics": {"--tpv": tpvs, "--catalog": str(run_dir / "topics" / "catalog.tsv"), "--k": "20", "--out": out},
        "topics --baseline": {"--corpus": str(corpus_bin), "--k": "20", "--out": out},
        "group": {"--corpus": str(corpus_bin), "--tpv": tpvs, "--k": "20", "--out": out},
        "metrics": {"--corpus": str(corpus_bin), "--toxicity-cache": tox, "--out": out},
        "detect": {"--corpus": str(corpus_bin), "--tpv": tpvs, "--k": "20", "--toxicity-cache": tox,
                   "--groups": groups, "--group": "VII", "--out": out},
        "kappa": {"--ratings": None},
        "synth": {"--spec": None, "--out": out},
        "train": {"--labels": labels, "--features": features, "--out": out},
        "evaluate": {"--model": svm, "--features": features, "--labels": labels},
        "ablate": {"--labels": labels, "--features": features, "--out": out},
        "flag": {"--model": svm, "--features": features, "--groups": groups, "--exclude-group": "VII", "--out": out},
        "run": {"--config": None, "--out": out},
    }


@pytest.mark.parametrize("command, option, exit_code", [
    ("ingest", "--tweets", 10), ("ingest", "--profiles", 10),
    ("score", "--corpus", 11), ("score", "--toxicity-file", 11), ("score", "--bot-file", 11),
    ("topics", "--tpv", 12), ("topics", "--catalog", 12), ("topics --baseline", "--corpus", 12),
    ("group", "--corpus", 13), ("group", "--tpv", 13),
    ("metrics", "--corpus", 14), ("metrics", "--toxicity-cache", 14),
    ("detect", "--corpus", 15), ("detect", "--toxicity-cache", 15), ("detect", "--groups", 15),
    ("kappa", "--ratings", 15), ("synth", "--spec", 2),
    ("train", "--features", 17), ("evaluate", "--model", 17), ("ablate", "--labels", 17),
    ("flag", "--model", 17), ("flag", "--groups", 17),
    ("run", "--config", 2),
])
def test_every_command_fails_on_an_unreadable_input_with_its_stage_error(
    bundle_dir, run_dir, corpus_bin, tmp_path, command, option, exit_code,
):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe neither UTF-8, gzip nor JSON\n")
    args = {**_stage_args(bundle_dir, run_dir, corpus_bin, tmp_path)[command], option: str(bad)}
    result = CliRunner().invoke(main, [*command.split(), *(part for kv in args.items() for part in kv)])
    assert result.exit_code == exit_code, result.output
    assert type(result.exception) is SystemExit  # an uncaught exception would end in a traceback
    assert result.stderr.startswith("error ["), result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command, option, exit_code", [
    ("ingest", "--out", 10), ("score", "--toxicity-cache", 11), ("score", "--bot-cache", 11),
    ("topics", "--out", 12), ("group", "--out", 13), ("metrics", "--out", 14), ("detect", "--out", 15),
    ("ablate", "--out", 17), ("flag", "--out", 17),
])
def test_every_command_fails_on_an_out_path_it_cannot_write_with_its_stage_error(
    bundle_dir, run_dir, corpus_bin, tmp_path, command, option, exit_code,
):
    # a file stands where the out path needs a directory, which topics, making
    # its out dir with its parents, cannot create either
    not_a_dir = tmp_path / "missing"
    not_a_dir.write_text("")
    args = {**_stage_args(bundle_dir, run_dir, corpus_bin, tmp_path)[command], option: str(not_a_dir / "out")}
    result = CliRunner().invoke(main, [command, *(part for kv in args.items() for part in kv)])
    assert result.exit_code == exit_code, result.output
    assert type(result.exception) is SystemExit  # an uncaught exception would end in a traceback
    assert result.stderr.startswith("error ["), result.stderr
    assert "Traceback" not in result.stderr


def test_a_version_1_corpus_cache_is_refused_by_load_corpus_and_the_stage_commands(
    bundle_dir, corpus_bin, tmp_path,
):
    # version 1 held each tweet's raw text, profile id and mention count beside its six fields
    payload = json.loads(gzip.decompress(corpus_bin.read_bytes()))
    payload["version"] = 1
    for entry in payload["profiles"]:
        for tweet in entry["tweets"]:
            tweet.update(profile_id=entry["profile_id"], text_raw=tweet["text_norm"], mentions_count=0)
    old = tmp_path / "corpus_v1.bin"
    old.write_bytes(gzip.compress(canonical_dumps(payload).encode("utf-8"), compresslevel=1, mtime=0))
    with pytest.raises(IngestError, match="unsupported corpus cache version 1"):
        load_corpus(old)
    out = tmp_path / "groups.json"
    result = CliRunner().invoke(main, [
        "group", "--corpus", str(old), "--tpv", str(bundle_dir / "tpvs.jsonl"), "--k", "20", "--out", str(out),
    ])
    assert result.exit_code == 13, result.output
    assert "error [group]: unsupported corpus cache version 1" in result.output
    assert not out.exists()


@pytest.mark.parametrize("lines, warning", [
    ('{"profile_id": "zz", "followers": 1e999}\nnot json\n', "2 malformed profile metadata lines were skipped"),
    (None, "corpus is empty after filtering"),
])
def test_ingest_command_warns_as_the_ingest_stage_of_a_run(bundle_dir, tmp_path, lines, warning):
    tweets, profiles = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    if lines is None:  # every profile is short
        write_tweet_lines(tweets, [tweet_row(f"t{i}", "p", ts=BASE_TS + i) for i in range(3)])
        profiles.write_text("")
    else:
        tweets.write_bytes((bundle_dir / "tweets.jsonl").read_bytes())
        profiles.write_text((bundle_dir / "profiles.jsonl").read_text() + lines)
    result = CliRunner().invoke(main, [
        "ingest", "--tweets", str(tweets), "--profiles", str(profiles), "--out", str(tmp_path / "corpus.bin"),
    ])
    assert result.exit_code == 0, result.output
    assert f"warning: {warning}" in result.stderr.splitlines()
    config = _run_config(bundle_dir, tmp_path / "config.json", tweets=str(tweets), profiles=str(profiles),
                         toxicity_backend="file", toxicity_path=str(bundle_dir / "toxicity_cache.jsonl"))
    with pytest.warns(UserWarning):
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "run" / "report" / "report.json").read_text())
    assert f"ingest: {warning}" in report["warnings"]


@pytest.mark.parametrize("override, error", [
    ({"K": -1}, "K must be at least 1, not -1"),
    ({"K": 0}, "K must be at least 1, not 0"),
    ({"sample_n": -3}, "sample_n must not be negative, not -3"),
    ({"min_cluster": 0}, "min_cluster must be at least 1, not 0"),
    ({"min_cluster": -5}, "min_cluster must be at least 1, not -5"),
])
def test_run_rejects_an_out_of_range_count_as_a_config_error(bundle_dir, tmp_path, override, error):
    config = _run_config(bundle_dir, tmp_path / "config.json", toxicity_backend="file",
                         toxicity_path=str(bundle_dir / "toxicity_cache.jsonl"), **override)
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert f"error [config]: stage config: {error}" in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, option, value", [
    ("topics", "--k", "0"), ("group", "--k", "0"), ("detect", "--k", "-1"),
    ("detect", "--min-cluster", "0"), ("detect", "--min-cluster", "-5"),
    ("flag", "--sample", "-3"),
    ("score", "--rps", "0"), ("score", "--rps", "-2"), ("score", "--rps", "nan"), ("score", "--rps", "inf"),
])
def test_stage_commands_reject_an_out_of_range_count_as_a_usage_error(
    bundle_dir, run_dir, corpus_bin, tmp_path, command, option, value,
):
    args = {**_stage_args(bundle_dir, run_dir, corpus_bin, tmp_path)[command], option: value}
    result = CliRunner().invoke(main, [command, *(part for kv in args.items() for part in kv)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert not (tmp_path / "out").exists()
