import http.server
import json
import random
import threading

import pytest

from mission_profiler import scores
from mission_profiler.ingest import Corpus, IngestStats
from mission_profiler.scores import (
    CACHE_FORMAT,
    CACHE_VERSION,
    TOXICITY_TOKEN_ENV,
    TOXICITY_URL_ENV,
    BackendUnavailable,
    HTTPToxicityClient,
    ScoreCache,
    ScoreError,
    bot_score_summary,
    bot_scores,
    load_score_source,
    score_toxicity,
    toxicity_scores,
)

from conftest import FakeClock, make_timeline


def _corpus(n_profiles=2, tweets_each=5):
    profiles = {}
    for p in range(n_profiles):
        pid = f"p{p}"
        profiles[pid] = make_timeline(pid, texts=[f"tweet {p} {i}" for i in range(tweets_each)])
    return Corpus(profiles=profiles, ingest_stats=IngestStats())


@pytest.fixture
def clock(monkeypatch):
    """The scoring loop's time: its backoff and rate-limit waits are
    recorded, not slept."""
    fake = FakeClock()
    monkeypatch.setattr(scores, "time", fake)
    return fake


def test_mock_scores_everything(tmp_path):
    corpus = _corpus()
    cache = toxicity_scores(corpus, "mock", None, 0.5, tmp_path / "resume.jsonl")
    ids = {t.tweet_id for t in corpus.all_tweets()}
    assert set(cache.toxicity) == ids
    assert all(v == 0.5 for v in cache.toxicity.values())
    assert {cache.provenance(t) for t in ids} == {"mock"}
    assert cache.missing == set()


def test_warm_cache_makes_zero_backend_calls(tmp_path):
    corpus = _corpus()
    cache = toxicity_scores(corpus, "mock", None, 0.3, tmp_path / "resume.jsonl")

    calls = []

    class CountingClient:
        name = "counting"

        def score(self, tweet_id, text):
            calls.append(tweet_id)
            return 0.9

    score_toxicity(corpus, CountingClient(), cache)
    assert calls == []
    assert all(v == 0.3 for v in cache.toxicity.values())


def test_retries_exhausted_lands_in_missing(clock, monkeypatch):
    monkeypatch.setattr(scores, "MAX_RETRIES", 2)
    corpus = _corpus(n_profiles=1, tweets_each=100)
    bad_id = sorted(t.tweet_id for t in corpus.all_tweets())[17]

    class FlakyClient:
        name = "flaky"

        def score(self, tweet_id, text):
            if tweet_id == bad_id:
                raise ScoreError("permanent failure")
            return 0.4

    cache = score_toxicity(corpus, FlakyClient(), ScoreCache())
    assert len(cache.toxicity) == 99
    assert cache.missing == {bad_id}
    assert clock.sleeps == [0.5, 1.0]  # backoff before each retry, none after the last


def test_backend_unavailable_keeps_partial_cache():
    corpus = _corpus(n_profiles=1, tweets_each=10)
    seen = []

    class DyingClient:
        name = "dying"

        def score(self, tweet_id, text):
            if len(seen) >= 4:
                raise BackendUnavailable("connection refused")
            seen.append(tweet_id)
            return 0.2

    cache = ScoreCache()
    with pytest.raises(BackendUnavailable):
        score_toxicity(corpus, DyingClient(), cache)
    assert len(cache.toxicity) == 4


def test_deterministic_given_deterministic_client():
    corpus = _corpus()

    class HashClient:
        name = "hash"

        def score(self, tweet_id, text):
            return (hash(tweet_id) % 100) / 100.0

    client = HashClient()
    a = score_toxicity(corpus, client, ScoreCache())
    b = score_toxicity(corpus, client, ScoreCache())
    assert a.toxicity == b.toxicity


def test_accounting_total(monkeypatch):
    monkeypatch.setattr(scores, "MAX_RETRIES", 0)
    corpus = _corpus(n_profiles=3, tweets_each=7)

    class HalfClient:
        name = "half"

        def score(self, tweet_id, text):
            if tweet_id.endswith(("1", "3")):
                raise ScoreError("nope")
            return 0.1

    cache = score_toxicity(corpus, HalfClient(), ScoreCache())
    total = len({t.tweet_id for t in corpus.all_tweets()})
    assert len(cache.toxicity) + len(cache.missing) == total


def test_rate_limit_spaces_the_starts_of_requests(clock):
    starts = []

    class SlowClient:  # each request takes 0.1 s
        name = "slow"

        def score(self, tweet_id, text):
            starts.append(clock.now)
            clock.now += 0.1
            return 0.5

    corpus = _corpus(n_profiles=1, tweets_each=5)
    score_toxicity(corpus, SlowClient(), ScoreCache(), rate_limit=4.0)
    assert starts == pytest.approx([100.0, 100.25, 100.5, 100.75, 101.0])
    assert clock.sleeps == pytest.approx([0.15] * 4)

    starts.clear()
    clock.sleeps.clear()
    score_toxicity(corpus, SlowClient(), ScoreCache())  # no limit: back to back
    assert starts == pytest.approx([101.1, 101.2, 101.3, 101.4, 101.5])
    assert clock.sleeps == []


# -- precomputed loading -------------------------------------------------------

def test_load_csv_toxicity(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("t1,0.9\nt2,0.25\n")
    cache = load_score_source(path)
    assert cache.toxicity == {"t1": 0.9, "t2": 0.25}


def test_out_of_range_rejected_with_row_number(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("t1,0.9\nt2,1.3\nt3,0.1\n")
    with pytest.raises(ValueError, match=r"^1 invalid score rows \(rows 2\)$"):
        load_score_source(path)


def test_load_bot_rows_csv(tmp_path):
    path = tmp_path / "bots.csv"
    path.write_text("profile_id,overall,spammer\np1,0.8,0.2\np2,0.1,0.05\n")
    cache = load_score_source(path)
    assert cache.bots["p1"]["overall"] == 0.8
    assert cache.bots["p2"]["spammer"] == 0.05


def test_load_jsonl_rows(tmp_path):
    path = tmp_path / "scores.jsonl"
    rows = [{"tweet_id": "t1", "score": 0.5}, {"profile_id": "p1", "overall": 0.3, "spammer": 0.1}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    cache = load_score_source(path)
    assert cache.toxicity["t1"] == 0.5
    assert cache.bots["p1"]["overall"] == 0.3


def test_round_trip_10k_rows(tmp_path):
    rng = random.Random(99)
    src = tmp_path / "big.csv"
    with open(src, "w") as fh:
        for i in range(10_000):
            fh.write(f"t{i},{rng.random():.6f}\n")
    cache = load_score_source(src)
    out1 = tmp_path / "cache1.jsonl"
    out2 = tmp_path / "cache2.jsonl"
    cache.save(out1)
    ScoreCache.load(out1).save(out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_cache_save_load_preserves_missing_and_bots(tmp_path):
    cache = ScoreCache()
    cache.put_toxicity("t1", 0.25, source="mock")
    cache.put_bots("p1", 0.7, 0.1, source="file")
    cache.missing.add("t9")
    path = tmp_path / "cache.jsonl"
    cache.save(path)
    loaded = ScoreCache.load(path)
    assert loaded.toxicity == {"t1": 0.25}
    assert loaded.bots["p1"]["overall"] == 0.7
    assert loaded.missing == {"t9"}
    assert loaded.provenance("t1") == "mock"


def test_cache_row_without_a_key_is_a_value_error_naming_file_and_row(tmp_path):
    path = tmp_path / "bots.jsonl"
    header = json.dumps({"format": CACHE_FORMAT, "version": CACHE_VERSION})
    path.write_text(header + "\n\n" + json.dumps({"kind": "bots", "profile_id": "x", "overall": 0.5}) + "\n")
    with pytest.raises(ValueError, match=r"bots\.jsonl: row 3 \('bots'\) lacks the key 'spammer'"):
        ScoreCache.load(path)


OVERLONG_INTEGER = "1" + "0" * 5000  # a JSON integer over Python's 4,300-digit limit for reading one


@pytest.mark.parametrize("row, error", [
    ("5", "not a JSON object"), ("{bad", "bad json"),
    pytest.param('{"kind": "toxicity", "tweet_id": "t1", "score": ' + OVERLONG_INTEGER + "}",
                 "bad json: Exceeds the limit", id="overlong_integer"),
])
def test_cache_row_that_is_no_json_object_is_a_value_error_naming_file_and_row(tmp_path, row, error):
    path = tmp_path / "cache.jsonl"
    header = json.dumps({"format": CACHE_FORMAT, "version": CACHE_VERSION})
    path.write_text(header + "\n" + json.dumps({"kind": "missing", "tweet_id": "t1"}) + "\n" + row + "\n")
    with pytest.raises(ValueError, match=rf"cache\.jsonl: row 3: {error}"):
        load_score_source(path)


HUGE_INTEGER = "1" + "0" * 400  # a JSON integer too large for a float


def test_cache_row_with_a_huge_integer_score_is_a_value_error_naming_file_and_row(tmp_path):
    path = tmp_path / "cache.jsonl"
    header = json.dumps({"format": CACHE_FORMAT, "version": CACHE_VERSION})
    path.write_text(header + "\n" + '{"kind": "toxicity", "tweet_id": "t1", "score": ' + HUGE_INTEGER + "}\n")
    with pytest.raises(ValueError, match=r"cache\.jsonl: row 2: toxicity score inf outside \[0, 1\]"):
        ScoreCache.load(path)


@pytest.mark.parametrize("header, row, error", [
    ({"format": "another-format", "version": CACHE_VERSION}, None, "not a score cache: {path}"),
    ({"format": CACHE_FORMAT, "version": CACHE_VERSION + 1}, None, f"unsupported score cache version {CACHE_VERSION + 1}"),
    ({"format": CACHE_FORMAT, "version": CACHE_VERSION}, {"kind": "scores", "tweet_id": "t1"},
     "{path}: row 2: unknown cache row kind 'scores'"),
], ids=["format", "version", "row_kind"])
def test_a_cache_of_another_format_or_version_or_row_kind_is_refused(tmp_path, header, row, error):
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in (header, row) if line is not None))
    with pytest.raises(ValueError) as err:
        ScoreCache.load(path)
    assert str(err.value) == error.format(path=path)


def test_cache_row_with_a_score_that_is_no_number_is_a_value_error_naming_file_and_row(tmp_path):
    path = tmp_path / "cache.jsonl"
    header = json.dumps({"format": CACHE_FORMAT, "version": CACHE_VERSION})
    path.write_text(header + "\n\n" + json.dumps({"kind": "toxicity", "tweet_id": "t1", "score": None}) + "\n")
    with pytest.raises(ValueError, match=r"cache\.jsonl: row 3: "):
        ScoreCache.load(path)


@pytest.mark.parametrize("score", [True, False, "0.5", "1"], ids=["true", "false", "string", "string_integer"])
def test_a_jsonl_table_score_that_is_no_json_number_makes_an_invalid_row(tmp_path, score):
    path = tmp_path / "scores.jsonl"
    rows = [{"tweet_id": "t0", "score": 0.5}, {"tweet_id": "t1", "score": score},
            {"profile_id": "p1", "overall": score, "spammer": 0.1}, {"profile_id": "p2", "overall": 0.1, "spammer": score}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ValueError, match=r"^3 invalid score rows \(rows 2, 3, 4\)$"):
        load_score_source(path)
    (tmp_path / "scores.csv").write_text("t0,0.5\nt1,1\n")  # a CSV score is text, read as a number
    assert load_score_source(tmp_path / "scores.csv").toxicity == {"t0": 0.5, "t1": 1.0}


@pytest.mark.parametrize("row", [
    {"kind": "toxicity", "tweet_id": "t1", "score": True},
    {"kind": "toxicity", "tweet_id": "t1", "score": "0.5"},
    {"kind": "bots", "profile_id": "p1", "overall": False, "spammer": 0.1},
    {"kind": "bots", "profile_id": "p1", "overall": 0.1, "spammer": "0"},
], ids=["toxicity_true", "toxicity_string", "overall_false", "spammer_string"])
def test_cache_row_with_a_score_that_is_no_json_number_is_a_value_error_naming_file_and_row(tmp_path, row):
    path = tmp_path / "cache.jsonl"
    header = json.dumps({"format": CACHE_FORMAT, "version": CACHE_VERSION})
    path.write_text(header + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match=r"cache\.jsonl: row 2: score .+ is not a number$"):
        ScoreCache.load(path)


def test_table_row_with_a_huge_integer_score_is_an_invalid_row(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"tweet_id": "t0", "score": 0.5}\n{"tweet_id": "t1", "score": ' + HUGE_INTEGER + "}\n")
    with pytest.raises(ValueError, match=r"^1 invalid score rows \(rows 2\)$"):
        load_score_source(path)


def test_table_row_with_an_overlong_integer_is_an_invalid_row(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"tweet_id": "t0", "score": 0.5}\n{"tweet_id": "t1", "score": ' + OVERLONG_INTEGER + "}\n")
    with pytest.raises(ValueError, match=r"^1 invalid score rows \(rows 2\)$"):
        load_score_source(path)


@pytest.mark.parametrize("text", ["t1,abc\nt2,0.5\n", "t1,\nt2,0.5\n", "id,score\nt2,0.5\n"],
                         ids=["not_a_number", "empty_score", "unknown_header"])
def test_a_csv_first_row_is_a_header_only_when_it_names_the_id_column(tmp_path, text):
    # only a first field naming the id column makes a header; any other first row is data
    path = tmp_path / "scores.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"^1 invalid score rows \(rows 1\)$"):
        load_score_source(path)
    for header in ("tweet_id,score\n", "\ufefftweet_id,score\n", "\ufeff"):  # the last without a header
        path.write_text(header + "t2,0.5\n", encoding="utf-8")
        assert load_score_source(path).toxicity == {"t2": 0.5}


@pytest.mark.parametrize("kind, row", [
    ("toxicity", {"kind": "toxicity", "score": 0.5}),
    ("bots", {"kind": "bots", "overall": 0.5, "spammer": 0.1}),
    ("missing", {"kind": "missing"}),
], ids=["toxicity", "bots", "missing"])
def test_a_cache_id_that_is_no_string_loads_as_text_and_saves_again(tmp_path, kind, row):
    # every reader reads an id as text, so the next save sorts them together
    key = "profile_id" if kind == "bots" else "tweet_id"
    path = tmp_path / "cache.jsonl"
    header = json.dumps({"format": CACHE_FORMAT, "version": CACHE_VERSION})
    path.write_text(header + "\n" + "".join(json.dumps({**row, key: id_}) + "\n" for id_ in (5, "a")))
    cache = ScoreCache.load(path)
    assert sorted(getattr(cache, kind)) == ["5", "a"]
    cache.save(tmp_path / "again.jsonl")
    assert sorted(getattr(ScoreCache.load(tmp_path / "again.jsonl"), kind)) == ["5", "a"]


def test_scores_validated_into_unit_interval():
    cache = ScoreCache()
    with pytest.raises(ValueError):
        cache.put_toxicity("t", 1.5)
    with pytest.raises(ValueError):
        cache.put_bots("p", -0.1, 0.5)


# -- bot score summaries ---------------------------------------------------------

def test_bot_summary_mean_std():
    cache = ScoreCache()
    cache.put_bots("a", 0.2, 0.2)
    cache.put_bots("b", 0.4, 0.4)
    s = bot_score_summary(["a", "b"], cache)
    assert s["overall_mean"] == pytest.approx(0.3)
    assert s["overall_std"] == pytest.approx(0.1)  # population std
    assert s["n_missing"] == 0


def test_bot_summary_single_profile():
    cache = ScoreCache()
    cache.put_bots("a", 0.7, 0.7)
    s = bot_score_summary(["a"], cache)
    assert s["overall_mean"] == pytest.approx(0.7)
    assert s["overall_std"] == 0.0


def test_bot_summary_uniform_random_mean():
    rng = random.Random(42)
    cache = ScoreCache()
    ids = []
    for i in range(1000):
        pid = f"p{i}"
        cache.put_bots(pid, rng.random(), rng.random())
        ids.append(pid)
    s = bot_score_summary(ids, cache)
    assert abs(s["overall_mean"] - 0.5) < 0.03  # 3 sigma of uniform mean over n=1000


def test_bot_summary_empty_group():
    with pytest.raises(ValueError):
        bot_score_summary([], ScoreCache())


def test_bot_summary_counts_missing():
    cache = ScoreCache()
    cache.put_bots("a", 0.5, 0.5)
    s = bot_score_summary(["a", "b", "c"], cache)
    assert s["n_scored"] == 1
    assert s["n_missing"] == 2


def test_bot_summary_of_a_group_with_no_scored_member_is_none():
    s = bot_score_summary(["a", "b"], ScoreCache())
    assert s == {
        "overall_mean": None, "overall_std": None, "spammer_mean": None, "spammer_std": None,
        "n_scored": 0, "n_missing": 2,
    }


def test_mock_bot_backend_gives_every_profile_the_constants():
    corpus = _corpus()
    cache = bot_scores(corpus, "mock", None)
    assert set(cache.bots) == set(corpus.profiles)
    assert all(b == {"overall": 0.2, "spammer": 0.1} for b in cache.bots.values())
    assert {cache.provenance(p) for p in corpus.profiles} == {"mock"}


# -- http backend ----------------------------------------------------------------

class _Scorer(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        score = min(len(payload["text"]) / 100.0, 1.0)
        body = json.dumps({"score": score}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_http_client_round_trip(monkeypatch):
    server = http.server.HTTPServer(("127.0.0.1", 0), _Scorer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv(TOXICITY_URL_ENV, f"http://127.0.0.1:{server.server_port}/")
        monkeypatch.setenv(TOXICITY_TOKEN_ENV, "secret")
        corpus = _corpus(n_profiles=1, tweets_each=5)
        cache = score_toxicity(corpus, HTTPToxicityClient(), ScoreCache())
        assert len(cache.toxicity) == 5
        assert all(0 <= v <= 1 for v in cache.toxicity.values())
        assert cache.provenance(next(iter(cache.toxicity))) == "http"
    finally:
        server.shutdown()
        server.server_close()


class _Statuses(http.server.BaseHTTPRequestHandler):
    """Answers `status` to every text, or only to texts ending in `bad_suffix`
    when one is set; other texts get a score. Records each text it is sent."""

    status = 400
    bad_suffix = None
    texts: list = []

    def do_POST(self):
        text = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["text"]
        self.texts.append(text)
        body = json.dumps({"score": 0.25}).encode()
        if self.bad_suffix is None or text.endswith(self.bad_suffix):
            body = b"rejected"
            self.send_response(self.status)
        else:
            self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _score_against(handler, monkeypatch):
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv(TOXICITY_URL_ENV, f"http://127.0.0.1:{server.server_port}/")
        return score_toxicity(_corpus(n_profiles=1, tweets_each=5), HTTPToxicityClient(), ScoreCache())
    finally:
        server.shutdown()
        server.server_close()


def test_http_client_lists_a_tweet_the_scorer_rejects_with_a_4xx_as_missing(clock, monkeypatch):
    monkeypatch.setattr(scores, "MAX_RETRIES", 1)
    handler = type("Rejects400", (_Statuses,), {"status": 400, "bad_suffix": "2", "texts": []})
    cache = _score_against(handler, monkeypatch)
    assert sorted(cache.toxicity) == ["p0-0", "p0-1", "p0-3", "p0-4"]
    assert cache.missing == {"p0-2"}
    assert handler.texts.count("tweet 0 2") == 2  # tried, then retried once


@pytest.mark.parametrize("status", [429, 500, 503])
def test_http_client_treats_429_and_5xx_as_an_unavailable_backend(status, monkeypatch):
    handler = type(f"Answers{status}", (_Statuses,), {"status": status, "texts": []})
    with pytest.raises(BackendUnavailable, match=str(status)):
        _score_against(handler, monkeypatch)
    assert len(handler.texts) == 1  # the first answer stops the run


class _HugeScores(_Statuses):
    """Answers a score too large for a float (or the integer `score`) to texts ending in 2."""

    score = HUGE_INTEGER

    def do_POST(self):
        text = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["text"]
        self.texts.append(text)
        body = ('{"score": ' + (self.score if text.endswith("2") else "0.25") + "}").encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_http_response_with_a_huge_integer_score_is_retried_then_listed_as_missing(clock, monkeypatch):
    monkeypatch.setattr(scores, "MAX_RETRIES", 1)
    handler = type("HugeScores", (_HugeScores,), {"texts": []})
    cache = _score_against(handler, monkeypatch)
    assert sorted(cache.toxicity) == ["p0-0", "p0-1", "p0-3", "p0-4"]
    assert cache.missing == {"p0-2"}
    assert handler.texts.count("tweet 0 2") == 2  # tried, then retried once


def test_http_response_with_an_overlong_integer_is_retried_then_listed_as_missing(clock, monkeypatch):
    monkeypatch.setattr(scores, "MAX_RETRIES", 1)
    handler = type("OverlongScores", (_HugeScores,), {"score": OVERLONG_INTEGER, "texts": []})
    cache = _score_against(handler, monkeypatch)
    assert sorted(cache.toxicity) == ["p0-0", "p0-1", "p0-3", "p0-4"]
    assert cache.missing == {"p0-2"}
    assert handler.texts.count("tweet 0 2") == 2  # tried, then retried once


@pytest.mark.parametrize("score", ["true", "false", '"0.5"'])
def test_http_response_with_a_score_that_is_no_json_number_is_retried_then_listed_as_missing(
    clock, monkeypatch, score,
):
    monkeypatch.setattr(scores, "MAX_RETRIES", 1)
    handler = type("TextScores", (_HugeScores,), {"score": score, "texts": []})
    cache = _score_against(handler, monkeypatch)
    assert sorted(cache.toxicity) == ["p0-0", "p0-1", "p0-3", "p0-4"]
    assert cache.missing == {"p0-2"}
    assert handler.texts.count("tweet 0 2") == 2  # tried, then retried once


def test_http_client_requires_url(monkeypatch):
    monkeypatch.delenv(TOXICITY_URL_ENV, raising=False)
    with pytest.raises(BackendUnavailable):
        HTTPToxicityClient()


def test_load_score_source_reads_cache_or_table(tmp_path):
    cache = ScoreCache()
    cache.put_toxicity("t1", 0.25, source="http")
    cache.save(tmp_path / "cache.jsonl")
    assert load_score_source(tmp_path / "cache.jsonl").provenance("t1") == "http"
    (tmp_path / "table.csv").write_text("tweet_id,score\nt1,0.5\nt2,0.75\np1,0.1,0.2\n")
    table = load_score_source(tmp_path / "table.csv")
    assert table.toxicity == {"t1": 0.5, "t2": 0.75}
    assert table.bots["p1"]["spammer"] == 0.2
    (tmp_path / "bad.csv").write_text("t1,0.5\nt2,1.5\n")
    with pytest.raises(ValueError, match="1 invalid score rows"):
        load_score_source(tmp_path / "bad.csv")


def test_invalid_table_rows_are_counted_and_listed_in_row_order(tmp_path):
    # bad JSON, a JSON value that is no object, an unknown shape and a score out of range
    rows = ['{"tweet_id": "t1", "score": 0.5}', "{bad", "5", '{"tweet_id": "t2"}', '{"tweet_id": "t3", "score": 2}',
            '{"tweet_id": "t4", "score": 0.1}', '{"profile_id": "p1", "overall": "x"}', "[1]"]
    (tmp_path / "bad.jsonl").write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"^6 invalid score rows \(rows 2, 3, 4, 5, 7\)$"):
        load_score_source(tmp_path / "bad.jsonl")


def test_out_of_range_backend_response_lands_in_missing(clock, monkeypatch):
    monkeypatch.setattr(scores, "MAX_RETRIES", 1)
    corpus = _corpus(n_profiles=1, tweets_each=5)

    class BrokenClient:
        name = "broken"

        def score(self, tweet_id, text):
            return 1.7 if tweet_id.endswith("2") else 0.3

    cache = score_toxicity(corpus, BrokenClient(), ScoreCache())
    assert len(cache.toxicity) == 4
    assert len(cache.missing) == 1
