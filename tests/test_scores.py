import http.server
import json
import random
import threading

import pytest

from mission_profiler.ingest import Corpus, IngestStats
from mission_profiler.scores import (
    BackendUnavailable,
    HTTPToxicityClient,
    MockBotClient,
    MockToxicityClient,
    ScoreCache,
    ScoreError,
    bot_score_summary,
    load_precomputed_scores,
    load_score_source,
    score_bots,
    score_toxicity,
)

from conftest import make_timeline


def _corpus(n_profiles=2, tweets_each=5):
    profiles = {}
    for p in range(n_profiles):
        pid = f"p{p}"
        profiles[pid] = make_timeline(pid, texts=[f"tweet {p} {i}" for i in range(tweets_each)])
    return Corpus(profiles=profiles, ingest_stats=IngestStats())


def test_mock_scores_everything():
    corpus = _corpus()
    cache = score_toxicity(corpus, MockToxicityClient(0.5), backoff_base=0.0)
    ids = {t.tweet_id for t in corpus.all_tweets()}
    assert set(cache.toxicity) == ids
    assert all(v == 0.5 for v in cache.toxicity.values())
    assert cache.missing == set()


def test_warm_cache_makes_zero_backend_calls():
    corpus = _corpus()
    cache = score_toxicity(corpus, MockToxicityClient(0.3), backoff_base=0.0)

    calls = []

    class CountingClient:
        name = "counting"

        def score(self, tweet_id, text):
            calls.append(tweet_id)
            return 0.9

    score_toxicity(corpus, CountingClient(), cache=cache, backoff_base=0.0)
    assert calls == []
    assert all(v == 0.3 for v in cache.toxicity.values())


def test_retries_exhausted_lands_in_missing():
    corpus = _corpus(n_profiles=1, tweets_each=100)
    bad_id = sorted(t.tweet_id for t in corpus.all_tweets())[17]

    class FlakyClient:
        name = "flaky"

        def score(self, tweet_id, text):
            if tweet_id == bad_id:
                raise ScoreError("permanent failure")
            return 0.4

    cache = score_toxicity(corpus, FlakyClient(), max_retries=2, backoff_base=0.0)
    assert len(cache.toxicity) == 99
    assert cache.missing == {bad_id}


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
        score_toxicity(corpus, DyingClient(), cache=cache, backoff_base=0.0)
    assert len(cache.toxicity) == 4


def test_deterministic_given_deterministic_client():
    corpus = _corpus()
    client = MockToxicityClient(lambda tid, text: (hash(tid) % 100) / 100.0)
    a = score_toxicity(corpus, client, backoff_base=0.0)
    b = score_toxicity(corpus, client, backoff_base=0.0)
    assert a.toxicity == b.toxicity


def test_accounting_total():
    corpus = _corpus(n_profiles=3, tweets_each=7)

    class HalfClient:
        name = "half"

        def score(self, tweet_id, text):
            if tweet_id.endswith(("1", "3")):
                raise ScoreError("nope")
            return 0.1

    cache = score_toxicity(corpus, HalfClient(), max_retries=0, backoff_base=0.0)
    total = len({t.tweet_id for t in corpus.all_tweets()})
    assert len(cache.toxicity) + len(cache.missing) == total


# -- precomputed loading -------------------------------------------------------

def test_load_csv_toxicity(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("t1,0.9\nt2,0.25\n")
    cache, rejects = load_precomputed_scores(path)
    assert rejects == []
    assert cache.toxicity == {"t1": 0.9, "t2": 0.25}


def test_out_of_range_rejected_with_row_number(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("t1,0.9\nt2,1.3\nt3,0.1\n")
    cache, rejects = load_precomputed_scores(path)
    assert set(cache.toxicity) == {"t1", "t3"}
    assert len(rejects) == 1
    assert rejects[0][0] == 2


def test_load_bot_rows_csv(tmp_path):
    path = tmp_path / "bots.csv"
    path.write_text("profile_id,overall,spammer\np1,0.8,0.2\np2,0.1,0.05\n")
    cache, rejects = load_precomputed_scores(path)
    assert rejects == []
    assert cache.bots["p1"].overall == 0.8
    assert cache.bots["p2"].spammer == 0.05


def test_load_jsonl_rows(tmp_path):
    path = tmp_path / "scores.jsonl"
    rows = [{"tweet_id": "t1", "score": 0.5}, {"profile_id": "p1", "overall": 0.3, "spammer": 0.1}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    cache, rejects = load_precomputed_scores(path)
    assert rejects == []
    assert cache.toxicity["t1"] == 0.5
    assert cache.bots["p1"].overall == 0.3


def test_round_trip_10k_rows(tmp_path):
    rng = random.Random(99)
    src = tmp_path / "big.csv"
    with open(src, "w") as fh:
        for i in range(10_000):
            fh.write(f"t{i},{rng.random():.6f}\n")
    cache, rejects = load_precomputed_scores(src)
    assert rejects == []
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
    assert loaded.bots["p1"].overall == 0.7
    assert loaded.missing == {"t9"}
    assert loaded.provenance("t1") == "mock"


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
    assert s.overall_mean == pytest.approx(0.3)
    assert s.overall_std == pytest.approx(0.1)  # population std
    assert s.n_missing == 0


def test_bot_summary_single_profile():
    cache = ScoreCache()
    cache.put_bots("a", 0.7, 0.7)
    s = bot_score_summary(["a"], cache)
    assert s.overall_mean == pytest.approx(0.7)
    assert s.overall_std == 0.0


def test_bot_summary_uniform_random_mean():
    rng = random.Random(42)
    cache = ScoreCache()
    ids = []
    for i in range(1000):
        pid = f"p{i}"
        cache.put_bots(pid, rng.random(), rng.random())
        ids.append(pid)
    s = bot_score_summary(ids, cache)
    assert abs(s.overall_mean - 0.5) < 0.03  # 3 sigma of uniform mean over n=1000


def test_bot_summary_empty_group():
    with pytest.raises(ValueError):
        bot_score_summary([], ScoreCache())


def test_bot_summary_counts_missing():
    cache = ScoreCache()
    cache.put_bots("a", 0.5, 0.5)
    s = bot_score_summary(["a", "b", "c"], cache)
    assert s.n_scored == 1
    assert s.n_missing == 2


def test_score_bots_mock():
    corpus = _corpus()
    cache = score_bots(corpus, MockBotClient(overall=0.25, spammer=0.1))
    assert set(cache.bots) == set(corpus.profiles)
    assert all(b.overall == 0.25 for b in cache.bots.values())


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


def test_http_client_round_trip():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Scorer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}/"
        client = HTTPToxicityClient(url=url, token="secret")
        corpus = _corpus(n_profiles=1, tweets_each=5)
        cache = score_toxicity(corpus, client, backoff_base=0.0)
        assert len(cache.toxicity) == 5
        assert all(0 <= v <= 1 for v in cache.toxicity.values())
        assert cache.provenance(next(iter(cache.toxicity))) == "http"
    finally:
        server.shutdown()
        server.server_close()


def test_http_client_requires_url(monkeypatch):
    monkeypatch.delenv("MISSION_PROFILER_TOXICITY_URL", raising=False)
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
    assert table.bots["p1"].spammer == 0.2
    (tmp_path / "bad.csv").write_text("t1,0.5\nt2,1.5\n")
    with pytest.raises(ValueError, match="1 invalid score rows"):
        load_score_source(tmp_path / "bad.csv")


def test_out_of_range_backend_response_lands_in_missing():
    corpus = _corpus(n_profiles=1, tweets_each=5)

    class BrokenClient:
        name = "broken"

        def score(self, tweet_id, text):
            return 1.7 if tweet_id.endswith("2") else 0.3

    cache = score_toxicity(corpus, BrokenClient(), max_retries=1, backoff_base=0.0)
    assert len(cache.toxicity) == 4
    assert len(cache.missing) == 1
