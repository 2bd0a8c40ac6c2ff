import json

import pytest

from mission_profiler.ingest import ProfileTimeline, Tweet
from mission_profiler import scores, synth
from mission_profiler.util import canonical_dumps

BASE_TS = 1_600_000_000


def make_tweet(tweet_id, text="hello world", ts=BASE_TS, is_retweet=False, hashtags=(), urls=()):
    from mission_profiler.ingest import normalize_tweet

    return Tweet(
        tweet_id=str(tweet_id),
        text_norm=normalize_tweet(text),
        timestamp=ts,
        is_retweet=is_retweet,
        hashtags=tuple(hashtags),
        urls=tuple(urls),
    )


def make_timeline(profile_id, texts=None, tweets=None, metadata=None, start_ts=BASE_TS, step=3600):
    if tweets is None:
        tweets = [
            make_tweet(f"{profile_id}-{i}", text, start_ts + i * step)
            for i, text in enumerate(texts or [])
        ]
    return ProfileTimeline(profile_id=profile_id, tweets=tuple(tweets), metadata=metadata)


class FailingScorer:
    """Stands in for HTTPToxicityClient: a deterministic score per tweet,
    until fail_after requests have been answered."""

    name = "http"
    fail_after = None
    requests: list = []

    def score(self, tweet_id, text):
        if self.fail_after is not None and len(self.requests) >= self.fail_after:
            raise scores.BackendUnavailable("connection refused")
        self.requests.append(tweet_id)
        return sum(map(ord, tweet_id)) % 100 / 100


class FakeClock:
    """Stands in for the time module: sleeping moves the clock on."""

    def __init__(self):
        self.now = 100.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def write_tweet_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(canonical_dumps(row) + "\n")


# labels files a load stops on, and the end of the error it gives: a row
# without a label column, bytes that are not UTF-8, a label that is no
# class (both used to load as genuine) and a profile listed twice (the
# last row used to win)
BAD_LABELS = [
    (b"profile_id,label\np1,on_mission\n\np2\n", "row 4: no label column"),
    (b"profile_id,label\np1,on_mission\np2,genu\xefne\n", "row 3: not UTF-8 text"),
    (b"profile_id,label\np1,on-mission\n", "row 2: label 'on-mission' is none of on_mission, 1, true, genuine, "
                                           "not_on_mission, 0, false"),
    (b"profile_id,label\np2,on_mission\np3,genuine\np2,genuine\n", "row 4: profile p2 has an earlier row"),
]


def tweet_row(tweet_id, profile_id, text="ten tokens of text a b c d e f g", ts=BASE_TS, **kw):
    row = {
        "tweet_id": str(tweet_id),
        "profile_id": profile_id,
        "text": text,
        "created_at": ts,
        "is_retweet": False,
        "hashtags": [],
        "urls": [],
        "mentions": 0,
    }
    row.update(kw)
    return row


@pytest.fixture(scope="session")
def acceptance_bundle(tmp_path_factory):
    """Seed-42 synthetic bundle: 100 on-mission + 100 genuine profiles."""
    out = tmp_path_factory.mktemp("bundle42")
    specs = synth.default_specs(n_on_mission=100, n_genuine=100)
    bundle = synth.generate(specs, K=20, seed=42)
    paths = synth.write_bundle(bundle, out)
    config = {
        "tweets": str(paths["tweets"]),
        "profiles": str(paths["profiles"]),
        "tpvs": str(paths["tpvs"]),
        "K": 20,
        "toxicity_backend": "file",
        "toxicity_path": str(paths["toxicity"]),
        "labels": str(paths["labels"]),
        "detect_group": "VII",
        "seed": 42,
    }
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    return {"bundle": bundle, "paths": paths, "config": config, "config_path": config_path, "dir": out}
