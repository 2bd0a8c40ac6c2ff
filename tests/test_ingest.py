import random
import re
import string
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mission_profiler import ingest
from mission_profiler.ingest import (
    _EMOJI_TABLE,
    IngestError,
    emoji_alias,
    load_corpus,
    load_timelines,
    normalize_tweet,
    save_corpus,
    topic_model_eligible,
    unique_tweets,
)

from conftest import make_timeline, make_tweet, tweet_row, write_tweet_lines, BASE_TS


# -- normalize_tweet ---------------------------------------------------------

def test_mention_and_url_tokens():
    assert normalize_tweet("hi @bob see https://x.co/a") == "hi @USER see HTTPURL"


def test_empty_string():
    assert normalize_tweet("") == ""


def test_emoji_alias_from_table():
    # the bundled table maps U+1F525 to "fire"
    assert emoji_alias("\U0001F525") == "fire"
    assert normalize_tweet("go \U0001F525 now") == "go :fire: now"


def test_every_emoji_sequence_holds_a_non_ascii_codepoint():
    # normalize_tweet skips the emoji pass on ASCII-only text, and the scan
    # tries two codepoints, then one, at non-ASCII positions only
    assert _EMOJI_TABLE
    assert not [seq for seq in _EMOJI_TABLE if seq.isascii()]
    assert {len(seq) for seq in _EMOJI_TABLE} == {1, 2}
    assert not [seq for seq in _EMOJI_TABLE if seq[0].isascii()]


_EMOJI_KEYS = sorted(_EMOJI_TABLE)
_EMOJI_PIECES = st.one_of(
    st.sampled_from(_EMOJI_KEYS),
    st.just("\ufe0f"),  # VS16, alone or after any character
    st.sampled_from([k[0] for k in _EMOJI_KEYS] + [k[1] for k in _EMOJI_KEYS if len(k) == 2]),
    st.text(alphabet=string.printable, max_size=4),
    st.sampled_from(["\u00e9", "\u4e2d", "\u200d", "\U0001F3FB", "\U0001FAE0", "\u2764"]),
)


# the regex normalize_tweet used before the table scan: every entry, longest first
_REFERENCE_EMOJI_RE = re.compile(
    "|".join(re.escape(s) for s in sorted(_EMOJI_TABLE, key=len, reverse=True))
)


@given(st.lists(_EMOJI_PIECES, max_size=12).map("".join))
def test_emoji_scan_matches_the_alternation_regex(text):
    expected = ingest._URL_RE.sub(ingest.URL_TOKEN, text)
    expected = ingest._MENTION_RE.sub(ingest.MENTION_TOKEN, expected)
    expected = _REFERENCE_EMOJI_RE.sub(lambda m: f":{_EMOJI_TABLE[m.group(0)]}:", expected)
    expected = ingest._WS_RE.sub(" ", expected).strip()
    assert normalize_tweet(text) == expected


def test_unknown_emoji_passes_through():
    rare = "\U0001FAE0"  # not in the bundled table
    assert normalize_tweet(f"hey {rare}") == f"hey {rare}"


def test_whitespace_collapse_and_trim():
    assert normalize_tweet("  a \t b\n\nc ") == "a b c"


def test_email_is_not_a_mention():
    assert normalize_tweet("mail me a@b.com") == "mail me a@b.com"


def test_www_url():
    assert normalize_tweet("see www.example.com/x now") == "see HTTPURL now"


def test_normalize_idempotent_fuzz():
    rng = random.Random(1234)
    alphabet = string.ascii_letters + string.digits + " @.:/#\U0001F525\U0001F602❤"
    for _ in range(10_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        once = normalize_tweet(s)
        assert normalize_tweet(once) == once


# -- load_timelines ----------------------------------------------------------

def _profile_rows(profile_id, n, start=BASE_TS):
    return [tweet_row(f"{profile_id}-{i}", profile_id, ts=start + i * 60) for i in range(n)]


def test_short_profiles_dropped(tmp_path):
    rows = _profile_rows("a", 12) + _profile_rows("b", 9) + _profile_rows("c", 50)
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, rows)
    corpus = load_timelines(path)
    assert set(corpus.profiles) == {"a", "c"}
    assert corpus.ingest_stats.dropped_profiles == 1
    assert corpus.ingest_stats.dropped_short == 9


def test_empty_file(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text("")
    corpus = load_timelines(path)
    assert corpus.profiles == {}
    stats = corpus.ingest_stats
    assert stats.lines_total == 0
    assert stats.kept_tweets == stats.malformed == stats.duplicates == 0


def test_duplicate_tweet_id_kept_once(tmp_path):
    rows = _profile_rows("a", 11)
    dup = dict(rows[3])
    dup["text"] = "different text entirely but same id one two three"
    rows.append(dup)
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, rows)
    corpus = load_timelines(path)
    assert corpus.ingest_stats.duplicates == 1
    kept = corpus.profiles["a"].tweets
    assert len(kept) == 11
    # first occurrence wins
    assert [t for t in kept if t.tweet_id == "a-3"][0].text_raw == rows[3]["text"]


def test_conservation_per_profile_and_global(tmp_path):
    rows = (
        _profile_rows("a", 15)
        + _profile_rows("b", 4)
        + [dict(_profile_rows("a", 1)[0])]  # duplicate of a-0
        + [{"nope": 1}]
    )
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, rows)
    path.write_text(path.read_text() + "\n")  # trailing blank line
    corpus = load_timelines(path)
    stats = corpus.ingest_stats
    assert stats.lines_total == len(rows) + 1
    assert stats.conserved()
    assert stats.kept_tweets == 15
    assert stats.dropped_short == 4
    assert stats.duplicates == 1
    assert stats.malformed == 1
    assert stats.blank == 1


def test_strict_mode_reports_line_number(tmp_path):
    rows = _profile_rows("a", 10)
    rows.insert(4, {"tweet_id": "x", "profile_id": "a", "text": "no timestamp"})
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, rows)
    with pytest.raises(IngestError) as err:
        load_timelines(path, strict=True)
    assert "line 5" in str(err.value)


def test_iso_timestamps_and_sorting(tmp_path):
    rows = _profile_rows("a", 10)
    rows[0]["created_at"] = "2021-06-01T12:00:00Z"
    rows[1]["created_at"] = "2021-06-01T11:00:00+00:00"
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, rows)
    corpus = load_timelines(path)
    timestamps = [t.timestamp for t in corpus.profiles["a"].tweets]
    assert timestamps == sorted(timestamps)


def test_timestamp_tie_broken_by_tweet_id(tmp_path):
    rows = [tweet_row(f"a-{i:02d}", "a", ts=BASE_TS) for i in range(10, 0, -1)]
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, rows)
    corpus = load_timelines(path)
    ids = [t.tweet_id for t in corpus.profiles["a"].tweets]
    assert ids == sorted(ids)


def test_metadata_attachment(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    profiles = tmp_path / "profiles.jsonl"
    write_tweet_lines(tweets, _profile_rows("a", 10))
    write_tweet_lines(profiles, [{
        "profile_id": "a", "followers": 7, "following": 3,
        "location": "somewhere", "description": "hey",
        "created_at": BASE_TS - 1000,
        "friends_ids": ["b"],
    }])
    corpus = load_timelines(tweets, profiles)
    meta = corpus.profiles["a"].metadata
    assert meta.followers == 7
    assert meta.has_location is True
    assert meta.description_len == 3
    assert meta.friends_ids == ("b",)


def test_hashtags_lowercased_and_stripped(tmp_path):
    rows = _profile_rows("a", 10)
    rows[0]["hashtags"] = ["#MAGA", "Covid"]
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, rows)
    corpus = load_timelines(path)
    assert corpus.profiles["a"].tweets[0].hashtags == ("maga", "covid")


# -- unique_tweets / topic_model_eligible -------------------------------------

def test_unique_simple():
    tl = make_timeline("p", texts=["a", "a", "b"])
    assert [t.text_norm for t in unique_tweets(tl)] == ["a", "b"]


def test_unique_all_retweets():
    tweets = [make_tweet(i, "p", "same thing", BASE_TS + i, is_retweet=True) for i in range(3)]
    tl = make_timeline("p", tweets=tweets)
    assert unique_tweets(tl) == []


def test_unique_mixed():
    tweets = [
        make_tweet(0, "p", "alpha beta", BASE_TS),
        make_tweet(1, "p", "RT @someone alpha beta", BASE_TS + 1, is_retweet=True),
        make_tweet(2, "p", "gamma delta", BASE_TS + 2),
        make_tweet(3, "p", "alpha beta", BASE_TS + 3),
        make_tweet(4, "p", "epsilon", BASE_TS + 4),
    ]
    tl = make_timeline("p", tweets=tweets)
    assert [t.tweet_id for t in unique_tweets(tl)] == ["0", "2", "4"]


def test_retweet_detection_by_prefix():
    tl = make_timeline("p", texts=["RT @bob hi there"])
    assert unique_tweets(tl) == []


def test_unique_preserves_order_on_permutations():
    rng = random.Random(7)
    texts = [f"text {i}" for i in range(8)] * 2
    for _ in range(20):
        rng.shuffle(texts)
        tweets = [make_tweet(i, "p", t, BASE_TS + i) for i, t in enumerate(texts)]
        tl = make_timeline("p", tweets=tweets)
        uniq = unique_tweets(tl)
        positions = [next(i for i, t in enumerate(tweets) if t.text_norm == u.text_norm) for u in uniq]
        assert positions == sorted(positions)


@pytest.mark.parametrize("n_tokens,expected", [(9, False), (10, True), (64, True), (65, False)])
def test_token_bounds(n_tokens, expected):
    text = " ".join(f"w{i}" for i in range(n_tokens))
    tl = make_timeline("p", texts=[text])
    assert bool(topic_model_eligible(tl)) is expected


# -- corpus cache --------------------------------------------------------------

def test_corpus_cache_round_trip(tmp_path):
    rows = _profile_rows("a", 10) + _profile_rows("b", 12)
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, rows)
    corpus = load_timelines(tweets)
    cache = tmp_path / "corpus.bin"
    save_corpus(corpus, cache)
    loaded = load_corpus(cache)
    assert set(loaded.profiles) == set(corpus.profiles)
    assert loaded.profiles["a"].tweets == corpus.profiles["a"].tweets
    assert loaded.ingest_stats == corpus.ingest_stats
    # saving again is byte-identical
    cache2 = tmp_path / "corpus2.bin"
    save_corpus(loaded, cache2)
    assert cache.read_bytes() == cache2.read_bytes()


def test_save_corpus_closes_its_file(tmp_path):
    rows = _profile_rows("a", 10)
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, rows)
    corpus = load_timelines(tweets)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        save_corpus(corpus, tmp_path / "corpus.bin")
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
