import dataclasses
import gzip
import random
import re
import string
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mission_profiler import ingest, synth, topics
from mission_profiler.ingest import (
    _EMOJI_TABLE,
    IngestError,
    Tweet,
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
    assert normalize_tweet("\U0001F525") == ":fire:"
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
# the patterns normalize_tweet ran on every text before its passes were
# guarded, the mention pattern reordered and whitespace split in C
_REFERENCE_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_REFERENCE_MENTION_RE = re.compile(r"(?<![\w@])@\w+")
_REFERENCE_WS_RE = re.compile(r"\s+")


def _reference_normalize(text):
    text = _REFERENCE_URL_RE.sub(ingest.URL_TOKEN, text)
    text = _REFERENCE_MENTION_RE.sub(ingest.MENTION_TOKEN, text)
    text = _REFERENCE_EMOJI_RE.sub(lambda m: f":{_EMOJI_TABLE[m.group(0)]}:", text)
    return _REFERENCE_WS_RE.sub(" ", text).strip()


@given(st.lists(_EMOJI_PIECES, max_size=12).map("".join))
def test_emoji_scan_matches_the_alternation_regex(text):
    assert normalize_tweet(text) == _reference_normalize(text)


# pieces that sit on each pass's edge: Unicode whitespace (str.split's set),
# an @ at the start, after a word character and after another @, URL
# prefixes with and without their tail, emoji with VS16, _ and digits
_EDGE_PIECES = st.one_of(
    st.sampled_from([
        " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
        "\u1680", "\u2000", "\u2003", "\u2028", "\u2029", "\u202f", "\u3000", "\u200b",
    ]),
    st.sampled_from(["@", "@@", "a@", "_@", "9@", "\u00e9@", ".@", "@\u00e9", "@_", "@1"]),
    st.sampled_from(["www.", "www", "http", "https", "http://", "https://", "HTTP://", "WWW.", "htt", "ww."]),
    st.sampled_from(["\u2764\ufe0f", "\U0001F525", "\U0001F525\ufe0f", "\ufe0f", "\U0001F1FA\U0001F1F8"]),
    st.sampled_from(["_", "0", "7", "\u00e9", "\u4e2d", "\u00df", "\u0130", "\u212a", "\u00b2", "\u0663"]),
    st.text(alphabet=string.ascii_letters + string.digits + ".:/#", max_size=4),
    st.text(max_size=2),
)


@settings(max_examples=400)
@given(st.lists(_EDGE_PIECES, max_size=16).map("".join))
def test_normalize_tweet_matches_the_unguarded_regexes(text):
    once = normalize_tweet(text)
    assert once == _reference_normalize(text)
    assert normalize_tweet(once) == once


def test_mention_needs_no_word_character_or_at_before_it():
    assert normalize_tweet("@a b@c @@d _@e \u00e9@f .@g @") == "@USER b@c @@d _@e \u00e9@f .@USER @"


def test_whitespace_runs_are_the_str_split_set():
    # normalize_tweet collapses what str.split splits on; the regex class \s
    # it replaced holds the same code points
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


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
    # first occurrence wins: the duplicate's text differs
    assert [t for t in kept if t.tweet_id == "a-3"][0].text_norm == normalize_tweet(rows[3]["text"])
    assert normalize_tweet(dup["text"]) != normalize_tweet(rows[3]["text"])


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


@pytest.mark.parametrize("created_at, error", [
    (True, "created_at must be a timestamp"),
    ("yesterday", "unparseable timestamp 'yesterday'"),
    ([BASE_TS], f"unparseable timestamp [{BASE_TS}]"),
    (0, "non-positive timestamp 0"),
    (-60, "non-positive timestamp -60"),
], ids=["boolean", "unparseable_string", "list", "zero", "negative"])
def test_a_tweet_time_that_is_no_timestamp_is_one_malformed_line(tmp_path, created_at, error):
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, _profile_rows("a", 10) + [tweet_row("a-x", "a", ts=created_at)])
    corpus = load_timelines(path)
    assert corpus.ingest_stats.malformed == 1
    assert len(corpus.profiles["a"].tweets) == 10
    with pytest.raises(IngestError) as err:
        load_timelines(path, strict=True)
    assert str(err.value) == f"line 11: {error}"


def test_a_naive_iso_time_reads_as_utc(tmp_path, monkeypatch):
    rows = _profile_rows("a", 10, start=1622548800 - 3600)  # 2021-06-01T12:00:00Z, less an hour
    rows[-1]["created_at"] = "2021-06-01T12:00:00"
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, rows)
    monkeypatch.setenv("TZ", "XYZ+05")  # read as local time, it would be 5 hours later
    time.tzset()
    try:
        assert load_timelines(path, strict=True).profiles["a"].last_timestamp() == 1622548800
    finally:
        monkeypatch.undo()
        time.tzset()


@pytest.mark.parametrize("line, error", [
    ('["a-x", "a", "ten tokens"]\n', "line 11: expected a JSON object"),
    ('{"tweet_id": "a-x", "profile_id": "a", "text": 5, "created_at": ' + str(BASE_TS) + '}\n',
     "line 11: text must be a string"),
], ids=["not_an_object", "text_not_a_string"])
def test_a_tweet_line_of_another_shape_is_one_malformed_line(tmp_path, line, error):
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, _profile_rows("a", 10))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line)
    assert load_timelines(path).ingest_stats.malformed == 1
    with pytest.raises(IngestError) as err:
        load_timelines(path, strict=True)
    assert str(err.value) == error


def test_strict_mode_refuses_a_profile_created_after_its_last_tweet(tmp_path):
    tweets, profiles = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    write_tweet_lines(tweets, _profile_rows("a", 10))
    write_tweet_lines(profiles, [{"profile_id": "a", "created_at": BASE_TS + 9 * 60 + 1}])
    assert load_timelines(tweets, profiles).profiles["a"].metadata.created_at == BASE_TS + 9 * 60 + 1
    with pytest.raises(IngestError) as err:
        load_timelines(tweets, profiles, strict=True)
    assert str(err.value) == "line 1: created_at after last tweet for profile a"


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


# created_at values out of range, as JSON text: a float that overflows, the
# Infinity literal, a string that overflows, and times after year 9999
OUT_OF_RANGE_TIMES = ["1e999", "Infinity", '"1e999"', str(10**15), str(2**70)]


@pytest.mark.parametrize("created_at", OUT_OF_RANGE_TIMES)
def test_a_tweet_time_out_of_range_is_one_malformed_line(tmp_path, created_at):
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, _profile_rows("a", 10))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f'{{"tweet_id":"a-x","profile_id":"a","text":"late","created_at":{created_at}}}\n')
    corpus = load_timelines(path)
    assert corpus.ingest_stats.malformed == 1
    assert corpus.ingest_stats.conserved()
    assert len(corpus.profiles["a"].tweets) == 10
    with pytest.raises(IngestError, match="^line 11: "):
        load_timelines(path, strict=True)


@pytest.mark.parametrize("field,value", [
    ("followers", "1e999"), ("listed", "Infinity"), ("withheld_countries", "1e999"),
    *(("created_at", v) for v in OUT_OF_RANGE_TIMES),
    *(pytest.param(f, str(10**400), id=f"{f}-10**400") for f in ("followers", "description_len", "withheld_countries")),
    ("description_len", "-7"), ("withheld_countries", "-5"),
])
def test_a_metadata_number_out_of_range_is_a_malformed_line(tmp_path, field, value):
    tweets, profiles = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    write_tweet_lines(tweets, _profile_rows("a", 10) + _profile_rows("b", 10))
    profiles.write_text(f'{{"profile_id":"a","followers":3}}\n{{"profile_id":"b","{field}":{value}}}\n')
    corpus = load_timelines(tweets, profiles)
    assert corpus.profiles["a"].metadata.followers == 3
    assert corpus.profiles["b"].metadata is None  # the line is skipped, as any malformed one
    with pytest.raises(IngestError, match="^line 2: "):
        load_timelines(tweets, profiles, strict=True)


def test_the_int64_maximum_is_a_valid_count(tmp_path):
    tweets, profiles = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    write_tweet_lines(tweets, _profile_rows("a", 10))
    profiles.write_text(f'{{"profile_id":"a","followers":{2**63 - 1},"withheld_countries":0,"description_len":{2**63 - 1}}}\n')
    meta = load_timelines(tweets, profiles, strict=True).profiles["a"].metadata
    assert meta.followers == meta.description_len == ingest.MAX_COUNT == 2**63 - 1


# a string was read as its characters and an object as its keys
NOT_ARRAYS = ['"#maga"', '"http://x.y"', '"12345"', '{"a": 1}', "7", "true"]


@pytest.mark.parametrize("field", ["hashtags", "urls"])
@pytest.mark.parametrize("value", NOT_ARRAYS)
def test_a_tweet_list_field_that_is_no_array_is_a_malformed_line(tmp_path, field, value):
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, _profile_rows("a", 10))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f'{{"tweet_id":"a-x","profile_id":"a","text":"t","created_at":{BASE_TS},"{field}":{value}}}\n')
    corpus = load_timelines(path)
    assert corpus.ingest_stats.malformed == 1
    assert corpus.ingest_stats.conserved()
    assert len(corpus.profiles["a"].tweets) == 10
    with pytest.raises(IngestError, match=f"^line 11: {field} must be an array"):
        load_timelines(path, strict=True)


@pytest.mark.parametrize("field", ["friends_ids", "retweeted_ids"])
@pytest.mark.parametrize("value", NOT_ARRAYS)
def test_a_profile_id_list_that_is_no_array_is_a_malformed_line(tmp_path, field, value):
    tweets, profiles = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    write_tweet_lines(tweets, _profile_rows("a", 10) + _profile_rows("b", 10))
    profiles.write_text(f'{{"profile_id":"a","followers":3}}\n{{"profile_id":"b","{field}":{value}}}\n')
    corpus = load_timelines(tweets, profiles)
    assert corpus.profiles["b"].metadata is None
    assert corpus.ingest_stats.malformed_profile_lines == 1
    with pytest.raises(IngestError, match=f"^line 2: {field} must be an array"):
        load_timelines(tweets, profiles, strict=True)


def test_a_null_or_absent_list_field_keeps_its_meaning(tmp_path):
    tweets, profiles = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    rows = _profile_rows("a", 10)
    rows[0].update(hashtags=None, urls=None)
    del rows[1]["hashtags"], rows[1]["urls"]
    write_tweet_lines(tweets, rows)
    profiles.write_text('{"profile_id":"a","friends_ids":null,"retweeted_ids":[]}\n')
    corpus = load_timelines(tweets, profiles, strict=True)
    assert all(t.hashtags == () and t.urls == () for t in corpus.profiles["a"].tweets)
    assert corpus.profiles["a"].metadata.friends_ids is None
    assert corpus.profiles["a"].metadata.retweeted_ids == ()


# "false" was read as true, as was any non-empty string, and 0 and 1 as numbers
NOT_FLAGS = ['"false"', '"true"', '""', "0", "1", "[]", '{"a": 1}']
PROFILE_FLAGS = ["protected", "verified", "geo_enabled", "contributors_enabled", "has_location"]


@pytest.mark.parametrize("value", NOT_FLAGS)
def test_a_retweet_flag_that_is_no_boolean_is_a_malformed_line(tmp_path, value):
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, _profile_rows("a", 10))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f'{{"tweet_id":"a-x","profile_id":"a","text":"t","created_at":{BASE_TS},"is_retweet":{value}}}\n')
    corpus = load_timelines(path)
    assert corpus.ingest_stats.malformed == 1
    assert corpus.ingest_stats.conserved()
    assert len(corpus.profiles["a"].tweets) == 10
    with pytest.raises(IngestError, match="^line 11: is_retweet must be true or false"):
        load_timelines(path, strict=True)


@pytest.mark.parametrize("field", PROFILE_FLAGS)
@pytest.mark.parametrize("value", NOT_FLAGS)
def test_a_profile_flag_that_is_no_boolean_is_a_malformed_line(tmp_path, field, value):
    tweets, profiles = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    write_tweet_lines(tweets, _profile_rows("a", 10) + _profile_rows("b", 10))
    profiles.write_text(f'{{"profile_id":"a","followers":3}}\n{{"profile_id":"b","{field}":{value}}}\n')
    corpus = load_timelines(tweets, profiles)
    assert corpus.profiles["b"].metadata is None
    assert corpus.ingest_stats.malformed_profile_lines == 1
    with pytest.raises(IngestError, match=f"^line 2: {field} must be true or false"):
        load_timelines(tweets, profiles, strict=True)


def test_a_null_or_absent_flag_keeps_its_default(tmp_path):
    tweets, profiles = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    rows = _profile_rows("a", 10) + _profile_rows("b", 10) + _profile_rows("c", 10)
    rows[0]["is_retweet"] = None
    del rows[1]["is_retweet"]
    rows[2]["is_retweet"] = True
    write_tweet_lines(tweets, rows)
    profiles.write_text(
        '{"profile_id":"a",' + ",".join(f'"{f}":null' for f in PROFILE_FLAGS) + ',"location":"somewhere"}\n'
        '{"profile_id":"b","location":"somewhere","has_location":false}\n'
        '{"profile_id":"c",' + ",".join(f'"{f}":true' for f in PROFILE_FLAGS) + "}\n"
    )
    corpus = load_timelines(tweets, profiles, strict=True)
    assert [t.is_retweet for t in corpus.profiles["a"].tweets[:3]] == [False, False, True]
    a, b, c = (corpus.profiles[p].metadata for p in "abc")
    assert [getattr(a, f) for f in PROFILE_FLAGS] == [False, False, False, False, True]  # from the location
    assert b.has_location is False
    assert all(getattr(c, f) is True for f in PROFILE_FLAGS)


def test_malformed_profile_lines_are_counted_apart_from_the_tweet_lines(tmp_path):
    # they used to be skipped without a count
    tweets, profiles = tmp_path / "tweets.jsonl", tmp_path / "profiles.jsonl"
    write_tweet_lines(tweets, _profile_rows("a", 10))
    profiles.write_text('{"profile_id": "x", "followers": 1e999}\n\nnot json\n{"profile_id": "a", "followers": 3}\n')
    stats = load_timelines(tweets, profiles).ingest_stats
    assert stats.malformed_profile_lines == 2
    assert stats.malformed == 0 and stats.lines_total == 10
    assert stats.conserved()  # of the tweet lines only


def test_the_last_second_of_year_9999_is_a_valid_time(tmp_path):
    path = tmp_path / "tweets.jsonl"
    rows = _profile_rows("a", 10)
    rows[-1]["created_at"] = "9999-12-31T23:59:59Z"
    write_tweet_lines(path, rows)
    corpus = load_timelines(path, strict=True)
    assert corpus.profiles["a"].last_timestamp() == ingest.MAX_TIMESTAMP == 253402300799


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
    tweets = [make_tweet(i, "same thing", BASE_TS + i, is_retweet=True) for i in range(3)]
    tl = make_timeline("p", tweets=tweets)
    assert unique_tweets(tl) == []


def test_unique_mixed():
    tweets = [
        make_tweet(0, "alpha beta", BASE_TS),
        make_tweet(1, "RT @someone alpha beta", BASE_TS + 1, is_retweet=True),
        make_tweet(2, "gamma delta", BASE_TS + 2),
        make_tweet(3, "alpha beta", BASE_TS + 3),
        make_tweet(4, "epsilon", BASE_TS + 4),
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
        tweets = [make_tweet(i, t, BASE_TS + i) for i, t in enumerate(texts)]
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
    # a corpus.bin compressed at another gzip level, such as the default 9, loads the same
    best = tmp_path / "corpus9.bin"
    best.write_bytes(gzip.compress(gzip.decompress(cache.read_bytes()), compresslevel=9, mtime=0))
    assert best.read_bytes() != cache.read_bytes()
    assert load_corpus(best) == loaded


def test_save_corpus_closes_its_file(tmp_path):
    rows = _profile_rows("a", 10)
    tweets = tmp_path / "tweets.jsonl"
    write_tweet_lines(tweets, rows)
    corpus = load_timelines(tweets)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        save_corpus(corpus, tmp_path / "corpus.bin")
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# -- the tweet record ------------------------------------------------------------

def test_a_tweet_keeps_only_the_fields_later_stages_read():
    names = [f.name for f in dataclasses.fields(Tweet)]
    assert names == ["tweet_id", "text_norm", "timestamp", "is_retweet", "hashtags", "urls"]


@pytest.mark.parametrize("mentions", ['"many"', "1e999", "[1]"])
def test_a_bad_mention_count_is_still_a_malformed_line(tmp_path, mentions):
    # the count is checked though not kept
    path = tmp_path / "tweets.jsonl"
    write_tweet_lines(path, _profile_rows("a", 10))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f'{{"tweet_id":"a-x","profile_id":"a","text":"t","created_at":{BASE_TS},"mentions":{mentions}}}\n')
    stats = load_timelines(path).ingest_stats
    assert (stats.malformed, stats.kept_tweets) == (1, 10)
    with pytest.raises(IngestError, match="^line 11: "):
        load_timelines(path, strict=True)


def test_a_loaded_corpus_holds_under_650_bytes_a_tweet(tmp_path):
    # 520 bytes a tweet on this bundle; a record that also kept each tweet's
    # raw text, profile id and mention count held 790
    paths = synth.write_bundle(synth.generate(synth.default_specs(30, 30), K=20, seed=5), tmp_path)
    load_timelines(paths["tweets"], paths["profiles"])  # the regex and emoji caches, once
    tracemalloc.start()
    try:
        corpus = load_timelines(paths["tweets"], paths["profiles"])
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_tweets = corpus.ingest_stats.kept_tweets
    assert n_tweets > 2000
    assert retained < 650 * n_tweets


def test_loaded_topic_vectors_hold_under_300_bytes_a_vector(tmp_path):
    # 240 bytes a vector on this bundle: 160 for its row of floats, the rest
    # its tweet id; a dict of one array per row held 382
    paths = synth.write_bundle(synth.generate(synth.default_specs(30, 30), K=20, seed=5), tmp_path)
    topics.load_tpvs(paths["tpvs"], K=20)  # warm-up
    tracemalloc.start()
    try:
        ids, _matrix = topics.load_tpvs(paths["tpvs"], K=20)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ids) > 2000
    assert retained < 300 * len(ids)
