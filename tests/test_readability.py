import random
import re
import string
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mission_profiler import readability
from mission_profiler.readability import (
    automated_readability_index,
    count_syllables,
    flesch_kincaid_grade,
    flesch_reading_ease,
    letter_count,
    linsear_write,
    mtld,
    readability_metrics,
    sentence_count,
    syllable_counts,
)


# -- building blocks, pinned ------------------------------------------------------

def test_syllables_all_monosyllables():
    for word in ["The", "cat", "sat", "on", "the", "mat."]:
        assert count_syllables(word) == 1


@pytest.mark.parametrize("word,expected", [
    ("banana", 3),
    ("readability", 5),
    ("make", 1),       # silent final e
    ("table", 2),      # -le keeps its syllable
    ("idea", 3),       # exceptions list
    ("going", 2),      # exceptions list
    ("rhythm", 1),     # y as the only vowel
    ("", 0),
    ("123", 0),
])
def test_syllable_pins(word, expected):
    assert count_syllables(word) == expected


def test_sentence_count_minimum_one():
    assert sentence_count("no terminal punctuation") == 1
    assert sentence_count("One. Two! Three?") == 3
    assert sentence_count("Wait... what") == 2


def test_letter_count_excludes_punctuation():
    assert letter_count("The cat sat on the mat.") == 17


# -- formulas against hand-derived values -------------------------------------------

SENTENCE = "The cat sat on the mat."


def test_flesch_reading_ease_hand_value():
    # W=6, S=1, Syl=6: 206.835 - 1.015*6 - 84.6*1
    assert flesch_reading_ease(SENTENCE) == pytest.approx(116.145, abs=1e-6)


def test_ari_hand_value():
    # C=17, W=6, S=1: 4.71*(17/6) + 0.5*6 - 21.43
    assert automated_readability_index(SENTENCE) == pytest.approx(-5.085, abs=1e-6)


def test_flesch_kincaid_hand_value():
    # 0.39*6 + 11.8*1 - 15.59
    assert flesch_kincaid_grade(SENTENCE) == pytest.approx(-1.45, abs=1e-6)


def test_linsear_high_rate_branch():
    text = " ".join(["cat"] * 100) + "."
    # 100 easy words, one sentence: r = 100 > 20 -> r / 2
    assert linsear_write(text) == pytest.approx(50.0, abs=1e-9)


def test_linsear_low_rate_branch():
    # 6 easy words, one sentence: r = 6 <= 20 -> r/2 - 1
    assert linsear_write(SENTENCE) == pytest.approx(2.0, abs=1e-9)


def test_formulas_agree_with_naive_reference():
    rng = random.Random(21)
    words = ["cat", "banana", "readability", "dog", "wonderful", "a", "tremendous"]
    for _ in range(300):
        n = rng.randint(1, 30)
        text = " ".join(rng.choice(words) for _ in range(n))
        if rng.random() < 0.5:
            text += "."
        w = len(text.split())
        s = sentence_count(text)
        syl = sum(count_syllables(t) for t in text.split())
        c = letter_count(text)
        assert flesch_reading_ease(text) == pytest.approx(
            206.835 - 1.015 * (w / s) - 84.6 * (syl / w), abs=1e-6)
        assert flesch_kincaid_grade(text) == pytest.approx(
            0.39 * (w / s) + 11.8 * (syl / w) - 15.59, abs=1e-6)
        assert automated_readability_index(text) == pytest.approx(
            4.71 * (c / w) + 0.5 * (w / s) - 21.43, abs=1e-6)


# -- MTLD ----------------------------------------------------------------------------

def reference_mtld(tokens, threshold=0.72):
    """Independent straightforward scan, kept separate from the library."""

    def factors(seq):
        count = 0.0
        types = set()
        n = 0
        ttr = 1.0
        for tok in seq:
            n += 1
            types.add(tok)
            ttr = len(types) / n
            if ttr < threshold:
                count += 1
                types = set()
                n = 0
                ttr = 1.0
        if n > 0:
            count += (1 - ttr) / (1 - threshold)
        return count

    f = (factors(tokens) + factors(list(reversed(tokens)))) / 2
    return len(tokens) / (f if f > 0 else 1.0)


def test_mtld_matches_reference_on_random_sequences():
    rng = random.Random(99)
    vocab = [f"w{i}" for i in range(30)]
    for _ in range(300):
        n = rng.randint(1, 200)
        tokens = [rng.choice(vocab) for _ in range(n)]
        assert mtld(tokens) == pytest.approx(reference_mtld(tokens), abs=1e-9)


def test_mtld_all_identical_is_low():
    tokens = ["same"] * 50
    value = mtld(tokens)
    assert value == pytest.approx(reference_mtld(tokens), abs=1e-9)
    assert value < 10


def test_mtld_all_distinct_equals_length():
    tokens = [f"w{i}" for i in range(50)]
    assert mtld(tokens) == pytest.approx(50.0, abs=1e-9)


def test_mtld_single_token():
    assert mtld(["only"]) == pytest.approx(1.0)


def test_mtld_empty_raises():
    with pytest.raises(ValueError):
        mtld([])


# -- per-profile aggregation -----------------------------------------------------------

def test_profile_averages():
    tweets = ["The cat sat on the mat.", "The cat sat on the mat."]
    m = readability_metrics(tweets)
    assert m["flesch_ease"] == pytest.approx(116.145, abs=1e-6)
    assert m["words_per_tweet"] == pytest.approx(6.0)
    assert m["chars_per_tweet"] == pytest.approx(len(tweets[0]))
    assert m["chars_per_tweet"] >= m["words_per_tweet"] >= 1


def test_profile_with_only_empty_tweets_is_none():
    assert readability_metrics(["", "   "]) is None


def test_profile_skips_empty_tweets():
    m = readability_metrics(["", "The cat sat on the mat."])
    assert m["flesch_ease"] == pytest.approx(116.145, abs=1e-6)


def test_formulas_count_each_words_syllables_once(monkeypatch):
    sent = Counter()

    def counting(words):
        sent.update(words)
        return syllable_counts(words)

    monkeypatch.setattr(readability, "syllable_counts", counting)
    monkeypatch.setattr(readability, "_SYLLABLE_MEMO", {})
    readability_metrics(["the quick brown fox jumps.", "the lazy dog sleeps! the fox runs"])
    readability_metrics(["the fox runs", "a lazy cat"])
    assert set(sent) == {"the", "quick", "brown", "fox", "jumps.", "lazy", "dog", "sleeps!", "runs", "a", "cat"}
    assert set(sent.values()) == {1}


def test_the_syllable_memo_keeps_its_bound(monkeypatch):
    memo = {}
    monkeypatch.setattr(readability, "_SYLLABLE_MEMO", memo)
    monkeypatch.setattr(readability, "_MEMO_WORDS", 4)
    for text in ["one two three", "four five", "six seven eight nine ten", "one two"]:
        tokens = text.split()
        assert readability._token_syllables(tokens).tolist() == [count_syllables(w) for w in tokens]
        assert len(memo) <= 4
    assert set(memo) == {"one", "two"}  # the last call's new words, after the third left the memo empty


def test_profile_metrics_equal_the_per_formula_averages_exactly():
    rng = random.Random(23)
    words = ["cat", "banana", "readability", "dog.", "wonderful!", "a", "tremendous?", "co-op", "x_y", "été"]
    for _ in range(100):
        tweets = [
            " ".join(rng.choice(words) for _ in range(rng.randint(0, 25))) for _ in range(rng.randint(1, 8))
        ]
        texts = [t for t in tweets if t.strip()]
        m = readability_metrics(tweets)
        if not texts:
            assert m is None
            continue
        n = len(texts)
        assert m["flesch_ease"] == sum(flesch_reading_ease(t) for t in texts) / n
        assert m["flesch_kincaid_grade"] == sum(flesch_kincaid_grade(t) for t in texts) / n
        assert m["linsear_write"] == sum(linsear_write(t) for t in texts) / n
        assert m["ari"] == sum(automated_readability_index(t) for t in texts) / n
        assert m["words_per_tweet"] == sum(len(t.split()) for t in texts) / n
        assert m["chars_per_tweet"] == sum(len(t) for t in texts) / n
        assert m["lexical_diversity_mtld"] == mtld([w for t in texts for w in t.split()])


# -- the counting helpers against their regex versions --------------------------------
# The helpers count with C string methods where they used to run a regex or a
# Python loop per token; the versions they replaced are kept here and must
# agree exactly, since every readability figure is built from them.

_REFERENCE_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")
_REFERENCE_NON_ALNUM_RE = re.compile(r"[\W_]+")


def _reference_sentence_count(text):
    segments = [s for s in _REFERENCE_SENTENCE_SPLIT_RE.split(text) if s.strip()]
    return max(len(segments), 1)


def _reference_letter_count(text):
    return len(_REFERENCE_NON_ALNUM_RE.sub("", text))


def _reference_count_syllables(word):
    cleaned = re.sub(r"[^a-z]", "", word.lower())
    if not cleaned:
        return 0
    if cleaned in readability._SYLLABLE_EXCEPTIONS:
        return readability._SYLLABLE_EXCEPTIONS[cleaned]
    count = len(re.findall(r"[aeiouy]+", cleaned))
    if count > 1 and cleaned.endswith("e") and not cleaned.endswith(("le", "ee", "ye", "oe", "ie")):
        count -= 1
    return max(count, 1)


def _reference_mtld_factors(tokens, threshold):
    factors = 0.0
    types = set()
    count = 0
    ttr = 1.0
    for token in tokens:
        count += 1
        types.add(token)
        ttr = len(types) / count
        if ttr < threshold:
            factors += 1.0
            types.clear()
            count = 0
            ttr = 1.0
    if count > 0:
        factors += (1.0 - ttr) / (1.0 - threshold)
    return factors


# Unicode whitespace (str.strip's set), terminal punctuation runs, _ and
# digits, non-ASCII letters and digits (some lower-case to ASCII or to two
# code points), emoji with VS16, and whole words from the exceptions list
_TEXT_PIECES = st.one_of(
    st.sampled_from([
        " ", "\t", "\n", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u3000",
    ]),
    st.sampled_from([".", "!", "?", "...", "?!", ". ", " . "]),
    st.sampled_from(["_", "0", "42", "\u00e9", "\u00c9", "\u00df", "\u0130", "\u212a", "\u00b2", "\u0663", "\u4e2d"]),
    st.sampled_from(["\u2764\ufe0f", "\U0001F525", "\ufe0f", "@USER", "HTTPURL", ":fire:"]),
    st.sampled_from(sorted(readability._SYLLABLE_EXCEPTIONS) + ["the", "table", "make", "rhythm", "Eye"]),
    st.text(alphabet=string.ascii_letters + string.digits + string.punctuation, max_size=5),
    st.text(max_size=2),
)
_TEXTS = st.lists(_TEXT_PIECES, max_size=16).map("".join)


@settings(max_examples=300)
@given(_TEXTS)
def test_sentence_count_matches_the_split_version(text):
    assert sentence_count(text) == _reference_sentence_count(text)


@settings(max_examples=300)
@given(_TEXTS)
def test_letter_count_matches_the_regex_version(text):
    assert letter_count(text) == _reference_letter_count(text)


@settings(max_examples=300)
@given(_TEXTS)
def test_count_syllables_matches_the_regex_version(text):
    for word in [text, *text.split()]:
        assert count_syllables(word) == _reference_count_syllables(word)


def test_letter_count_matches_the_regex_version_on_every_ascii_character():
    # ASCII text takes the translate table; the rest still takes the regex
    for code in range(128):
        assert letter_count(chr(code)) == _reference_letter_count(chr(code))


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from([f"w{i}" for i in range(12)]), max_size=120),
    st.one_of(st.just(readability.MTLD_TTR_THRESHOLD), st.floats(0.05, 0.95)),
)
def test_mtld_factors_match_the_float_ratio_version(tokens, threshold):
    assert readability._mtld_factors(tokens, threshold) == _reference_mtld_factors(tokens, threshold)


# -- the bulk paths against the single-word and single-text functions ------------------

# no whitespace, so each is a token of str.split: exceptions in any case and
# with punctuation, the final sigma, and characters that lower-case to ASCII
_WORDS = st.one_of(
    st.text(st.characters().filter(lambda c: not c.isspace()), max_size=12),
    st.sampled_from(sorted(readability._SYLLABLE_EXCEPTIONS)).flatmap(
        lambda w: st.sampled_from([w, w.upper(), w.title(), f"{w}.", f"'{w}!", f"{w}\u03a3", f"\u0130{w[1:]}"])),
    st.sampled_from(["", "\u03a3", "A\u03a3", "\u03a3\u03a3", "\u03c2", "make\u03a3", "\u212a", "e", "E",
                     "le", "table", "rhythm", "eye", "caf\u00e9", "na\u00efve", "\u0130dea", "x_y", "123"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_WORDS, max_size=40))
@example(sorted(readability._SYLLABLE_EXCEPTIONS) + ["", "Idea\u03a3", "\u03a3", ""])
def test_syllable_counts_equal_count_syllables_word_by_word(words):
    assert syllable_counts(words) == [count_syllables(w) for w in words]


def test_syllable_counts_of_words_that_hold_a_newline():
    words = ["idea\nidea", "", "banana", "\n", "make"]
    assert syllable_counts(words) == [count_syllables(w) for w in words]


@settings(max_examples=200, deadline=None)
@given(st.lists(_TEXTS, min_size=1, max_size=12))
def test_profile_metrics_equal_the_single_text_averages_bit_for_bit(tweets):
    texts = [t for t in tweets if t.strip()]
    m = readability_metrics(tweets)
    if not texts:
        assert m is None
        return
    n = len(texts)
    for key, single in [("flesch_ease", flesch_reading_ease), ("flesch_kincaid_grade", flesch_kincaid_grade),
                        ("linsear_write", linsear_write), ("ari", automated_readability_index)]:
        values = [single(t) for t in texts]
        assert all(type(v) is float for v in values)
        expected = sum(values) / n
        assert type(m[key]) is float and m[key].hex() == expected.hex(), key
