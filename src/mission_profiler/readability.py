"""Per-tweet readability formulas and per-profile lexical aggregates.

Syllables come from a deterministic vowel-group heuristic (with silent-e
subtraction and a short exceptions list) rather than an external
hyphenation dictionary, so every downstream number is reproducible from
this file alone. ``count_syllables`` counts one word; ``syllable_counts``
gives the same counts for a list of words in one pass over their bytes.
A memo of at most 2**16 words maps each token to its count: a profile
sends only the distinct tokens the memo lacks to ``syllable_counts``, and
when they take the memo past its bound, it keeps only them. Sentences are
terminal-punctuation runs with a minimum of one per text.

A profile's four formulas are evaluated on arrays of its per-tweet
counts, with the same operations in the same order as on one text, and
averaged with Python's ``sum`` over the per-tweet values, so a profile's
average equals, bit for bit, the average of the single-text functions.
"""
from __future__ import annotations

import re
from itertools import chain

import numpy as np

MTLD_TTR_THRESHOLD = 0.72

# a sentence: a run of non-terminal characters holding a non-whitespace one
_SENTENCE_RE = re.compile(r"[^.!?\s][^.!?]*")
_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
_NON_LOWER_RE = re.compile(r"[^a-z]")
_NON_ALNUM_RE = re.compile(r"[\W_]+")
# the ASCII bytes that are not alphanumeric ([\W_] on ASCII), for bytes.translate to delete
_ASCII_NON_ALNUM = bytes(c for c in range(128) if not chr(c).isalnum())

# words the vowel-group heuristic gets wrong by more than is tolerable
_SYLLABLE_EXCEPTIONS = {
    "everywhere": 3,
    "somewhere": 2,
    "something": 2,
    "sometimes": 2,
    "anywhere": 3,
    "business": 2,
    "evening": 2,
    "area": 3,
    "idea": 3,
    "being": 2,
    "doing": 2,
    "going": 2,
    "science": 2,
    "quiet": 2,
    "create": 2,
}

# syllable_counts' byte tables: the bytes other than [a-z\n] (every byte of
# a non-ASCII character's UTF-8 among them), 1 for a vowel and 0 for any
# other byte, and the letters before a final e that keep its syllable
_NOT_LOWER_OR_NEWLINE = bytes(c for c in range(256) if c not in b"abcdefghijklmnopqrstuvwxyz\n")
_VOWEL_BYTES = bytes(c in b"aeiouy" for c in range(256))
_KEEPS_FINAL_E = np.zeros(256, dtype=bool)
_KEEPS_FINAL_E[list(b"leyoi")] = True
_BYTE_EXCEPTIONS = {word.encode("ascii"): n for word, n in _SYLLABLE_EXCEPTIONS.items()}

# token -> syllable count, for _token_syllables; it holds at most _MEMO_WORDS between calls
_SYLLABLE_MEMO: dict[str, int] = {}
_MEMO_WORDS = 2**16


# the keys of readability_metrics' dict, as a metrics.jsonl row holds them
LEXICAL_KEYS = (
    "flesch_ease", "flesch_kincaid_grade", "linsear_write", "ari", "lexical_diversity_mtld",
    "chars_per_tweet", "words_per_tweet",
)


def count_syllables(word: str) -> int:
    """Heuristic syllable count: vowel groups, minus silent final e."""
    cleaned = word.lower()
    if not (cleaned.isascii() and cleaned.isalpha()):  # else already [a-z]+
        cleaned = _NON_LOWER_RE.sub("", cleaned)
    if not cleaned:
        return 0
    if cleaned in _SYLLABLE_EXCEPTIONS:
        return _SYLLABLE_EXCEPTIONS[cleaned]
    groups = _VOWEL_GROUP_RE.findall(cleaned)
    count = len(groups)
    if count > 1 and cleaned.endswith("e") and not cleaned.endswith(("le", "ee", "ye", "oe", "ie")):
        count -= 1
    return max(count, 1)


def syllable_counts(words: list[str]) -> list[int]:
    """[count_syllables(w) for w in words], counted for all the words at once.

    The words, each between two newlines, are lower-cased once, and every
    byte but [a-z\n] is deleted from their UTF-8. A vowel group starts at a
    vowel byte that follows another byte, and each word sums the starts
    between its newlines. A final e after any letter but l, e, y, o or i is
    silent, and a non-empty word has at least one syllable, which a word of
    one group keeps; the exceptions apply to the cleaned word. Words that hold
    a newline themselves are counted one at a time.
    """
    joined = "\n" + "\n".join(words) + "\n"
    cleaned = joined.lower().encode("utf-8", "surrogatepass").translate(None, _NOT_LOWER_OR_NEWLINE)
    chars = np.frombuffer(cleaned, dtype=np.uint8)
    newlines = np.flatnonzero(chars == ord("\n"))
    if len(newlines) != len(words) + 1:
        return [count_syllables(w) for w in words]
    starts, ends = newlines[:-1], newlines[1:]  # word i is chars[starts[i] + 1:ends[i]]
    vowels = np.frombuffer(cleaned.translate(_VOWEL_BYTES), dtype=bool)
    group_starts = vowels[1:] > vowels[:-1]  # [i]: a group starts at chars[i + 1]
    counts = np.add.reduceat(group_starts, starts, dtype=np.int64)
    # a word of one group that loses its final e goes back to one below
    counts -= (chars[ends - 1] == ord("e")) & ~_KEEPS_FINAL_E[chars[ends - 2]]
    np.maximum(counts, ends - starts > 1, out=counts)  # non-empty words: one syllable at least
    out = counts.tolist()
    cleaned_words = cleaned.split(b"\n")[1:-1]
    if not _BYTE_EXCEPTIONS.keys().isdisjoint(cleaned_words):
        for i, word in enumerate(cleaned_words):
            if word in _BYTE_EXCEPTIONS:
                out[i] = _BYTE_EXCEPTIONS[word]
    return out


def _token_syllables(tokens: list[str]) -> np.ndarray:
    """The syllable count of each token, from the memo. The distinct tokens
    it lacks go to syllable_counts in one call; when they take the memo past
    _MEMO_WORDS words, it keeps only them."""
    memo = _SYLLABLE_MEMO
    try:
        return np.fromiter(map(memo.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    except KeyError:  # some tokens are new
        pass
    new = [w for w in dict.fromkeys(tokens) if w not in memo]
    counts = syllable_counts(new)
    memo.update(zip(new, counts))
    out = np.fromiter(map(memo.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    if len(memo) > _MEMO_WORDS:
        memo.clear()
        if len(new) <= _MEMO_WORDS:
            memo.update(zip(new, counts))
    return out


def sentence_count(text: str) -> int:
    """Non-blank segments between runs of terminal punctuation, at least 1."""
    if "." not in text and "!" not in text and "?" not in text:
        return 1
    return max(len(_SENTENCE_RE.findall(text)), 1)


def letter_count(text: str) -> int:
    """Alphanumeric characters only; punctuation and spaces excluded."""
    if text.isascii():
        return len(text.encode("ascii").translate(None, _ASCII_NON_ALNUM))
    return len(_NON_ALNUM_RE.sub("", text))


def _formulas(words, sentences, syllables, hard_words, letters) -> dict:
    """The four readability formulas of a text's counts of words,
    sentences, syllables, hard words (three syllables or more) and letters.
    Of ints they are floats; of arrays of counts, one per text, they are
    arrays, computed elementwise by the same operations in the same order."""
    words_per_sentence = words / sentences
    syllables_per_word = syllables / words
    linsear = (words + 2 * hard_words) / sentences  # easy words weigh 1, hard ones 3
    return {
        "flesch_ease": 206.835 - 1.015 * words_per_sentence - 84.6 * syllables_per_word,
        "flesch_kincaid_grade": 0.39 * words_per_sentence + 11.8 * syllables_per_word - 15.59,
        "linsear_write": linsear / 2 - (linsear <= 20),  # less 1 unless above 20
        "ari": 4.71 * (letters / words) + 0.5 * words_per_sentence - 21.43,
    }


def _text_formulas(text: str) -> dict:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty text")
    syllables = _token_syllables(tokens)
    return _formulas(
        len(tokens), sentence_count(text), int(syllables.sum()), int((syllables >= 3).sum()), letter_count(text))


def flesch_reading_ease(text: str) -> float:
    return _text_formulas(text)["flesch_ease"]


def flesch_kincaid_grade(text: str) -> float:
    return _text_formulas(text)["flesch_kincaid_grade"]


def automated_readability_index(text: str) -> float:
    return _text_formulas(text)["ari"]


def linsear_write(text: str) -> float:
    return _text_formulas(text)["linsear_write"]


def _mtld_factors(tokens: list[str], threshold: float) -> float:
    factors = 0.0
    types: set[str] = set()
    add = types.add
    count = 0
    for token in tokens:
        count += 1
        add(token)
        if len(types) / count < threshold:
            factors += 1.0
            types.clear()
            count = 0
    if count > 0:  # the type-token ratio of the unfinished last run
        factors += (1.0 - len(types) / count) / (1.0 - threshold)
    return factors


def mtld(tokens: list[str]) -> float:
    """Mean length of token runs sustaining a type-token ratio >=
    MTLD_TTR_THRESHOLD.

    Bidirectional: factor counts are averaged over a forward and a backward
    scan. A sequence that never crosses the threshold counts as one factor.
    """
    if not tokens:
        raise ValueError("empty token list")
    forward = _mtld_factors(tokens, MTLD_TTR_THRESHOLD)
    backward = _mtld_factors(tokens[::-1], MTLD_TTR_THRESHOLD)
    mean_factors = (forward + backward) / 2.0
    if mean_factors == 0.0:
        mean_factors = 1.0
    return len(tokens) / mean_factors


def readability_metrics(tweets: list[str]) -> dict[str, float] | None:
    """Per-tweet scores averaged over a profile; None if no non-empty tweets.
    The formulas run on one array per count, a value per tweet; each
    average is Python's sum of those values, in tweet order, over n."""
    texts = [t for t in tweets if t.strip()]
    if not texts:
        return None
    n = len(texts)
    token_lists = list(map(str.split, texts))
    tokens = list(chain.from_iterable(token_lists))
    words, sentences, letters = np.array(
        [list(map(len, token_lists)), list(map(sentence_count, texts)), list(map(letter_count, texts))])
    firsts = np.cumsum(words) - words  # each tweet's first token
    syllables = _token_syllables(tokens)
    formulas = _formulas(
        words, sentences, np.add.reduceat(syllables, firsts),
        np.add.reduceat(syllables >= 3, firsts, dtype=np.int64), letters)
    return {
        **{key: sum(values.tolist()) / n for key, values in formulas.items()},
        "lexical_diversity_mtld": mtld(tokens),
        "chars_per_tweet": sum(map(len, texts)) / n,
        "words_per_tweet": len(tokens) / n,
    }
