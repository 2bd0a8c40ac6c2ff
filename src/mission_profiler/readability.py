"""Per-tweet readability formulas and per-profile lexical aggregates.

Syllables come from a deterministic vowel-group heuristic (with silent-e
subtraction and a short exceptions list) rather than an external
hyphenation dictionary, so every downstream number is reproducible from
this file alone. Sentences are terminal-punctuation runs with a minimum
of one per text.
"""
from __future__ import annotations

import functools
import re
from typing import NamedTuple

MTLD_TTR_THRESHOLD = 0.72

# a sentence: a run of non-terminal characters holding a non-whitespace one
_SENTENCE_RE = re.compile(r"[^.!?\s][^.!?]*")
_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
_NON_LOWER_RE = re.compile(r"[^a-z]")
_NON_ALNUM_RE = re.compile(r"[\W_]+")
# deletes the ASCII characters that are not alphanumeric ([\W_] on ASCII)
_ASCII_NON_ALNUM = dict.fromkeys(c for c in range(128) if not chr(c).isalnum())

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


@functools.lru_cache(maxsize=2**16)
def _syllables(word: str) -> int:
    """count_syllables memoised: a profile's tweets repeat most of their words."""
    return count_syllables(word)


def sentence_count(text: str) -> int:
    """Non-blank segments between runs of terminal punctuation, at least 1."""
    if "." not in text and "!" not in text and "?" not in text:
        return 1
    return max(len(_SENTENCE_RE.findall(text)), 1)


def letter_count(text: str) -> int:
    """Alphanumeric characters only; punctuation and spaces excluded."""
    if text.isascii():
        return len(text.translate(_ASCII_NON_ALNUM))
    return len(_NON_ALNUM_RE.sub("", text))


class _TextCounts(NamedTuple):
    """What the formulas below read from one text, counted in one pass."""

    tokens: list[str]
    sentences: int
    syllables: int
    hard_words: int  # words of three or more syllables
    letters: int


def _text_counts(text: str) -> _TextCounts:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty text")
    syllables = list(map(_syllables, tokens))
    return _TextCounts(
        tokens=tokens,
        sentences=sentence_count(text),
        syllables=sum(syllables),
        hard_words=len([n for n in syllables if n >= 3]),
        letters=letter_count(text),
    )


def _flesch_ease(c: _TextCounts) -> float:
    n_words = len(c.tokens)
    return 206.835 - 1.015 * (n_words / c.sentences) - 84.6 * (c.syllables / n_words)


def _flesch_kincaid(c: _TextCounts) -> float:
    n_words = len(c.tokens)
    return 0.39 * (n_words / c.sentences) + 11.8 * (c.syllables / n_words) - 15.59


def _ari(c: _TextCounts) -> float:
    n_words = len(c.tokens)
    return 4.71 * (c.letters / n_words) + 0.5 * (n_words / c.sentences) - 21.43


def _linsear(c: _TextCounts) -> float:
    """Weighted easy/hard word score: easy (<=2 syllables) weigh 1, hard 3."""
    weighted = len(c.tokens) + 2 * c.hard_words
    r = weighted / c.sentences
    return r / 2 if r > 20 else r / 2 - 1


def flesch_reading_ease(text: str) -> float:
    return _flesch_ease(_text_counts(text))


def flesch_kincaid_grade(text: str) -> float:
    return _flesch_kincaid(_text_counts(text))


def automated_readability_index(text: str) -> float:
    return _ari(_text_counts(text))


def linsear_write(text: str) -> float:
    return _linsear(_text_counts(text))


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
    """Per-tweet scores averaged over a profile; None if no non-empty tweets."""
    texts = [t for t in tweets if t.strip()]
    if not texts:
        return None
    n = len(texts)
    counts = [_text_counts(t) for t in texts]
    all_tokens: list[str] = []
    for c in counts:
        all_tokens.extend(c.tokens)
    return {
        "flesch_ease": sum(_flesch_ease(c) for c in counts) / n,
        "flesch_kincaid_grade": sum(_flesch_kincaid(c) for c in counts) / n,
        "linsear_write": sum(_linsear(c) for c in counts) / n,
        "ari": sum(_ari(c) for c in counts) / n,
        "lexical_diversity_mtld": mtld(all_tokens),
        "chars_per_tweet": sum(len(t) for t in texts) / n,
        "words_per_tweet": sum(len(c.tokens) for c in counts) / n,
    }
