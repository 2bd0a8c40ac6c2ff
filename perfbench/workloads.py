"""Seeded inputs for the benchmark's workloads.

Every workload starts from ``synth.default_specs`` so that ground-truth
labels exist; the shapes differ in how many profiles there are, how long
their timelines are and what the tweet text looks like. Both read
toxicity scores from a file and train on the labels file. The same seed always writes byte-identical files.
"""
from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from mission_profiler import synth
from mission_profiler.util import derive_seed

K = 20


@dataclass(frozen=True)
class Shape:
    n_profiles: int  # half on-mission, half genuine
    tweets_per_profile: tuple[int, int]
    realistic_text: bool  # rewrite synth's one-syllable tokens as tweet-like text
    detect_group: str


# Each shape makes a different layer dominate, at a size where one cold
# run takes 6-9 s on a 2-CPU machine. The detect group is the entropy
# group where the shape puts both on-mission and genuine profiles.
WORKLOADS = {
    "long_timelines": Shape(32, (140, 180), realistic_text=True, detect_group="VII"),
    "many_profiles": Shape(160, (10, 16), realistic_text=False, detect_group="V"),
}


@dataclass
class Workload:
    config: dict  # RunConfig fields; paths are relative to the run directory
    labels: dict[str, str]  # synth ground truth: profile_id -> on_mission | genuine
    n_tweets: int
    n_profiles: int


def build(name: str, seed: int, run_dir: Path, scale: float = 1.0) -> Workload:
    """Write the workload's input bundle under run_dir/bundle.

    scale shrinks the profile count, to 24 at least; the smoke check
    uses a small scale.
    """
    shape = WORKLOADS[name]
    n = max(24, round(shape.n_profiles * scale))
    specs = [
        replace(spec, tweets_per_profile=shape.tweets_per_profile)
        for spec in synth.default_specs(n // 2, n - n // 2, K=K)
    ]
    bundle = synth.generate(specs, K=K, seed=seed)
    if shape.realistic_text:
        _rewrite_text(bundle.tweets, random.Random(derive_seed(seed, "perfbench", "text")))
    paths = synth.write_bundle(bundle, run_dir / "bundle")

    def rel(key: str) -> str:
        return str(paths[key].relative_to(run_dir))

    config = {
        "tweets": rel("tweets"),
        "profiles": rel("profiles"),
        "tpvs": rel("tpvs"),
        "K": K,
        "detect_group": shape.detect_group,
        "seed": seed,
        "toxicity_backend": "file",
        "toxicity_path": rel("toxicity"),
        "labels": rel("labels"),
    }
    (run_dir / "config.json").write_text(json.dumps(config, indent=1))
    return Workload(
        config=config, labels=bundle.labels, n_tweets=len(bundle.tweets), n_profiles=len(bundle.profiles),
    )


# -- tweet-like text ------------------------------------------------------------

_ONSETS = ("", "b", "bl", "br", "c", "ch", "cl", "cr", "d", "dr", "f", "fl", "fr", "g", "gr",
           "h", "j", "k", "l", "m", "n", "p", "pl", "pr", "qu", "r", "s", "sh", "sl", "sp",
           "st", "str", "t", "th", "tr", "v", "w", "wh", "z")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "ie", "oo", "ou", "y")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "nd", "ng", "st", "ck", "x")
_SYLLABLE_WEIGHTS = (30, 35, 22, 10, 3)  # words of 1..5 syllables
_VOCABULARY = 20_000
_ZIPF_EXPONENT = 1.07
_EMOJI_RATE = 0.15
_MENTION_RATE = 0.25
_PUNCTUATION = (".", ".", "!", "?", ",", ",")


def _emoji_sequences() -> list[str]:
    """Every sequence in the package's own alias table, plus the
    variation-selector form that real tweets often carry."""
    raw = resources.files("mission_profiler").joinpath("data/emoji_aliases.tsv").read_text("utf-8")
    sequences = []
    for line in raw.splitlines():
        if line and not line.startswith("#"):
            seq = "".join(chr(int(c, 16)) for c in line.split("\t")[0].split())
            sequences.append(seq)
            if len(seq) == 1:
                sequences.append(seq + "\ufe0f")
    return sequences


def _vocabulary(rng: random.Random) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < _VOCABULARY:
        n_syll = rng.choices(range(1, 6), weights=_SYLLABLE_WEIGHTS)[0]
        word = "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS) for _ in range(n_syll))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _rewrite_text(tweets: list[dict], rng: random.Random) -> None:
    """Replace synth's t<topic>w<n> tokens with Zipf-drawn words, keeping
    the token count, hashtags, URLs and retweet flags; add emoji, mentions,
    punctuation and 'RT @' prefixes the way real tweets carry them."""
    # The vocabulary is the workload's language, the same for every seed.
    # Drawn per seed, the few words at the head of the Zipf curve set the
    # length of the whole text, and with it the cost of every text layer:
    # over seeds 1-10 that moved the text's size by up to 30%.
    words = _vocabulary(random.Random(derive_seed(0, "perfbench", "vocabulary")))
    cum = []
    total = 0.0
    for rank in range(1, len(words) + 1):
        total += rank ** -_ZIPF_EXPONENT
        cum.append(total)
    emoji = _emoji_sequences()
    handles = [f"{rng.choice(words)}_{rng.randrange(100)}" for _ in range(500)]

    for tweet in tweets:
        n_tokens = sum(1 for tok in tweet["text"].split() if not tok.startswith(("#", "http")))
        tokens = [words[bisect.bisect_left(cum, rng.random() * total)] for _ in range(n_tokens)]
        tokens[0] = tokens[0].capitalize()
        for i in range(1, n_tokens):
            if rng.random() < 0.08:
                tokens[i - 1] += rng.choice(_PUNCTUATION)
        mentions = 0
        if rng.random() < _MENTION_RATE:
            for _ in range(rng.randint(1, 2)):
                tokens.insert(rng.randrange(len(tokens) + 1), "@" + rng.choice(handles))
                mentions += 1
        if rng.random() < _EMOJI_RATE:
            for _ in range(rng.randint(1, 3)):
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(emoji))
        text = " ".join(tokens)
        if tweet["is_retweet"]:
            text = f"RT @{rng.choice(handles)}: {text}"
            mentions += 1
        if tweet["hashtags"]:
            text += " " + " ".join("#" + h for h in tweet["hashtags"])
        if tweet["urls"]:
            text += " " + tweet["urls"][0]
        tweet["text"] = text
        tweet["mentions"] = mentions
