"""Seeded synthetic corpora with ground-truth on-mission/genuine archetypes.

On-mission archetypes concentrate a configurable share of their tweets on
one toxic topic over an otherwise diverse background (wider spacing
between their top topic weights); genuine archetypes post flatter, less
toxic mixtures. Burst patterns shape inter-tweet times so the downstream
activity metrics separate the archetypes too. Generation is single-passed
from per-profile derived seeds, so the same seed always reproduces a
byte-identical bundle.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .scores import ScoreCache
from .util import derive_seed, read_json, write_jsonl

BURST_PATTERNS = ("periodic", "poisson", "bursty")
GENUINE = "genuine"
ON_MISSION = "on_mission"

_BASE_EPOCH = 1577836800  # 2020-01-01T00:00:00Z
_BASE_INTERVAL = 3600.0
_TPV_NOISE = 0.4
_URL_RATE = 0.1
_RETWEET_RATE = 0.1


class SynthSpecError(ValueError):
    pass


@dataclass
class ArchetypeSpec:
    name: str
    n_profiles: int
    on_mission: bool
    mission_topic: int | None = None
    topic_skew: float = 0.35  # share of tweets pulled onto the mission topic
    toxicity_dist: dict = field(default_factory=dict)  # topic -> (mean, spread)
    default_toxicity: tuple[float, float] = (0.1, 0.05)
    burst_pattern: str = "poisson"
    tweets_per_profile: tuple[int, int] = (30, 80)
    hashtag_rate: float = 0.5
    friend_density: float = 0.0
    retweet_share_rate: float = 0.0

    def validate(self, K: int) -> None:
        if self.n_profiles < 1:
            raise SynthSpecError(f"{self.name}: n_profiles must be >= 1")
        if self.burst_pattern not in BURST_PATTERNS:
            raise SynthSpecError(f"{self.name}: unknown burst pattern {self.burst_pattern!r}")
        lo, hi = self.tweets_per_profile
        if not (10 <= lo <= hi):
            raise SynthSpecError(
                f"{self.name}: tweets_per_profile must satisfy 10 <= lo <= hi "
                "(profiles below 10 tweets are dropped at ingest)"
            )
        for rate_name in ("topic_skew", "hashtag_rate", "friend_density", "retweet_share_rate"):
            rate = getattr(self, rate_name)
            if not (0.0 <= rate <= 1.0):
                raise SynthSpecError(f"{self.name}: {rate_name} must be in [0, 1]")
        if self.on_mission:
            if self.mission_topic is None:
                raise SynthSpecError(f"{self.name}: on-mission archetypes need a mission_topic")
            if not (0 <= self.mission_topic < K):
                raise SynthSpecError(f"{self.name}: mission_topic outside [0, {K})")
        for topic, dist in self.toxicity_dist.items():
            mean, spread = dist
            if not (0.0 <= mean <= 1.0) or spread <= 0.0:
                raise SynthSpecError(f"{self.name}: bad toxicity dist for topic {topic}")

    def toxicity_for(self, topic: int) -> tuple[float, float]:
        return tuple(self.toxicity_dist.get(topic, self.default_toxicity))


@dataclass
class SynthBundle:
    tweets: list[dict]
    profiles: list[dict]
    tpvs: dict[str, np.ndarray]
    toxicity: ScoreCache
    labels: dict[str, str]  # profile_id -> on_mission | genuine
    K: int
    seed: int


def default_specs(n_on_mission: int = 50, n_genuine: int = 50, K: int = 20) -> list[ArchetypeSpec]:
    """The standard two-archetype demo contrast."""
    return [
        ArchetypeSpec(
            name="on_mission",
            n_profiles=n_on_mission,
            on_mission=True,
            mission_topic=5 % K,
            topic_skew=0.25,
            toxicity_dist={5 % K: (0.8, 0.05)},
            default_toxicity=(0.1, 0.05),
            burst_pattern="bursty",
            tweets_per_profile=(30, 60),
            hashtag_rate=0.9,
            friend_density=0.3,
            retweet_share_rate=0.5,
        ),
        ArchetypeSpec(
            name="genuine",
            n_profiles=n_genuine,
            on_mission=False,
            topic_skew=0.0,
            default_toxicity=(0.1, 0.05),
            burst_pattern="poisson",
            tweets_per_profile=(30, 60),
            hashtag_rate=0.3,
        ),
    ]


def load_specs(path: str | Path) -> tuple[list[ArchetypeSpec], int]:
    """Read a JSON spec file: {"K": int, "archetypes": [{...}, ...]}."""
    payload = read_json(path)
    K = int(payload.get("K", 20))
    specs = []
    for raw in payload.get("archetypes", []):
        raw = dict(raw)
        if "toxicity_dist" in raw:
            raw["toxicity_dist"] = {int(k): tuple(v) for k, v in raw["toxicity_dist"].items()}
        if "default_toxicity" in raw:
            raw["default_toxicity"] = tuple(raw["default_toxicity"])
        if "tweets_per_profile" in raw:
            raw["tweets_per_profile"] = tuple(raw["tweets_per_profile"])
        try:
            specs.append(ArchetypeSpec(**raw))
        except TypeError as exc:
            raise SynthSpecError(f"bad archetype entry: {exc}") from exc
    if not specs:
        raise SynthSpecError("spec file defines no archetypes")
    return specs, K


def _beta(rng: random.Random, mean: float, spread: float) -> float:
    """Beta sample parameterized by mean and target standard deviation."""
    mean = min(max(mean, 0.01), 0.99)
    var = min(spread ** 2, 0.99 * mean * (1.0 - mean))
    nu = mean * (1.0 - mean) / var - 1.0
    nu = max(nu, 0.1)
    return rng.betavariate(mean * nu, (1.0 - mean) * nu)


def _dirichlet(rng: random.Random, alphas: list[float]) -> list[float]:
    draws = [rng.gammavariate(a, 1.0) for a in alphas]
    total = sum(draws)
    if total == 0.0:
        return [1.0 / len(alphas)] * len(alphas)
    return [d / total for d in draws]


def _intervals(rng: random.Random, pattern: str, count: int) -> list[int]:
    if pattern == "periodic":
        return [int(_BASE_INTERVAL)] * count
    if pattern == "poisson":
        return [max(1, int(rng.expovariate(1.0 / _BASE_INTERVAL))) for _ in range(count)]
    # bursty: heavy-tailed gaps with tight intra-burst spacing
    return [max(1, int(600.0 * rng.paretovariate(1.2))) for _ in range(count)]


def _tweet_tpv(rng: random.Random, topic: int, K: int) -> list[float]:
    noise = _dirichlet(rng, [1.0] * K)
    return [
        (1.0 - _TPV_NOISE) * (1.0 if j == topic else 0.0) + _TPV_NOISE * noise[j]
        for j in range(K)
    ]


def generate(specs: list[ArchetypeSpec], K: int, seed: int) -> SynthBundle:
    """Build a mutually consistent bundle: every tweet has a topic vector
    and a toxicity score, and every profile has metadata and a label."""
    if not specs:
        raise SynthSpecError("need at least one archetype spec")
    if K < 8:
        raise SynthSpecError("K must be >= 8 so every category is reachable")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise SynthSpecError("archetype names must be unique")
    for spec in specs:
        spec.validate(K)

    tweets: list[dict] = []
    profiles: list[dict] = []
    tpvs: dict[str, np.ndarray] = {}
    toxicity = ScoreCache()
    labels: dict[str, str] = {}

    for spec in specs:
        profile_ids = [f"{spec.name}-{i:04d}" for i in range(spec.n_profiles)]
        friends = _friend_edges(spec, profile_ids, seed)
        shared_pool = [f"rt-{spec.name}-{k}" for k in range(5)]

        for i, profile_id in enumerate(profile_ids):
            rng = random.Random(derive_seed(seed, spec.name, i))
            labels[profile_id] = ON_MISSION if spec.on_mission else GENUINE

            theta_bg = _dirichlet(rng, [8.0] * K)
            if spec.on_mission:
                theta = [
                    (1.0 - spec.topic_skew) * p
                    + (spec.topic_skew if j == spec.mission_topic else 0.0)
                    for j, p in enumerate(theta_bg)
                ]
            else:
                theta = theta_bg

            n_tweets = rng.randint(*spec.tweets_per_profile)
            gaps = _intervals(rng, spec.burst_pattern, n_tweets - 1)
            ts = _BASE_EPOCH + rng.randint(0, 30) * 86400
            timestamps = [ts]
            for gap in gaps:
                ts += gap
                timestamps.append(ts)

            for j in range(n_tweets):
                tweet_id = f"{profile_id}-t{j:05d}"
                topic = rng.choices(range(K), weights=theta)[0]
                n_tokens = rng.randint(12, 30)
                tokens = [f"t{topic}w{rng.randrange(40)}" for _ in range(n_tokens)]
                hashtags = [f"tag{topic}"] if rng.random() < spec.hashtag_rate else []
                urls = [f"https://example.org/{topic}/{rng.randrange(8)}"] if rng.random() < _URL_RATE else []
                mean, spread = spec.toxicity_for(topic)
                tweets.append({
                    "tweet_id": tweet_id,
                    "profile_id": profile_id,
                    "text": " ".join(tokens) + (" " + " ".join("#" + h for h in hashtags) if hashtags else "") + (" " + urls[0] if urls else ""),
                    "created_at": timestamps[j],
                    "is_retweet": rng.random() < _RETWEET_RATE,
                    "hashtags": hashtags,
                    "urls": urls,
                    "mentions": 0,
                })
                tpvs[tweet_id] = np.asarray(_tweet_tpv(rng, topic, K))
                toxicity.put_toxicity(tweet_id, round(_beta(rng, mean, spread), 6), source="synthetic")

            retweeted: list[str]
            if rng.random() < spec.retweet_share_rate:
                retweeted = sorted(rng.sample(shared_pool, rng.randint(1, 3)))
            else:
                retweeted = [f"rt-{profile_id}-{k}" for k in range(rng.randint(0, 2))]
            profiles.append({
                "profile_id": profile_id,
                "followers": rng.randint(50, 5000),
                "following": rng.randint(50, 2000),
                "listed": rng.randint(0, 40),
                "statuses": rng.randint(n_tweets, n_tweets * 20),
                "favourites": rng.randint(0, 20000),
                "protected": False,
                "verified": rng.random() < 0.02,
                "geo_enabled": rng.random() < 0.3,
                "contributors_enabled": False,
                "withheld_countries": 0,
                "has_location": rng.random() < 0.6,
                "description_len": rng.randint(0, 160),
                "created_at": _BASE_EPOCH - rng.randint(365, 3650) * 86400,
                "friends_ids": friends.get(profile_id, []),
                "retweeted_ids": retweeted,
            })

    tweets.sort(key=lambda t: t["tweet_id"])
    profiles.sort(key=lambda p: p["profile_id"])
    return SynthBundle(
        tweets=tweets, profiles=profiles, tpvs=tpvs, toxicity=toxicity,
        labels=labels, K=K, seed=seed,
    )


def _friend_edges(spec: ArchetypeSpec, profile_ids: list[str], seed: int) -> dict[str, list[str]]:
    edges: dict[str, list[str]] = {pid: [] for pid in profile_ids}
    if spec.friend_density <= 0.0:
        return edges
    rng = random.Random(derive_seed(seed, spec.name, "edges"))
    for i, a in enumerate(profile_ids):
        for b in profile_ids[i + 1:]:
            if rng.random() < spec.friend_density:
                edges[a].append(b)
                edges[b].append(a)
    return {pid: sorted(v) for pid, v in edges.items()}


def write_bundle(bundle: SynthBundle, out_dir: str | Path) -> dict[str, Path]:
    """Write the bundle files; returns the path of each artifact."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "tweets": out / "tweets.jsonl",
        "profiles": out / "profiles.jsonl",
        "tpvs": out / "tpvs.jsonl",
        "toxicity": out / "toxicity_cache.jsonl",
        "labels": out / "labels.csv",
    }
    write_jsonl(paths["tweets"], bundle.tweets)
    write_jsonl(paths["profiles"], bundle.profiles)
    write_jsonl(paths["tpvs"], (
        {"tweet_id": tweet_id, "probs": [round(float(p), 9) for p in bundle.tpvs[tweet_id]]}
        for tweet_id in sorted(bundle.tpvs)
    ))
    bundle.toxicity.save(paths["toxicity"])
    with open(paths["labels"], "w", encoding="utf-8") as fh:
        fh.write("profile_id,label\n")
        for profile_id in sorted(bundle.labels):
            fh.write(f"{profile_id},{bundle.labels[profile_id]}\n")
    return paths
