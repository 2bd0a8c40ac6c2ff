"""On-mission profile detection.

Each profile's mean topic vector, normalized by the corpus-wide topic
average, yields a topic label (its predominant narrative). Profiles in a
diversity group sharing a label form clusters; clusters that are both
large enough and anchored on a sufficiently toxic topic are designated
on-mission. Friend and retweet overlap within clusters is reported as
supporting evidence, alongside the spacing of each profile's top three
topic weights.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter

import numpy as np

from .ingest import ProfileMetadata
from .util import percentile

EPSILON = 1e-12
ON_MISSION = "on_mission"
NOT_ON_MISSION = "not_on_mission"

DEFAULT_MIN_CLUSTER = 3
DEFAULT_TOX_PERCENTILE = 75.0


def global_topic_average(tpvs, n_profiles: int, per_tweet_mean: bool = False, warn=None) -> np.ndarray:
    """Elementwise sum of the tweet topic vectors, the rows of an (n, K)
    array or a list of K-vectors, over the profile count.

    per_tweet_mean=True divides by the tweet count instead, removing the
    dependence on tweets-per-profile. The warning for topics of zero
    average goes to warn(text) when given, else to warnings.warn.
    """
    tpvs = np.asarray(tpvs)
    if not len(tpvs):
        raise ValueError("no topic vectors")
    if n_profiles < 1:
        raise ValueError("profile count must be >= 1")
    total = np.sum(tpvs, axis=0)
    denom = len(tpvs) if per_tweet_mean else n_profiles
    avg = total / denom
    zeros = avg == 0.0
    if np.any(zeros):
        message = f"{int(zeros.sum())} topics have zero global average; floored to {EPSILON}"
        if warn is None:
            warnings.warn(message, stacklevel=2)
        else:
            warn(message)
        avg = np.where(zeros, EPSILON, avg)
    return avg


def ntpv(profile_tpvs, global_avg: np.ndarray) -> np.ndarray:
    """The mean of a profile's topic vectors (array rows or a list) over the global average, elementwise."""
    vectors = np.asarray(profile_tpvs)
    if not len(vectors):
        raise ValueError("profile has no topic vectors")
    return np.mean(vectors, axis=0) / global_avg


def assign_topic_labels(ntpvs: dict[str, np.ndarray]) -> dict[str, int]:
    """Each profile's topic label: the argmax of its nTPV, ties to the
    lowest topic index."""
    return {profile_id: int(np.argmax(ntpvs[profile_id])) for profile_id in sorted(ntpvs)}


def toxicity_threshold(
    aggregates: dict[int, dict],
    tox_gate: tuple[str, float] = ("percentile", DEFAULT_TOX_PERCENTILE),
) -> float:
    """Resolve the toxicity gate to an absolute threshold.

    ("percentile", p) takes the p-th percentile of all non-null topic
    median toxicities; ("absolute", x) uses x directly.
    """
    kind, value = tox_gate
    if kind == "absolute":
        return float(value)
    if kind != "percentile":
        raise ValueError(f"unknown toxicity gate {kind!r}")
    medians = [a["median_toxicity"] for a in aggregates.values() if a["median_toxicity"] is not None]
    if not medians:
        raise ValueError("no topic has a median toxicity; cannot derive a percentile gate")
    return percentile(medians, value)


def top3_gap(weights: np.ndarray) -> tuple[float, float] | None:
    """Gaps between the top-1/top-2 and top-2/top-3 weights, or None if
    fewer than three topics carry mass."""
    w = np.asarray(weights, dtype=float)
    if int(np.count_nonzero(w)) < 3:
        return None
    top = np.sort(w)[::-1][:3]
    return float(top[0] - top[1]), float(top[1] - top[2])


def overlap_evidence(members: list[str], metadata: dict[str, ProfileMetadata | None]) -> dict:
    """Friendship and retweet overlap within a cluster of distinct members,
    as the "friend_overlap" and "shared_retweet_ratio" keys of its row.

    friend_overlap is the fraction of connected member pairs (either lists
    the other as a friend) among the pairs where at least one member lists
    friends; shared_retweet_ratio is the fraction of members sharing a
    retweeted id with another member. Each is None when no member carries
    its data, friend_overlap also when no pair counts.
    """
    metas = {m: meta for m in members if (meta := metadata.get(m)) is not None}
    friends = {m: meta.friends_ids for m, meta in metas.items() if meta.friends_ids is not None}
    retweets = [set(meta.retweeted_ids) for meta in metas.values() if meta.retweeted_ids is not None]

    friend_overlap = None
    if friends:
        inside = set(members)
        connected = {(a, b) if a < b else (b, a) for a, ids in friends.items() for b in ids if b in inside and b != a}
        # the pairs of which at least one member lists friends
        pairs = math.comb(len(members), 2) - math.comb(len(members) - len(friends), 2)
        friend_overlap = len(connected) / pairs if pairs else None

    shared_retweet_ratio = None
    if retweets:
        holders = Counter(r for ids in retweets for r in ids)
        sharing = sum(any(holders[r] > 1 for r in ids) for ids in retweets)
        shared_retweet_ratio = sharing / len(members)

    return {"friend_overlap": friend_overlap, "shared_retweet_ratio": shared_retweet_ratio}


def detect_clusters(
    group: list[str],
    labels: dict[str, int],
    aggregates: dict[int, dict],
    min_cluster: int = DEFAULT_MIN_CLUSTER,
    tox_gate: tuple[str, float] = ("percentile", DEFAULT_TOX_PERCENTILE),
    metadata: dict[str, ProfileMetadata | None] | None = None,
    ntpvs: dict[str, np.ndarray] | None = None,
) -> tuple[list[dict], dict[str, dict]]:
    """Group profiles by shared topic label and designate on-mission members.

    A cluster is on-mission when it has at least min_cluster members and
    its label topic's median toxicity clears the gate; every profile in
    the group receives exactly one designation. Clusters come as rows
    ("cluster_id", "topic_label", "size", "topic_median_toxicity",
    "on_mission" and the overlap_evidence keys), largest first;
    designations as rows ("profile_id", "label", "cluster_id",
    "topic_label" and "evidence"), keyed by profile id.
    """
    if not group:
        raise ValueError("empty profile group")
    threshold = toxicity_threshold(aggregates, tox_gate)

    by_label: dict[int, list[str]] = {}
    for profile_id in sorted(group):
        if profile_id not in labels:
            raise KeyError(f"profile {profile_id} has no topic label")
        by_label.setdefault(labels[profile_id], []).append(profile_id)

    clusters: list[dict] = []
    designations: dict[str, dict] = {}
    ordered = sorted(by_label.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    for topic_label, members in ordered:
        tox = aggregates[topic_label]["median_toxicity"] if topic_label in aggregates else None
        on_mission = len(members) >= min_cluster and tox is not None and tox >= threshold
        # without metadata no member carries friends or retweets: both keys are None
        overlap = overlap_evidence(members, metadata or {})
        cluster_id = f"t{topic_label}"
        clusters.append({
            "cluster_id": cluster_id,
            "topic_label": topic_label,
            "size": len(members),
            "topic_median_toxicity": tox,
            "on_mission": on_mission,
            **overlap,
        })
        for profile_id in members:
            gaps = None
            if ntpvs is not None and profile_id in ntpvs:
                gaps = top3_gap(ntpvs[profile_id])
            designations[profile_id] = {
                "profile_id": profile_id,
                "label": ON_MISSION if on_mission else NOT_ON_MISSION,
                "cluster_id": cluster_id,
                "topic_label": topic_label,
                "evidence": {
                    "cluster_size": len(members),
                    "topic_median_tox": tox,
                    **overlap,
                    "top3_gaps": list(gaps) if gaps else None,
                },
            }
    return clusters, designations


def fleiss_kappa(ratings: list[list]) -> dict:
    """Chance-corrected agreement for a fixed rater count per item, as
    {"kappa", "n_items", "n_raters", "n_categories"}.

    ratings is an items x raters matrix of category labels. Kappa is 1 on
    unanimous matrices and near 0 for independent uniform raters.
    """
    if not ratings:
        raise ValueError("no rating rows")
    n_raters = len(ratings[0])
    if n_raters < 2:
        raise ValueError("need at least 2 raters")
    if any(len(row) != n_raters for row in ratings):
        raise ValueError("every item must be rated by the same number of raters")

    categories = sorted({str(c) for row in ratings for c in row})
    cat_index = {c: i for i, c in enumerate(categories)}
    n_items = len(ratings)
    counts = np.zeros((n_items, len(categories)), dtype=float)
    for i, row in enumerate(ratings):
        for cell in row:
            counts[i, cat_index[str(cell)]] += 1

    p_item = ((counts ** 2).sum(axis=1) - n_raters) / (n_raters * (n_raters - 1))
    p_bar = float(p_item.mean())
    p_cat = counts.sum(axis=0) / (n_items * n_raters)
    p_expected = float((p_cat ** 2).sum())
    if p_expected >= 1.0:
        kappa = 1.0  # single observed category: agreement is trivially perfect
    else:
        kappa = (p_bar - p_expected) / (1.0 - p_expected)
    return {"kappa": float(kappa), "n_items": n_items, "n_raters": n_raters, "n_categories": len(categories)}
