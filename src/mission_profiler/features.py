"""Classifier feature catalog and per-profile extraction.

The catalog is the literal enumeration of content, auxiliary, and
activity/profile attributes used for detection (40 in total; the count is
reported at runtime rather than assumed). Missing values impute to 0 with
the imputation mask bit set; booleans encode to {0, 1}; the creation date
encodes as account age in days.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .ingest import ProfileMetadata
from .topics import CATEGORIES
from .util import canonical_dumps

GROUP_CONTENT = "content"
GROUP_AUXILIARY = "auxiliary"
GROUP_ACTIVITY_PROFILE = "activity_profile"

FEATURE_CATALOG: tuple[tuple[str, str], ...] = tuple(
    [(f"tweets_{c}", GROUP_CONTENT) for c in CATEGORIES]
    + [
        ("median_toxicity", GROUP_CONTENT),
        ("flesch_kincaid_grade", GROUP_CONTENT),
        ("flesch_ease", GROUP_CONTENT),
        ("linsear_write", GROUP_CONTENT),
        ("ari", GROUP_CONTENT),
        ("lexical_diversity_mtld", GROUP_CONTENT),
        ("chars_per_tweet", GROUP_CONTENT),
        ("words_per_tweet", GROUP_CONTENT),
        ("total_hashtags", GROUP_AUXILIARY),
        ("unique_hashtags", GROUP_AUXILIARY),
        ("hashtags_per_tweet", GROUP_AUXILIARY),
        ("total_urls", GROUP_AUXILIARY),
        ("unique_urls", GROUP_AUXILIARY),
        ("urls_per_tweet", GROUP_AUXILIARY),
        ("n_tweets", GROUP_ACTIVITY_PROFILE),
        ("n_retweets", GROUP_ACTIVITY_PROFILE),
        ("n_unique", GROUP_ACTIVITY_PROFILE),
        ("burstiness", GROUP_ACTIVITY_PROFILE),
        ("median_delta_days", GROUP_ACTIVITY_PROFILE),
        ("has_location", GROUP_ACTIVITY_PROFILE),
        ("description_len", GROUP_ACTIVITY_PROFILE),
        ("protected", GROUP_ACTIVITY_PROFILE),
        ("followers", GROUP_ACTIVITY_PROFILE),
        ("following", GROUP_ACTIVITY_PROFILE),
        ("listed", GROUP_ACTIVITY_PROFILE),
        ("account_age_days", GROUP_ACTIVITY_PROFILE),
        ("favourites", GROUP_ACTIVITY_PROFILE),
        ("geo_enabled", GROUP_ACTIVITY_PROFILE),
        ("verified", GROUP_ACTIVITY_PROFILE),
        ("statuses", GROUP_ACTIVITY_PROFILE),
        ("contributors_enabled", GROUP_ACTIVITY_PROFILE),
        ("withheld_countries", GROUP_ACTIVITY_PROFILE),
    ]
)

FEATURE_NAMES = tuple(name for name, _ in FEATURE_CATALOG)
FEATURE_GROUPS = (GROUP_CONTENT, GROUP_AUXILIARY, GROUP_ACTIVITY_PROFILE)
N_FEATURES = len(FEATURE_CATALOG)


# features read under the same name from a metrics row
_ROW_FEATURES = (
    "flesch_kincaid_grade", "flesch_ease", "linsear_write", "ari", "lexical_diversity_mtld",
    "chars_per_tweet", "words_per_tweet", "total_hashtags", "unique_hashtags",
    "hashtags_per_tweet", "total_urls", "unique_urls", "urls_per_tweet",
    "n_tweets", "n_retweets", "n_unique", "burstiness", "median_delta_days",
)


def catalog_hash() -> str:
    text = "\n".join(f"{name}:{group}" for name, group in FEATURE_CATALOG)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def group_indices(group: str) -> list[int]:
    if group == "all":
        return list(range(N_FEATURES))
    if group not in FEATURE_GROUPS:
        raise ValueError(f"unknown feature group {group!r}")
    return [i for i, (_, g) in enumerate(FEATURE_CATALOG) if g == group]


@dataclass
class FeatureVector:
    profile_id: str
    values: np.ndarray
    mask: np.ndarray  # True where the raw value was missing and imputed to 0


def extract_features(
    profile_id: str,
    metric_row: dict,
    category_tweet_counts: dict[str, int] | None,
    metadata: ProfileMetadata | None,
) -> FeatureVector:
    """One profile's vector from its metrics.jsonl row (metrics.bundle_to_dict)."""
    values = np.zeros(N_FEATURES, dtype=float)
    mask = np.zeros(N_FEATURES, dtype=bool)

    def put(name: str, value) -> None:
        idx = FEATURE_NAMES.index(name)
        if value is None:
            mask[idx] = True
            return
        values[idx] = float(value)

    for category in CATEGORIES:
        count = category_tweet_counts.get(category) if category_tweet_counts else None
        put(f"tweets_{category}", count)

    put("median_toxicity", metric_row["toxicity_median"])
    for name in _ROW_FEATURES:
        put(name, metric_row[name])

    if metadata is None:
        for name in (
            "has_location", "description_len", "protected", "followers", "following",
            "listed", "account_age_days", "favourites", "geo_enabled", "verified",
            "statuses", "contributors_enabled", "withheld_countries",
        ):
            put(name, None)
    else:
        put("has_location", metadata.has_location)
        put("description_len", metadata.description_len)
        put("protected", metadata.protected)
        put("followers", metadata.followers)
        put("following", metadata.following)
        put("listed", metadata.listed)
        put("account_age_days", metric_row["account_age_days"])
        put("favourites", metadata.favourites)
        put("geo_enabled", metadata.geo_enabled)
        put("verified", metadata.verified)
        put("statuses", metadata.statuses)
        put("contributors_enabled", metadata.contributors_enabled)
        put("withheld_countries", metadata.withheld_countries)

    if not np.all(np.isfinite(values)):
        bad = [FEATURE_NAMES[i] for i in np.flatnonzero(~np.isfinite(values))]
        raise ValueError(f"non-finite feature values for {profile_id}: {bad}")
    return FeatureVector(profile_id=profile_id, values=values, mask=mask)


def feature_matrix(vectors: list[FeatureVector]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Stack feature vectors into (ids, X, imputation mask) sorted by id."""
    ordered = sorted(vectors, key=lambda v: v.profile_id)
    ids = [v.profile_id for v in ordered]
    if not ordered:
        return ids, np.zeros((0, N_FEATURES)), np.zeros((0, N_FEATURES), dtype=bool)
    X = np.stack([v.values for v in ordered])
    M = np.stack([v.mask for v in ordered])
    return ids, X, M


def save_features(vectors: list[FeatureVector], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps({
            "format": "mission-profiler-features",
            "version": 1,
            "catalog_hash": catalog_hash(),
            "n_features": N_FEATURES,
        }) + "\n")
        for v in sorted(vectors, key=lambda v: v.profile_id):
            fh.write(canonical_dumps({
                "profile_id": v.profile_id,
                "values": [float(x) for x in v.values],
                "mask": [bool(b) for b in v.mask],
            }) + "\n")


def load_features(path) -> list[FeatureVector]:
    vectors = []
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != "mission-profiler-features":
            raise ValueError(f"not a feature file: {path}")
        if header.get("catalog_hash") != catalog_hash():
            raise ValueError("feature file was produced with a different catalog")
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            vectors.append(FeatureVector(
                profile_id=row["profile_id"],
                values=np.asarray(row["values"], dtype=float),
                mask=np.asarray(row["mask"], dtype=bool),
            ))
    return vectors
