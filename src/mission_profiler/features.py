"""Classifier feature catalog and per-profile extraction.

The catalog is the literal enumeration of content, auxiliary, and
activity/profile attributes used for detection (40 in total; the count is
reported at runtime rather than assumed). Missing values impute to 0 with
the imputation mask bit set; booleans encode to {0, 1}; the creation date
encodes as account age in days.
"""
from __future__ import annotations

import hashlib
import sys

import numpy as np

from .ingest import ProfileMetadata
from .readability import LEXICAL_KEYS
from .topics import CATEGORIES
from .util import canonical_dumps, loads_line

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
    *LEXICAL_KEYS, "total_hashtags", "unique_hashtags",
    "hashtags_per_tweet", "total_urls", "unique_urls", "urls_per_tweet",
    "n_tweets", "n_retweets", "n_unique", "burstiness", "median_delta_days",
)
# features of profiles with metadata, read from it under the same name,
# except account age, which the metrics row derives from the creation date
_METADATA_FEATURES = (
    "has_location", "description_len", "protected", "followers", "following",
    "listed", "account_age_days", "favourites", "geo_enabled", "verified",
    "statuses", "contributors_enabled", "withheld_countries",
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


def extract_features(
    profile_id: str,
    metric_row: dict,
    category_tweet_counts: dict[str, int] | None,
    metadata: ProfileMetadata | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One profile's feature values and imputation mask (True where the raw
    value was missing and imputed to 0) from its metrics.jsonl row
    (metrics.compute_metric_bundle)."""
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

    for name in _METADATA_FEATURES:
        if metadata is None:
            put(name, None)
        else:
            put(name, metric_row[name] if name == "account_age_days" else getattr(metadata, name))

    if not np.all(np.isfinite(values)):
        bad = [FEATURE_NAMES[i] for i in np.flatnonzero(~np.isfinite(values))]
        raise ValueError(f"non-finite feature values for {profile_id}: {bad}")
    return values, mask


def save_features(ids: list[str], X: np.ndarray, M: np.ndarray, path) -> None:
    """Write row i of X and of the mask M as profile ids[i]'s, in the order given."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps({
            "format": "mission-profiler-features",
            "version": 1,
            "catalog_hash": catalog_hash(),
            "n_features": N_FEATURES,
        }) + "\n")
        for profile_id, values, mask in zip(ids, X, M):
            fh.write(canonical_dumps({
                "profile_id": profile_id, "values": values.tolist(), "mask": mask.tolist(),
            }) + "\n")


def _json_object(line: str, where: str) -> dict:
    """The JSON object on a line; anything else raises ValueError starting with where."""
    try:
        row = loads_line(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise ValueError(f"{where}: bad json: {exc}") from None
    if not isinstance(row, dict):
        raise ValueError(f"{where}: not a JSON object")
    return row


def load_features(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(ids, X, M) as save_features takes them, rows sorted by profile id.
    A header that is not a feature file's raises ValueError naming the
    file. A row that is not a JSON object holding a string profile_id,
    values and mask, a repeated profile id, values or a mask that is not a
    list of N_FEATURES items, a value that is not a finite JSON number (a
    boolean is not one), or a mask item that is not true or false raises
    ValueError naming its line."""
    rows: dict[str, dict] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = _json_object(fh.readline(), f"{path}: line 1")
        if header.get("format") != "mission-profiler-features":
            raise ValueError(f"not a feature file: {path}")
        if header.get("catalog_hash") != catalog_hash():
            raise ValueError(f"{path}: feature file was produced with a different catalog")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = _json_object(line, f"line {lineno}")
            for key in ("profile_id", "values", "mask"):
                if key not in row:
                    raise ValueError(f"line {lineno}: no {key}")
            if not isinstance(row["profile_id"], str):
                raise ValueError(f"line {lineno}: profile_id is not a string")
            if row["profile_id"] in rows:
                raise ValueError(f"line {lineno}: profile {row['profile_id']} has an earlier row")
            for key in ("values", "mask"):
                if not isinstance(row[key], list):
                    raise ValueError(f"line {lineno}: {key} is not a list")
                if len(row[key]) != N_FEATURES:
                    raise ValueError(f"line {lineno}: {key} holds {len(row[key])} items, not {N_FEATURES}")
            if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in row["values"]):
                raise ValueError(f"line {lineno}: values holds an item that is not a finite number")
            if not all(type(m) is bool for m in row["mask"]):
                raise ValueError(f"line {lineno}: mask holds an item that is not true or false")
            rows[row["profile_id"]] = row
    ids = sorted(rows)
    X = np.array([rows[p]["values"] for p in ids], dtype=float).reshape(len(ids), N_FEATURES)
    M = np.array([rows[p]["mask"] for p in ids], dtype=bool).reshape(len(ids), N_FEATURES)
    return ids, X, M
