"""Category probability vectors, Shannon entropy, and entropy-group binning.

Each profile's tweets (those covered by topic vectors) distribute over the
eight thematic categories; the entropy of that distribution places the
profile in one of eight diversity groups. Group boundaries sit at the
entropy of half-integer category counts: a profile spread evenly over k
categories has entropy ln(k), so bins split at ln(1.5), ln(2.5), ...,
ln(7.5).
"""
from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .topics import CATEGORIES, TopicCatalog

GROUP_NAMES = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII")
GROUP_BOUNDARIES = tuple(math.log(k + 0.5) for k in range(1, 8))
MAX_ENTROPY = math.log(len(CATEGORIES))
_H_TOLERANCE = 1e-9


class DiversityError(ValueError):
    pass


def row_categories(catalog: TopicCatalog, matrix: np.ndarray) -> np.ndarray:
    """The index in CATEGORIES of each row's argmax topic; ties break to the
    lowest topic index."""
    of_topic = np.array([CATEGORIES.index(c) for c in catalog.category_of], dtype=np.intp)
    return of_topic[np.argmax(matrix, axis=1)]


def category_counts(rows: list[int], categories: np.ndarray) -> np.ndarray:
    """Tweet counts per category, indexed like CATEGORIES, over a profile's
    matrix rows (its TPV-covered tweets); categories is row_categories'."""
    return np.bincount(categories[rows], minlength=len(CATEGORIES))


def shannon_entropy(cpv) -> float:
    """Natural-log entropy of the category distribution, with 0*ln(0) = 0."""
    p = np.asarray(cpv, dtype=float)
    nonzero = p[p > 0]
    return float(-(nonzero * np.log(nonzero)).sum())


def assign_group(entropy_H: float) -> str:
    """Entropy-interval group: bins left-closed, top bin closed at ln(8)."""
    if entropy_H < -_H_TOLERANCE or entropy_H > MAX_ENTROPY + _H_TOLERANCE:
        raise DiversityError(f"entropy {entropy_H} outside [0, ln 8]")
    h = min(max(entropy_H, 0.0), MAX_ENTROPY)
    return GROUP_NAMES[bisect_right(GROUP_BOUNDARIES, h)]


def diversity_profile(counts: np.ndarray) -> tuple[tuple[float, ...], float]:
    """The category probability vector of a profile's category counts
    (indexed like CATEGORIES, summing to 1) and its entropy H."""
    total = int(counts.sum())
    if total == 0:
        raise DiversityError("profile has no TPV-covered tweets")
    cpv = tuple((counts / total).tolist())
    return cpv, shannon_entropy(cpv)


def group_partition(
    entropy: dict[str, float],
) -> tuple[dict[str, list[str]], list[tuple[str, float]]]:
    """Disjoint cover of profiles by the group of their entropy H, plus
    sorted (group, H) CDF rows."""
    partition: dict[str, list[str]] = {g: [] for g in GROUP_NAMES}
    for profile_id in sorted(entropy):
        partition[assign_group(entropy[profile_id])].append(profile_id)
    cdf_rows: list[tuple[str, float]] = []
    for group in GROUP_NAMES:
        values = sorted(entropy[p] for p in partition[group])
        cdf_rows.extend((group, h) for h in values)
    return partition, cdf_rows
