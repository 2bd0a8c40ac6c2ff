"""From-scratch two-class models over the feature catalog.

Linear SVM trained by full-batch subgradient descent on L2-regularized
hinge loss; CART decision tree splitting on Gini impurity; random forest
of bootstrapped CARTs with sqrt(F) feature sampling per split, every
random draw a splitmix64 output keyed by (seed, tree, node). All the
trees of a fit grow together, one level of every tree a pass. A fitted
model is a TrainedModel, which holds what its versioned JSON file holds:
the SVM's weights and bias or the trees' node dicts, and the training
split's per-feature mins and maxs. Everything is seeded, so identical
inputs reproduce byte-identical model files, and a file whose contents
prediction could not use fails to load, naming the file.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .features import FEATURE_NAMES, catalog_hash, group_indices
from .util import derive_seed, read_json, write_json

MODEL_FORMAT = "mission-profiler-model"
MODEL_VERSION = 1

KIND_SVM = "linear_svm"
KIND_TREE = "decision_tree"
KIND_FOREST = "random_forest"
MODEL_KINDS = (KIND_SVM, KIND_TREE, KIND_FOREST)


@dataclass
class TrainConfig:
    svm_c: float = 1.0
    svm_epochs: int = 1000
    tree_max_depth: int = 8
    tree_min_samples_split: int = 2
    forest_trees: int = 100

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _scale(X: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Each column of X mapped to [0, 1] by the training split's mins and
    maxs: a constant training column maps to 0, and values outside the
    training range clip."""
    span = maxs - mins
    safe = np.where(span == 0, 1.0, span)
    scaled = (X - mins) / safe
    scaled = np.where(span == 0, 0.0, scaled)
    return np.clip(scaled, 0.0, 1.0)


def split_80_20(labels: np.ndarray, seed: int) -> tuple[list[int], list[int]]:
    """Disjoint, exhaustive train/test index split, stratified by class and
    deterministic per seed."""
    y = np.asarray(labels)
    n = len(y)
    if n < 5:
        raise ValueError("need at least 5 labeled examples")
    rng = random.Random(seed)
    test: list[int] = []
    for cls in sorted(set(int(v) for v in y)):
        idx = [int(i) for i in np.flatnonzero(y == cls)]
        rng.shuffle(idx)
        n_test = int(round(len(idx) * 0.2))
        n_test = min(n_test, len(idx) - 1)  # keep every class in train
        test.extend(idx[:n_test])
    test_set = set(test)
    train = sorted(i for i in range(n) if i not in test_set)
    test = sorted(test)
    for cls in set(int(v) for v in y):
        if not any(int(y[i]) == cls for i in train):
            raise ValueError(f"class {cls} absent from the training split")
    return train, test


def _svm_weights(X: np.ndarray, y: np.ndarray, groups: list[list[int]], config: TrainConfig) -> list[np.ndarray]:
    """A linear SVM's weights, bias last, fitted on the columns groups[g]
    of X for each g, all in one epoch loop.

    Full-batch subgradient descent on (lambda/2)||w||^2 + mean hinge with
    lambda = 1/(C*n), the classic C-SVM scaling, on the 1/(lambda*t)
    schedule; the bias rides along as an appended constant feature.

    Each group keeps its own margins, yXb_g @ w_g. The violating rows of
    every group are summed in one reduction of the C-ordered matrix
    [yXb_0 | yXb_1 | ...] where the violating mask, spread over each
    group's columns, is set: each column adds its rows one after another
    from 0.0, so every group gets the bits yXb_g[violating].sum(axis=0)
    gives. (An F-ordered matrix would be summed pairwise, with other last
    bits.)
    """
    y_signed = np.where(np.asarray(y) > 0, 1.0, -1.0)
    n = len(y_signed)
    # rows times their signs: exact, as the signs are +-1, so the margins
    # and the hinge subgradient keep every bit of y * (Xb @ w) and y * Xb
    yXb = [y_signed[:, None] * np.hstack([X[:, cols], np.ones((n, 1))]) for cols in groups]
    stacked = np.hstack(yXb)
    widths = [m.shape[1] for m in yXb]
    lam = 1.0 / (config.svm_c * n)
    w = np.zeros(stacked.shape[1])
    parts = np.split(w, np.cumsum(widths)[:-1])  # each group's weights, views of w
    margins = np.empty((len(groups), n))
    violating = np.empty(margins.shape, dtype=bool)
    for t in range(1, config.svm_epochs + 1):
        for m, part, out in zip(yXb, parts, margins):
            np.dot(m, part, out=out)  # the BLAS call of m @ part, without the ufunc dispatch
        np.less(margins, 1.0, out=violating)
        grad = lam * w - np.add.reduce(stacked, axis=0, where=violating.T.repeat(widths, axis=1)) / n
        w -= grad / (lam * t)
    return [part.copy() for part in parts]


# Cells of the padded (nodes x candidate features x distinct rows) grid
# one batched split search fills. Its temporaries peak at about 70 bytes a
# cell (tracemalloc, many_profiles ablation), about 0.3 MB a full batch,
# however many nodes a level holds. Drawing k of F candidates takes F <=
# k(k + 1) keys a node of 2 distinct rows or more, so the cap bounds a
# batch's draws too.
_SPLIT_BATCH_CELLS = 1 << 12


def _keyed(keys: np.ndarray, nodes, count: int) -> np.ndarray:
    """count draws for each row, (rows x count) uint64: draw i of row j is
    splitmix64 of the counter i + 1, offset by keys[j] ^ nodes[j] * golden
    (the (i + 1)-th output of a splitmix64 stream seeded there).

    Counter-based, as in Salmon et al.'s generators: a row's draws depend
    on its key and node only, never on the draws made before. Every
    operation is on arrays, which wrap mod 2**64 without a warning.
    """
    golden = 0x9E3779B97F4A7C15  # splitmix64's increment, 2**64 over the golden ratio
    keys = np.asarray(keys, dtype=np.uint64)
    nodes = np.broadcast_to(np.asarray(nodes, dtype=np.uint64), keys.shape)
    z = (keys ^ nodes * golden)[:, None] + np.arange(1, count + 1, dtype=np.uint64) * golden
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _rank_cells(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort keys for the split search and the values they stand for.

    Keys are (features x rows): each cell's 2 * (dense rank of its value
    in its column) + its row's label, in the smallest unsigned dtype that
    holds every key. Values are (features x most distinct values in a
    column): each column's distinct values in ascending order, zero-filled.
    """
    n_features = X.shape[1]
    order = np.argsort(X, axis=0)
    sorted_vals = np.take_along_axis(X, order, axis=0)
    sorted_rank = np.zeros(X.shape, dtype=np.intp)
    np.cumsum(sorted_vals[1:] != sorted_vals[:-1], axis=0, out=sorted_rank[1:])
    width = int(sorted_rank[-1].max(initial=0)) + 1
    values = np.zeros((n_features, width))
    values[np.arange(n_features), sorted_rank] = sorted_vals
    keys = np.empty((n_features, len(X)), dtype=np.min_scalar_type(2 * width - 1))
    np.put_along_axis(keys, order.T, (2 * sorted_rank + np.asarray(y)[order]).T, axis=1)
    return keys, values


def _route(roots: list[dict], X: np.ndarray) -> np.ndarray:
    """Each tree's leaf ratio n_pos / n (0.0 for an empty leaf) for every
    row of X, (trees x rows). The trees are flattened breadth-first into one
    node table, each leaf its own child, and the rows of all trees step
    down it together, one level a step, until every row sits in a leaf; a
    row goes left when its value is <= the node's threshold."""
    nodes = list(roots)
    for node in nodes:  # grows as it goes: the children of node i follow every earlier node's
        if not node["leaf"]:
            nodes += (node["left"], node["right"])
    leaf = np.fromiter((node["leaf"] for node in nodes), bool, len(nodes))
    feature = np.fromiter((node.get("feature", 0) for node in nodes), np.intp, len(nodes))
    threshold = np.fromiter((node.get("threshold", 0.0) for node in nodes), float, len(nodes))
    ratio = np.fromiter((node["n_pos"] / node["n"] if node.get("n") else 0.0 for node in nodes), float, len(nodes))
    split = ~leaf
    left = np.where(leaf, np.arange(len(nodes)), len(roots) + 2 * (np.cumsum(split) - split))
    right = left + split
    X = np.asarray(X, float)
    rows = np.arange(len(X))
    at = np.repeat(np.arange(len(roots))[:, None], len(X), axis=1)
    while not leaf[at].all():
        at = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
    return ratio[at]


def _grow(
    X: np.ndarray, y: np.ndarray, seed: int, groups: list[list[int]], config: TrainConfig,
    trees: bool = True, forests: bool = True,
) -> tuple[list[dict], list[list[dict]]]:
    """The root of each column list's CART (when trees) and the roots of
    its forest (when forests), all grown together, one level of every tree
    a pass. A tree splits on the columns of its list, an ascending list of
    columns of X, and a node stores its split column's place in that list.
    A CART's splits consider every column of its list; a tie between
    candidate splits goes to the lowest place and threshold, so growth is
    deterministic.

    Nodes are numbered heap-style: the root is 1 and node j's children are
    2j and 2j + 1, mod 2**64. Tree i of a forest is keyed by
    derive_seed(seed, "tree", i). Its bootstrap is _keyed(key, 0, n) % n; at
    node j it considers the k = sqrt(F) rounded places of its F columns
    whose draws in _keyed(key, j, F) are smallest, in ascending order. The
    key is the same in every forest, so the forests share tree i's
    bootstrap, drawn once.

    A level is arrays: each node's column list, forest tree number (-1 for
    a CART), heap number and distinct row count, and its distinct rows with
    how often it holds each (a bootstrap's repeat is a count), node after
    node. A pass scores one list's nodes, sampled or not, in _best_splits
    batches of at most _SPLIT_BATCH_CELLS grid cells (a larger node alone).
    The node dicts are made once growth ends, one list a level.
    """
    X, y = np.asarray(X, float), np.asarray(y, int)
    ranked, labels, n = _rank_cells(X, y), y > 0, len(y)
    small = np.min_scalar_type(n)  # holds a row number and a count
    groups = [np.asarray(cols, dtype=np.intp) for cols in groups]
    place = np.zeros((len(groups), X.shape[1]), dtype=np.intp)  # place[g, column]: its place in list g
    for g, cols in enumerate(groups):
        place[g, cols] = np.arange(len(cols))
    # the first level: each list's CART holds every row once, then tree i of
    # each list's forest its bootstrap's distinct rows, counted as drawn
    carts, forest_trees = len(groups) if trees else 0, config.forest_trees if forests else 0
    group = np.concatenate([np.arange(carts), np.repeat(np.arange(len(groups)), forest_trees)])
    tree = np.concatenate([np.full(carts, -1), np.tile(np.arange(forest_trees), len(groups))])
    number = np.ones(len(group), dtype=np.uint64)
    rows, counts, sizes = [np.tile(np.arange(n, dtype=small), carts)], [np.ones(carts * n, small)], [np.full(carts, n)]
    if forests:
        keys = np.array([derive_seed(seed, "tree", i) for i in range(forest_trees)], dtype=np.uint64)
        boots = (_keyed(keys, 0, n) % n).astype(np.intp)  # a bootstrap may draw one class only; that tree is one leaf
        drawn = np.bincount((boots + np.arange(0, boots.size, n)[:, None]).ravel(), minlength=boots.size).reshape(-1, n)
        rows += [np.nonzero(drawn)[1].astype(small)] * len(groups)
        counts += [drawn[drawn > 0].astype(small)] * len(groups)
        sizes += [np.count_nonzero(drawn, axis=1)] * len(groups)
        del boots, drawn
    rows, counts, sizes = np.concatenate(rows), np.concatenate(counts), np.concatenate(sizes)
    levels = []  # each level's nodes: split or not, split place and threshold, rows and positive rows counted
    for depth in range(config.tree_max_depth, -1, -1):
        starts = np.cumsum(sizes) - sizes
        total = np.add.reduceat(counts, starts, dtype=np.intp)
        positive = np.add.reduceat(np.where(labels[rows], counts, 0), starts, dtype=np.intp)
        searched = (positive > 0) & (positive < total) & (total >= config.tree_min_samples_split) & (depth > 0)
        feature, threshold = np.full(len(sizes), -1), np.zeros(len(sizes))
        for (g, cols), sampled in itertools.product(enumerate(groups), (False, True)):
            pending = np.flatnonzero(searched & (group == g) & ((tree >= 0) == sampled))
            pending = pending[np.argsort(n - sizes[pending], kind="stable")]  # a batch pads its nodes to its first
            k = max(1, round(math.sqrt(len(cols)))) if sampled else len(cols)
            while len(pending):
                batch = pending[:max(1, _SPLIT_BATCH_CELLS // (int(sizes[pending[0]]) * k))]
                pending = pending[len(batch):]
                if sampled:
                    draws = _keyed(keys[tree[batch]], number[batch], len(cols))
                    feats = cols[np.sort(np.argsort(draws, axis=1, kind="stable")[:, :k], axis=1)]
                else:
                    feats = np.broadcast_to(cols, (len(batch), k))
                feature[batch], threshold[batch] = _best_splits(
                    rows, counts, starts[batch], sizes[batch], feats, ranked)
        split = feature >= 0
        levels.append((split, place[group, feature], threshold, total, positive))
        if not split.any():
            break
        # child 2s of the s-th split node gets its rows <= the threshold, child 2s + 1 the others
        kept = np.repeat(split, sizes)
        rows, counts, sizes = rows[kept], counts[kept], sizes[split]
        child = np.repeat(np.arange(0, 2 * len(sizes), 2), sizes)
        child += X[rows, np.repeat(feature[split], sizes)] > np.repeat(threshold[split], sizes)
        order = np.argsort(child, kind="stable")
        rows, counts, sizes = rows[order], counts[order], np.bincount(child, minlength=2 * len(sizes))
        group, tree = np.repeat(group[split], 2), np.repeat(tree[split], 2)
        number = (2 * number[split][:, None] + np.arange(2, dtype=np.uint64)).ravel()
    # every node's dict, deepest level first: a split holds the next two dicts of
    # the level below, a leaf its majority class (an exact tie is negative)
    below: list[dict] = []
    while levels:
        split, at, cut, held, pos = levels.pop()
        kids = iter(below)
        below = [
            {"leaf": False, "feature": f, "threshold": t, "left": next(kids), "right": next(kids)} if s
            else {"leaf": True, "n": m, "n_pos": p, "cls": c}
            for s, f, t, m, p, c in zip(*(a.tolist() for a in (split, at, cut, held, pos, (2 * pos > held) * 1)))
        ]
    return below[:carts], [below[carts + g * forest_trees:][:forest_trees] for g in range(len(groups))] if forests else []


def _best_splits(
    rows: np.ndarray, counts: np.ndarray, starts: np.ndarray, sizes: np.ndarray, feats: np.ndarray,
    ranked: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """CART split search of several nodes at once: each node's feature and
    threshold, feature -1 where no candidate column holds two distinct
    values. Node j holds the distinct rows rows[starts[j]:][:sizes[j]] of X
    (finite floats) and y (0/1), each as often as counts says at its place,
    and may split on the columns feats[j]; ranked is _rank_cells(X, y).

    The nodes' sort keys lie in one grid padded to the largest, (nodes x
    features x distinct rows), each shifted left to hold its row's count,
    and each column is sorted within its node. Running sums of the counts
    and of the positive rows' counts give every cut's weighted Gini
    impurity, bit for bit the score of the node that repeats each row count
    times. Each node walks its cuts between distinct values feature by
    feature; a cut replaces the best so far only when it scores more than
    1e-15 below it, which keeps the first least score unless a score lies
    within 1e-14 above it (only such a node walks its cuts one by one).
    Zero-gain splits are allowed: a first cut on symmetric data like XOR
    improves nothing by itself but enables pure children.
    """
    keys, values = ranked
    feature, threshold = np.full(len(sizes), -1), np.zeros(len(sizes))
    width, k = int(sizes.max(initial=0)), feats.shape[1]
    # a node's padding repeats its last row with count 0: it sorts among
    # that row's equal values, so it adds no cut and nothing to a sum
    slot = starts[:, None] + np.minimum(np.arange(width), sizes[:, None] - 1)  # each grid row's place in rows
    weight = np.where(np.arange(width) < sizes[:, None], counts.take(slot), 0)
    shift = int(weight.max(initial=0)).bit_length()
    cell = np.min_scalar_type((2 * values.shape[1] - 1) << shift | ((1 << shift) - 1))  # holds every key and count
    grid = keys.take(feats[:, :, None] * keys.shape[1] + rows.take(slot)[:, None, :]).astype(cell, copy=False)
    grid <<= shift
    grid |= weight.astype(cell)[:, None, :]
    grid.sort(axis=-1)
    rank = grid >> (shift + 1)
    # a cut lies between two sorted cells of a column whose ranks differ
    flat = np.flatnonzero(rank[..., :-1] != rank[..., 1:])
    if not len(flat):
        return feature, threshold
    column = flat // (width - 1)  # node * candidate features + its place among them
    cut, node = flat + column, column // k  # cut: the grid cell left of the cut
    # one running sum over the grid holds both of a cut's sums: a cell adds
    # count * (2**bits + label), and no column's positive count reaches 2**bits
    bits = int(weight.sum()).bit_length()
    label, count = np.divmod(np.arange(2 << shift), 1 << shift)  # of a cell's low bits
    sums = np.zeros(grid.size + 1, dtype=np.intp)
    np.cumsum((count * ((1 << bits) + label)).take(grid.ravel() & ((2 << shift) - 1)), out=sums[1:])
    before = sums[:-1:width]  # each column's sums before its first cell
    left, held = sums.take(cut + 1) - before.take(column), (sums[width::width] - before).take(column)
    n_left, pos_left = (left >> bits).astype(float), (left & (1 << bits) - 1).astype(float)
    n, pos = held >> bits, held & (1 << bits) - 1
    n_right, neg_left = n - n_left, n_left - pos_left
    pos_right = pos - pos_left
    neg_right = n_right - pos_right
    # keep this operation order: saved thresholds depend on the scores' last bits
    gini_left = 1.0 - ((neg_left / n_left) ** 2 + (pos_left / n_left) ** 2)
    gini_right = 1.0 - ((neg_right / n_right) ** 2 + (pos_right / n_right) ** 2)
    score = (n_left * gini_left + n_right * gini_right) / n
    # each node's cuts are a run of score in walk order
    first = np.flatnonzero(np.concatenate([[True], node[1:] != node[:-1]]))
    ends = np.append(first[1:], len(score))
    least = np.minimum.reduceat(score, first).repeat(ends - first)
    hit, near = score == least, score <= least + 1e-14
    best = np.minimum.reduceat(np.where(hit, np.arange(len(score)), len(score)), first)
    if np.count_nonzero(near) > np.count_nonzero(hit):
        for run in np.flatnonzero(np.logical_or.reduceat(near & ~hit, first)).tolist():
            low = math.inf
            for i, value in enumerate(score[first[run]:ends[run]].tolist(), first[run]):
                if value < low - 1e-15:
                    best[run], low = i, value
    won, rank = node[best], rank.ravel()
    feature[won] = feats.ravel()[column[best]]
    row = feature[won] * values.shape[1]  # the won features' rows of values
    threshold[won] = (values.take(row + rank.take(cut[best])) + values.take(row + rank.take(cut[best] + 1))) / 2.0
    return feature, threshold


def _classes(kind: str, scores: np.ndarray) -> np.ndarray:
    """1 where the SVM's margin is >= 0, the tree's leaf holds more
    positives than negatives (its ratio is > 0.5), or the forest's mean
    leaf ratio is >= 0.5, else 0."""
    if kind == KIND_TREE:
        return (scores > 0.5).astype(int)
    return (scores >= (0.0 if kind == KIND_SVM else 0.5)).astype(int)


@dataclass
class TrainedModel:
    """A fitted model as its model_*.json holds it: the kind, the file's
    parameters ({"w", "b"}, {"root"} or {"trees": [{"root"}, ...]}), the
    scaler's per-feature mins and maxs, the feature columns it reads, and
    the seed and config it was trained with."""

    kind: str
    parameters: dict
    mins: np.ndarray
    maxs: np.ndarray
    feature_indices: list[int]
    seed: int
    config: TrainConfig

    def predict(self, X_raw: np.ndarray) -> np.ndarray:
        """The 0/1 class _classes gives each row's decision score."""
        return _classes(self.kind, self.decision_scores(X_raw))

    def decision_scores(self, X_raw: np.ndarray) -> np.ndarray:
        """The SVM's margin, or each row's leaf ratio n_pos / n averaged over
        the tree's root or the forest's roots, on the scaled columns."""
        width = np.shape(X_raw)[1]
        if max(self.feature_indices, default=-1) >= width:
            raise ValueError(f"the model reads feature column {max(self.feature_indices)}; the matrix has {width} columns")
        X = _scale(X_raw[:, self.feature_indices], self.mins, self.maxs)
        if self.kind == KIND_SVM:
            return X @ np.asarray(self.parameters["w"], float) + self.parameters["b"]
        trees = [self.parameters] if self.kind == KIND_TREE else self.parameters["trees"]
        return _route([tree["root"] for tree in trees], X).mean(axis=0)

    def save(self, path, extra: dict | None = None) -> None:
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": self.kind,
            "parameters": self.parameters,
            "scaler": {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()},
            "feature_indices": self.feature_indices,
            "feature_names": [
                FEATURE_NAMES[i] if i < len(FEATURE_NAMES) else f"f{i}"
                for i in self.feature_indices
            ],
            "seed": self.seed,
            "config": self.config.as_dict(),
            "catalog_hash": catalog_hash(),
        }
        if extra:
            payload.update(extra)
        write_json(path, payload)

    @classmethod
    def load(cls, path) -> "TrainedModel":
        """The model a save wrote to path. A file that is not a model file,
        or whose payload _payload_problem finds fault with, raises
        ValueError naming it."""
        payload = read_json(path)
        if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a model file: {path}")
        problem = _payload_problem(payload)
        if problem:
            raise ValueError(f"{path}: {problem}")
        mins, maxs = (np.asarray(payload["scaler"][key], float) for key in ("mins", "maxs"))
        return cls(
            payload["kind"], payload["parameters"], mins, maxs, payload["feature_indices"], payload["seed"],
            TrainConfig(**payload.get("config", {})),
        )


def _finite(value) -> bool:
    """Whether value is a JSON number (not a boolean) that a float holds finitely."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def _config_problem(config: TrainConfig) -> str | None:
    """The first field of config that a fit cannot use, named, or None:
    svm_c must be a finite number above 0, svm_epochs and forest_trees at
    least 1."""
    if not (math.isfinite(config.svm_c) and config.svm_c > 0):
        return f"svm_c is {config.svm_c!r}; it must be a finite number above 0"
    for name in ("svm_epochs", "forest_trees"):
        if getattr(config, name) < 1:
            return f"{name} is {getattr(config, name)!r}; it must be at least 1"
    return None


def _payload_problem(payload: dict) -> str | None:
    """What keeps a model file's payload from loading, or None. Past its
    version, catalog, kind and keys, it checks all that decision_scores
    reads, and the seed and config that a save writes back."""
    if payload.get("version") != MODEL_VERSION:
        return f"unsupported model version {payload.get('version')}"
    if payload.get("catalog_hash") != catalog_hash():
        return "model was trained on a different feature catalog"
    kind = payload.get("kind")
    if kind not in MODEL_KINDS:
        return f"unknown model kind {kind!r}"
    parameters, scaler = payload.get("parameters"), payload.get("scaler")
    for name, holder, keys in (
        ("payload", payload, ("parameters", "scaler", "feature_indices", "seed")),
        ("parameters", parameters, {KIND_SVM: ("w", "b"), KIND_TREE: ("root",), KIND_FOREST: ("trees",)}[kind]),
        ("scaler", scaler, ("mins", "maxs")),
    ):
        if not isinstance(holder, dict):
            return f"{name} is not an object"
        missing = [key for key in keys if key not in holder]
        if missing:
            return f"no {missing[0]!r}"
    indices = payload["feature_indices"]
    if not (isinstance(indices, list) and all(type(i) is int and i >= 0 for i in indices)
            and len(set(indices)) == len(indices)):
        return "feature_indices is not a list of distinct non-negative integers"
    if type(payload["seed"]) is not int:
        return "seed is not an integer"
    config, fields = payload.get("config", {}), TrainConfig().as_dict()
    if not (isinstance(config, dict) and all(
            name in fields and (_finite(value) if name == "svm_c" else type(value) is int)
            for name, value in config.items())):
        return "config is not an object of TrainConfig's fields: integers, and a number for svm_c"
    problem = _config_problem(TrainConfig(**config))
    if problem:
        return f"config: {problem}"
    vectors = {"w": parameters["w"]} if kind == KIND_SVM else {}
    vectors.update(mins=scaler["mins"], maxs=scaler["maxs"])
    for name, values in vectors.items():
        if not isinstance(values, list) or len(values) != len(indices):
            return f"{name} does not hold one value per feature index ({len(indices)})"
        if not all(map(_finite, values)):
            return f"{name} holds a value that is not a finite number"
    if kind == KIND_SVM:
        return None if _finite(parameters["b"]) else "b is not a finite number"
    trees = [parameters] if kind == KIND_TREE else parameters["trees"]
    if not (isinstance(trees, list) and trees and all(isinstance(tree, dict) for tree in trees)):
        return "trees is not a list of one or more objects"
    if not all("root" in tree for tree in trees):
        return "no 'root'"
    nodes = [tree["root"] for tree in trees]
    for node in nodes:  # grows as it goes, as in _route
        if not (isinstance(node, dict) and type(node.get("leaf")) is bool):
            return "a tree node has no boolean 'leaf'"
        if node["leaf"]:
            n, n_pos = node.get("n"), node.get("n_pos")
            if not (type(n) is int and type(n_pos) is int and 0 <= n_pos <= n):
                return "a leaf does not hold integers 0 <= n_pos <= n"
            continue
        if not (type(node.get("feature")) is int and 0 <= node["feature"] < len(indices)):
            return f"a split's feature is not a place in feature_indices (0 to {len(indices) - 1})"
        if not _finite(node.get("threshold")):
            return "a split's threshold is not a finite number"
        if "left" not in node or "right" not in node:
            return "a split lacks its 'left' or 'right' node"
        nodes += (node["left"], node["right"])
    return None


def train(
    kind: str,
    X_raw: np.ndarray,
    y: np.ndarray,
    seed: int,
    feature_group: str = "all",
    config: TrainConfig | None = None,
) -> TrainedModel:
    """Fit one model kind on raw (unscaled) features for one feature group.

    "all" means every column of X_raw; named groups select their catalog
    columns and require a catalog-width matrix.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return _fit(X_raw, y, seed, [feature_group], [kind], config)[0][kind]


def _fit(
    X_raw: np.ndarray, y: np.ndarray, seed: int, feature_groups, kinds, config: TrainConfig | None,
) -> list[dict[str, TrainedModel]]:
    """Each model kind of kinds fitted on each feature group's columns of
    raw (unscaled) features, all in one pass: the SVMs in one epoch loop,
    the trees and forests in one _grow, level by level. One scaling of
    every column serves every group: a group's mins and maxs are its
    columns' part of them, and its scaled columns hold the same bits as
    its own. A config that _config_problem finds fault with raises
    ValueError naming the field."""
    config = config or TrainConfig()
    problem = _config_problem(config)
    if problem:
        raise ValueError(problem)
    y = np.asarray(y, int)
    groups = [list(range(X_raw.shape[1])) if group == "all" else group_indices(group) for group in feature_groups]
    if X_raw.size == 0:
        raise ValueError("empty training matrix")
    mins, maxs = X_raw.min(axis=0), X_raw.max(axis=0)
    X = _scale(X_raw, mins, maxs)
    if len(set(y.tolist())) < 2:
        raise ValueError(f"training labels contain a single class: {sorted(set(y.tolist()))}")
    parameters: dict[str, list[dict]] = {}
    if KIND_SVM in kinds:
        parameters[KIND_SVM] = [{"w": w[:-1].tolist(), "b": float(w[-1])} for w in _svm_weights(X, y, groups, config)]
    if KIND_TREE in kinds or KIND_FOREST in kinds:
        trees, forests = _grow(X, y, seed, groups, config, KIND_TREE in kinds, KIND_FOREST in kinds)
        parameters[KIND_TREE] = [{"root": root} for root in trees]
        parameters[KIND_FOREST] = [{"trees": [{"root": root} for root in roots]} for roots in forests]
    return [
        {kind: TrainedModel(kind, parameters[kind][g], mins[cols], maxs[cols], cols, seed, config) for kind in kinds}
        for g, cols in enumerate(groups)
    ]


def evaluate(predictions: np.ndarray, labels: np.ndarray) -> dict:
    """Confusion counts with the on-mission class (1) positive, and the F1
    and accuracy they give: the {"tp", "tn", "fp", "fn", "f1", "accuracy"}
    row of eval.json and ablation.json."""
    preds = np.asarray(predictions, int)
    y = np.asarray(labels, int)
    if preds.shape != y.shape:
        raise ValueError("prediction/label length mismatch")
    tp = int(((preds == 1) & (y == 1)).sum())
    tn = int(((preds == 0) & (y == 0)).sum())
    fp = int(((preds == 1) & (y == 0)).sum())
    fn = int(((preds == 0) & (y == 1)).sum())
    total = tp + tn + fp + fn
    return {
        "tp": tp, "tn": tn, "fp": fp, "fn": fn,
        "f1": 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0,
        "accuracy": (tp + tn) / total if total else 0.0,
    }


def train_and_evaluate(
    X_raw: np.ndarray,
    y: np.ndarray,
    seed: int,
    kind: str = KIND_SVM,
    feature_group: str = "all",
    config: TrainConfig | None = None,
) -> tuple[TrainedModel, dict]:
    """Fit one model on the 80% split_80_20(y, seed) keeps for training and
    score it on the held-out 20%: the model and its evaluate row."""
    y = np.asarray(y, int)
    train_idx, test_idx = split_80_20(y, seed)
    model = train(kind, X_raw[train_idx], y[train_idx], seed, feature_group, config)
    return model, evaluate(model.predict(X_raw[test_idx]), y[test_idx])


def ablation(
    X_raw: np.ndarray, y: np.ndarray, seed: int, config: TrainConfig | None = None,
) -> tuple[dict[str, dict[str, dict]], dict[str, dict[str, TrainedModel]]]:
    """Every feature group x model kind fitted on one split_80_20(y, seed)
    in one pass, each cell the model and evaluate row train_and_evaluate
    gives. Returns the table of evaluate rows and the fitted models, both
    keyed by group, then kind."""
    y = np.asarray(y, int)
    train_idx, test_idx = split_80_20(y, seed)
    groups = ("content", "auxiliary", "activity_profile", "all")
    models = dict(zip(groups, _fit(X_raw[train_idx], y[train_idx], seed, groups, MODEL_KINDS, config)))
    X_test, y_test = X_raw[test_idx], y[test_idx]
    table = {
        group: {kind: evaluate(model.predict(X_test), y_test) for kind, model in cells.items()}
        for group, cells in models.items()
    }
    return table, models


def flag_in_wild(
    model: TrainedModel,
    groups: dict[str, tuple[list[str], np.ndarray]],
    sample_n: int = 100,
    seed: int = 0,
) -> dict:
    """Apply a trained model to unlabeled per-group features.

    Returns the per-group totals/flagged/percentage table, per-profile
    designations with decision scores, and a seeded random sample of
    flagged/unflagged profiles per group for manual annotation.
    """
    table = []
    designations = []
    samples: dict[str, list[str]] = {}
    total_all = 0
    flagged_all = 0
    for group in sorted(groups):
        ids, X = groups[group]
        scores = model.decision_scores(X)
        preds = _classes(model.kind, scores)
        flagged = int(preds.sum())
        total_all += len(ids)
        flagged_all += flagged
        table.append({
            "group": group,
            "total": len(ids),
            "flagged": flagged,
            "pct_flagged": 100.0 * flagged / len(ids) if ids else None,
        })
        for pid, pred, score in zip(ids, preds, scores):
            designations.append({
                "profile_id": pid,
                "group": group,
                "prediction": int(pred),
                "decision_score": float(score),
            })
        rng = random.Random(derive_seed(seed, "wild-sample", group))
        pool = sorted(ids)
        rng.shuffle(pool)
        samples[group] = sorted(pool[:sample_n])
    table.append({
        "group": "total",
        "total": total_all,
        "flagged": flagged_all,
        "pct_flagged": 100.0 * flagged_all / total_all if total_all else None,
    })
    return {"table": table, "designations": designations, "samples": samples}
