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


# Cells of the padded (nodes x candidate features x rows) grid that one
# batched split search fills. Its temporaries peak at about 110 bytes a
# cell, so a batch holds about 0.45 MB, however many nodes a level holds.
# Drawing k of F candidates takes F <= k(k + 1) keys a node, and a node
# searched holds 2 rows or more, so the cap bounds a batch's draws too.
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


def _leaf(n: int, n_pos: int) -> dict:
    # majority class; exact tie goes to the negative class
    return {"leaf": True, "n": n, "n_pos": n_pos, "cls": int(n_pos * 2 > n)}


def _rank_cells(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort keys for the split search and the values they stand for.

    Keys are (features x rows + 1): each cell's 2 * (dense rank of its
    value in its column) + its row's label, then an even padding key above
    every real one, in the smallest unsigned dtype that holds it. Values
    are (features x most distinct values in a column): each column's
    distinct values in ascending order, zero-filled.
    """
    n_features = X.shape[1]
    order = np.argsort(X, axis=0)
    sorted_vals = np.take_along_axis(X, order, axis=0)
    sorted_rank = np.zeros(X.shape, dtype=np.intp)
    np.cumsum(sorted_vals[1:] != sorted_vals[:-1], axis=0, out=sorted_rank[1:])
    width = int(sorted_rank[-1].max(initial=0)) + 1
    values = np.zeros((n_features, width))
    values[np.arange(n_features), sorted_rank] = sorted_vals
    keys = np.full((n_features, len(X) + 1), 2 * width, dtype=np.min_scalar_type(2 * width))
    np.put_along_axis(keys[:, :-1], order.T, (2 * sorted_rank + np.asarray(y)[order]).T, axis=1)
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
    bootstrap, drawn once. Each pass scores a level's nodes of one column
    list, sampled or not, in batches of at most _SPLIT_BATCH_CELLS grid
    cells (a node larger than that is scored alone), and draws a batch's
    candidates in one _keyed call.
    """
    X = np.asarray(X, float)
    y = np.asarray(y, int)
    XT = np.ascontiguousarray(X.T)  # a column's values in one run
    ranked = _rank_cells(X, y)
    n = len(y)
    row = np.min_scalar_type(max(n - 1, 0))  # a level holds the rows of every tree at once: the smallest dtype
    every = [np.asarray(cols, dtype=np.intp) for cols in groups]
    places = [{col: place for place, col in enumerate(cols)} for cols in groups]
    single = [{} for _ in groups] if trees else []
    roots = [[{} for _ in range(config.forest_trees)] for _ in groups] if forests else []
    # a pending node: its tree (column list, forest tree number or None), its
    # rows, its positives, its number, and its dict, filled in once it is done
    level = [((g, None), np.arange(n, dtype=row), int(np.count_nonzero(y)), 1, root) for g, root in enumerate(single)]
    if forests:
        keys = np.array([derive_seed(seed, "tree", i) for i in range(config.forest_trees)], dtype=np.uint64)
        boots = (_keyed(keys, 0, n) % n).astype(row)  # a bootstrap may draw one class only; that tree is one leaf
        counts = np.count_nonzero(y[boots], axis=1).tolist()
        level += [((g, i), boots[i], counts[i], 1, root)
                  for g, forest in enumerate(roots) for i, root in enumerate(forest)]
    depth_left = config.tree_max_depth
    while level:
        searches: dict[tuple[int, bool], list] = {}  # this level's searches, by column list and whether sampled
        for pending in level:
            (g, i), rows, n_pos, _, node = pending
            if depth_left <= 0 or len(rows) < config.tree_min_samples_split or n_pos in (0, len(rows)):
                node.update(_leaf(len(rows), n_pos))
            else:
                searches.setdefault((g, i is not None), []).append(pending)
        level = []
        for (g, sampled), pending in searches.items():
            width = len(every[g])
            k = max(1, round(math.sqrt(width))) if sampled else width
            pending.sort(key=lambda entry: -len(entry[1]))  # a batch pads its nodes to its first
            while pending:
                batch = pending[:max(1, _SPLIT_BATCH_CELLS // (len(pending[0][1]) * k))]
                del pending[:len(batch)]  # so a node's rows are freed once its children hold theirs
                if sampled:
                    numbers = np.array([i for (_, i), *_ in batch])
                    nodes = np.array([number for *_, number, _ in batch], dtype=np.uint64)
                    smallest = np.argsort(_keyed(keys[numbers], nodes, width), axis=1, kind="stable")[:, :k]
                    feats = every[g][np.sort(smallest, axis=1)]
                else:
                    feats = np.broadcast_to(every[g], (len(batch), width))
                splits = _best_splits(X, y, [rows for _, rows, *_ in batch], feats, ranked)
                for (tree, rows, n_pos, number, node), split in zip(batch, splits):
                    if split is None:
                        node.update(_leaf(len(rows), n_pos))
                        continue
                    feature, threshold = split
                    go_left = XT[feature].take(rows) <= threshold
                    left_pos = int(np.count_nonzero(y.take(rows[go_left])))
                    node.update(leaf=False, feature=places[g][feature], threshold=threshold, left={}, right={})
                    child = 2 * number % (1 << 64)
                    level += [
                        (tree, rows[go_left], left_pos, child, node["left"]),
                        (tree, rows[~go_left], n_pos - left_pos, child + 1, node["right"]),
                    ]
        depth_left -= 1
    return single, roots


def _best_splits(
    X: np.ndarray,
    y: np.ndarray,
    rows: list[np.ndarray],
    feats: np.ndarray,
    ranked: tuple[np.ndarray, np.ndarray],
) -> list[tuple[int, float] | None]:
    """CART split search of several nodes at once.

    Node j holds the rows rows[j] of X (finite floats) and y (0/1 labels)
    and may split on the columns feats[j]; ranked is _rank_cells(X, y).
    The nodes' sort keys lie in one grid padded to the largest, (nodes x
    features x rows), and each column is sorted within its node: a key's
    rank orders the values and its low bit is the label. Prefix counts give every cut's weighted Gini impurity,
    and each node walks its cuts between distinct values feature by
    feature. Returns (feature, threshold) per node, or None where no
    candidate column holds two distinct values. Zero-gain splits are
    allowed (a first cut on symmetric data like XOR improves nothing by
    itself but enables pure children).
    """
    keys, values = ranked
    sizes = np.array([len(r) for r in rows])
    width = int(sizes.max())
    in_node = np.arange(width) < sizes[:, None]
    padded = np.full(in_node.shape, keys.shape[1] - 1)  # the padding key's cell
    padded[in_node] = np.concatenate(rows)
    grid = keys.take(feats[:, :, None] * keys.shape[1] + padded[:, None, :])
    grid.sort(axis=-1)
    rank = grid >> 1
    # cut i of a column lies after its sorted row i; only cuts between
    # distinct values are scored, from prefix counts of the positives
    cuts = (rank[..., :-1] != rank[..., 1:]) & (np.arange(1, width) < sizes[:, None, None])
    flat = np.flatnonzero(cuts)
    column, i = np.divmod(flat, width - 1)  # column: node * candidate features + its place among them
    node = column // feats.shape[1]
    prefix = np.cumsum(grid & 1, axis=-1, dtype=np.intp).reshape(feats.size, width)
    pos_left = prefix[column, i].astype(float)
    n = sizes[node].astype(float)
    n_left = i + 1.0
    n_right = n - n_left
    neg_left = n_left - pos_left
    pos_right = prefix[column, sizes[node] - 1] - pos_left
    neg_right = n_right - pos_right
    # keep this operation order: saved thresholds depend on the scores' last bits
    gini_left = 1.0 - ((neg_left / n_left) ** 2 + (pos_left / n_left) ** 2)
    gini_right = 1.0 - ((neg_right / n_right) ** 2 + (pos_right / n_right) ** 2)
    walk = np.full(cuts.size, np.inf)
    walk[flat] = (n_left * gini_left + n_right * gini_right) / n
    # feature-major walk of each node's cuts; only a strict running minimum
    # can pass the tolerance rule below
    walk = walk.reshape(len(rows), -1)
    before = np.minimum.accumulate(walk, axis=1)
    lower = np.concatenate([walk[:, :1] < np.inf, walk[:, 1:] < before[:, :-1]], axis=1)
    best: dict[int, tuple[int, float]] = {}
    for j, at, score in zip(*(index.tolist() for index in np.nonzero(lower)), walk[lower].tolist()):
        if j not in best or score < best[j][1] - 1e-15:
            best[j] = (at, score)
    won = np.fromiter(best, np.intp, len(best))
    col, i = np.divmod(np.fromiter((at for at, _ in best.values()), np.intp, len(best)), width - 1)
    feature = feats[won, col]
    threshold = (values[feature, rank[won, col, i]] + values[feature, rank[won, col, i + 1]]) / 2.0
    splits: list[tuple[int, float] | None] = [None] * len(rows)
    for j, split in zip(best, zip(feature.tolist(), threshold.tolist())):
        splits[j] = split
    return splits


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
