"""From-scratch two-class models over the feature catalog.

Linear SVM trained by full-batch subgradient descent on L2-regularized
hinge loss; CART decision tree splitting on Gini impurity; random forest
of bootstrapped CARTs with sqrt(F) feature sampling per split. Everything
is seeded and serializes to versioned JSON so that identical inputs
reproduce byte-identical model files.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

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


class MinMaxScaler:
    """Per-feature [0, 1] scaling learned on the training split only.

    Constant features map to 0; values outside the training range clip.
    """

    def __init__(self, mins: np.ndarray | None = None, maxs: np.ndarray | None = None):
        self.mins = mins
        self.maxs = maxs

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        if X.size == 0:
            raise ValueError("empty training matrix")
        self.mins = X.min(axis=0)
        self.maxs = X.max(axis=0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mins is None or self.maxs is None:
            raise ValueError("scaler not fitted")
        span = self.maxs - self.mins
        safe = np.where(span == 0, 1.0, span)
        scaled = (X - self.mins) / safe
        scaled = np.where(span == 0, 0.0, scaled)
        return np.clip(scaled, 0.0, 1.0)

    def as_dict(self) -> dict:
        return {"mins": [float(v) for v in self.mins], "maxs": [float(v) for v in self.maxs]}

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxScaler":
        return cls(np.asarray(d["mins"], float), np.asarray(d["maxs"], float))


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


class LinearSVM:
    """Hinge-loss linear classifier, full-batch subgradient descent.

    Objective: (lambda/2)||w||^2 + mean hinge with lambda = 1/(C*n), the
    classic C-SVM scaling, minimized on the 1/(lambda*t) schedule. The
    bias rides along as an appended constant feature.
    """

    kind = KIND_SVM

    def __init__(self, w: np.ndarray | None = None, b: float = 0.0):
        self.w = w
        self.b = b

    def fit(self, X: np.ndarray, y: np.ndarray, config: TrainConfig, seed: int = 0) -> "LinearSVM":
        _require_two_classes(y)
        y_signed = np.where(np.asarray(y) > 0, 1.0, -1.0)
        n, f = X.shape
        # rows times their signs: exact, as the signs are +-1, so the margins
        # and the hinge subgradient keep every bit of y * (Xb @ w) and y * Xb
        yXb = y_signed[:, None] * np.hstack([X, np.ones((n, 1))])
        lam = 1.0 / (config.svm_c * n)
        w_full = np.zeros(f + 1)
        for t in range(1, config.svm_epochs + 1):
            violating = yXb @ w_full < 1.0
            grad = lam * w_full
            grad = grad - yXb[violating].sum(axis=0) / n  # no violation subtracts 0.0: a no-op
            w_full = w_full - grad / (lam * t)
        self.w = w_full[:-1]
        self.b = float(w_full[-1])
        return self

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w + self.b

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_scores(X) >= 0.0).astype(int)

    def params_dict(self) -> dict:
        return {"w": [float(v) for v in self.w], "b": float(self.b)}

    @classmethod
    def from_params(cls, params: dict) -> "LinearSVM":
        return cls(w=np.asarray(params["w"], float), b=float(params["b"]))


class DecisionTree:
    """CART with Gini impurity and midpoint thresholds.

    Ties between candidate splits resolve to the lowest feature index and
    threshold, so training is fully deterministic. Every split considers
    every feature; a forest grows its trees with sampled features.
    """

    kind = KIND_TREE

    def __init__(self, root: dict | None = None):
        self.root = root

    def fit(self, X: np.ndarray, y: np.ndarray, config: TrainConfig, seed: int = 0) -> "DecisionTree":
        _require_two_classes(y)
        y = np.asarray(y, int)
        rows = np.arange(len(y))
        self.root = _grow_trees(X, y, [rows], [None], config.tree_max_depth, config.tree_min_samples_split)[0]
        return self

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return _route([self.root], X)[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_scores(X) > 0.5).astype(int)

    def params_dict(self) -> dict:
        return {"root": self.root}

    @classmethod
    def from_params(cls, params: dict) -> "DecisionTree":
        return cls(root=params["root"])


# Cells of the padded (nodes x candidate features x rows) grid that one
# batched split search fills. Its temporaries peak at about 110 bytes a
# cell, so a batch holds about 0.45 MB, however many trees grow in lockstep.
_SPLIT_BATCH_CELLS = 1 << 12


def _draw_features(rng: random.Random | None, n_features: int) -> list[int]:
    """Every feature without an RNG, else sqrt(F) of them drawn from it."""
    if rng is None:
        return list(range(n_features))
    k = max(1, int(round(math.sqrt(n_features))))
    return sorted(rng.sample(range(n_features), k))


def _bootstrap(rng: random.Random, n: int) -> np.ndarray:
    """n row numbers below n, exactly as [rng.randrange(n) for _ in range(n)]
    draws them, leaving rng in the same state.

    CPython's randrange(n) takes the top n.bit_length() bits of one 32-bit
    word per getrandbits call and draws again while they reach n. Here the
    words come in one oversized getrandbits call (word i is bits 32i to
    32i + 31); the state is then rewound and advanced by the words used.
    """
    shift = 32 - n.bit_length()
    state = rng.getstate()
    # n kept words take 2**bit_length words on average; the margin is over
    # four standard deviations, so a second, larger draw is rare
    m = (1 << n.bit_length()) + 8 * math.isqrt(n) + 64
    while True:
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4") >> shift
        kept = np.flatnonzero(words < n)
        if len(kept) >= n:
            break
        rng.setstate(state)
        m *= 2
    rng.setstate(state)
    rng.getrandbits(32 * (int(kept[n - 1]) + 1))
    return words[kept[:n]].astype(np.intp)


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


def _grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    samples: list[np.ndarray],
    rngs: list[random.Random | None],
    max_depth: int,
    min_split: int,
) -> list[dict]:
    """Grow one CART per sample in lockstep; returns their root nodes.

    Tree t grows on the rows samples[t] of X and y (0/1 labels) and draws
    its candidate features from rngs[t] (None: every feature). Each tree
    takes its nodes in depth-first preorder from its own stack, left child
    first, so its RNG draws come in the order a recursive build makes them.
    Each step takes from every tree the next node that needs a split search
    and scores them together, at most _SPLIT_BATCH_CELLS grid cells a batch
    (a node larger than that is scored alone).
    """
    X = np.asarray(X, float)
    ranked = _rank_cells(X, y)
    n_features = X.shape[1]
    roots: list[dict | None] = [None] * len(samples)
    # a pending node: its rows, its positives, the depth left below it and
    # the slot its dict goes into
    stacks = [[(rows, int(np.count_nonzero(y[rows])), max_depth, roots, t)] for t, rows in enumerate(samples)]
    while True:
        step = []  # per tree: its next node to search, with the candidate features drawn for it
        for t, stack in enumerate(stacks):
            while stack:
                rows, n_pos, depth_left, holder, key = stack.pop()
                if depth_left <= 0 or len(rows) < min_split or n_pos in (0, len(rows)):
                    holder[key] = _leaf(len(rows), n_pos)
                    continue
                step.append((rows, _draw_features(rngs[t], n_features), t, n_pos, depth_left, holder, key))
                break
        if not step:
            return roots
        step.sort(key=lambda entry: -len(entry[0]))  # a batch pads its nodes to its first
        start = 0
        while start < len(step):
            cells = len(step[start][0]) * len(step[start][1])
            batch = step[start:start + max(1, _SPLIT_BATCH_CELLS // max(1, cells))]
            start += len(batch)
            feats = np.array([entry[1] for entry in batch], dtype=np.intp)
            splits = _best_splits(X, y, [entry[0] for entry in batch], feats, ranked)
            for (rows, _, t, n_pos, depth_left, holder, key), split in zip(batch, splits):
                if split is None:
                    holder[key] = _leaf(len(rows), n_pos)
                    continue
                feature, threshold = split
                go_left = X[rows, feature] <= threshold
                left, right = rows[go_left], rows[~go_left]
                left_pos = int(np.count_nonzero(y[left]))
                holder[key] = node = {"leaf": False, "feature": feature, "threshold": threshold}
                stacks[t].append((right, n_pos - left_pos, depth_left - 1, node, "right"))
                stacks[t].append((left, left_pos, depth_left - 1, node, "left"))


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


class RandomForest:
    """Bootstrap ensemble of CARTs with per-tree derived seeds."""

    kind = KIND_FOREST

    def __init__(self, trees: list[DecisionTree] | None = None):
        self.trees = trees or []

    def fit(self, X: np.ndarray, y: np.ndarray, config: TrainConfig, seed: int = 0) -> "RandomForest":
        _require_two_classes(y)
        n = X.shape[0]
        y = np.asarray(y, int)
        samples, rngs = [], []
        for i in range(config.forest_trees):
            # each tree's RNG draws its bootstrap, then its candidate features
            rng = random.Random(derive_seed(seed, "tree", i))
            samples.append(_bootstrap(rng, n))
            rngs.append(rng)
        # a bootstrap may draw one class only; that tree is one leaf
        roots = _grow_trees(X, y, samples, rngs, config.tree_max_depth, config.tree_min_samples_split)
        self.trees = [DecisionTree(root) for root in roots]
        return self

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return _route([t.root for t in self.trees], X).mean(axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_scores(X) >= 0.5).astype(int)

    def params_dict(self) -> dict:
        return {"trees": [t.params_dict() for t in self.trees]}

    @classmethod
    def from_params(cls, params: dict) -> "RandomForest":
        return cls(trees=[DecisionTree.from_params(p) for p in params["trees"]])


_MODEL_CLASSES = {KIND_SVM: LinearSVM, KIND_TREE: DecisionTree, KIND_FOREST: RandomForest}


def _require_two_classes(y) -> None:
    classes = set(int(v) for v in np.asarray(y).ravel())
    if len(classes) < 2:
        raise ValueError(f"training labels contain a single class: {sorted(classes)}")


@dataclass
class TrainedModel:
    kind: str
    model: object
    scaler: MinMaxScaler
    feature_indices: list[int]
    seed: int
    config: TrainConfig = field(default_factory=TrainConfig)

    def predict(self, X_raw: np.ndarray) -> np.ndarray:
        return self.model.predict(self._prepare(X_raw))

    def decision_scores(self, X_raw: np.ndarray) -> np.ndarray:
        return self.model.decision_scores(self._prepare(X_raw))

    def _prepare(self, X_raw: np.ndarray) -> np.ndarray:
        return self.scaler.transform(X_raw[:, self.feature_indices])

    def save(self, path, extra: dict | None = None) -> None:
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": self.kind,
            "parameters": self.model.params_dict(),
            "scaler": self.scaler.as_dict(),
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
        payload = read_json(path)
        if payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a model file: {path}")
        if payload.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {payload.get('version')}")
        kind = payload["kind"]
        model = _MODEL_CLASSES[kind].from_params(payload["parameters"])
        return cls(
            kind=kind,
            model=model,
            scaler=MinMaxScaler.from_dict(payload["scaler"]),
            feature_indices=list(payload["feature_indices"]),
            seed=int(payload["seed"]),
            config=TrainConfig(**payload.get("config", {})),
        )


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
    if kind not in _MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    config = config or TrainConfig()
    if feature_group == "all":
        indices = list(range(X_raw.shape[1]))
    else:
        indices = group_indices(feature_group)
    X_sub = X_raw[:, indices]
    scaler = MinMaxScaler().fit(X_sub)
    model = _MODEL_CLASSES[kind]().fit(scaler.transform(X_sub), np.asarray(y, int), config, seed=seed)
    return TrainedModel(
        kind=kind, model=model, scaler=scaler, feature_indices=indices, seed=seed, config=config
    )


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
    """Every feature group x model kind through train_and_evaluate, so all
    cells share one split. Returns the table of evaluate rows and the
    fitted models, both keyed by group, then kind."""
    table: dict[str, dict[str, dict]] = {}
    models: dict[str, dict[str, TrainedModel]] = {}
    for group in ("content", "auxiliary", "activity_profile", "all"):
        table[group], models[group] = {}, {}
        for kind in MODEL_KINDS:
            models[group][kind], table[group][kind] = train_and_evaluate(X_raw, y, seed, kind, group, config)
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
        preds = model.predict(X)
        scores = model.decision_scores(X)
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
