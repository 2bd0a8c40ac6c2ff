"""From-scratch two-class models over the feature catalog.

Linear SVM trained by full-batch subgradient descent on L2-regularized
hinge loss; CART decision tree splitting on Gini impurity; random forest
of bootstrapped CARTs with sqrt(F) feature sampling per split. Everything
is seeded and serializes to versioned JSON so that identical inputs
reproduce byte-identical model files.
"""
from __future__ import annotations

import itertools
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
        w_full = _svm_weights(X, y, [list(range(X.shape[1]))], config)[0]
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


def _svm_weights(X: np.ndarray, y: np.ndarray, groups: list[list[int]], config: TrainConfig) -> list[np.ndarray]:
    """LinearSVM's weights, bias last, fitted on the columns groups[g] of X
    for each g, all in one epoch loop.

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
        self.root = _grow(X, y, seed, [list(range(X.shape[1]))], config, forests=False)[0][0]
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


def _sample_features(words: np.ndarray, n: int, k: int, count: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The first count results of sorted(rng.sample(range(n), k)) for each
    row of words, the 32-bit words an RNG yields from there on, as a
    (rows x count x k) array, and how many words of each row they use;
    None when a row runs out of words.

    CPython's sample picks from a shrinking pool when the pool is no larger
    than the set it would keep otherwise: pick i takes place
    j = randbelow(n - i) and moves the pool's last item there. Otherwise it
    draws j = randbelow(n) again until j is new. randbelow(m) takes the top
    m.bit_length() bits of one word and draws again while they reach m.
    """
    rows, length = words.shape
    from_pool = n <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    bounds = [n - i for i in range(k)] if from_pool else [n]
    # per bound m: for each place of a row, the next word at or after it
    # whose top m.bit_length() bits lie below m, length where none is left
    # (two padding places, so a row that runs out stays in its row); a
    # word's top bits lie below m where the word lies below m << shift
    width = length + 2
    place = np.arange(width, dtype=np.min_scalar_type(width))
    ahead = {}
    for m in bounds:
        shift = 32 - m.bit_length()
        kept = np.where(words < (m << shift), place[:length], place[length])
        table = np.full((rows, width), length, dtype=place.dtype)
        np.minimum.accumulate(kept[:, ::-1], axis=1, out=table[:, length - 1::-1])
        ahead[m] = table.ravel()
    row_start = np.arange(rows) * width
    taken = np.empty((rows, count, k), dtype=np.intp)  # the word each draw takes
    used = np.zeros(rows, dtype=np.intp)
    for c in range(count):
        if from_pool:
            for i, m in enumerate(bounds):
                taken[:, c, i] = ahead[m].take(row_start + used)
                used = taken[:, c, i] + 1
            continue
        # from the set: draw again while the draw is already chosen
        chosen = np.zeros((rows, n), dtype=bool)
        got = np.zeros(rows, dtype=np.intp)
        while len(r := np.flatnonzero(got < k)):
            q = ahead[n].take(row_start[r] + used[r])
            j = words[r, np.minimum(q, length - 1)] >> (32 - n.bit_length())
            new = (q < length) & ~chosen[r, j]
            taken[r[new], c, got[r[new]]] = q[new]
            chosen[r[new], j[new]] = True
            got[r[new]] += 1
            used[r] = q + 1
            if (q == length).any():
                return None
    if (used > length).any():
        return None
    picks = words[np.arange(rows)[:, None, None], taken] >> np.array([32 - m.bit_length() for m in bounds])
    if from_pool:
        # a pick is a place in what is left of the pool; the pool's last
        # item moves into the place taken
        flat = picks.reshape(-1, k)
        pool = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), (len(flat), 1))
        each = np.arange(len(flat))
        for i, j in enumerate(flat.T.copy()):
            flat[:, i] = pool[each, j]
            pool[each, j] = pool[:, n - i - 1]
    picks.sort(axis=2)
    return picks, used


# Split searches per tree whose candidate columns _ForestDraws emulates at
# once, after a first chunk of half as many (the trees of a small sample
# search few nodes); its temporaries take about 5 KB a tree.
_DRAW_CHUNK = 8


class _ForestDraws:
    """The candidate columns of every forest tree's split searches.

    Tree i of each forest draws from the RNG rngs[i], after its bootstrap:
    its s-th split search takes the columns at the places
    sorted(rng.sample(range(F), k)) of its group's column list, F long,
    k = sqrt(F) rounded, as the s-th sample call on that RNG draws them.
    The forests read one word stream per tree number, each from its own
    place in it; _sample_features emulates their sample calls for every
    tree at once, a chunk of searches at a time.
    """

    def __init__(self, rngs: list[random.Random], groups: list[list[int]]):
        self.rngs = rngs
        self.words = np.empty((len(rngs), 0), dtype=np.uint32)
        # the smallest dtype: every search's columns are kept until the grow ends
        self.groups = [np.asarray(cols, dtype=np.min_scalar_type(max(cols))) for cols in groups]
        self.at = [np.zeros(len(rngs), dtype=np.intp) for _ in groups]  # each forest's next word, per stream
        self.searches: list[list[np.ndarray]] = [[] for _ in groups]  # each forest's (trees x k) columns, per search

    def search(self, g: int, s: int) -> np.ndarray:
        """The candidate columns of search s of forest g's trees, (trees x k)."""
        searches, cols = self.searches[g], self.groups[g]
        while s >= len(searches):
            n = len(cols)
            k = max(1, int(round(math.sqrt(n))))
            count = _DRAW_CHUNK if searches else _DRAW_CHUNK // 2
            length = 2 * count * k + 64  # a draw takes under two words on average
            while (drawn := _sample_features(self._words(self.at[g], length), n, k, count)) is None:
                length *= 2
            picks, used = drawn
            self.at[g] += used
            searches.extend(cols[picks[:, c]] for c in range(count))
        return searches[s]

    def _words(self, at: np.ndarray, length: int) -> np.ndarray:
        """length words of each stream from its place at, drawing more as needed."""
        short = int(at.max()) + length - self.words.shape[1]
        if short > 0:
            m = max(short, self.words.shape[1])
            more = [np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4") for rng in self.rngs]
            self.words = np.hstack([self.words, np.stack(more)])
        return self.words.take((at + np.arange(len(at)) * self.words.shape[1])[:, None] + np.arange(length))


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
    trees: list[tuple[np.ndarray, int, int | None]],
    groups: list[list[int]],
    search,
    max_depth: int,
    min_split: int,
) -> list[dict]:
    """Grow one CART per entry of trees in lockstep; returns their roots.

    Tree (rows, g, i) grows on those rows of X and y (0/1 labels) and
    splits on the columns groups[g] of X, an ascending list; a node stores
    its split column's place in that list. Its s-th split search considers
    every column of the list when i is None, else the columns
    search(g, s)[i]. Each tree takes its nodes in depth-first preorder from
    its own stack, left child first, so its s-th search is the s-th node a
    recursive build searches. Each step takes from every tree the next
    node that needs a split search and scores them together, in batches of
    one candidate count and at most _SPLIT_BATCH_CELLS grid cells (a node
    larger than that is scored alone).
    """
    X = np.asarray(X, float)
    XT = np.ascontiguousarray(X.T)  # a column's values in one run
    ranked = _rank_cells(X, y)
    every = [np.asarray(cols, dtype=np.intp) for cols in groups]
    places = [{col: place for place, col in enumerate(cols)} for cols in groups]
    roots: list[dict | None] = [None] * len(trees)
    # a pending node: its rows, its positives, the depth left below it and
    # the slot its dict goes into
    stacks = [[(rows, int(np.count_nonzero(y[rows])), max_depth, roots, t)] for t, (rows, _, _) in enumerate(trees)]
    growing = range(len(trees))
    for s in itertools.count():
        by_count: dict[int, list] = {}  # this step's searches, by candidate count
        for t in growing:
            stack = stacks[t]
            while stack:
                rows, n_pos, depth_left, holder, key = stack.pop()
                if depth_left <= 0 or len(rows) < min_split or n_pos in (0, len(rows)):
                    holder[key] = _leaf(len(rows), n_pos)
                    continue
                _, g, i = trees[t]
                feats = every[g] if i is None else search(g, s)[i]
                by_count.setdefault(len(feats), []).append((rows, feats, t, n_pos, depth_left, holder, key))
                break
        if not by_count:
            return roots
        growing = [entry[2] for step in by_count.values() for entry in step]
        for step in by_count.values():
            step.sort(key=lambda entry: -len(entry[0]))  # a batch pads its nodes to its first
            start = 0
            while start < len(step):
                cells = len(step[start][0]) * len(step[start][1])
                batch = step[start:start + max(1, _SPLIT_BATCH_CELLS // max(1, cells))]
                start += len(batch)
                feats = np.stack([entry[1] for entry in batch]).astype(np.intp, copy=False)
                splits = _best_splits(X, y, [entry[0] for entry in batch], feats, ranked)
                for (rows, _, t, n_pos, depth_left, holder, key), split in zip(batch, splits):
                    if split is None:
                        holder[key] = _leaf(len(rows), n_pos)
                        continue
                    feature, threshold = split
                    go_left = XT[feature].take(rows) <= threshold
                    left, right = rows[go_left], rows[~go_left]
                    left_pos = int(np.count_nonzero(y.take(left)))
                    holder[key] = node = {"leaf": False, "feature": places[trees[t][1]][feature], "threshold": threshold}
                    stacks[t].append((right, n_pos - left_pos, depth_left - 1, node, "right"))
                    stacks[t].append((left, left_pos, depth_left - 1, node, "left"))


def _grow(
    X: np.ndarray, y: np.ndarray, seed: int, groups: list[list[int]], config: TrainConfig,
    trees: bool = True, forests: bool = True,
) -> tuple[list[dict], list[list[dict]]]:
    """The root of each column list's CART (when trees) and the roots of
    its forest (when forests), all grown in one _grow_trees call.

    Tree i of a forest draws its bootstrap, then its candidate columns,
    from Random(derive_seed(seed, "tree", i)). That seed is the same in
    every forest, so the forests share tree i's bootstrap, drawn once, and
    read the same word stream after it.
    """
    y = np.asarray(y, int)
    n = len(y)
    row = np.min_scalar_type(max(n - 1, 0))  # every tree holds its pending rows at once: the smallest dtype
    specs = [(np.arange(n, dtype=row), g, None) for g in range(len(groups))] if trees else []
    search = None
    if forests:
        rngs = [random.Random(derive_seed(seed, "tree", i)) for i in range(config.forest_trees)]
        boots = [_bootstrap(rng, n).astype(row) for rng in rngs]
        search = _ForestDraws(rngs, groups).search
        specs += [(rows, g, i) for g in range(len(groups)) for i, rows in enumerate(boots)]
    # a bootstrap may draw one class only; that tree is one leaf
    roots = _grow_trees(X, y, specs, groups, search, config.tree_max_depth, config.tree_min_samples_split)
    single, rest = (roots[:len(groups)], roots[len(groups):]) if trees else ([], roots)
    size = config.forest_trees
    return single, [rest[g * size:(g + 1) * size] for g in range(len(groups))] if forests else []


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
        roots = _grow(X, y, seed, [list(range(X.shape[1]))], config, trees=False)[1][0]
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
        """The model a save wrote to path. A file that is not a JSON object,
        names an unknown kind, lacks a key, or holds w, mins or maxs of
        another length than feature_indices raises ValueError naming it."""
        payload = read_json(path)
        if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a model file: {path}")
        if payload.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {payload.get('version')}")
        kind = payload.get("kind")
        if kind not in _MODEL_CLASSES:
            raise ValueError(f"{path}: unknown model kind {kind!r}")
        try:
            model = _MODEL_CLASSES[kind].from_params(payload["parameters"])
            scaler = MinMaxScaler.from_dict(payload["scaler"])
            indices = list(payload["feature_indices"])
            seed = int(payload["seed"])
        except KeyError as exc:
            raise ValueError(f"{path}: no {exc.args[0]!r}") from exc
        lengths = {"w": model.w} if kind == KIND_SVM else {}
        lengths.update(mins=scaler.mins, maxs=scaler.maxs)
        for name, values in lengths.items():
            if np.shape(values) != (len(indices),):
                raise ValueError(f"{path}: {name} does not hold one value per feature index ({len(indices)})")
        return cls(
            kind=kind, model=model, scaler=scaler, feature_indices=indices, seed=seed,
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
    return _fit(X_raw, y, seed, [feature_group], [kind], config)[0][kind]


def _fit(
    X_raw: np.ndarray, y: np.ndarray, seed: int, feature_groups, kinds, config: TrainConfig | None,
) -> list[dict[str, TrainedModel]]:
    """Each model kind of kinds fitted on each feature group's columns of
    raw (unscaled) features, all in one pass: the SVMs in one epoch loop,
    the trees and forests in one lockstep grow. One scaler fitted on every
    column serves every group: a group's scaler is its columns' mins and
    maxs, and its scaled columns hold the same bits as the group's own."""
    config = config or TrainConfig()
    y = np.asarray(y, int)
    groups = [list(range(X_raw.shape[1])) if group == "all" else group_indices(group) for group in feature_groups]
    scaler = MinMaxScaler().fit(X_raw)
    X = scaler.transform(X_raw)
    _require_two_classes(y)
    fitted: dict[str, list] = {}
    if KIND_SVM in kinds:
        fitted[KIND_SVM] = [LinearSVM(w[:-1], float(w[-1])) for w in _svm_weights(X, y, groups, config)]
    if KIND_TREE in kinds or KIND_FOREST in kinds:
        trees, forests = _grow(X, y, seed, groups, config, KIND_TREE in kinds, KIND_FOREST in kinds)
        fitted[KIND_TREE] = [DecisionTree(root) for root in trees]
        fitted[KIND_FOREST] = [RandomForest([DecisionTree(root) for root in roots]) for roots in forests]
    return [
        {
            kind: TrainedModel(
                kind=kind, model=fitted[kind][g], scaler=MinMaxScaler(scaler.mins[cols], scaler.maxs[cols]),
                feature_indices=cols, seed=seed, config=config,
            )
            for kind in kinds
        }
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
