import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mission_profiler.classifier import (
    KIND_FOREST,
    KIND_SVM,
    KIND_TREE,
    TrainConfig,
    TrainedModel,
    ablation,
    evaluate,
    flag_in_wild,
    split_80_20,
    _best_splits,
    _grow,
    _keyed,
    _rank_cells,
    _route,
    _scale,
    _svm_weights,
    train,
    train_and_evaluate,
)
from mission_profiler.util import derive_seed


def make_blobs(n=200, margin=1.0, seed=7, dims=2):
    """Two linearly separable clouds along the first axis."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X0 = rng.normal(loc=-1.0 - margin / 2, scale=0.3, size=(half, dims))
    X1 = rng.normal(loc=1.0 + margin / 2, scale=0.3, size=(n - half, dims))
    X = np.vstack([X0, X1])
    y = np.array([0] * half + [1] * (n - half))
    order = rng.permutation(n)
    return X[order], y[order]


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


# -- scaler -------------------------------------------------------------------

def _fitted_scale(X):
    """X scaled by its own column ranges, as a fit scales its training rows."""
    return _scale(X, X.min(axis=0), X.max(axis=0))


def test_scaler_column():
    out = _fitted_scale(np.array([[0.0], [5.0], [10.0]]))
    assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])


def test_scaler_constant_column_maps_to_zero():
    assert np.allclose(_fitted_scale(np.array([[7.0], [7.0]])).ravel(), [0.0, 0.0])


def test_scaler_clips_out_of_range():
    out = _scale(np.array([[-5.0], [15.0]]), np.array([0.0]), np.array([10.0]))
    assert np.allclose(out.ravel(), [0.0, 1.0])


# -- split ---------------------------------------------------------------------

def test_split_sizes():
    y = np.array([0] * 50 + [1] * 50)
    train_idx, test_idx = split_80_20(y, seed=3)
    assert len(train_idx) == 80
    assert len(test_idx) == 20
    assert sorted(train_idx + test_idx) == list(range(100))


def test_split_stratified_keeps_both_classes():
    y = np.array([0] * 6 + [1] * 4)
    train_idx, test_idx = split_80_20(y, seed=1)
    assert {int(y[i]) for i in train_idx} == {0, 1}


def test_split_deterministic():
    y = np.array([0, 1] * 30)
    assert split_80_20(y, seed=9) == split_80_20(y, seed=9)
    assert split_80_20(y, seed=9) != split_80_20(y, seed=10)


def test_split_too_small_raises():
    with pytest.raises(ValueError):
        split_80_20(np.array([0, 1, 0, 1]), seed=0)


# -- linear svm -------------------------------------------------------------------

def test_svm_separable_blobs_perfect():
    X, y = make_blobs(200, margin=1.0, seed=7)
    model, report = train_and_evaluate(X, y, seed=7, kind=KIND_SVM)
    assert report["accuracy"] == 1.0
    assert report["f1"] == 1.0


def test_svm_loss_non_increasing_overall():
    X, y = make_blobs(120, seed=3)
    scaled = _fitted_scale(X)
    y_signed = np.where(y > 0, 1.0, -1.0)

    def objective(config):
        # (lambda/2)||w||^2 + mean hinge, the bias regularized along with w
        w_full = _svm_weights(scaled, y, [[0, 1]], config)[0]
        lam = 1.0 / (config.svm_c * len(y))
        hinge = np.maximum(0.0, 1.0 - y_signed * (scaled @ w_full[:-1] + w_full[-1]))
        return lam / 2.0 * (w_full @ w_full) + hinge.mean()

    after_10 = objective(TrainConfig(svm_epochs=10))
    after_1000 = objective(TrainConfig())
    # zero weights, before the first epoch, score a hinge of 1 on every row
    assert after_1000 <= after_10 <= 1.0


def _reference_svm(X, y, config):
    """The per-model epoch loop the batched one replaced: weights, bias last."""
    y_signed = np.where(np.asarray(y) > 0, 1.0, -1.0)
    n, f = X.shape
    yXb = y_signed[:, None] * np.hstack([X, np.ones((n, 1))])
    lam = 1.0 / (config.svm_c * n)
    w_full = np.zeros(f + 1)
    for t in range(1, config.svm_epochs + 1):
        violating = yXb @ w_full < 1.0
        grad = lam * w_full
        grad = grad - yXb[violating].sum(axis=0) / n
        w_full = w_full - grad / (lam * t)
    return w_full


@st.composite
def _svm_problems(draw):
    n = draw(st.integers(2, 150))
    f = draw(st.integers(1, 45))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.random((n, f))
    if draw(st.booleans()):  # ties
        X = np.round(X * 3) / 3
    X[:, draw(st.lists(st.integers(0, f - 1), max_size=4))] = 0.0  # constant columns, as scaling leaves them
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    groups = draw(st.lists(st.lists(st.integers(0, f - 1), min_size=1, unique=True).map(sorted), min_size=1, max_size=4))
    config = TrainConfig(svm_c=draw(st.sampled_from([0.1, 1.0, 10.0])), svm_epochs=draw(st.integers(1, 300)))
    return X, y, groups, config


@settings(max_examples=120, deadline=None)
@given(_svm_problems())
def test_batched_svm_loop_matches_the_per_model_loop_bit_for_bit(problem):
    X, y, groups, config = problem
    for cols, w_full in zip(groups, _svm_weights(X, y, groups, config)):
        assert w_full.tobytes() == _reference_svm(X[:, cols], y, config).tobytes()


def test_svm_single_class_raises():
    X = np.zeros((10, 2))
    with pytest.raises(ValueError, match="single class"):
        train(KIND_SVM, X, np.zeros(10), seed=0)


def test_xor_svm_at_most_three_quarters():
    svm = train(KIND_SVM, XOR_X, XOR_Y, seed=0)
    acc = float((svm.predict(XOR_X) == XOR_Y).mean())
    assert acc <= 0.75


def test_xor_no_linear_separator_exists():
    # exhaustive scan over a sign-representative grid of (w1, w2, b)
    grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
    best = 0.0
    for w1, w2, b in itertools.product(grid, repeat=3):
        preds = (XOR_X @ np.array([w1, w2]) + b >= 0).astype(int)
        best = max(best, float((preds == XOR_Y).mean()))
    assert best == 0.75


# -- decision tree ------------------------------------------------------------------

def test_xor_tree_fits_at_depth_two():
    tree = train(KIND_TREE, XOR_X, XOR_Y, seed=0, config=TrainConfig(tree_max_depth=2))
    assert np.array_equal(tree.predict(XOR_X), XOR_Y)


def test_tree_reaches_perfect_training_accuracy_on_distinct_rows():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=n)
        if len(set(y.tolist())) < 2:
            continue
        tree = train(KIND_TREE, X, y, seed=0, config=TrainConfig(tree_max_depth=10_000))
        assert float((tree.predict(X) == y).mean()) == 1.0


def test_tree_deterministic():
    X, y = make_blobs(100, seed=2)
    assert train(KIND_TREE, X, y, seed=0).parameters == train(KIND_TREE, X, y, seed=0).parameters


def test_tree_respects_max_depth():
    X, y = make_blobs(100, seed=4)

    def depth(node):
        if node["leaf"]:
            return 0
        return 1 + max(depth(node["left"]), depth(node["right"]))

    tree = train(KIND_TREE, X, y, seed=0, config=TrainConfig(tree_max_depth=3))
    assert depth(tree.parameters["root"]) <= 3


def _reference_draw(rng, n_features):
    """The candidate features of one split search: every feature without an
    RNG, else sqrt(F) of them drawn from it, one sample call a search."""
    if rng is None:
        return list(range(n_features))
    return sorted(rng.sample(range(n_features), max(1, int(round(n_features ** 0.5)))))


def _reference_best_split(features, X, y):
    """The scalar split search that the prefix-count scan replaced: one Gini
    impurity per threshold, walked feature by feature over the candidate
    features, an ascending list."""

    def gini(counts):
        total = counts.sum()
        if total == 0:
            return 0.0
        p = counts / total
        return float(1.0 - (p ** 2).sum())

    n = len(y)
    best = None
    for feature in features:
        column = X[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_vals = column[order]
        sorted_y = y[order]
        left = np.zeros(2)
        right = np.bincount(sorted_y, minlength=2).astype(float)
        for i in range(n - 1):
            left[sorted_y[i]] += 1
            right[sorted_y[i]] -= 1
            if sorted_vals[i] == sorted_vals[i + 1]:
                continue
            n_left = i + 1
            n_right = n - n_left
            score = (n_left * gini(left) + n_right * gini(right)) / n
            if best is None or score < best[0] - 1e-15:
                best = (score, feature, float((sorted_vals[i] + sorted_vals[i + 1]) / 2.0))
    return None if best is None else (best[1], best[2])


@st.composite
def _tied_batches(draw):
    """Nodes of mixed sizes, bootstrap-like row numbers into one tied matrix."""
    n = draw(st.integers(1, 30))
    f = draw(st.integers(1, 8))
    levels = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(0, levels - 1), min_size=n * f, max_size=n * f))
    X = np.asarray(values, float).reshape(n, f) / draw(st.sampled_from([1.0, 3.0, 7.0]))
    y = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), int)
    row = st.integers(0, n - 1)
    nodes = draw(st.lists(st.lists(row, max_size=30), min_size=1, max_size=8))
    seeds = draw(st.none() | st.lists(st.integers(0, 2**32 - 1), min_size=len(nodes), max_size=len(nodes)))
    return X, y, [np.asarray(rows, dtype=np.intp) for rows in nodes], seeds


_NEAR_TIE_X = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [1, 0], [1, 0], [1, 1], [1, 1]], float)
_NEAR_TIE_Y = np.array([0, 0, 0, 0, 0, 1, 0, 1])


@settings(max_examples=300, deadline=None)
@given(_tied_batches())
@example((_NEAR_TIE_X, _NEAR_TIE_Y, [np.arange(3), np.arange(8), np.array([6, 0, 7, 1, 2])], None))
def test_batched_split_search_matches_the_scalar_reference_per_node(batch):
    X, y, nodes, seeds = batch
    fast_rngs = [None] * len(nodes) if seeds is None else [random.Random(s) for s in seeds]
    feats = np.array([_reference_draw(rng, X.shape[1]) for rng in fast_rngs], dtype=np.intp)
    distinct = [np.unique(rows, return_counts=True) for rows in nodes]
    sizes = np.array([len(rows) for rows, _ in distinct])
    feature, threshold = _best_splits(
        np.concatenate([rows for rows, _ in distinct]), np.concatenate([counts for _, counts in distinct]),
        np.cumsum(sizes) - sizes, sizes, feats, _rank_cells(X, y))
    splits = [None if f < 0 else (f, t) for f, t in zip(feature.tolist(), threshold.tolist())]
    for j, rows in enumerate(nodes):
        slow_rng = None if seeds is None else random.Random(seeds[j])
        assert splits[j] == _reference_best_split(_reference_draw(slow_rng, X.shape[1]), X[rows], y[rows]), j
        if seeds is not None:  # each node drew what the reference drew, no more
            assert fast_rngs[j].getstate() == slow_rng.getstate()


@st.composite
def _counted_batches(draw):
    """Nodes given as distinct row numbers, in any order, and a count for
    each, into one tied matrix; some counts need many bits."""
    n = draw(st.integers(2, 20))
    f = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(0, 2), min_size=n * f, max_size=n * f))
    X = np.asarray(values, float).reshape(n, f) / draw(st.sampled_from([1.0, 3.0]))
    y = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), int)
    count = st.integers(1, 4) | st.integers(1, 300)
    nodes = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), min_size=1, max_size=4))
    return X, y, [(np.asarray(rows), np.asarray([draw(count) for _ in rows])) for rows in nodes]


@settings(max_examples=200, deadline=None)
@given(_counted_batches())
@example((_NEAR_TIE_X, _NEAR_TIE_Y, [(np.array([6, 0, 7, 1, 2]), np.array([1, 20000, 1, 3, 2]))]))
def test_a_node_of_distinct_rows_and_counts_splits_as_its_rows_repeated(batch):
    X, y, nodes = batch
    sizes = np.array([len(rows) for rows, _ in nodes])
    feats = np.broadcast_to(np.arange(X.shape[1]), (len(nodes), X.shape[1]))
    feature, threshold = _best_splits(
        np.concatenate([rows for rows, _ in nodes]), np.concatenate([counts for _, counts in nodes]),
        np.cumsum(sizes) - sizes, sizes, feats, _rank_cells(X, y))
    for j, (rows, counts) in enumerate(nodes):
        expanded = np.repeat(rows, counts)
        expected = _reference_best_split(range(X.shape[1]), X[expanded], y[expanded])
        assert (None if feature[j] < 0 else (int(feature[j]), float(threshold[j]))) == expected, j


_MASK = 2**64 - 1


def _reference_splitmix(key, node, count):
    """count draws of the splitmix64 stream seeded with key ^ node * golden,
    one Python int at a time, masked to 64 bits."""
    state = (key ^ node * 0x9E3779B97F4A7C15) & _MASK
    draws = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        draws.append(z ^ (z >> 31))
    return draws


def _reference_candidates(key, node, n_features):
    """Every feature without a key, else the sqrt(F) features whose draws
    for (key, node) are smallest, ascending."""
    if key is None:
        return list(range(n_features))
    draws = _reference_splitmix(key, node, n_features)
    k = max(1, int(round(n_features ** 0.5)))
    return sorted(sorted(range(n_features), key=draws.__getitem__)[:k])


def _reference_tree(X, y, config, key):
    """The recursive builder the lockstep grower replaced, on the scalar
    split search: one node at a time in depth-first preorder, node j's
    children numbered 2j and 2j + 1 from a root numbered 1."""

    def build(X, y, depth_left, node):
        n_pos = int((y == 1).sum())
        leaf = {"leaf": True, "n": len(y), "n_pos": n_pos, "cls": int(n_pos * 2 > len(y))}
        if depth_left <= 0 or len(y) < config.tree_min_samples_split or len(set(y.tolist())) == 1:
            return leaf
        split = _reference_best_split(_reference_candidates(key, node, X.shape[1]), X, y)
        if split is None:
            return leaf
        feature, threshold = split
        go_left = X[:, feature] <= threshold
        return {
            "leaf": False,
            "feature": feature,
            "threshold": threshold,
            "left": build(X[go_left], y[go_left], depth_left - 1, 2 * node),
            "right": build(X[~go_left], y[~go_left], depth_left - 1, 2 * node + 1),
        }

    return {"root": build(X, y, config.tree_max_depth, 1)}


def _reference_forest(X, y, config, seed):
    n = len(y)
    trees = []
    for i in range(config.forest_trees):
        key = derive_seed(seed, "tree", i)
        sample = [draw % n for draw in _reference_splitmix(key, 0, n)]
        trees.append(_reference_tree(X[sample], y[sample], config, key))
    return {"trees": trees}


def test_keyed_draws_are_splitmix64():
    # the first outputs of splitmix64 seeded with 0, as published with it
    assert _keyed(np.zeros(1, np.uint64), 0, 3).tolist() == [[0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)), min_size=1, max_size=6),
       st.integers(0, 50))
def test_keyed_draws_match_the_scalar_reference(rows, count):
    keys, nodes = (np.array(column, dtype=np.uint64) for column in zip(*rows))
    got = _keyed(keys, nodes, count)
    assert got.shape == (len(rows), count) and got.dtype == np.uint64
    assert got.tolist() == [_reference_splitmix(key, node, count) for key, node in rows]
    assert _keyed(keys[::-1], nodes[::-1], count).tolist() == got[::-1].tolist()  # a row's draws ignore the others


@st.composite
def _tied_forests(draw):
    n = draw(st.integers(5, 24))
    f = draw(st.integers(1, 7))
    levels = draw(st.integers(2, 4))
    values = draw(st.lists(st.integers(0, levels - 1), min_size=n * f, max_size=n * f))
    X = np.asarray(values, float).reshape(n, f) / draw(st.sampled_from([1.0, 3.0, 7.0]))
    # few positives, so some bootstraps draw one class only
    n_pos = draw(st.integers(1, n - 1))
    y = np.asarray(draw(st.permutations([1] * n_pos + [0] * (n - n_pos))), int)
    config = TrainConfig(
        tree_max_depth=draw(st.integers(0, 6)),
        tree_min_samples_split=draw(st.integers(1, 5)),
        forest_trees=draw(st.integers(1, 12)),
    )
    return X, y, config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(_tied_forests())
def test_lockstep_grower_matches_the_recursive_reference(problem):
    X, y, config, seed = problem
    trees, forests = _grow(X, y, seed, [list(range(X.shape[1]))], config)
    assert {"trees": [{"root": root} for root in forests[0]]} == _reference_forest(X, y, config, seed)
    assert {"root": trees[0]} == _reference_tree(X, y, config, None)


@st.composite
def _tied_forests_over_lists(draw):
    """A _tied_forests problem and two or three ascending column lists of
    different widths, so that each samples its own k = sqrt(F) rounded."""
    X, y, config, seed = draw(_tied_forests())
    assume(X.shape[1] >= 3)
    widths = draw(st.lists(st.integers(1, X.shape[1]), min_size=2, max_size=3, unique_by=lambda w: round(w ** 0.5)))
    return X, y, config, seed, [sorted(draw(st.permutations(range(X.shape[1])))[:w]) for w in widths]


@settings(max_examples=80, deadline=None)
@given(_tied_forests_over_lists())
def test_one_grow_over_several_column_lists_matches_the_reference_on_each_list(problem):
    X, y, config, seed, groups = problem
    trees, forests = _grow(X, y, seed, groups, config)
    for cols, root, roots in zip(groups, trees, forests):
        assert {"root": root} == _reference_tree(X[:, cols], y, config, None)
        assert {"trees": [{"root": tree} for tree in roots]} == _reference_forest(X[:, cols], y, config, seed)


def _leaves(node):
    return [node] if node["leaf"] else _leaves(node["left"]) + _leaves(node["right"])


@settings(max_examples=80, deadline=None)
@given(_tied_forests())
def test_a_forest_tree_s_leaves_count_its_bootstrap_s_rows_and_positives(problem):
    # a row the bootstrap drew twice is one row counted twice, never lost or dropped
    X, y, config, seed = problem
    n = len(y)
    roots = _grow(X, y, seed, [list(range(X.shape[1]))], config, trees=False)[1][0]
    for i, root in enumerate(roots):
        boot = _keyed(np.array([derive_seed(seed, "tree", i)], dtype=np.uint64), 0, n)[0] % n
        leaves = _leaves(root)
        assert sum(leaf["n"] for leaf in leaves) == n
        assert sum(leaf["n_pos"] for leaf in leaves) == np.count_nonzero(y[boot])


def test_lockstep_grower_covers_single_class_bootstraps_and_depth_cut_offs():
    X = np.round(np.random.default_rng(6).random((20, 5)) * 3) / 3
    y = np.array([1, 1] + [0] * 18)
    config = TrainConfig(tree_max_depth=2, forest_trees=40)
    roots = _grow(X, y, 4, [list(range(5))], config, trees=False)[1][0]
    assert {"trees": [{"root": root} for root in roots]} == _reference_forest(X, y, config, seed=4)
    assert any(root["leaf"] and root["n_pos"] == 0 for root in roots)

    def depth(node):
        return 0 if node["leaf"] else 1 + max(depth(node["left"]), depth(node["right"]))

    assert max(depth(root) for root in roots) == 2


@settings(max_examples=60, deadline=None)
@given(_tied_forests())
def test_a_tree_does_not_depend_on_the_trees_grown_beside_it(problem):
    X, y, config, seed = problem
    groups = [list(range(X.shape[1])), list(range(0, X.shape[1], 2))]
    trees, forests = _grow(X, y, seed, groups, dataclasses.replace(config, forest_trees=7))
    assert _grow(X, y, seed, groups, dataclasses.replace(config, forest_trees=3)) == (
        trees, [forest[:3] for forest in forests])
    assert _grow(X, y, seed, groups, config, forests=False) == (trees, [])


def test_forest_fit_working_memory_is_bounded():
    # the batched split search holds a fixed number of grid cells at a time,
    # whatever the number of trees in lockstep
    rng = np.random.default_rng(8)
    X = rng.random((128, 40))
    y = (X[:, 0] + rng.normal(scale=0.3, size=128) > 0.5).astype(int)
    tracemalloc.start()
    try:
        forest = train(KIND_FOREST, X, y, seed=1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(forest.parameters["trees"]) == 100
    assert peak - retained < 2_000_000


def _reference_leaf_ratios(root, X):
    """The dict walk the array routing replaced: one row at a time."""

    def score(x):
        node = root
        while not node["leaf"]:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["n_pos"] / node["n"] if node["n"] else 0.0

    return np.asarray([score(row) for row in X])


_ROUTE_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def _leaf_dict(n, n_pos):
    return {"leaf": True, "n": n, "n_pos": min(n_pos, n), "cls": int(min(n_pos, n) * 2 > n)}


_route_trees = st.recursive(
    st.builds(_leaf_dict, st.integers(0, 5), st.integers(0, 5)),  # n == 0 leaves included
    lambda children: st.builds(
        lambda feature, threshold, left, right: {
            "leaf": False, "feature": feature, "threshold": threshold, "left": left, "right": right,
        },
        st.integers(0, 2), st.sampled_from(_ROUTE_GRID[1:-1]), children, children,
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_route_trees, min_size=1, max_size=6),
    st.lists(st.lists(st.sampled_from(_ROUTE_GRID), min_size=3, max_size=3), min_size=1, max_size=12),
)
@example(  # a leaf-only root with n == 0 beside a depth-2 tree; rows sit exactly on its thresholds
    [_leaf_dict(0, 0), {
        "leaf": False, "feature": 1, "threshold": 0.5,
        "left": {"leaf": False, "feature": 0, "threshold": 0.25, "left": _leaf_dict(4, 1), "right": _leaf_dict(3, 3)},
        "right": _leaf_dict(2, 1),
    }],
    [[0.25, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.75, 1.0]],
)
def test_array_routing_matches_the_dict_walk(roots, rows):
    X = np.asarray(rows, float)
    votes = np.stack([_reference_leaf_ratios(root, X) for root in roots])
    assert _route(roots, X).tobytes() == votes.tobytes()

    def model(kind, parameters):  # rows in [0, 1] scale to themselves
        return TrainedModel(kind, parameters, np.zeros(3), np.ones(3), [0, 1, 2], 0, TrainConfig())

    forest = model(KIND_FOREST, {"trees": [{"root": root} for root in roots]})
    assert forest.decision_scores(X).tobytes() == votes.mean(axis=0).tobytes()
    assert np.array_equal(forest.predict(X), (votes.mean(axis=0) >= 0.5).astype(int))
    for root, expected in zip(roots, votes):
        tree = model(KIND_TREE, {"root": root})
        assert tree.decision_scores(X).tobytes() == expected.tobytes()
        assert np.array_equal(tree.predict(X), (expected > 0.5).astype(int))


def _pin_matrix():
    rng = np.random.default_rng(2024)
    X = np.hstack([rng.integers(0, 5, size=(150, 3)).astype(float), rng.normal(size=(150, 3))])
    y = (X[:, 0] + X[:, 3] + rng.normal(scale=0.8, size=150) > 2.0).astype(int)
    return X, y


@pytest.mark.parametrize("kind, digest", [
    (KIND_TREE, "cac76710612761533eea6ca2d7ba8c3003da0c8ad24cf4bcde0be41c80ef916e"),
    (KIND_FOREST, "64d9dbfb7c22ec88c08326f8038461fd2d34c76e6224942a7aea76d5723ed837"),
])
def test_model_file_digest_pinned(tmp_path, kind, digest):
    # digests of the files the scalar split search wrote for this matrix; the
    # forest's since its draws are keyed by (seed, tree, node)
    X, y = _pin_matrix()
    path = tmp_path / f"model_{kind}.json"
    train(kind, X, y, seed=7).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# -- forest -----------------------------------------------------------------------

def test_forest_at_least_tree_minus_margin():
    X, y = make_blobs(200, margin=0.2, seed=11)
    _, tree_report = train_and_evaluate(X, y, seed=11, kind=KIND_TREE)
    _, forest_report = train_and_evaluate(X, y, seed=11, kind=KIND_FOREST)
    assert forest_report["accuracy"] >= tree_report["accuracy"] - 0.02


def test_forest_deterministic_per_seed():
    X, y = make_blobs(60, seed=13)
    config = TrainConfig(forest_trees=10)
    f1 = train(KIND_FOREST, X, y, seed=99, config=config)
    f2 = train(KIND_FOREST, X, y, seed=99, config=config)
    assert f1.parameters == f2.parameters
    f3 = train(KIND_FOREST, X, y, seed=100, config=config)
    assert f1.parameters != f3.parameters


def test_forest_single_class_bootstrap_grows_a_leaf():
    # 2 positives in 12 rows: some of the 100 bootstraps draw no positive
    X = np.random.default_rng(3).random((12, 4))
    y = np.array([1, 1] + [0] * 10)
    forest = train(KIND_FOREST, X, y, seed=1)
    single = [t["root"] for t in forest.parameters["trees"] if t["root"]["leaf"] and t["root"]["n_pos"] == 0]
    assert single and all(root["n"] == 12 for root in single)
    assert forest.predict(X).shape == (12,)
    with pytest.raises(ValueError, match="single class"):
        train(KIND_FOREST, X, np.zeros(12, dtype=int), seed=1)


# -- evaluation ---------------------------------------------------------------------

def test_eval_hand_values():
    # three true positives, one false positive, two false negatives, four true negatives
    report = evaluate(np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0]), np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 0]))
    assert (report["tp"], report["fp"], report["fn"], report["tn"]) == (3, 1, 2, 4)
    assert report["f1"] == pytest.approx(2 * 3 / (2 * 3 + 1 + 2))  # 0.667
    assert report["accuracy"] == pytest.approx(0.7)


def test_eval_perfect():
    preds = np.array([1, 0, 1, 0])
    report = evaluate(preds, preds.copy())
    assert report["f1"] == 1.0
    assert report["accuracy"] == 1.0


def test_eval_all_positive_on_balanced():
    y = np.array([1] * 50 + [0] * 50)
    report = evaluate(np.ones(100, dtype=int), y)
    assert report["accuracy"] == pytest.approx(0.5)
    assert report["f1"] == pytest.approx(2 / 3)


def test_eval_matches_naive_oracle_on_random_vectors():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randint(1, 60)
        y = [rng.randint(0, 1) for _ in range(n)]
        p = [rng.randint(0, 1) for _ in range(n)]
        report = evaluate(np.array(p), np.array(y))
        tp = sum(1 for a, b in zip(p, y) if a == 1 and b == 1)
        tn = sum(1 for a, b in zip(p, y) if a == 0 and b == 0)
        fp = sum(1 for a, b in zip(p, y) if a == 1 and b == 0)
        fn = sum(1 for a, b in zip(p, y) if a == 0 and b == 1)
        assert (report["tp"], report["tn"], report["fp"], report["fn"]) == (tp, tn, fp, fn)
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        assert report["f1"] == pytest.approx(f1)
        assert report["accuracy"] == pytest.approx((tp + tn) / n)


# -- scaling absorption ----------------------------------------------------------------

def test_predictions_invariant_to_raw_feature_rescaling():
    X, y = make_blobs(120, seed=21, dims=6)
    for kind in (KIND_SVM, KIND_TREE):
        model = train(kind, X, y, seed=21)
        X10 = X.copy()
        X10[:, 2] *= 10.0
        model10 = train(kind, X10, y, seed=21)
        assert np.array_equal(model.predict(X), model10.predict(X10))


# -- ablation ---------------------------------------------------------------------------

def _padded(X):
    """Spread 2 informative dims across a 40-wide catalog-sized matrix."""
    import mission_profiler.features as feats

    out = np.zeros((X.shape[0], feats.N_FEATURES))
    content = feats.group_indices("content")[:1]
    aux = feats.group_indices("auxiliary")[:1]
    act = feats.group_indices("activity_profile")[:1]
    out[:, content[0]] = X[:, 0]
    out[:, aux[0]] = X[:, 1] if X.shape[1] > 1 else X[:, 0]
    out[:, act[0]] = X[:, 0] + (X[:, 1] if X.shape[1] > 1 else 0)
    return out


def test_ablation_table_shape_and_ranges():
    X, y = make_blobs(80, seed=31)
    table, _ = ablation(_padded(X), y, seed=31, config=TrainConfig(forest_trees=10, svm_epochs=200))
    assert set(table) == {"content", "auxiliary", "activity_profile", "all"}
    cells = [(g, k) for g in table for k in table[g]]
    assert len(cells) == 12
    for g in table:
        for k in table[g]:
            assert 0.0 <= table[g][k]["f1"] <= 1.0
            assert 0.0 <= table[g][k]["accuracy"] <= 1.0


def test_ablation_emits_no_warning():
    # a numpy warning here would land in report.json's warnings
    import mission_profiler.features as feats

    rng = np.random.default_rng(39)
    X = rng.random((60, feats.N_FEATURES))
    y = (X[:, 0] + rng.normal(scale=0.3, size=60) > 0.5).astype(int)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table, _ = ablation(X, y, 39, TrainConfig(forest_trees=20, svm_epochs=50))
    assert len(table) == 4


def test_ablation_deterministic():
    X, y = make_blobs(60, seed=33)
    cfg = TrainConfig(forest_trees=5, svm_epochs=100)
    assert ablation(_padded(X), y, 33, cfg)[0] == ablation(_padded(X), y, 33, cfg)[0]


def test_ablation_cells_are_the_train_and_evaluate_fits(tmp_path):
    X, y = make_blobs(60, seed=35)
    X_pad = _padded(X)
    cfg = TrainConfig(forest_trees=5, svm_epochs=100)
    table, models = ablation(X_pad, y, 35, cfg)
    assert set(models) == set(table)
    for group in table:
        assert list(models[group]) == list(table[group]) == [KIND_SVM, KIND_TREE, KIND_FOREST]
        for kind in table[group]:
            model, report = train_and_evaluate(X_pad, y, 35, kind, group, cfg)
            assert table[group][kind] == report
            model.save(tmp_path / "alone.json")
            models[group][kind].save(tmp_path / "cell.json")
            assert (tmp_path / "cell.json").read_bytes() == (tmp_path / "alone.json").read_bytes()


@st.composite
def _tied_ablations(draw):
    import mission_profiler.features as feats

    n = draw(st.integers(8, 30))
    levels = draw(st.integers(2, 4))
    values = draw(st.lists(st.integers(0, levels - 1), min_size=n * 6, max_size=n * 6))
    X = np.zeros((n, feats.N_FEATURES))
    spread = draw(st.lists(st.integers(0, feats.N_FEATURES - 1), min_size=6, max_size=6, unique=True))
    X[:, spread] = np.asarray(values, float).reshape(n, 6) / draw(st.sampled_from([1.0, 3.0, 7.0]))
    n_pos = draw(st.integers(2, max(2, n // 4)))  # few positives
    y = np.asarray(draw(st.permutations([1] * n_pos + [0] * (n - n_pos))), int)
    config = TrainConfig(
        svm_epochs=draw(st.integers(1, 40)),
        tree_max_depth=draw(st.integers(0, 5)),
        tree_min_samples_split=draw(st.integers(1, 4)),
        forest_trees=draw(st.integers(1, 6)),
    )
    return X, y, config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(_tied_ablations())
def test_every_ablation_cell_is_the_fit_train_and_evaluate_makes(problem):
    X, y, config, seed = problem
    table, models = ablation(X, y, seed, config)
    train_idx, _ = split_80_20(y, seed)
    for group, cells in models.items():
        for kind, model in cells.items():
            alone, report = train_and_evaluate(X, y, seed, kind, group, config)
            assert table[group][kind] == report
            assert model.feature_indices == alone.feature_indices
            assert (model.mins.tobytes(), model.maxs.tobytes()) == (alone.mins.tobytes(), alone.maxs.tobytes())
            assert model.parameters == alone.parameters, (group, kind)
        # and each cell is what the per-model references fit on the group's own scaled columns
        scaled = _fitted_scale(X[train_idx][:, cells[KIND_SVM].feature_indices])
        w_full = _reference_svm(scaled, y[train_idx], config)
        assert cells[KIND_SVM].parameters == {"w": w_full[:-1].tolist(), "b": float(w_full[-1])}
        assert cells[KIND_TREE].parameters == _reference_tree(scaled, y[train_idx], config, None)
        assert cells[KIND_FOREST].parameters == _reference_forest(scaled, y[train_idx], config, seed)


def test_ablation_draws_each_bootstrap_once(monkeypatch):
    # the four forests' tree i share its key, so they share its bootstrap,
    # the draws at node 0, drawn for every tree in one call
    import mission_profiler.classifier as classifier

    boots = []
    real = classifier._keyed

    def keyed(keys, nodes, count):
        if not np.any(nodes):
            boots.append(len(keys))
        return real(keys, nodes, count)

    monkeypatch.setattr(classifier, "_keyed", keyed)
    X, y = make_blobs(60, seed=37)
    config = TrainConfig(forest_trees=7, svm_epochs=5)
    _, models = ablation(_padded(X), y, 37, config)
    assert boots == [config.forest_trees]

    def positives(node):  # the positive rows of a tree's bootstrap, summed over its leaves
        return node["n_pos"] if node["leaf"] else positives(node["left"]) + positives(node["right"])

    forests = [cells[KIND_FOREST].parameters["trees"] for cells in models.values()]
    counts = [[positives(tree["root"]) for tree in trees] for trees in forests]
    assert counts[0] == counts[1] == counts[2] == counts[3]
    assert len(set(counts[0])) > 1  # and the trees' bootstraps differ


# -- model files -------------------------------------------------------------------------

def test_model_save_load_round_trip(tmp_path):
    X, y = make_blobs(80, seed=41, dims=40)
    # the training rows, and rows below and above the training range, which the scaling clips
    rows = np.vstack([X, X.min(axis=0) - 1.0, X.max(axis=0) + 1.0, X * 2.5])
    for kind in (KIND_SVM, KIND_TREE, KIND_FOREST):
        model = train(kind, X, y, seed=41, config=TrainConfig(forest_trees=5))
        path = tmp_path / f"{kind}.json"
        model.save(path)
        loaded = TrainedModel.load(path)
        assert loaded.decision_scores(rows).tobytes() == model.decision_scores(rows).tobytes()
        assert np.array_equal(model.predict(rows), loaded.predict(rows))
        path2 = tmp_path / f"{kind}-2.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()


def _at_root(change):
    """An edit of a tree file's payload, or a forest file's, that applies
    change to the root of its tree, or of its last tree."""

    def edit(payload):
        parameters = payload["parameters"]
        change((parameters["trees"][-1] if "trees" in parameters else parameters)["root"])
        return payload

    return edit


_CONFIG = TrainConfig().as_dict()


@pytest.mark.parametrize("kind, edit, message", [
    (KIND_SVM, lambda p: ["a list"], "not a model file"),
    (KIND_SVM, lambda p: {**p, "kind": "gbm"}, "unknown model kind 'gbm'"),
    (KIND_SVM, lambda p: {k: v for k, v in p.items() if k != "parameters"}, "no 'parameters'"),
    (KIND_SVM, lambda p: {k: v for k, v in p.items() if k != "scaler"}, "no 'scaler'"),
    (KIND_SVM, lambda p: {**p, "scaler": {"mins": p["scaler"]["mins"]}}, "no 'maxs'"),
    (KIND_SVM, lambda p: {**p, "parameters": {"b": 0.0, "w": 5}}, "w does not hold one value per feature index"),
    (KIND_SVM, lambda p: {**p, "parameters": {"b": 0.0, "w": p["parameters"]["w"][:-1]}}, "w does not hold one value"),
    (KIND_SVM, lambda p: {**p, "scaler": {"mins": p["scaler"]["mins"] + [0.0], "maxs": p["scaler"]["maxs"]}},
     "mins does not hold one value"),
    (KIND_SVM, lambda p: {**p, "scaler": {"mins": p["scaler"]["mins"], "maxs": [p["scaler"]["maxs"]]}},
     "maxs does not hold one value"),
    (KIND_SVM, lambda p: {**p, "feature_indices": [0, 1, -1]}, "feature_indices is not a list of distinct"),
    (KIND_SVM, lambda p: {**p, "feature_indices": [0, 1, 1]}, "feature_indices is not a list of distinct"),
    (KIND_SVM, lambda p: {**p, "feature_indices": [0, True, 2]}, "feature_indices is not a list of distinct"),
    (KIND_SVM, lambda p: {**p, "feature_indices": "012"}, "feature_indices is not a list of distinct"),
    (KIND_SVM, lambda p: {**p, "catalog_hash": "beef"}, "different feature catalog"),
    (KIND_SVM, lambda p: {k: v for k, v in p.items() if k != "catalog_hash"}, "different feature catalog"),
    (KIND_SVM, lambda p: {**p, "seed": "abc"}, "seed is not an integer"),
    (KIND_SVM, lambda p: {**p, "seed": True}, "seed is not an integer"),
    (KIND_SVM, lambda p: {**p, "seed": 1.5}, "seed is not an integer"),
    (KIND_SVM, lambda p: {**p, "config": {"gamma": 1}}, "config is not an object of TrainConfig's fields"),
    (KIND_SVM, lambda p: {**p, "config": [1]}, "config is not an object of TrainConfig's fields"),
    (KIND_SVM, lambda p: {**p, "config": {**_CONFIG, "svm_epochs": 2.5}}, "config is not an object"),
    (KIND_SVM, lambda p: {**p, "config": {**_CONFIG, "forest_trees": True}}, "config is not an object"),
    (KIND_SVM, lambda p: {**p, "config": {**_CONFIG, "svm_c": "1"}}, "config is not an object"),
    (KIND_SVM, lambda p: {**p, "config": {**_CONFIG, "svm_c": 0.0}}, "config: svm_c is 0.0; it must be a finite number above 0"),
    (KIND_SVM, lambda p: {**p, "config": {"svm_c": -1}}, "config: svm_c is -1; it must be a finite number above 0"),
    (KIND_SVM, lambda p: {**p, "config": {**_CONFIG, "svm_epochs": 0}}, "config: svm_epochs is 0; it must be at least 1"),
    (KIND_FOREST, lambda p: {**p, "config": {**_CONFIG, "forest_trees": 0}}, "config: forest_trees is 0; it must be at least 1"),
    (KIND_SVM, lambda p: {**p, "parameters": {**p["parameters"], "b": "x"}}, "b is not a finite number"),
    (KIND_SVM, lambda p: {**p, "parameters": {**p["parameters"], "b": float("inf")}}, "b is not a finite number"),
    (KIND_SVM, lambda p: {**p, "parameters": {**p["parameters"], "w": [0.0, float("nan"), 1.0]}},
     "w holds a value that is not a finite number"),
    (KIND_SVM, lambda p: {**p, "scaler": {**p["scaler"], "mins": [0.0, 0.0, 10**400]}},
     "mins holds a value that is not a finite number"),
    (KIND_TREE, _at_root(lambda root: root.update(feature=99)), r"a split's feature is not a place in feature_indices \(0 to 2\)"),
    (KIND_TREE, _at_root(lambda root: root.update(feature=-1)), "a split's feature is not a place"),
    (KIND_TREE, _at_root(lambda root: root.update(feature=True)), "a split's feature is not a place"),
    (KIND_TREE, _at_root(lambda root: root.pop("leaf")), "a tree node has no boolean 'leaf'"),
    (KIND_TREE, _at_root(lambda root: root["right"].update(leaf=1)), "a tree node has no boolean 'leaf'"),
    (KIND_TREE, _at_root(lambda root: root.update(threshold="x")), "a split's threshold is not a finite number"),
    (KIND_TREE, _at_root(lambda root: root.pop("right")), "a split lacks its 'left' or 'right' node"),
    (KIND_TREE, _at_root(lambda root: root.update(leaf=True, n=3, n_pos=4)), "a leaf does not hold integers"),
    (KIND_TREE, _at_root(lambda root: root.update(leaf=True, n=-1, n_pos=-1)), "a leaf does not hold integers"),
    (KIND_TREE, _at_root(lambda root: root.update(leaf=True, n=4.0, n_pos=1)), "a leaf does not hold integers"),
    (KIND_FOREST, lambda p: {**p, "parameters": {"trees": []}}, "trees is not a list of one or more objects"),
    (KIND_FOREST, lambda p: {**p, "parameters": {"trees": [5]}}, "trees is not a list of one or more objects"),
    (KIND_FOREST, _at_root(lambda root: root.update(feature=99)), "a split's feature is not a place"),
    (KIND_FOREST, _at_root(lambda root: root["left"].pop("leaf")), "a tree node has no boolean 'leaf'"),
], ids=["not-an-object", "unknown-kind", "no-parameters", "no-scaler", "no-maxs", "w-scalar", "w-short",
        "mins-long", "maxs-nested", "index-negative", "index-repeated", "index-bool", "indices-string",
        "other-catalog", "no-catalog", "seed-string", "seed-bool", "seed-float", "config-unknown-field",
        "config-list", "config-float-epochs", "config-bool-trees", "config-string-c", "config-zero-c",
        "config-negative-c", "config-zero-epochs", "config-zero-trees", "b-string", "b-infinite",
        "w-nan", "mins-past-float", "tree-feature-past", "tree-feature-negative",
        "tree-feature-bool", "tree-no-leaf", "tree-child-leaf-int", "tree-threshold-string",
        "tree-no-right", "leaf-n-pos-over-n", "leaf-negative", "leaf-float-n", "forest-no-trees",
        "forest-tree-not-object", "forest-feature-past", "forest-child-no-leaf"])
def test_a_bad_model_file_is_refused_naming_it(tmp_path, kind, edit, message):
    # an unknown kind used to fail as KeyError('gbm'), a missing key as KeyError('parameters'),
    # "w": 5, a feature index of -1 and a file of another catalog loaded; a config field
    # other than TrainConfig's failed as a bare TypeError, a seed "abc" or a b "x" as a
    # bare ValueError, and a seed true or 1.5 loaded; a split's feature 99 failed at
    # predict as a bare IndexError, -1 split on the last column, a root without "leaf"
    # was a bare KeyError, and a forest of no tree predicted 0 under RuntimeWarnings;
    # a config of svm_c 0, svm_epochs 0 or forest_trees 0 loaded
    X, y = make_blobs(40, seed=45, dims=3)
    path = tmp_path / "model.json"
    train(kind, X, y, seed=45, config=TrainConfig(forest_trees=3)).save(path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message) as raised:
        TrainedModel.load(path)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("kind, config, message", [
    (KIND_SVM, TrainConfig(svm_c=0.0), "svm_c is 0.0; it must be a finite number above 0"),
    (KIND_SVM, TrainConfig(svm_c=float("nan")), "svm_c is nan; it must be a finite number above 0"),
    (KIND_SVM, TrainConfig(svm_epochs=0), "svm_epochs is 0; it must be at least 1"),
    (KIND_FOREST, TrainConfig(forest_trees=0), "forest_trees is 0; it must be at least 1"),
    (KIND_TREE, TrainConfig(forest_trees=-2), "forest_trees is -2; it must be at least 1"),
], ids=["c-zero", "c-nan", "epochs-zero", "trees-zero", "trees-negative"])
def test_a_fit_refuses_a_config_it_cannot_use_naming_the_field(kind, config, message):
    # svm_c 0 used to fail as a bare ZeroDivisionError, and forest_trees 0 fitted a
    # forest of no tree that predicted 0 under RuntimeWarnings
    X, y = make_blobs(40, seed=45, dims=3)
    with pytest.raises(ValueError, match=message):
        train(kind, X, y, seed=45, config=config)


def test_a_model_reading_a_column_past_the_matrix_is_refused(tmp_path):
    # this used to fail as a bare IndexError naming no column count
    X, y = make_blobs(40, seed=45, dims=3)
    path = tmp_path / "model.json"
    train(KIND_SVM, X, y, seed=45).save(path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "feature_indices": [0, 1, 99]}))
    model = TrainedModel.load(path)
    with pytest.raises(ValueError, match="reads feature column 99; the matrix has 40 columns"):
        model.predict(np.zeros((5, 40)))
    assert model.predict(np.zeros((5, 100))).shape == (5,)


def test_model_byte_identical_across_retrains(tmp_path):
    X, y = make_blobs(60, seed=43, dims=40)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    train(KIND_FOREST, X, y, seed=5, config=TrainConfig(forest_trees=8)).save(a)
    train(KIND_FOREST, X, y, seed=5, config=TrainConfig(forest_trees=8)).save(b)
    assert a.read_bytes() == b.read_bytes()


# -- wild flagging -------------------------------------------------------------------------

def test_flag_counts():
    X, y = make_blobs(100, seed=51, dims=40)
    model = train(KIND_SVM, X, y, seed=51)
    rng = np.random.default_rng(3)
    wild = rng.normal(size=(20, 40)) * 0.3
    wild[:13, 0] += 2.0  # push 13 profiles over the boundary
    wild[13:, 0] -= 2.0
    ids = [f"w{i}" for i in range(20)]
    result = flag_in_wild(model, {"II": (ids, wild)}, sample_n=5, seed=1)
    row = result["table"][0]
    preds = model.predict(wild)
    assert row["total"] == 20
    assert row["flagged"] == int(preds.sum())
    assert row["pct_flagged"] == pytest.approx(100.0 * preds.sum() / 20)
    assert len(result["designations"]) == 20
    assert len(result["samples"]["II"]) == 5


def test_flag_routes_each_group_once(monkeypatch):
    # each group's rows used to go down the forest twice: once for its
    # predictions, once for its decision scores
    import mission_profiler.classifier as classifier

    routed = []
    real = classifier._route

    def route(roots, X):
        routed.append(len(X))
        return real(roots, X)

    X, y = make_blobs(100, seed=53, dims=40)
    model = train(KIND_FOREST, X, y, seed=53, config=TrainConfig(forest_trees=5))
    rng = np.random.default_rng(5)
    groups = {"II": ([f"a{i}" for i in range(40)], rng.normal(size=(40, 40))),
              "III": ([f"b{i}" for i in range(25)], rng.normal(size=(25, 40)))}
    expected = [(int(p), float(s)) for _, rows in groups.values() for p, s in
                zip(model.predict(rows), model.decision_scores(rows))]
    monkeypatch.setattr(classifier, "_route", route)
    result = flag_in_wild(model, groups, sample_n=5, seed=1)
    assert routed == [40, 25]
    assert [(d["prediction"], d["decision_score"]) for d in result["designations"]] == expected


def test_flag_empty_group():
    X, y = make_blobs(100, seed=51, dims=40)
    model = train(KIND_SVM, X, y, seed=51)
    result = flag_in_wild(model, {"III": ([], np.zeros((0, 40)))}, sample_n=5, seed=1)
    row = result["table"][0]
    assert row["total"] == 0
    assert row["flagged"] == 0
    assert row["pct_flagged"] is None
