import itertools
import random

import numpy as np
import pytest

from mission_profiler.classifier import (
    KIND_FOREST,
    KIND_SVM,
    KIND_TREE,
    DecisionTree,
    EvalReport,
    LinearSVM,
    MinMaxScaler,
    RandomForest,
    TrainConfig,
    TrainedModel,
    ablation,
    evaluate,
    flag_in_wild,
    split_80_20,
    train,
    train_and_evaluate,
)


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

def test_scaler_column():
    s = MinMaxScaler().fit(np.array([[0.0], [5.0], [10.0]]))
    out = s.transform(np.array([[0.0], [5.0], [10.0]]))
    assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])


def test_scaler_constant_column_maps_to_zero():
    s = MinMaxScaler().fit(np.array([[7.0], [7.0]]))
    assert np.allclose(s.transform(np.array([[7.0], [7.0]])).ravel(), [0.0, 0.0])


def test_scaler_clips_out_of_range():
    s = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
    out = s.transform(np.array([[-5.0], [15.0]]))
    assert np.allclose(out.ravel(), [0.0, 1.0])


def test_scaler_round_trip():
    s = MinMaxScaler().fit(np.array([[1.0, 2.0], [3.0, 4.0]]))
    s2 = MinMaxScaler.from_dict(s.as_dict())
    X = np.array([[2.0, 3.0]])
    assert np.allclose(s.transform(X), s2.transform(X))


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
    assert report.accuracy == 1.0
    assert report.f1 == 1.0


def test_svm_loss_non_increasing_overall():
    X, y = make_blobs(120, seed=3)
    scaled = MinMaxScaler().fit(X).transform(X)
    svm = LinearSVM().fit(scaled, y, TrainConfig())
    assert svm.loss_history[-1] <= svm.loss_history[0]
    # averaged over epochs the trend is downward
    first = np.mean(svm.loss_history[:10])
    last = np.mean(svm.loss_history[-10:])
    assert last <= first


def test_svm_single_class_raises():
    X = np.zeros((10, 2))
    with pytest.raises(ValueError):
        LinearSVM().fit(X, np.zeros(10), TrainConfig())


def test_xor_svm_at_most_three_quarters():
    scaled = MinMaxScaler().fit(XOR_X).transform(XOR_X)
    svm = LinearSVM().fit(scaled, XOR_Y, TrainConfig())
    acc = float((svm.predict(scaled) == XOR_Y).mean())
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
    tree = DecisionTree().fit(XOR_X, XOR_Y, TrainConfig(), max_depth=2)
    assert np.array_equal(tree.predict(XOR_X), XOR_Y)


def test_tree_reaches_perfect_training_accuracy_on_distinct_rows():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=n)
        if len(set(y.tolist())) < 2:
            continue
        tree = DecisionTree().fit(X, y, TrainConfig(), max_depth=10_000)
        assert float((tree.predict(X) == y).mean()) == 1.0


def test_tree_deterministic():
    X, y = make_blobs(100, seed=2)
    t1 = DecisionTree().fit(X, y, TrainConfig())
    t2 = DecisionTree().fit(X, y, TrainConfig())
    assert t1.params_dict() == t2.params_dict()


def test_tree_respects_max_depth():
    X, y = make_blobs(100, seed=4)

    def depth(node):
        if node["leaf"]:
            return 0
        return 1 + max(depth(node["left"]), depth(node["right"]))

    tree = DecisionTree().fit(X, y, TrainConfig(tree_max_depth=3))
    assert depth(tree.root) <= 3


# -- forest -----------------------------------------------------------------------

def test_forest_at_least_tree_minus_margin():
    X, y = make_blobs(200, margin=0.2, seed=11)
    _, tree_report = train_and_evaluate(X, y, seed=11, kind=KIND_TREE)
    _, forest_report = train_and_evaluate(X, y, seed=11, kind=KIND_FOREST)
    assert forest_report.accuracy >= tree_report.accuracy - 0.02


def test_forest_deterministic_per_seed():
    X, y = make_blobs(60, seed=13)
    config = TrainConfig(forest_trees=10)
    f1 = RandomForest().fit(X, y, config, seed=99)
    f2 = RandomForest().fit(X, y, config, seed=99)
    assert f1.params_dict() == f2.params_dict()
    f3 = RandomForest().fit(X, y, config, seed=100)
    assert f1.params_dict() != f3.params_dict()


def test_forest_single_class_bootstrap_grows_a_leaf():
    # 2 positives in 12 rows: some of the 100 bootstraps draw no positive
    X = np.random.default_rng(3).random((12, 4))
    y = np.array([1, 1] + [0] * 10)
    forest = RandomForest().fit(X, y, TrainConfig(), seed=1)
    single = [t.root for t in forest.trees if t.root["leaf"] and t.root["n_pos"] == 0]
    assert single and all(root["n"] == 12 for root in single)
    assert forest.predict(X).shape == (12,)
    with pytest.raises(ValueError, match="single class"):
        RandomForest().fit(X, np.zeros(12, dtype=int), TrainConfig(), seed=1)


# -- evaluation ---------------------------------------------------------------------

def test_eval_hand_values():
    report = EvalReport(tp=3, fp=1, fn=2, tn=4)
    assert report.f1 == pytest.approx(2 * 3 / (2 * 3 + 1 + 2))  # 0.667
    assert report.accuracy == pytest.approx(0.7)


def test_eval_perfect():
    preds = np.array([1, 0, 1, 0])
    report = evaluate(preds, preds.copy())
    assert report.f1 == 1.0
    assert report.accuracy == 1.0


def test_eval_all_positive_on_balanced():
    y = np.array([1] * 50 + [0] * 50)
    report = evaluate(np.ones(100, dtype=int), y)
    assert report.accuracy == pytest.approx(0.5)
    assert report.f1 == pytest.approx(2 / 3)


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
        assert (report.tp, report.tn, report.fp, report.fn) == (tp, tn, fp, fn)
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        assert report.f1 == pytest.approx(f1)
        assert report.accuracy == pytest.approx((tp + tn) / n)


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
    table = ablation(_padded(X), y, seed=31, config=TrainConfig(forest_trees=10, svm_epochs=200))
    assert set(table) == {"content", "auxiliary", "activity_profile", "all"}
    cells = [(g, k) for g in table for k in table[g]]
    assert len(cells) == 12
    for g in table:
        for k in table[g]:
            assert 0.0 <= table[g][k]["f1"] <= 1.0
            assert 0.0 <= table[g][k]["accuracy"] <= 1.0


def test_ablation_deterministic():
    X, y = make_blobs(60, seed=33)
    cfg = TrainConfig(forest_trees=5, svm_epochs=100)
    assert ablation(_padded(X), y, 33, cfg) == ablation(_padded(X), y, 33, cfg)


# -- model files -------------------------------------------------------------------------

def test_model_save_load_round_trip(tmp_path):
    X, y = make_blobs(80, seed=41, dims=40)
    for kind in (KIND_SVM, KIND_TREE, KIND_FOREST):
        model = train(kind, X, y, seed=41, config=TrainConfig(forest_trees=5))
        path = tmp_path / f"{kind}.json"
        model.save(path)
        loaded = TrainedModel.load(path)
        assert np.array_equal(model.predict(X), loaded.predict(X))
        path2 = tmp_path / f"{kind}-2.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()


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


def test_flag_empty_group():
    X, y = make_blobs(100, seed=51, dims=40)
    model = train(KIND_SVM, X, y, seed=51)
    result = flag_in_wild(model, {"III": ([], np.zeros((0, 40)))}, sample_n=5, seed=1)
    row = result["table"][0]
    assert row["total"] == 0
    assert row["flagged"] == 0
    assert row["pct_flagged"] is None
