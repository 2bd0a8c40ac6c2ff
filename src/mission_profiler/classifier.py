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


@dataclass
class EvalReport:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0

    @property
    def accuracy(self) -> float:
        total = self.tp + self.tn + self.fp + self.fn
        return (self.tp + self.tn) / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn,
            "f1": self.f1, "accuracy": self.accuracy,
        }


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


def split_80_20(
    labels: np.ndarray,
    seed: int,
    stratified: bool = True,
    test_fraction: float = 0.2,
) -> tuple[list[int], list[int]]:
    """Disjoint, exhaustive train/test index split, deterministic per seed."""
    y = np.asarray(labels)
    n = len(y)
    if n < 5:
        raise ValueError("need at least 5 labeled examples")
    rng = random.Random(seed)
    test: list[int] = []
    if stratified:
        for cls in sorted(set(int(v) for v in y)):
            idx = [int(i) for i in np.flatnonzero(y == cls)]
            rng.shuffle(idx)
            n_test = int(round(len(idx) * test_fraction))
            n_test = min(n_test, len(idx) - 1)  # keep every class in train
            test.extend(idx[:n_test])
    else:
        idx = list(range(n))
        rng.shuffle(idx)
        test = idx[: int(round(n * test_fraction))]
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
    bias rides along as an appended constant feature. Loss per epoch is
    recorded for monitoring.
    """

    kind = KIND_SVM

    def __init__(self, w: np.ndarray | None = None, b: float = 0.0):
        self.w = w
        self.b = b
        self.loss_history: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray, config: TrainConfig, seed: int = 0) -> "LinearSVM":
        _require_two_classes(y)
        y_signed = np.where(np.asarray(y) > 0, 1.0, -1.0)
        n, f = X.shape
        Xb = np.hstack([X, np.ones((n, 1))])
        lam = 1.0 / (config.svm_c * n)

        def loss(w_full: np.ndarray) -> float:
            hinge = np.maximum(0.0, 1.0 - y_signed * (Xb @ w_full))
            return float(lam / 2.0 * (w_full @ w_full) + hinge.mean())

        w_full = np.zeros(f + 1)
        self.loss_history = [loss(w_full)]
        for t in range(1, config.svm_epochs + 1):
            margins = y_signed * (Xb @ w_full)
            violating = margins < 1.0
            grad = lam * w_full
            if np.any(violating):
                grad = grad - (y_signed[violating, None] * Xb[violating]).sum(axis=0) / n
            w_full = w_full - grad / (lam * t)
            self.loss_history.append(loss(w_full))
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


def _gini_impurity(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p ** 2).sum())


class DecisionTree:
    """CART with Gini impurity and midpoint thresholds.

    Ties between candidate splits resolve to the lowest feature index and
    threshold, so training is fully deterministic. feature_rng, when set,
    samples sqrt(F) candidate features per split (for forests).
    """

    kind = KIND_TREE

    def __init__(self, root: dict | None = None):
        self.root = root

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        config: TrainConfig,
        seed: int = 0,
        feature_rng: random.Random | None = None,
        max_depth: int | None = None,
    ) -> "DecisionTree":
        _require_two_classes(y)
        return self._grow(X, y, config, feature_rng, max_depth)

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        config: TrainConfig,
        feature_rng: random.Random | None = None,
        max_depth: int | None = None,
    ) -> "DecisionTree":
        """fit without the class check: labels of one class grow a single leaf."""
        depth_cap = config.tree_max_depth if max_depth is None else max_depth
        self._min_split = config.tree_min_samples_split
        self._feature_rng = feature_rng
        self.root = self._build(X, np.asarray(y, int), depth_cap)
        return self

    def _leaf(self, y: np.ndarray) -> dict:
        n_pos = int((y == 1).sum())
        n = len(y)
        # majority class; exact tie goes to the negative class
        return {"leaf": True, "n": n, "n_pos": n_pos, "cls": int(n_pos * 2 > n)}

    def _candidate_features(self, n_features: int) -> list[int]:
        if self._feature_rng is None:
            return list(range(n_features))
        k = max(1, int(round(math.sqrt(n_features))))
        return sorted(self._feature_rng.sample(range(n_features), k))

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
        # zero-gain splits are allowed (a first cut on symmetric data like
        # XOR improves nothing by itself but enables pure children)
        n = len(y)
        best: tuple[float, int, float] | None = None
        for feature in self._candidate_features(X.shape[1]):
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
                score = (n_left * _gini_impurity(left) + n_right * _gini_impurity(right)) / n
                if best is None or score < best[0] - 1e-15:
                    threshold = (sorted_vals[i] + sorted_vals[i + 1]) / 2.0
                    best = (score, feature, float(threshold))
        if best is None:
            return None
        return best[1], best[2]

    def _build(self, X: np.ndarray, y: np.ndarray, depth_left: int) -> dict:
        if depth_left <= 0 or len(y) < self._min_split or len(set(y.tolist())) == 1:
            return self._leaf(y)
        split = self._best_split(X, y)
        if split is None:
            return self._leaf(y)
        feature, threshold = split
        go_left = X[:, feature] <= threshold
        return {
            "leaf": False,
            "feature": feature,
            "threshold": threshold,
            "left": self._build(X[go_left], y[go_left], depth_left - 1),
            "right": self._build(X[~go_left], y[~go_left], depth_left - 1),
        }

    def _score_one(self, x: np.ndarray) -> float:
        node = self.root
        while not node["leaf"]:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["n_pos"] / node["n"] if node["n"] else 0.0

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return np.asarray([self._score_one(row) for row in X])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_scores(X) > 0.5).astype(int)

    def params_dict(self) -> dict:
        return {"root": self.root}

    @classmethod
    def from_params(cls, params: dict) -> "DecisionTree":
        return cls(root=params["root"])


class RandomForest:
    """Bootstrap ensemble of CARTs with per-tree derived seeds."""

    kind = KIND_FOREST

    def __init__(self, trees: list[DecisionTree] | None = None):
        self.trees = trees or []

    def fit(self, X: np.ndarray, y: np.ndarray, config: TrainConfig, seed: int = 0) -> "RandomForest":
        _require_two_classes(y)
        n = X.shape[0]
        y = np.asarray(y, int)
        self.trees = []
        for i in range(config.forest_trees):
            rng = random.Random(derive_seed(seed, "tree", i))
            sample = [rng.randrange(n) for _ in range(n)]
            # a bootstrap may draw one class only; that tree is one leaf
            tree = DecisionTree()._grow(X[sample], y[sample], config, feature_rng=rng)
            self.trees.append(tree)
        return self

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        votes = np.stack([t.decision_scores(X) for t in self.trees])
        return votes.mean(axis=0)

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


def evaluate(predictions: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Confusion counts with the on-mission class (1) positive."""
    preds = np.asarray(predictions, int)
    y = np.asarray(labels, int)
    if preds.shape != y.shape:
        raise ValueError("prediction/label length mismatch")
    return EvalReport(
        tp=int(((preds == 1) & (y == 1)).sum()),
        tn=int(((preds == 0) & (y == 0)).sum()),
        fp=int(((preds == 1) & (y == 0)).sum()),
        fn=int(((preds == 0) & (y == 1)).sum()),
    )


def train_and_evaluate(
    X_raw: np.ndarray,
    y: np.ndarray,
    seed: int,
    kind: str = KIND_SVM,
    feature_group: str = "all",
    config: TrainConfig | None = None,
    stratified: bool = True,
) -> tuple[TrainedModel, EvalReport]:
    train_idx, test_idx = split_80_20(y, seed, stratified=stratified)
    model = train(kind, X_raw[train_idx], y[train_idx], seed, feature_group, config)
    report = evaluate(model.predict(X_raw[test_idx]), y[test_idx])
    return model, report


def ablation(
    X_raw: np.ndarray,
    y: np.ndarray,
    seed: int,
    config: TrainConfig | None = None,
) -> dict[str, dict[str, dict]]:
    """F1/accuracy for every feature group x model kind on one shared split."""
    train_idx, test_idx = split_80_20(y, seed, stratified=True)
    table: dict[str, dict[str, dict]] = {}
    for group in ("content", "auxiliary", "activity_profile", "all"):
        table[group] = {}
        for kind in MODEL_KINDS:
            model = train(kind, X_raw[train_idx], np.asarray(y)[train_idx], seed, group, config)
            report = evaluate(model.predict(X_raw[test_idx]), np.asarray(y)[test_idx])
            table[group][kind] = report.as_dict()
    return table


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
        if len(ids) == 0:
            table.append({"group": group, "total": 0, "flagged": 0, "pct_flagged": None})
            samples[group] = []
            continue
        preds = model.predict(X)
        scores = model.decision_scores(X)
        flagged = int(preds.sum())
        total_all += len(ids)
        flagged_all += flagged
        table.append({
            "group": group,
            "total": len(ids),
            "flagged": flagged,
            "pct_flagged": 100.0 * flagged / len(ids),
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
