"""Classification trees (Gini splits) and bootstrap-aggregated ensembles.

Trees are grown to purity with axis-aligned splits on threshold midpoints;
no pruning — the bagging ensemble controls variance.  Split ties break on
the lowest feature index, then the lowest threshold, so growth is fully
deterministic given the training matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import spawn_rng

_MIN_GAIN = 1e-12


@dataclass(eq=False)
class DecisionTree:
    """Flat-array binary tree: feature[i] == -1 marks a leaf."""

    feature: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    threshold: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=float))
    left: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    right: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    leaf_class: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(X.shape[0], dtype=np.int8)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            f = self.feature[node]
            if f < 0:
                out[idx] = self.leaf_class[node]
                continue
            go_left = X[idx, f] <= self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return out

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "leaf_class": self.leaf_class.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        return cls(
            feature=np.array(d["feature"], dtype=np.int32),
            threshold=np.array(d["threshold"], dtype=float),
            left=np.array(d["left"], dtype=np.int32),
            right=np.array(d["right"], dtype=np.int32),
            leaf_class=np.array(d["leaf_class"], dtype=np.int8),
        )


def _best_split_for_feature(col: np.ndarray, y: np.ndarray, n_ones: int):
    """Best (weighted child impurity, threshold) along one feature column.

    Sorted-sweep over the cut points between distinct consecutive values;
    binary Gini impurity 2p(1-p).  Returns (None, None) when the column is
    constant.
    """
    order = np.argsort(col, kind="stable")
    sv = col[order]
    sy = y[order]
    cuts = np.nonzero(sv[:-1] < sv[1:])[0]
    if cuts.size == 0:
        return None, None
    n = col.shape[0]
    ones_left = np.cumsum(sy)[cuts].astype(float)
    n_left = (cuts + 1).astype(float)
    n_right = n - n_left
    ones_right = n_ones - ones_left
    p_left = ones_left / n_left
    p_right = ones_right / n_right
    child = (n_left * 2.0 * p_left * (1.0 - p_left) + n_right * 2.0 * p_right * (1.0 - p_right)) / n
    best = int(np.argmin(child))  # first minimum -> lowest threshold
    threshold = 0.5 * (sv[cuts[best]] + sv[cuts[best] + 1])
    return float(child[best]), float(threshold)


def grow_tree(X: np.ndarray, y: np.ndarray) -> DecisionTree:
    """Grow a full-depth Gini tree on (X, y) with y in {0, 1}."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int8)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("training matrix must be 2D and non-empty")
    d = X.shape[1]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_class: list[int] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_class.append(0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        ys = y[idx]
        n = idx.size
        ones = int(ys.sum())
        frac = ones / n
        parent_impurity = 2.0 * frac * (1.0 - frac)

        best_gain = _MIN_GAIN
        best_feature = -1
        best_threshold = 0.0
        if 0 < ones < n:
            for f in range(d):
                child, thr = _best_split_for_feature(X[idx, f], ys, ones)
                if child is None:
                    continue
                gain = parent_impurity - child
                if gain > best_gain:
                    best_gain = gain
                    best_feature = f
                    best_threshold = thr

        if best_feature < 0:
            leaf_class[node] = 1 if 2 * ones >= n else 0
            continue
        go_left = X[idx, best_feature] <= best_threshold
        feature[node] = best_feature
        threshold[node] = best_threshold
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((left_id, idx[go_left]))
        stack.append((right_id, idx[~go_left]))

    return DecisionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        leaf_class=np.array(leaf_class, dtype=np.int8),
    )


def fit_bagged_trees(X: np.ndarray, y: np.ndarray, n_trees: int, seed: int) -> list[DecisionTree]:
    """Grow n_trees trees, each on a same-size bootstrap resample."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int8)
    n = X.shape[0]
    out = []
    for i in range(n_trees):
        rng = spawn_rng(seed, "tree", i)
        idx = rng.integers(0, n, size=n)
        out.append(grow_tree(X[idx], y[idx]))
    return out


def ensemble_vote_fraction(trees, X: np.ndarray) -> np.ndarray:
    """Share of trees voting class 1, per row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    votes = np.zeros(X.shape[0], dtype=float)
    for tree in trees:
        votes += tree.predict_matrix(X)
    return votes / len(trees)
