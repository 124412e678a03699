"""Classification trees (Gini splits) and bootstrap-aggregated ensembles.

Trees are grown to purity with axis-aligned splits on threshold midpoints;
no pruning — the bagging ensemble controls variance.  Split ties break on
the lowest feature index, then the lowest threshold, so growth is fully
deterministic given the training matrix.

No node sorts anything (the presorted-attribute design of CART and SLIQ):
each feature is argsorted once per bag, and nodes keep their rows in that
order, partitioned stably.  A bootstrap is given as row counts, exact
integers, and cuts fall only between distinct values, so a tree grown from
counts equals the one grown on the resampled rows, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import spawn_rng

_MIN_GAIN = 1e-12


@dataclass(eq=False)
class DecisionTree:
    """Flat-array binary tree: feature[i] == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray

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
        """Build a tree from its node arrays; ValueError unless prediction can walk it.

        Every child comes after its parent, so each walk from the root ends.
        """
        tree = cls(
            feature=np.array(d["feature"], dtype=np.int32),
            threshold=np.array(d["threshold"], dtype=float),
            left=np.array(d["left"], dtype=np.int32),
            right=np.array(d["right"], dtype=np.int32),
            leaf_class=np.array(d["leaf_class"], dtype=np.int8),
        )
        n = tree.feature.size
        arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.leaf_class)
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise ValueError("tree node arrays must share one nonzero length")
        if tree.feature.min() < -1 or tree.leaf_class.min() < 0 or tree.leaf_class.max() > 1:
            raise ValueError("tree features must be >= -1 and leaf classes 0 or 1")
        inner = np.flatnonzero(tree.feature >= 0)
        left, right = tree.left[inner], tree.right[inner]
        if np.any(np.minimum(left, right) <= inner) or np.any(np.maximum(left, right) >= n):
            raise ValueError("each child node must come after its parent and inside the tree")
        return tree


def _presort(X: np.ndarray) -> np.ndarray:
    """(d, n) intp array (no cast at a gather): row f lists the rows of X in stable order of feature f."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def grow_tree(X: np.ndarray, y: np.ndarray, counts=None, *, order=None) -> DecisionTree:
    """Grow a full-depth Gini tree on (X, y) with y in {0, 1}.

    ``counts[i]`` is how many times row i is in the training set (a
    bootstrap's multiplicities); rows with count 0 are left out, and the
    tree equals the one grown on ``np.repeat(X, counts, 0)``.  Omitted, every
    row counts once.  ``order`` is ``_presort(X)``, which callers growing
    many trees on one X compute once.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int8)
    if X.ndim != 2 or X.shape[0] < 1 or y.shape != X.shape[:1]:
        raise ValueError("training matrix must be 2D and non-empty, with one label per row")
    n_rows, d = X.shape
    counts = np.ones(n_rows, dtype=np.int64) if counts is None else np.asarray(counts)
    if counts.shape != (n_rows,) or counts.dtype.kind not in "iu" or counts.min() < 0 or not counts.any():
        raise ValueError(f"counts must be {n_rows} non-negative integers, not all zero")
    # Float counts and their sums are exact integers (below 2**53).
    counts = counts.astype(float)
    ones_per_row = counts * y
    order = _presort(X) if order is None else order
    values = np.ascontiguousarray(X.T).ravel()
    goes_left = np.zeros(n_rows, dtype=bool)
    features = np.arange(d)
    offsets = features[:, None] * n_rows  # row f of a node's rows -> indices into values

    # A node's (d, m) array lists its m rows in order of each feature; the
    # filter and every partition are stable, so each row stays sorted.
    nodes = [[-1, 0.0, -1, -1, 0]]  # feature, threshold, left, right, leaf_class
    stack = [(0, order[counts[order] > 0].reshape(d, -1))]
    while stack:
        node, rows = stack.pop()
        n = int(counts[rows[0]].sum())
        ones = int(ones_per_row[rows[0]].sum())
        f = -1
        if 0 < ones < n:
            n_left = np.cumsum(counts[rows], axis=1)
            ones_left = np.cumsum(ones_per_row[rows], axis=1)
            # Binary Gini impurity 2p(1-p) of both children at every cut, i.e.
            # between distinct consecutive values; other positions get inf.
            frac = ones / n
            parent_impurity = 2.0 * frac * (1.0 - frac)
            sv = values[rows + offsets]
            # In place, with each element's operations in the order of
            # (n_l*2*p_l*(1-p_l) + n_r*2*p_r*(1-p_r)) / n, to spare memory.
            n_left = n_left[:, :-1]
            p_left = ones_left[:, :-1]
            n_right = n - n_left
            p_right = ones - p_left
            p_left /= n_left
            p_right /= n_right
            child = n_left * 2.0
            child *= p_left
            child *= 1.0 - p_left
            n_right *= 2.0
            n_right *= p_right
            n_right *= 1.0 - p_right
            child += n_right
            child /= n
            child[sv[:, :-1] >= sv[:, 1:]] = np.inf
            cut = np.argmin(child, axis=1)  # first minimum -> lowest threshold
            gains = parent_impurity - child[features, cut]
            f = int(np.argmax(gains))  # first maximum -> lowest feature
            if not gains[f] > _MIN_GAIN:
                f = -1
        if f < 0:
            nodes[node][4] = 1 if 2 * ones >= n else 0
            continue

        thr = float(0.5 * (sv[f, cut[f]] + sv[f, cut[f] + 1]))
        goes_left[rows[f]] = sv[f] <= thr
        to_left = goes_left[rows].ravel()
        nodes[node][:4] = f, thr, len(nodes), len(nodes) + 1
        stack.append((len(nodes), np.compress(to_left, rows).reshape(d, -1)))
        stack.append((len(nodes) + 1, np.compress(~to_left, rows).reshape(d, -1)))
        nodes += [[-1, 0.0, -1, -1, 0], [-1, 0.0, -1, -1, 0]]

    return DecisionTree.from_dict(dict(zip(("feature", "threshold", "left", "right", "leaf_class"), zip(*nodes))))


def fit_bagged_trees(X: np.ndarray, y: np.ndarray, n_trees: int, seed: int) -> list[DecisionTree]:
    """Grow n_trees trees, each on a same-size bootstrap resample given as row counts."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int8)
    n = X.shape[0]
    order = _presort(X)
    out = []
    for i in range(n_trees):
        rng = spawn_rng(seed, "tree", i)
        idx = rng.integers(0, n, size=n)
        out.append(grow_tree(X, y, np.bincount(idx, minlength=n), order=order))
    return out


def ensemble_vote_fraction(trees, X: np.ndarray) -> np.ndarray:
    """Share of trees voting class 1, per row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    votes = np.zeros(X.shape[0], dtype=float)
    for tree in trees:
        votes += tree.predict_matrix(X)
    return votes / len(trees)
