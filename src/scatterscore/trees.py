"""Classification trees (Gini splits) and bootstrap-aggregated ensembles.

Trees are grown to purity with axis-aligned splits on threshold midpoints;
no pruning — the bagging ensemble controls variance.  Split ties break on
the lowest feature index, then the lowest threshold, so growth is fully
deterministic given the training matrix.

No node sorts anything (the presorted-attribute design of CART and SLIQ):
each feature is argsorted once per bag, and nodes keep their rows in that
order, partitioned stably.  A bootstrap is given as row counts, exact
integers, and cuts fall only between distinct values, so a tree grown from
counts equals the one grown on the resampled rows, bit for bit; a bag merges
identical (row, label) pairs first.  A majority vote alone (cross-validation)
grows each tree only where undecided query rows reach it.
"""
from __future__ import annotations

import dataclasses
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
        return {f.name: getattr(self, f.name).tolist() for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        """Build a tree from its node arrays; ValueError unless prediction can walk it.

        Every child comes after its parent, so each walk from the root ends.
        """
        raw = {f.name: np.array(d[f.name]) for f in dataclasses.fields(cls)}
        feature, threshold, left, right, leaf_class = raw.values()
        n = feature.size
        if n == 0 or any(a.shape != (n,) for a in raw.values()):
            raise ValueError("tree node arrays must share one nonzero length")
        # np.array reads a JSON true or false among integers as 1 or 0
        if any(raw[k].dtype.kind != "i" or bool in map(type, d[k]) for k in ("feature", "left", "right", "leaf_class")):
            raise ValueError("tree features, children and leaf classes must be integers")
        if threshold.dtype.kind not in "if" or not np.isfinite(threshold).all():
            raise ValueError("tree thresholds must be finite numbers")
        if feature.min() < -1 or leaf_class.min() < 0 or leaf_class.max() > 1:
            raise ValueError("tree features must be >= -1 and leaf classes 0 or 1")
        inner = np.flatnonzero(feature >= 0)
        if np.any(np.minimum(left, right)[inner] <= inner) or np.any(np.maximum(left, right)[inner] >= n):
            raise ValueError("each child node must come after its parent and inside the tree")
        return cls(feature, threshold.astype(float), left, right, leaf_class.astype(np.int8))


def _presort(X: np.ndarray) -> np.ndarray:
    """(d, n) intp array (no cast at a gather): row f lists the rows of X in stable order of feature f."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _check_training(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int8)
    if X.ndim != 2 or X.shape[0] < 1 or y.shape != X.shape[:1]:
        raise ValueError("training matrix must be 2D and non-empty, with one label per row")
    return X, y


def grow_tree(X: np.ndarray, y: np.ndarray, counts=None, *, order=None, query=None) -> DecisionTree:
    """Grow a full-depth Gini tree on (X, y) with y in {0, 1}.

    ``counts[i]`` is how many times row i is in the training set (a
    bootstrap's multiplicities); rows with count 0 are left out, and the
    tree equals the one grown on ``np.repeat(X, counts, 0)``.  Omitted, every
    row counts once.  ``order`` is ``_presort(X)``, which callers growing
    many trees on one X compute once.

    Given a 2D float array ``query``, a node that none of its rows reaches
    is not split but made a leaf of its majority class: the tree predicts
    every query row as the full tree does, and is smaller.
    """
    X, y = _check_training(X, y)
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
    stack = [(0, order[counts[order] > 0].reshape(d, -1), None if query is None else np.arange(query.shape[0]))]
    # Cuts fall only between distinct values.  A node's values are a
    # subsequence of the root's, so without ties at the root no node has any.
    has_ties = any(np.any(v[:-1] >= v[1:]) for v in values[stack[0][1] + offsets])
    while stack:
        node, rows, reach = stack.pop()
        n = int(counts[rows[0]].sum())
        ones = int(ones_per_row[rows[0]].sum())
        f = -1
        if 0 < ones < n and (reach is None or reach.size):
            n_left = np.cumsum(counts[rows], axis=1)
            ones_left = np.cumsum(ones_per_row[rows], axis=1)
            # Binary Gini impurity 2p(1-p) of both children at every cut, i.e.
            # between distinct consecutive values; other positions get inf.
            frac = ones / n
            parent_impurity = 2.0 * frac * (1.0 - frac)
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
            if has_ties:
                sv = values[rows + offsets]
                child[sv[:, :-1] >= sv[:, 1:]] = np.inf
            cut = np.argmin(child, axis=1)  # first minimum -> lowest threshold
            gains = parent_impurity - child[features, cut]
            f = int(np.argmax(gains))  # first maximum -> lowest feature
            if not gains[f] > _MIN_GAIN:
                f = -1
        if f < 0:
            nodes[node][4] = 1 if 2 * ones >= n else 0
            continue

        sf = values[rows[f] + f * n_rows]
        thr = float(0.5 * (sf[cut[f]] + sf[cut[f] + 1]))
        if thr == sf[cut[f] + 1]:  # the midpoint of adjacent doubles rounded up: <= thr would send it left
            thr = float(sf[cut[f]])
        goes_left[rows[f]] = sf <= thr
        to_left = goes_left[rows].ravel()
        nodes[node][:4] = f, thr, len(nodes), len(nodes) + 1
        reach_left = reach_right = None
        if reach is not None:
            query_left = query[reach, f] <= thr
            reach_left, reach_right = reach[query_left], reach[~query_left]
        stack.append((len(nodes), np.compress(to_left, rows).reshape(d, -1), reach_left))
        stack.append((len(nodes) + 1, np.compress(~to_left, rows).reshape(d, -1), reach_right))
        nodes += [[-1, 0.0, -1, -1, 0], [-1, 0.0, -1, -1, 0]]

    feature, threshold, left, right, leaf_class = map(np.array, zip(*nodes))
    return DecisionTree(feature, threshold, left, right, leaf_class.astype(np.int8))


def _bootstraps(X: np.ndarray, y: np.ndarray, n_trees: int, seed: int):
    """Yield each tree's (rows, labels, bootstrap counts, presort), identical (row, label) pairs merged
    once per bag; tree i draws ``spawn_rng(seed, "tree", i).integers(0, n, size=n)`` over X's n rows."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    X, y = _check_training(X, y)
    n = X.shape[0]
    merged, inverse = np.unique(np.column_stack([X, y]), axis=0, return_inverse=True)
    inverse = inverse.ravel()  # its shape differs across numpy versions
    X, y = merged[:, :-1], merged[:, -1].astype(np.int8)  # grow_tree copies X's columns anyway
    order = _presort(X)
    for i in range(n_trees):
        idx = spawn_rng(seed, "tree", i).integers(0, n, size=n)
        yield X, y, np.bincount(inverse[idx], minlength=y.size), order


def fit_bagged_trees(X: np.ndarray, y: np.ndarray, n_trees: int, seed: int) -> list[DecisionTree]:
    """Grow n_trees trees, each on a same-size bootstrap resample given as row counts."""
    return [grow_tree(Xb, yb, counts, order=order) for Xb, yb, counts, order in _bootstraps(X, y, n_trees, seed)]


def bagged_majority(X: np.ndarray, y: np.ndarray, n_trees: int, seed: int, query: np.ndarray) -> np.ndarray:
    """``ensemble_vote_fraction(fit_bagged_trees(X, y, n_trees, seed), query) >= 0.5``
    as int8, growing each tree only where the query rows whose majority is
    still open reach it, and no tree once every majority is decided."""
    query = np.atleast_2d(np.asarray(query, dtype=float))
    ones = np.zeros(query.shape[0], dtype=np.int64)
    for i, (Xb, yb, counts, order) in enumerate(_bootstraps(X, y, n_trees, seed)):
        open_rows = np.flatnonzero((2 * ones < n_trees) & (2 * (ones + n_trees - i) >= n_trees))
        if open_rows.size == 0:
            break
        tree = grow_tree(Xb, yb, counts, order=order, query=query[open_rows])
        ones[open_rows] += tree.predict_matrix(query[open_rows])
    return (2 * ones >= n_trees).astype(np.int8)


def ensemble_vote_fraction(trees, X: np.ndarray) -> np.ndarray:
    """Share of trees voting class 1, per row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    votes = np.zeros(X.shape[0], dtype=float)
    for tree in trees:
        votes += tree.predict_matrix(X)
    return votes / len(trees)
