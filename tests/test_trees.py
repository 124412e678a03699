import numpy as np

from scatterscore.trees import (
    DecisionTree,
    ensemble_vote_fraction,
    fit_bagged_trees,
    grow_tree,
)


def xor_data(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int8)
    return X, y


class TestGrowTree:
    def test_memorizes_consistent_data(self):
        X, y = xor_data(400, seed=0)
        tree = grow_tree(X, y)
        assert np.array_equal(tree.predict_matrix(X), y)

    def test_pure_node_is_leaf(self):
        tree = grow_tree(np.array([[0.0], [1.0], [2.0]]), np.array([1, 1, 1]))
        assert tree.n_nodes == 1
        assert tree.leaf_class[0] == 1

    def test_threshold_is_midpoint(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([0, 1])
        tree = grow_tree(X, y)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 1.0

    def test_tie_breaks_to_lowest_feature(self):
        # identical informative columns: both give the same gain
        col = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([col, col])
        y = np.array([0, 0, 1, 1])
        tree = grow_tree(X, y)
        assert tree.feature[0] == 0

    def test_conflicting_duplicate_rows_majority_leaf(self):
        X = np.zeros((5, 2))
        y = np.array([1, 1, 1, 0, 0])
        tree = grow_tree(X, y)
        assert tree.n_nodes == 1
        assert tree.leaf_class[0] == 1

    def test_conflicting_duplicate_tie_merges(self):
        X = np.zeros((4, 2))
        y = np.array([1, 0, 1, 0])
        tree = grow_tree(X, y)
        assert tree.leaf_class[0] == 1  # tie -> 1

    def test_row_and_matrix_prediction_agree(self):
        X, y = xor_data(200, seed=1)
        tree = grow_tree(X, y)
        Xq = np.random.default_rng(2).uniform(-1, 1, size=(50, 2))
        batch = tree.predict_matrix(Xq)
        rows = np.concatenate([tree.predict_matrix(x) for x in Xq])
        assert np.array_equal(batch, rows)

    def test_serialization_roundtrip(self):
        X, y = xor_data(150, seed=3)
        tree = grow_tree(X, y)
        back = DecisionTree.from_dict(tree.to_dict())
        Xq = np.random.default_rng(4).uniform(-1, 1, size=(50, 2))
        assert np.array_equal(tree.predict_matrix(Xq), back.predict_matrix(Xq))


class TestBagging:
    def test_single_tree_equals_its_vote(self):
        X, y = xor_data(300, seed=5)
        trees = fit_bagged_trees(X, y, n_trees=1, seed=9)
        frac = ensemble_vote_fraction(trees, X)
        assert np.array_equal(frac >= 0.5, trees[0].predict_matrix(X).astype(bool))
        assert set(np.unique(frac)) <= {0.0, 1.0}

    def test_vote_fraction_bounds_and_monotonicity(self):
        X, y = xor_data(300, seed=6)
        trees = fit_bagged_trees(X, y, n_trees=7, seed=1)
        Xq = np.random.default_rng(7).uniform(-1, 1, size=(100, 2))
        frac = ensemble_vote_fraction(trees, Xq)
        assert np.all((0.0 <= frac) & (frac <= 1.0))
        votes = np.stack([t.predict_matrix(Xq) for t in trees])
        assert np.allclose(frac, votes.mean(axis=0))

    def test_deterministic_given_seed(self):
        X, y = xor_data(200, seed=8)
        a = fit_bagged_trees(X, y, n_trees=5, seed=3)
        b = fit_bagged_trees(X, y, n_trees=5, seed=3)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)

    def test_generalizes_simple_rule(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(1000, 3))
        y = (X[:, 1] > 0.2).astype(np.int8)
        trees = fit_bagged_trees(X[:800], y[:800], n_trees=15, seed=0)
        pred = ensemble_vote_fraction(trees, X[800:]) >= 0.5
        assert (pred == y[800:].astype(bool)).mean() > 0.97
