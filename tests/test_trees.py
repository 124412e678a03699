import numpy as np
import pytest

from scatterscore import trees
from scatterscore.trees import (
    DecisionTree,
    bagged_majority,
    ensemble_vote_fraction,
    fit_bagged_trees,
    grow_tree,
)
from scatterscore.util import spawn_rng


def xor_data(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int8)
    return X, y


def reference_grow(X, y):
    """The per-node argsort grower: node arrays as lists, for comparison."""
    feature, threshold, left, right, leaf_class = [-1], [0.0], [-1], [-1], [0]
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        ys = y[idx]
        n, ones = idx.size, int(ys.sum())
        frac = ones / n
        parent_impurity = 2.0 * frac * (1.0 - frac)
        best_gain, best_f, best_thr = trees._MIN_GAIN, -1, 0.0
        for f in range(X.shape[1] if 0 < ones < n else 0):
            order = np.argsort(X[idx, f], kind="stable")
            sv, sy = X[idx, f][order], ys[order]
            cuts = np.nonzero(sv[:-1] < sv[1:])[0]
            if cuts.size == 0:
                continue
            ones_left = np.cumsum(sy)[cuts].astype(float)
            n_left = (cuts + 1).astype(float)
            n_right, ones_right = n - n_left, ones - ones_left
            p_left, p_right = ones_left / n_left, ones_right / n_right
            child = (n_left * 2.0 * p_left * (1.0 - p_left) + n_right * 2.0 * p_right * (1.0 - p_right)) / n
            best = int(np.argmin(child))
            gain = parent_impurity - float(child[best])
            if gain > best_gain:
                best_gain, best_f, best_thr = gain, f, float(0.5 * (sv[cuts[best]] + sv[cuts[best] + 1]))
        if best_f < 0:
            leaf_class[node] = 1 if 2 * ones >= n else 0
            continue
        go_left = X[idx, best_f] <= best_thr
        feature[node], threshold[node] = best_f, best_thr
        left[node], right[node] = len(feature), len(feature) + 1
        for column, value in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (leaf_class, 0)):
            column += [value, value]
        stack.append((left[node], idx[go_left]))
        stack.append((right[node], idx[~go_left]))
    return {"feature": feature, "threshold": threshold, "left": left, "right": right, "leaf_class": leaf_class}


def tied_data(seed):
    """Values on a coarse grid (many ties), a constant column, repeated rows, noisy labels."""
    rng = np.random.default_rng(seed)
    n, d = rng.integers(20, 150), rng.integers(1, 6)
    X = np.round(rng.normal(size=(n, d)) * rng.choice([1, 4]), 1)
    X[:, rng.integers(d)] = 0.5
    X = np.vstack([X, X[rng.integers(0, n, size=n // 3)]])
    y = (X.sum(axis=1) + rng.normal(scale=0.5, size=X.shape[0]) > 0).astype(np.int8)
    return X, y


def up_sampled(X, y, seed):
    """(X, y) and as many exact replicas of rows drawn from it, as up-sampling gives."""
    rows = np.concatenate([np.arange(X.shape[0]), np.random.default_rng(seed).integers(0, X.shape[0], X.shape[0])])
    return X[rows], y[rows]


def conflicting_repeats(X, y):
    """(X, y) with its first rows repeated under the other label."""
    return np.vstack([X, X[:7]]), np.concatenate([y, 1 - y[:7]])


def counting_grow(monkeypatch):
    """Record each call of ``trees.grow_tree``'s keyword arguments."""
    calls, original = [], trees.grow_tree
    monkeypatch.setattr(trees, "grow_tree", lambda *args, **kwargs: calls.append(kwargs) or original(*args, **kwargs))
    return calls


class TestPresortedGrowth:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_node_argsort(self, seed):
        X, y = tied_data(seed)
        assert grow_tree(X, y).to_dict() == reference_grow(X, y)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_node_argsort_without_ties(self, seed):
        X, y = xor_data(200, seed)
        assert grow_tree(X, y).to_dict() == reference_grow(X, y)

    @pytest.mark.parametrize("make", [tied_data, lambda seed: xor_data(150, seed)], ids=["tied", "untied"])
    @pytest.mark.parametrize("seed", range(3))
    def test_bag_over_duplicated_rows_matches_per_node_argsort_on_resamples(self, make, seed):
        X, y = up_sampled(*make(300 + seed), seed)
        for i, tree in enumerate(fit_bagged_trees(X, y, n_trees=3, seed=seed)):
            idx = spawn_rng(seed, "tree", i).integers(0, X.shape[0], size=X.shape[0])
            assert tree.to_dict() == reference_grow(X[idx], y[idx])

    def test_midpoint_rounding_to_the_largest_value_ends(self):
        # 0.5 * (a + 1.0) rounds to 1.0 for the double a just below 1.0
        a = np.nextafter(1.0, 0.0)
        tree = grow_tree(np.array([[a], [1.0], [a]]), np.array([0, 1, 0]))
        assert tree.threshold[0] == a and tree.n_nodes == 3
        assert tree.predict_matrix(np.array([[a], [1.0]])).tolist() == [0, 1]

    def test_midpoint_rounding_up_below_larger_values_splits_where_the_search_cut(self):
        # the rounded-up midpoint 1.0 would send the row at 1.0 left with a, leaving an impure left child
        a = np.nextafter(1.0, 0.0)
        tree = grow_tree(np.array([[a], [1.0], [2.0]]), np.array([0, 1, 1]))
        assert tree.threshold[0] == a and tree.n_nodes == 3
        assert tree.predict_matrix(np.array([[a], [1.0], [2.0]])).tolist() == [0, 1, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_bag_matches_per_node_argsort_on_resamples(self, seed):
        X, y = tied_data(100 + seed)
        for i, tree in enumerate(fit_bagged_trees(X, y, n_trees=3, seed=seed)):
            idx = spawn_rng(seed, "tree", i).integers(0, X.shape[0], size=X.shape[0])
            assert tree.to_dict() == reference_grow(X[idx], y[idx])

    @pytest.mark.parametrize("seed", range(6))
    def test_counts_equal_repeated_rows(self, seed):
        X, y = tied_data(200 + seed)
        counts = np.random.default_rng(seed).integers(0, 4, size=X.shape[0])
        expected = grow_tree(np.repeat(X, counts, 0), np.repeat(y, counts)).to_dict()
        assert grow_tree(X, y, counts).to_dict() == expected

    @pytest.mark.parametrize(
        "counts",
        [np.ones(3, dtype=int), np.ones(5, dtype=int), np.array([1, -1, 1, 1]), np.zeros(4, dtype=int), np.ones(4)],
        ids=["too-short", "too-long", "negative", "all-zero", "float"],
    )
    def test_bad_counts_rejected(self, counts):
        X, y = xor_data(4, seed=0)
        with pytest.raises(ValueError, match="counts"):
            grow_tree(X, y, counts)

    def test_label_per_row_required(self):
        X, y = xor_data(4, seed=0)
        with pytest.raises(ValueError, match="one label per row"):
            grow_tree(X, y[:1])

    def test_bag_grows_each_tree_through_module_attribute(self, monkeypatch):
        calls = counting_grow(monkeypatch)
        X, y = xor_data(50, seed=0)
        assert len(fit_bagged_trees(X, y, n_trees=7, seed=0)) == 7
        assert len(calls) == 7


class TestMajorityVotes:
    @pytest.mark.parametrize("n_trees", [1, 2, 3, 4, 7, 25])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_full_bag_vote(self, seed, n_trees):
        X, y = conflicting_repeats(*up_sampled(*tied_data(400 + seed), seed))
        query = np.vstack([X, np.round(np.random.default_rng(seed).normal(size=(40, X.shape[1])) * 2, 1)])
        expected = ensemble_vote_fraction(fit_bagged_trees(X, y, n_trees, seed), query) >= 0.5
        votes = bagged_majority(X, y, n_trees, seed, query)
        assert votes.dtype == np.int8 and votes.tolist() == expected.astype(np.int8).tolist()

    def test_grows_trees_only_while_a_majority_is_open(self, monkeypatch):
        # a wide margin: every tree votes each query row's label, so 13 of 25 trees decide them all
        rng = np.random.default_rng(3)
        X = rng.uniform(0.5, 1.0, size=(200, 2)) * rng.choice([-1.0, 1.0], size=(200, 1))
        y = (X[:, 0] > 0).astype(np.int8)
        calls = counting_grow(monkeypatch)
        assert bagged_majority(X, y, 25, 0, X[:20]).tolist() == y[:20].tolist()
        assert len(calls) == 13 and all(np.array_equal(c["query"], X[:20]) for c in calls)

    def test_each_tree_gets_only_the_open_rows(self, monkeypatch):
        X, y = conflicting_repeats(*tied_data(7))
        calls = counting_grow(monkeypatch)
        bagged_majority(X, y, 9, 1, X)
        sizes = [c["query"].shape[0] for c in calls]
        assert sizes[0] == X.shape[0] and sizes == sorted(sizes, reverse=True) and sizes[-1] < X.shape[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_query_tree_round_trips_and_predicts_as_the_full_tree(self, seed):
        X, y = conflicting_repeats(*tied_data(500 + seed))
        counts = np.random.default_rng(seed).integers(0, 3, size=X.shape[0])
        query = X[np.random.default_rng(seed).integers(0, X.shape[0], size=5)]
        full, small = grow_tree(X, y, counts), grow_tree(X, y, counts, query=query)
        back = DecisionTree.from_dict(small.to_dict())
        assert back.predict_matrix(query).tolist() == full.predict_matrix(query).tolist()
        assert small.n_nodes <= full.n_nodes
        assert grow_tree(X, y, counts, query=query[:0]).n_nodes == 1


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
