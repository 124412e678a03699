import itertools
import math

import numpy as np
import pytest

from scatterscore import vqm
from scatterscore.gmm import FitConfig, MixtureModel, select_model
from scatterscore.mergemodel import TrainConfig, predict, train_bagged
from scatterscore.pairspace import HALF_PI, aligned_pair_from_model, decompose_covariance, wrap_angle
from scatterscore.vqm import (
    MergeMatrix,
    VqmScore,
    build_merge_matrix,
    compare,
    count_components,
    rank,
    read_scores_csv,
    scalar_score,
    score_scatterplot,
    write_scores_csv,
)

from conftest import gaussian_blob, separation_rule_pairs, two_blob_plot
from test_gmm import blob_plot

FIT_CFG = FitConfig(k_max=3, n_restarts=2, seed=0, em_tolerance=1e-6, max_iterations=200)


def matrix_from_edges(k, edges):
    m = np.eye(k, dtype=np.int8)
    for u, v in edges:
        m[u, v] = m[v, u] = 1
    return MergeMatrix(k=k, entries=m)


def dfs_component_count(adjacency):
    """Independent recursive-DFS oracle for connected components."""
    k = adjacency.shape[0]
    seen = [False] * k
    count = 0
    for start in range(k):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            for other in range(k):
                if adjacency[node, other] and not seen[other]:
                    seen[other] = True
                    stack.append(other)
    return count


class TestCountComponents:
    def test_no_edges(self):
        assert count_components(matrix_from_edges(3, [])) == 3

    def test_complete_graph(self):
        assert count_components(matrix_from_edges(3, [(0, 1), (0, 2), (1, 2)])) == 1

    def test_transitive_chain(self):
        assert count_components(matrix_from_edges(3, [(0, 1), (1, 2)])) == 1

    def test_k1(self):
        assert count_components(matrix_from_edges(1, [])) == 1

    def test_path_graph(self):
        # the longest chain a component can have: k - 1 steps from end to end, in a shuffled node order
        rng = np.random.default_rng(98)
        for k in range(1, 65):
            order = rng.permutation(k)
            m = matrix_from_edges(k, zip(order, order[1:]))
            assert count_components(m) == dfs_component_count(m.entries) == 1, k

    def test_against_dfs_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            k = int(rng.integers(1, 41))
            upper = np.triu(rng.random((k, k)) < rng.uniform(0.0, 3.0 / k), 1)
            m = (upper | upper.T | np.eye(k, dtype=bool)).astype(np.int8)
            assert count_components(MergeMatrix(k=k, entries=m)) == dfs_component_count(m)


class TestMergeMatrixType:
    def test_rejects_asymmetry(self):
        m = np.eye(2, dtype=np.int8)
        m[0, 1] = 1
        with pytest.raises(ValueError):
            MergeMatrix(k=2, entries=m)

    def test_diagonal_forced_to_one(self):
        m = np.zeros((2, 2), dtype=np.int8)
        mm = MergeMatrix(k=2, entries=m)
        assert mm.entries[0, 0] == 1 and mm.entries[1, 1] == 1


class TestCompare:
    def test_m_dominates(self):
        assert compare(VqmScore(1, 2), VqmScore(2, 2)) == "<"

    def test_k_breaks_ties(self):
        assert compare(VqmScore(1, 1), VqmScore(1, 2)) == "<"

    def test_equal(self):
        assert compare(VqmScore(2, 3), VqmScore(2, 3)) == "="

    def test_total_order_exhaustive(self):
        scores = [VqmScore(m, k) for k in range(1, 11) for m in range(1, k + 1)]
        for a, b in itertools.product(scores, repeat=2):
            ab, ba = compare(a, b), compare(b, a)
            assert {"<": ">", ">": "<", "=": "="}[ab] == ba  # antisymmetry
        for a, b, c in itertools.permutations(scores[:12], 3):
            if compare(a, b) == "<" and compare(b, c) == "<":
                assert compare(a, c) == "<"


class TestScalarScore:
    def test_simplest_score(self):
        assert scalar_score(VqmScore(1, 1)) == 1.0

    def test_fractional_part(self):
        assert scalar_score(VqmScore(1, 2)) == pytest.approx(1 + 1 / 3, abs=1e-12)

    def test_order_embedding_exhaustive(self):
        scores = [VqmScore(m, k) for k in range(1, 11) for m in range(1, k + 1)]
        for a, b in itertools.product(scores, repeat=2):
            rel = compare(a, b)
            sa, sb = scalar_score(a), scalar_score(b)
            if rel == "<":
                assert sa < sb
            elif rel == ">":
                assert sa > sb
            else:
                assert sa == sb

    def test_integer_part_is_m(self):
        for k in range(1, 11):
            for m in range(1, k + 1):
                assert int(scalar_score(VqmScore(m, k))) == m


class TestRank:
    def test_ascending_example(self):
        scores = [("a", VqmScore(1, 1)), ("b", VqmScore(2, 2)), ("c", VqmScore(1, 3))]
        assert [i for i, _ in rank(scores, ascending=True)] == ["a", "c", "b"]

    def test_descending_default(self):
        scores = [("a", VqmScore(1, 1)), ("b", VqmScore(2, 2)), ("c", VqmScore(1, 3))]
        assert [i for i, _ in rank(scores)] == ["b", "c", "a"]

    def test_ties_keep_input_order(self):
        scores = [(n, VqmScore(1, 2)) for n in "abcd"]
        assert [i for i, _ in rank(scores)] == list("abcd")
        assert [i for i, _ in rank(scores, ascending=True)] == list("abcd")

    def test_input_reversal_same_ranking(self):
        scores = [("a", VqmScore(1, 1)), ("b", VqmScore(2, 2)), ("c", VqmScore(3, 3))]
        assert [i for i, _ in rank(scores)] == [i for i, _ in rank(scores[::-1])]


def isotropic_model(*components) -> MixtureModel:
    """The mixture of isotropic (weight, x, y[, variance]) components."""
    weights, means, covs = [], [], []
    for weight, x, y, *var in components:
        var = var[0] if var else 1.0
        weights.append(weight)
        means.append((x, y))
        covs.append((var, 0.0, var))
    return MixtureModel(weights, means, covs, log_likelihood=0.0, n_points=1)


class TestBuildMergeMatrix:
    def test_single_component(self, trained_merger):
        mm = build_merge_matrix(isotropic_model((1.0, 0.0, 0.0)), trained_merger)
        assert mm.k == 1
        assert count_components(mm) == 1

    def test_far_pair_not_merged(self, trained_merger):
        model = isotropic_model((0.5, 0.0, 0.0), (0.5, 0.0, 21.0))
        mm = build_merge_matrix(model, trained_merger)
        assert mm.entries[0, 1] == 0

    def test_coincident_pair_merged(self, trained_merger):
        model = isotropic_model((0.5, 1.0, 1.0), (0.5, 1.0, 1.0))
        mm = build_merge_matrix(model, trained_merger)
        assert mm.entries[0, 1] == 1

    def test_component_permutation_invariance(self, trained_merger):
        comps = ((0.3, 0.0, 0.0), (0.3, 0.0, 1.2), (0.4, 10.0, 0.0, 2.0))
        base = build_merge_matrix(isotropic_model(*comps), trained_merger)
        perm = [2, 0, 1]
        permuted_model = isotropic_model(*(comps[i] for i in perm))
        permuted = build_merge_matrix(permuted_model, trained_merger)
        for a in range(3):
            for b in range(3):
                assert permuted.entries[a, b] == base.entries[perm[a], perm[b]]
        assert count_components(base) == count_components(permuted)


def reference_pair_row(model, u, v) -> list[float]:
    """The aligned row of the pair (u, v), one pair at a time: both covariances decomposed, the pair turned
    by the angle that puts the direction from mean u to mean v on the positive y-axis, and mu and the
    sigmas divided by their maximum."""
    weights, means, covs = model.weights.tolist(), model.means.tolist(), model.covs.tolist()
    su, sv = decompose_covariance(covs[u]), decompose_covariance(covs[v])
    dx, dy = means[v][0] - means[u][0], means[v][1] - means[u][1]
    mu = math.hypot(dx, dy)
    beta = 0.0 if mu < 1e-12 else HALF_PI - math.atan2(dy, dx)
    s = max(mu, su.sigma_x, su.sigma_y, sv.sigma_x, sv.sigma_y)
    return [weights[u] / (weights[u] + weights[v]), mu / s, su.sigma_x / s, su.sigma_y / s, sv.sigma_x / s,
            sv.sigma_y / s, wrap_angle(su.theta + beta), wrap_angle(sv.theta + beta)]


def reference_merges(model, merger) -> tuple[np.ndarray, dict]:
    """The merge matrix and each pair's vote share from one ``predict`` per pair."""
    entries = np.eye(model.k, dtype=np.int8)
    shares = {}
    for u in range(model.k):
        for v in range(u + 1, model.k):
            h, frac = predict(merger, np.array([reference_pair_row(model, u, v)]))
            entries[u, v] = entries[v, u] = h[0]
            shares[u, v] = float(frac[0])
    return entries, shares


# (blobs, points, seed) of blob plots whose selected K* run from 1 to 6
ORACLE_PLOTS = [(1, 200, 2000), (2, 200, 2000)] + [(6, 300, seed) for seed in range(2000, 2010)]


@pytest.fixture(scope="module")
def oracle_models():
    config = FitConfig(k_max=7, n_restarts=2, seed=0)
    return [select_model(blob_plot(*plot), config).model for plot in ORACLE_PLOTS]


@pytest.fixture(scope="module")
def full_pipeline_merger():
    """A merging model with every preprocessing step, PCA's matrix product among them."""
    model, _ = train_bagged(separation_rule_pairs(1500, seed=43), TrainConfig(n_trees=15, seed=7))
    return model


class TestBatchedMergeMatrix:
    """One prediction over all of a plot's pairs gives each pair the vote share of a one-row prediction."""

    @pytest.mark.parametrize("merger_name", ["trained_merger", "full_pipeline_merger"])
    def test_every_share_equals_the_per_pair_share(self, request, oracle_models, merger_name):
        merger = request.getfixturevalue(merger_name)
        assert sorted({m.k for m in oracle_models}) == [1, 2, 3, 4, 5, 6]
        for model in oracle_models:
            entries, shares = reference_merges(model, merger)
            u, v = np.triu_indices(model.k, 1)
            batch = predict(merger, aligned_pair_from_model(model, u, v))[1]
            assert batch.tolist() == [shares[pair] for pair in zip(u.tolist(), v.tolist())]
            assert np.array_equal(build_merge_matrix(model, merger).entries, entries)

    def test_one_prediction_per_plot_and_none_for_one_component(self, monkeypatch, trained_merger, oracle_models):
        calls = []
        monkeypatch.setattr(vqm, "predict", lambda merger, X: calls.append(len(X)) or predict(merger, X))
        for model in oracle_models:
            matrix = build_merge_matrix(model, trained_merger)
            if model.k == 1:
                assert matrix.entries.tolist() == [[1]]
        assert calls == [m.k * (m.k - 1) // 2 for m in oracle_models if m.k > 1]


class TestScoreScatterplot:
    def test_single_blob_scores_one_one(self, trained_merger):
        hits = 0
        for seed in range(15):
            sp = gaussian_blob(400, [0.0, 0.0], seed=seed)
            if score_scatterplot(sp, FIT_CFG, trained_merger) == VqmScore(1, 1):
                hits += 1
        assert hits >= 13

    def test_two_far_blobs_score_two_two(self, trained_merger):
        hits = 0
        for seed in range(15):
            sp = two_blob_plot(200, 21.0, seed=seed)
            if score_scatterplot(sp, FIT_CFG, trained_merger) == VqmScore(2, 2):
                hits += 1
        assert hits >= 13

    def test_overlapping_blobs_merge_to_one(self, trained_merger):
        for seed in range(10):
            sp = two_blob_plot(250, 1.0, seed=seed)
            score = score_scatterplot(sp, FIT_CFG, trained_merger)
            assert score.m == 1

    def test_m_bounded_by_k_star(self, trained_merger):
        rng = np.random.default_rng(55)
        for seed in range(10):
            sep = float(rng.uniform(0, 12))
            sp = two_blob_plot(150, sep, seed=seed)
            score = score_scatterplot(sp, FIT_CFG, trained_merger)
            assert 1 <= score.m <= score.k_star


class TestScoresCsv:
    def test_roundtrip(self, tmp_path):
        scores = [("a", VqmScore(1, 2)), ("b", VqmScore(3, 4))]
        path = tmp_path / "scores.csv"
        write_scores_csv(path, scores)
        assert read_scores_csv(path) == scores

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            read_scores_csv(path)
