import math

import numpy as np
import pytest

from scatterscore.preprocess import (
    FittedPreprocess,
    PreprocessSpec,
    fit_box_cox_lambda,
    fit_preprocess,
)


class TestSpec:
    def test_rejects_out_of_order_steps(self):
        with pytest.raises(ValueError):
            PreprocessSpec(steps=("box_cox", "center_scale"))

    def test_rejects_pca_without_center_scale(self):
        with pytest.raises(ValueError):
            PreprocessSpec(steps=("pca",))

    def test_rejects_unknown_step(self):
        with pytest.raises(ValueError):
            PreprocessSpec(steps=("whiten",))

    def test_none_and_all(self):
        assert PreprocessSpec(steps=()).steps == ()
        assert PreprocessSpec().steps == ("center_scale", "box_cox", "pca", "spatial_sign")


class TestCenterScale:
    def test_constant_feature_passes_through(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        fitted = fit_preprocess(X, PreprocessSpec(steps=("center_scale",)))
        out = fitted.apply_matrix(X)
        assert np.allclose(out[:, 0], 0.0)  # centered, scale guard 1
        assert out[:, 1].std() == pytest.approx(1.0, abs=1e-12)

    def test_identity_spec_unchanged(self):
        X = np.random.default_rng(0).normal(size=(20, 4))
        fitted = fit_preprocess(X, PreprocessSpec(steps=()))
        assert np.array_equal(fitted.apply_matrix(X), X)


class TestBoxCox:
    def test_skipped_for_non_positive_feature(self):
        X = np.column_stack([np.linspace(0.0, 5.0, 30), np.linspace(1.0, 5.0, 30)])
        fitted = fit_preprocess(X, PreprocessSpec(steps=("box_cox",)))
        assert fitted.boxcox_lambdas[0] is None
        assert fitted.boxcox_lambdas[1] is not None

    def test_grid_argmax_matches_direct_search(self):
        rng = np.random.default_rng(2)
        y = np.exp(rng.normal(size=400))  # lognormal: best lambda near 0

        def loglik(lam):
            yt = np.log(y) if abs(lam) < 1e-12 else (y**lam - 1.0) / lam
            return -0.5 * len(y) * math.log(yt.var()) + (lam - 1.0) * np.log(y).sum()

        grid = np.round(np.arange(-20, 21) * 0.1, 10)
        expect = grid[int(np.argmax([loglik(l) for l in grid]))]
        assert fit_box_cox_lambda(y) == pytest.approx(expect)
        assert abs(fit_box_cox_lambda(y)) <= 0.2

    def test_applied_after_centering_noops(self):
        X = np.random.default_rng(1).normal(size=(50, 3))
        fitted = fit_preprocess(X, PreprocessSpec(steps=("center_scale", "box_cox")))
        assert all(lam is None for lam in fitted.boxcox_lambdas)


class TestPca:
    def test_orthonormal_basis_preserves_distances(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 5))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        fitted = fit_preprocess(X, PreprocessSpec(steps=("center_scale", "pca"), pca_variance_threshold=1.0))
        basis = fitted.pca_basis
        assert basis.shape == (5, 5)
        assert np.allclose(basis.T @ basis, np.eye(5), atol=1e-9)
        out = fitted.apply_matrix(X)
        for i in range(0, 100, 17):
            for j in range(0, 100, 23):
                d_in = np.linalg.norm(X[i] - X[j])
                # distances to the fitted mean-centered cloud are preserved
                d_out = np.linalg.norm(out[i] - out[j])
                assert d_out == pytest.approx(d_in, abs=1e-9)

    def test_threshold_drops_low_variance_directions(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(200, 2))
        X = np.column_stack([base[:, 0], base[:, 1], base[:, 0] + 1e-6 * rng.normal(size=200)])
        fitted = fit_preprocess(X, PreprocessSpec(steps=("center_scale", "pca"), pca_variance_threshold=0.95))
        assert fitted.output_dim == 2

    def test_deterministic(self):
        X = np.random.default_rng(5).normal(size=(60, 4))
        a = fit_preprocess(X, PreprocessSpec(steps=("center_scale", "pca")))
        b = fit_preprocess(X, PreprocessSpec(steps=("center_scale", "pca")))
        assert np.array_equal(a.pca_basis, b.pca_basis)


class TestSpatialSign:
    def test_unit_norm(self):
        fitted = fit_preprocess(np.ones((2, 2)), PreprocessSpec(steps=("spatial_sign",)))
        out = fitted.apply_matrix([3.0, 4.0])
        assert np.allclose(out, [0.6, 0.8], atol=1e-12)

    def test_zero_row_unchanged(self):
        fitted = fit_preprocess(np.ones((2, 2)), PreprocessSpec(steps=("spatial_sign",)))
        out = fitted.apply_matrix([0.0, 0.0])
        assert np.array_equal(out, [0.0, 0.0])


class TestApply:
    def test_dimension_mismatch_rejected(self):
        fitted = fit_preprocess(np.ones((3, 2)), PreprocessSpec(steps=("center_scale",)))
        with pytest.raises(ValueError):
            fitted.apply_matrix([1.0, 2.0, 3.0])

    def test_repeated_application_identical(self):
        X = np.random.default_rng(6).normal(size=(40, 8)) + 2.0
        fitted = fit_preprocess(X, PreprocessSpec())
        row = X[7]
        a = fitted.apply_matrix(row)
        b = fitted.apply_matrix(row)
        assert np.array_equal(a, b)

    def test_needs_two_rows_to_fit(self):
        with pytest.raises(ValueError):
            fit_preprocess(np.ones((1, 2)), PreprocessSpec(steps=()))

    def test_serialization_roundtrip(self):
        X = np.random.default_rng(7).normal(size=(50, 6)) + 3.0
        fitted = fit_preprocess(X, PreprocessSpec())
        back = FittedPreprocess.from_dict(fitted.to_dict())
        assert np.array_equal(back.apply_matrix(X), fitted.apply_matrix(X))
