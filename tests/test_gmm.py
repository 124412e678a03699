import math

import numpy as np
import pytest

from scatterscore.gmm import (
    Covariance2,
    DegenerateCovarianceError,
    FitConfig,
    GaussianComponent,
    MixtureModel,
    Point2D,
    Scatterplot,
    bic_value,
    fit_em,
    fit_em_with_trace,
    gaussian_density,
    map_assign,
    mixture_density,
    mixture_pdf,
    read_scatterplot_csv,
    select_model,
    write_scatterplot_csv,
)

from conftest import gaussian_blob, two_blob_plot

IDENTITY = Covariance2(1.0, 0.0, 1.0)


def single_gaussian_model(mean=(0.0, 0.0), cov=IDENTITY):
    return MixtureModel(
        components=(GaussianComponent(1.0, Point2D(*mean), cov),),
        log_likelihood=0.0,
        n_points=1,
    )


class TestGaussianDensity:
    def test_standard_normal_at_mean(self):
        assert gaussian_density((0, 0), (0, 0), IDENTITY) == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)

    def test_determinant_scaling(self):
        val = gaussian_density((0, 0), (0, 0), Covariance2(4.0, 0.0, 1.0))
        assert val == pytest.approx(1.0 / (2 * math.pi * 2.0), abs=1e-12)

    def test_point_symmetry_about_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mx, my, ax, ay = rng.normal(size=4)
            cov = Covariance2(2.0, 0.7, 1.5)
            d1 = gaussian_density((ax, ay), (mx, my), cov)
            d2 = gaussian_density((2 * mx - ax, 2 * my - ay), (mx, my), cov)
            assert d1 == pytest.approx(d2, rel=1e-12)

    def test_singular_covariance_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            gaussian_density((0, 0), (0, 0), Covariance2(1.0, 1.0, 1.0))


class TestMixtureDensity:
    def test_single_component_reduction(self):
        model = single_gaussian_model((0.5, -1.0), Covariance2(2.0, 0.3, 1.0))
        p = (0.2, 0.4)
        assert mixture_density(model, p) == pytest.approx(
            gaussian_density(p, (0.5, -1.0), Covariance2(2.0, 0.3, 1.0)), rel=1e-12
        )

    def test_convexity_identity(self):
        cov = Covariance2(1.5, -0.2, 0.8)
        comp = GaussianComponent(0.5, Point2D(1.0, 2.0), cov)
        two = MixtureModel(components=(comp, comp), log_likelihood=0.0, n_points=1)
        one = single_gaussian_model((1.0, 2.0), cov)
        assert mixture_density(two, (0.0, 0.0)) == pytest.approx(
            mixture_density(one, (0.0, 0.0)), rel=1e-12
        )

    def test_component_permutation_invariance(self):
        c1 = GaussianComponent(0.3, Point2D(0.0, 0.0), IDENTITY)
        c2 = GaussianComponent(0.7, Point2D(3.0, 1.0), Covariance2(2.0, 0.5, 1.0))
        a = MixtureModel(components=(c1, c2), log_likelihood=0.0, n_points=1)
        b = MixtureModel(components=(c2, c1), log_likelihood=0.0, n_points=1)
        pts = np.random.default_rng(1).normal(size=(20, 2))
        for p in pts:
            assert mixture_density(a, p) == pytest.approx(mixture_density(b, p), rel=1e-12)


def quadrature_of_mixture(model, half_width=8.0, n_cells=400):
    """Midpoint-rule integral of the mixture over a box covering all components."""
    stds = [math.sqrt(max(c.cov.xx, c.cov.yy)) for c in model.components]
    xs = [c.mean.x for c in model.components]
    ys = [c.mean.y for c in model.components]
    pad = half_width * max(stds)
    x = np.linspace(min(xs) - pad, max(xs) + pad, n_cells + 1)
    y = np.linspace(min(ys) - pad, max(ys) + pad, n_cells + 1)
    cx = 0.5 * (x[:-1] + x[1:])
    cy = 0.5 * (y[:-1] + y[1:])
    gx, gy = np.meshgrid(cx, cy)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    cell = (x[1] - x[0]) * (y[1] - y[0])
    return float(mixture_pdf(model, grid).sum() * cell)


def test_mixture_quadrature_normalizes():
    c1 = GaussianComponent(0.4, Point2D(-1.0, 0.5), Covariance2(1.2, 0.4, 0.9))
    c2 = GaussianComponent(0.6, Point2D(4.0, -2.0), Covariance2(0.5, -0.1, 2.0))
    model = MixtureModel(components=(c1, c2), log_likelihood=0.0, n_points=1)
    assert quadrature_of_mixture(model) == pytest.approx(1.0, abs=1e-3)


class TestMapAssign:
    def test_point_at_first_mean(self):
        model = MixtureModel(
            components=(
                GaussianComponent(0.5, Point2D(0.0, 0.0), IDENTITY),
                GaussianComponent(0.5, Point2D(50.0, 0.0), IDENTITY),
            ),
            log_likelihood=0.0,
            n_points=1,
        )
        assert map_assign(model, (0.0, 0.0)) == 0
        assert map_assign(model, (50.0, 0.0)) == 1

    def test_equal_components_tie_to_lowest(self):
        comp = GaussianComponent(0.5, Point2D(0.0, 0.0), IDENTITY)
        model = MixtureModel(components=(comp, comp), log_likelihood=0.0, n_points=1)
        assert map_assign(model, (1.3, -0.7)) == 0

    def test_perpendicular_bisector_tie(self):
        model = MixtureModel(
            components=(
                GaussianComponent(0.5, Point2D(0.0, 0.0), IDENTITY),
                GaussianComponent(0.5, Point2D(2.0, 0.0), IDENTITY),
            ),
            log_likelihood=0.0,
            n_points=1,
        )
        # both posteriors evaluate bit-identically on the bisector x = 1
        p1 = 0.5 * gaussian_density((1.0, 0.7), (0.0, 0.0), IDENTITY)
        p2 = 0.5 * gaussian_density((1.0, 0.7), (2.0, 0.0), IDENTITY)
        assert p1 == p2
        assert map_assign(model, (1.0, 0.7)) == 0


class TestFitEm:
    def test_k1_matches_closed_form_mle(self):
        sp = gaussian_blob(300, [2.0, -1.0], seed=3)
        cfg = FitConfig(k_max=1, n_restarts=1, regularization=0.0, seed=0)
        model = fit_em(sp, 1, cfg)
        X = sp.points
        assert model.components[0].weight == pytest.approx(1.0, abs=1e-12)
        assert model.components[0].mean.x == pytest.approx(X[:, 0].mean(), abs=1e-9)
        assert model.components[0].mean.y == pytest.approx(X[:, 1].mean(), abs=1e-9)
        d = X - X.mean(axis=0)
        assert model.components[0].cov.xx == pytest.approx((d[:, 0] ** 2).mean(), abs=1e-9)
        assert model.components[0].cov.xy == pytest.approx((d[:, 0] * d[:, 1]).mean(), abs=1e-9)
        assert model.components[0].cov.yy == pytest.approx((d[:, 1] ** 2).mean(), abs=1e-9)

    def test_fitted_mean_within_standard_error(self):
        n = 500
        for seed in range(5):
            sp = gaussian_blob(n, [1.0, 3.0], seed=seed)
            model = fit_em(sp, 1, FitConfig(n_restarts=1, seed=seed, regularization=0.0))
            se = 1.0 / math.sqrt(n)
            assert abs(model.components[0].mean.x - 1.0) < 5 * se
            assert abs(model.components[0].mean.y - 3.0) < 5 * se

    def test_two_separated_clusters_recovered(self):
        sp = two_blob_plot(250, 20.0, seed=5)
        model = fit_em(sp, 2, FitConfig(n_restarts=3, seed=2))
        means = sorted((c.mean.y for c in model.components))
        assert abs(means[0] - 0.0) < 0.5
        assert abs(means[1] - 20.0) < 0.5

    def test_more_components_than_points_rejected(self):
        sp = Scatterplot(points=[[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            fit_em(sp, 3, FitConfig())

    def test_identical_points_without_regularization_degenerate(self):
        sp = Scatterplot(points=[[1.0, 1.0]] * 20)
        with pytest.raises(DegenerateCovarianceError):
            fit_em(sp, 1, FitConfig(regularization=0.0, n_restarts=2))

    def test_loglik_monotone_per_restart(self):
        cfg = FitConfig(n_restarts=3, seed=9, regularization=0.0, em_tolerance=1e-10, max_iterations=80)
        for seed in range(10):
            sp = two_blob_plot(120, 4.0, seed=seed)
            _, traces = fit_em_with_trace(sp, 2, cfg)
            for trace in traces:
                assert np.all(np.diff(trace) >= -1e-9)

    def test_determinism(self):
        sp = two_blob_plot(100, 6.0, seed=1)
        cfg = FitConfig(n_restarts=3, seed=13)
        a = fit_em(sp, 2, cfg)
        b = fit_em(sp, 2, cfg)
        assert a == b

    def test_translation_equivariance(self):
        sp = two_blob_plot(150, 5.0, seed=8)
        shifted = Scatterplot(points=sp.points + np.array([100.0, -40.0]))
        cfg = FitConfig(n_restarts=2, seed=4)
        a = fit_em(sp, 2, cfg)
        b = fit_em(shifted, 2, cfg)
        for ca, cb in zip(a.components, b.components):
            assert cb.mean.x - ca.mean.x == pytest.approx(100.0, abs=1e-4)
            assert cb.mean.y - ca.mean.y == pytest.approx(-40.0, abs=1e-4)


class TestBic:
    def test_component_count_mode(self):
        assert bic_value(-100.0, 2, 100, "component_count") == pytest.approx(
            -200.0 - 2 * math.log(100), abs=1e-9
        )

    def test_free_parameter_mode(self):
        assert bic_value(-100.0, 2, 100, "free_parameter_count") == pytest.approx(
            -200.0 - 11 * math.log(100), abs=1e-9
        )

    def test_values_from_spec_examples(self):
        assert bic_value(-100.0, 2, 100, "component_count") == pytest.approx(-209.2103, abs=1e-4)
        assert bic_value(-100.0, 2, 100, "free_parameter_count") == pytest.approx(-250.656, abs=1e-3)


class TestSelectModel:
    CFG = FitConfig(k_max=3, n_restarts=2, seed=0, em_tolerance=1e-6, max_iterations=200)

    def test_single_blob_prefers_one_component(self):
        hits = 0
        for seed in range(20):
            sp = gaussian_blob(400, [0.0, 0.0], seed=seed)
            if select_model(sp, self.CFG).k_star == 1:
                hits += 1
        assert hits >= 18

    def test_two_far_blobs_prefer_two_components(self):
        hits = 0
        for seed in range(20):
            sp = two_blob_plot(200, 21.0, seed=seed)
            if select_model(sp, self.CFG).k_star == 2:
                hits += 1
        assert hits >= 18

    def test_k_star_consistency(self):
        sp = two_blob_plot(150, 10.0, seed=0)
        res = select_model(sp, self.CFG)
        best_k = max(res.per_k_bic, key=lambda kb: kb[1])[0]
        assert res.k_star == best_k == res.model.k
        assert res.bic == dict(res.per_k_bic)[res.k_star]

    def test_unfittable_k_recorded_as_warning(self):
        sp = Scatterplot(points=np.random.default_rng(0).normal(size=(3, 2)))
        res = select_model(sp, FitConfig(k_max=5, n_restarts=1, seed=0))
        assert any("skipped" in w for w in res.warnings)
        assert all(k <= 3 for k, _ in res.per_k_bic)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            select_model(Scatterplot(points=[[0.0, 0.0]]), FitConfig())


class TestIo:
    def test_csv_roundtrip_with_header(self, tmp_path):
        sp = gaussian_blob(30, [0.0, 0.0], seed=0)
        path = tmp_path / "pts.csv"
        write_scatterplot_csv(path, sp)
        back = read_scatterplot_csv(path)
        assert back.n == 30
        assert np.allclose(back.points, sp.points, atol=1e-7)

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n3.5,-1.25\n")
        sp = read_scatterplot_csv(path)
        assert sp.n == 2
        assert sp.points[1, 1] == -1.25

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(ValueError, match="row 3"):
            read_scatterplot_csv(path)
