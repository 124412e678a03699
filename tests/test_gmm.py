import math

import numpy as np
import pytest

from scatterscore import gmm
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
    mixture_pdf,
    read_scatterplot_csv,
    select_model,
    write_scatterplot_csv,
)
from scatterscore.util import spawn_rng

from conftest import gaussian_blob, two_blob_plot

IDENTITY = Covariance2(1.0, 0.0, 1.0)


def gaussian_density(point, mean, cov: Covariance2) -> float:
    """Scalar reference for one component's density, independent of the package:
    det(2*pi*Sigma)^(-1/2) * exp(-1/2 (x-mu)^T Sigma^-1 (x-mu))."""
    det = cov.det
    dx = float(point[0]) - float(mean[0])
    dy = float(point[1]) - float(mean[1])
    quad = (cov.yy * dx * dx - 2.0 * cov.xy * dx * dy + cov.xx * dy * dy) / det
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def density(model, point) -> float:
    return float(mixture_pdf(model, np.asarray(point, dtype=float).reshape(1, 2))[0])


def kernel_log_joint(x, y, weights, means, covs):
    """``gmm._log_joint`` of the points centred on ``means`` in a fresh buffer."""
    buf = np.empty((4, len(weights), x.shape[0]))
    gmm._centre(x, y, np.asarray(means, dtype=float), buf)
    return gmm._log_joint(weights, covs, buf)


def map_component(model, point) -> int:
    """Component with the largest log(pi_k) + log g_k at ``point``, from the
    kernel that the E-step and ``mixture_pdf`` share; ties go to the lowest index."""
    comps = model.components
    logp = kernel_log_joint(
        np.array([float(point[0])]),
        np.array([float(point[1])]),
        [c.weight for c in comps],
        [c.mean for c in comps],
        [(c.cov.xx, c.cov.xy, c.cov.yy) for c in comps],
    )
    return int(np.argmax(logp[:, 0]))


def single_gaussian_model(mean=(0.0, 0.0), cov=IDENTITY):
    return MixtureModel(
        components=(GaussianComponent(1.0, Point2D(*mean), cov),),
        log_likelihood=0.0,
        n_points=1,
    )


class TestGaussianDensity:
    """One-component ``mixture_pdf`` against closed forms and the scalar reference."""

    def test_standard_normal_at_mean(self):
        assert density(single_gaussian_model(), (0, 0)) == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)

    def test_determinant_scaling(self):
        val = density(single_gaussian_model(cov=Covariance2(4.0, 0.0, 1.0)), (0, 0))
        assert val == pytest.approx(1.0 / (2 * math.pi * 2.0), abs=1e-12)

    def test_point_symmetry_about_mean(self):
        rng = np.random.default_rng(0)
        cov = Covariance2(2.0, 0.7, 1.5)
        for _ in range(50):
            mx, my, ax, ay = rng.normal(size=4)
            model = single_gaussian_model((mx, my), cov)
            d1, d2 = mixture_pdf(model, [(ax, ay), (2 * mx - ax, 2 * my - ay)])
            assert d1 == pytest.approx(d2, rel=1e-12)
            assert d1 == pytest.approx(gaussian_density((ax, ay), (mx, my), cov), rel=1e-12)

    def test_singular_covariance_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            mixture_pdf(single_gaussian_model(cov=Covariance2(1.0, 1.0, 1.0)), [(0.0, 0.0)])


class TestMixtureDensity:
    def test_single_component_reduction(self):
        model = single_gaussian_model((0.5, -1.0), Covariance2(2.0, 0.3, 1.0))
        p = (0.2, 0.4)
        assert density(model, p) == pytest.approx(
            gaussian_density(p, (0.5, -1.0), Covariance2(2.0, 0.3, 1.0)), rel=1e-12
        )

    def test_convexity_identity(self):
        cov = Covariance2(1.5, -0.2, 0.8)
        comp = GaussianComponent(0.5, Point2D(1.0, 2.0), cov)
        two = MixtureModel(components=(comp, comp), log_likelihood=0.0, n_points=1)
        one = single_gaussian_model((1.0, 2.0), cov)
        assert density(two, (0.0, 0.0)) == pytest.approx(density(one, (0.0, 0.0)), rel=1e-12)

    def test_component_permutation_invariance(self):
        c1 = GaussianComponent(0.3, Point2D(0.0, 0.0), IDENTITY)
        c2 = GaussianComponent(0.7, Point2D(3.0, 1.0), Covariance2(2.0, 0.5, 1.0))
        a = MixtureModel(components=(c1, c2), log_likelihood=0.0, n_points=1)
        b = MixtureModel(components=(c2, c1), log_likelihood=0.0, n_points=1)
        pts = np.random.default_rng(1).normal(size=(20, 2))
        np.testing.assert_allclose(mixture_pdf(a, pts), mixture_pdf(b, pts), rtol=1e-12)
        expected = [sum(c.weight * gaussian_density(p, c.mean, c.cov) for c in (c1, c2)) for p in pts]
        np.testing.assert_allclose(mixture_pdf(a, pts), expected, rtol=1e-12)


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
        assert map_component(model, (0.0, 0.0)) == 0
        assert map_component(model, (50.0, 0.0)) == 1

    def test_equal_components_tie_to_lowest(self):
        comp = GaussianComponent(0.5, Point2D(0.0, 0.0), IDENTITY)
        model = MixtureModel(components=(comp, comp), log_likelihood=0.0, n_points=1)
        assert map_component(model, (1.3, -0.7)) == 0

    def test_perpendicular_bisector_tie(self):
        model = MixtureModel(
            components=(
                GaussianComponent(0.5, Point2D(0.0, 0.0), IDENTITY),
                GaussianComponent(0.5, Point2D(2.0, 0.0), IDENTITY),
            ),
            log_likelihood=0.0,
            n_points=1,
        )
        # both components evaluate bit-identically on the bisector x = 1
        p1 = 0.5 * gaussian_density((1.0, 0.7), (0.0, 0.0), IDENTITY)
        p2 = 0.5 * gaussian_density((1.0, 0.7), (2.0, 0.0), IDENTITY)
        assert p1 == p2
        logp = kernel_log_joint(np.array([1.0]), np.array([0.7]), [0.5, 0.5], [(0.0, 0.0), (2.0, 0.0)],
                                [(1.0, 0.0, 1.0)] * 2)
        assert logp[0, 0] == logp[1, 0]
        assert map_component(model, (1.0, 0.7)) == 0


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

    def test_loglik_counts_every_repeated_point(self):
        X = np.round(np.random.default_rng(4).normal(size=(400, 2)) * 3.0) / 3.0
        assert len(np.unique(X, axis=0)) < len(X) / 2
        model = fit_em(Scatterplot(points=X), 3, FitConfig(n_restarts=2, seed=1))
        assert model.log_likelihood == pytest.approx(np.log(mixture_pdf(model, X)).sum(), rel=1e-9)

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


# ---------------------------------------------------------------------------
# Bit identity of the (K, n) EM kernel with per-component reference loops


def reference_component_log_pdf(x, y, mean, xx, xy, yy):
    det = xx * yy - xy * xy
    if not (det > 0.0 and np.isfinite(det)):
        raise DegenerateCovarianceError(f"covariance is singular (det={det})")
    d0 = x - mean[0]
    d1 = y - mean[1]
    lp = (-0.5 * yy / det * d0 + xy / det * d1) * d0
    lp -= 0.5 * xx / det * d1 * d1
    lp -= 0.5 * math.log(det) + gmm.LOG_2PI
    return lp


def reference_log_joint(x, y, weights, means, covs):
    logp = np.empty((len(weights), x.shape[0]))
    for j in range(len(weights)):
        logp[j] = math.log(weights[j]) + reference_component_log_pdf(x, y, means[j], *covs[j])
    return logp


def reference_e_step(x, y, w, weights, means, covs):
    logp = reference_log_joint(x, y, weights, means, covs)
    m = logp.max(axis=0)
    p = np.exp(logp - m)
    total = p.sum(axis=0)
    p /= total
    return p, float((w * (m + np.log(total))).sum())


def reference_m_step(x, y, w, n_points, resp, reg):
    k = resp.shape[0]
    rw = resp * w
    nk = rw.sum(axis=1)
    if np.any(nk < 1e-10):
        raise gmm._FitFailure("a component lost all responsibility")
    weights = nk / n_points
    means = np.column_stack([rw @ x, rw @ y]) / nk[:, None]
    covs = np.empty((k, 3))
    for j in range(k):
        d0 = x - means[j, 0]
        d1 = y - means[j, 1]
        rd0 = rw[j] * d0
        covs[j, 0] = rd0 @ d0 / nk[j] + reg
        covs[j, 1] = rd0 @ d1 / nk[j]
        covs[j, 2] = (rw[j] * d1) @ d1 / nk[j] + reg
        if covs[j, 0] * covs[j, 2] - covs[j, 1] ** 2 <= 0.0:
            raise gmm._FitFailure("covariance collapsed to a singular matrix")
    return weights, means, covs


def reference_run_em(X, grouped, k, config, reg, restart):
    rng = spawn_rng(config.seed, "em", k, restart)
    means = gmm._kmeanspp_means(X, k, rng)
    pooled = gmm._pooled_covariance(X)
    cov0 = np.array([pooled[0, 0] + reg, pooled[0, 1], pooled[1, 1] + reg])
    if cov0[0] * cov0[2] - cov0[1] ** 2 <= 0.0:
        raise gmm._FitFailure("initial pooled covariance is singular")
    covs = np.tile(cov0, (k, 1))
    weights = np.full(k, 1.0 / k)
    trace = []
    prev = None
    for _ in range(config.max_iterations):
        resp, loglik = reference_e_step(*grouped, weights, means, covs)
        trace.append(loglik)
        if prev is not None and loglik - prev <= config.em_tolerance * max(1.0, abs(prev)):
            return weights, means, covs, loglik, np.array(trace)
        prev = loglik
        weights, means, covs = reference_m_step(*grouped, X.shape[0], resp, reg)
    _, loglik = reference_e_step(*grouped, weights, means, covs)
    trace.append(loglik)
    return weights, means, covs, loglik, np.array(trace)


def em_outcome(run_em, X, k, config, restart):
    """The bytes of one EM run's results, or its exception's type and message."""
    distinct, counts = np.unique(X, axis=0, return_counts=True)
    x, y = np.ascontiguousarray(distinct.T)
    try:
        result = run_em(X, (x, y, counts.astype(float)), k, config, gmm._effective_regularization(X, config),
                        restart)
    except (gmm._FitFailure, DegenerateCovarianceError) as exc:
        return type(exc), str(exc)
    return tuple(np.asarray(v, dtype=float).tobytes() for v in result)


def fit_outcome(sp, k, config):
    try:
        model, traces = fit_em_with_trace(sp, k, config)
    except DegenerateCovarianceError as exc:
        return str(exc)
    return model, [t.tobytes() for t in traces]


def blob_plot(n_blobs, n, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-8.0, 8.0, size=(n_blobs, 2))
    return Scatterplot(points=centers[rng.integers(n_blobs, size=n)] + rng.normal(size=(n, 2)))


KERNEL_PLOTS = {
    "blobs3": blob_plot(3, 150, seed=0),
    "blobs5": blob_plot(5, 150, seed=1),
    "grid_snapped": Scatterplot(points=np.round(np.random.default_rng(2).normal(size=(300, 2)) * 2.0) / 2.0),
    "four_distinct": Scatterplot(points=np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]], 3, axis=0)),
}


def raised(call, *args):
    try:
        call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestKernelBitIdentity:
    @pytest.mark.parametrize("regularization", [1e-6, 0.0])
    @pytest.mark.parametrize("name", sorted(KERNEL_PLOTS))
    def test_fits_and_traces_match_reference(self, monkeypatch, name, regularization):
        sp = KERNEL_PLOTS[name]
        cfg = FitConfig(n_restarts=2, max_iterations=60, seed=3, regularization=regularization)
        kernel = [fit_outcome(sp, k, cfg) for k in range(1, 11)]
        monkeypatch.setattr(gmm, "_run_em", reference_run_em)
        assert kernel == [fit_outcome(sp, k, cfg) for k in range(1, 11)]

    def test_log_joint_matches_reference(self):
        model = fit_em(KERNEL_PLOTS["blobs5"], 6, FitConfig(n_restarts=1, max_iterations=40))
        x, y = np.random.default_rng(0).normal(size=(2, 333)) * 5.0
        args = (
            [c.weight for c in model.components],
            [c.mean for c in model.components],
            [(c.cov.xx, c.cov.xy, c.cov.yy) for c in model.components],
        )
        assert kernel_log_joint(x, y, *args).tobytes() == reference_log_joint(x, y, *args).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 17, 500, 2038, 4001])
    def test_row_dots_equal_one_dimensional_dots(self, n):
        a, b = np.random.default_rng(n).normal(size=(2, 10, n)) * 7.0
        assert gmm._row_dots(a, b).tobytes() == np.array([a[j] @ b[j] for j in range(10)]).tobytes()


class TestKernelFailures:
    """The kernel raises what the per-component loops raised, on every failure path."""

    X = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0], [0.5, 3.0]])
    W = np.array([1.0, 2.0, 1.0, 3.0])

    def test_singular_covariance_first_bad_component_named(self):
        x, y = self.X.T.copy()
        means = np.zeros((3, 2))
        covs = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 1.0]])  # det 1, 0, -3
        expected = raised(reference_e_step, x, y, self.W, np.full(3, 1 / 3), means, covs)
        assert expected == (DegenerateCovarianceError, "covariance is singular (det=0.0)")
        buf = np.empty((4, 3, 4))
        gmm._centre(x, y, means, buf)
        assert raised(gmm._e_step, self.W, np.full(3, 1 / 3), covs, buf) == expected

    def test_component_losing_all_responsibility(self):
        x, y = self.X.T.copy()
        resp = np.array([[0.5, 1.0, 0.0, 0.2], [0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 1.0, 0.8]])
        expected = raised(reference_m_step, x, y, self.W, 7, resp, 1e-6)
        assert expected == (gmm._FitFailure, "a component lost all responsibility")
        buf = np.empty((4, 3, 4))
        buf[0] = resp
        assert raised(gmm._m_step, x, y, self.W, 7, 1e-6, buf) == expected

    def test_collapsed_covariance_without_regularization(self):
        X = np.repeat([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], 3, axis=0)
        cfg = FitConfig(regularization=0.0, n_restarts=3, seed=0)
        for restart in range(3):
            expected = em_outcome(reference_run_em, X, 3, cfg, restart)
            assert expected == (gmm._FitFailure, "covariance collapsed to a singular matrix")
            assert em_outcome(gmm._run_em, X, 3, cfg, restart) == expected


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

    def test_trailing_empty_cells_ignored(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,\n1.0,2.0,,\n3.0,4.0\n")
        assert read_scatterplot_csv(path).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("row", ["1,,2", ",5,6", ",5"])
    def test_interior_empty_cell_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y\n0,0\n{row}\n")
        with pytest.raises(ValueError, match="row 3: empty cell"):
            read_scatterplot_csv(path)

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(ValueError, match="row 3"):
            read_scatterplot_csv(path)
