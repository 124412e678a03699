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
    return gmm._log_joint(weights, covs, buf, len(weights), {})


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
# Bit identity of the lockstep EM kernel with per-restart, per-component reference loops


class ReferenceFailure(Exception):
    pass


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
        raise ReferenceFailure("a component lost all responsibility")
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
            raise ReferenceFailure("covariance collapsed to a singular matrix")
    return weights, means, covs


def reference_run_em(X, grouped, k, config, reg, restart):
    rng = spawn_rng(config.seed, "em", k, restart)
    means = gmm._kmeanspp_means(X, k, rng)
    pooled = gmm._pooled_covariance(X)
    cov0 = np.array([pooled[0, 0] + reg, pooled[0, 1], pooled[1, 1] + reg])
    if cov0[0] * cov0[2] - cov0[1] ** 2 <= 0.0:
        raise ReferenceFailure("initial pooled covariance is singular")
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


def grouped_points(X):
    distinct, counts = np.unique(X, axis=0, return_counts=True)
    x, y = np.ascontiguousarray(distinct.T)
    return x, y, counts.astype(float)


def reference_runs(X, k, config):
    """Each restart of ``reference_run_em`` run on its own: its results, or its failure message."""
    grouped, reg = grouped_points(X), gmm._effective_regularization(X, config)
    runs = []
    for restart in range(config.n_restarts):
        try:
            runs.append(reference_run_em(X, grouped, k, config, reg, restart))
        except (ReferenceFailure, DegenerateCovarianceError) as exc:
            runs.append(str(exc))
    return runs


def kernel_runs(X, k, config):
    """The restarts of one K run in lockstep by ``gmm._run_em``."""
    return gmm._run_em(X, grouped_points(X), k, config, gmm._effective_regularization(X, config))


def run_bytes(runs):
    """The bytes of each run's results; a failure message stays as it is."""
    return [run if isinstance(run, str) else tuple(np.asarray(v, dtype=float).tobytes() for v in run)
            for run in runs]


def fit_outcome(sp, k, config):
    try:
        model, traces = fit_em_with_trace(sp, k, config)
    except DegenerateCovarianceError as exc:
        return str(exc)
    return model, [t.tobytes() for t in traces]


def reference_fit_outcome(sp, k, config):
    """``fit_outcome`` of the reference runs: the first restart with the largest log-likelihood is kept,
    and when every restart fails the last failure is reported."""
    best, traces, last_failure = None, [], None
    for run in reference_runs(sp.points, k, config):
        if isinstance(run, str):
            last_failure = run
            continue
        traces.append(run[4].tobytes())
        if best is None or run[3] > best[3]:
            best = run
    if best is None:
        return f"all {config.n_restarts} EM restarts failed: {last_failure}"
    return gmm._build_model(*best[:4], sp.n), traces


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


def mixed_exit_plot(seed=11, centre=20):
    """A blob and lattice points on which, under MIXED_EXITS, K=6 restarts leave the block at different
    iterations: covariances collapse in the 7th and 8th M-step, a component is lost in the 8th, one
    restart converges after the 9th, and the rest stop at the cap of 10."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 16))
    blob = rng.normal(size=(int(rng.integers(20, 60)), 2)) * 2 + centre
    return Scatterplot(np.vstack([blob, np.round(rng.normal(size=(m, 2)) * 1.5) / 1.5]))


MIXED_EXITS = FitConfig(regularization=0.0, n_restarts=10, max_iterations=10, seed=0, em_tolerance=1e-3)


class TestKernelBitIdentity:
    @pytest.mark.parametrize("regularization", [1e-6, 0.0])
    @pytest.mark.parametrize("name", sorted(KERNEL_PLOTS))
    def test_fits_and_traces_match_reference(self, name, regularization):
        sp = KERNEL_PLOTS[name]
        cfg = FitConfig(n_restarts=2, max_iterations=60, seed=3, regularization=regularization)
        assert [fit_outcome(sp, k, cfg) for k in range(1, 11)] == [reference_fit_outcome(sp, k, cfg)
                                                                   for k in range(1, 11)]

    def test_restarts_leave_the_block_at_different_iterations(self):
        X = mixed_exit_plot().points
        expected = reference_runs(X, 6, MIXED_EXITS)
        lengths = [len(run[4]) for run in expected if not isinstance(run, str)]
        failures = [run for run in expected if isinstance(run, str)]
        assert min(lengths) < MIXED_EXITS.max_iterations + 1 == max(lengths)
        assert sorted(set(failures)) == ["a component lost all responsibility",
                                         "covariance collapsed to a singular matrix"]
        assert run_bytes(kernel_runs(X, 6, MIXED_EXITS)) == run_bytes(expected)
        assert fit_outcome(mixed_exit_plot(), 6, MIXED_EXITS) == reference_fit_outcome(mixed_exit_plot(), 6,
                                                                                        MIXED_EXITS)

    def test_log_joint_matches_reference(self):
        model = fit_em(KERNEL_PLOTS["blobs5"], 6, FitConfig(n_restarts=1, max_iterations=40))
        x, y = np.random.default_rng(0).normal(size=(2, 333)) * 5.0
        args = (
            [c.weight for c in model.components],
            [c.mean for c in model.components],
            [(c.cov.xx, c.cov.xy, c.cov.yy) for c in model.components],
        )
        assert kernel_log_joint(x, y, *args).tobytes() == reference_log_joint(x, y, *args).tobytes()

    def test_restart_failing_the_determinant_check_leaves_the_block(self):
        # Without regularization one restart's covariance gets so narrow that an inf column meets a 0
        # (numpy warns "invalid value", here as in the per-restart loop): its covariances turn NaN and the
        # determinant check of the next E-step fails, while the other restarts collapse or converge.
        X = mixed_exit_plot().points
        cfg = FitConfig(regularization=0.0, n_restarts=6, max_iterations=12, seed=1, em_tolerance=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_runs(X, 4, cfg)
            got = kernel_runs(X, 4, cfg)
        assert expected[1] == "covariance is singular (det=nan)"
        assert [len(run[4]) for run in expected if not isinstance(run, str)] == [11, 12]
        assert run_bytes(got) == run_bytes(expected)

    @pytest.mark.parametrize("n", [1, 3, 17, 500, 2038, 4001])
    def test_row_dots_equal_one_dimensional_dots(self, n):
        a, b = np.random.default_rng(n).normal(size=(2, 10, n)) * 7.0
        assert gmm._row_dots(a, b).tobytes() == np.array([a[j] @ b[j] for j in range(10)]).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 500, 2038])
    def test_block_reductions_equal_per_block_reductions(self, n):
        # the E-step reduces R groups of K rows at once where the per-restart loop reduced one (K, n) array
        for r, k in [(1, 1), (2, 3), (5, 4), (5, 8), (3, 9), (5, 10)]:
            a = np.random.default_rng(n * k + r).normal(size=(r, k, n)) * 7.0
            for reduce in (np.max, np.sum):
                assert reduce(a, axis=1).tobytes() == np.array([reduce(a[i], axis=0) for i in range(r)]).tobytes()
            w, lse = a[0, 0] ** 2, a[:, 0]
            assert (w * lse).sum(axis=1).tobytes() == np.array([(w * lse[i]).sum() for i in range(r)]).tobytes()


class TestKernelFailures:
    """The kernel raises what the per-component loops raised, on every failure path."""

    X = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0], [0.5, 3.0]])
    W = np.array([1.0, 2.0, 1.0, 3.0])

    @staticmethod
    def centred(x, y, rows):
        """A (4, rows, n) buffer with the points centred on the origin."""
        buf = np.empty((4, rows, x.shape[0]))
        gmm._centre(x, y, np.zeros((rows, 2)), buf)
        return buf

    def test_singular_covariance_first_bad_component_named(self):
        x, y = self.X.T.copy()
        means = np.zeros((3, 2))
        covs = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 1.0]])  # det 1, 0, -3
        expected = raised(reference_e_step, x, y, self.W, np.full(3, 1 / 3), means, covs)
        assert expected == (DegenerateCovarianceError, "covariance is singular (det=0.0)")
        failed = {}
        assert np.isfinite(gmm._log_joint(np.full(3, 1 / 3), covs, self.centred(x, y, 3), 3, failed)).all()
        assert failed == {0: expected[1]}
        # in a block of restarts, only the group holding a singular covariance fails, and its rows stay finite
        good = covs[:1].repeat(3, axis=0)
        failed = {}
        lp = gmm._log_joint(np.full(9, 1 / 3), np.vstack([good, covs, covs[::-1]]), self.centred(x, y, 9), 3, failed)
        assert failed == {1: expected[1], 2: "covariance is singular (det=-3.0)"}
        assert lp[:3].tobytes() == reference_log_joint(x, y, np.full(3, 1 / 3), means, good).tobytes()
        assert np.isfinite(lp[3:]).all()
        model = MixtureModel(tuple(GaussianComponent(1 / 3, Point2D(0.0, 0.0), Covariance2(*c)) for c in covs), 0.0, 4)
        assert raised(mixture_pdf, model, self.X) == expected

    def test_component_losing_all_responsibility(self):
        x, y = self.X.T.copy()
        resp = np.array([[0.5, 1.0, 0.0, 0.2], [0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 1.0, 0.8]])
        expected = raised(reference_m_step, x, y, self.W, 7, resp, 1e-6)
        assert expected == (ReferenceFailure, "a component lost all responsibility")
        # in the block, the restart that loses a component leaves it with that message
        X = mixed_exit_plot().points
        reference = reference_runs(X, 6, MIXED_EXITS)
        kernel = kernel_runs(X, 6, MIXED_EXITS)
        lost = [i for i, run in enumerate(reference) if run == expected[1]]
        assert lost and [kernel[i] for i in lost] == [expected[1]] * len(lost)

    def test_restart_with_a_nan_log_likelihood_fails(self):
        # Without regularization, restart 0's yy variance underflows to about 1e-320: an inf column meets a
        # 0 and its log-likelihood turns NaN.  Nothing compares > NaN, so the reference keeps it as best.
        sp = mixed_exit_plot(seed=193, centre=10)
        alone = FitConfig(regularization=0.0, n_restarts=1, max_iterations=10, seed=0, em_tolerance=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_runs(sp.points, 4, MIXED_EXITS)
            got = kernel_runs(sp.points, 4, MIXED_EXITS)
            model, traces = fit_em_with_trace(sp, 4, MIXED_EXITS)
            with pytest.raises(DegenerateCovarianceError, match=r"all 1 EM restarts failed: .*not finite \(nan\)"):
                fit_em_with_trace(sp, 4, alone)
        assert math.isnan(expected[0][3])
        assert got[0] == "log-likelihood is not finite (nan)"
        assert run_bytes(got[1:]) == run_bytes(expected[1:])
        best = max(expected[1:], key=lambda run: run[3])
        assert model == gmm._build_model(*best[:4], sp.n) and math.isfinite(model.log_likelihood)
        assert [t.tobytes() for t in traces] == [run[4].tobytes() for run in expected[1:]]

    def test_collapsed_covariance_without_regularization(self):
        X = np.repeat([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], 3, axis=0)
        cfg = FitConfig(regularization=0.0, n_restarts=3, seed=0)
        expected = reference_runs(X, 3, cfg)
        assert expected == ["covariance collapsed to a singular matrix"] * 3
        assert kernel_runs(X, 3, cfg) == expected


def reference_stop(trace, need):
    """The M-step at which the projected stop ends a restart with this no-bar trace, or None: the first t of at
    least 50 before the trace's own end with dL_t <= 1e-3 |L_t|, dL_{t-1} > 0, a = dL_t / dL_{t-1} in [0, 1)
    and L_{t-1} + dL_t / (1 - a) < need - 2."""
    for t in range(50, len(trace) - 1):
        before, last = trace[t - 1] - trace[t - 2], trace[t] - trace[t - 1]
        if last <= 1e-3 * abs(trace[t]) and before > 0 and 0 <= last / before < 1:
            if trace[t - 1] + last / (1 - last / before) < need - 2:
                return t
    return None


class TestProjectedStop:
    CONFIG = FitConfig(n_restarts=4, max_iterations=200, seed=3)
    # Without a bar the K=6 restarts of blobs3 end near -576.5, -571.5, -564.0 and -566.0.
    NEED = -568.0

    def test_restart_below_the_bar_stops_while_the_others_run_on_bit_for_bit(self):
        X = KERNEL_PLOTS["blobs3"].points
        expected = reference_runs(X, 6, self.CONFIG)
        assert [reference_stop(run[4].tolist(), self.NEED) for run in expected] == [52, 59, None, None]
        got = gmm._run_em(X, grouped_points(X), 6, self.CONFIG, gmm._effective_regularization(X, self.CONFIG),
                          self.NEED)
        for run, ref, steps in zip(got[:2], expected[:2], (52, 59)):
            assert isinstance(run, np.ndarray) and run.tobytes() == ref[4][:steps + 1].tobytes()
        assert run_bytes(got[2:]) == run_bytes(expected[2:])

    def test_fit_keeps_the_best_completed_restart_and_every_trace(self):
        sp = KERNEL_PLOTS["blobs3"]
        bar = bic_value(self.NEED, 6, sp.n)
        model, traces = fit_em_with_trace(sp, 6, self.CONFIG, beat_bic=bar)
        unbarred, full = fit_em_with_trace(sp, 6, self.CONFIG)
        assert model == unbarred
        assert [len(t) for t in traces] == [53, 60, len(full[2]), len(full[3])]
        # below every restart's projection, nothing completes: no model, but the traces of the E-steps run
        model, traces = fit_em_with_trace(sp, 6, self.CONFIG, beat_bic=bic_value(-540.0, 6, sp.n))
        assert model is None and fit_em(sp, 6, self.CONFIG, beat_bic=bic_value(-540.0, 6, sp.n)) is None
        assert len(traces) == 4 and all(51 <= len(t) < len(f) for t, f in zip(traces, full))


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200, -1e308])
    def test_coordinates_beyond_the_limit_rejected(self, bad):
        with pytest.raises(ValueError, match=r"finite and within \+-2.89e\+76"):
            Scatterplot(points=[[0.0, 0.0], [1.0, bad]])

    def test_coordinates_at_the_limit_fit(self):
        points = gaussian_blob(50, [0.0, 0.0], seed=0).points.copy()
        points[:2] = [[gmm.COORD_LIMIT, gmm.COORD_LIMIT], [-gmm.COORD_LIMIT, -gmm.COORD_LIMIT]]
        res = select_model(Scatterplot(points), self.CFG)
        assert np.isfinite(res.bic)


def stub_sweep(monkeypatch, bics: dict, bars=None):
    """Make ``select_model`` see BIC ``bics[k]`` for each K (None: every restart degenerate; "stopped": every
    restart stopped below the bar); returns the list of K values it fits, and appends each bar to ``bars``."""
    fitted = []

    def fake_fit_em(scatterplot, k, config, beat_bic=-math.inf):
        fitted.append(k)
        if bars is not None:
            bars.append(beat_bic)
        if bics[k] is None:
            raise DegenerateCovarianceError("all restarts failed")
        if bics[k] == "stopped":
            return None
        comps = tuple(GaussianComponent(1.0 / k, Point2D(float(j), 0.0), IDENTITY) for j in range(k))
        return MixtureModel(components=comps, log_likelihood=bics[k], n_points=scatterplot.n)

    monkeypatch.setattr(gmm, "fit_em", fake_fit_em)
    monkeypatch.setattr(gmm, "bic_value", lambda log_likelihood, k, n, mode: log_likelihood)
    return fitted


class TestBicPatience:
    PLOT = Scatterplot(points=np.random.default_rng(0).normal(size=(50, 2)))
    # BIC of blob6 at seed 2 from K=5 on: a dip at K=6, then the best K at 7
    DIP = {1: -5000.0, 2: -4800.0, 3: -4600.0, 4: -4400.0, 5: -4296.0, 6: -4320.0, 7: -4024.0, 8: -4100.0,
           9: -4200.0, 10: -4300.0}

    def sweep(self, monkeypatch, bics, patience, plot=PLOT, k_max=10, bars=None):
        fitted = stub_sweep(monkeypatch, bics, bars)
        monkeypatch.setattr(gmm, "BIC_PATIENCE", patience)
        return fitted, select_model(plot, FitConfig(k_max=k_max))

    def test_patience_one_stops_in_the_dip(self, monkeypatch):
        fitted, res = self.sweep(monkeypatch, self.DIP, 1)
        assert fitted == [1, 2, 3, 4, 5, 6]
        assert res.k_star == res.model.k == 5
        assert res.warnings == ("k=7..10 not fitted: no BIC gain over k=5 in 1 consecutive K",)

    def test_patience_two_reaches_past_the_dip(self, monkeypatch):
        fitted, res = self.sweep(monkeypatch, self.DIP, 2)
        assert fitted == [1, 2, 3, 4, 5, 6, 7, 8, 9]
        assert res.k_star == 7 and res.bic == -4024.0
        assert res.per_k_bic == tuple((k, self.DIP[k]) for k in fitted)
        assert res.warnings == ("k=10 not fitted: no BIC gain over k=7 in 2 consecutive K",)

    def test_tie_is_no_gain(self, monkeypatch):
        fitted, res = self.sweep(monkeypatch, {1: -10.0, 2: -5.0, 3: -5.0, 4: -5.0, 5: 0.0}, 2, k_max=5)
        assert fitted == [1, 2, 3, 4]
        assert res.k_star == 2
        assert res.warnings == ("k=5 not fitted: no BIC gain over k=2 in 2 consecutive K",)

    def test_degenerate_k_neither_counts_nor_resets(self, monkeypatch):
        bics = {1: -10.0, 2: -5.0, 3: -7.0, 4: None, 5: -6.0, 6: 0.0}
        fitted, res = self.sweep(monkeypatch, bics, 2)
        assert fitted == [1, 2, 3, 4, 5]
        assert [k for k, _ in res.per_k_bic] == [1, 2, 3, 5]
        assert res.k_star == 2
        assert res.warnings == (
            "k=4 skipped: all restarts failed",
            "k=6..10 not fitted: no BIC gain over k=2 in 2 consecutive K",
        )

    def test_k_whose_restarts_all_stop_is_a_miss(self, monkeypatch):
        bics = {1: -10.0, 2: -5.0, 3: "stopped", 4: -4.0, 5: "stopped", 6: -6.0, 7: 0.0}
        bars = []
        fitted, res = self.sweep(monkeypatch, bics, 2, bars=bars)
        assert fitted == [1, 2, 3, 4, 5, 6]
        assert bars == [-math.inf, -10.0, -5.0, -5.0, -4.0, -4.0]
        assert [k for k, _ in res.per_k_bic] == [1, 2, 4, 6]
        assert res.k_star == 4
        assert res.warnings == (
            "k=3: every restart stopped below the BIC of k=2",
            "k=5: every restart stopped below the BIC of k=4",
            "k=7..10 not fitted: no BIC gain over k=4 in 2 consecutive K",
        )

    @pytest.mark.parametrize("bics,expected", [
        ({1: -10.0, 2: -5.0, 3: -4.0, 4: -3.0},
         [f"k={k} skipped: more components than points (N=4)" for k in (5, 6)]),
        ({1: -10.0, 2: -5.0, 3: -6.0, 4: -7.0},
         ["k=5..6 not fitted: no BIC gain over k=2 in 2 consecutive K"]),
    ])
    def test_k_above_n(self, monkeypatch, bics, expected):
        plot = Scatterplot(points=np.random.default_rng(0).normal(size=(4, 2)))
        fitted, res = self.sweep(monkeypatch, bics, 2, plot=plot, k_max=6)
        assert fitted == [1, 2, 3, 4]
        assert list(res.warnings) == expected

    @pytest.mark.parametrize("patience", [9, 10])
    def test_patience_of_k_max_minus_one_fits_every_k(self, monkeypatch, patience):
        fitted, res = self.sweep(monkeypatch, {k: -float(k) for k in range(1, 11)}, patience)
        assert fitted == list(range(1, 11))
        assert res.k_star == 1
        assert res.warnings == ()


def _real_plots():
    from test_golden import GOLDEN, _snapped_plot

    return {
        "p0": read_scatterplot_csv(GOLDEN / "p0.csv"),
        "sites": Scatterplot(np.repeat([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]], 10, axis=0)),
        "snapped": _snapped_plot(),
    }


def fitted_ks(monkeypatch) -> list:
    """The K values ``select_model`` passes to ``gmm.fit_em`` from now on."""
    fitted, fit = [], gmm.fit_em

    def recording_fit_em(scatterplot, k, config, **kwargs):
        fitted.append(k)
        return fit(scatterplot, k, config, **kwargs)

    monkeypatch.setattr(gmm, "fit_em", recording_fit_em)
    return fitted


# On the plot snapped to a 30x30 lattice, the exhaustive sweep without the bar has its best BIC at K=10, where
# one component lies on a single lattice row with its variance at the regularization floor; the bar stops
# that K's restarts, so the exhaustive sweep with it keeps K*=2 (see the test below).
@pytest.mark.parametrize("name,unbarred_argmax_in_prefix", [("p0", True), ("sites", True), ("snapped", False)])
def test_patience_sweep_is_a_prefix_of_the_exhaustive_sweep(monkeypatch, name, unbarred_argmax_in_prefix):
    plot = _real_plots()[name]
    config = FitConfig()
    fitted = fitted_ks(monkeypatch)
    res = select_model(plot, config)
    n_patient = len(fitted)
    monkeypatch.setattr(gmm, "BIC_PATIENCE", config.k_max)
    full = select_model(plot, config)
    # a stopped K is not listed, so compare the K each sweep passed to fit_em
    assert res.per_k_bic == full.per_k_bic[: len(res.per_k_bic)]
    assert fitted[:n_patient] == list(range(1, n_patient + 1)) and n_patient < config.k_max
    assert fitted[n_patient:] == list(range(1, config.k_max + 1))
    assert full.k_star <= fitted[n_patient - 1]
    assert res.k_star == full.k_star and res.model == full.model
    assert (unbarred_sweep(monkeypatch, plot, config).k_star <= fitted[n_patient - 1]) == unbarred_argmax_in_prefix


def test_unbarred_fit_of_the_snapped_plot_reaches_the_lattice_artefact():
    # Without a bar, one K=10 restart on the plot snapped to a 30x30 lattice climbs late, as a component
    # settles on a single lattice row with its variance at the regularization floor, to a BIC above K=2's.
    # The exhaustive sweep's bar stops that restart at M-step 50 (L = -3499.9, projected -3495.8, needed
    # -3366), so the sweep now keeps K*=2; a variance floor from the lattice step would remove the artefact.
    plot = _real_plots()["snapped"]
    config = FitConfig()
    model, _ = fit_em_with_trace(plot, 10, config)
    assert bic_value(model.log_likelihood, 10, plot.n) > select_model(plot, config).bic + 100
    floor = gmm._effective_regularization(plot.points, config)
    assert min(c.cov.yy for c in model.components) <= floor * (1 + 1e-9)


def unbarred_sweep(monkeypatch, plot, config):
    """``select_model`` with every fit run without its bar."""
    fit = gmm.fit_em
    with monkeypatch.context() as patch:
        patch.setattr(gmm, "fit_em", lambda scatterplot, k, config, beat_bic=-math.inf: fit(scatterplot, k, config))
        return select_model(plot, config)


def at_most_k_star(res):
    return [(k, bic) for k, bic in res.per_k_bic if k <= res.k_star]


@pytest.mark.parametrize("name", ["p0", "sites", "snapped", "blobs3", "blobs5", "grid_snapped"])
def test_bar_keeps_k_star_the_model_and_the_bic_up_to_k_star(monkeypatch, name):
    plot = {**_real_plots(), **KERNEL_PLOTS}[name]
    config = FitConfig()
    res, unbarred = select_model(plot, config), unbarred_sweep(monkeypatch, plot, config)
    assert res.k_star == unbarred.k_star and res.model == unbarred.model and res.bic == unbarred.bic
    assert at_most_k_star(res) == at_most_k_star(unbarred)
    # above K*, a K is left out (every restart stopped) or lists at most its unbarred BIC
    above = dict(unbarred.per_k_bic)
    assert all(bic <= above[k] for k, bic in res.per_k_bic)


def test_restart_stopped_before_a_late_climb_can_move_a_hit_k_in_the_last_bits(monkeypatch):
    # The rule is a heuristic.  Here K=3's restart 1 is at L = -1437.5 after 50 M-steps, projected to -1437.4,
    # far below the -1423.6 that K=3 needs, and stops; without the bar it climbs to the best log-likelihood,
    # ahead by 7e-11 of restart 3 at the same optimum.  Restart 3 is kept: K=3's BIC moves by about 1e-10,
    # K* and the selected model do not.
    plot = blob_plot(4, 300, seed=1)
    config = FitConfig()
    res, unbarred = select_model(plot, config), unbarred_sweep(monkeypatch, plot, config)
    assert res.k_star == unbarred.k_star == 4 and res.model == unbarred.model
    got, want = dict(at_most_k_star(res)), dict(at_most_k_star(unbarred))
    assert got.keys() == want.keys() and [k for k in got if got[k] != want[k]] == [3]
    assert 0 < want[3] - got[3] < 1e-9


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
