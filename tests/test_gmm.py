import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from scatterscore import gmm
from scatterscore.gmm import (
    DegenerateCovarianceError,
    FitConfig,
    MixtureModel,
    Scatterplot,
    bic_value,
    fit_em,
    fit_em_with_trace,
    mixture_pdf,
    read_scatterplot_csv,
    select_model,
    select_models,
    write_scatterplot_csv,
)
from scatterscore.util import spawn_rng

from conftest import gaussian_blob, two_blob_plot

IDENTITY = (1.0, 0.0, 1.0)  # a covariance as (xx, xy, yy)


def gaussian_density(point, mean, cov) -> float:
    """Scalar reference for one component's density, independent of the package:
    det(2*pi*Sigma)^(-1/2) * exp(-1/2 (x-mu)^T Sigma^-1 (x-mu)), for Sigma given as (xx, xy, yy)."""
    xx, xy, yy = cov
    det = xx * yy - xy * xy
    dx = float(point[0]) - float(mean[0])
    dy = float(point[1]) - float(mean[1])
    quad = (yy * dx * dx - 2.0 * xy * dx * dy + xx * dy * dy) / det
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def density(model, point) -> float:
    return float(mixture_pdf(model, np.asarray(point, dtype=float).reshape(1, 2))[0])


def kernel_log_joint(x, y, weights, means, covs, centre=(0.0, 0.0)):
    """The kernel's log(pi_j) + log g_j at the points (x, y), all centred on ``centre``: one coefficient
    product with the moment features, as in the E-step and ``mixture_pdf``."""
    centre = np.asarray(centre, dtype=float)
    coef = gmm._coefficients(weights, np.asarray(means, dtype=float) - centre, covs, len(weights), {})
    return np.matmul(coef[None], gmm._features(x - centre[0], y - centre[1]))[0]


def map_component(model, point) -> int:
    """Component with the largest log(pi_k) + log g_k at ``point``, from the kernel that the E-step and
    ``mixture_pdf`` share, centred on the point as ``mixture_pdf`` centres a single point; ties go to the
    lowest index."""
    x, y = np.array([float(point[0])]), np.array([float(point[1])])
    logp = kernel_log_joint(x, y, model.weights, model.means, model.covs, centre=point)
    return int(np.argmax(logp[:, 0]))


def mixture(*components) -> MixtureModel:
    """The mixture of (weight, mean, covariance) components."""
    weights, means, covs = zip(*components)
    return MixtureModel(weights=weights, means=means, covs=covs, log_likelihood=0.0, n_points=1)


def single_gaussian_model(mean=(0.0, 0.0), cov=IDENTITY):
    return mixture((1.0, mean, cov))


class TestGaussianDensity:
    """One-component ``mixture_pdf`` against closed forms and the scalar reference."""

    def test_standard_normal_at_mean(self):
        assert density(single_gaussian_model(), (0, 0)) == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)

    def test_determinant_scaling(self):
        val = density(single_gaussian_model(cov=(4.0, 0.0, 1.0)), (0, 0))
        assert val == pytest.approx(1.0 / (2 * math.pi * 2.0), abs=1e-12)

    def test_point_symmetry_about_mean(self):
        rng = np.random.default_rng(0)
        cov = (2.0, 0.7, 1.5)
        for _ in range(50):
            mx, my, ax, ay = rng.normal(size=4)
            model = single_gaussian_model((mx, my), cov)
            d1, d2 = mixture_pdf(model, [(ax, ay), (2 * mx - ax, 2 * my - ay)])
            assert d1 == pytest.approx(d2, rel=1e-12)
            assert d1 == pytest.approx(gaussian_density((ax, ay), (mx, my), cov), rel=1e-12)

    def test_singular_covariance_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            mixture_pdf(single_gaussian_model(cov=(1.0, 1.0, 1.0)), [(0.0, 0.0)])


class TestMixtureDensity:
    def test_single_component_reduction(self):
        model = single_gaussian_model((0.5, -1.0), (2.0, 0.3, 1.0))
        p = (0.2, 0.4)
        assert density(model, p) == pytest.approx(gaussian_density(p, (0.5, -1.0), (2.0, 0.3, 1.0)), rel=1e-12)

    def test_convexity_identity(self):
        cov = (1.5, -0.2, 0.8)
        comp = (0.5, (1.0, 2.0), cov)
        two = mixture(comp, comp)
        one = single_gaussian_model((1.0, 2.0), cov)
        assert density(two, (0.0, 0.0)) == pytest.approx(density(one, (0.0, 0.0)), rel=1e-12)

    def test_component_permutation_invariance(self):
        c1 = (0.3, (0.0, 0.0), IDENTITY)
        c2 = (0.7, (3.0, 1.0), (2.0, 0.5, 1.0))
        a = mixture(c1, c2)
        b = mixture(c2, c1)
        pts = np.random.default_rng(1).normal(size=(20, 2))
        np.testing.assert_allclose(mixture_pdf(a, pts), mixture_pdf(b, pts), rtol=1e-12)
        expected = [sum(w * gaussian_density(p, mean, cov) for w, mean, cov in (c1, c2)) for p in pts]
        np.testing.assert_allclose(mixture_pdf(a, pts), expected, rtol=1e-12)


class TestMixtureModel:
    """A mixture's arrays are checked as they are built, and held read-only."""

    GOOD = dict(weights=[0.25, 0.75], means=[(0.0, 0.0), (3.0, 1.0)], covs=[IDENTITY, (2.0, 0.5, 1.0)])

    def model(self, **changes):
        return MixtureModel(**{**self.GOOD, **changes}, log_likelihood=0.0, n_points=1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", range(3))
    def test_non_finite_covariance_entry_rejected(self, entry, value):
        cov = list(IDENTITY)
        cov[entry] = value
        with pytest.raises(ValueError, match="covariance entries must be finite"):
            self.model(covs=[IDENTITY, cov])

    @pytest.mark.parametrize("cov", [(-1.0, 0.0, 1.0), (1.0, 0.0, -1e-300)])
    def test_negative_variance_rejected(self, cov):
        with pytest.raises(ValueError, match="variances must be non-negative"):
            self.model(covs=[cov, IDENTITY])

    def test_singular_covariance_accepted(self):
        # a covariance need not be positive definite until a density is evaluated
        assert self.model(covs=[(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)]).k == 2

    @pytest.mark.parametrize("weights", [(0.0, 1.0), (-0.5, 1.5), (1.5, -0.5), (math.nan, 1.0), (1.0 + 1e-12, 1e-12)])
    def test_weight_outside_unit_interval_rejected(self, weights):
        with pytest.raises(ValueError, match=r"weights must be in \(0, 1\]"):
            self.model(weights=weights)

    @pytest.mark.parametrize("weights", [(0.25, 0.25), (0.5, 0.5 + 2e-9)])
    def test_weights_not_summing_to_one_rejected(self, weights):
        with pytest.raises(ValueError, match="weights sum to"):
            self.model(weights=weights)

    def test_weights_within_rounding_of_one_accepted(self):
        assert self.model(weights=(0.5, 0.5 + 5e-10)).k == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, value):
        with pytest.raises(ValueError, match="means must be finite"):
            self.model(means=[(0.0, value), (3.0, 1.0)])

    @pytest.mark.parametrize(
        "changes",
        [
            dict(weights=[1.0], means=[], covs=[]),
            dict(weights=[], means=[], covs=[]),
            dict(weights=1.0, means=[(0.0, 0.0)], covs=[IDENTITY]),
            dict(weights=[[0.25, 0.75]]),
            dict(means=[(0.0, 0.0)]),
            dict(means=[(0.0, 0.0, 0.0), (3.0, 1.0, 0.0)]),
            dict(covs=[IDENTITY]),
            dict(covs=[(1.0, 0.0), (1.0, 0.0)]),
            dict(covs=[[[1.0, 0.0], [0.0, 1.0]]] * 2),
        ],
    )
    def test_mismatched_shapes_rejected(self, changes):
        with pytest.raises(ValueError, match="expected K >= 1 weights"):
            self.model(**changes)

    def test_arrays_are_read_only_copies(self):
        weights = np.array([0.25, 0.75])
        model = self.model(weights=weights)
        weights[0] = 0.5
        assert model.weights.tolist() == [0.25, 0.75]
        for a in (model.weights, model.means, model.covs):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_equality_compares_every_value(self):
        assert self.model() == self.model()
        assert self.model() != self.model(covs=[IDENTITY, (2.0, 0.5, 1.5)])
        assert self.model() != MixtureModel(**self.GOOD, log_likelihood=1.0, n_points=1)
        assert self.model() != self.model(weights=[1.0], means=[(0.0, 0.0)], covs=[IDENTITY])


def quadrature_of_mixture(model, half_width=8.0, n_cells=400):
    """Midpoint-rule integral of the mixture over a box covering all components."""
    pad = half_width * math.sqrt(model.covs[:, [0, 2]].max())
    (x0, y0), (x1, y1) = model.means.min(axis=0), model.means.max(axis=0)
    x = np.linspace(x0 - pad, x1 + pad, n_cells + 1)
    y = np.linspace(y0 - pad, y1 + pad, n_cells + 1)
    cx = 0.5 * (x[:-1] + x[1:])
    cy = 0.5 * (y[:-1] + y[1:])
    gx, gy = np.meshgrid(cx, cy)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    cell = (x[1] - x[0]) * (y[1] - y[0])
    return float(mixture_pdf(model, grid).sum() * cell)


def test_mixture_quadrature_normalizes():
    model = mixture((0.4, (-1.0, 0.5), (1.2, 0.4, 0.9)), (0.6, (4.0, -2.0), (0.5, -0.1, 2.0)))
    assert quadrature_of_mixture(model) == pytest.approx(1.0, abs=1e-3)


class TestMapAssign:
    def test_point_at_first_mean(self):
        model = mixture((0.5, (0.0, 0.0), IDENTITY), (0.5, (50.0, 0.0), IDENTITY))
        assert map_component(model, (0.0, 0.0)) == 0
        assert map_component(model, (50.0, 0.0)) == 1

    def test_equal_components_tie_to_lowest(self):
        comp = (0.5, (0.0, 0.0), IDENTITY)
        model = mixture(comp, comp)
        assert map_component(model, (1.3, -0.7)) == 0

    def test_perpendicular_bisector_tie(self):
        model = mixture((0.5, (0.0, 0.0), IDENTITY), (0.5, (2.0, 0.0), IDENTITY))
        # both components evaluate bit-identically on the bisector x = 1
        p1 = 0.5 * gaussian_density((1.0, 0.7), (0.0, 0.0), IDENTITY)
        p2 = 0.5 * gaussian_density((1.0, 0.7), (2.0, 0.0), IDENTITY)
        assert p1 == p2
        logp = kernel_log_joint(np.array([1.0]), np.array([0.7]), [0.5, 0.5], [(0.0, 0.0), (2.0, 0.0)],
                                [(1.0, 0.0, 1.0)] * 2, centre=(1.0, 0.7))
        assert logp[0, 0] == logp[1, 0]
        assert map_component(model, (1.0, 0.7)) == 0


class TestFitEm:
    def test_k1_matches_closed_form_mle(self):
        sp = gaussian_blob(300, [2.0, -1.0], seed=3)
        cfg = FitConfig(k_max=1, n_restarts=1, regularization=0.0, seed=0)
        model = fit_em(sp, 1, cfg)
        X = sp.points
        assert model.weights.tolist() == pytest.approx([1.0], abs=1e-12)
        assert model.means[0] == pytest.approx(X.mean(axis=0), abs=1e-9)
        d = X - X.mean(axis=0)
        xx, xy, yy = model.covs[0]
        assert xx == pytest.approx((d[:, 0] ** 2).mean(), abs=1e-9)
        assert xy == pytest.approx((d[:, 0] * d[:, 1]).mean(), abs=1e-9)
        assert yy == pytest.approx((d[:, 1] ** 2).mean(), abs=1e-9)

    def test_fitted_mean_within_standard_error(self):
        n = 500
        for seed in range(5):
            sp = gaussian_blob(n, [1.0, 3.0], seed=seed)
            model = fit_em(sp, 1, FitConfig(n_restarts=1, seed=seed, regularization=0.0))
            se = 1.0 / math.sqrt(n)
            assert abs(model.means[0, 0] - 1.0) < 5 * se
            assert abs(model.means[0, 1] - 3.0) < 5 * se

    def test_two_separated_clusters_recovered(self):
        sp = two_blob_plot(250, 20.0, seed=5)
        model = fit_em(sp, 2, FitConfig(n_restarts=3, seed=2))
        means = sorted(model.means[:, 1])
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
        for (ax, ay), (bx, by) in zip(a.means, b.means):
            assert bx - ax == pytest.approx(100.0, abs=1e-4)
            assert by - ay == pytest.approx(-40.0, abs=1e-4)


# ---------------------------------------------------------------------------
# Bit identity of the lockstep EM kernel with per-restart, per-component reference loops


class ReferenceFailure(Exception):
    pass


def centred_log_pdf(x, y, mean, xx, xy, yy):
    """One component's log-density at the points (x, y) from the points centred on its mean: the formula
    the kernel used before the moment form, kept as a tolerance oracle."""
    det = xx * yy - xy * xy
    d0 = x - mean[0]
    d1 = y - mean[1]
    lp = (-0.5 * yy / det * d0 + xy / det * d1) * d0
    lp -= 0.5 * xx / det * d1 * d1
    lp -= 0.5 * math.log(det) + gmm.LOG_2PI
    return lp


def reference_coefficients(weights, means, covs):
    """The (k, 6) moment-form coefficients of one mixture, component by component in Python floats: the
    precision matrix P, P @ mean, and log(pi) - log det / 2 - log 2pi - mean @ P @ mean / 2."""
    rows = []
    for weight, (mx, my), (xx, xy, yy) in zip(np.asarray(weights).tolist(), np.asarray(means).tolist(),
                                               np.asarray(covs).tolist()):
        det = xx * yy - xy * xy
        if not (det > 0.0 and det < math.inf):
            raise DegenerateCovarianceError(f"covariance is singular (det={det})")
        pxx, nxy, pyy = yy / det, xy / det, xx / det
        lx, ly = pxx * mx - nxy * my, pyy * my - nxy * mx
        const = float(np.log(weight)) - 0.5 * float(np.log(det)) - gmm.LOG_2PI - 0.5 * (lx * mx + ly * my)
        rows.append([pxx * -0.5, nxy, pyy * -0.5, lx, ly, const])
    return np.array(rows)


def reference_features(x, y, w):
    """The (6, n) moment features of the points and their count-weighted (n, 6) transpose."""
    phi = np.array([x * x, x * y, y * y, x, y, np.ones_like(x)])
    return phi, np.ascontiguousarray((phi * w).T)


def reference_log_joint(x, y, weights, means, covs):
    """log(pi_j) + log g_j at the (already centred) points, one (1, k, 6) @ (6, n) product."""
    return np.matmul(reference_coefficients(weights, means, covs)[None], reference_features(x, y, 1.0)[0])[0]


def reference_e_step(phi, w, weights, means, covs):
    logp = np.matmul(reference_coefficients(weights, means, covs)[None], phi)[0]
    m = logp.max(axis=0)
    p = np.exp(logp - m)
    total = p.sum(axis=0)
    p /= total
    return p, float((w * (m + np.log(total))).sum())


def reference_m_step(wphi, n_points, resp, reg):
    """Weights, means and covariances from one (1, k, n) @ (n, 6) product, component by component in Python
    floats: a variance at or below 16 eps of its second moment is rounding noise and becomes 0 before reg, and
    a covariance whose determinant is at most 16 eps xx*yy has collapsed."""
    stats = np.matmul(resp[None], wphi)[0].tolist()
    if any(row[5] < 1e-10 for row in stats):
        raise ReferenceFailure("a component lost all responsibility")
    eps16 = 16 * np.finfo(float).eps
    weights, means, covs = [], [], []
    for sxx, sxy, syy, sx, sy, nk in stats:
        mx, my = sx / nk, sy / nk
        exx, exy, eyy = sxx / nk, sxy / nk, syy / nk
        xx, xy, yy = exx - mx * mx, exy - mx * my, eyy - my * my
        xx = (0.0 if xx <= eps16 * exx else xx) + reg
        yy = (0.0 if yy <= eps16 * eyy else yy) + reg
        if xx * yy - xy * xy <= eps16 * xx * yy:
            raise ReferenceFailure("covariance collapsed to a singular matrix")
        weights.append(nk / n_points)
        means.append([mx, my])
        covs.append([xx, xy, yy])
    return np.array(weights), np.array(means), np.array(covs)


def reference_kmeanspp(X, k, rng):
    """k-means++ seeds of the rows of X, each next one drawn by ``Generator.choice`` with probability
    proportional to its squared distance to the nearest seed so far; uniform when every point lies on a
    seed."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((X - X[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = float(d2.sum())
        if total > 0.0:
            j = int(rng.choice(n, p=d2 / total))
        else:
            j = int(rng.integers(n))
        chosen.append(j)
        d2 = np.minimum(d2, ((X - X[j]) ** 2).sum(axis=1))
    return X[np.array(chosen)].copy()


def effective_regularization(X, config):
    """``config.regularization`` times the mean of the two coordinate variances of X (1 when it is 0)."""
    scale = float(X.var(axis=0).mean())
    return config.regularization * (scale if scale > 0.0 else 1.0)


def reference_run_em(X, grouped, k, config, reg, restart):
    """One restart on its own, on the distinct points centred on the mean of X."""
    rng = spawn_rng(config.seed, "em", k, restart)
    centre = X.mean(axis=0)
    means = reference_kmeanspp(X, k, rng) - centre
    d = X - centre
    pooled = d.T @ d / X.shape[0]
    cov0 = np.array([pooled[0, 0] + reg, pooled[0, 1], pooled[1, 1] + reg])
    if cov0[0] * cov0[2] - cov0[1] ** 2 <= 16 * np.finfo(float).eps * cov0[0] * cov0[2]:
        raise ReferenceFailure("initial pooled covariance is singular")
    covs = np.tile(cov0, (k, 1))
    weights = np.full(k, 1.0 / k)
    x, y, w = grouped
    phi, wphi = reference_features(x - centre[0], y - centre[1], w)
    trace = []
    prev = None
    for _ in range(config.max_iterations):
        resp, loglik = reference_e_step(phi, w, weights, means, covs)
        trace.append(loglik)
        if prev is not None and loglik - prev <= config.em_tolerance * max(1.0, abs(prev)):
            break
        prev = loglik
        weights, means, covs = reference_m_step(wphi, X.shape[0], resp, reg)
    else:
        _, loglik = reference_e_step(phi, w, weights, means, covs)
        trace.append(loglik)
    return weights, means + centre, covs, loglik, np.array(trace)


def grouped_points(X):
    distinct, counts = np.unique(X, axis=0, return_counts=True)
    x, y = np.ascontiguousarray(distinct.T)
    return x, y, counts.astype(float)


def reference_runs(X, k, config):
    """Each restart of ``reference_run_em`` run on its own: its results, or its failure message."""
    grouped, reg = grouped_points(X), effective_regularization(X, config)
    runs = []
    for restart in range(config.n_restarts):
        try:
            runs.append(reference_run_em(X, grouped, k, config, reg, restart))
        except (ReferenceFailure, DegenerateCovarianceError) as exc:
            runs.append(str(exc))
    return runs


def kernel_runs(X, k, config, need=-math.inf):
    """The restarts of one K run in lockstep by ``gmm._run_em``, on the inputs of a new plot of the points X."""
    return gmm._run_em([gmm._em_inputs(Scatterplot(X))], k, config, [need])[0]


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


def mixed_exit_plot(seed=30, spread=0.01):
    """Points around two to four far-apart sites, each point within about ``spread`` of its site, on which,
    under MIXED_EXITS, K=4 restarts leave the block at different iterations: a covariance collapses in the 7th
    M-step, a component is lost in the 8th (a narrow component at each site leaves a wide one next to nothing),
    restarts converge after the 5th and the 6th, and the rest stop at the cap of 10."""
    rng = np.random.default_rng(seed)
    sites = rng.normal(size=(int(rng.integers(2, 5)), 2)) * 10
    X = sites[rng.integers(len(sites), size=int(rng.integers(20, 80)))]
    return Scatterplot(X + rng.normal(size=X.shape) * spread)


def hairline_plot(seed=6, a=1e-155):
    """A blob and a line of points at x = +-a, mirrored across x = 0 row by row, so that the mean of x is exactly
    0 and the line keeps its offsets +-a when centred.  A component that settles on the line has an x
    variance of about a^2, a subnormal number: its determinant stays positive, its precision overflows to inf,
    inf meets 0 in its log-density, and its restart's log-likelihood turns NaN."""
    rng = np.random.default_rng(seed)
    half = np.vstack([rng.normal(size=(30, 2)) + [8.0, 0.0], np.column_stack([np.full(20, a), rng.normal(size=20)])])
    X = np.empty((2 * len(half), 2))
    X[0::2], X[1::2] = half, half * [-1.0, 1.0]
    return Scatterplot(X)


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
        expected = reference_runs(X, 4, MIXED_EXITS)
        lengths = [len(run[4]) for run in expected if not isinstance(run, str)]
        failures = [run for run in expected if isinstance(run, str)]
        assert min(lengths) < MIXED_EXITS.max_iterations + 1 == max(lengths)
        assert sorted(failures) == ["a component lost all responsibility",
                                    "covariance collapsed to a singular matrix"]
        assert run_bytes(kernel_runs(X, 4, MIXED_EXITS)) == run_bytes(expected)
        assert fit_outcome(mixed_exit_plot(), 4, MIXED_EXITS) == reference_fit_outcome(mixed_exit_plot(), 4,
                                                                                        MIXED_EXITS)

    def test_log_joint_matches_reference(self):
        model = fit_em(KERNEL_PLOTS["blobs5"], 6, FitConfig(n_restarts=1, max_iterations=40))
        x, y = np.random.default_rng(0).normal(size=(2, 333)) * 5.0
        args = (model.weights.tolist(), model.means.tolist(), model.covs.tolist())
        assert kernel_log_joint(x, y, *args).tobytes() == reference_log_joint(x, y, *args).tobytes()

    def test_restart_failing_the_determinant_check_leaves_the_block(self):
        # Without regularization, restarts 0 and 2 settle on the hairline and their log-likelihood turns NaN
        # (numpy warns of overflow and "invalid value", here as in the per-restart loop): their covariances turn
        # NaN and the determinant check of the next E-step fails, while the other restarts converge.
        X = hairline_plot().points
        cfg = FitConfig(regularization=0.0, n_restarts=6, max_iterations=20, seed=0, em_tolerance=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_runs(X, 4, cfg)
            got = kernel_runs(X, 4, cfg)
        assert expected[0] == expected[2] == "covariance is singular (det=nan)"
        assert [len(run[4]) for run in expected if not isinstance(run, str)] == [4, 13, 10, 5]
        assert run_bytes(got) == run_bytes(expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 500, 2038])
    def test_block_reductions_equal_per_block_reductions(self, n):
        # the E-step reduces R groups of K rows at once where the per-restart loop reduced one (K, n) array
        for r, k in [(1, 1), (2, 3), (5, 4), (5, 8), (3, 9), (5, 10)]:
            a = np.random.default_rng(n * k + r).normal(size=(r, k, n)) * 7.0
            for reduce in (np.max, np.sum):
                assert reduce(a, axis=1).tobytes() == np.array([reduce(a[i], axis=0) for i in range(r)]).tobytes()
            w, lse = a[0, 0] ** 2, a[:, 0]
            assert (w * lse).sum(axis=1).tobytes() == np.array([(w * lse[i]).sum() for i in range(r)]).tobytes()


def restart_alone(monkeypatch, X, k, config, restart):
    """Restart ``restart`` of ``gmm._run_em``, run as a block of one that is seeded as that restart."""
    with monkeypatch.context() as patch:
        patch.setattr(gmm, "spawn_rng", lambda seed, tag, k, r: spawn_rng(seed, tag, k, restart))
        return kernel_runs(X, k, dataclasses.replace(config, n_restarts=1))[0]


class TestRestartIndependence:
    """Each restart of a block gives the bits it gives when run alone: the E-step and M-step products are
    batched, one product per restart of the same shape as its own."""

    CONFIG = FitConfig(max_iterations=100, seed=0)

    def check(self, monkeypatch, X):
        for k in range(1, 9):
            block = kernel_runs(X, k, self.CONFIG)
            alone = [restart_alone(monkeypatch, X, k, self.CONFIG, r) for r in range(self.CONFIG.n_restarts)]
            assert run_bytes(block) == run_bytes(alone), f"k={k}"

    @pytest.mark.parametrize("name", sorted(KERNEL_PLOTS))
    def test_kernel_plots(self, monkeypatch, name):
        self.check(monkeypatch, KERNEL_PLOTS[name].points)

    @pytest.mark.parametrize("index", range(7))
    def test_benchmark_plots(self, monkeypatch, benchmark_plots, index):
        path = [*benchmark_plots["batch"], *benchmark_plots["pixel"]][index]
        self.check(monkeypatch, read_scatterplot_csv(path).points)


def test_log_joint_within_tolerance_of_the_centred_formula():
    # The moment form adds and cancels larger terms than the centred formula did: on the points of each
    # KERNEL_PLOTS plot, centred as the E-step centres them, it stays within 1e-10 of it, relative.
    worst = 0.0
    for sp in KERNEL_PLOTS.values():
        X = sp.points
        x, y = X.T
        for k in range(1, 6):
            model = fit_em(sp, k, FitConfig(n_restarts=1, max_iterations=40))
            got = kernel_log_joint(x, y, model.weights, model.means, model.covs, centre=X.mean(axis=0))
            oracle = np.array([math.log(w) + centred_log_pdf(x, y, mean, *cov)
                               for w, mean, cov in zip(model.weights, model.means, model.covs.tolist())])
            worst = max(worst, float((np.abs(got - oracle) / np.abs(oracle)).max()))
    assert worst < 1e-10, worst


class TestKernelFailures:
    """The kernel raises what the per-component loops raised, on every failure path."""

    X = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0], [0.5, 3.0]])
    W = np.array([1.0, 2.0, 1.0, 3.0])

    def test_singular_covariance_first_bad_component_named(self):
        x, y = self.X.T.copy()
        phi, _ = reference_features(x, y, self.W)
        means = np.zeros((3, 2))
        covs = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 1.0]])  # det 1, 0, -3
        expected = raised(reference_e_step, phi, self.W, np.full(3, 1 / 3), means, covs)
        assert expected == (DegenerateCovarianceError, "covariance is singular (det=0.0)")
        failed = {}
        assert np.isfinite(gmm._coefficients(np.full(3, 1 / 3), means, covs, 3, failed)).all()
        assert failed == {0: expected[1]}
        # in a block of restarts, only the group holding a singular covariance fails, and its rows stay finite
        good = covs[:1].repeat(3, axis=0)
        failed = {}
        coef = gmm._coefficients(np.full(9, 1 / 3), np.zeros((9, 2)), np.vstack([good, covs, covs[::-1]]), 3, failed)
        assert failed == {1: expected[1], 2: "covariance is singular (det=-3.0)"}
        assert coef[:3].tobytes() == reference_coefficients(np.full(3, 1 / 3), means, good).tobytes()
        assert np.isfinite(coef[3:]).all()
        model = MixtureModel(np.full(3, 1 / 3), means, covs, 0.0, 4)
        assert raised(mixture_pdf, model, self.X) == expected

    def test_component_losing_all_responsibility(self):
        x, y = self.X.T.copy()
        resp = np.array([[0.5, 1.0, 0.0, 0.2], [0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 1.0, 0.8]])
        expected = raised(reference_m_step, reference_features(x, y, self.W)[1], 7, resp, 1e-6)
        assert expected == (ReferenceFailure, "a component lost all responsibility")
        # in the block, the restart that loses a component leaves it with that message
        X = mixed_exit_plot().points
        reference = reference_runs(X, 4, MIXED_EXITS)
        kernel = kernel_runs(X, 4, MIXED_EXITS)
        lost = [i for i, run in enumerate(reference) if run == expected[1]]
        assert lost and [kernel[i] for i in lost] == [expected[1]] * len(lost)

    def test_restart_with_a_nan_log_likelihood_fails(self):
        # Restart 0's log-likelihood turns NaN at its last E-step, the 12th (see hairline_plot).  Nothing
        # compares > NaN, so the reference keeps it as best.
        sp = hairline_plot()
        config = FitConfig(regularization=0.0, n_restarts=6, max_iterations=11, seed=0, em_tolerance=1e-3)
        alone = FitConfig(regularization=0.0, n_restarts=1, max_iterations=11, seed=0, em_tolerance=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_runs(sp.points, 4, config)
            got = kernel_runs(sp.points, 4, config)
            model, traces = fit_em_with_trace(sp, 4, config)
            with pytest.raises(DegenerateCovarianceError, match=r"all 1 EM restarts failed: .*not finite \(nan\)"):
                fit_em_with_trace(sp, 4, alone)
        assert math.isnan(expected[0][3]) and len(expected[0][4]) == 12
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


def far_point_plot(seed):
    """40 standard-normal points and one far point (5 to 50 from the origin on each axis, random signs)
    repeated one to three times."""
    rng = np.random.default_rng(seed)
    far = rng.uniform(5.0, 50.0, size=2) * rng.choice([-1.0, 1.0], size=2)
    return Scatterplot(np.vstack([rng.normal(size=(40, 2)), np.repeat(far[None], int(rng.integers(1, 4)), axis=0)]))


@pytest.mark.parametrize("k", [2, 3])
def test_collapse_without_regularization_stays_a_failure(k):
    # Without regularization every restart puts a component on the far point or on two points, whose
    # covariance is singular.  E[x^2] - m^2 leaves a rounding residue there (a variance of about 1e-14 without
    # the clamp to 0), which must not pass as a fit.
    config = FitConfig(regularization=0.0, n_restarts=5, seed=0)
    for seed in range(40):
        with pytest.raises(DegenerateCovarianceError) as info:
            fit_em(far_point_plot(seed), k, config)
        assert str(info.value) == "all 5 EM restarts failed: covariance collapsed to a singular matrix", seed


@pytest.mark.parametrize("plot_seed,seed,k", [(2, 19, 2), (3, 6, 2), (24, 6, 2), (25, 12, 3)])
def test_collapse_is_judged_against_the_variances(plot_seed, seed, k):
    # A component on the far point and one point of the blob, on a line that is not parallel to an axis, has a
    # singular covariance whose determinant xx*yy - xy*xy is rounding residue of either sign.  In these
    # restarts it comes out positive, 1e-16 to 7e-16 of xx*yy, and a det <= 0 rule keeps a converged fit on it
    # (log-likelihood -95 to -90 after 10 to 16 M-steps); a determinant of at most 16 eps xx*yy is a collapse.
    X = far_point_plot(plot_seed).points
    config = FitConfig(regularization=0.0, n_restarts=1, seed=seed)
    assert kernel_runs(X, k, config) == reference_runs(X, k, config) == ["covariance collapsed to a singular matrix"]
    with pytest.raises(DegenerateCovarianceError, match="^all 1 EM restarts failed: covariance collapsed"):
        fit_em(far_point_plot(plot_seed), k, config)


def seeding_cases():
    """200 seeded (X, k, seed) cases: N from 1 to 4000 (log-uniform, and 4000 in every 25th), K from 1 to 10,
    as normal points, as points on a few sites (heavy duplicates), as normal points snapped to a coarse
    lattice, and all points identical (every draw after the first from the total == 0 branch)."""
    cases = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, k = int(np.exp(rng.uniform(0.0, np.log(4000.0)))), int(rng.integers(1, 11))
        n = 4000 if seed % 25 == 0 else n
        kind = seed % 4
        if kind == 0:
            X = rng.normal(size=(n, 2)) * rng.uniform(0.1, 100.0)
        elif kind == 1:
            X = rng.normal(size=(5, 2))[rng.integers(5, size=n)]
        elif kind == 2:
            X = np.round(rng.normal(size=(n, 2)) * 2.0)
        else:
            X = np.tile(rng.normal(size=(1, 2)), (n, 1))
        cases.append((X, k, seed))
    return cases


def test_seeding_draws_what_choice_draws():
    # gmm._kmeanspp_means draws each seed by inverse CDF (cumsum, random(), searchsorted) where the reference
    # calls Generator.choice: the same seeds, bit for bit, and the same generator state after them.
    kinds = {"identical": 0, "duplicates": 0, "n=1": 0}
    for X, k, seed in seeding_cases():
        ours, theirs = spawn_rng(seed, "em", k, 0), spawn_rng(seed, "em", k, 0)
        got = gmm._kmeanspp_means(np.ascontiguousarray(X[:, 0]), np.ascontiguousarray(X[:, 1]), k, ours)
        assert got.tobytes() == reference_kmeanspp(X, k, theirs).tobytes(), seed
        assert ours.bit_generator.state == theirs.bit_generator.state, seed
        distinct = len(np.unique(X, axis=0))
        kinds["identical"] += distinct == 1 and k > 1
        kinds["duplicates"] += 1 < distinct < len(X) / 2
        kinds["n=1"] += len(X) == 1
    assert kinds["identical"] >= 50 and kinds["duplicates"] >= 60 and kinds["n=1"] >= 10, kinds


class StepGenerator(np.random.Generator):
    """A Generator whose ``integers`` gives 0 and whose ``random`` gives the values ``draws`` in turn; its
    ``choice`` draws with that ``random`` too."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = list(draws)

    def integers(self, *args, **kwargs):
        return 0

    def random(self, *args, **kwargs):
        return self.draws.pop(0)


@pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75])
def test_seeding_draw_on_a_cdf_step_picks_as_choice_does(u):
    # After the seed at point 0, the squared distances are (0, 0, 1, 1, 1, 1) and the CDF (0, 0, .25, .5, .75, 1):
    # a draw u on a step picks the point after it (side="left" would pick the one before, at u = 0 a point of
    # probability 0, a second copy of the first seed).
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    got = gmm._kmeanspp_means(np.ascontiguousarray(X[:, 0]), np.ascontiguousarray(X[:, 1]), 2, StepGenerator([u]))
    assert got.tobytes() == reference_kmeanspp(X, 2, StepGenerator([u])).tobytes() == X[[0, 2 + int(u * 4)]].tobytes()


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
        got = kernel_runs(X, 6, self.CONFIG, self.NEED)
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


def fit_bytes(sp, k, config, beat_bic=-math.inf):
    """The bytes of ``fit_em_with_trace``: the model's arrays, log-likelihood and iterations, and each trace."""
    model, traces = fit_em_with_trace(sp, k, config, beat_bic)
    if model is not None:
        model = [np.asarray(v).tobytes() for v in (model.weights, model.means, model.covs, model.log_likelihood,
                                                    model.iterations)]
    return model, [t.tobytes() for t in traces]


class TestEmInputsCache:
    """``gmm._em_inputs`` builds a plot's EM inputs once and holds them for the last plot fitted: no fit depends
    on whether they were held."""

    CONFIG = TestProjectedStop.CONFIG

    @pytest.mark.parametrize("bar", [-math.inf, bic_value(TestProjectedStop.NEED, 6, KERNEL_PLOTS["blobs3"].n)])
    def test_fits_of_k_in_sequence_equal_fits_on_fresh_plots(self, bar):
        sp = Scatterplot(KERNEL_PLOTS["blobs3"].points)
        before = gmm._em_inputs.cache_info()
        in_sequence = [fit_bytes(sp, k, self.CONFIG, bar) for k in range(1, 7)]
        after = gmm._em_inputs.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 5)
        assert in_sequence == [fit_bytes(Scatterplot(sp.points), k, self.CONFIG, bar) for k in range(1, 7)]
        assert not any(a.flags.writeable for a in gmm._em_inputs(sp) if isinstance(a, np.ndarray))

    def test_select_model_groups_the_plot_once(self, monkeypatch, benchmark_plots):
        plot = read_scatterplot_csv(benchmark_plots["pixel"][0])
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *args, **kwargs: calls.append(args) or unique(*args, **kwargs))
        fitted = fitted_ks(monkeypatch)
        select_model(plot, FitConfig())
        assert fitted == [1, 2, 3, 4] and len(calls) == 1

    def test_alternating_plots_each_get_their_own_fit(self):
        plots = [Scatterplot(KERNEL_PLOTS[name].points) for name in ("blobs3", "grid_snapped")]
        alternating = [fit_bytes(sp, k, self.CONFIG) for k in range(1, 5) for sp in plots]
        assert alternating == [fit_bytes(Scatterplot(sp.points), k, self.CONFIG) for k in range(1, 5) for sp in plots]
        assert gmm._em_inputs.cache_info().currsize == 1  # the inputs of the last plot only


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


class TestAlerts:
    """``FitResult.alerts``: the warnings that name a K skipped as degenerate or a K whose kept restart stopped at
    the iteration cap."""

    def test_kept_restart_at_the_cap(self):
        sp = KERNEL_PLOTS["blobs3"]
        res = select_model(sp, FitConfig(k_max=4, max_iterations=3))
        assert [k for k, _ in res.per_k_bic] == [1, 2, 3, 4]
        assert res.alerts == res.warnings == tuple(f"k={k}: the kept restart stopped at the cap of 3 EM iterations"
                                                   for k in (2, 3, 4))
        # K=1 converges after two M-steps, before the cap
        assert fit_em(sp, 1, FitConfig(max_iterations=3)).iterations == 2

    def test_converged_sweep_has_none(self):
        res = select_model(KERNEL_PLOTS["blobs3"], FitConfig(k_max=4))
        assert res.alerts == res.warnings == () and res.model.iterations == 7

    def test_degenerate_k(self):
        sites = Scatterplot(np.repeat([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]], 10, axis=0))
        res = select_model(sites, FitConfig(k_max=3, regularization=0.0))
        assert res.k_star == 1
        assert res.alerts == res.warnings == tuple(
            f"k={k} skipped: all 5 EM restarts failed: covariance collapsed to a singular matrix" for k in (2, 3))


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
        means = [(float(j), 0.0) for j in range(k)]
        return MixtureModel(np.full(k, 1.0 / k), means, [IDENTITY] * k, log_likelihood=bics[k], n_points=scatterplot.n)

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
        assert res.alerts == ("k=4 skipped: all restarts failed",)

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
        assert res.alerts == ()

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
    floor = effective_regularization(plot.points, config)
    assert model.covs[:, 2].min() <= floor * (1 + 1e-9)


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


def fit_bits(result):
    """A ``select_model`` outcome as comparable values: a FitResult's model arrays as bytes, its log-likelihood,
    iterations, ``per_k_bic``, ``warnings`` and ``alerts``; a DegenerateCovarianceError's type and message."""
    if isinstance(result, DegenerateCovarianceError):
        return type(result), str(result)
    model = result.model
    return (model.weights.tobytes(), model.means.tobytes(), model.covs.tobytes(), model.log_likelihood,
            model.n_points, model.iterations, result.per_k_bic, result.warnings, result.alerts)


def one_at_a_time(plots, config) -> list:
    """``select_model`` on each plot: its FitResult, or the DegenerateCovarianceError it raises."""
    results = []
    for plot in plots:
        try:
            results.append(select_model(plot, config))
        except DegenerateCovarianceError as exc:
            results.append(exc)
    return results


def record_blocks(monkeypatch) -> list:
    """The (plots, restarts, K, n) of each ``gmm._run_em`` block run from now on."""
    blocks, run_em = [], gmm._run_em

    def recording_run_em(inputs, k, config, needs):
        blocks.append((len(inputs), config.n_restarts, k, inputs[0][5].shape[1]))
        return run_em(inputs, k, config, needs)

    monkeypatch.setattr(gmm, "_run_em", recording_run_em)
    return blocks


class TestSelectModels:
    """``select_models`` runs the sweeps of plots of equal distinct-point count in lockstep, and gives each plot
    what ``select_model`` gives it alone, bit for bit."""

    @staticmethod
    def plots() -> list:
        """The sweep oracle's 20 grid plots (300 distinct points each) among blob and lattice plots of other
        distinct-point counts, interleaved."""
        from test_sweep_oracle import grid_plot, lattice_plot

        plots = [grid_plot(seed) for seed in range(20)]
        others = [*KERNEL_PLOTS.values(), blob_plot(4, 250, seed=1), *(lattice_plot(seed) for seed in range(4))]
        for i, plot in enumerate(others):
            plots.insert(2 * i + 1, plot)
        return plots

    @pytest.mark.parametrize("config", [FitConfig(), FitConfig(k_max=6, max_iterations=60, n_restarts=3, seed=4)])
    def test_equals_select_model_on_each_plot(self, monkeypatch, config):
        plots = self.plots()
        blocks = record_blocks(monkeypatch)
        batch = select_models(plots, config)
        assert [fit_bits(r) for r in batch] == [fit_bits(r) for r in one_at_a_time(plots, config)]
        # the 20 grid plots share n = 300 and fill blocks of 262144 // (restarts * k_max * 300) plots
        size = gmm.BLOCK_ELEMENTS // (config.n_restarts * config.k_max * 300)
        assert max(p for p, _, _, n in blocks if n == 300) == min(size, 20)
        assert any(alert for r in batch for alert in r.alerts) == (config.max_iterations == 60)

    def test_unfittable_plot_among_fittable_ones(self):
        # two plots of three identical points, which no K fits without regularization, and two triangles,
        # whose K=4 is skipped as more components than points
        same, triangle = Scatterplot(np.repeat([[1.0, 2.0]], 3, axis=0)), Scatterplot([[0, 0], [1, 2], [3, 1]])
        plots = [KERNEL_PLOTS["blobs3"], same, triangle, KERNEL_PLOTS["blobs5"], Scatterplot(same.points + 1.0),
                 Scatterplot(triangle.points * 2.0), KERNEL_PLOTS["four_distinct"]]
        config = FitConfig(k_max=4, regularization=0.0)
        batch = select_models(plots, config)
        assert [fit_bits(r) for r in batch] == [fit_bits(r) for r in one_at_a_time(plots, config)]
        assert [isinstance(r, DegenerateCovarianceError) for r in batch] == [False, True, False, False, True,
                                                                             False, False]
        assert str(batch[1]) == "no component count could be fitted"
        assert batch[2].warnings[-1] == "k=4 skipped: more components than points (N=3)"

    def test_batch_spread_over_several_blocks(self, monkeypatch):
        plots, config = self.plots(), FitConfig(k_max=5)
        expected = [fit_bits(r) for r in one_at_a_time(plots, config)]
        monkeypatch.setattr(gmm, "BLOCK_ELEMENTS", 3 * config.n_restarts * config.k_max * 300)
        blocks = record_blocks(monkeypatch)
        assert [fit_bits(r) for r in select_models(plots, config)] == expected
        assert max(p for p, _, _, n in blocks if n == 300) == 3
        # a block's (groups, K, n) arrays stay within BLOCK_ELEMENTS, however many plots share n
        assert all(p * r * k * n <= gmm.BLOCK_ELEMENTS for p, r, k, n in blocks)

    def test_each_plot_is_sorted_once(self, monkeypatch):
        # the sort that groups a plot by its distinct-point count also builds its EM inputs, and a plot keeps
        # its distinct points: fresh plots, since the shared ones were sorted by earlier tests
        points = [plot.points for plot in KERNEL_PLOTS.values()] + [KERNEL_PLOTS["blobs3"].points + 1.0]
        plots = [Scatterplot(X) for X in points]
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *args, **kwargs: calls.append(args) or unique(*args, **kwargs))
        select_models(plots, FitConfig(k_max=2))
        assert len(calls) == len(plots)
        select_models(plots, FitConfig(k_max=2))
        assert len(calls) == len(plots)

    def test_batch_runs_fewer_e_steps_and_the_same_m_steps(self, monkeypatch, benchmark_plots):
        # the seed-0 score-batch plots, all with n = 500: one E-step of a block serves every plot still
        # sweeping at its K, while every restart runs the M-steps it runs alone
        plots = [read_scatterplot_csv(path) for path in benchmark_plots["batch"]]
        counts = {"E-steps": 0, "M-steps": 0, "restarts": 0}
        posterior, m_step, seed = gmm._posterior, gmm._m_step, gmm._kmeanspp_means

        def counting(name, call, size=lambda *args: 1):
            return lambda *args: counts.__setitem__(name, counts[name] + size(*args)) or call(*args)

        monkeypatch.setattr(gmm, "_posterior", counting("E-steps", posterior))
        monkeypatch.setattr(gmm, "_m_step", counting("M-steps", m_step, lambda stats, *_: len(stats)))
        monkeypatch.setattr(gmm, "_kmeanspp_means", counting("restarts", seed))
        select_models(plots, FitConfig())
        batch, counts = counts, {name: 0 for name in counts}
        one_at_a_time(plots, FitConfig())
        assert batch == {"E-steps": 564, "M-steps": 5145, "restarts": 170}
        assert counts == {"E-steps": 1462, "M-steps": 5145, "restarts": 170}


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

    def test_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("\n\nx,y\n1,2\n3,4\n")
        assert read_scatterplot_csv(path).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("text,line", [("1,2\nx,y\n3,4\n", 2), ("\nx,y\n1,2\n\nx,y\n", 5)])
    def test_header_after_data_rejected(self, tmp_path, text, line):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"row {line}: non-numeric cell in ['x', 'y']")):
            read_scatterplot_csv(path)

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

    @pytest.mark.parametrize("first,message", [("1,abc", "row 1: non-numeric cell in ['1', 'abc']"),
                                               ("\n abc , 1e3 ,", "row 2: non-numeric cell in ['abc', '1e3']"),
                                               ('"1",y', "row 1: non-numeric cell in ['1', 'y']"),
                                               ("nan,y", "row 1: non-numeric cell in ['nan', 'y']")])
    def test_first_row_with_a_numeric_cell_is_not_a_header(self, tmp_path, first, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{first}\n1,2\n3,4\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_scatterplot_csv(path)

    @pytest.mark.parametrize("header", ["x,y", ' "x" , "y" ,,', "inf x,nan y", "1x,2y"])
    def test_header_has_no_numeric_cell(self, tmp_path, header):
        path = tmp_path / "pts.csv"
        path.write_text(f"{header}\n1,2\n3,4\n")
        assert read_scatterplot_csv(path).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def csv_text(points, header, blank_lines, crlf, spaces, exponent, quoted, trailing_empty) -> str:
    """An x,y file of ``points`` in one of the forms the reader takes."""
    def cell(text):  # a space outside a quote would be part of the cell
        text = f" {text} " if spaces else text
        return f'"{text}"' if quoted else text

    newline = "\r\n" if crlf else "\n"
    rows = [",".join(map(cell, ("x", "y")))] if header else []
    rows += [",".join(cell(f"{v:.17e}" if exponent else repr(v)) for v in row) + ",," * trailing_empty
             for row in points.tolist()]
    return newline * (2 * blank_lines) + newline.join(rows) + newline


class TestCsvParse:
    """A well-formed file is parsed by one ``np.loadtxt`` call; whatever that call reads, the per-row reader
    reads to the same bits, and every error is the per-row reader's."""

    POINTS = np.array([[0.0, -0.0], [1.5, -2.25], [1e-300, -3.0e70], [0.1, 1 / 3], [-7.0, 123456789.125]])

    def test_every_form_reads_as_the_per_row_reader_reads_it(self, tmp_path):
        path = tmp_path / "pts.csv"
        for form in itertools.product([False, True], repeat=7):
            path.write_bytes(csv_text(self.POINTS, *form).encode())
            by_row = gmm._read_points_by_row(path)
            at_once = gmm._read_points_at_once(path)
            quoted, trailing_empty = form[5:]
            # loadtxt takes no quoted and no empty cell: those files go to the per-row reader
            assert (at_once is None) == (quoted or trailing_empty), form
            assert by_row.tobytes() == self.POINTS.tobytes(), form
            # a Scatterplot holds 0.0 where the file has -0.0
            assert read_scatterplot_csv(path).points.tobytes() == (by_row + 0.0).tobytes(), form
            if at_once is not None:
                assert at_once.tobytes() == by_row.tobytes(), form

    @pytest.mark.parametrize("text,message", [
        ("x,y\n1,,2\n", "row 2: empty cell"),
        ("x,y\n0,0\n,5\n", "row 3: empty cell"),
        ("x,y\n1,2,3\n", "row 2: expected 2 columns, got 3"),
        ("x,y\r\n1,2\r\n3,\r\n", "row 3: expected 2 columns, got 1"),
        ("\n\nx\n1,2\n", "row 3: expected 2 columns, got 1"),
        ("x,y\n1,2\nx,y\n", "row 3: non-numeric cell in ['x', 'y']"),
        ("x,y\n1.0,oops\n", "row 2: non-numeric cell in ['1.0', 'oops']"),
        ("x,y\n1,1_000\n2,2\n3,#\n", "row 4: non-numeric cell in ['3', '#']"),
        ("", "no data rows"),
        ("x,y\n", "no data rows"),
        ("\n \n,,\n", "no data rows"),
        ("x,y\n1,inf\n", "coordinates must be finite and within +-2.89e+76 to be fitted"),
        ("1,2\n-1e300,0\n", "coordinates must be finite and within +-2.89e+76 to be fitted"),
    ])
    def test_errors_are_the_per_row_readers(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as exc:
            read_scatterplot_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text,points", [
        ('x,y\n"1",2\n', [[1.0, 2.0]]),
        ("x,y\n1,2\n  \n,,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("x,y\n1_0,\u0662\n", [[10.0, 2.0]]),
        ("x,y\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
    ])
    def test_what_loadtxt_rejects_the_per_row_reader_reads(self, tmp_path, text, points):
        path = tmp_path / "pts.csv"
        path.write_bytes(text.encode())
        assert read_scatterplot_csv(path).points.tolist() == points

    @pytest.mark.parametrize("text", [
        '"x","y"\n1,2\n3,-4.5\n',
        ' "x" , "y" ,,\n1,2\n3,-4.5\n',
        "x,y\r1,2\r3,-4.5\r",
        "\r\rx,y\r1,2\r3,-4.5",
        '"x\nlabel",y\n1,2\n3,-4.5\n',
        '\n"x\r\nlabel","y\rlabel"\r\n1,2\r\n3,-4.5\r\n',
        "\ufeffx,y\n1,2\n3,-4.5\n",
        "\ufeff1,2\n3,-4.5\n",
        "\ufeff\n\nx,y\r\n1,2\r\n3,-4.5\r\n",
    ])
    def test_header_forms_are_parsed_at_once(self, tmp_path, text):
        # the header is the first row as the csv module reads it, whatever its quotes, line ends or BOM
        path = tmp_path / "pts.csv"
        path.write_bytes(text.encode())
        at_once = gmm._read_points_at_once(path)
        assert at_once is not None
        assert at_once.tobytes() == gmm._read_points_by_row(path).tobytes() == np.array([[1, 2], [3, -4.5]]).tobytes()

    @pytest.mark.parametrize("text", ["x,y\n", "\ufeffx,y\n\n \n,,\n", "", "\n\n", " \n,,\n\t\n", "\ufeff"])
    def test_no_data_row_gives_none_without_a_warning(self, tmp_path, text):
        path = tmp_path / "pts.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gmm._read_points_at_once(path) is None
        with pytest.raises(ValueError, match="no data rows"):
            read_scatterplot_csv(path)

    @pytest.mark.parametrize("text,message", [
        ('1,"2\n3,4\n', "row 2: non-numeric cell in ['1', '2\\n3,4']"),
        ('"1\n2,3\n', "row 2: expected 2 columns, got 1"),
        ('"x\n1,2\n3,4\n', "row 3: expected 2 columns, got 1"),
    ])
    def test_a_data_row_quoted_to_the_end_is_read_from_its_first_line(self, tmp_path, text, message):
        # the first row runs over every line: read from its last line, the file would parse
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        assert gmm._read_points_at_once(path) is None
        with pytest.raises(ValueError) as exc:
            read_scatterplot_csv(path)
        assert str(exc.value) == f"{path}: {message}"


class TestDistinctPoints:
    """``Scatterplot(X).distinct`` is what ``np.unique(X + 0.0, axis=0, return_counts=True)`` returns, bit for
    bit: a Scatterplot holds 0.0 for each -0.0 of X."""

    @staticmethod
    def assert_as_unique(X):
        rows, counts = Scatterplot(X).distinct
        want_rows, want_counts = np.unique(X + 0.0, axis=0, return_counts=True)
        assert (rows.shape, rows.dtype, counts.dtype) == (want_rows.shape, want_rows.dtype, want_counts.dtype)
        assert rows.tobytes() == want_rows.tobytes() and counts.tobytes() == want_counts.tobytes()

    @pytest.mark.parametrize("X", [[[0.0, 1.0], [-0.0, 1.0]], [[-0.0, 1.0], [0.0, 1.0]],
                                   [[1.0, 0.0], [1.0, -0.0], [1.0, 0.0]], [[1.0, -0.0], [1.0, 0.0], [-0.0, 0.0]]])
    def test_signed_zeros(self, X):
        self.assert_as_unique(np.array(X))

    def test_many_signed_zeros(self):
        X = np.random.default_rng(0).choice([-0.0, 0.0, 1.0, -1.0], size=(500, 2))
        self.assert_as_unique(X)
        self.assert_as_unique(X[::-1].copy())

    @pytest.mark.parametrize("X", [np.ones((1, 2)), np.array([[2.5, -1.0]]), np.repeat([[3.0, -4.0]], 50, axis=0)])
    def test_one_point_and_identical_points(self, X):
        self.assert_as_unique(X)

    @pytest.mark.parametrize("seed", range(4))
    def test_lattice_plots(self, seed):
        from test_sweep_oracle import lattice_plot

        self.assert_as_unique(lattice_plot(seed).points)

    @pytest.mark.parametrize("name", KERNEL_PLOTS)
    def test_kernel_plots(self, name):
        self.assert_as_unique(KERNEL_PLOTS[name].points)

    def test_pixel_plot(self, benchmark_plots):
        X = read_scatterplot_csv(benchmark_plots["pixel"][0]).points
        self.assert_as_unique(X)
        assert len(Scatterplot(X).distinct[0]) < len(X)

    def test_read_only_and_found_once(self, monkeypatch):
        plot = Scatterplot(KERNEL_PLOTS["grid_snapped"].points)
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *args, **kwargs: calls.append(args) or unique(*args, **kwargs))
        assert plot.distinct is plot.distinct
        assert len(calls) == 1
        assert not any(a.flags.writeable for a in plot.distinct)


class TestScatterplot:
    @pytest.mark.parametrize("X", [[[-0.0, 1.0], [2.0, -0.0]], [[-0.0, -0.0]] * 3,
                                   np.array([[-0.0, 1.0, 2.0], [0.0, -0.0, 3.0]]).T])
    def test_holds_no_negative_zero(self, X):
        plot = Scatterplot(X)
        assert not np.signbit(plot.points[plot.points == 0.0]).any()
        assert plot.points.tobytes() == (np.asarray(X, dtype=float) + 0.0).tobytes()
        assert plot.points.flags.c_contiguous and not plot.points.flags.writeable

    def test_does_not_share_the_callers_array(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        plot = Scatterplot(X)
        X[0, 0] = 9.0
        assert plot.points[0, 0] == 1.0
