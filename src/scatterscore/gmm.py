"""Bivariate Gaussian mixture fitting for scatterplot density modeling.

Fits full-covariance mixtures with EM over a range of component counts,
selects the count with the Bayesian Information Criterion, and evaluates
mixture densities.  All fitting is a pure function of (points, config):
restarts and initialization draw from seeds derived with
:func:`scatterscore.util.derive_seed`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .util import read_rows, spawn_rng, write_csv

LOG_2PI = math.log(2.0 * math.pi)


class DegenerateCovarianceError(ValueError):
    """Covariance matrix is singular or collapsed during fitting."""


class Point2D(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class Covariance2:
    """Symmetric 2x2 covariance stored as (xx, xy, yy)."""

    xx: float
    xy: float
    yy: float

    def __post_init__(self):
        for name in ("xx", "xy", "yy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"covariance entry {name} is not finite")
        if self.xx < 0.0 or self.yy < 0.0:
            raise ValueError("variances must be non-negative")

    @property
    def det(self) -> float:
        return self.xx * self.yy - self.xy * self.xy

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.xx, self.xy], [self.xy, self.yy]], dtype=float)

    @classmethod
    def from_matrix(cls, m) -> "Covariance2":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(xx=float(m[0, 0]), xy=float(0.5 * (m[0, 1] + m[1, 0])), yy=float(m[1, 1]))


@dataclass(frozen=True)
class GaussianComponent:
    weight: float
    mean: Point2D
    cov: Covariance2

    def __post_init__(self):
        if not (0.0 < self.weight <= 1.0):
            raise ValueError(f"component weight must be in (0, 1], got {self.weight}")
        if not (math.isfinite(self.mean[0]) and math.isfinite(self.mean[1])):
            raise ValueError("component mean must be finite")


@dataclass(frozen=True)
class MixtureModel:
    """Weighted bivariate Gaussian mixture with its training log-likelihood."""

    components: tuple[GaussianComponent, ...]
    log_likelihood: float
    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise ValueError("mixture needs at least one component")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights sum to {total}, expected 1")

    @property
    def k(self) -> int:
        return len(self.components)


@dataclass(frozen=True, eq=False)
class Scatterplot:
    """Ordered set of N >= 1 finite 2D points, the raw unit of scoring."""

    points: np.ndarray
    id: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"expected an (N, 2) point array with N >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("scatterplot points must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class FitConfig:
    """Knobs for EM fitting and BIC model selection.

    ``regularization`` is relative to the data variance scale (mean of the
    two coordinate variances); the product is added to the covariance
    diagonal at every M-step to prevent collapse.  When the data variance
    is zero the factor is applied as an absolute amount.
    """

    k_max: int = 10
    em_tolerance: float = 1e-8
    max_iterations: int = 500
    n_restarts: int = 5
    regularization: float = 1e-6
    seed: int = 0
    bic_penalty_mode: str = "free_parameter_count"

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.em_tolerance <= 0.0:
            raise ValueError("em_tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if self.regularization < 0.0:
            raise ValueError("regularization must be >= 0")
        if self.bic_penalty_mode not in ("component_count", "free_parameter_count"):
            raise ValueError(f"unknown bic_penalty_mode {self.bic_penalty_mode!r}")


@dataclass(frozen=True)
class FitResult:
    model: MixtureModel
    bic: float
    k_star: int
    per_k_bic: tuple[tuple[int, float], ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "per_k_bic", tuple((int(k), float(b)) for k, b in self.per_k_bic))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if self.k_star != self.model.k:
            raise ValueError("k_star must match the selected model's component count")


# ---------------------------------------------------------------------------
# Density evaluation


def gaussian_density(point, mean, cov: Covariance2) -> float:
    """det(2*pi*Sigma)^(-1/2) * exp(-1/2 (x-mu)^T Sigma^-1 (x-mu))."""
    det = cov.det
    if det <= 0.0:
        raise DegenerateCovarianceError(f"covariance is singular (det={det})")
    dx = float(point[0]) - float(mean[0])
    dy = float(point[1]) - float(mean[1])
    quad = (cov.yy * dx * dx - 2.0 * cov.xy * dx * dy + cov.xx * dy * dy) / det
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def _component_log_pdf(X: np.ndarray, mean: np.ndarray, xx: float, xy: float, yy: float) -> np.ndarray:
    det = xx * yy - xy * xy
    if not (det > 0.0 and np.isfinite(det)):
        raise DegenerateCovarianceError(f"covariance is singular (det={det})")
    d0 = X[:, 0] - mean[0]
    d1 = X[:, 1] - mean[1]
    quad = (yy * d0 * d0 - 2.0 * xy * d0 * d1 + xx * d1 * d1) / det
    return -0.5 * quad - 0.5 * math.log(det) - LOG_2PI


def _mixture_log_pdf_matrix(model: MixtureModel, X: np.ndarray) -> np.ndarray:
    """(N, K) matrix of log(pi_k) + log g_k(x)."""
    cols = []
    for comp in model.components:
        lp = _component_log_pdf(
            X,
            np.array(comp.mean, dtype=float),
            comp.cov.xx,
            comp.cov.xy,
            comp.cov.yy,
        )
        cols.append(math.log(comp.weight) + lp)
    return np.column_stack(cols)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=1, keepdims=True))).ravel()


def mixture_pdf(model: MixtureModel, points) -> np.ndarray:
    """Mixture density at each row of an (N, 2) array."""
    X = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.exp(_logsumexp_rows(_mixture_log_pdf_matrix(model, X)))


def mixture_density(model: MixtureModel, point) -> float:
    """sum_k pi_k g_k(x); strictly positive."""
    return float(mixture_pdf(model, np.asarray(point, dtype=float).reshape(1, 2))[0])


def map_assign(model: MixtureModel, point) -> int:
    """Index of the component maximizing pi_k g_k(x); ties -> lowest index."""
    scores = [c.weight * gaussian_density(point, c.mean, c.cov) for c in model.components]
    return int(np.argmax(scores))


# ---------------------------------------------------------------------------
# EM fitting


class _FitFailure(Exception):
    pass


def _kmeanspp_means(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def _pooled_covariance(X: np.ndarray) -> np.ndarray:
    d = X - X.mean(axis=0)
    return d.T @ d / X.shape[0]


def _e_step(X, weights, means, covs):
    """Returns (responsibilities, log-likelihood) for current parameters."""
    n, k = X.shape[0], weights.shape[0]
    logp = np.empty((n, k))
    for j in range(k):
        logp[:, j] = math.log(weights[j]) + _component_log_pdf(
            X, means[j], covs[j, 0], covs[j, 1], covs[j, 2]
        )
    lse = _logsumexp_rows(logp)
    resp = np.exp(logp - lse[:, None])
    return resp, float(lse.sum())


def _m_step(X, resp, reg):
    n, k = resp.shape
    nk = resp.sum(axis=0)
    if np.any(nk < 1e-10):
        raise _FitFailure("a component lost all responsibility")
    weights = nk / n
    means = (resp.T @ X) / nk[:, None]
    covs = np.empty((k, 3))
    for j in range(k):
        d0 = X[:, 0] - means[j, 0]
        d1 = X[:, 1] - means[j, 1]
        r = resp[:, j]
        covs[j, 0] = (r * d0 * d0).sum() / nk[j] + reg
        covs[j, 1] = (r * d0 * d1).sum() / nk[j]
        covs[j, 2] = (r * d1 * d1).sum() / nk[j] + reg
        if covs[j, 0] * covs[j, 2] - covs[j, 1] ** 2 <= 0.0:
            raise _FitFailure("covariance collapsed to a singular matrix")
    return weights, means, covs


def _run_em(X: np.ndarray, k: int, config: FitConfig, reg: float, restart: int):
    rng = spawn_rng(config.seed, "em", k, restart)
    means = _kmeanspp_means(X, k, rng)
    pooled = _pooled_covariance(X)
    cov0 = np.array([pooled[0, 0] + reg, pooled[0, 1], pooled[1, 1] + reg])
    if cov0[0] * cov0[2] - cov0[1] ** 2 <= 0.0:
        raise _FitFailure("initial pooled covariance is singular")
    covs = np.tile(cov0, (k, 1))
    weights = np.full(k, 1.0 / k)

    trace = []
    prev = None
    for _ in range(config.max_iterations):
        resp, loglik = _e_step(X, weights, means, covs)
        trace.append(loglik)
        if prev is not None and loglik - prev <= config.em_tolerance * max(1.0, abs(prev)):
            return weights, means, covs, loglik, np.array(trace)
        prev = loglik
        weights, means, covs = _m_step(X, resp, reg)
    _, loglik = _e_step(X, weights, means, covs)
    trace.append(loglik)
    return weights, means, covs, loglik, np.array(trace)


def _effective_regularization(X: np.ndarray, config: FitConfig) -> float:
    scale = float(X.var(axis=0).mean())
    if scale <= 0.0:
        scale = 1.0
    return config.regularization * scale


def _build_model(weights, means, covs, loglik, n) -> MixtureModel:
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    comps = tuple(
        GaussianComponent(
            weight=float(weights[j]),
            mean=Point2D(float(means[j, 0]), float(means[j, 1])),
            cov=Covariance2(float(covs[j, 0]), float(covs[j, 1]), float(covs[j, 2])),
        )
        for j in range(weights.shape[0])
    )
    return MixtureModel(components=comps, log_likelihood=float(loglik), n_points=int(n))


def fit_em_with_trace(scatterplot: Scatterplot, k: int, config: FitConfig):
    """Fit a k-component mixture; also return per-restart log-likelihood traces.

    Runs ``config.n_restarts`` EM runs from k-means++-style seedings and
    keeps the best final log-likelihood.  Raises
    :class:`DegenerateCovarianceError` when every restart collapses
    (e.g. all points identical with zero regularization).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scatterplot.n < k:
        raise ValueError(f"need at least k={k} points, got N={scatterplot.n}")
    X = scatterplot.points
    reg = _effective_regularization(X, config)

    best = None
    traces: list[np.ndarray] = []
    last_failure = "no restart attempted"
    for restart in range(config.n_restarts):
        try:
            weights, means, covs, loglik, trace = _run_em(X, k, config, reg, restart)
        except (_FitFailure, DegenerateCovarianceError) as exc:
            last_failure = str(exc)
            continue
        traces.append(trace)
        if best is None or loglik > best[3]:
            best = (weights, means, covs, loglik)
    if best is None:
        raise DegenerateCovarianceError(f"all {config.n_restarts} EM restarts failed: {last_failure}")
    return _build_model(*best, scatterplot.n), traces


def fit_em(scatterplot: Scatterplot, k: int, config: FitConfig) -> MixtureModel:
    model, _ = fit_em_with_trace(scatterplot, k, config)
    return model


def bic_value(log_likelihood: float, k: int, n_points: int, mode: str = "free_parameter_count") -> float:
    """2L - penalty*log(N); penalty is K or the free parameter count 6K-1."""
    if mode == "component_count":
        penalty = k
    elif mode == "free_parameter_count":
        penalty = 6 * k - 1  # K-1 weights + 2K means + 3K covariance entries
    else:
        raise ValueError(f"unknown bic_penalty_mode {mode!r}")
    return 2.0 * log_likelihood - penalty * math.log(n_points)


def select_model(scatterplot: Scatterplot, config: FitConfig) -> FitResult:
    """Fit K = 1..k_max and return the BIC-maximizing fit.

    K values that cannot be fitted (K > N, or degenerate fits) are skipped
    and recorded in ``FitResult.warnings``.
    """
    if scatterplot.n < 2:
        raise ValueError("model selection needs at least 2 points")
    per_k: list[tuple[int, float]] = []
    warnings: list[str] = []
    best_model = None
    best_bic = -math.inf
    best_k = 0
    for k in range(1, config.k_max + 1):
        if k > scatterplot.n:
            warnings.append(f"k={k} skipped: more components than points (N={scatterplot.n})")
            continue
        try:
            model = fit_em(scatterplot, k, config)
        except DegenerateCovarianceError as exc:
            warnings.append(f"k={k} skipped: {exc}")
            continue
        bic = bic_value(model.log_likelihood, k, scatterplot.n, config.bic_penalty_mode)
        per_k.append((k, bic))
        if bic > best_bic:
            best_model, best_bic, best_k = model, bic, k
    if best_model is None:
        raise DegenerateCovarianceError("no component count could be fitted")
    return FitResult(
        model=best_model,
        bic=best_bic,
        k_star=best_k,
        per_k_bic=tuple(per_k),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# I/O


def read_scatterplot_csv(path, plot_id: str | None = None) -> Scatterplot:
    """Read a two-column x,y CSV (header row optional)."""
    rows: list[tuple[float, float]] = []
    for line, cells in read_rows(path):
        cells = [c for c in cells if c]
        if len(cells) != 2:
            raise ValueError(f"{path}: row {line}: expected 2 columns, got {len(cells)}")
        try:
            rows.append((float(cells[0]), float(cells[1])))
        except ValueError:
            if line == 1:  # header row
                continue
            raise ValueError(f"{path}: row {line}: non-numeric cell in {cells!r}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Scatterplot(points=np.array(rows, dtype=float), id=plot_id)


def write_scatterplot_csv(path, scatterplot: Scatterplot) -> None:
    write_csv(path, ("x", "y"), scatterplot.points.tolist())
