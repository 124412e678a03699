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


def _centre(x: np.ndarray, y: np.ndarray, means: np.ndarray, buf: np.ndarray) -> None:
    """x and y minus each of the K means, into buf[2] and buf[3] of a (4, K, n) scratch array."""
    np.subtract(x, means[:, :1], out=buf[2])
    np.subtract(y, means[:, 1:], out=buf[3])


def _log_joint(weights, covs, buf: np.ndarray) -> np.ndarray:
    """(K, n) array of log(pi_k) + log g_k(p), in buf[0] of a (4, K, n) scratch array whose buf[2] and
    buf[3] hold the points centred by :func:`_centre`; covs rows are (xx, xy, yy).  Each element gets
    the operations, in the order, of a loop over components."""
    columns = []
    for (xx, xy, yy), weight in zip(np.asarray(covs, dtype=float).tolist(), weights):
        det = xx * yy - xy * xy
        if not (det > 0.0 and math.isfinite(det)):
            raise DegenerateCovarianceError(f"covariance is singular (det={det})")
        # math.log, not np.log: the two can differ in the last bit
        columns.append((-0.5 * yy / det, xy / det, 0.5 * xx / det, 0.5 * math.log(det) + LOG_2PI, math.log(weight)))
    a, b, c, log_norm, log_weight = np.array(columns).T[:, :, None]
    lp, t, d0, d1 = buf
    # -quad/2 with quad = (yy*d0^2 - 2*xy*d0*d1 + xx*d1^2) / det
    np.multiply(a, d0, out=lp)
    lp += np.multiply(b, d1, out=t)
    lp *= d0
    lp -= np.multiply(np.multiply(c, d1, out=t), d1, out=t)
    lp -= log_norm
    lp += log_weight
    return lp


def _posterior(logp: np.ndarray):
    """Column-normalized exp(logp), computed in place, and the log of its column sums."""
    m = logp.max(axis=0)
    logp -= m
    np.exp(logp, out=logp)
    total = logp.sum(axis=0)
    logp /= total
    return logp, m + np.log(total)


def mixture_pdf(model: MixtureModel, points) -> np.ndarray:
    """Mixture density at each row of an (N, 2) array."""
    x, y = np.ascontiguousarray(np.asarray(points, dtype=float).reshape(-1, 2).T)
    comps = model.components
    buf = np.empty((4, len(comps), x.shape[0]))
    _centre(x, y, np.array([c.mean for c in comps], dtype=float), buf)
    logp = _log_joint([c.weight for c in comps], [(c.cov.xx, c.cov.xy, c.cov.yy) for c in comps], buf)
    return np.exp(_posterior(logp)[1])


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


def _e_step(w, weights, covs, buf) -> float:
    """Log-likelihood of the centred points in buf with counts w; leaves the (K, n) responsibilities in buf[0]."""
    _, lse = _posterior(_log_joint(weights, covs, buf))
    return float((w * lse).sum())


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[j] @ b[j] for every row j; bitwise equal to the 1-D dot products."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _m_step(x, y, w, n_points, reg, buf):
    """Weights, means and covariances from the responsibilities in buf[0]; overwrites buf, leaving the
    points centred on the new means for the next E-step."""
    rw, rd, d0, d1 = buf
    rw *= w
    nk = rw.sum(axis=1)
    if any(v < 1e-10 for v in nk.tolist()):
        raise _FitFailure("a component lost all responsibility")
    weights = nk / n_points
    means = (np.array([rw @ x, rw @ y]) / nk).T
    _centre(x, y, means, buf)
    np.multiply(rw, d0, out=rd)
    covs = np.empty((rw.shape[0], 3))
    covs[:, 0] = _row_dots(rd, d0) / nk + reg
    covs[:, 1] = _row_dots(rd, d1) / nk
    covs[:, 2] = _row_dots(np.multiply(rw, d1, out=rd), d1) / nk + reg
    # scalar pow for xy**2, as in _run_em's first check: np.square can differ in the last bit
    if any(xx * yy - xy**2 <= 0.0 for xx, xy, yy in covs.tolist()):
        raise _FitFailure("covariance collapsed to a singular matrix")
    return weights, means, covs


def _run_em(X: np.ndarray, grouped, k: int, config: FitConfig, reg: float, restart: int):
    """One EM run: seeded and scaled on all of X, iterated on its distinct points."""
    rng = spawn_rng(config.seed, "em", k, restart)
    means = _kmeanspp_means(X, k, rng)
    pooled = _pooled_covariance(X)
    cov0 = np.array([pooled[0, 0] + reg, pooled[0, 1], pooled[1, 1] + reg])
    if cov0[0] * cov0[2] - cov0[1] ** 2 <= 0.0:
        raise _FitFailure("initial pooled covariance is singular")
    covs = np.tile(cov0, (k, 1))
    weights = np.full(k, 1.0 / k)

    x, y, w = grouped
    buf = np.empty((4, k, x.shape[0]))
    _centre(x, y, means, buf)
    trace = []
    for _ in range(config.max_iterations + 1):
        loglik = _e_step(w, weights, covs, buf)
        converged = bool(trace) and loglik - trace[-1] <= config.em_tolerance * max(1.0, abs(trace[-1]))
        trace.append(loglik)
        if converged or len(trace) > config.max_iterations:
            break
        weights, means, covs = _m_step(x, y, w, X.shape[0], reg, buf)
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
    keeps the best final log-likelihood.  EM iterates over the distinct
    points, each weighted by how often it occurs, which gives the same
    likelihood as iterating over all N; seeding and the regularization
    scale use all N points.  Raises :class:`DegenerateCovarianceError`
    when every restart collapses (e.g. all points identical with zero
    regularization).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scatterplot.n < k:
        raise ValueError(f"need at least k={k} points, got N={scatterplot.n}")
    X = scatterplot.points
    reg = _effective_regularization(X, config)
    distinct, counts = np.unique(X, axis=0, return_counts=True)
    x, y = np.ascontiguousarray(distinct.T)
    grouped = (x, y, counts.astype(float))

    best = None
    traces: list[np.ndarray] = []
    last_failure = "no restart attempted"
    for restart in range(config.n_restarts):
        try:
            weights, means, covs, loglik, trace = _run_em(X, grouped, k, config, reg, restart)
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
    """Read a two-column x,y CSV (header row optional).

    Trailing empty cells are ignored; any other empty cell is an error.
    """
    rows: list[tuple[float, float]] = []
    for line, cells in read_rows(path):
        while not cells[-1]:
            cells.pop()
        if not all(cells):
            raise ValueError(f"{path}: row {line}: empty cell")
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
