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
# Largest coordinate magnitude that can be fitted: a covariance determinant is of the order of the
# coordinate spread to the fourth power, and (2 * COORD_LIMIT)**4 stays a sixteenth below the float maximum.
COORD_LIMIT = float(np.finfo(float).max) ** 0.25 / 4
# The K sweep stops once this many consecutive fitted K have not raised the best BIC.
BIC_PATIENCE = 2
# A restart of a K that needs a log-likelihood L* to beat the best BIC so far stops once it has run STOP_AFTER
# M-steps, its last step is at most STOP_STEP * |L|, its steps shrink, and Aitken's projection of their limit
# is more than STOP_MARGIN below L*.  A heuristic: a late jump (a component settling on one lattice row) can
# beat the projection.
STOP_AFTER = 50
STOP_STEP = 1e-3
STOP_MARGIN = 2.0


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
    """Ordered set of N >= 1 2D points within +-COORD_LIMIT, the raw unit of scoring."""

    points: np.ndarray
    id: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"expected an (N, 2) point array with N >= 1, got shape {arr.shape}")
        if not np.all(np.abs(arr) <= COORD_LIMIT):
            raise ValueError(f"coordinates must be finite and within +-{COORD_LIMIT:.3g} to be fitted")
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
        if not (math.isfinite(self.em_tolerance) and self.em_tolerance > 0.0):
            raise ValueError(f"em_tolerance must be finite and > 0, got {self.em_tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if not (math.isfinite(self.regularization) and self.regularization >= 0.0):
            raise ValueError(f"regularization must be finite and >= 0, got {self.regularization}")
        if self.bic_penalty_mode not in ("component_count", "free_parameter_count"):
            raise ValueError(f"unknown bic_penalty_mode {self.bic_penalty_mode!r}")


@dataclass(frozen=True)
class FitResult:
    """The BIC-selected fit.  ``per_k_bic`` holds, for each fitted K, the BIC of its best completed restart;
    a K whose restarts all stopped early is left out and named in ``warnings``."""

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
#
# The kernel works on groups of k rows, one group per mixture: a (4, R*k, n) scratch array holds, for R
# mixtures of k components each, one row per component in each of four planes.


def _centre(x: np.ndarray, y: np.ndarray, means: np.ndarray, buf: np.ndarray) -> None:
    """x and y minus each row of means, into buf[2] and buf[3] of a (4, rows, n) scratch array."""
    np.subtract(x, means[:, :1], out=buf[2])
    np.subtract(y, means[:, 1:], out=buf[3])


def _log_joint(weights, covs, buf: np.ndarray, k: int, failed: dict) -> np.ndarray:
    """(rows, n) array of log(pi_j) + log g_j(p), in buf[0] of a (4, rows, n) scratch array whose buf[2]
    and buf[3] hold the points centred by :func:`_centre`; covs rows are (xx, xy, yy).  Each element gets
    the operations, in the order, of a loop over components.  Each group i of k rows that is not in
    ``failed`` and has a singular covariance is added to it, with a message naming the group's first; the
    rows of every group in ``failed`` get finite values that mean nothing."""
    covs = np.array(covs, dtype=float)
    det = covs[:, 0] * covs[:, 2] - covs[:, 1] * covs[:, 1]
    for j in np.flatnonzero(~((det > 0.0) & np.isfinite(det))).tolist():
        failed.setdefault(j // k, f"covariance is singular (det={det[j].item()})")
    for i in failed:
        covs[i * k:(i + 1) * k] = 0.0
        det[i * k:(i + 1) * k] = 1.0
    xx, xy, yy = covs.T
    with np.errstate(over="ignore"):  # as Python floats would, a near-singular det gives inf columns
        a, b, c = (-0.5 * yy / det)[:, None], (xy / det)[:, None], (0.5 * xx / det)[:, None]
    # math.log, not np.log: the two can differ in the last bit
    log_norm = np.array([0.5 * math.log(d) + LOG_2PI for d in det.tolist()])[:, None]
    log_weight = np.array([math.log(v) for v in np.asarray(weights, dtype=float).tolist()])[:, None]
    lp, t, d0, d1 = buf
    # -quad/2 with quad = (yy*d0^2 - 2*xy*d0*d1 + xx*d1^2) / det
    np.multiply(a, d0, out=lp)
    lp += np.multiply(b, d1, out=t)
    lp *= d0
    lp -= np.multiply(np.multiply(c, d1, out=t), d1, out=t)
    lp -= log_norm
    lp += log_weight
    return lp


def _posterior(logp: np.ndarray, k: int):
    """exp(logp) normalized over each group of k rows, computed in place, and the (groups, n) log of the
    group sums."""
    groups = logp.reshape(-1, k, logp.shape[1])
    m = groups.max(axis=1)
    groups -= m[:, None]
    np.exp(logp, out=logp)
    total = groups.sum(axis=1)
    groups /= total[:, None]
    return logp, m + np.log(total)


def mixture_pdf(model: MixtureModel, points) -> np.ndarray:
    """Mixture density at each row of an (N, 2) array."""
    x, y = np.ascontiguousarray(np.asarray(points, dtype=float).reshape(-1, 2).T)
    comps = model.components
    buf = np.empty((4, len(comps), x.shape[0]))
    _centre(x, y, np.array([c.mean for c in comps], dtype=float), buf)
    failed: dict = {}
    logp = _log_joint([c.weight for c in comps], [(c.cov.xx, c.cov.xy, c.cov.yy) for c in comps], buf, len(comps),
                      failed)
    if failed:
        raise DegenerateCovarianceError(failed[0])
    return np.exp(_posterior(logp, len(comps))[1][0])


# ---------------------------------------------------------------------------
# EM fitting


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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[j] @ b[j] for every row j; bitwise equal to the 1-D dot products."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _m_step(x, y, nk, n_points, reg, buf, k: int):
    """Weights, means and covariances from the count-weighted responsibilities in buf[0] and their row
    sums nk; overwrites buf, leaving the points centred on the new means for the next E-step."""
    rw, rd, d0, d1 = buf
    weights = nk / n_points
    # one product per group: on stacked groups BLAS can round the last bit differently
    sums = [(rw[j:j + k] @ x, rw[j:j + k] @ y) for j in range(0, rw.shape[0], k)]
    means = (np.concatenate(sums, axis=1) / nk).T
    _centre(x, y, means, buf)
    np.multiply(rw, d0, out=rd)
    covs = np.empty((rw.shape[0], 3))
    covs[:, 0] = _row_dots(rd, d0) / nk + reg
    covs[:, 1] = _row_dots(rd, d1) / nk
    covs[:, 2] = _row_dots(np.multiply(rw, d1, out=rd), d1) / nk + reg
    return weights, means, covs


def _leave(buf: np.ndarray, k: int, live: list, ended: dict, outcomes: list) -> np.ndarray:
    """Set ``outcomes[live[i]] = ended[i]`` for each group i in ended, drop those groups from live and move
    the k rows of each other group down in every plane of buf; returns the kept rows' former indices."""
    kept = [i for i in range(len(live)) if i not in ended]
    for i, outcome in ended.items():
        outcomes[live[i]] = outcome
    for new, old in enumerate(kept):
        if new != old:
            buf[:, new * k:(new + 1) * k] = buf[:, old * k:(old + 1) * k]
    live[:] = [live[i] for i in kept]
    return (np.array(kept, dtype=np.intp)[:, None] * k + np.arange(k)).ravel()


def _aitken_limit(trace: list) -> float:
    """Aitken's projection of the limit of a log-likelihood trace from its last three values; +inf unless the
    last step is at most STOP_STEP * |L| and the steps are positive and shrinking."""
    before, last = trace[-2] - trace[-3], trace[-1] - trace[-2]
    if not (last <= STOP_STEP * abs(trace[-1]) and before > 0.0 and 0.0 <= last / before < 1.0):
        return math.inf
    return trace[-2] + last / (1.0 - last / before)


def _run_em(X: np.ndarray, grouped, k: int, config: FitConfig, reg: float, need: float = -math.inf) -> list:
    """The ``config.n_restarts`` EM runs of one K in lockstep, as one block with a group of k rows per run:
    seeded and scaled on all of X, iterated on its distinct points.  A run leaves the block after the
    E-step in which it converges, reaches ``max_iterations``, fails (a singular covariance, a lost
    component, or a log-likelihood that is not finite at the end) or stops because its projected
    log-likelihood stays below ``need`` (see STOP_AFTER).  Returns each run's (weights, means, covs, loglik,
    trace), its trace alone if it stopped, or the message of its failure, in restart order."""
    n_runs = config.n_restarts
    pooled = _pooled_covariance(X)
    cov0 = np.array([pooled[0, 0] + reg, pooled[0, 1], pooled[1, 1] + reg])
    if cov0[0] * cov0[2] - cov0[1] ** 2 <= 0.0:
        return ["initial pooled covariance is singular"] * n_runs
    means = np.concatenate([_kmeanspp_means(X, k, spawn_rng(config.seed, "em", k, r)) for r in range(n_runs)])
    covs = np.tile(cov0, (n_runs * k, 1))
    weights = np.full(n_runs * k, 1.0 / k)

    x, y, w = grouped
    buf = np.empty((4, n_runs * k, x.shape[0]))
    _centre(x, y, means, buf)
    live, outcomes, traces = list(range(n_runs)), [None] * n_runs, [[] for _ in range(n_runs)]
    ended: dict = {}  # group -> outcome of each run that leaves after this E-step
    while True:
        block = buf[:, :len(live) * k]
        logp = _log_joint(weights, covs, block, k, ended)
        logliks = (w * _posterior(logp, k)[1]).sum(axis=1).tolist()
        nk = np.multiply(block[0], w, out=block[0]).sum(axis=1)
        nks = nk.tolist()
        for i, (trace, loglik) in enumerate(zip([traces[r] for r in live], logliks)):
            if i in ended:
                continue
            converged = bool(trace) and loglik - trace[-1] <= config.em_tolerance * max(1.0, abs(trace[-1]))
            trace.append(loglik)
            rows = slice(i * k, (i + 1) * k)
            if converged or len(trace) > config.max_iterations:
                # in picking the best restart, nothing compares > NaN
                ended[i] = ((weights[rows], means[rows], covs[rows], loglik, np.array(trace)) if math.isfinite(loglik)
                            else f"log-likelihood is not finite ({loglik})")
            elif any(v < 1e-10 for v in nks[rows]):
                ended[i] = "a component lost all responsibility"
            elif len(trace) > STOP_AFTER and _aitken_limit(trace) < need - STOP_MARGIN:
                ended[i] = np.array(trace)
        if ended:
            nk = nk[_leave(buf, k, live, ended, outcomes)]
            if not live:
                return outcomes
        weights, means, covs = _m_step(x, y, nk, X.shape[0], reg, buf[:, :len(live) * k], k)
        # scalar pow for xy**2, as in the cov0 check: np.square can differ in the last bit
        ended = {j // k: "covariance collapsed to a singular matrix"
                 for j, (xx, xy, yy) in enumerate(covs.tolist()) if xx * yy - xy**2 <= 0.0}


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


def fit_em_with_trace(scatterplot: Scatterplot, k: int, config: FitConfig, beat_bic: float = -math.inf):
    """Fit a k-component mixture; also return the log-likelihood trace of each restart that did not fail.

    Runs ``config.n_restarts`` EM runs from k-means++-style seedings, in
    lockstep, and keeps the first with the best final log-likelihood.  A
    run's result does not depend on the others.  EM iterates over the distinct
    points, each weighted by how often it occurs, which gives the same
    likelihood as iterating over all N; seeding and the regularization
    scale use all N points.  With a finite ``beat_bic``, a restart whose
    projected log-likelihood cannot give a BIC above it stops early and is
    never kept; the model is None when no restart completes but one
    stopped.  Raises :class:`DegenerateCovarianceError` when every restart
    fails (e.g. all points identical with zero regularization).
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

    need = (beat_bic - bic_value(0.0, k, scatterplot.n, config.bic_penalty_mode)) / 2
    outcomes = _run_em(X, grouped, k, config, reg, need)
    traces = [outcome if isinstance(outcome, np.ndarray) else outcome[4]
              for outcome in outcomes if not isinstance(outcome, str)]
    if not traces:
        raise DegenerateCovarianceError(f"all {config.n_restarts} EM restarts failed: {outcomes[-1]}")
    fits = [outcome for outcome in outcomes if isinstance(outcome, tuple)]
    if not fits:
        return None, traces
    best = max(fits, key=lambda fit: fit[3])  # the first restart with the largest log-likelihood
    return _build_model(*best[:4], scatterplot.n), traces


def fit_em(scatterplot: Scatterplot, k: int, config: FitConfig, beat_bic: float = -math.inf) -> MixtureModel | None:
    model, _ = fit_em_with_trace(scatterplot, k, config, beat_bic)
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
    """Fit K = 1, 2, ... and return the BIC-maximizing fit.

    The sweep ends at ``k_max``, or once ``BIC_PATIENCE`` consecutive
    fitted K have a BIC that does not exceed the best so far.  Each K's fit
    gets that best BIC as its bar: a restart whose projected log-likelihood
    cannot beat it stops early (see ``STOP_AFTER``).  A K whose restarts
    all stop counts toward the patience and is left out of ``per_k_bic``;
    a K where some stop may list a lower BIC than it would reach without
    the bar.  K values that cannot be fitted (K > N, or degenerate fits)
    are skipped, neither counting toward the patience nor resetting it;
    they, the K whose restarts all stopped and the K values left unfitted
    are recorded in ``FitResult.warnings``.
    """
    if scatterplot.n < 2:
        raise ValueError("model selection needs at least 2 points")
    per_k: list[tuple[int, float]] = []
    warnings: list[str] = []
    best_model = None
    best_bic = -math.inf
    best_k = 0
    misses = 0
    for k in range(1, config.k_max + 1):
        if misses == BIC_PATIENCE:
            unfitted = f"k={k}" if k == config.k_max else f"k={k}..{config.k_max}"
            warnings.append(f"{unfitted} not fitted: no BIC gain over k={best_k} in {misses} consecutive K")
            break
        if k > scatterplot.n:
            warnings.append(f"k={k} skipped: more components than points (N={scatterplot.n})")
            continue
        try:
            model = fit_em(scatterplot, k, config, beat_bic=best_bic)
        except DegenerateCovarianceError as exc:
            warnings.append(f"k={k} skipped: {exc}")
            continue
        if model is None:
            warnings.append(f"k={k}: every restart stopped below the BIC of k={best_k}")
            misses += 1
            continue
        bic = bic_value(model.log_likelihood, k, scatterplot.n, config.bic_penalty_mode)
        per_k.append((k, bic))
        if bic > best_bic:
            best_model, best_bic, best_k, misses = model, bic, k, 0
        else:
            misses += 1
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

    Trailing empty cells are ignored; any other empty cell is an error, and
    so is a coordinate that :class:`Scatterplot` rejects.
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
    try:
        return Scatterplot(points=np.array(rows, dtype=float), id=plot_id)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_scatterplot_csv(path, scatterplot: Scatterplot) -> None:
    write_csv(path, ("x", "y"), scatterplot.points.tolist())
