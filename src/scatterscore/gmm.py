"""Bivariate Gaussian mixture fitting for scatterplot density modeling.

Fits full-covariance mixtures with EM over a range of component counts,
selects the count with the Bayesian Information Criterion, and evaluates
mixture densities.  All fitting is a pure function of (points, config):
restarts and initialization draw from seeds derived with
:func:`scatterscore.util.derive_seed`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .util import read_rows, spawn_rng, write_csv

LOG_2PI = math.log(2.0 * math.pi)
EPS = float(np.finfo(float).eps)
# Largest coordinate magnitude that can be fitted: a covariance determinant is of the order of the
# coordinate spread to the fourth power, and (2 * COORD_LIMIT)**4 stays a sixteenth below the float maximum.
COORD_LIMIT = float(np.finfo(float).max) ** 0.25 / 4
# The K sweep stops once this many consecutive fitted K have not raised the best BIC.
BIC_PATIENCE = 2
# The BIC penalty of each bic_penalty_mode, per K: the component count, or the free parameter count (K-1 weights +
# 2K means + 3K covariance entries).
BIC_PENALTIES = {"component_count": lambda k: k, "free_parameter_count": lambda k: 6 * k - 1}
# A restart of a K that needs a log-likelihood L* to beat the best BIC so far stops once it has run STOP_AFTER
# M-steps, its last step is at most STOP_STEP * |L|, its steps shrink, and Aitken's projection of their limit
# is more than STOP_MARGIN below L*.  A heuristic: a late jump (a component settling on one lattice row) can
# beat the projection.
STOP_AFTER = 50
STOP_STEP = 1e-3
STOP_MARGIN = 2.0


class DegenerateCovarianceError(ValueError):
    """Covariance matrix is singular or collapsed during fitting."""


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Weighted bivariate Gaussian mixture with its training log-likelihood, as read-only arrays:
    ``weights`` (K,), ``means`` (K, 2) and ``covs`` (K, 3), each row of ``covs`` (xx, xy, yy), and the
    ``iterations`` (M-steps) of the EM run that fitted it.  Two models are equal when every array, the
    log-likelihood and the point count are."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    log_likelihood: float
    n_points: int
    iterations: int = 0

    def __post_init__(self):
        weights, means, covs = (np.array(a, dtype=float) for a in (self.weights, self.means, self.covs))
        k = len(weights) if weights.ndim == 1 else 0
        if k < 1 or means.shape != (k, 2) or covs.shape != (k, 3):
            raise ValueError(f"expected K >= 1 weights with (K, 2) means and (K, 3) covariances, got shapes "
                             f"{weights.shape}, {means.shape} and {covs.shape}")
        if not np.isfinite(covs).all():
            raise ValueError("covariance entries must be finite")
        if (covs[:, [0, 2]] < 0.0).any():
            raise ValueError("variances must be non-negative")
        if not ((weights > 0.0) & (weights <= 1.0)).all():
            raise ValueError(f"component weights must be in (0, 1], got {weights.tolist()}")
        if not np.isfinite(means).all():
            raise ValueError("component means must be finite")
        total = sum(weights.tolist())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights sum to {total}, expected 1")
        for name, a in (("weights", weights), ("means", means), ("covs", covs)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def k(self) -> int:
        return len(self.weights)

    def __eq__(self, other) -> bool:
        fields = lambda m: (m.weights, m.means, m.covs, m.log_likelihood, m.n_points)
        return isinstance(other, MixtureModel) and all(map(np.array_equal, fields(self), fields(other)))


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
        if self.bic_penalty_mode not in BIC_PENALTIES:
            raise ValueError(f"unknown bic_penalty_mode {self.bic_penalty_mode!r}")


@dataclass(frozen=True)
class FitResult:
    """The BIC-selected fit.  ``per_k_bic`` holds, for each fitted K, the BIC of its best completed restart;
    a K whose restarts all stopped early is left out and named in ``warnings``.  ``alerts`` are the warnings
    that name a K skipped as degenerate or a fitted K whose kept restart stopped at ``max_iterations``.
    ``k_star`` and ``bic`` are read off ``model`` and ``per_k_bic``."""

    model: MixtureModel
    per_k_bic: tuple[tuple[int, float], ...]
    warnings: tuple[str, ...] = ()
    alerts: tuple[str, ...] = ()

    @property
    def k_star(self) -> int:
        return self.model.k

    @property
    def bic(self) -> float:
        return dict(self.per_k_bic)[self.k_star]


# ---------------------------------------------------------------------------
# Density evaluation
#
# A bivariate Gaussian's log-density is linear in the moment features (x^2, xy, y^2, x, y, 1) of a point, so
# the log-joint of R mixtures of k components at n points is one (R, k, 6) @ (6, n) product.  Its rows come in
# groups of k, one group per mixture.


def _features(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (6, n) moment features (x^2, xy, y^2, x, y, 1) of the points (x, y)."""
    return np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)])


def _coefficients(weights, means, covs, k: int, failed: dict) -> np.ndarray:
    """(rows, 6) coefficients whose product with :func:`_features` is log(pi_j) + log g_j, for the rows of
    weights, means and covs (xx, xy, yy).  Each group i of k rows that is not in ``failed`` and has a singular
    covariance is added to it, with a message naming the group's first; the rows of every group in ``failed``
    get finite values that mean nothing."""
    means, covs = np.array(means, dtype=float), np.array(covs, dtype=float)
    det = covs[:, 0] * covs[:, 2] - covs[:, 1] * covs[:, 1]
    regular = (det > 0.0) & (det < math.inf)
    if not regular.all():
        for j in np.flatnonzero(~regular).tolist():
            failed.setdefault(j // k, f"covariance is singular (det={det[j].item()})")
    for i in failed:
        means[i * k:(i + 1) * k] = covs[i * k:(i + 1) * k] = 0.0
        det[i * k:(i + 1) * k] = 1.0
    coef = np.empty((len(det), 6))
    with np.errstate(over="ignore"):  # as Python floats would, a near-singular det gives inf coefficients
        # the precision matrix as (pxx, -pxy, pyy), then its product with the mean
        prec = np.divide(covs[:, ::-1], det[:, None], out=coef[:, :3])
        np.subtract(prec[:, ::2] * means, prec[:, 1:2] * means[:, ::-1], out=coef[:, 3:5])
        coef[:, 5] = np.log(weights) - 0.5 * np.log(det) - LOG_2PI - 0.5 * (coef[:, 3:5] * means).sum(axis=1)
    prec[:, ::2] *= -0.5
    return coef


def _posterior(logp: np.ndarray):
    """exp(logp) normalized over axis 1 of a (groups, k, n) array, computed in place, and the (groups, n) log
    of the group sums."""
    m = logp.max(axis=1)
    logp -= m[:, None]
    np.exp(logp, out=logp)
    total = logp.sum(axis=1)
    logp /= total[:, None]
    return logp, m + np.log(total)


def mixture_pdf(model: MixtureModel, points) -> np.ndarray:
    """Mixture density at each row of an (N, 2) array."""
    X = np.asarray(points, dtype=float).reshape(-1, 2)
    centre = X.mean(axis=0) if len(X) else np.zeros(2)
    failed: dict = {}
    coef = _coefficients(model.weights, model.means - centre, model.covs, model.k, failed)
    if failed:
        raise DegenerateCovarianceError(failed[0])
    return np.exp(_posterior(coef[None] @ _features(*(X - centre).T))[1][0])


# ---------------------------------------------------------------------------
# EM fitting


def _kmeanspp_means(xs: np.ndarray, ys: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k seeds from the points (xs, ys): the first uniform, each next one drawn with probability proportional
    to its squared distance to the nearest seed so far, by the inverse-CDF draw that
    ``rng.choice(n, p=d2 / total)`` makes, which gives the same index and leaves the same stream state."""
    n = xs.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = (xs - xs[chosen[0]]) ** 2 + (ys - ys[chosen[0]]) ** 2
    for _ in range(k - 1):
        total = float(d2.sum())
        if total > 0.0:
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            j = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            j = int(rng.integers(n))
        chosen.append(j)
        np.minimum(d2, (xs - xs[j]) ** 2 + (ys - ys[j]) ** 2, out=d2)
    return np.column_stack([xs[chosen], ys[chosen]])


@functools.lru_cache(maxsize=1)
def _em_inputs(scatterplot: Scatterplot) -> tuple:
    """The EM inputs that depend only on the plot: the x and y columns of all N points, which seeding draws
    from; their mean, the centre; the pooled covariance about it; the variance scale (1 when it is 0); and
    the (6, n) moment features ``phi`` of the n distinct points centred on the centre, their counts ``w``
    and the count-weighted (n, 6) ``wphi``, all read-only.  Held for the last plot only: a Scatterplot
    hashes by identity and its points are read-only, so they cannot go stale."""
    X = scatterplot.points
    xs, ys = np.ascontiguousarray(X.T)
    centre = X.mean(axis=0)
    d = X - centre
    pooled = d.T @ d / X.shape[0]
    scale = float(X.var(axis=0).mean())
    distinct, counts = np.unique(X, axis=0, return_counts=True)
    w = counts.astype(float)
    phi = _features(distinct[:, 0] - centre[0], distinct[:, 1] - centre[1])
    wphi = (phi * w).T.copy()
    for a in (xs, ys, centre, pooled, phi, w, wphi):
        a.setflags(write=False)
    return xs, ys, centre, pooled, scale if scale > 0.0 else 1.0, phi, w, wphi


def _m_step(stats: np.ndarray, n_points: int, reg: float):
    """Weights, means and covariances from the (groups, k, 6) count-weighted sums of the responsibilities
    times the moment features.  A variance E[x^2] - m^2 at or below 16 eps E[x^2] is rounding noise, so it is
    set to 0 before ``reg`` is added: a component on one lattice row or one point gets exactly ``reg``."""
    stats = stats.reshape(-1, 6)
    nk = stats[:, 5:]
    moments = stats[:, :5] / nk
    second, means = moments[:, :3], moments[:, 3:]
    covs = second - means.take([0, 0, 1], axis=1) * means.take([0, 1, 1], axis=1)
    variances = covs[:, ::2]
    variances[variances <= 16 * EPS * second[:, ::2]] = 0.0
    variances += reg
    return nk[:, 0] / n_points, means, covs


def _aitken_limit(trace: list) -> float:
    """Aitken's projection of the limit of a log-likelihood trace from its last three values; +inf unless the
    last step is at most STOP_STEP * |L| and the steps are positive and shrinking."""
    before, last = trace[-2] - trace[-3], trace[-1] - trace[-2]
    if not (last <= STOP_STEP * abs(trace[-1]) and before > 0.0 and 0.0 <= last / before < 1.0):
        return math.inf
    return trace[-2] + last / (1.0 - last / before)


def _run_em(inputs: tuple, k: int, config: FitConfig, need: float = -math.inf) -> list:
    """The ``config.n_restarts`` EM runs of one K on a plot's :func:`_em_inputs`, in lockstep, as one block
    with a group of k rows per run: seeded on all N points, iterated on the distinct points centred on their
    mean.  Each E-step is one batched product of the runs' coefficients with the points' moment features, and
    each M-step one batched product of their responsibilities with the count-weighted features: one product
    per group, so a run gives the bits it gives alone.  A run leaves the block after the E-step in which it
    converges, reaches ``max_iterations``, fails (a singular covariance, a lost component, or a log-likelihood
    that is not finite at the end) or stops because its projected log-likelihood stays below ``need`` (see
    STOP_AFTER).  A covariance whose determinant xx*yy - xy*xy is at most 16 eps xx*yy is singular: below
    that, the determinant is rounding residue.  Returns each run's (weights, means, covs, loglik, trace), its
    trace alone if it stopped, or the message of its failure, in restart order."""
    n_runs = config.n_restarts
    xs, ys, centre, pooled, scale, phi, w, wphi = inputs
    reg = config.regularization * scale
    cov0 = np.array([pooled[0, 0] + reg, pooled[0, 1], pooled[1, 1] + reg])
    if cov0[0] * cov0[2] - cov0[1] ** 2 <= 16 * EPS * cov0[0] * cov0[2]:
        return ["initial pooled covariance is singular"] * n_runs
    means = np.concatenate([_kmeanspp_means(xs, ys, k, spawn_rng(config.seed, "em", k, r)) for r in range(n_runs)])
    means -= centre
    covs = np.tile(cov0, (n_runs * k, 1))
    weights = np.full(n_runs * k, 1.0 / k)

    buf = np.empty((n_runs * k, phi.shape[1]))
    live, outcomes, traces = list(range(n_runs)), [None] * n_runs, [[] for _ in range(n_runs)]
    ended: dict = {}  # group -> outcome of each run that leaves after this E-step
    while True:
        coef = _coefficients(weights, means, covs, k, ended).reshape(len(live), k, 6)
        resp, logsum = _posterior(np.matmul(coef, phi, out=buf[:len(live) * k].reshape(len(live), k, -1)))
        logliks = (w * logsum).sum(axis=1).tolist()
        stats = np.matmul(resp, wphi)
        lost = (stats[:, :, 5] < 1e-10).any(axis=1).tolist()
        for i, (trace, loglik) in enumerate(zip([traces[r] for r in live], logliks)):
            if i in ended:
                continue
            converged = bool(trace) and loglik - trace[-1] <= config.em_tolerance * max(1.0, abs(trace[-1]))
            trace.append(loglik)
            rows = slice(i * k, (i + 1) * k)
            if converged or len(trace) > config.max_iterations:
                # in picking the best restart, nothing compares > NaN
                ended[i] = ((weights[rows], means[rows] + centre, covs[rows], loglik, np.array(trace))
                            if math.isfinite(loglik) else f"log-likelihood is not finite ({loglik})")
            elif lost[i]:
                ended[i] = "a component lost all responsibility"
            elif len(trace) > STOP_AFTER and _aitken_limit(trace) < need - STOP_MARGIN:
                ended[i] = np.array(trace)
        if ended:
            for i, outcome in ended.items():
                outcomes[live[i]] = outcome
            kept = [i for i in range(len(live)) if i not in ended]
            live, stats = [live[i] for i in kept], stats[kept]
            if not live:
                return outcomes
        weights, means, covs = _m_step(stats, xs.shape[0], reg)
        collapsed = covs[:, 0] * covs[:, 2] - covs[:, 1] * covs[:, 1] <= 16 * EPS * covs[:, 0] * covs[:, 2]
        ended = {j // k: "covariance collapsed to a singular matrix" for j in np.flatnonzero(collapsed).tolist()}


def _build_model(weights, means, covs, loglik, n, iterations=0) -> MixtureModel:
    weights = np.asarray(weights, dtype=float)
    return MixtureModel(weights / weights.sum(), means, covs, float(loglik), int(n), int(iterations))


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
    need = (beat_bic - bic_value(0.0, k, scatterplot.n, config.bic_penalty_mode)) / 2
    outcomes = _run_em(_em_inputs(scatterplot), k, config, need)
    traces = [outcome if isinstance(outcome, np.ndarray) else outcome[4]
              for outcome in outcomes if not isinstance(outcome, str)]
    if not traces:
        raise DegenerateCovarianceError(f"all {config.n_restarts} EM restarts failed: {outcomes[-1]}")
    fits = [outcome for outcome in outcomes if isinstance(outcome, tuple)]
    if not fits:
        return None, traces
    best = max(fits, key=lambda fit: fit[3])  # the first restart with the largest log-likelihood
    return _build_model(*best[:4], scatterplot.n, len(best[4]) - 1), traces


def fit_em(scatterplot: Scatterplot, k: int, config: FitConfig, beat_bic: float = -math.inf) -> MixtureModel | None:
    model, _ = fit_em_with_trace(scatterplot, k, config, beat_bic)
    return model


def bic_value(log_likelihood: float, k: int, n_points: int, mode: str = "free_parameter_count") -> float:
    """2L - penalty*log(N), with the penalty of ``mode`` in ``BIC_PENALTIES``."""
    if mode not in BIC_PENALTIES:
        raise ValueError(f"unknown bic_penalty_mode {mode!r}")
    return 2.0 * log_likelihood - BIC_PENALTIES[mode](k) * math.log(n_points)


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
    they, the K whose restarts all stopped, the K whose kept restart stopped
    at ``max_iterations`` and the K values left unfitted are recorded in
    ``FitResult.warnings``.
    """
    if scatterplot.n < 2:
        raise ValueError("model selection needs at least 2 points")
    per_k: list[tuple[int, float]] = []
    warnings: list[str] = []
    alerts: list[str] = []
    best_model = None
    best_bic = -math.inf
    misses = 0
    for k in range(1, config.k_max + 1):
        if misses == BIC_PATIENCE:
            unfitted = f"k={k}" if k == config.k_max else f"k={k}..{config.k_max}"
            warnings.append(f"{unfitted} not fitted: no BIC gain over k={best_model.k} in {misses} consecutive K")
            break
        if k > scatterplot.n:
            warnings.append(f"k={k} skipped: more components than points (N={scatterplot.n})")
            continue
        try:
            model = fit_em(scatterplot, k, config, beat_bic=best_bic)
        except DegenerateCovarianceError as exc:
            alerts.append(f"k={k} skipped: {exc}")
            warnings.append(alerts[-1])
            continue
        if model is None:
            warnings.append(f"k={k}: every restart stopped below the BIC of k={best_model.k}")
            misses += 1
            continue
        bic = bic_value(model.log_likelihood, k, scatterplot.n, config.bic_penalty_mode)
        per_k.append((k, bic))
        if model.iterations >= config.max_iterations:
            alerts.append(f"k={k}: the kept restart stopped at the cap of {model.iterations} EM iterations")
            warnings.append(alerts[-1])
        if bic > best_bic:
            best_model, best_bic, misses = model, bic, 0
        else:
            misses += 1
    if best_model is None:
        raise DegenerateCovarianceError("no component count could be fitted")
    return FitResult(
        model=best_model,
        per_k_bic=tuple(per_k),
        warnings=tuple(warnings),
        alerts=tuple(alerts),
    )


# ---------------------------------------------------------------------------
# I/O


def read_scatterplot_csv(path, plot_id: str | None = None) -> Scatterplot:
    """Read a two-column x,y CSV (an optional header as its first non-blank row).

    Trailing empty cells are ignored; any other empty cell is an error, and
    so is a coordinate that :class:`Scatterplot` rejects.
    """
    rows: list[tuple[float, float]] = []
    for i, (line, cells) in enumerate(read_rows(path)):
        while not cells[-1]:
            cells.pop()
        if not all(cells):
            raise ValueError(f"{path}: row {line}: empty cell")
        if len(cells) != 2:
            raise ValueError(f"{path}: row {line}: expected 2 columns, got {len(cells)}")
        try:
            rows.append((float(cells[0]), float(cells[1])))
        except ValueError:
            if i == 0:  # header row: the first non-blank one
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
