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
# select_models fits plots of equal distinct-point count n in blocks of at most BLOCK_ELEMENTS // (n_restarts *
# k_max * n) plots, so that a block's (groups, K, n) arrays hold at most this many floats (2 MB) however many
# plots a batch has; a plot larger than that is a block of its own.
BLOCK_ELEMENTS = 2**18


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
    """Ordered set of N >= 1 2D points within +-COORD_LIMIT, the raw unit of scoring, held read-only and with
    every -0.0 made 0.0."""

    points: np.ndarray
    id: str | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.points, dtype=float) + 0.0  # a new C-order array, with no -0.0
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"expected an (N, 2) point array with N >= 1, got shape {arr.shape}")
        if not np.all(np.abs(arr) <= COORD_LIMIT):
            raise ValueError(f"coordinates must be finite and within +-{COORD_LIMIT:.3g} to be fitted")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @functools.cached_property
    def distinct(self) -> tuple:
        """The distinct points and how often each occurs, read-only: ``np.unique(points, axis=0,
        return_counts=True)`` bit for bit, found on first use by one 1-D sort of the rows viewed as complex
        numbers, which sort by x, then y (with no -0.0, rows are equal exactly when their bits are)."""
        values, counts = np.unique(self.points.view(np.complex128)[:, 0], return_counts=True)
        rows = values.view(float).reshape(-1, 2)
        for a in (rows, counts):
            a.setflags(write=False)
        return rows, counts


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
# groups of k, one group per mixture.  EM holds the log-joints as a (k, R, n) array, so that the posterior's
# max and sum over the components run over whole (R, n) slabs.


def _features(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (6, n) moment features (x^2, xy, y^2, x, y, 1) of the points (x, y)."""
    return np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)])


def _coefficients(weights, means, covs, k: int, failed: dict, det=None) -> np.ndarray:
    """(rows, 6) coefficients whose product with :func:`_features` is log(pi_j) + log g_j, for the rows of
    weights, means and covs (xx, xy, yy), with ``det`` the determinants xx*yy - xy*xy if already computed.
    Each group i of k rows that is not in ``failed`` and has a singular covariance is added to it, with a
    message naming the group's first; the rows of every group in ``failed`` get finite values that mean
    nothing."""
    means, covs = np.asarray(means, dtype=float), np.asarray(covs, dtype=float)
    if det is None:
        det = covs[:, 0] * covs[:, 2] - covs[:, 1] * covs[:, 1]
    regular = (det > 0.0) & (det < math.inf)
    if np.count_nonzero(regular) < len(det):
        for j in np.flatnonzero(~regular).tolist():
            failed.setdefault(j // k, f"covariance is singular (det={det[j].item()})")
    if failed:
        means, covs, det = means.copy(), covs.copy(), det.copy()
        for i in failed:
            means[i * k:(i + 1) * k] = covs[i * k:(i + 1) * k] = 0.0
            det[i * k:(i + 1) * k] = 1.0
    coef = np.empty((len(det), 6))
    with np.errstate(over="ignore"):  # as Python floats would, a near-singular det gives inf coefficients
        # the precision matrix as (pxx, -pxy, pyy), then its product with the mean
        prec = np.divide(covs[:, ::-1], det[:, None], out=coef[:, :3])
        np.subtract(prec[:, ::2] * means, prec[:, 1:2] * means[:, ::-1], out=coef[:, 3:5])
        quad = coef[:, 3] * means[:, 0] + coef[:, 4] * means[:, 1]
        coef[:, 5] = np.log(weights) - 0.5 * np.log(det) - LOG_2PI - 0.5 * quad
    prec[:, ::2] *= -0.5
    return coef


def _posterior(logp: np.ndarray):
    """exp(logp) normalized over axis 0 of a (k, ...) array, computed in place, and the log of the sums over
    axis 0.  numpy sums over a leading axis one slab after another, in component order, as it sums over the
    middle axis of a (groups, k, n) array with n >= 2.  (With n = 1, one distinct point, every component of
    a run is the same and the order cannot matter.)"""
    m = logp.max(axis=0)
    logp -= m
    np.exp(logp, out=logp)
    total = logp.sum(axis=0)
    logp /= total
    np.log(total, out=total)
    total += m
    return logp, total


def mixture_pdf(model: MixtureModel, points) -> np.ndarray:
    """Mixture density at each row of an (N, 2) array."""
    X = np.asarray(points, dtype=float).reshape(-1, 2)
    centre = X.mean(axis=0) if len(X) else np.zeros(2)
    failed: dict = {}
    coef = _coefficients(model.weights, model.means - centre, model.covs, model.k, failed)
    if failed:
        raise DegenerateCovarianceError(failed[0])
    return np.exp(_posterior(coef @ _features(*(X - centre).T))[1])


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


def _build_em_inputs(scatterplot: Scatterplot) -> tuple:
    """The EM inputs that depend only on the plot: the x and y columns of all N points, which seeding draws
    from; their mean, the centre; the pooled covariance about it; the variance scale (1 when it is 0); and
    the (6, n) moment features ``phi`` of the n :attr:`Scatterplot.distinct` points centred on the centre,
    their counts ``w`` and the count-weighted (n, 6) ``wphi``, all read-only."""
    X = scatterplot.points
    xs, ys = np.ascontiguousarray(X.T)
    centre = X.mean(axis=0)
    d = X - centre
    pooled = d.T @ d / X.shape[0]
    scale = float(X.var(axis=0).mean())
    distinct, counts = scatterplot.distinct
    w = counts.astype(float)
    phi = _features(distinct[:, 0] - centre[0], distinct[:, 1] - centre[1])
    wphi = (phi * w).T.copy()
    for a in (xs, ys, centre, pooled, phi, w, wphi):
        a.setflags(write=False)
    return xs, ys, centre, pooled, scale if scale > 0.0 else 1.0, phi, w, wphi


# A plot's EM inputs, held for the last plot fitted one K at a time: a Scatterplot hashes by identity and its
# points are read-only, so they cannot go stale.
_em_inputs = functools.lru_cache(maxsize=1)(_build_em_inputs)

# The columns of the means whose products centre the second moments (xx, xy, yy).
_FIRST, _SECOND = np.array([0, 0, 1]), np.array([0, 1, 1])


def _m_step(stats: np.ndarray, n_points, reg):
    """Weights, means and covariances from the (groups, k, 6) count-weighted sums of the responsibilities
    times the moment features, with ``n_points`` the (rows,) point counts and ``reg`` the (rows, 1)
    regularizations of the rows' plots.  A variance E[x^2] - m^2 at or below 16 eps E[x^2] is rounding noise,
    so it is set to 0 before ``reg`` is added: a component on one lattice row or one point gets exactly
    ``reg``."""
    stats = stats.reshape(-1, 6)
    nk = stats[:, 5:]
    moments = stats[:, :5] / nk
    second, means = moments[:, :3], moments[:, 3:]
    covs = second - means.take(_FIRST, axis=1) * means.take(_SECOND, axis=1)
    variances = covs[:, ::2]
    noise = variances <= 16 * EPS * second[:, ::2]
    if np.count_nonzero(noise):
        variances[noise] = 0.0
    variances += reg
    return nk[:, 0] / n_points, means, covs


def _aitken_limit(trace: list) -> float:
    """Aitken's projection of the limit of a log-likelihood trace from its last three values; +inf unless the
    last step is at most STOP_STEP * |L| and the steps are positive and shrinking."""
    before, last = trace[-2] - trace[-3], trace[-1] - trace[-2]
    if not (last <= STOP_STEP * abs(trace[-1]) and before > 0.0 and 0.0 <= last / before < 1.0):
        return math.inf
    return trace[-2] + last / (1.0 - last / before)


def _spans(plot_of_group: list) -> list:
    """(plot, first group, end) of each run of consecutive groups of one plot."""
    starts = [i for i, p in enumerate(plot_of_group) if i == 0 or p != plot_of_group[i - 1]]
    return [(plot_of_group[a], a, b) for a, b in zip(starts, [*starts[1:], len(plot_of_group)])]


def _run_em(inputs: list, k: int, config: FitConfig, needs: list) -> list:
    """The ``config.n_restarts`` EM runs of one K on each of several plots, given as their :func:`_em_inputs`
    (all with the same distinct-point count n) and their ``needs``, in lockstep, as one block with a group of k
    rows per run: seeded on all N points, iterated on the distinct points centred on their mean.  Each
    E-step takes, for each plot, one batched product of its runs' coefficients with its moment features, and
    each M-step one batched product of their responsibilities with its count-weighted features: one product
    per group, of the shape it has when the run is alone, and every other step is elementwise or per group,
    so a run gives the bits it gives alone.  A plot's groups stay contiguous as runs leave the block.  A run
    leaves after the E-step in which it converges, reaches ``max_iterations``, fails (a singular covariance,
    a lost component, or a log-likelihood that is not finite at the end) or stops because its projected
    log-likelihood stays below its plot's need (see STOP_AFTER).  A covariance whose determinant
    xx*yy - xy*xy is at most 16 eps xx*yy is singular: below that, the determinant is rounding residue.
    Returns, for each plot, each run's (weights, means, covs, loglik, trace), its trace alone if it stopped,
    or the message of its failure, in restart order."""
    n_runs = config.n_restarts
    xss, yss, centres, pooleds, scales, phis, ws, wphis = zip(*inputs)
    regs = [config.regularization * scale for scale in scales]
    outcomes = [[None] * n_runs for _ in inputs]
    traces = [[[] for _ in range(n_runs)] for _ in inputs]
    live, means, covs = [], [], []  # live: the (plot, restart) of each group of the block
    for p, (xs, ys, centre, pooled, reg) in enumerate(zip(xss, yss, centres, pooleds, regs)):
        cov0 = np.array([pooled[0, 0] + reg, pooled[0, 1], pooled[1, 1] + reg])
        if cov0[0] * cov0[2] - cov0[1] ** 2 <= 16 * EPS * cov0[0] * cov0[2]:
            outcomes[p] = ["initial pooled covariance is singular"] * n_runs
            continue
        live += [(p, r) for r in range(n_runs)]
        means += [_kmeanspp_means(xs, ys, k, spawn_rng(config.seed, "em", k, r)) - centre for r in range(n_runs)]
        covs.append(np.tile(cov0, (n_runs * k, 1)))
    if not live:
        return outcomes
    plot_w, plot_n, plot_reg = np.stack(ws), np.array([len(xs) for xs in xss], dtype=float), np.array(regs)

    def layout(live):
        """The spans of the plots' groups in the block, each group's point counts, and each row's N and
        regularization."""
        plot_of = np.array([p for p, _ in live])
        return (_spans(plot_of.tolist()), plot_w[plot_of], np.repeat(plot_n[plot_of], k),
                np.repeat(plot_reg[plot_of], k)[:, None])

    spans, w, n_points, reg = layout(live)
    means, covs = np.concatenate(means), np.concatenate(covs)
    weights, det = np.full(len(live) * k, 1.0 / k), None
    n = phis[0].shape[1]
    buf = np.empty(k * len(live) * n)
    ended: dict = {}  # group -> outcome of each run that leaves after this E-step
    while True:
        n_groups = len(live)
        coef = _coefficients(weights, means, covs, k, ended, det).reshape(n_groups, k, 6)
        # the (k, groups, n) log-joints, written and read per plot through their (groups, k, n) view
        logp = buf[:k * n_groups * n].reshape(k, n_groups, n)
        by_group = logp.transpose(1, 0, 2)
        for p, a, b in spans:
            np.matmul(coef[a:b], phis[p], out=by_group[a:b])
        logsum = _posterior(logp)[1]
        logliks = (w * logsum).sum(axis=1).tolist()
        stats = np.empty((n_groups, k, 6))
        for p, a, b in spans:
            np.matmul(by_group[a:b], wphis[p], out=stats[a:b])
        lost = stats[:, :, 5] < 1e-10
        lost = lost.any(axis=1).tolist() if np.count_nonzero(lost) else [False] * n_groups
        for i, ((p, r), loglik) in enumerate(zip(live, logliks)):
            if i in ended:
                continue
            trace = traces[p][r]
            converged = bool(trace) and loglik - trace[-1] <= config.em_tolerance * max(1.0, abs(trace[-1]))
            trace.append(loglik)
            rows = slice(i * k, (i + 1) * k)
            if converged or len(trace) > config.max_iterations:
                # in picking the best restart, nothing compares > NaN
                ended[i] = ((weights[rows], means[rows] + centres[p], covs[rows], loglik, np.array(trace))
                            if math.isfinite(loglik) else f"log-likelihood is not finite ({loglik})")
            elif lost[i]:
                ended[i] = "a component lost all responsibility"
            elif len(trace) > STOP_AFTER and _aitken_limit(trace) < needs[p] - STOP_MARGIN:
                ended[i] = np.array(trace)
        if ended:
            for i, outcome in ended.items():
                p, r = live[i]
                outcomes[p][r] = outcome
            kept = [i for i in range(n_groups) if i not in ended]
            if not kept:
                return outcomes
            live, stats = [live[i] for i in kept], stats[kept]
            spans, w, n_points, reg = layout(live)
        weights, means, covs = _m_step(stats, n_points, reg)
        det = covs[:, 0] * covs[:, 2] - covs[:, 1] * covs[:, 1]
        collapsed = det <= 16 * EPS * covs[:, 0] * covs[:, 2]
        ended = ({j // k: "covariance collapsed to a singular matrix" for j in np.flatnonzero(collapsed).tolist()}
                 if np.count_nonzero(collapsed) else {})


def _build_model(weights, means, covs, loglik, n, iterations=0) -> MixtureModel:
    weights = np.asarray(weights, dtype=float)
    return MixtureModel(weights / weights.sum(), means, covs, float(loglik), int(n), int(iterations))


def _loglik_needed(beat_bic: float, k: int, n_points: int, config: FitConfig) -> float:
    """The log-likelihood a fit of k components to n_points points needs for a BIC above ``beat_bic``."""
    return (beat_bic - bic_value(0.0, k, n_points, config.bic_penalty_mode)) / 2


def _best_restart(outcomes: list, n_points: int):
    """The model of the first restart with the largest log-likelihood among one plot's :func:`_run_em`
    outcomes (None when none completed but one stopped, a :class:`DegenerateCovarianceError` when every
    restart failed), and the trace of each restart that did not fail."""
    traces = [outcome if isinstance(outcome, np.ndarray) else outcome[4]
              for outcome in outcomes if not isinstance(outcome, str)]
    if not traces:
        return DegenerateCovarianceError(f"all {len(outcomes)} EM restarts failed: {outcomes[-1]}"), traces
    fits = [outcome for outcome in outcomes if isinstance(outcome, tuple)]
    if not fits:
        return None, traces
    best = max(fits, key=lambda fit: fit[3])
    return _build_model(*best[:4], n_points, len(best[4]) - 1), traces


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
    need = _loglik_needed(beat_bic, k, scatterplot.n, config)
    model, traces = _best_restart(_run_em([_em_inputs(scatterplot)], k, config, [need])[0], scatterplot.n)
    if isinstance(model, DegenerateCovarianceError):
        raise model
    return model, traces


def fit_em(scatterplot: Scatterplot, k: int, config: FitConfig, beat_bic: float = -math.inf) -> MixtureModel | None:
    model, _ = fit_em_with_trace(scatterplot, k, config, beat_bic)
    return model


def bic_value(log_likelihood: float, k: int, n_points: int, mode: str = "free_parameter_count") -> float:
    """2L - penalty*log(N), with the penalty of ``mode`` in ``BIC_PENALTIES``."""
    if mode not in BIC_PENALTIES:
        raise ValueError(f"unknown bic_penalty_mode {mode!r}")
    return 2.0 * log_likelihood - BIC_PENALTIES[mode](k) * math.log(n_points)


class _Sweep:
    """One plot's K sweep as :func:`select_model` states it: which K to fit, and what each fit adds."""

    def __init__(self, n_points: int, config: FitConfig):
        self.n_points, self.config = n_points, config
        self.per_k: list[tuple[int, float]] = []
        self.warnings: list[str] = []
        self.alerts: list[str] = []
        self.best_model, self.best_bic, self.misses, self.ended = None, -math.inf, 0, False

    def should_fit(self, k: int) -> bool:
        """Whether K is fitted; a sweep past its patience ends at K, and a K above N is skipped."""
        if self.ended:
            return False
        if self.misses == BIC_PATIENCE:
            unfitted = f"k={k}" if k == self.config.k_max else f"k={k}..{self.config.k_max}"
            self.warnings.append(f"{unfitted} not fitted: no BIC gain over k={self.best_model.k} in {self.misses} "
                                 "consecutive K")
            self.ended = True
            return False
        if k > self.n_points:
            self.warnings.append(f"k={k} skipped: more components than points (N={self.n_points})")
            return False
        return True

    def add(self, k: int, fit) -> None:
        """Count K's fit: its model, None when every restart stopped below the bar, or the
        :class:`DegenerateCovarianceError` of a K whose restarts all failed."""
        if isinstance(fit, DegenerateCovarianceError):
            self._alert(f"k={k} skipped: {fit}")
            return
        if fit is None:
            self.warnings.append(f"k={k}: every restart stopped below the BIC of k={self.best_model.k}")
            self.misses += 1
            return
        bic = bic_value(fit.log_likelihood, k, self.n_points, self.config.bic_penalty_mode)
        self.per_k.append((k, bic))
        if fit.iterations >= self.config.max_iterations:
            self._alert(f"k={k}: the kept restart stopped at the cap of {fit.iterations} EM iterations")
        if bic > self.best_bic:
            self.best_model, self.best_bic, self.misses = fit, bic, 0
        else:
            self.misses += 1

    def _alert(self, message: str) -> None:
        self.alerts.append(message)
        self.warnings.append(message)

    def result(self) -> FitResult | DegenerateCovarianceError:
        """The sweep's :class:`FitResult`, or a :class:`DegenerateCovarianceError` when no K was fitted."""
        if self.best_model is None:
            return DegenerateCovarianceError("no component count could be fitted")
        return FitResult(self.best_model, tuple(self.per_k), tuple(self.warnings), tuple(self.alerts))


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
    sweep = _Sweep(scatterplot.n, config)
    for k in range(1, config.k_max + 1):
        if sweep.should_fit(k):
            try:
                fit = fit_em(scatterplot, k, config, beat_bic=sweep.best_bic)
            except DegenerateCovarianceError as exc:
                fit = exc
            sweep.add(k, fit)
    result = sweep.result()
    if isinstance(result, DegenerateCovarianceError):
        raise result
    return result


def select_models(plots: list, config: FitConfig) -> list:
    """:func:`select_model` on each plot, run for several plots at once: for each plot in input order, its
    :class:`FitResult` or the :class:`DegenerateCovarianceError` that ``select_model`` raises on it, bit for
    bit.  Plots of the same distinct-point count n, in input order, form blocks of at most
    ``max(1, BLOCK_ELEMENTS // (n_restarts * k_max * n))`` plots whose sweeps run in lockstep: at each K, the
    restarts of every plot of the block still sweeping run as one :func:`_run_em` block.  Grouping a plot finds
    its :attr:`Scatterplot.distinct`, which its EM inputs then reuse; only the current block's other EM
    inputs are held."""
    if any(plot.n < 2 for plot in plots):
        raise ValueError("model selection needs at least 2 points")
    by_n: dict[int, list[int]] = {}
    for i, plot in enumerate(plots):
        by_n.setdefault(len(plot.distinct[1]), []).append(i)
    results = [None] * len(plots)
    for n, members in by_n.items():
        size = max(1, BLOCK_ELEMENTS // (config.n_restarts * config.k_max * n))
        for start in range(0, len(members), size):
            block = members[start:start + size]
            for i, result in zip(block, _sweep_in_lockstep([plots[i] for i in block], config)):
                results[i] = result
    return results


def _sweep_in_lockstep(plots: list, config: FitConfig) -> list:
    """The sweeps of plots of one distinct-point count, one :func:`_run_em` block per K (see select_models)."""
    inputs = [_build_em_inputs(plot) for plot in plots]
    sweeps = [_Sweep(plot.n, config) for plot in plots]
    for k in range(1, config.k_max + 1):
        fitting = [i for i, sweep in enumerate(sweeps) if sweep.should_fit(k)]
        if not fitting:
            continue
        needs = [_loglik_needed(sweeps[i].best_bic, k, plots[i].n, config) for i in fitting]
        for i, outcomes in zip(fitting, _run_em([inputs[i] for i in fitting], k, config, needs)):
            sweeps[i].add(k, _best_restart(outcomes, plots[i].n)[0])
    return [sweep.result() for sweep in sweeps]


# ---------------------------------------------------------------------------
# I/O


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _is_header(cells: list) -> bool:
    """Whether the stripped cells of a file's first non-blank row, its trailing empty ones dropped, are a
    header: two cells, neither empty nor a number."""
    return len(cells) == 2 and all(cells) and not any(map(_is_number, cells))


def _read_points_at_once(path) -> np.ndarray | None:
    """The (N, 2) points of a well-formed x,y CSV, parsed by one ``np.loadtxt`` call from the line after its
    first non-blank row if that row is a header as :func:`_read_points_by_row` finds it, else from the top (a
    quote in a data row may run over lines, and the row's line number is where it ends); None when a header
    has no data row after it or the call rejects the file, so that the per-row reader reads it and raises its
    error.  ``np.loadtxt`` parses a number as ``float`` does, and takes no quoted, empty or
    blank-but-not-empty cell, so what it accepts the per-row reader reads to the same points."""
    rows = read_rows(path)
    line, cells = next(rows, (0, []))
    while cells and not cells[-1]:
        cells.pop()
    header = _is_header(cells)
    if not cells or header and next(rows, None) is None:
        return None
    rows.close()
    try:
        points = np.loadtxt(path, delimiter=",", comments=None, skiprows=line if header else 0, ndmin=2,
                            encoding="utf-8-sig")
    except ValueError:
        return None
    return points if points.shape[1] == 2 else None


def _read_points_by_row(path) -> np.ndarray:
    """The (N, 2) points of an x,y CSV read row by row, or the ValueError that names its first bad row."""
    rows: list[tuple[float, float]] = []
    for i, (line, cells) in enumerate(read_rows(path)):
        while not cells[-1]:
            cells.pop()
        if i == 0 and _is_header(cells):
            continue
        if not all(cells):
            raise ValueError(f"{path}: row {line}: empty cell")
        if len(cells) != 2:
            raise ValueError(f"{path}: row {line}: expected 2 columns, got {len(cells)}")
        try:
            rows.append((float(cells[0]), float(cells[1])))
        except ValueError:
            raise ValueError(f"{path}: row {line}: non-numeric cell in {cells!r}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def read_scatterplot_csv(path, plot_id: str | None = None) -> Scatterplot:
    """Read a two-column x,y CSV, with an optional header: the first non-blank row, if it has two cells and
    neither is a number.

    Trailing empty cells are ignored; any other empty cell is an error, and
    so is a coordinate that :class:`Scatterplot` rejects.
    """
    points = _read_points_at_once(path)
    if points is None:
        points = _read_points_by_row(path)
    try:
        return Scatterplot(points=points, id=plot_id)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_scatterplot_csv(path, scatterplot: Scatterplot) -> None:
    write_csv(path, ("x", "y"), scatterplot.points.tolist())
