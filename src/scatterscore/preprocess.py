"""Feature preprocessing: center/scale, Box-Cox, PCA, spatial sign.

Steps are fitted on training data only and applied in a fixed order.
Box-Cox is fitted per feature by maximizing its log-likelihood on a
lambda grid and is skipped for any feature with a non-positive value,
so after centering it normally no-ops.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

CANONICAL_STEPS = ("center_scale", "box_cox", "pca", "spatial_sign")

_BOXCOX_GRID = np.round(np.arange(-20, 21) * 0.1, 10)


@dataclass(frozen=True)
class PreprocessSpec:
    """Ordered subset of the canonical preprocessing steps."""

    steps: tuple[str, ...] = CANONICAL_STEPS
    pca_variance_threshold: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        unknown = [s for s in self.steps if s not in CANONICAL_STEPS]
        if unknown:
            raise ValueError(f"unknown preprocessing steps {unknown}")
        order = [CANONICAL_STEPS.index(s) for s in self.steps]
        if sorted(order) != order or len(set(order)) != len(order):
            raise ValueError(f"steps must follow the canonical order {CANONICAL_STEPS}")
        if "pca" in self.steps and "center_scale" not in self.steps:
            raise ValueError("pca requires center_scale")
        if not (0.0 < self.pca_variance_threshold <= 1.0):
            raise ValueError("pca_variance_threshold must be in (0, 1]")


def _boxcox_transform(y: np.ndarray, lam: float) -> np.ndarray:
    y = np.maximum(y, 1e-12)  # transform is only defined for positive values
    if abs(lam) < 1e-12:
        return np.log(y)
    return (np.power(y, lam) - 1.0) / lam


def _boxcox_loglik(y: np.ndarray, lam: float) -> float:
    yt = _boxcox_transform(y, lam)
    var = float(yt.var())
    if var <= 0.0:
        return -math.inf
    n = y.shape[0]
    return -0.5 * n * math.log(var) + (lam - 1.0) * float(np.log(y).sum())


def fit_box_cox_lambda(y: np.ndarray) -> float | None:
    """Grid-search lambda in [-2, 2] step 0.1; None when not applicable."""
    if np.any(y <= 0.0):
        return None
    scores = [_boxcox_loglik(y, lam) for lam in _BOXCOX_GRID]
    best = int(np.argmax(scores))
    if not math.isfinite(scores[best]):
        return None
    return float(_BOXCOX_GRID[best])


def _finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _finite_array(value, name: str) -> np.ndarray | None:
    """``value`` as a float array (None stays None); ValueError unless it holds only finite numbers."""
    if value is None:
        return None
    a = np.array(value)
    if a.dtype.kind not in "if" or not np.isfinite(a).all():
        raise ValueError(f"preprocess {name} must hold only finite numbers")
    return a.astype(float)


@dataclass(frozen=True, eq=False)
class FittedPreprocess:
    """Frozen statistics of a fitted preprocessing pipeline."""

    steps: tuple[str, ...]
    input_dim: int
    means: np.ndarray | None = None
    scales: np.ndarray | None = None
    boxcox_lambdas: tuple[float | None, ...] | None = None
    pca_mean: np.ndarray | None = None
    pca_basis: np.ndarray | None = None  # (input_dim_after_boxcox, retained)

    @property
    def output_dim(self) -> int:
        if self.pca_basis is not None:
            return self.pca_basis.shape[1]
        return self.input_dim

    def apply_matrix(self, X) -> np.ndarray:
        X = np.array(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected a matrix of {self.input_dim} feature columns, got shape {X.shape}")
        if "center_scale" in self.steps:
            X = (X - self.means) / self.scales
        if "box_cox" in self.steps:
            for j, lam in enumerate(self.boxcox_lambdas):
                if lam is not None:
                    X[:, j] = _boxcox_transform(X[:, j], lam)
        if "pca" in self.steps:
            X = (X - self.pca_mean) @ self.pca_basis
        if "spatial_sign" in self.steps:
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            np.divide(X, norms, out=X, where=norms > 0.0)
        return X

    def to_dict(self) -> dict:
        """Each field as JSON-ready lists (None stays None), then the ``spatial_sign`` flag."""
        fields = {f.name: np.asarray(getattr(self, f.name)).tolist() for f in dataclasses.fields(self)}
        return {**fields, "spatial_sign": "spatial_sign" in self.steps}

    @classmethod
    def from_dict(cls, d: dict) -> "FittedPreprocess":
        """Inverse of :meth:`to_dict`; ValueError when a listed step's
        statistics are missing or do not fit ``input_dim``, when a statistic
        is not a finite number or a scale is not positive, or when
        ``spatial_sign`` is not the bool that says whether the step is listed."""
        dim, lams = d["input_dim"], d.get("boxcox_lambdas")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"preprocess input_dim must be a positive integer, got {dim!r}")
        if lams is not None and not all(v is None or _finite_number(v) for v in lams):
            raise ValueError("preprocess boxcox_lambdas must be finite numbers or null")
        fitted = cls(
            steps=PreprocessSpec(steps=d["steps"]).steps,
            input_dim=dim,
            means=_finite_array(d.get("means"), "means"),
            scales=_finite_array(d.get("scales"), "scales"),
            boxcox_lambdas=None if lams is None else tuple(None if v is None else float(v) for v in lams),
            pca_mean=_finite_array(d.get("pca_mean"), "pca_mean"),
            pca_basis=_finite_array(d.get("pca_basis"), "pca_basis"),
        )
        if fitted.scales is not None and not np.all(fitted.scales > 0.0):
            raise ValueError("preprocess scales must be positive")
        listed = "spatial_sign" in fitted.steps
        if d.get("spatial_sign") is not listed:
            raise ValueError(f"preprocess spatial_sign must be {listed} for steps {list(fitted.steps)}")
        needed = {
            "center_scale": ("means", "scales"),
            "box_cox": ("boxcox_lambdas",),
            "pca": ("pca_mean",),
        }
        for step, names in needed.items():
            for name in names:
                value = getattr(fitted, name)
                if step in fitted.steps and (value is None or np.shape(value) != (dim,)):
                    raise ValueError(f"preprocess {name} must hold {dim} values for step {step}")
        shape = np.shape(fitted.pca_basis)
        if "pca" in fitted.steps and not (len(shape) == 2 and shape[0] == dim and shape[1] >= 1):
            raise ValueError(f"preprocess pca_basis must be a ({dim}, r) matrix with r >= 1, got shape {shape}")
        return fitted


def _pca(work: np.ndarray, threshold: float) -> dict:
    """Mean and retained eigenvector basis of ``work``, enough axes for ``threshold`` of the variance."""
    dim = work.shape[1]
    pca_mean = work.mean(axis=0)
    centered = work - pca_mean
    cov = centered.T @ centered / (work.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    # sign convention: largest-magnitude entry of each axis positive
    flip = np.sign(eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(dim)])
    flip = np.where(flip == 0.0, 1.0, flip)
    eigvecs = eigvecs * flip
    total = float(eigvals.sum())
    if total <= 0.0:
        retained = 1
    else:
        frac = np.cumsum(eigvals) / total
        retained = int(np.searchsorted(frac, threshold - 1e-12) + 1)
        retained = min(retained, dim)
    return {"pca_mean": pca_mean, "pca_basis": eigvecs[:, :retained]}


def fit_preprocess(X, spec: PreprocessSpec) -> FittedPreprocess:
    """Fit the requested steps on a feature matrix (rows = samples), each on
    ``X`` as the steps before it transform it."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("fitting preprocessing needs a 2D matrix with at least 2 rows")
    fitted = FittedPreprocess(steps=(), input_dim=X.shape[1])
    for step in spec.steps:
        work = fitted.apply_matrix(X)
        stats = {}
        if step == "center_scale":
            scales = work.std(axis=0)  # a constant feature passes through with scale 1
            stats = {"means": work.mean(axis=0), "scales": np.where(scales > 0.0, scales, 1.0)}
        elif step == "box_cox":
            stats = {"boxcox_lambdas": tuple(fit_box_cox_lambda(column) for column in work.T)}
        elif step == "pca":
            stats = _pca(work, spec.pca_variance_threshold)
        fitted = dataclasses.replace(fitted, steps=fitted.steps + (step,), **stats)
    return fitted
