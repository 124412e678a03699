"""Feature preprocessing: center/scale, Box-Cox, PCA, spatial sign.

Steps are fitted on training data only and applied in a fixed order.
Box-Cox is fitted per feature by maximizing its log-likelihood on a
lambda grid and is skipped for any feature with a non-positive value,
so after centering it normally no-ops.
"""
from __future__ import annotations

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

    @classmethod
    def none(cls) -> "PreprocessSpec":
        return cls(steps=())

    @classmethod
    def all_steps(cls, pca_variance_threshold: float = 0.95) -> "PreprocessSpec":
        return cls(steps=CANONICAL_STEPS, pca_variance_threshold=pca_variance_threshold)


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
    spatial_sign: bool = False

    @property
    def output_dim(self) -> int:
        if self.pca_basis is not None:
            return self.pca_basis.shape[1]
        return self.input_dim

    def apply_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        squeeze = X.ndim == 1
        X = np.atleast_2d(X).copy()
        if X.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} features, got {X.shape[1]}")
        if "center_scale" in self.steps:
            X = (X - self.means) / self.scales
        if "box_cox" in self.steps:
            for j, lam in enumerate(self.boxcox_lambdas):
                if lam is not None:
                    X[:, j] = _boxcox_transform(X[:, j], lam)
        if "pca" in self.steps:
            X = (X - self.pca_mean) @ self.pca_basis
        if self.spatial_sign:
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            np.divide(X, norms, out=X, where=norms > 0.0)
        return X[0] if squeeze else X

    def to_dict(self) -> dict:
        return {
            "steps": list(self.steps),
            "input_dim": self.input_dim,
            "means": None if self.means is None else self.means.tolist(),
            "scales": None if self.scales is None else self.scales.tolist(),
            "boxcox_lambdas": None if self.boxcox_lambdas is None else list(self.boxcox_lambdas),
            "pca_mean": None if self.pca_mean is None else self.pca_mean.tolist(),
            "pca_basis": None if self.pca_basis is None else self.pca_basis.tolist(),
            "spatial_sign": self.spatial_sign,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedPreprocess":
        arr = lambda v: None if v is None else np.array(v, dtype=float)
        lams = d.get("boxcox_lambdas")
        return cls(
            steps=tuple(d["steps"]),
            input_dim=int(d["input_dim"]),
            means=arr(d.get("means")),
            scales=arr(d.get("scales")),
            boxcox_lambdas=None if lams is None else tuple(None if v is None else float(v) for v in lams),
            pca_mean=arr(d.get("pca_mean")),
            pca_basis=arr(d.get("pca_basis")),
            spatial_sign=bool(d.get("spatial_sign", False)),
        )


def fit_preprocess(X, spec: PreprocessSpec) -> FittedPreprocess:
    """Fit the requested steps on a feature matrix (rows = samples)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("fitting preprocessing needs a 2D matrix with at least 2 rows")
    dim = X.shape[1]
    work = X.copy()

    means = scales = None
    if "center_scale" in spec.steps:
        means = work.mean(axis=0)
        scales = work.std(axis=0)
        scales = np.where(scales > 0.0, scales, 1.0)  # constant features pass through
        work = (work - means) / scales

    lambdas = None
    if "box_cox" in spec.steps:
        lambdas = tuple(fit_box_cox_lambda(work[:, j]) for j in range(dim))
        for j, lam in enumerate(lambdas):
            if lam is not None:
                work[:, j] = _boxcox_transform(work[:, j], lam)

    pca_mean = pca_basis = None
    if "pca" in spec.steps:
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
            retained = int(np.searchsorted(frac, spec.pca_variance_threshold - 1e-12) + 1)
            retained = min(retained, dim)
        pca_basis = eigvecs[:, :retained]

    return FittedPreprocess(
        steps=spec.steps,
        input_dim=dim,
        means=means,
        scales=scales,
        boxcox_lambdas=lambdas,
        pca_mean=pca_mean,
        pca_basis=pca_basis,
        spatial_sign="spatial_sign" in spec.steps,
    )
