"""The 8-dimensional feature space describing a pair of mixture components.

A component pair (u, v) is reduced to (tau, mu, sigma_u^x, sigma_u^y,
sigma_v^x, sigma_v^y, theta_u, theta_v): the weight ratio, the center
distance, and each covariance split into rotation + axis scales.
Alignment maps any such pair into the convention the merging classifier
was trained in: the y-axis points from center u to center v and the
largest of (mu, sigmas) is normalized to 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gmm import DegenerateCovarianceError, MixtureModel

HALF_PI = 0.5 * math.pi
ANGLE_TOL = 1e-6  # how far past +-pi/2 a theta may lie


def wrap_angle(theta: float) -> float:
    """Wrap an ellipse orientation (period pi) into (-pi/2, pi/2]."""
    w = (HALF_PI - theta) % math.pi
    out = HALF_PI - w
    if out <= -HALF_PI:  # float edge of the modulo
        out += math.pi
    return out


@dataclass(frozen=True)
class ShapeParams:
    """Rotation angle plus the two axis scales of a covariance ellipse."""

    theta: float
    sigma_x: float
    sigma_y: float

    def __post_init__(self):
        if not (0.0 < self.sigma_x < math.inf and 0.0 < self.sigma_y < math.inf):
            raise ValueError(f"axis scales must be positive and finite, got ({self.sigma_x}, {self.sigma_y})")
        if not (math.isfinite(self.theta) and abs(self.theta) <= HALF_PI + ANGLE_TOL):
            raise ValueError(f"theta must lie in [-pi/2, pi/2], got {self.theta}")


@dataclass(frozen=True)
class PairFeatures:
    """Raw pair parameters: weight ratio, center distance, two shapes."""

    tau: float
    mu: float
    shape_u: ShapeParams
    shape_v: ShapeParams

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if not (self.mu >= 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")

    def as_vector(self) -> np.ndarray:
        return np.array(
            [
                self.tau,
                self.mu,
                self.shape_u.sigma_x,
                self.shape_u.sigma_y,
                self.shape_v.sigma_x,
                self.shape_v.sigma_y,
                self.shape_u.theta,
                self.shape_v.theta,
            ],
            dtype=float,
        )

    @classmethod
    def from_vector(cls, vec):
        """Inverse of :meth:`as_vector`."""
        tau, mu, sux, suy, svx, svy, thu, thv = map(float, vec)
        return cls(tau=tau, mu=mu, shape_u=ShapeParams(thu, sux, suy), shape_v=ShapeParams(thv, svx, svy))


def compose_covariance(shape: ShapeParams) -> tuple[float, float, float]:
    """(xx, xy, yy) of R * S^2 * R^T for rotation R(theta) and scaling S = diag(sx, sy)."""
    c = math.cos(shape.theta)
    s = math.sin(shape.theta)
    sx2 = shape.sigma_x * shape.sigma_x
    sy2 = shape.sigma_y * shape.sigma_y
    return c * c * sx2 + s * s * sy2, c * s * (sx2 - sy2), s * s * sx2 + c * c * sy2


def decompose_covariance(cov) -> ShapeParams:
    """Inverse of :func:`compose_covariance` for a covariance given as (xx, xy, yy), in canonical form.

    Canonical form: sigma_x >= sigma_y (largest axis first), theta is the
    orientation of the sigma_x axis wrapped into (-pi/2, pi/2], and an
    isotropic covariance yields theta = 0.
    """
    xx, xy, yy = map(float, cov)
    det = xx * yy - xy * xy
    if not (xx > 0.0 and yy > 0.0 and det > 0.0):
        raise DegenerateCovarianceError(f"covariance is not positive definite (det={det})")
    theta = 0.5 * math.atan2(2.0 * xy, xx - yy)
    half_gap = math.hypot(0.5 * (xx - yy), xy)
    lam1 = 0.5 * (xx + yy) + half_gap
    lam2 = det / lam1
    return ShapeParams(theta=theta, sigma_x=math.sqrt(lam1), sigma_y=math.sqrt(lam2))


def _aligned_row(w_a: float, w_b: float, mean_a, mean_b, shape_a: ShapeParams, shape_b: ShapeParams) -> list[float]:
    """The aligned row of components a and b: beta (from the a->b center direction to the positive y-axis) is
    added to both thetas, and mu and the four sigmas are divided by their maximum.  Coincident means leave
    beta = 0: the pattern is rotation-symmetric, so any choice is equivalent."""
    dx, dy = mean_b[0] - mean_a[0], mean_b[1] - mean_a[1]
    mu = math.hypot(dx, dy)
    beta = 0.0 if mu < 1e-12 else HALF_PI - math.atan2(dy, dx)
    s = max(mu, shape_a.sigma_x, shape_a.sigma_y, shape_b.sigma_x, shape_b.sigma_y)
    return [w_a / (w_a + w_b), mu / s, shape_a.sigma_x / s, shape_a.sigma_y / s, shape_b.sigma_x / s,
            shape_b.sigma_y / s, wrap_angle(shape_a.theta + beta), wrap_angle(shape_b.theta + beta)]


def align_training_record(raw: PairFeatures) -> PairFeatures:
    """Align a generator-convention record as a two-component mixture: weights tau and 1 - tau, u at (0, 0),
    v at (0, mu) (so beta = 0), and each shape through the composition / decomposition round trip into the
    canonical decomposition convention."""
    shape_u = decompose_covariance(compose_covariance(raw.shape_u))
    shape_v = decompose_covariance(compose_covariance(raw.shape_v))
    return PairFeatures.from_vector(_aligned_row(raw.tau, 1.0 - raw.tau, (0.0, 0.0), (0.0, raw.mu), shape_u, shape_v))


def aligned_pair_from_model(model: MixtureModel, u, v) -> np.ndarray:
    """(P, 8) aligned feature rows of the component pairs (u[i], v[i]) of a fitted mixture, with the shapes from
    :func:`decompose_covariance`.  Each pair is computed with Python floats and ``math``: ``np.arctan2`` and
    ``np.hypot`` can differ from them in the last bit."""
    u, v = np.atleast_1d(u).tolist(), np.atleast_1d(v).tolist()
    if len(u) != len(v):
        raise ValueError(f"got {len(u)} first and {len(v)} second pair indices")
    if any(a == b for a, b in zip(u, v)):
        raise ValueError("pair indices must differ")
    if not all(0 <= j < model.k for j in u + v):
        raise ValueError(f"component index out of range for K={model.k}")
    weights, means, covs = model.weights.tolist(), model.means.tolist(), model.covs.tolist()
    shapes = {j: decompose_covariance(covs[j]) for j in sorted(set(u + v))}
    rows = [_aligned_row(weights[a], weights[b], means[a], means[b], shapes[a], shapes[b]) for a, b in zip(u, v)]
    return np.array(rows, dtype=float).reshape(-1, 8)
