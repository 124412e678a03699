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

from .gmm import Covariance2, DegenerateCovarianceError, MixtureModel, Point2D

HALF_PI = 0.5 * math.pi
ANGLE_TOL = 1e-6  # how far past +-pi/2 a theta may lie
SCALE_TOL = 1e-9  # how far from 1 the largest aligned scale may lie


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
        if not (self.sigma_x > 0.0 and self.sigma_y > 0.0):
            raise ValueError(f"axis scales must be positive, got ({self.sigma_x}, {self.sigma_y})")
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


@dataclass(frozen=True)
class AlignedPairFeatures(PairFeatures):
    """Pair features in the classifier convention: max(mu, sigmas) == 1."""

    def __post_init__(self):
        super().__post_init__()
        top = max(
            self.mu,
            self.shape_u.sigma_x,
            self.shape_u.sigma_y,
            self.shape_v.sigma_x,
            self.shape_v.sigma_y,
        )
        if abs(top - 1.0) > SCALE_TOL:
            raise ValueError(f"aligned features must have max scale 1, got {top}")


def compose_covariance(shape: ShapeParams) -> Covariance2:
    """R * S^2 * R^T for rotation R(theta) and scaling S = diag(sx, sy)."""
    c = math.cos(shape.theta)
    s = math.sin(shape.theta)
    sx2 = shape.sigma_x * shape.sigma_x
    sy2 = shape.sigma_y * shape.sigma_y
    return Covariance2(
        xx=c * c * sx2 + s * s * sy2,
        xy=c * s * (sx2 - sy2),
        yy=s * s * sx2 + c * c * sy2,
    )


def decompose_covariance(cov: Covariance2) -> ShapeParams:
    """Inverse of :func:`compose_covariance`, in canonical form.

    Canonical form: sigma_x >= sigma_y (largest axis first), theta is the
    orientation of the sigma_x axis wrapped into (-pi/2, pi/2], and an
    isotropic covariance yields theta = 0.
    """
    det = cov.det
    if not (cov.xx > 0.0 and cov.yy > 0.0 and det > 0.0):
        raise DegenerateCovarianceError(f"covariance is not positive definite (det={det})")
    theta = 0.5 * math.atan2(2.0 * cov.xy, cov.xx - cov.yy)
    half_gap = math.hypot(0.5 * (cov.xx - cov.yy), cov.xy)
    lam1 = 0.5 * (cov.xx + cov.yy) + half_gap
    lam2 = det / lam1
    return ShapeParams(theta=theta, sigma_x=math.sqrt(lam1), sigma_y=math.sqrt(lam2))


def extract_pair_features(model: MixtureModel, u: int, v: int):
    """Pair features of components (u, v) plus their raw means.

    tau = w_u / (w_u + w_v); mu is the Euclidean distance between means;
    shapes come from :func:`decompose_covariance`.  The raw means are
    returned for the later alignment-angle computation.
    """
    if u == v:
        raise ValueError("pair indices must differ")
    k = model.k
    if not (0 <= u < k and 0 <= v < k):
        raise ValueError(f"component index out of range for K={k}")
    cu = model.components[u]
    cv = model.components[v]
    tau = cu.weight / (cu.weight + cv.weight)
    mu = math.hypot(cv.mean.x - cu.mean.x, cv.mean.y - cu.mean.y)
    features = PairFeatures(
        tau=tau,
        mu=mu,
        shape_u=decompose_covariance(cu.cov),
        shape_v=decompose_covariance(cv.cov),
    )
    return features, cu.mean, cv.mean


def _rescaled(features: PairFeatures, beta: float) -> AlignedPairFeatures:
    su, sv = features.shape_u, features.shape_v
    s = max(features.mu, su.sigma_x, su.sigma_y, sv.sigma_x, sv.sigma_y)
    return AlignedPairFeatures(
        tau=features.tau,
        mu=features.mu / s,
        shape_u=ShapeParams(wrap_angle(su.theta + beta), su.sigma_x / s, su.sigma_y / s),
        shape_v=ShapeParams(wrap_angle(sv.theta + beta), sv.sigma_x / s, sv.sigma_y / s),
    )


def align(features: PairFeatures, mean_u: Point2D, mean_v: Point2D) -> AlignedPairFeatures:
    """Map inferred pair features into the training convention.

    The correcting angle beta (from the u->v center direction to the
    positive y-axis) is added to both thetas, then mu and the four sigmas
    are divided by their maximum.  Coincident means leave beta = 0: the
    pattern is rotation-symmetric, so any choice is equivalent.
    """
    dx = float(mean_v[0]) - float(mean_u[0])
    dy = float(mean_v[1]) - float(mean_u[1])
    dist = math.hypot(dx, dy)
    beta = 0.0 if dist < 1e-12 else HALF_PI - math.atan2(dy, dx)
    return _rescaled(features, beta)


def align_training_record(raw: PairFeatures) -> AlignedPairFeatures:
    """Align a generator-convention record (centers already on the y-axis).

    Each (theta, sigma_x, sigma_y) is passed through the composition /
    decomposition round trip to land in the canonical decomposition
    convention, then the record is rescaled; no angle correction is
    needed because beta = 0 by construction.
    """
    canonical = PairFeatures(
        tau=raw.tau,
        mu=raw.mu,
        shape_u=decompose_covariance(compose_covariance(raw.shape_u)),
        shape_v=decompose_covariance(compose_covariance(raw.shape_v)),
    )
    return _rescaled(canonical, beta=0.0)


def aligned_pair_from_model(model: MixtureModel, u: int, v: int) -> AlignedPairFeatures:
    """Convenience: extract + align a component pair of a fitted mixture."""
    features, mean_u, mean_v = extract_pair_features(model, u, v)
    return align(features, mean_u, mean_v)
