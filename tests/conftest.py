import math

import numpy as np
import pytest

from scatterscore.augment import TrainingCorpus
from scatterscore.gmm import Covariance2, Scatterplot
from scatterscore.mergemodel import TrainConfig, train_bagged
from scatterscore.pairspace import PairFeatures, ShapeParams, align
from scatterscore.preprocess import PreprocessSpec


def random_spd(rng) -> Covariance2:
    """Random SPD matrix built from a rotation and positive axis scales."""
    theta = rng.uniform(-math.pi, math.pi)
    sx, sy = rng.uniform(0.2, 4.0, size=2)
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    m = r @ np.diag([sx**2, sy**2]) @ r.T
    return Covariance2(xx=m[0, 0], xy=m[0, 1], yy=m[1, 1])


def random_shape(rng, theta_range=(-math.pi / 2 * 0.999, math.pi / 2)) -> ShapeParams:
    return ShapeParams(
        theta=rng.uniform(*theta_range),
        sigma_x=rng.uniform(0.3, 3.0),
        sigma_y=rng.uniform(0.3, 3.0),
    )


def random_aligned(rng, mu_range=(0.0, 10.0)):
    mu = rng.uniform(*mu_range)
    raw = PairFeatures(
        tau=rng.uniform(0.05, 0.95),
        mu=mu,
        shape_u=random_shape(rng),
        shape_v=random_shape(rng),
    )
    return align(raw, (0.0, 0.0), (0.0, mu))


def make_corpus(features, labels, prefix="p") -> TrainingCorpus:
    """Corpus of aligned ``features`` with ``labels``, origin ids ``<prefix><row>``."""
    X = np.array([f.as_vector() for f in features], dtype=float).reshape(-1, 8)
    return TrainingCorpus(X=X, y=np.asarray(labels), origin_ids=[f"{prefix}{i}" for i in range(len(X))])


def threshold_rule_pairs(n, seed, feature_index=0, noise=0.0):
    """Labeled pairs from a mean-threshold rule on one aligned feature.

    Returns (corpus, clean_labels, threshold).  Noise flips the stored
    labels; clean_labels keep the rule's output.
    """
    rng = np.random.default_rng(seed)
    feats = [random_aligned(rng) for _ in range(n)]
    vals = np.array([f.as_vector()[feature_index] for f in feats])
    thr = float(vals.mean())
    clean = (vals > thr).astype(int)
    labels = clean.copy()
    if noise > 0.0:
        flip = rng.random(n) < noise
        labels = np.where(flip, 1 - labels, labels)
    return make_corpus(feats, labels, "r"), clean, thr


def separation_rule_pairs(n, seed):
    """Pairs labeled merge when centers are within the summed mean radii.

    In raw terms: merge iff mu <= (sx_u + sy_u + sx_v + sy_v) / 2, which
    scales through alignment unchanged.
    """
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for _ in range(n):
        mu = rng.uniform(0.0, 12.0)
        su = random_shape(rng)
        sv = random_shape(rng)
        raw = PairFeatures(tau=rng.uniform(0.1, 0.9), mu=mu, shape_u=su, shape_v=sv)
        labels.append(int(mu <= 0.5 * (su.sigma_x + su.sigma_y + sv.sigma_x + sv.sigma_y)))
        feats.append(align(raw, (0.0, 0.0), (0.0, mu)))
    return make_corpus(feats, labels, "s")


def gaussian_blob(n, mean, seed, cov=None):
    rng = np.random.default_rng(seed)
    if cov is None:
        pts = rng.normal(loc=mean, scale=1.0, size=(n, 2))
    else:
        pts = rng.multivariate_normal(mean, cov, size=n)
    return Scatterplot(points=pts)


def two_blob_plot(n_per, separation, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=[0.0, 0.0], scale=1.0, size=(n_per, 2))
    b = rng.normal(loc=[0.0, separation], scale=1.0, size=(n_per, 2))
    return Scatterplot(points=np.vstack([a, b]))


@pytest.fixture(scope="session")
def trained_merger():
    """Merging model trained on a separation-rule corpus; shared across tests."""
    pairs = separation_rule_pairs(3000, seed=42)
    config = TrainConfig(
        n_trees=15,
        seed=7,
        balance="none",
        preprocess=PreprocessSpec(steps=("center_scale",)),
    )
    model, _ = train_bagged(pairs, config)
    return model
