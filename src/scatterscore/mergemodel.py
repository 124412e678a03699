"""Training, evaluation, and serialization of the merging classifier.

The selected pipeline is an up-sample-balanced bagged-tree ensemble over
center/scale -> Box-Cox -> PCA -> spatial-sign transformed pair features,
with k-nearest-neighbor and Gaussian naive Bayes baselines for
comparison.  Balancing and preprocessing are fitted on the training
portion only; the held-out portion is never touched before evaluation.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .augment import LabeledPair, TrainingCorpus, canonical_key
from .pairspace import AlignedPairFeatures
from .preprocess import FittedPreprocess, PreprocessSpec, fit_preprocess
from .trees import DecisionTree, ensemble_vote_fraction, fit_bagged_trees
from .util import derive_seed, spawn_rng

BALANCE_METHODS = ("none", "up_sample", "down_sample")


class ModelFormatError(ValueError):
    """Serialized model payload is corrupt or has an unsupported version."""


@dataclass(frozen=True)
class TrainConfig:
    n_trees: int = 25
    test_fraction: float = 0.2
    balance: str = "up_sample"
    preprocess: PreprocessSpec = field(default_factory=PreprocessSpec.all_steps)
    cv_folds: int = 10
    cv_repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError("test_fraction must be in (0, 1)")
        if self.balance not in BALANCE_METHODS:
            raise ValueError(f"balance must be one of {BALANCE_METHODS}")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.cv_repeats < 1:
            raise ValueError("cv_repeats must be >= 1")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionCounts":
        t = np.asarray(y_true, dtype=np.int8)
        p = np.asarray(y_pred, dtype=np.int8)
        if t.shape != p.shape:
            raise ValueError("prediction and truth lengths differ")
        return cls(
            tp=int(np.sum((t == 1) & (p == 1))),
            tn=int(np.sum((t == 0) & (p == 0))),
            fp=int(np.sum((t == 0) & (p == 1))),
            fn=int(np.sum((t == 1) & (p == 0))),
        )


def mcc(counts: ConfusionCounts) -> float:
    """Matthews correlation; 0 when any denominator factor vanishes."""
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


@dataclass(frozen=True, eq=False)
class MergingModel:
    """Fitted preprocessing pipeline + bagged-tree ensemble."""

    preprocess: FittedPreprocess
    trees: tuple[DecisionTree, ...]
    metadata: dict

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if len(self.trees) < 1:
            raise ValueError("model needs at least one tree")


# ---------------------------------------------------------------------------
# Splitting and balancing


def _as_records(corpus) -> list[LabeledPair]:
    if isinstance(corpus, TrainingCorpus):
        return list(corpus.records)
    return list(corpus)


def _largest_remainder_counts(class_sizes: list[int], fraction: float) -> list[int]:
    """Per-class test counts summing to round(fraction * total)."""
    total = int(round(fraction * sum(class_sizes)))
    quotas = [fraction * n for n in class_sizes]
    base = [min(int(math.floor(q)), n) for q, n in zip(quotas, class_sizes)]
    remainder = total - sum(base)
    order = sorted(
        range(len(class_sizes)),
        key=lambda i: (quotas[i] - base[i], class_sizes[i]),
        reverse=True,
    )
    for i in order:
        if remainder <= 0:
            break
        if base[i] < class_sizes[i]:
            base[i] += 1
            remainder -= 1
    return base


def stratified_split(corpus, test_fraction: float, seed: int):
    """Class-stratified random split into (train, test) record lists.

    Per-class test counts come from largest-remainder apportionment of
    round(test_fraction * N), so class proportions are preserved within
    one record and the total test size is exact.
    """
    records = _as_records(corpus)
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    labels = sorted({r.label for r in records})
    if len(labels) < 2:
        raise ValueError("stratified split needs both classes present")
    rng = spawn_rng(seed, "split")
    by_class = {c: [i for i, r in enumerate(records) if r.label == c] for c in labels}
    n_test = _largest_remainder_counts([len(by_class[c]) for c in labels], test_fraction)
    test_idx: set[int] = set()
    for c, n_c in zip(labels, n_test):
        perm = rng.permutation(len(by_class[c]))
        test_idx.update(by_class[c][j] for j in perm[:n_c])
    train = [records[i] for i in range(len(records)) if i not in test_idx]
    test = [records[i] for i in range(len(records)) if i in test_idx]
    return train, test


def up_sample(train, seed: int) -> list[LabeledPair]:
    """Resample the minority class with replacement until counts match.

    All original records are retained; replicas are appended at the end.
    """
    records = _as_records(train)
    ones = [i for i, r in enumerate(records) if r.label == 1]
    zeros = [i for i, r in enumerate(records) if r.label == 0]
    if not ones or not zeros:
        raise ValueError("balancing needs both classes present")
    if len(ones) == len(zeros):
        return records
    minority = ones if len(ones) < len(zeros) else zeros
    gap = abs(len(ones) - len(zeros))
    rng = spawn_rng(seed, "balance")
    extra = rng.integers(0, len(minority), size=gap)
    return records + [records[minority[j]] for j in extra]


def down_sample(train, seed: int) -> list[LabeledPair]:
    """Subsample the majority class (without replacement) to the minority size."""
    records = _as_records(train)
    ones = [i for i, r in enumerate(records) if r.label == 1]
    zeros = [i for i, r in enumerate(records) if r.label == 0]
    if not ones or not zeros:
        raise ValueError("balancing needs both classes present")
    if len(ones) == len(zeros):
        return records
    majority, n_keep = (ones, len(zeros)) if len(ones) > len(zeros) else (zeros, len(ones))
    rng = spawn_rng(seed, "balance")
    kept = {majority[j] for j in rng.permutation(len(majority))[:n_keep]}
    majority_set = set(majority)
    return [r for i, r in enumerate(records) if i not in majority_set or i in kept]


def _balance(train, method: str, seed: int) -> list[LabeledPair]:
    if method == "none":
        return _as_records(train)
    if method == "up_sample":
        return up_sample(train, seed)
    if method == "down_sample":
        return down_sample(train, seed)
    raise ValueError(f"unknown balance method {method!r}")


def _matrix(records) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([r.features.as_vector() for r in records], dtype=float)
    y = np.array([r.label for r in records], dtype=np.int8)
    return X, y


def corpus_fingerprint(records) -> str:
    """SHA-256 over canonical (features, label) rows, order-independent."""
    lines = sorted(f"{canonical_key(r.features)}|{r.label}" for r in _as_records(records))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Training


def _fit_core(train_records, config: TrainConfig, seed: int):
    balanced = _balance(train_records, config.balance, seed)
    Xb, yb = _matrix(balanced)
    fitted = fit_preprocess(Xb, config.preprocess)
    trees = fit_bagged_trees(fitted.apply_matrix(Xb), yb, config.n_trees, derive_seed(seed, "bag"))
    return fitted, trees


def train_bagged(corpus, config: TrainConfig):
    """Split, balance, preprocess, and bag trees; returns (model, test confusion).

    The split uses seed path (seed, "split"); balancing (seed, "balance");
    per-tree bootstraps ((seed, "bag"), "tree", i).  Preprocessing is
    fitted on the balanced training portion only.
    """
    records = _as_records(corpus)
    train, test = stratified_split(records, config.test_fraction, config.seed)
    fitted, trees = _fit_core(train, config, config.seed)
    model = MergingModel(
        preprocess=fitted,
        trees=tuple(trees),
        metadata={
            "seed": config.seed,
            "balance": config.balance,
            "preprocess": list(config.preprocess.steps),
            "n_trees": config.n_trees,
            "corpus_fingerprint": corpus_fingerprint(records),
            "n_train": len(train),
            "n_test": len(test),
        },
    )
    Xt, yt = _matrix(test)
    pred = predict_matrix(model, Xt)
    return model, ConfusionCounts.from_predictions(yt, pred)


def _merges(frac: np.ndarray) -> np.ndarray:
    """Merge decisions from tree vote shares: a tied vote merges, mirroring
    the label tie rule."""
    return (frac >= 0.5).astype(np.int8)


def predict_matrix(model: MergingModel, X: np.ndarray) -> np.ndarray:
    return _merges(ensemble_vote_fraction(model.trees, model.preprocess.apply_matrix(X)))


def predict(model: MergingModel, features: AlignedPairFeatures) -> tuple[int, float]:
    """Merge decision for one aligned pair: (H, share of trees voting 1)."""
    frac = ensemble_vote_fraction(model.trees, model.preprocess.apply_matrix(features.as_vector()))
    return int(_merges(frac)[0]), float(frac[0])


def cross_validate(corpus, config: TrainConfig) -> list[float]:
    """Repeated stratified k-fold MCC; everything re-fitted inside folds.

    Fold membership is derived from a seeded permutation of records sorted
    by content, so shuffling the corpus row order changes nothing.
    """
    records = _as_records(corpus)
    labels = sorted({r.label for r in records})
    if len(labels) < 2:
        raise ValueError("cross-validation needs both classes present")
    counts = {c: sum(1 for r in records if r.label == c) for c in labels}
    if config.cv_folds > min(counts.values()):
        raise ValueError("cv_folds exceeds the minority class count")

    sorted_by_class = {
        c: sorted(
            (r for r in records if r.label == c),
            key=lambda r: canonical_key(r.features),
        )
        for c in labels
    }
    out: list[float] = []
    for rep in range(config.cv_repeats):
        rng = spawn_rng(config.seed, "cv", rep)
        fold_of: dict[int, list[LabeledPair]] = {f: [] for f in range(config.cv_folds)}
        for c in labels:
            recs = sorted_by_class[c]
            perm = rng.permutation(len(recs))
            for pos, j in enumerate(perm):
                fold_of[pos % config.cv_folds].append(recs[j])
        for f in range(config.cv_folds):
            test = fold_of[f]
            train = [r for g in range(config.cv_folds) if g != f for r in fold_of[g]]
            fitted, trees = _fit_core(train, config, derive_seed(config.seed, "cv", rep, f))
            Xt, yt = _matrix(test)
            pred = _merges(ensemble_vote_fraction(trees, fitted.apply_matrix(Xt)))
            out.append(mcc(ConfusionCounts.from_predictions(yt, pred)))
    return out


# ---------------------------------------------------------------------------
# Serialization

_FORMAT = "merging-model"
_VERSION = 2


def serialize(model: MergingModel) -> bytes:
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "preprocess": model.preprocess.to_dict(),
        "trees": [t.to_dict() for t in model.trees],
        "metadata": model.metadata,
    }
    return json.dumps(payload, indent=1).encode("utf-8")


def deserialize(data: bytes) -> MergingModel:
    if not data:
        raise ModelFormatError("empty model payload")
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"corrupt model payload: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ModelFormatError("not a merging-model payload")
    if payload.get("version") != _VERSION:
        raise ModelFormatError(f"unsupported model version {payload.get('version')!r}")
    try:
        return MergingModel(
            preprocess=FittedPreprocess.from_dict(payload["preprocess"]),
            trees=tuple(DecisionTree.from_dict(t) for t in payload["trees"]),
            metadata=dict(payload["metadata"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupt model payload: {exc}") from None


# ---------------------------------------------------------------------------
# Baselines


@dataclass(frozen=True, eq=False)
class KnnModel:
    preprocess: FittedPreprocess
    X: np.ndarray
    y: np.ndarray
    k: int

    def predict_row(self, row) -> int:
        x = self.preprocess.apply_matrix(row)
        d2 = ((self.X - x) ** 2).sum(axis=1)
        order = np.argsort(d2, kind="stable")[: self.k]
        ones = int(self.y[order].sum())
        return 1 if 2 * ones >= self.k else 0


@dataclass(frozen=True, eq=False)
class NaiveBayesModel:
    preprocess: FittedPreprocess
    log_prior: np.ndarray  # (2,)
    means: np.ndarray  # (2, d)
    variances: np.ndarray  # (2, d)

    def predict_row(self, row) -> int:
        x = self.preprocess.apply_matrix(row)
        ll = self.log_prior - 0.5 * (
            np.log(2.0 * np.pi * self.variances) + (x - self.means) ** 2 / self.variances
        ).sum(axis=1)
        return int(np.argmax(ll))


def train_baseline(corpus, config: TrainConfig, method: str, knn_k: int = 5):
    """Train a kNN or naive Bayes comparator with the same protocol."""
    records = _as_records(corpus)
    train, test = stratified_split(records, config.test_fraction, config.seed)
    balanced = _balance(train, config.balance, config.seed)
    Xb, yb = _matrix(balanced)
    fitted = fit_preprocess(Xb, config.preprocess)
    Xp = fitted.apply_matrix(Xb)
    if method == "knn":
        model = KnnModel(preprocess=fitted, X=Xp, y=yb, k=knn_k)
    elif method == "nb":
        means = np.stack([Xp[yb == c].mean(axis=0) for c in (0, 1)])
        variances = np.stack([Xp[yb == c].var(axis=0) for c in (0, 1)]) + 1e-9
        prior = np.array([(yb == 0).mean(), (yb == 1).mean()])
        model = NaiveBayesModel(
            preprocess=fitted, log_prior=np.log(prior), means=means, variances=variances
        )
    else:
        raise ValueError(f"unknown baseline method {method!r}")
    Xt, yt = _matrix(test)
    pred = np.array([model.predict_row(x) for x in Xt], dtype=np.int8)
    return model, ConfusionCounts.from_predictions(yt, pred)
