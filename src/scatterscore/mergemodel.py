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

from .augment import canonical_key
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
    preprocess: PreprocessSpec = field(default_factory=PreprocessSpec)
    cv_folds: int = 10
    cv_repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError("test_fraction must be in (0, 1)")
        if self.balance not in BALANCE_METHODS:
            raise ValueError(f"balance must be one of {BALANCE_METHODS}, got {self.balance!r}")
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
# Splitting and balancing: each picks rows of the labels y by index


def _matrix(records) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and labels of a TrainingCorpus or a sequence of LabeledPair."""
    X = np.array([r.features.as_vector() for r in records], dtype=float)
    y = np.array([r.label for r in records], dtype=np.int8)
    return X, y


def _class_rows(y, folds: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of label 0 and of label 1; ValueError unless both labels are
    present and each has at least ``folds`` rows."""
    rows = tuple(np.flatnonzero(np.asarray(y) == c) for c in (0, 1))
    sizes = [len(r) for r in rows]
    if min(sizes) == 0:
        raise ValueError(f"the corpus needs records of both labels, has {sizes[0]} with label 0 and {sizes[1]} with label 1")
    if folds > min(sizes):
        raise ValueError(f"cv_folds {folds} exceeds the {min(sizes)} records of the smaller label")
    return rows


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


def _test_counts(class_sizes: list[int], test_fraction: float) -> list[int]:
    """Per-class test counts; ValueError unless the test set is non-empty and
    each class keeps a training record."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    n_test = _largest_remainder_counts(class_sizes, test_fraction)
    if sum(n_test) == 0 or any(t == n for t, n in zip(n_test, class_sizes)):
        raise ValueError(
            f"test_fraction {test_fraction} of {sum(class_sizes)} records leaves the test set empty "
            "or a label without training records"
        )
    return n_test


def check_corpus(corpus, config: TrainConfig | None = None, cv: bool = False) -> None:
    """ValueError unless ``corpus`` has records of both labels and, given a
    ``config``, ``train_bagged`` (and, with ``cv``, ``cross_validate``) can
    run on it under that config."""
    rows = _class_rows([r.label for r in corpus], config.cv_folds if cv else 0)
    if config is not None:
        _test_counts([len(r) for r in rows], config.test_fraction)


def stratified_split(y, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Class-stratified random split of the rows of labels ``y`` into
    (train, test) row indices, each in ascending order.

    Per-class test counts come from largest-remainder apportionment of
    round(test_fraction * N), so class proportions are preserved within
    one record and the total test size is exact.
    """
    by_class = _class_rows(y)
    n_test = _test_counts([len(rows) for rows in by_class], test_fraction)
    rng = spawn_rng(seed, "split")
    is_test = np.zeros(len(y), dtype=bool)
    for rows, n_c in zip(by_class, n_test):
        is_test[rows[rng.permutation(len(rows))[:n_c]]] = True
    return np.flatnonzero(~is_test), np.flatnonzero(is_test)


def up_sample(y, seed: int) -> np.ndarray:
    """Row indices that resample the minority label with replacement until
    the label counts match: every row once, in order, then the replicas."""
    minority, majority = sorted(_class_rows(y), key=len)
    if len(minority) == len(majority):
        return np.arange(len(y))
    extra = spawn_rng(seed, "balance").integers(0, len(minority), size=len(majority) - len(minority))
    return np.concatenate([np.arange(len(y)), minority[extra]])


def down_sample(y, seed: int) -> np.ndarray:
    """Row indices, in order, that keep a minority-sized subset of the
    majority label drawn without replacement, and every minority row."""
    minority, majority = sorted(_class_rows(y), key=len)
    keep = np.ones(len(y), dtype=bool)
    if len(minority) < len(majority):
        keep[majority[spawn_rng(seed, "balance").permutation(len(majority))[len(minority):]]] = False
    return np.flatnonzero(keep)


def _balance(y, method: str, seed: int) -> np.ndarray:
    if method == "none":
        return np.arange(len(y))
    if method == "up_sample":
        return up_sample(y, seed)
    if method == "down_sample":
        return down_sample(y, seed)
    raise ValueError(f"unknown balance method {method!r}")


def corpus_fingerprint(records) -> str:
    """SHA-256 over canonical (features, label) rows, order-independent."""
    lines = sorted(f"{canonical_key(r.features)}|{r.label}" for r in records)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Training: each entry point builds (X, y) once and passes row indices on


def _prepare(X: np.ndarray, y: np.ndarray, train: np.ndarray, config: TrainConfig, seed: int):
    """Balance the rows ``train`` of (X, y) and fit preprocessing on them alone.

    Returns (fitted preprocessing, transformed feature matrix, labels).
    """
    rows = train[_balance(y[train], config.balance, seed)]
    X_rows = X[rows]
    fitted = fit_preprocess(X_rows, config.preprocess)
    return fitted, fitted.apply_matrix(X_rows), y[rows]


def _fit_and_score(X, y, train, test, config: TrainConfig, seed: int, metadata: dict):
    """Bag trees on the rows ``train`` of (X, y); returns (model, confusion on the rows ``test``)."""
    fitted, X_train, y_train = _prepare(X, y, train, config, seed)
    trees = fit_bagged_trees(X_train, y_train, config.n_trees, derive_seed(seed, "bag"))
    model = MergingModel(preprocess=fitted, trees=tuple(trees), metadata=metadata)
    return model, ConfusionCounts.from_predictions(y[test], predict_matrix(model, X[test]))


def train_bagged(corpus, config: TrainConfig):
    """Split, balance, preprocess, and bag trees; returns (model, test confusion).

    The split uses seed path (seed, "split"); balancing (seed, "balance");
    per-tree bootstraps ((seed, "bag"), "tree", i).  Preprocessing is
    fitted on the balanced training portion only.
    """
    X, y = _matrix(corpus)
    train, test = stratified_split(y, config.test_fraction, config.seed)
    metadata = {
        "seed": config.seed,
        "balance": config.balance,
        "preprocess": list(config.preprocess.steps),
        "n_trees": config.n_trees,
        "corpus_fingerprint": corpus_fingerprint(corpus),
        "n_train": len(train),
        "n_test": len(test),
    }
    return _fit_and_score(X, y, train, test, config, config.seed, metadata)


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


def _cv_folds(records, y: np.ndarray, config: TrainConfig):
    """Yield (repeat, fold, train rows, test rows) of every fold of every repeat.

    Each label's rows are sorted by content and dealt round-robin into the
    folds in the order of a seeded permutation; a fold's training rows are
    the other folds' rows, in fold order.
    """
    k = config.cv_folds
    by_class = [
        np.array(sorted(rows.tolist(), key=lambda i: canonical_key(records[i].features)))
        for rows in _class_rows(y, k)
    ]
    for rep in range(config.cv_repeats):
        rng = spawn_rng(config.seed, "cv", rep)
        dealt = [rows[rng.permutation(len(rows))] for rows in by_class]
        folds = [np.concatenate([d[f::k] for d in dealt]) for f in range(k)]
        for f in range(k):
            yield rep, f, np.concatenate(folds[:f] + folds[f + 1:]), folds[f]


def cross_validate(corpus, config: TrainConfig) -> list[float]:
    """Repeated stratified k-fold MCC; everything re-fitted inside folds.

    Fold membership is derived from a seeded permutation of records sorted
    by content, so shuffling the corpus row order changes nothing.
    """
    records = list(corpus)
    X, y = _matrix(records)
    out: list[float] = []
    for rep, f, train, test in _cv_folds(records, y, config):
        _, confusion = _fit_and_score(X, y, train, test, config, derive_seed(config.seed, "cv", rep, f), {})
        out.append(mcc(confusion))
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
        model = MergingModel(
            preprocess=FittedPreprocess.from_dict(payload["preprocess"]),
            trees=tuple(DecisionTree.from_dict(t) for t in payload["trees"]),
            metadata=dict(payload["metadata"]),
        )
        dim = model.preprocess.output_dim
        if any(t.feature.max() >= dim for t in model.trees):
            raise ValueError(f"a tree splits on a feature beyond the {dim} preprocessed features")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"corrupt model payload: {exc}") from None
    return model


# ---------------------------------------------------------------------------
# Baselines


def _knn(X: np.ndarray, y: np.ndarray, k: int):
    """Vote of the k nearest rows of X (stable order on equal distance); a tie merges."""
    if k < 1:
        raise ValueError(f"knn_k must be >= 1, got {k}")

    def vote(x: np.ndarray) -> int:
        nearest = np.argsort(((X - x) ** 2).sum(axis=1), kind="stable")[:k]
        return 1 if 2 * int(y[nearest].sum()) >= k else 0

    return vote


def _naive_bayes(X: np.ndarray, y: np.ndarray):
    """Vote of a Gaussian naive Bayes fitted on (X, y), variances floored by 1e-9."""
    means = np.stack([X[y == c].mean(axis=0) for c in (0, 1)])
    variances = np.stack([X[y == c].var(axis=0) for c in (0, 1)]) + 1e-9
    log_prior = np.log(np.array([(y == 0).mean(), (y == 1).mean()]))

    def vote(x: np.ndarray) -> int:
        ll = log_prior - 0.5 * (np.log(2.0 * np.pi * variances) + (x - means) ** 2 / variances).sum(axis=1)
        return int(np.argmax(ll))

    return vote


def train_baseline(corpus, config: TrainConfig, method: str, knn_k: int = 5) -> ConfusionCounts:
    """Test confusion of a kNN or naive Bayes comparator trained like the bag.

    Split, balancing and preprocessing are those of ``train_bagged``; each
    test row is transformed on its own.
    """
    if method not in ("knn", "nb"):
        raise ValueError(f"unknown baseline method {method!r}")
    X, y = _matrix(corpus)
    train, test = stratified_split(y, config.test_fraction, config.seed)
    fitted, X_train, y_train = _prepare(X, y, train, config, config.seed)
    vote = _knn(X_train, y_train, knn_k) if method == "knn" else _naive_bayes(X_train, y_train)
    votes = np.array([vote(fitted.apply_matrix(x)) for x in X[test]], dtype=np.int8)
    return ConfusionCounts.from_predictions(y[test], votes)
