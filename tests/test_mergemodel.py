import hashlib
import json
import math
from collections import Counter, namedtuple
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from scatterscore import mergemodel
from scatterscore.augment import build_corpus, ingest_benchmark, read_corpus_csv, write_corpus_csv
from scatterscore.mergemodel import (
    ConfusionCounts,
    ModelFormatError,
    TrainConfig,
    corpus_fingerprint,
    cross_validate,
    deserialize,
    down_sample,
    mcc,
    predict,
    serialize,
    stratified_split,
    train_baseline,
    train_bagged,
    up_sample,
)
from scatterscore.preprocess import PreprocessSpec
from scatterscore.trees import fit_bagged_trees
from scatterscore.util import spawn_rng

from conftest import make_corpus, random_aligned, threshold_rule_pairs

CS_ONLY = PreprocessSpec(steps=("center_scale",))
JUDGED = Path(__file__).parent / "data" / "judged.csv"


def labeled_pairs(n, seed, class1_fraction=0.5):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < class1_fraction).astype(int)
    return make_corpus([random_aligned(rng) for _ in range(n)], labels)


class TestMcc:
    def test_perfect(self):
        assert mcc(ConfusionCounts(tp=50, tn=50, fp=0, fn=0)) == 1.0

    def test_single_class_prediction_is_zero(self):
        assert mcc(ConfusionCounts(tp=90, tn=0, fp=10, fn=0)) == 0.0

    def test_hand_value(self):
        value = mcc(ConfusionCounts(tp=45, tn=40, fp=5, fn=10))
        assert value == pytest.approx(1750.0 / math.sqrt(6187500.0), abs=1e-9)
        assert value == pytest.approx(0.70353, abs=1e-5)

    def test_class_relabel_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tp, tn, fp, fn = rng.integers(0, 40, size=4)
            a = mcc(ConfusionCounts(int(tp), int(tn), int(fp), int(fn)))
            b = mcc(ConfusionCounts(int(tn), int(tp), int(fn), int(fp)))
            assert a == pytest.approx(b, abs=1e-12)


class TestStratifiedSplit:
    def test_small_balanced_example(self):
        # exactly 5/5
        y = replace(labeled_pairs(10, seed=1), y=np.arange(10) % 2).y
        train, test = stratified_split(y, 0.2, seed=0)
        assert len(train) == 8 and len(test) == 2
        assert y[test].sum() == 1

    def test_disjoint_union(self):
        pairs = labeled_pairs(57, seed=2)
        train, test = stratified_split(pairs.y, 0.3, seed=3)
        assert set(train) | set(test) == set(range(len(pairs)))
        assert set(train) & set(test) == set()

    def test_total_is_rounded_fraction(self):
        for n, frac in ((16181, 0.2), (101, 0.25), (1000, 0.2)):
            sizes = [int(0.815 * n), n - int(0.815 * n)]
            y = np.repeat([0, 1], sizes)
            train, test = stratified_split(y, frac, seed=1)
            assert len(test) == round(frac * n)
            # class proportions preserved within one record
            for c, sz in enumerate(sizes):
                got = int((y[test] == c).sum())
                assert abs(got - frac * sz) < 1.0

    def test_deterministic(self):
        y = labeled_pairs(40, seed=4).y
        a = np.concatenate(stratified_split(y, 0.2, seed=9))
        b = np.concatenate(stratified_split(y, 0.2, seed=9))
        assert np.array_equal(a, b)
        c = np.concatenate(stratified_split(y, 0.2, seed=10))
        assert not np.array_equal(a, c)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(np.ones(10, dtype=int), 0.2, seed=0)


class TestBalancing:
    def imbalanced(self, n1, n0):
        return np.array([1] * n1 + [0] * n0)

    def test_up_sample_equalizes(self):
        y = self.imbalanced(815, 185)
        counts = Counter(y[up_sample(y, seed=0)].tolist())
        assert counts[0] == counts[1] == 815

    def test_up_sample_already_balanced_unchanged(self):
        assert np.array_equal(up_sample(self.imbalanced(50, 50), seed=0), np.arange(100))

    def test_up_sample_retains_originals(self):
        y = self.imbalanced(100, 30)
        balanced = up_sample(y, seed=1)
        assert np.array_equal(balanced[:130], np.arange(130))
        # replicas only come from the minority class
        assert np.all(y[balanced[130:]] == 0)

    def test_down_sample_equalizes(self):
        y = self.imbalanced(200, 60)
        balanced = down_sample(y, seed=2)
        counts = Counter(y[balanced].tolist())
        assert counts[0] == counts[1] == 60
        assert len(balanced) == 120

    def test_single_class_rejected(self):
        y = self.imbalanced(20, 0)
        with pytest.raises(ValueError, match="both labels"):
            up_sample(y, seed=0)
        with pytest.raises(ValueError, match="both labels"):
            down_sample(y, seed=0)


# The record-list split, balancing and CV folds that the index versions
# replace; those must pick the same records, in the same order.  A record is
# its row number, label and features, -0.0 read as 0.0.
Record = namedtuple("Record", "row label key")


def records_of(X, y):
    return [Record(i, label, tuple(v + 0.0 for v in x)) for i, (x, label) in enumerate(zip(X.tolist(), y.tolist()))]


def reference_stratified_split(records, test_fraction, seed):
    by_class = {c: [i for i, r in enumerate(records) if r.label == c] for c in (0, 1)}
    n_test = mergemodel._test_counts([len(v) for v in by_class.values()], test_fraction)
    rng = spawn_rng(seed, "split")
    test_idx = set()
    for c, n_c in zip((0, 1), n_test):
        perm = rng.permutation(len(by_class[c]))
        test_idx.update(by_class[c][j] for j in perm[:n_c])
    train = [records[i] for i in range(len(records)) if i not in test_idx]
    test = [records[i] for i in range(len(records)) if i in test_idx]
    return train, test


def reference_minority_majority(records):
    ones = [i for i, r in enumerate(records) if r.label == 1]
    zeros = [i for i, r in enumerate(records) if r.label == 0]
    return (ones, zeros) if len(ones) < len(zeros) else (zeros, ones)


def reference_up_sample(records, seed):
    minority, majority = reference_minority_majority(records)
    if len(minority) == len(majority):
        return records
    rng = spawn_rng(seed, "balance")
    extra = rng.integers(0, len(minority), size=len(majority) - len(minority))
    return records + [records[minority[j]] for j in extra]


def reference_down_sample(records, seed):
    minority, majority = reference_minority_majority(records)
    if len(minority) == len(majority):
        return records
    rng = spawn_rng(seed, "balance")
    dropped = {majority[j] for j in rng.permutation(len(majority))[len(minority):]}
    return [r for i, r in enumerate(records) if i not in dropped]


REFERENCE_BALANCE = {
    "none": lambda records, seed: records,
    "up_sample": reference_up_sample,
    "down_sample": reference_down_sample,
}


def reference_cv_folds(records, config):
    """(train, test) records of every fold of every repeat."""
    by_class = [
        sorted((r for r in records if r.label == c), key=lambda r: r.key)
        for c in sorted({r.label for r in records})
    ]
    out = []
    for rep in range(config.cv_repeats):
        rng = spawn_rng(config.seed, "cv", rep)
        fold_of = {f: [] for f in range(config.cv_folds)}
        for recs in by_class:
            for pos, j in enumerate(rng.permutation(len(recs))):
                fold_of[pos % config.cv_folds].append(recs[j])
        for f in range(config.cv_folds):
            train = [r for g in range(config.cv_folds) if g != f for r in fold_of[g]]
            out.append((train, fold_of[f]))
    return out


def ids(records):
    return [r.row for r in records]


def reference_fingerprint(X, y):
    lines = sorted(f"{r.key}|{r.label}" for r in records_of(X, y))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def near_twins(n, seed):
    """Labeled pairs in which every odd row's tau is the row before's, rounded to 9
    decimals, plus 3e-10: the two tie in tau at 9 decimals where their values do
    not, so only an order by value tells them apart.  Some angles are -0.0."""
    corpus = labeled_pairs(n, seed)
    X = corpus.X.copy()
    X[0::2, 0] = np.round(X[0::2, 0], 9)
    X[1::2, 0] = X[0::2, 0] + 3e-10
    X[::4, 6] = -0.0
    return replace(corpus, X=X)


# Balanced, imbalanced towards label 0 and towards label 1, and with rows that tie in tau at 9 decimals.
PROTOCOL_INPUTS = {
    "balanced": lambda seed: replace(labeled_pairs(60, seed), y=np.arange(60) % 2),
    "mostly 0": lambda seed: labeled_pairs(80, seed, class1_fraction=0.2),
    "mostly 1": lambda seed: labeled_pairs(80, seed, class1_fraction=0.8),
    "near twins": lambda seed: near_twins(80, seed),
}


@pytest.mark.parametrize("make", PROTOCOL_INPUTS.values(), ids=PROTOCOL_INPUTS.keys())
class TestIndexProtocol:
    def test_split_matches_reference(self, make):
        for seed in range(4):
            corpus = make(seed)
            records = records_of(corpus.X, corpus.y)
            for frac in (0.1, 0.2, 0.35):
                train, test = stratified_split(corpus.y, frac, seed)
                ref_train, ref_test = reference_stratified_split(records, frac, seed)
                assert train.tolist() == ids(ref_train)
                assert test.tolist() == ids(ref_test)

    @pytest.mark.parametrize("method", REFERENCE_BALANCE)
    def test_balance_matches_reference(self, make, method):
        for seed in range(4):
            corpus = make(seed)
            rows = mergemodel._balance(corpus.y, method, seed)
            assert rows.tolist() == ids(REFERENCE_BALANCE[method](records_of(corpus.X, corpus.y), seed))

    @pytest.mark.parametrize("method", REFERENCE_BALANCE)
    def test_split_then_balance_matches_reference(self, make, method):
        for seed in range(3):
            corpus = make(seed)
            y = corpus.y
            train, _ = stratified_split(y, 0.2, seed)
            rows = train[mergemodel._balance(y[train], method, seed)]
            ref_train, _ = reference_stratified_split(records_of(corpus.X, y), 0.2, seed)
            assert rows.tolist() == ids(REFERENCE_BALANCE[method](ref_train, seed))

    def test_cv_folds_match_reference(self, make):
        for seed, folds in ((0, 2), (1, 3), (2, 5)):
            corpus = make(seed)
            order = np.random.default_rng(seed).permutation(len(corpus))
            X, y = corpus.X[order], corpus.y[order]
            config = TrainConfig(seed=seed, cv_folds=folds, cv_repeats=2)
            dealt = mergemodel._cv_folds(X, y, config)
            got = [(train.tolist(), test.tolist()) for _, _, train, test in dealt]
            assert got == [(ids(train), ids(test)) for train, test in reference_cv_folds(records_of(X, y), config)]

    def test_fingerprint_matches_reference(self, make):
        for seed in range(3):
            corpus = make(seed)
            assert corpus_fingerprint(corpus) == reference_fingerprint(corpus.X, corpus.y)


class TestCorpusOrRecords:
    """A corpus built from judgments and the records read back from its CSV train the same way."""

    @pytest.fixture(autouse=True)
    def corpora(self, tmp_path):
        self.corpus = build_corpus(ingest_benchmark(JUDGED))
        write_corpus_csv(tmp_path / "corpus.csv", self.corpus)
        self.records = read_corpus_csv(tmp_path / "corpus.csv")
        assert np.array_equal(self.corpus.X, self.records.X)

    def test_train_bagged(self):
        config = TrainConfig(n_trees=4, seed=3)
        model_a, confusion_a = train_bagged(self.corpus, config)
        model_b, confusion_b = train_bagged(self.records, config)
        assert serialize(model_a) == serialize(model_b)
        assert confusion_a == confusion_b

    def test_cross_validate(self):
        config = TrainConfig(n_trees=2, seed=4, cv_folds=3, cv_repeats=2)
        assert cross_validate(self.corpus, config) == cross_validate(self.records, config)

    def test_fingerprint(self):
        want = reference_fingerprint(self.corpus.X, self.corpus.y)
        assert corpus_fingerprint(self.corpus) == corpus_fingerprint(self.records) == want

    @pytest.mark.parametrize("method", ["knn", "nb"])
    def test_train_baseline(self, method):
        config = TrainConfig(seed=5, balance="down_sample")
        assert train_baseline(self.corpus, config, method) == train_baseline(self.records, config, method)


class TestTrainBagged:
    def test_separable_rule_high_mcc(self):
        pairs, _, _ = threshold_rule_pairs(2000, seed=11)
        config = TrainConfig(n_trees=25, seed=3, preprocess=CS_ONLY, balance="none")
        _, confusion = train_bagged(pairs, config)
        assert mcc(confusion) >= 0.99

    def test_single_tree_votes_degenerate(self):
        pairs, _, _ = threshold_rule_pairs(400, seed=12)
        config = TrainConfig(n_trees=1, seed=0, preprocess=CS_ONLY, balance="none")
        model, _ = train_bagged(pairs, config)
        h, frac = predict(model, pairs.X[:40])
        assert set(frac.tolist()) <= {0.0, 1.0}
        assert h.dtype == np.int8 and h.tolist() == frac.tolist()

    def test_determinism(self):
        pairs, _, _ = threshold_rule_pairs(600, seed=13)
        config = TrainConfig(n_trees=8, seed=21)
        a, ca = train_bagged(pairs, config)
        b, cb = train_bagged(pairs, config)
        assert serialize(a) == serialize(b)
        assert ca == cb

    def test_metadata_recorded(self):
        pairs, _, _ = threshold_rule_pairs(300, seed=14)
        config = TrainConfig(n_trees=3, seed=5)
        model, _ = train_bagged(pairs, config)
        assert model.metadata["seed"] == 5
        assert model.metadata["balance"] == "up_sample"
        assert model.metadata["corpus_fingerprint"] == corpus_fingerprint(pairs)

    def test_no_test_leakage_into_preprocess(self):
        pairs, _, _ = threshold_rule_pairs(500, seed=15)
        config = TrainConfig(n_trees=2, seed=8, preprocess=CS_ONLY, balance="none")
        # reproduce the internal split, then perturb only test-row angles
        _, test = stratified_split(pairs.y, config.test_fraction, config.seed)
        X = pairs.X.copy()
        X[test, 6] *= -1.0  # theta_u
        perturbed = replace(pairs, X=X)
        model_a, _ = train_bagged(pairs, config)
        model_b, _ = train_bagged(perturbed, config)
        assert np.array_equal(model_a.preprocess.means, model_b.preprocess.means)
        assert np.array_equal(model_a.preprocess.scales, model_b.preprocess.scales)


class TestPredict:
    def test_memorizes_duplicated_pure_point(self):
        rng = np.random.default_rng(16)
        anchor = random_aligned(rng)
        drawn = [(random_aligned(rng).as_vector(), int(rng.integers(2))) for _ in range(300)]
        drawn += [(anchor.as_vector(), 1)] * 100
        # a corpus holds no repeated row, so the rows go in as bare (X, y)
        pairs = SimpleNamespace(X=np.array([x for x, _ in drawn]), y=np.array([l for _, l in drawn], dtype=np.int8))
        config = TrainConfig(n_trees=25, seed=2, preprocess=CS_ONLY, balance="none")
        model, _ = train_bagged(pairs, config)
        h, frac = predict(model, anchor.as_vector()[None])
        assert h.tolist() == [1]
        assert frac[0] > 0.9

    def test_deterministic(self):
        pairs, _, _ = threshold_rule_pairs(300, seed=17)
        model, _ = train_bagged(pairs, TrainConfig(n_trees=5, seed=1))
        rng = np.random.default_rng(18)
        X = np.array([random_aligned(rng).as_vector() for _ in range(20)])
        (h, frac), (h_again, frac_again) = predict(model, X), predict(model, X)
        assert h.tobytes() == h_again.tobytes() and frac.tobytes() == frac_again.tobytes()

    def test_rows_predicted_together_as_one_by_one(self):
        pairs, _, _ = threshold_rule_pairs(300, seed=25)
        model, _ = train_bagged(pairs, TrainConfig(n_trees=9, seed=3))
        X = np.array([random_aligned(np.random.default_rng(i)).as_vector() for i in range(50)])
        h, frac = predict(model, X)
        rows = [predict(model, X[i:i + 1]) for i in range(len(X))]
        assert h.tobytes() == np.concatenate([r[0] for r in rows]).tobytes()
        assert frac.tobytes() == np.concatenate([r[1] for r in rows]).tobytes()
        assert mergemodel.predict_matrix(model, X).tobytes() == h.tobytes()

    def test_one_row_must_be_a_matrix(self):
        pairs, _, _ = threshold_rule_pairs(100, seed=26)
        model, _ = train_bagged(pairs, TrainConfig(n_trees=1, seed=0))
        with pytest.raises(ValueError, match="8 feature columns"):
            predict(model, pairs.X[0])


def reference_cross_validate(corpus, config):
    """Each fold's MCC from a full bag of trees and ``predict_matrix``."""
    X, y = corpus.X, corpus.y
    out = []
    for rep, f, train, test in mergemodel._cv_folds(X, y, config):
        seed = mergemodel.derive_seed(config.seed, "cv", rep, f)
        fitted, X_train, y_train = mergemodel._prepare(X, y, train, config, seed)
        bag = fit_bagged_trees(X_train, y_train, config.n_trees, mergemodel.derive_seed(seed, "bag"))
        model = mergemodel.MergingModel(preprocess=fitted, trees=bag, metadata={})
        out.append(mcc(ConfusionCounts.from_predictions(y[test], mergemodel.predict_matrix(model, X[test]))))
    return out


class TestCrossValidate:
    def test_perfect_rule_all_folds_one(self):
        pairs, _, _ = threshold_rule_pairs(400, seed=19)
        config = TrainConfig(
            n_trees=5, seed=3, preprocess=CS_ONLY, balance="none", cv_folds=4, cv_repeats=2
        )
        values = cross_validate(pairs, config)
        assert len(values) == 8
        assert all(v == 1.0 for v in values)

    def test_row_order_irrelevant(self):
        pairs, _, _ = threshold_rule_pairs(200, seed=20)
        config = TrainConfig(
            n_trees=3, seed=6, preprocess=CS_ONLY, balance="none", cv_folds=3, cv_repeats=2
        )
        a = cross_validate(pairs, config)
        order = np.random.default_rng(0).permutation(len(pairs))
        shuffled = replace(pairs, X=pairs.X[order], y=pairs.y[order], origin_ids=np.array(pairs.origin_ids)[order])
        b = cross_validate(shuffled, config)
        assert a == b

    @pytest.mark.parametrize("n_trees", [1, 2, 4, 25])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_fold_loop_over_full_bags(self, seed, n_trees):
        pairs = labeled_pairs(60 + 15 * seed, seed=40 + seed, class1_fraction=0.35)
        config = TrainConfig(n_trees=n_trees, seed=seed, cv_folds=3, cv_repeats=2)
        assert cross_validate(pairs, config) == reference_cross_validate(pairs, config)

    def test_folds_bounded_by_minority(self):
        pairs = labeled_pairs(30, seed=21, class1_fraction=0.9)
        minority = min(Counter(pairs.y.tolist()).values())
        config = TrainConfig(cv_folds=minority + 1, cv_repeats=1)
        with pytest.raises(ValueError):
            cross_validate(pairs, config)


# Edits of a trained tree's node arrays (node 0 is internal) that no walk can use.
MALFORMED_TREES = {
    "self-loop": lambda t: t.update(left=[0] + t["left"][1:], right=[0] + t["right"][1:]),
    "child past last node": lambda t: t.update(right=[len(t["right"])] + t["right"][1:]),
    "negative child": lambda t: t.update(left=[-1] + t["left"][1:]),
    "child beyond int32": lambda t: t.update(left=[2**40] + t["left"][1:]),
    "feature below -1": lambda t: t.update(feature=[-2] + t["feature"][1:]),
    "feature past preprocessing": lambda t: t.update(feature=[99] + t["feature"][1:]),
    "leaf class 2": lambda t: t.update(leaf_class=[2] * len(t["leaf_class"])),
    "short threshold array": lambda t: t.update(threshold=t["threshold"][:-1]),
    "no nodes": lambda t: t.update({key: [] for key in t}),
    "NaN threshold": lambda t: t.update(threshold=[float("nan")] + t["threshold"][1:]),
    "infinite threshold": lambda t: t.update(threshold=t["threshold"][:-1] + [float("-inf")]),
    "string threshold": lambda t: t.update(threshold=[str(t["threshold"][0])] + t["threshold"][1:]),
    "fractional feature": lambda t: t.update(feature=[t["feature"][0] + 0.7] + t["feature"][1:]),
    "fractional child": lambda t: t.update(right=[t["right"][0] + 0.5] + t["right"][1:]),
    "boolean leaf classes": lambda t: t.update(leaf_class=[bool(c) for c in t["leaf_class"]]),
}

MALFORMED_PREPROCESS = {
    "1-D pca_basis": lambda pre: pre.update(pca_basis=[row[0] for row in pre["pca_basis"]]),
    "pca_basis short of rows": lambda pre: pre.update(pca_basis=pre["pca_basis"][:-1]),
    "pca_basis without columns": lambda pre: pre.update(pca_basis=[[] for _ in pre["pca_basis"]]),
    "short means": lambda pre: pre.update(means=pre["means"][:-1]),
    "long scales": lambda pre: pre.update(scales=pre["scales"] + [1.0]),
    "short pca_mean": lambda pre: pre.update(pca_mean=pre["pca_mean"][:-1]),
    "short boxcox_lambdas": lambda pre: pre.update(boxcox_lambdas=pre["boxcox_lambdas"][:-1]),
    "missing means": lambda pre: pre.update(means=None),
    "unknown step": lambda pre: pre.update(steps=pre["steps"] + ["whiten"]),
    "zero input_dim": lambda pre: pre.update(input_dim=0),
    "spatial_sign false with the step listed": lambda pre: pre.update(spatial_sign=False),
    "spatial_sign not a bool": lambda pre: pre.update(spatial_sign="yes please"),
    "spatial_sign true without the step": lambda pre: pre.update(steps=pre["steps"][:-1]),
    "fractional input_dim": lambda pre: pre.update(input_dim=pre["input_dim"] + 0.5),
    "zero scale": lambda pre: pre.update(scales=[0.0] + pre["scales"][1:]),
    "negative scale": lambda pre: pre.update(scales=[-1.0] + pre["scales"][1:]),
    "infinite mean": lambda pre: pre.update(means=pre["means"][:-1] + [float("inf")]),
    "string mean": lambda pre: pre.update(means=["0.5"] + pre["means"][1:]),
    "NaN Box-Cox lambda": lambda pre: pre.update(boxcox_lambdas=[float("nan")] + pre["boxcox_lambdas"][1:]),
    "NaN pca_mean": lambda pre: pre.update(pca_mean=[float("nan")] + pre["pca_mean"][1:]),
    "NaN in pca_basis": lambda pre: pre["pca_basis"][0].__setitem__(0, float("nan")),
}


class TestSerialization:
    def test_roundtrip_preserves_predictions(self):
        pairs, _, _ = threshold_rule_pairs(500, seed=22)
        model, _ = train_bagged(pairs, TrainConfig(n_trees=10, seed=4))
        back = deserialize(serialize(model))
        rng = np.random.default_rng(23)
        X = np.array([random_aligned(rng).as_vector() for _ in range(1000)])
        (h, frac), (h_back, frac_back) = predict(model, X), predict(back, X)
        assert h.tobytes() == h_back.tobytes() and frac.tobytes() == frac_back.tobytes()

    def test_metadata_preserved(self):
        pairs, _, _ = threshold_rule_pairs(200, seed=24)
        model, _ = train_bagged(pairs, TrainConfig(n_trees=2, seed=9, balance="none"))
        back = deserialize(serialize(model))
        assert back.metadata == model.metadata

    def test_empty_bytes_rejected(self):
        with pytest.raises(ModelFormatError):
            deserialize(b"")

    def test_corrupt_payload_rejected(self):
        with pytest.raises(ModelFormatError):
            deserialize(b"{not json")
        with pytest.raises(ModelFormatError):
            deserialize(b'{"format": "something-else"}')

    def test_version_mismatch_rejected(self):
        pairs, _, _ = threshold_rule_pairs(200, seed=25)
        model, _ = train_bagged(pairs, TrainConfig(n_trees=2, seed=1))
        payload = serialize(model).replace(b'"version": 2', b'"version": 99')
        with pytest.raises(ModelFormatError, match="version"):
            deserialize(payload)

    @pytest.mark.parametrize("edit", MALFORMED_TREES.values(), ids=MALFORMED_TREES.keys())
    def test_malformed_tree_rejected(self, edit):
        pairs, _, _ = threshold_rule_pairs(200, seed=25)
        model, _ = train_bagged(pairs, TrainConfig(n_trees=2, seed=1))
        payload = json.loads(serialize(model))
        tree = payload["trees"][1]
        assert tree["feature"][0] >= 0
        edit(tree)
        with pytest.raises(ModelFormatError, match="corrupt"):
            deserialize(json.dumps(payload).encode())

    @pytest.mark.parametrize("edit", MALFORMED_PREPROCESS.values(), ids=MALFORMED_PREPROCESS.keys())
    def test_malformed_preprocess_rejected(self, edit):
        pairs, _, _ = threshold_rule_pairs(200, seed=25)
        model, _ = train_bagged(pairs, TrainConfig(n_trees=2, seed=1))
        payload = json.loads(serialize(model))
        assert payload["preprocess"]["steps"] == ["center_scale", "box_cox", "pca", "spatial_sign"]
        edit(payload["preprocess"])
        with pytest.raises(ModelFormatError, match="corrupt"):
            deserialize(json.dumps(payload).encode())


class TestBaselines:
    @pytest.mark.parametrize("method", ["knn", "nb"])
    def test_baseline_learns_separable_rule(self, method):
        # comparators only; far from the bagged trees but well above chance
        pairs, _, _ = threshold_rule_pairs(1000, seed=26)
        config = TrainConfig(seed=2, preprocess=CS_ONLY, balance="none")
        confusion = train_baseline(pairs, config, method)
        assert mcc(confusion) >= 0.6
        again = train_baseline(pairs, config, method)
        assert confusion == again

    def test_unknown_method_rejected(self):
        pairs, _, _ = threshold_rule_pairs(100, seed=27)
        with pytest.raises(ValueError):
            train_baseline(pairs, TrainConfig(), "boosting")
