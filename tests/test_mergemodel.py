import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from scatterscore.augment import LabeledPair
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
from scatterscore.pairspace import ShapeParams
from scatterscore.preprocess import PreprocessSpec

from conftest import random_aligned, threshold_rule_pairs

CS_ONLY = PreprocessSpec(steps=("center_scale",))


def labeled_pairs(n, seed, class1_fraction=0.5):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < class1_fraction).astype(int)
    return [
        LabeledPair(features=random_aligned(rng), label=int(l), origin_id=f"p{i}")
        for i, l in enumerate(labels)
    ]


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
        pairs = labeled_pairs(10, seed=1, class1_fraction=0.5)
        # force exactly 5/5
        pairs = [replace(p, label=i % 2) for i, p in enumerate(pairs)]
        train, test = stratified_split(pairs, 0.2, seed=0)
        assert len(train) == 8 and len(test) == 2
        assert sum(r.label for r in test) == 1

    def test_disjoint_union(self):
        pairs = labeled_pairs(57, seed=2)
        train, test = stratified_split(pairs, 0.3, seed=3)
        ids = lambda rs: {r.origin_id for r in rs}
        assert ids(train) | ids(test) == ids(pairs)
        assert ids(train) & ids(test) == set()

    def test_total_is_rounded_fraction(self):
        for n, frac in ((16181, 0.2), (101, 0.25), (1000, 0.2)):
            sizes = [int(0.815 * n), n - int(0.815 * n)]
            pairs = []
            rng = np.random.default_rng(n)
            for c, sz in enumerate(sizes):
                for i in range(sz):
                    pairs.append(
                        LabeledPair(features=random_aligned(rng), label=c, origin_id=f"{c}-{i}")
                    )
            train, test = stratified_split(pairs, frac, seed=1)
            assert len(test) == round(frac * n)
            # class proportions preserved within one record
            for c, sz in enumerate(sizes):
                got = sum(1 for r in test if r.label == c)
                assert abs(got - frac * sz) < 1.0

    def test_deterministic(self):
        pairs = labeled_pairs(40, seed=4)
        a = stratified_split(pairs, 0.2, seed=9)
        b = stratified_split(pairs, 0.2, seed=9)
        assert a == b
        c = stratified_split(pairs, 0.2, seed=10)
        assert a != c

    def test_single_class_rejected(self):
        pairs = [replace(p, label=1) for p in labeled_pairs(10, seed=5)]
        with pytest.raises(ValueError):
            stratified_split(pairs, 0.2, seed=0)


class TestBalancing:
    def imbalanced(self, n1, n0, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n1):
            out.append(LabeledPair(features=random_aligned(rng), label=1, origin_id=f"a{i}"))
        for i in range(n0):
            out.append(LabeledPair(features=random_aligned(rng), label=0, origin_id=f"b{i}"))
        return out

    def test_up_sample_equalizes(self):
        balanced = up_sample(self.imbalanced(815, 185), seed=0)
        counts = Counter(r.label for r in balanced)
        assert counts[0] == counts[1] == 815

    def test_up_sample_already_balanced_unchanged(self):
        pairs = self.imbalanced(50, 50)
        assert up_sample(pairs, seed=0) == pairs

    def test_up_sample_retains_originals(self):
        pairs = self.imbalanced(100, 30)
        balanced = up_sample(pairs, seed=1)
        originals = Counter(id(r) for r in pairs)
        counted = Counter(id(r) for r in balanced)
        for key in originals:
            assert counted[key] >= 1
        # replicas only come from the minority class
        assert all(r.label == 0 for r in balanced[130:])

    def test_down_sample_equalizes(self):
        balanced = down_sample(self.imbalanced(200, 60), seed=2)
        counts = Counter(r.label for r in balanced)
        assert counts[0] == counts[1] == 60
        assert len(balanced) == 120

    def test_single_class_rejected(self):
        pairs = self.imbalanced(20, 0)
        with pytest.raises(ValueError, match="both classes"):
            up_sample(pairs, seed=0)
        with pytest.raises(ValueError, match="both classes"):
            down_sample(pairs, seed=0)


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
        for rec in pairs[:40]:
            h, frac = predict(model, rec.features)
            assert frac in (0.0, 1.0)
            assert h == int(frac >= 0.5)

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
        _, test = stratified_split(pairs, config.test_fraction, config.seed)
        test_ids = {r.origin_id for r in test}
        perturbed = [
            replace(
                r,
                features=replace(
                    r.features,
                    shape_u=ShapeParams(
                        -r.features.shape_u.theta,
                        r.features.shape_u.sigma_x,
                        r.features.shape_u.sigma_y,
                    ),
                ),
            )
            if r.origin_id in test_ids
            else r
            for r in pairs
        ]
        model_a, _ = train_bagged(pairs, config)
        model_b, _ = train_bagged(perturbed, config)
        assert np.array_equal(model_a.preprocess.means, model_b.preprocess.means)
        assert np.array_equal(model_a.preprocess.scales, model_b.preprocess.scales)


class TestPredict:
    def test_memorizes_duplicated_pure_point(self):
        rng = np.random.default_rng(16)
        anchor = random_aligned(rng)
        pairs = [
            LabeledPair(features=random_aligned(rng), label=int(rng.integers(2)), origin_id=f"r{i}")
            for i in range(300)
        ]
        pairs += [LabeledPair(features=anchor, label=1, origin_id=f"dup{i}") for i in range(100)]
        config = TrainConfig(n_trees=25, seed=2, preprocess=CS_ONLY, balance="none")
        model, _ = train_bagged(pairs, config)
        h, frac = predict(model, anchor)
        assert h == 1
        assert frac > 0.9

    def test_deterministic(self):
        pairs, _, _ = threshold_rule_pairs(300, seed=17)
        model, _ = train_bagged(pairs, TrainConfig(n_trees=5, seed=1))
        rng = np.random.default_rng(18)
        for _ in range(20):
            f = random_aligned(rng)
            assert predict(model, f) == predict(model, f)


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
        shuffled = list(pairs)
        np.random.default_rng(0).shuffle(shuffled)
        b = cross_validate(shuffled, config)
        assert a == b

    def test_folds_bounded_by_minority(self):
        pairs = labeled_pairs(30, seed=21, class1_fraction=0.9)
        minority = min(Counter(r.label for r in pairs).values())
        config = TrainConfig(cv_folds=minority + 1, cv_repeats=1)
        with pytest.raises(ValueError):
            cross_validate(pairs, config)


class TestSerialization:
    def test_roundtrip_preserves_predictions(self):
        pairs, _, _ = threshold_rule_pairs(500, seed=22)
        model, _ = train_bagged(pairs, TrainConfig(n_trees=10, seed=4))
        back = deserialize(serialize(model))
        rng = np.random.default_rng(23)
        for _ in range(1000):
            f = random_aligned(rng)
            assert predict(model, f) == predict(back, f)

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


class TestBaselines:
    @pytest.mark.parametrize("method", ["knn", "nb"])
    def test_baseline_learns_separable_rule(self, method):
        # comparators only; far from the bagged trees but well above chance
        pairs, _, _ = threshold_rule_pairs(1000, seed=26)
        config = TrainConfig(seed=2, preprocess=CS_ONLY, balance="none")
        _, confusion = train_baseline(pairs, config, method)
        assert mcc(confusion) >= 0.6
        _, again = train_baseline(pairs, config, method)
        assert confusion == again

    def test_unknown_method_rejected(self):
        pairs, _, _ = threshold_rule_pairs(100, seed=27)
        with pytest.raises(ValueError):
            train_baseline(pairs, TrainConfig(), "boosting")
