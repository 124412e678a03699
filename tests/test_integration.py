"""Cross-module flows: corpus origin ids -> per-origin agreement, and the
binary group-agreement path on merge decisions."""
import math

import numpy as np
import pytest

from scatterscore.agreement import (
    GroupRatings,
    IsolatedRatings,
    bootstrap_kappa,
    vanbelle_kappa,
)
from scatterscore.augment import JudgmentRecord, build_corpus, summarize_judgments
from scatterscore.mergemodel import TrainConfig, predict, predict_matrix, train_bagged
from scatterscore.pairspace import PairFeatures, ShapeParams, align_training_record
from scatterscore.preprocess import PreprocessSpec
from scatterscore.util import derive_seed, spawn_rng


def grid_records(n, seed):
    rng = np.random.default_rng(seed)
    records = []
    seen = set()
    while len(records) < n:
        sep = float(rng.choice([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0]))
        s = [float(rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])) for _ in range(4)]
        th = [float(rng.choice([0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2])) for _ in range(2)]
        tau = float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
        key = (tau, sep, *s, *th)
        if key in seen:
            continue
        seen.add(key)
        merge = sep <= 0.55 * sum(s)
        votes = tuple(int(merge) for _ in range(34))
        params = PairFeatures(tau, sep, ShapeParams(th[0], s[0], s[1]), ShapeParams(th[1], s[2], s[3]))
        records.append(JudgmentRecord(record_id=f"g{len(records)}", params=params, judgments=votes))
    return records


class TestPerOriginAgreement:
    def test_replica_predictions_summarize_back_to_origin_labels(self):
        records = grid_records(120, seed=31)
        corpus = build_corpus(records)
        config = TrainConfig(
            n_trees=15, seed=4, balance="up_sample", preprocess=PreprocessSpec(steps=("center_scale",))
        )
        model, _ = train_bagged(corpus, config)

        # a merge decision is a one-cluster vote, so the label rule is the per-origin majority
        by_origin = {}
        for origin, h in zip(corpus.origin_ids, predict_matrix(model, corpus.X)):
            by_origin.setdefault(origin, []).append(h)
        truth = {r.record_id: int(all(r.judgments)) for r in records}
        assert set(by_origin) <= set(truth)
        agreement_rate = np.mean([summarize_judgments(v) == truth[o] for o, v in by_origin.items()])
        assert agreement_rate >= 0.95

    def test_origin_groups_match_provenance(self):
        records = grid_records(30, seed=32)
        corpus = build_corpus(records)
        labels = {r.record_id: summarize_judgments(r.judgments) for r in records}
        # replicas inherit their origin's label
        assert corpus.y.tolist() == [labels[o] for o in corpus.origin_ids]


class TestBinaryGroupAgreement:
    def test_merge_decisions_vs_judge_group(self):
        records = grid_records(100, seed=33)
        corpus = build_corpus(records)
        config = TrainConfig(
            n_trees=15, seed=2, balance="up_sample", preprocess=PreprocessSpec(steps=("center_scale",))
        )
        model, _ = train_bagged(corpus, config)

        # noisy votes around the rule that generated the labels
        rng = spawn_rng(derive_seed(33, "votes"))
        votes = []
        for rec in records:
            base = int(all(rec.judgments))
            votes.append(tuple(str(base if rng.random() < 0.92 else 1 - base) for _ in range(34)))
        group = GroupRatings(categories=("0", "1"), votes=tuple(votes))

        machine = IsolatedRatings(
            votes=tuple(str(predict(model, align_training_record(r.params))[0]) for r in records)
        )
        result = vanbelle_kappa(group, machine)
        assert result.kappa > 0.7
        summary = bootstrap_kappa(group, machine, b=300, seed=5)
        assert abs(summary.mean - result.kappa) < 0.1
        assert summary.percentiles[2.5] <= result.kappa <= summary.percentiles[97.5]
