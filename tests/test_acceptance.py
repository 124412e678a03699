"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 2 needs the
original judged-benchmark CSV; point SCATTERSCORE_BENCHMARK1 at it,
otherwise that criterion reports SKIPPED and criteria 3-9 carry
acceptance.
"""
import itertools
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from scatterscore.agreement import (
    RELATION_CATEGORIES,
    GroupRatings,
    alter_decisions,
    alteration_curve,
    landis_koch_label,
    min_alterations_to_displace,
    vanbelle_kappa,
    worst_case_formulas,
)
from scatterscore.augment import build_corpus, ingest_benchmark
from scatterscore.cli import main as cli_main
from scatterscore.gmm import FitConfig, fit_em, fit_em_with_trace, select_model
from scatterscore.mergemodel import (
    ConfusionCounts,
    TrainConfig,
    deserialize,
    mcc,
    predict,
    predict_matrix,
    serialize,
    stratified_split,
    train_bagged,
)
from scatterscore.pairspace import compose_covariance, decompose_covariance
from scatterscore.util import spawn_rng
from scatterscore.vqm import (
    MergeMatrix,
    VqmScore,
    compare,
    count_components,
    scalar_score,
    score_scatterplot,
)

from conftest import canonical_key, gaussian_blob, random_aligned, random_spd, threshold_rule_pairs, two_blob_plot
from test_agreement import binary_group
from test_augment import brute_force_replicas
from test_gmm import quadrature_of_mixture
from test_pairspace import as_matrix, features_close, from_matrix, pair_row
from test_vqm import dfs_component_count


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] criterion {number}: FAIL — {description}")
        raise
    print(f"[ACCEPTANCE] criterion {number}: PASS — {description}")


def test_criterion_1_formula_reproductions():
    with criterion(1, "formula reproductions (displacement count, worst-case percentage, agreement labels)"):
        assert min_alterations_to_displace(2) == 4
        wc = worst_case_formulas(30, 100 * 49 / 435)
        assert wc.r == pytest.approx(49.0, abs=1e-9)
        assert 23.3 <= wc.q <= 23.5
        assert landis_koch_label(0.671) == "substantial"
        assert landis_koch_label(0.962) == "almost perfect"


def test_criterion_2_original_benchmark():
    path = os.environ.get("SCATTERSCORE_BENCHMARK1", "data/benchmark1.csv")
    if not Path(path).exists():
        print("[ACCEPTANCE] criterion 2: SKIPPED — original judged-benchmark CSV not supplied")
        pytest.skip("benchmark-1 data not supplied")
    with criterion(2, "original benchmark reproduction (996 / 16181 / 12945+3236 / MCC)"):
        corpus = build_corpus(ingest_benchmark(path))
        assert len(set(corpus.origin_ids)) == 996  # the judged records that own a corpus row
        assert len(corpus) == 16181
        train, test = stratified_split(corpus.y, 0.2, seed=0)
        assert (len(train), len(test)) == (12945, 3236)
        _, confusion = train_bagged(corpus, TrainConfig(seed=0))
        assert 0.94 <= mcc(confusion) <= 1.0


def test_criterion_3_synthetic_oracle_training():
    with criterion(3, "winner-config pipeline recovers a noisy threshold rule (held-out MCC >= 0.90)"):
        pairs, clean, _ = threshold_rule_pairs(4000, seed=101, feature_index=0, noise=0.05)
        config = TrainConfig(seed=3)  # winner: up_sample + all four preprocessing steps
        model, _ = train_bagged(pairs, config)
        # held-out rows, judged against the generating rule
        _, test = stratified_split(pairs.y, config.test_fraction, config.seed)
        value = mcc(ConfusionCounts.from_predictions(clean[test], predict_matrix(model, pairs.X[test])))
        assert value >= 0.90, f"held-out MCC {value:.4f}"


def test_criterion_4_gmm_properties():
    with criterion(4, "GMM suite (EM monotone, density normalization, closed-form K=1, BIC selection)"):
        # EM log-likelihood monotone per iteration over 100 seeded fits
        cfg = FitConfig(n_restarts=1, seed=0, regularization=0.0, em_tolerance=1e-10, max_iterations=80)
        for seed in range(100):
            sp = two_blob_plot(120, 3.0 + (seed % 5), seed=seed)
            _, traces = fit_em_with_trace(sp, 2, FitConfig(
                n_restarts=1, seed=seed, regularization=0.0, em_tolerance=1e-10, max_iterations=80
            ))
            for trace in traces:
                assert np.all(np.diff(trace) >= -1e-9)

        # mixture density integrates to 1 +- 1e-3
        sp = two_blob_plot(300, 6.0, seed=7)
        model = fit_em(sp, 2, FitConfig(n_restarts=2, seed=1))
        assert quadrature_of_mixture(model) == pytest.approx(1.0, abs=1e-3)

        # K=1 EM equals the closed-form MLE within 1e-9
        sp = gaussian_blob(400, [1.5, -2.0], seed=9)
        m1 = fit_em(sp, 1, FitConfig(n_restarts=1, seed=0, regularization=0.0))
        X = sp.points
        d = X - X.mean(axis=0)
        assert m1.means[0] == pytest.approx(X.mean(axis=0), abs=1e-9)
        xx, xy, yy = m1.covs[0]
        assert xx == pytest.approx((d[:, 0] ** 2).mean(), abs=1e-9)
        assert xy == pytest.approx((d[:, 0] * d[:, 1]).mean(), abs=1e-9)
        assert yy == pytest.approx((d[:, 1] ** 2).mean(), abs=1e-9)

        # BIC selection: K*=2 for 21-unit-separated blobs, K*=1 for single blobs
        sel_cfg = FitConfig(k_max=3, n_restarts=2, seed=0, em_tolerance=1e-6, max_iterations=200)
        two_hits = sum(
            select_model(two_blob_plot(200, 21.0, seed=s), sel_cfg).k_star == 2 for s in range(100)
        )
        one_hits = sum(
            select_model(gaussian_blob(400, [0.0, 0.0], seed=s), sel_cfg).k_star == 1
            for s in range(100)
        )
        assert two_hits >= 90, f"two-blob K*=2 in {two_hits}/100"
        assert one_hits >= 90, f"single-blob K*=1 in {one_hits}/100"


def test_criterion_5_pairspace_properties():
    with criterion(5, "pairspace suite (decomposition round trip, similarity invariance, idempotence)"):
        rng = np.random.default_rng(500)
        for _ in range(1000):
            cov = random_spd(rng)
            back = compose_covariance(decompose_covariance(cov))
            for a, b in zip(back, cov):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

        from scatterscore.pairspace import PairFeatures

        for _ in range(200):
            mean_u = rng.normal(size=2)
            mean_v = rng.normal(size=2) * 3.0
            cov_u, cov_v = as_matrix(random_spd(rng)), as_matrix(random_spd(rng))
            tau = rng.uniform(0.1, 0.9)

            def pipeline(mu_u, mu_v, mat_u, mat_v):
                return pair_row(tau, mu_u, mu_v, from_matrix(mat_u), from_matrix(mat_v))

            base = pipeline(mean_u, mean_v, cov_u, cov_v)
            delta, scale = rng.uniform(-math.pi, math.pi), rng.uniform(0.2, 5.0)
            shift = rng.normal(size=2) * 4.0
            c, s = math.cos(delta), math.sin(delta)
            rot = np.array([[c, -s], [s, c]])
            moved = pipeline(
                scale * rot @ mean_u + shift,
                scale * rot @ mean_v + shift,
                scale**2 * rot @ cov_u @ rot.T,
                scale**2 * rot @ cov_v @ rot.T,
            )
            assert features_close(base, moved, tol=1e-8)

            # idempotence on already-aligned features
            aligned = PairFeatures.from_vector(base)
            again = pair_row(aligned.tau, (0.0, 0.0), (0.0, aligned.mu), compose_covariance(aligned.shape_u),
                             compose_covariance(aligned.shape_v))
            assert features_close(base, again, tol=1e-9)


def test_criterion_6_augmentation_oracle():
    with criterion(6, "augmentation replicas match a brute-force oracle over all symmetry regimes"):
        from scatterscore.augment import JudgmentRecord, replicate
        from scatterscore.pairspace import PairFeatures, ShapeParams

        rng = np.random.default_rng(600)
        regimes = ["generic", "zero_angles", "iso_u", "iso_v", "iso_both"]
        saw_high_tau = False
        records = []
        for i in range(200):
            regime = regimes[i % len(regimes)]
            tau = float(rng.uniform(0.1, 0.5))
            thu, thv = rng.uniform(-math.pi / 2 * 0.99, math.pi / 2, size=2)
            sux, suy, svx, svy = rng.uniform(0.05, 1.0, size=4)
            if regime == "zero_angles":
                thu = thv = 0.0
            if regime in ("iso_u", "iso_both"):
                suy = sux
            if regime in ("iso_v", "iso_both"):
                svy = svx
            top = max(1.0, sux, suy, svx, svy)
            vec = (tau, 1.0, sux / top, suy / top, svx / top, svy / top, thu, thv)
            label = int(rng.integers(2))
            features = PairFeatures(
                vec[0], vec[1], ShapeParams(vec[6], vec[2], vec[3]), ShapeParams(vec[7], vec[4], vec[5])
            )
            reps = replicate(features.as_vector())
            assert {canonical_key(r) for r in reps} == brute_force_replicas(vec)
            saw_high_tau = saw_high_tau or bool((reps[:, 0] > 0.5).any())
            records.append(JudgmentRecord(record_id=f"x{i}", params=PairFeatures.from_vector(vec), judgments=(label,)))
        assert saw_high_tau  # swap replicas extend tau beyond the input range
        # every corpus row carries the label of the record it replicates
        corpus = build_corpus(records)
        labels = {r.record_id: r.judgments[0] for r in records}
        assert corpus.y.tolist() == [labels[o] for o in corpus.origin_ids]
        assert set(corpus.origin_ids) == set(labels)


def test_criterion_7_graph_and_order(trained_merger):
    with criterion(7, "graph/order suite (components vs DFS oracle, total order, scalar embedding, M <= K*)"):
        rng = np.random.default_rng(700)
        for _ in range(10000):
            k = int(rng.integers(1, 9))
            m = np.eye(k, dtype=np.int8)
            for u in range(k):
                for v in range(u + 1, k):
                    if rng.random() < float(rng.uniform(0.1, 0.6)):
                        m[u, v] = m[v, u] = 1
            assert count_components(MergeMatrix(k=k, entries=m)) == dfs_component_count(m)

        scores = [VqmScore(m, k) for k in range(1, 11) for m in range(1, k + 1)]
        flip = {"<": ">", ">": "<", "=": "="}
        for a, b in itertools.product(scores, repeat=2):
            rel = compare(a, b)
            assert flip[rel] == compare(b, a)
            sa, sb = scalar_score(a), scalar_score(b)
            assert (sa < sb, sa == sb, sa > sb) == (rel == "<", rel == "=", rel == ">")
        for a, b, c in itertools.combinations(scores, 3):
            if compare(a, b) == "<" and compare(b, c) == "<":
                assert compare(a, c) == "<"

        fit_cfg = FitConfig(k_max=3, n_restarts=2, seed=0, em_tolerance=1e-6, max_iterations=200)
        for seed in range(12):
            sep = float(np.random.default_rng(seed).uniform(0, 15))
            score = score_scatterplot(two_blob_plot(150, sep, seed=seed), fit_cfg, trained_merger)
            assert 1 <= score.m <= score.k_star


def test_criterion_8_agreement_suite():
    with criterion(8, "agreement suite (kappa cases, MCC hand value, alterations, curve shape)"):
        group = binary_group([["1"] * 5, ["0"] * 5, ["1"] * 5])
        assert vanbelle_kappa(group, ("1", "0", "1")).kappa == 1.0

        table = GroupRatings(
            categories=("x", "y"),
            votes=(("x", "x", "y"), ("y", "y", "y"), ("x", "y", "y"), ("x", "x", "x")),
        )
        assert vanbelle_kappa(table, ("x", "y", "y", "y")).kappa == pytest.approx(
            1 / 6, abs=1e-12
        )

        rng = np.random.default_rng(800)
        n = 10000
        rows = [["1" if rng.random() < 0.7 else "0" for _ in range(8)] for _ in range(n)]
        marginal = np.mean([r.count("1") / 8 for r in rows])
        iso = tuple("1" if rng.random() < marginal else "0" for _ in range(n))
        assert abs(vanbelle_kappa(binary_group(rows), iso).kappa) < 0.02

        assert mcc(ConfusionCounts(tp=45, tn=40, fp=5, fn=10)) == pytest.approx(
            1750.0 / math.sqrt(6187500.0), abs=1e-9
        )

        base = np.tile(np.arange(len(RELATION_CATEGORIES), dtype=np.int8), 10)
        for k in (0, 1, 7, 30):
            for seed in range(5):
                out = alter_decisions(base, k, spawn_rng(seed, "alter"))
                assert int((out != base).sum()) == k

        relations = [("<", "=", ">")[rng.integers(3)] for _ in range(50)]
        votes = tuple(
            tuple(r if rng.random() < 0.9 else ("<", "=", ">")[rng.integers(3)] for _ in range(9))
            for r in relations
        )
        rel_group = GroupRatings(categories=("<", "=", ">"), votes=votes)
        curve = alteration_curve(relations, rel_group, [0, 10, 25, 50], b=300, seed=3)
        assert curve[0].sd == 0.0
        means = [pt.mean for pt in curve]
        assert all(b <= a + 0.02 for a, b in zip(means, means[1:]))


def _run_pipeline(tmp_path, tag, bench_csv, plots, pairs_csv, seed):
    out = tmp_path / tag
    out.mkdir()
    corpus = out / "corpus.csv"
    model = out / "model.json"
    scores = out / "scores.csv"
    ranking = out / "ranking.csv"
    kappa = out / "kappa.json"
    curve = out / "curve.csv"
    assert cli_main(["corpus", str(bench_csv), "--out", str(corpus)]) == 0
    assert cli_main([
        "train", str(corpus), "--n-trees", "10", "--seed", str(seed), "--out", str(model),
    ]) == 0
    assert cli_main([
        "score", *map(str, plots), "--model", str(model),
        "--k-max", "3", "--n-restarts", "2", "--em-tolerance", "1e-6",
        "--max-iterations", "200", "--seed", str(seed), "--out", str(scores),
    ]) == 0
    assert cli_main(["rank", str(scores), "--out", str(ranking)]) == 0
    assert cli_main([
        "evaluate", "--scores", str(scores), "--pairs", str(pairs_csv),
        "--mode", "pairwise", "--b", "200", "--seed", str(seed), "--out", str(kappa),
    ]) == 0
    assert cli_main([
        "evaluate", "--scores", str(scores), "--pairs", str(pairs_csv),
        "--mode", "alteration", "--k-values", "0,20,100", "--b", "50",
        "--seed", str(seed), "--out", str(curve),
    ]) == 0
    return out


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "end-to-end pipeline byte-identical across reruns; model round trip exact"):
        from test_augment import bench_row, write_bench

        rng = np.random.default_rng(900)
        rows = []
        for i in range(40):
            sep = float(rng.choice([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0]))
            votes = [1 if sep <= 2.0 else 0] * 20
            rows.append(
                bench_row(
                    f"b{i}",
                    tau=float(rng.choice([0.1, 0.3, 0.5])),
                    mu=sep,
                    sux=float(rng.choice([0.5, 1.0, 2.0])),
                    suy=float(rng.choice([0.5, 1.0, 2.0])),
                    svx=float(rng.choice([0.5, 1.0, 2.0])),
                    svy=float(rng.choice([0.5, 1.0, 2.0])),
                    thu=float(rng.choice([0.0, math.pi / 4])),
                    thv=float(rng.choice([0.0, math.pi / 4])),
                    votes=votes,
                )
            )
        bench_csv = tmp_path / "bench.csv"
        write_bench(bench_csv, rows, n_votes=20)

        plots_dir = tmp_path / "plots"
        assert cli_main([
            "generate", "--grid-count", "30", "--n", "150", "--seed", "77",
            "--out", str(plots_dir),
        ]) == 0
        plots = sorted(plots_dir.glob("grid*.csv"))
        assert len(plots) == 30

        pairs_csv = tmp_path / "pairs.csv"
        prng = np.random.default_rng(901)
        with open(pairs_csv, "w") as fh:
            fh.write("idA,idB," + ",".join(f"v{r}" for r in range(31)) + "\n")
            ids = [p.stem for p in plots]
            for i in range(30):
                for j in range(i + 1, 30):
                    votes = ",".join(("<", "=", ">")[prng.integers(3)] for _ in range(31))
                    fh.write(f"{ids[i]},{ids[j]},{votes}\n")

        run_a = _run_pipeline(tmp_path, "a", bench_csv, plots, pairs_csv, seed=13)
        run_b = _run_pipeline(tmp_path, "b", bench_csv, plots, pairs_csv, seed=13)
        names = sorted(p.name for p in run_a.iterdir())
        assert names == sorted(p.name for p in run_b.iterdir())
        for name in names:
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name

        scores_rows = (run_a / "scores.csv").read_text().strip().splitlines()[1:]
        assert len(scores_rows) == 30
        for row in scores_rows:
            _, k_star, m, _ = row.split(",")
            assert 1 <= int(m) <= int(k_star)

        # serialize / deserialize round trip preserves all predictions
        model = deserialize((run_a / "model.json").read_bytes())
        back = deserialize(serialize(model))
        rng = np.random.default_rng(902)
        X = np.array([random_aligned(rng).as_vector() for _ in range(1000)])
        (h, frac), (h_back, frac_back) = predict(model, X), predict(back, X)
        assert h.tobytes() == h_back.tobytes() and frac.tobytes() == frac_back.tobytes()
