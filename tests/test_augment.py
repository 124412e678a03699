import math
import tracemalloc

import numpy as np
import pytest

from scatterscore.augment import (
    CORPUS_COLUMNS,
    ISOTROPIC_ANGLES,
    JudgmentRecord,
    TrainingCorpus,
    build_corpus,
    canonical_key,
    canonical_keys,
    generate_scatterplot,
    ingest_benchmark,
    read_corpus_csv,
    replicate,
    summarize_judgments,
    write_corpus_csv,
)
from scatterscore.gmm import FitConfig, select_model
from scatterscore.pairspace import (
    AlignedPairFeatures,
    PairFeatures,
    ShapeParams,
    align_training_record,
    compose_covariance,
)

from conftest import make_corpus, random_aligned

HALF_PI = math.pi / 2


def aligned(tau, mu, su, sv):
    """The 8 feature columns of an aligned pair."""
    return AlignedPairFeatures(tau, mu, ShapeParams(*su), ShapeParams(*sv)).as_vector()


def brute_force_replicas(vec, iso_tol=1e-9):
    """Independent enumeration of the symmetry replicas of an 8-tuple.

    Works on raw tuples (tau, mu, sux, suy, svx, svy, thu, thv) with the
    same rounding as the canonical dedup key.
    """
    tau, mu, sux, suy, svx, svy, thu, thv = vec
    out = [
        (tau, mu, sux, suy, svx, svy, thu, thv),
        (tau, mu, sux, suy, svx, svy, -thu, -thv),
        (1 - tau, mu, svx, svy, sux, suy, thv, thu),
        (1 - tau, mu, svx, svy, sux, suy, -thv, -thu),
    ]
    if abs(sux - suy) <= iso_tol:
        out.extend((tau, mu, sux, suy, svx, svy, a, thv) for a in ISOTROPIC_ANGLES)
    if abs(svx - svy) <= iso_tol:
        out.extend((tau, mu, sux, suy, svx, svy, thu, a) for a in ISOTROPIC_ANGLES)
    return {tuple(round(x, 9) + 0.0 for x in t) for t in out}


class TestSummarizeJudgments:
    def test_more_than_one_majority(self):
        assert summarize_judgments([0] * 30 + [1] * 4) == 0

    def test_one_majority(self):
        assert summarize_judgments([1] * 20 + [0] * 14) == 1

    def test_tie_is_merge(self):
        assert summarize_judgments([1] * 17 + [0] * 17) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_judgments([])


class TestCanonicalKey:
    def test_tiny_perturbation_same_key(self):
        a = aligned(0.4, 1.0, (0.1, 0.5, 0.3), (0.2, 0.4, 0.2))
        b = aligned(0.4, 1.0, (0.1, 0.5 + 1e-12, 0.3), (0.2, 0.4, 0.2))
        assert canonical_key(a) == canonical_key(b)

    def test_visible_difference_distinct_key(self):
        a = aligned(0.4, 1.0, (0.1, 0.5, 0.3), (0.2, 0.4, 0.2))
        b = aligned(0.401, 1.0, (0.1, 0.5, 0.3), (0.2, 0.4, 0.2))
        assert canonical_key(a) != canonical_key(b)

    def test_negated_zero_angles_collide(self):
        reps = replicate(aligned(0.4, 1.0, (0.0, 0.5, 0.3), (0.0, 0.4, 0.2)))
        assert canonical_key(reps[0]) == canonical_key(reps[1])

    def test_keys_array_equals_key_row_by_row(self):
        rng = np.random.default_rng(11)
        n = 20_000
        spread = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 6, n)
        # decimal half-way cases: a 5 in the tenth decimal, which no double holds
        # exactly, so Python's round goes by the side the double lies on
        digits = rng.integers(0, 10**9, 4000)
        half_way = np.array([float(f"{w}.{d:09d}5") for w, d in zip(rng.integers(0, 10**6, 4000), digits)])
        small_half_way = np.array([float(f"0.{'0' * z}{d:09d}5") for z, d in zip(rng.integers(0, 4, 4000), digits)])
        # exact binary ties: k / 2**10 has ten decimals, the last a 5, and rounds half to even
        ties = np.arange(-3000, 3000) / 1024.0
        values = np.concatenate([
            spread, half_way, -half_way, small_half_way, -small_half_way, ties, ties * 1e-3,
            [-0.0, 0.0, -1e-12, 5e-10, -5e-10, 2.0**23, np.nextafter(2.0**23, 0.0), 1e7, np.inf, -np.inf],
        ])
        X = np.resize(values, (-(-len(values) // 8), 8))
        want = [canonical_key(x) for x in X.tolist()]
        got = canonical_keys(X)
        assert [tuple(k) for k in got.tolist()] == want
        # the keys hold no -0.0, as canonical_key's do not
        assert not np.signbit(got[got == 0.0]).any()
        # numpy's round (rint(v * 1e9) / 1e9) misses some of these cases
        assert not np.array_equal(np.round(X, 9) + 0.0, got)


class TestReplicate:
    def test_generic_anisotropic_four_distinct(self):
        reps = replicate(aligned(0.4, 1.0, (0.3, 0.5, 0.3), (0.7, 0.4, 0.2)))
        assert len(reps) == 4
        assert len({canonical_key(r) for r in reps}) == 4

    def test_zero_angles_collapse_to_two(self):
        reps = replicate(aligned(0.4, 1.0, (0.0, 0.5, 0.3), (0.0, 0.4, 0.2)))
        assert len(reps) == 4
        assert len({canonical_key(r) for r in reps}) == 2

    def test_isotropic_u_twelve_unique(self):
        reps = replicate(aligned(0.4, 1.0, (0.0, 0.5, 0.5), (math.pi / 4, 0.4, 0.2)))
        assert len(reps) == 4 + 9
        assert len({canonical_key(r) for r in reps}) == 12

    def test_labels_and_origin_preserved(self):
        # both components isotropic: 4 + 9 + 9 replicas of one record
        raw = PairFeatures(0.3, 2.0, ShapeParams(0.2, 1.0, 1.0), ShapeParams(0.1, 0.8, 0.8))
        corpus = build_corpus([JudgmentRecord(record_id="orig", params=raw, judgments=(0, 0, 1))])
        assert len(corpus) > 4
        assert corpus.y.tolist() == [0] * len(corpus)
        assert corpus.origin_ids == ("orig",) * len(corpus)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(77)
        regimes = ["generic", "zero_angles", "iso_u", "iso_v", "iso_both"]
        for i in range(200):
            regime = regimes[i % len(regimes)]
            tau = rng.uniform(0.1, 0.9)
            thu, thv = rng.uniform(-HALF_PI * 0.99, HALF_PI, size=2)
            sux, suy, svx, svy = rng.uniform(0.05, 1.0, size=4)
            if regime == "zero_angles":
                thu = thv = 0.0
            if regime in ("iso_u", "iso_both"):
                suy = sux
            if regime in ("iso_v", "iso_both"):
                svy = svx
            top = max(1.0, sux, suy, svx, svy)
            vec = (tau, 1.0, sux / top, suy / top, svx / top, svy / top, thu, thv)
            reps = replicate(aligned(vec[0], vec[1], (vec[6], vec[2], vec[3]), (vec[7], vec[4], vec[5])))
            assert {canonical_key(r) for r in reps} == brute_force_replicas(vec), f"regime {regime}, case {i}"
            assert len(reps) == 4 + 9 * {"iso_u": 1, "iso_v": 1, "iso_both": 2}.get(regime, 0)

    def test_swap_exchanges_roles_exactly(self):
        x = aligned(0.3, 1.0, (0.5, 0.6, 0.2), (-0.4, 0.9, 0.1))
        swap = replicate(x)[2]
        assert swap[0] == pytest.approx(0.7, abs=1e-15)
        assert swap[1] == x[1]
        assert swap[[2, 3, 6]].tolist() == x[[4, 5, 7]].tolist()
        assert swap[[4, 5, 7]].tolist() == x[[2, 3, 6]].tolist()

    def test_negation_is_x_axis_reflection(self):
        # reflecting x -> -x conjugates the covariance with diag(-1, 1)
        x = aligned(0.3, 1.0, (0.5, 0.6, 0.2), (-0.4, 0.9, 0.1))
        neg = replicate(x)[1]
        f = np.diag([-1.0, 1.0])
        for sigmas, theta in ((slice(2, 4), 6), (slice(4, 6), 7)):
            original = compose_covariance(ShapeParams(x[theta], *x[sigmas])).as_matrix()
            reflected = compose_covariance(ShapeParams(neg[theta], *neg[sigmas])).as_matrix()
            assert np.allclose(f @ original @ f, reflected, atol=1e-12)


class TestBuildCorpus:
    def record(self, params, label=1, rid="a", n_votes=34):
        votes = (1,) * n_votes if label == 1 else (0,) * n_votes
        return JudgmentRecord(record_id=rid, params=params, judgments=votes)

    def test_iso_iso_zero_angles_unique_count(self):
        raw = PairFeatures(0.5, 3.0, ShapeParams(0.0, 1.0, 1.0), ShapeParams(0.0, 1.0, 1.0))
        corpus = build_corpus([self.record(raw)])
        # oracle: base collapses to one tuple, each angle sweep adds 8 more
        vec = tuple(align_training_record(raw).as_vector())
        vec = (vec[0], vec[1], vec[2], vec[3], vec[4], vec[5], vec[6], vec[7])
        assert len(corpus) == len(brute_force_replicas(vec))
        assert len(corpus) == 17

    def test_dedup_across_records_first_wins(self):
        raw = PairFeatures(0.5, 3.0, ShapeParams(0.0, 2.0, 1.0), ShapeParams(0.0, 1.0, 1.0))
        r1 = self.record(raw, label=1, rid="first")
        r2 = self.record(raw, label=0, rid="second")
        corpus = build_corpus([r1, r2])
        assert corpus.origin_ids == ("first",) * len(corpus)
        assert corpus.y.tolist() == [1] * len(corpus)

    def test_provenance_points_to_rows(self):
        # rows come in record order, each record's in emission order
        raw1 = PairFeatures(0.4, 2.0, ShapeParams(0.0, 2.0, 1.0), ShapeParams(0.3, 1.5, 1.0))
        raw2 = PairFeatures(0.2, 5.0, ShapeParams(0.6, 2.5, 0.5), ShapeParams(0.0, 1.0, 1.0))
        a, b = self.record(raw1, rid="a"), self.record(raw2, label=0, rid="b")
        corpus, alone = build_corpus([a, b]), [build_corpus([a]), build_corpus([b])]
        assert corpus.origin_ids == ("a",) * len(alone[0]) + ("b",) * len(alone[1])
        assert np.array_equal(corpus.X, np.concatenate([alone[0].X, alone[1].X]))
        assert corpus.y.tolist() == [1] * len(alone[0]) + [0] * len(alone[1])

    def test_tau_swap_extends_coverage(self):
        rng = np.random.default_rng(3)
        records = []
        for i in range(20):
            raw = PairFeatures(
                float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])),
                float(rng.choice([1.0, 2.0, 3.0])),
                ShapeParams(float(rng.choice([0.0, math.pi / 4])), 2.0, 1.0),
                ShapeParams(0.0, 1.0, 1.0),
            )
            records.append(self.record(raw, rid=f"r{i}"))
        corpus = build_corpus(records)
        assert all(r.params.tau <= 0.5 for r in records)
        assert (corpus.X[:, 0] > 0.5).any()

    def test_no_duplicate_keys(self):
        rng = np.random.default_rng(8)
        records = []
        for i in range(30):
            raw = PairFeatures(
                rng.uniform(0.1, 0.5),
                rng.uniform(0.0, 5.0),
                ShapeParams(rng.uniform(0, HALF_PI), rng.uniform(0.5, 3), rng.uniform(0.5, 3)),
                ShapeParams(rng.uniform(0, HALF_PI), rng.uniform(0.5, 3), rng.uniform(0.5, 3)),
            )
            records.append(self.record(raw, rid=f"r{i}"))
        corpus = build_corpus(records)
        keys = [canonical_key(x) for x in corpus.X]
        assert len(keys) == len(set(keys))


BENCH_HEADER = "id,tau,mu,sigma_ux,sigma_uy,sigma_vx,sigma_vy,theta_u,theta_v,alpha,n"


def bench_row(rid, tau=0.3, mu=2.0, sux=2.0, suy=1.0, svx=1.0, svy=1.0, thu=0.0, thv=0.0, alpha=0.0, n=100, votes=None):
    votes = votes if votes is not None else [1] * 34
    return f"{rid},{tau},{mu},{sux},{suy},{svx},{svy},{thu},{thv},{alpha},{n}," + ",".join(map(str, votes))


def write_bench(path, rows, n_votes=34):
    header = BENCH_HEADER + "," + ",".join(f"j{i+1}" for i in range(n_votes))
    path.write_text("\n".join([header] + rows) + "\n")


class TestIngest:
    def test_rows_differing_only_by_n_merge(self, tmp_path):
        p = tmp_path / "bench.csv"
        write_bench(p, [bench_row("a", n=100), bench_row("b", n=1000)])
        result = ingest_benchmark(p)
        assert result.report.n_rows == 2
        assert result.report.n_unique == 1
        assert result.report.duplicates == (("b", "a"),)

    def test_alignment_equivalent_rows_merge(self, tmp_path):
        # (0, 1, 2) and (pi/2, 2, 1) compose to the same covariance
        p = tmp_path / "bench.csv"
        write_bench(p, [bench_row("a", sux=1.0, suy=2.0, thu=0.0), bench_row("b", sux=2.0, suy=1.0, thu=HALF_PI)])
        result = ingest_benchmark(p)
        assert result.report.n_unique == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        result = ingest_benchmark(p)
        assert result.records == ()
        assert result.report.n_rows == 0

    def test_malformed_row_reports_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_bench(p, [bench_row("a"), bench_row("b", mu="oops")])
        with pytest.raises(ValueError, match="row 3"):
            ingest_benchmark(p)

    def test_unknown_column_warns(self, tmp_path):
        p = tmp_path / "extra.csv"
        header = BENCH_HEADER + ",mystery," + ",".join(f"j{i+1}" for i in range(4))
        row = bench_row("a", votes=[1, 1, 0, 1]).split(",")
        row.insert(11, "42")
        p.write_text(header + "\n" + ",".join(row) + "\n")
        with pytest.warns(UserWarning, match="mystery"):
            result = ingest_benchmark(p)
        assert result.report.n_unique == 1

    def test_votes_become_labels(self, tmp_path):
        p = tmp_path / "bench.csv"
        write_bench(p, [bench_row("a", votes=[0] * 20 + [1] * 14)])
        result = ingest_benchmark(p)
        corpus = build_corpus(result.records)
        assert corpus.y.tolist() == [0] * len(corpus)


class TestGenerateScatterplot:
    def test_tau_limits_rejected(self):
        with pytest.raises(ValueError):
            PairFeatures(1.0, 2.0, ShapeParams(0.0, 1.0, 1.0), ShapeParams(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            PairFeatures(0.0, 2.0, ShapeParams(0.0, 1.0, 1.0), ShapeParams(0.0, 1.0, 1.0))

    def test_deterministic(self):
        params = PairFeatures(0.4, 3.0, ShapeParams(0.3, 2.0, 1.0), ShapeParams(0.0, 1.0, 1.0))
        a = generate_scatterplot(params, 200, seed=5)
        b = generate_scatterplot(params, 200, seed=5)
        assert np.array_equal(a.points, b.points)
        c = generate_scatterplot(params, 200, seed=6)
        assert not np.array_equal(a.points, c.points)

    def test_separated_halves_near_centers(self):
        params = PairFeatures(0.5, 21.0, ShapeParams(0.0, 1.0, 1.0), ShapeParams(0.0, 1.0, 1.0))
        sp = generate_scatterplot(params, 1000, seed=11)
        low = sp.points[sp.points[:, 1] < 10.5]
        high = sp.points[sp.points[:, 1] >= 10.5]
        assert np.linalg.norm(low.mean(axis=0) - [0.0, 0.0]) < 0.2
        assert np.linalg.norm(high.mean(axis=0) - [0.0, 21.0]) < 0.2

    def test_coincident_components_select_one(self):
        params = PairFeatures(0.4, 0.0, ShapeParams(0.0, 1.0, 1.0), ShapeParams(0.0, 1.0, 1.0))
        cfg = FitConfig(k_max=2, n_restarts=2, seed=0, em_tolerance=1e-6, max_iterations=200)
        hits = 0
        for seed in range(20):
            sp = generate_scatterplot(params, 500, seed=seed)
            if select_model(sp, cfg).k_star == 1:
                hits += 1
        assert hits >= 18


class TestCorpusRows:
    # values at and around the bounds a row is checked against
    EDGES = (
        0.0, -0.0, 1.0, -1.0, 1e-17, 1.0 - 1e-16, 1.0 + 1e-10, 1.0 + 1e-8, 5.0, -0.25,
        HALF_PI, HALF_PI + 1e-6, HALF_PI + 2e-6, -HALF_PI - 1e-6, -HALF_PI - 2e-6,
        math.nan, math.inf, -math.inf,
    )

    def test_rows_rejected_exactly_as_the_dataclasses_reject(self):
        rng = np.random.default_rng(9)
        outcomes = set()
        for _ in range(3000):
            x, label = random_aligned(rng).as_vector(), int(rng.choice([0, 1, 1, 1, 2, -1]))
            for j in rng.choice(8, size=int(rng.integers(1, 3)), replace=False):
                x[j] = rng.choice(self.EDGES) if rng.random() < 0.8 else x[j] * rng.uniform(0.5, 2.0)
            try:
                AlignedPairFeatures.from_vector(x)
                valid = label in (0, 1)
            except ValueError:
                valid = False
            try:
                TrainingCorpus(X=[x], y=[label], origin_ids=["a"])
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == valid, (x.tolist(), label)
            outcomes.add(valid)
        assert outcomes == {True, False}

    def test_reader_names_the_first_bad_row(self, tmp_path):
        path = tmp_path / "corpus.csv"
        rows = ["0.5,1,0.5,0.5,0.5,0.5,0,0,1,a", "0.5,1,0.5,0.5,0.5,0.5,2,0,1,b", "1.5,1,0.5,0.5,0.5,0.4,0,0,1,c"]
        path.write_text(",".join(CORPUS_COLUMNS) + "\n\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"corpus.csv: row 4: theta_u must be in \[-pi/2, pi/2\], got 2.0"):
            read_corpus_csv(path)


class TestCorpusCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        corpus = make_corpus([random_aligned(rng) for _ in range(25)], rng.integers(2, size=25), "r")
        path = tmp_path / "corpus.csv"
        write_corpus_csv(path, corpus)
        back = read_corpus_csv(path)
        assert len(back) == len(corpus)
        assert np.allclose(corpus.X, back.X, atol=1e-8)
        assert np.array_equal(corpus.y, back.y)
        assert corpus.origin_ids == back.origin_ids

    def test_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_corpus_csv(path)

    def test_read_keeps_no_object_per_cell(self, tmp_path):
        # each row's cells are parsed into compact columns as the file is read,
        # not held as strings, lists of floats and key tuples
        rng = np.random.default_rng(12)
        n = 5000
        corpus = make_corpus([random_aligned(rng) for _ in range(n)], rng.integers(2, size=n), "r")
        path = tmp_path / "corpus.csv"
        write_corpus_csv(path, corpus)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            back = read_corpus_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(back) == n
        assert peak / n < 800, f"{peak / n:.0f} bytes per row"
