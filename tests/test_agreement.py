import re

import numpy as np
import pytest

from scatterscore import agreement
from scatterscore.agreement import (
    _BLOCK,
    RELATION_CATEGORIES,
    AlterationPoint,
    GroupRatings,
    alter_decisions,
    alteration_curve,
    alteration_percentage,
    bootstrap_kappa,
    landis_koch_label,
    min_alterations_to_displace,
    pairwise_relations,
    read_pair_judgments_csv,
    vanbelle_kappa,
    worst_case_formulas,
)
from scatterscore.util import derive_seed, spawn_rng
from scatterscore.vqm import VqmScore


def binary_group(rows):
    return GroupRatings(categories=("0", "1"), votes=tuple(tuple(r) for r in rows))


class TestVanbelleKappa:
    def test_unanimous_agreement_is_one(self):
        group = binary_group([["1"] * 5, ["0"] * 5, ["1"] * 5])
        isolated = ("1", "0", "1")
        result = vanbelle_kappa(group, isolated)
        assert result.kappa == 1.0
        assert result.observed_agreement == 1.0
        assert result.label == "almost perfect"

    def test_hand_built_table(self):
        # items A..D, 3 raters, categories {x, y}; isolated: x, y, y, y
        # p_o = (2/3 + 1 + 2/3 + 0) / 4 = 7/12
        # q_x = (2/3 + 0 + 1/3 + 1) / 4 = 1/2; r_x = 1/4
        # p_e = 1/2 * 1/4 + 1/2 * 3/4 = 1/2; kappa = (7/12 - 1/2) / (1/2) = 1/6
        group = GroupRatings(
            categories=("x", "y"),
            votes=(("x", "x", "y"), ("y", "y", "y"), ("x", "y", "y"), ("x", "x", "x")),
        )
        isolated = ("x", "y", "y", "y")
        result = vanbelle_kappa(group, isolated)
        assert result.observed_agreement == pytest.approx(7 / 12, abs=1e-12)
        assert result.expected_agreement == pytest.approx(1 / 2, abs=1e-12)
        assert result.kappa == pytest.approx(1 / 6, abs=1e-12)

    def test_independent_rater_near_zero(self):
        rng = np.random.default_rng(42)
        n = 10000
        group_rows = [["1" if rng.random() < 0.7 else "0" for _ in range(8)] for _ in range(n)]
        marginal = np.mean([row.count("1") / 8 for row in group_rows])
        iso = tuple("1" if rng.random() < marginal else "0" for _ in range(n))
        result = vanbelle_kappa(binary_group(group_rows), iso)
        assert abs(result.kappa) < 0.02

    def test_category_relabel_invariance(self):
        rng = np.random.default_rng(3)
        votes = [["a" if rng.random() < 0.5 else "b" for _ in range(5)] for _ in range(40)]
        iso = tuple("a" if rng.random() < 0.5 else "b" for _ in range(40))
        base = vanbelle_kappa(
            GroupRatings(categories=("a", "b"), votes=tuple(tuple(r) for r in votes)),
            iso,
        )
        renamed = vanbelle_kappa(
            GroupRatings(
                categories=("zz", "qq"),
                votes=tuple(tuple("zz" if v == "a" else "qq" for v in r) for r in votes),
            ),
            tuple("zz" if v == "a" else "qq" for v in iso),
        )
        assert base.kappa == pytest.approx(renamed.kappa, abs=1e-12)

    def test_single_rater_group_matching_is_one(self):
        group = GroupRatings(categories=("0", "1"), votes=(("1",), ("0",), ("1",)))
        isolated = ("1", "0", "1")
        assert vanbelle_kappa(group, isolated).kappa == 1.0

    def test_dimension_mismatch_rejected(self):
        group = binary_group([["1", "1"], ["0", "0"]])
        with pytest.raises(ValueError):
            vanbelle_kappa(group, ("1",))

    def test_all_same_category_convention(self):
        group = binary_group([["1", "1"], ["1", "1"]])
        result = vanbelle_kappa(group, ("1", "1"))
        assert result.expected_agreement == 1.0
        assert result.kappa == 1.0
        result0 = vanbelle_kappa(group, ("1", "0"))
        assert result0.kappa == 0.0


class TestCoder:
    def test_group_codes_each_vote_once_read_only(self, monkeypatch):
        group = GroupRatings(categories=("x", "y", "z"), votes=(("z", "x"), ("y", "y"), ("x", "z")))
        assert group.codes.tolist() == [[2, 0], [1, 1], [0, 2]]
        with pytest.raises(ValueError, match="read-only"):
            group.codes[0, 0] = 1
        coded = []
        real = agreement._code
        monkeypatch.setattr(agreement, "_code", lambda *args: coded.append(args[2]) or real(*args))
        vanbelle_kappa(group, ("z", "y", "x"))
        bootstrap_kappa(group, ("z", "y", "x"), b=3, seed=0)
        assert coded == ["isolated vote", "isolated vote"]

    def test_group_vote_outside_the_categories_named(self):
        with pytest.raises(ValueError, match=re.escape("vote '2' is not one of ('0', '1')")):
            binary_group([["0", "1"], ["1", "2"], ["2", "0"]])

    @pytest.mark.parametrize("measure", [vanbelle_kappa, lambda g, v: bootstrap_kappa(g, v, b=2, seed=0)])
    def test_measure_vote_outside_the_group_categories_named(self, measure):
        group = binary_group([["1", "0"], ["0", "0"], ["1", "1"]])
        with pytest.raises(ValueError, match=re.escape("isolated vote 'yes' is not one of ('0', '1')")):
            measure(group, ("1", "yes", "no"))

    def test_more_than_127_categories(self):
        categories = tuple(f"c{i}" for i in range(300))
        codes = np.array([[299, 128, 299], [5, 200, 200], [128, 128, 7]])
        group = GroupRatings(categories=categories, votes=[[categories[c] for c in row] for row in codes])
        assert group.codes.tolist() == codes.tolist()
        measure = ("c299", "c200", "c128")
        result = vanbelle_kappa(group, measure)
        assert result.observed_agreement == pytest.approx(2 / 3, abs=1e-12)
        assert result.kappa.hex() == reference_kappa(reference_terms(group), np.array([299, 200, 128]), 300).hex()

    def test_pair_rows_go_through_the_coder(self, tmp_path, monkeypatch):
        coded = []
        real = agreement._code
        monkeypatch.setattr(agreement, "_code", lambda *args: coded.append(args[1:]) or real(*args))
        p = tmp_path / "pairs.csv"
        p.write_text("idA,idB,v1,v2\na,b,<,>\nb,c,=,\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: row 3: vote '' is not one of ('<', '=', '>')")):
            read_pair_judgments_csv(p)
        assert coded == [(RELATION_CATEGORIES, "vote")] * 2


class TestLandisKoch:
    @pytest.mark.parametrize(
        "kappa,label",
        [
            (0.671, "substantial"),
            (0.962, "almost perfect"),
            (-0.1, "poor"),
            (0.0, "poor"),
            (0.15, "slight"),
            (0.2, "slight"),
            (0.35, "fair"),
            (0.55, "moderate"),
            (0.8, "substantial"),
            (1.0, "almost perfect"),
        ],
    )
    def test_bands(self, kappa, label):
        assert landis_koch_label(kappa) == label

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            landis_koch_label(1.5)


class TestBootstrap:
    def test_perfect_agreement_zero_spread(self):
        group = binary_group([["1"] * 4, ["0"] * 4, ["1"] * 4])
        isolated = ("1", "0", "1")
        summary = bootstrap_kappa(group, isolated, b=50, seed=1)
        assert summary.mean == 1.0
        assert summary.sd == 0.0
        assert summary.min == summary.max == 1.0

    def test_identical_items_match_point_estimate(self):
        # any resample of identical items is the original multiset
        group = binary_group([["1", "1", "0"]] * 6)
        isolated = ("1",) * 6
        point = vanbelle_kappa(group, isolated).kappa
        summary = bootstrap_kappa(group, isolated, b=1, seed=0)
        assert summary.values[0] == pytest.approx(point, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        rows = [["1" if rng.random() < 0.6 else "0" for _ in range(6)] for _ in range(50)]
        iso = tuple("1" if rng.random() < 0.6 else "0" for _ in range(50))
        group, isolated = binary_group(rows), iso
        a = bootstrap_kappa(group, isolated, b=200, seed=7)
        b = bootstrap_kappa(group, isolated, b=200, seed=7)
        assert np.array_equal(a.values, b.values)
        c = bootstrap_kappa(group, isolated, b=200, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_mean_tracks_point_estimate(self):
        rng = np.random.default_rng(11)
        n = 435
        rows = []
        iso = []
        for _ in range(n):
            truth = rng.random() < 0.5
            rows.append(["1" if (rng.random() < 0.85) == truth else "0" for _ in range(31)])
            iso.append("1" if (rng.random() < 0.9) == truth else "0")
        group, isolated = binary_group(rows), tuple(iso)
        point = vanbelle_kappa(group, isolated).kappa
        summary = bootstrap_kappa(group, isolated, b=500, seed=3)
        assert abs(summary.mean - point) < 0.02
        assert set(summary.percentiles) == {2.5, 5.0, 25.0, 50.0, 75.0, 95.0, 97.5}


class TestPairwiseRelations:
    def test_relations_from_scores(self):
        scores = [("a", VqmScore(1, 1)), ("b", VqmScore(2, 2)), ("c", VqmScore(2, 2))]
        pairs = [("a", "b"), ("b", "c"), ("b", "a")]
        assert pairwise_relations(scores, pairs) == ["<", "=", ">"]

    def test_all_pairs_of_thirty(self):
        scores = [(f"p{i}", VqmScore(1 + i % 3, 3)) for i in range(30)]
        pairs = [(f"p{i}", f"p{j}") for i in range(30) for j in range(i + 1, 30)]
        relations = pairwise_relations(scores, pairs)
        assert len(relations) == 435

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            pairwise_relations([("a", VqmScore(1, 1))], [("a", "zzz")])


def coded(relations):
    return np.array([RELATION_CATEGORIES.index(r) for r in relations], dtype=np.int8)


def alter(relations, k, seed):
    """``alter_decisions`` on the codes of the symbols ``relations``, on the alter stream of ``seed``, as symbols."""
    return [RELATION_CATEGORIES[c] for c in alter_decisions(coded(relations), k, spawn_rng(seed, "alter"))]


class TestAlterDecisions:
    BASE = ["<", "=", ">", "<", "=", ">", "<", "="]

    def test_k0_identity(self):
        codes = coded(self.BASE)
        out = alter_decisions(codes, 0, spawn_rng(1, "alter"))
        assert out.dtype == np.int8 and out is not codes and out.tolist() == codes.tolist()

    def test_full_alteration_changes_everything(self):
        out = alter(self.BASE, len(self.BASE), seed=2)
        assert all(a != b for a, b in zip(self.BASE, out))

    def test_exactly_k_positions_differ(self):
        codes = coded(self.BASE)
        for k in range(len(self.BASE) + 1):
            for seed in range(10):
                out = alter_decisions(codes, k, spawn_rng(seed, "alter"))
                assert int((out != codes).sum()) == k
        assert codes.tolist() == coded(self.BASE).tolist()

    def test_alternative_frequencies_balanced(self):
        counts = {"=": 0, ">": 0}
        for seed in range(10000):
            out = alter(["<"], 1, seed=seed)
            counts[out[0]] += 1
        frequency = counts["="] / 10000
        assert abs(frequency - 0.5) < 0.02

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"k must be in \[0, 8\], got 9"):
            alter_decisions(coded(self.BASE), len(self.BASE) + 1, spawn_rng(0, "alter"))

    def test_matches_per_position_reference(self):
        rng = np.random.default_rng(12)
        codes = rng.integers(3, size=40).astype(np.int8)
        relations = [RELATION_CATEGORIES[c] for c in codes]
        for seed in range(1000):
            for k in (0, 1, 7, 40):
                got = alter_decisions(codes, k, spawn_rng(seed, "alter"))
                assert got.tolist() == coded(reference_alter(relations, k, seed)).tolist()


class TestAlterationCurve:
    def make_data(self, n=60, seed=4):
        rng = np.random.default_rng(seed)
        relations = [("<", "=", ">")[rng.integers(3)] for _ in range(n)]
        votes = tuple(
            tuple(r if rng.random() < 0.9 else ("<", "=", ">")[rng.integers(3)] for _ in range(9))
            for r in relations
        )
        return relations, GroupRatings(categories=("<", "=", ">"), votes=votes)

    def test_k0_has_zero_variance(self):
        relations, group = self.make_data()
        point = vanbelle_kappa(group, tuple(relations)).kappa
        curve = alteration_curve(relations, group, [0], b=20, seed=0)
        assert curve[0].sd == 0.0
        assert curve[0].mean == pytest.approx(point, abs=1e-12)

    def test_mean_non_increasing(self):
        relations, group = self.make_data()
        curve = alteration_curve(relations, group, [0, 10, 25, 45, 60], b=200, seed=1)
        means = [pt.mean for pt in curve]
        for a, b in zip(means, means[1:]):
            assert b <= a + 0.02  # monotone up to sampling noise

    def test_deterministic(self):
        relations, group = self.make_data()
        a = alteration_curve(relations, group, [5, 15], b=50, seed=9)
        b = alteration_curve(relations, group, [5, 15], b=50, seed=9)
        assert a == b

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_unknown_symbol_rejected(self, k):
        group = GroupRatings(categories=RELATION_CATEGORIES, votes=(("<", "="), ("=", "=")))
        with pytest.raises(ValueError, match="'!'"):
            alteration_curve(["<", "!"], group, [k], b=2, seed=0)

    def test_alters_each_replicate_through_module_attribute(self, monkeypatch):
        # Tracing wraps agreement.alter_decisions to time the curve per k.
        relations, group = self.make_data()
        real, calls = agreement.alter_decisions, []
        monkeypatch.setattr(agreement, "alter_decisions", lambda rel, k, rng: calls.append(k) or real(rel, k, rng))
        alteration_curve(relations, group, [0, 3], b=_BLOCK + 2, seed=4)
        assert calls == [0] * (_BLOCK + 2) + [3] * (_BLOCK + 2)


# The per-replicate implementations that the blocked ones replaced: every
# replicate draws the same numbers, and the kappas must match bit for bit.


def reference_kappa(prop, iso_codes, n_categories):
    n = prop.shape[0]
    p_o = float(prop[np.arange(n), iso_codes].mean())
    q_bar = prop.mean(axis=0)
    r_marg = np.bincount(iso_codes, minlength=n_categories) / n
    p_e = float(q_bar @ r_marg)
    if p_e >= 1.0 - 1e-15:
        return 1.0 if p_o >= 1.0 - 1e-15 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def reference_codes(votes, categories):
    return np.array([categories.index(v) for v in votes])


def reference_terms(group):
    codes = np.array([reference_codes(row, group.categories) for row in group.votes])
    return np.stack([(codes == c).mean(axis=1) for c in range(len(group.categories))], axis=1)


def reference_bootstrap(group, isolated, b, seed):
    prop, iso = reference_terms(group), reference_codes(isolated, group.categories)
    n, n_cat = prop.shape
    values = np.empty(b)
    for i in range(b):
        idx = spawn_rng(seed, "bootstrap", i).integers(0, n, size=n)
        values[i] = reference_kappa(prop[idx], iso[idx], n_cat)
    return values


def reference_alter(relations, k, seed):
    relations = list(relations)
    rng = spawn_rng(seed, "alter")
    positions = rng.choice(len(relations), size=k, replace=False) if k else []
    for pos in positions:
        alternatives = [r for r in RELATION_CATEGORIES if r != relations[pos]]
        relations[pos] = alternatives[int(rng.integers(2))]
    return relations


def reference_curve(relations, group, k_values, b, seed):
    prop = reference_terms(group)
    index = {c: i for i, c in enumerate(group.categories)}
    out = []
    for k in k_values:
        values = np.empty(b)
        for j in range(b):
            altered = reference_alter(relations, k, derive_seed(seed, "curve", k, j))
            values[j] = reference_kappa(prop, np.array([index[r] for r in altered]), len(index))
        lo, hi = float(values.min()), float(values.max())
        mean, sd = (lo, 0.0) if lo == hi else (float(values.mean()), float(values.std()))
        out.append(AlterationPoint(k=k, mean=mean, sd=sd, min=lo, max=hi))
    return out


class TestBlocksMatchReference:
    N = 401
    B_VALUES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5 * _BLOCK // 2)

    def make_data(self):
        rng = np.random.default_rng(21)
        relations = [RELATION_CATEGORIES[i] for i in rng.integers(3, size=self.N)]
        votes = tuple(
            tuple(r if rng.random() < 0.7 else RELATION_CATEGORIES[rng.integers(3)] for _ in range(7))
            for r in relations
        )
        return relations, GroupRatings(categories=RELATION_CATEGORIES, votes=votes)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_bootstrap_values_bitwise_equal(self, seed):
        relations, group = self.make_data()
        isolated = tuple(relations)
        for b in self.B_VALUES:
            got = bootstrap_kappa(group, isolated, b=b, seed=seed).values
            assert got.tobytes() == reference_bootstrap(group, isolated, b, seed).tobytes(), b

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_curve_points_equal(self, seed):
        relations, group = self.make_data()
        ks = [0, 1, self.N]
        for b in self.B_VALUES:
            assert alteration_curve(relations, group, ks, b=b, seed=seed) == reference_curve(
                relations, group, ks, b, seed
            ), b

    def test_category_order_and_subset(self):
        relations, group = self.make_data()
        reordered = GroupRatings(categories=(">", "<", "="), votes=group.votes)
        got = alteration_curve(relations, reordered, [1, 5], b=_BLOCK + 3, seed=2)
        assert got == reference_curve(relations, reordered, [1, 5], _BLOCK + 3, 2)
        narrow = GroupRatings(categories=("<", ">"), votes=(("<",), (">",)))
        assert alteration_curve(["<", ">"], narrow, [0], b=3, seed=0)[0].mean == 1.0
        with pytest.raises(ValueError, match="categories"):
            alteration_curve(["<", ">"], narrow, [2], b=3, seed=0)

    def test_point_estimate_bitwise_equal(self):
        relations, group = self.make_data()
        cases = [
            (group, relations),
            (GroupRatings(categories=(">", "<", "="), votes=group.votes), relations),
            (GroupRatings(categories=("<", ">"), votes=(("<",), (">",))), ["<", ">"]),
        ]
        for g, votes in cases:
            isolated = tuple(votes)
            prop, iso, n_cat = reference_terms(g), reference_codes(isolated, g.categories), len(g.categories)
            p_o = float(prop[np.arange(len(iso)), iso].mean())
            p_e = float(prop.mean(axis=0) @ (np.bincount(iso, minlength=n_cat) / len(iso)))
            got = vanbelle_kappa(g, isolated)
            assert got.kappa.hex() == float(reference_kappa(prop, iso, n_cat)).hex(), g.categories
            assert (got.observed_agreement.hex(), got.expected_agreement.hex()) == (p_o.hex(), p_e.hex())

    def test_length_mismatch_rejected(self):
        relations, group = self.make_data()
        with pytest.raises(ValueError, match="relations"):
            alteration_curve(relations[:-1], group, [1], b=2, seed=0)


class TestWorstCase:
    def test_displacing_two_needs_four(self):
        assert min_alterations_to_displace(2) == 4

    def test_formulas_for_thirty_plots(self):
        p = alteration_percentage(30, 49)  # 100 * 49 / 435
        assert p == pytest.approx(100 * 49 / 435, abs=1e-12)
        wc = worst_case_formulas(30, p)
        assert wc.r == pytest.approx(49.0, abs=1e-9)
        assert wc.q == pytest.approx(100.0 * 7.0 / 30.0, abs=1e-9)
        assert 23.3 <= wc.q <= 23.5

    def test_zero_percent(self):
        wc = worst_case_formulas(30, 0.0)
        assert wc.r == 0.0 and wc.q == 0.0 and wc.q_large_n == 0.0

    def test_large_n_approximation(self):
        wc = worst_case_formulas(10000, 11.0)
        assert wc.q == pytest.approx(wc.q_large_n, rel=1e-3)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            worst_case_formulas(1, 10.0)
        with pytest.raises(ValueError):
            worst_case_formulas(30, 60.0)


class TestCsv:
    def test_pair_judgments_csv(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("idA,idB,v1,v2\na,b,<,=\nb,c,>,>\n")
        pairs, group = read_pair_judgments_csv(p)
        assert pairs == [("a", "b"), ("b", "c")]
        assert group.votes == (("<", "="), (">", ">"))

    def test_pair_judgments_bad_symbol(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("idA,idB,v1\na,b,!\n")
        with pytest.raises(ValueError):
            read_pair_judgments_csv(p)
