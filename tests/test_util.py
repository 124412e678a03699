import numpy as np
import pytest

from scatterscore.agreement import read_pair_judgments_csv
from scatterscore.augment import ingest_benchmark, read_corpus_csv
from scatterscore.util import _seed_block, derive_seed, fmt_num, read_rows, read_table, spawn_rng, spawn_rngs, write_csv
from scatterscore.vqm import read_scores_csv


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(7, "em", 2, 0) == derive_seed(7, "em", 2, 0)

    def test_path_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "tree", 0) != derive_seed(1, "tree", 1)
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_negative_and_numpy_ints_accepted(self):
        assert derive_seed(-5, "x") == derive_seed(-5, "x")
        assert derive_seed(3, np.int64(4)) == derive_seed(3, 4)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            derive_seed(0, 1.5)

    def test_spawned_generators_independent(self):
        a = spawn_rng(0, "left").random(4)
        b = spawn_rng(0, "right").random(4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, spawn_rng(0, "left").random(4))

    @pytest.mark.parametrize(
        "path,value",
        [
            ((0, "curve", 1, 0), 17630727604588420972),
            ((0, "bootstrap", 0), 17922975798850960285),
            ((7, "em", 2, 0), 12674888016811004084),
            ((2**32, "tree", 3), 8787397701626043610),
            ((-5, "x"), 14790545071208728077),
        ],
    )
    def test_pinned_values(self, path, value):
        # A change in numpy's SeedSequence fails here, not only in the golden files.
        assert derive_seed(*path) == value


# User seeds of one and two entropy words, and ones masked to 64 bits.
SEEDS = (0, 5, 2**32 - 1, 2**32, 2**40 + 5, 2**64, 2**70 + 3, -1, -(2**33))


def assert_same_generator(block, reference):
    assert block.bit_generator.state == reference.bit_generator.state
    assert block.integers(0, 2**62, size=2).tolist() == reference.integers(0, 2**62, size=2).tolist()


class TestSpawnRngs:
    """The block derivation against derive_seed / spawn_rng, over 10**5 paths."""

    # block boundaries as the replicate loops cut them, plus ragged ones
    RANGES = (range(0, 128), range(128, 256), range(256, 300), range(1000, 1257), range(4095, 4096))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_curve_paths_match_scalar(self, seed):
        for k in (1, 5, 10, 50):
            for replicates in self.RANGES + (range(300, 1000),):
                rngs = spawn_rngs(seed, ("curve", k), replicates, ("alter",))
                for j, rng in zip(replicates, rngs, strict=True):
                    assert_same_generator(rng, spawn_rng(derive_seed(seed, "curve", k, j), "alter"))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bootstrap_paths_match_scalar(self, seed):
        for replicates in self.RANGES + (range(300, 6000),):
            for i, rng in zip(replicates, spawn_rngs(seed, ("bootstrap",), replicates), strict=True):
                assert_same_generator(rng, spawn_rng(seed, "bootstrap", i))

    def test_one_word_values_take_the_scalar_path(self):
        # SeedSequence gives a value below 2**32 one entropy word, not two.
        small = [0, 1, 5, 2**32 - 1]
        for values in (small, small + [2**32, 2**63 + 7, 2**64 - 1], [2**40, 3, 2**50]):
            column = np.array(values, dtype=np.uint64)
            derived = _seed_block([column, "alter"], 1)[:, 0]
            assert derived.tolist() == [derive_seed(v, "alter") for v in values]
            states = _seed_block([column], 4)
            expected = [np.random.SeedSequence(v).generate_state(4, dtype=np.uint64).tolist() for v in values]
            assert states.tolist() == expected


class TestFmtNum:
    @pytest.mark.parametrize(
        "value,expect",
        [
            (3, "3"),
            (-0.0, "0"),
            (1 / 3, "0.333333333"),
            (1.0, "1"),
            (1234567891.0, "1.23456789e+09"),
        ],
    )
    def test_nine_significant_digits(self, value, expect):
        assert fmt_num(value) == expect


class TestCsv:
    def test_quoted_cells_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        cells = ["a,b", 'say "hi"', "two\nlines", 0.5, 7]
        write_csv(path, ("w", "x", "y", "z", "n"), [cells])
        header, rows = read_table(path)
        assert header == ["w", "x", "y", "z", "n"]
        assert list(rows) == [(3, ["a,b", 'say "hi"', "two\nlines", "0.5", "7"])]

    def test_line_numbers_skip_blank_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n\n , \n1,2\n")
        assert list(read_rows(path)) == [(1, ["a", "b"]), (4, ["1", "2"])]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,b\n1,2\n")
        assert read_table(path, required=("a",))[0] == ["a", "b"]
        with pytest.raises(ValueError, match="missing required columns \\['c'\\]"):
            read_table(path, required=("a", "c"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n\n")
        header, rows = read_table(path)
        assert header == [] and list(rows) == []


_CORPUS_ROW = "0.5,1,0.5,0.5,0.5,0.5,0,0,1,r1"
_JUDGED_HEADER = "id,tau,mu,sigma_ux,sigma_uy,sigma_vx,sigma_vy,theta_u,theta_v,j1"


@pytest.mark.parametrize(
    "reader,header,row",
    [
        (read_corpus_csv, "tau,mu,sigma_ux,sigma_uy,sigma_vx,sigma_vy,theta_u,theta_v,label,origin_id", _CORPUS_ROW),
        (read_scores_csv, "id,k_star,m,scalar_score", "a,2,1,1.33333333"),
        (ingest_benchmark, _JUDGED_HEADER, "r1,0.5,1,1,1,1,1,0,0,1"),
        (read_pair_judgments_csv, "idA,idB,v1", "a,b,<"),
    ],
)
def test_readers_reject_rows_of_the_wrong_width(tmp_path, reader, header, row):
    path = tmp_path / "t.csv"
    width = header.count(",") + 1
    path.write_text(f"{header}\n{row}\n")
    reader(path)
    path.write_text(f"{header}\n\n{row}\n{row},extra\n")
    with pytest.raises(ValueError, match=f"row 4: expected {width} cells, got {width + 1}"):
        reader(path)
