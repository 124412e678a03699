import numpy as np
import pytest

from scatterscore.agreement import read_group_csv, read_pair_judgments_csv
from scatterscore.augment import ingest_benchmark, read_corpus_csv
from scatterscore.util import derive_seed, fmt_num, read_rows, read_table, spawn_rng, write_csv
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
        assert rows == [(3, ["a,b", 'say "hi"', "two\nlines", "0.5", "7"])]

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
        assert read_table(path) == ([], [])


_CORPUS_ROW = "0.5,1,0.5,0.5,0.5,0.5,0,0,1,r1"
_JUDGED_HEADER = "id,tau,mu,sigma_ux,sigma_uy,sigma_vx,sigma_vy,theta_u,theta_v,j1"


@pytest.mark.parametrize(
    "reader,header,row",
    [
        (read_corpus_csv, "tau,mu,sigma_ux,sigma_uy,sigma_vx,sigma_vy,theta_u,theta_v,label,origin_id", _CORPUS_ROW),
        (read_scores_csv, "id,k_star,m,scalar_score", "a,2,1,1.33333333"),
        (ingest_benchmark, _JUDGED_HEADER, "r1,0.5,1,1,1,1,1,0,0,1"),
        (read_pair_judgments_csv, "idA,idB,v1", "a,b,<"),
        (read_group_csv, "item_id,r1", "i1,0"),
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
