import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from scatterscore import augment, gmm, vqm
from scatterscore.augment import read_corpus_csv
from scatterscore.cli import main

from test_augment import bench_row, write_bench

DATA = Path(__file__).parent / "data"
GOLDEN_CORPUS = DATA / "golden" / "corpus.csv"  # 274 records, 136 with label 0
P0 = DATA / "golden" / "p0.csv"  # x,y header and 200 points


@pytest.fixture()
def bench_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    taus = [0.1, 0.2, 0.3, 0.4, 0.5]
    mus = [0.0, 1.0, 2.0, 3.0, 5.0, 8.0]
    sigmas = [0.5, 1.0, 1.5, 2.0]
    thetas = [0.0, 0.39269908169872414, 0.7853981633974483]
    for i in range(25):
        sep = float(rng.choice(mus))
        votes = [1 if sep <= 2.0 else 0] * 20
        rows.append(
            bench_row(
                f"b{i}",
                tau=float(rng.choice(taus)),
                mu=sep,
                sux=float(rng.choice(sigmas)),
                suy=float(rng.choice(sigmas)),
                svx=float(rng.choice(sigmas)),
                svy=float(rng.choice(sigmas)),
                thu=float(rng.choice(thetas)),
                thv=float(rng.choice(thetas)),
                votes=votes,
            )
        )
    path = tmp_path / "bench.csv"
    write_bench(path, rows, n_votes=20)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_grid_sampling(self, tmp_path):
        out = tmp_path / "plots"
        assert run("generate", "--grid-count", 10, "--n", 100, "--seed", 3, "--out", out) == 0
        files = sorted(out.glob("grid*.csv"))
        assert len(files) == 10
        for f in files:
            assert len(f.read_text().strip().splitlines()) == 101  # header + 100
        assert (out / "manifest.csv").exists()
        assert (out / "manifest.csv.config.txt").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("generate", "--grid-count", 4, "--n", 50, "--seed", 11, "--out", a)
        run("generate", "--grid-count", 4, "--n", 50, "--seed", 11, "--out", b)
        for fa in sorted(a.iterdir()):
            assert fa.read_bytes() == (b / fa.name).read_bytes()

    def test_invalid_tau_rejected(self, tmp_path, capsys):
        params = tmp_path / "params.csv"
        params.write_text(
            "id,tau,mu,sigma_ux,sigma_uy,sigma_vx,sigma_vy,theta_u,theta_v\n"
            "bad,0.0,1,1,1,1,1,0,0\n"
        )
        assert run("generate", "--params-file", params, "--out", tmp_path / "o") == 2

    def test_comma_in_id_keeps_manifest_columns(self, tmp_path):
        params = tmp_path / "params.csv"
        params.write_text(
            "id,tau,mu,sigma_ux,sigma_uy,sigma_vx,sigma_vy,theta_u,theta_v\n"
            '"p,1",0.5,3,1,1,1,1,0,0\n'
        )
        out = tmp_path / "o"
        assert run("generate", "--params-file", params, "--n", 20, "--out", out) == 0
        with open(out / "manifest.csv", newline="") as fh:
            header, row = list(csv.reader(fh))
        assert len(header) == len(row) == 12
        assert row[:2] == ["p,1", "p,1.csv"]

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_params_file_with_grid_count_exit_2(self, tmp_path, capsys, how):
        out = tmp_path / "o"
        argv = ["generate", "--params-file", PARAMS, "--n", 20, "--out", out]
        if how == "flag":
            argv += ["--grid-count", 3]
        else:
            (tmp_path / "run.cfg").write_text("grid_count=3\n")
            argv += ["--config", tmp_path / "run.cfg"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "--params-file" in err and "--grid-count" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--params-file", DATA / "params.csv", "--n", 0], "n must be >= 1, got 0"),
        (["--n", 20], "provide --params-file or --grid-count"),
    ])
    def test_no_size_or_no_source_exit_2(self, tmp_path, capsys, argv, message):
        assert run("generate", *argv, "--out", tmp_path / "o") == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["afile", "afile/plots"])
    def test_out_on_a_file_exit_2(self, tmp_path, monkeypatch, capsys, out):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        monkeypatch.setattr(augment, "generate_scatterplot", lambda *a, **kw: pytest.fail("a plot was drawn"))
        assert run("generate", "--params-file", DATA / "params.csv", "--n", 20, "--out", tmp_path / out) == 2
        assert f"--out {tmp_path / out}: {afile} is not a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == "kept\n"

    @pytest.mark.parametrize("source,plots", [(["--params-file", DATA / "params.csv"], 4), (["--grid-count", 3], 3)])
    def test_each_plot_drawn_once(self, tmp_path, monkeypatch, source, plots):
        calls = []
        draw = augment.generate_scatterplot
        monkeypatch.setattr(augment, "generate_scatterplot", lambda *a, **kw: calls.append(a) or draw(*a, **kw))
        assert run("generate", *source, "--n", 20, "--out", tmp_path / "o") == 0
        assert len(calls) == plots == len(list((tmp_path / "o").glob("*.csv"))) - 1

    def test_params_file(self, tmp_path):
        params = tmp_path / "params.csv"
        params.write_text(
            "id,tau,mu,sigma_ux,sigma_uy,sigma_vx,sigma_vy,theta_u,theta_v\n"
            "one,0.5,3,1,1,1,1,0,0\n"
            "two,0.3,0,2,1,1,1,0,0\n"
        )
        out = tmp_path / "o"
        assert run("generate", "--params-file", params, "--n", 40, "--seed", 0, "--out", out) == 0
        assert (out / "one.csv").exists() and (out / "two.csv").exists()

    @pytest.mark.parametrize(
        "ids,message",
        [(["p0", "p1", "p0"], "row 4: id 'p0' repeats row 2"), (["p0", "manifest"], "id 'manifest' would name")]
        + [([i], f"row 2: id {i!r} is not a bare file name") for i in ("sub/p9", "../x", "a\\b", ".", "..", "")],
    )
    def test_bad_id_exit_2(self, tmp_path, capsys, ids, message):
        params = tmp_path / "params.csv"
        params.write_text(
            "id,tau,mu,sigma_ux,sigma_uy,sigma_vx,sigma_vy,theta_u,theta_v\n"
            + "".join(f"{i},0.5,3,1,1,1,1,0,0\n" for i in ids)
        )
        assert run("generate", "--params-file", params, "--n", 20, "--out", tmp_path / "o") == 2
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [params]


# kind of damage to the params CSV -> a fragment of generate's exit-2 message after the file name
GENERATE_MUTATIONS = {
    "non_numeric_cell": "could not convert string to float: 'abc'",
    "tau_outside": "tau must be in (0, 1)",
    "sigma_not_positive": "axis scales must be positive",
    "sigma_not_finite": "axis scales must be positive and finite",
    "theta_outside": "theta must lie in [-pi/2, pi/2]",
    "points_beyond_coordinate_limit": "coordinates must be finite and within",
    "missing_column": "missing required columns ['",
    "repeated_id": "repeats row",
    "id_not_bare": "is not a bare file name",
    "empty_file": "no parameter rows",
    "header_only": "no parameter rows",
}
WHOLE_FILE_DAMAGE = ("missing_column", "empty_file", "header_only")
PARAMS = DATA / "params.csv"  # id and the 8 parameters of 4 plots


def mutate_params_csv(text: str, kind: str, rng: np.random.Generator) -> tuple[str, int | None]:
    """``text`` of a params CSV with one ``kind`` of damage, or of a valid variant, at a row and cell drawn
    from ``rng``, and the line number of the damaged row (None when the damage is to the whole file)."""
    rows = [line.split(",") for line in text.splitlines()]
    if kind == "missing_column":
        drop = int(rng.integers(9))
        rows = [row[:drop] + row[drop + 1:] for row in rows]
    elif kind == "columns_shuffled":
        order = rng.permutation(9)
        rows = [[row[j] for j in order] for row in rows]
    elif kind == "header_upper_case":
        rows[0] = [cell.upper() for cell in rows[0]]
    elif kind in ("empty_file", "header_only"):
        rows = rows[:1] if kind == "header_only" else []
    if kind not in GENERATE_MUTATIONS or kind in WHOLE_FILE_DAMAGE:
        return "".join(",".join(row) + "\n" for row in rows), None
    index = int(rng.integers(2, len(rows)))  # a repeated id needs an earlier row
    row = rows[index]
    if kind == "non_numeric_cell":
        row[int(rng.integers(1, 9))] = "abc"
    elif kind == "tau_outside":
        row[1] = str(rng.choice([0.0, 1.0, -0.5, 1.5]))
    elif kind == "sigma_not_positive":
        row[int(rng.integers(3, 7))] = str(rng.choice([0.0, -0.5]))
    elif kind == "sigma_not_finite":
        row[int(rng.integers(3, 7))] = str(rng.choice(["inf", "1e400"]))
    elif kind == "theta_outside":
        # beyond the 1e-6 that a theta may lie past +-pi/2
        row[int(rng.integers(7, 9))] = str(rng.choice([-1.0, 1.0]) * (np.pi / 2 + 2e-6))
    elif kind == "points_beyond_coordinate_limit":
        row[int(rng.integers(2, 7))] = "1e300"  # mu or a sigma
    elif kind == "repeated_id":
        row[0] = rows[int(rng.integers(1, index))][0]
    elif kind == "id_not_bare":
        row[0] = str(rng.choice(["sub/p9", "../x", "a\\b", ".", "..", ""]))
    return "".join(",".join(row) + "\n" for row in rows), index + 1


class TestGenerateMutations:
    """Seeded damage to the params CSV: ``generate`` exits 2, names the file (and the damaged row) and
    writes nothing; the valid variants exit 0 with plots that ``score`` reads."""

    @pytest.mark.parametrize("kind", GENERATE_MUTATIONS)
    def test_damage_exit_2(self, tmp_path, capsys, kind):
        params = tmp_path / "params.csv"
        rng = np.random.default_rng(list(GENERATE_MUTATIONS).index(kind))
        text, line = mutate_params_csv(PARAMS.read_text(), kind, rng)
        params.write_text(text)
        code = run("generate", "--params-file", params, "--n", 50, "--out", tmp_path / "plots")
        err = capsys.readouterr().err
        assert code == 2, err
        where = f"{params}: " if line is None else f"{params}: row {line}: "
        if kind == "points_beyond_coordinate_limit":
            where = f"{params}: id {text.splitlines()[line - 1].split(',')[0]!r}: "
        assert where in err and GENERATE_MUTATIONS[kind] in err, err
        assert sorted(tmp_path.iterdir()) == [params]

    @pytest.mark.parametrize("kind", ["unchanged", "columns_shuffled", "header_upper_case"])
    def test_valid_variant_exit_0(self, tmp_path, kind):
        params = tmp_path / "params.csv"
        params.write_text(mutate_params_csv(PARAMS.read_text(), kind, np.random.default_rng(0))[0])
        plots = tmp_path / "plots"
        assert run("generate", "--params-file", params, "--n", 50, "--seed", 2, "--out", plots) == 0
        with open(plots / "manifest.csv", newline="") as fh:
            ids = [row["id"] for row in csv.DictReader(fh)]
        assert ids == ["p0", "p1", "p2", "p3"]
        model = tmp_path / "model.json"
        assert run("train", GOLDEN_CORPUS, "--n-trees", 1, "--out", model) == 0
        scores = tmp_path / "scores.csv"
        files = [plots / f"{i}.csv" for i in ids]
        assert run("score", *files, "--model", model, "--k-max", 2, "--n-restarts", 1, "--out", scores) == 0
        assert [plot_id for plot_id, _ in vqm.read_scores_csv(scores)] == ids


class TestCorpus:
    def test_builds_corpus_and_report(self, tmp_path, bench_csv):
        out = tmp_path / "corpus.csv"
        assert run("corpus", bench_csv, "--out", out) == 0
        report = json.loads(Path(str(out) + ".report.json").read_text())
        assert report["input_rows"] == 25
        assert report["unique_records"] <= 25
        assert report["corpus_size"] >= report["unique_records"]
        lines = out.read_text().strip().splitlines()
        assert len(lines) == report["corpus_size"] + 1

    def test_empty_input_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "corpus.csv"
        assert run("corpus", empty, "--out", out) == 2
        assert "needs records of both labels, has 0 with label 0 and 0 with label 1" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [empty]

    def test_one_label_exit_2(self, tmp_path, capsys):
        judged = tmp_path / "judged.csv"
        rows = [bench_row("a", votes=[1, 1, 0]), bench_row("b", mu=6.0, votes=[1, 0, 1])]
        write_bench(judged, rows, n_votes=3)
        out = tmp_path / "corpus.csv"
        assert run("corpus", judged, "--out", out) == 2
        assert "needs records of both labels, has 0 with label 0" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [judged]

    def test_missing_file_exit_2(self, tmp_path):
        assert run("corpus", tmp_path / "nope.csv", "--out", tmp_path / "c.csv") == 2

    def test_comma_in_origin_id_survives(self, tmp_path):
        judged = tmp_path / "judged.csv"
        rows = [bench_row('"r,1"', votes=[1, 0, 1]), bench_row("r2", mu=6.0, votes=[0, 0, 1])]
        write_bench(judged, rows, n_votes=3)
        out = tmp_path / "corpus.csv"
        assert run("corpus", judged, "--out", out) == 0
        assert set(read_corpus_csv(out).origin_ids) == {"r,1", "r2"}

    @pytest.mark.parametrize("tau", ["0.9999999999999999", "1e-17"])
    def test_tau_that_rounds_to_1_exit_2(self, tmp_path, capsys, tau):
        # the corpus CSV holds 9 significant digits: tau or its swap's 1 - tau is written as 1
        judged = tmp_path / "judged.csv"
        judged.write_text((DATA / "judged.csv").read_text().replace("\nr01,0.2,", f"\nr01,{tau},", 1))
        assert run("corpus", judged, "--out", tmp_path / "corpus.csv") == 2
        assert f"{judged}: record 'r01': tau must be in (0, 1), got 1.0" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [judged]

    def test_records_equal_as_written_are_deduplicated(self, tmp_path):
        # r02b differs from r02 in theta_u below the 9 significant digits the corpus CSV holds
        text = (DATA / "judged.csv").read_text()
        r02 = next(line for line in text.splitlines() if line.startswith("r02,"))
        cells = r02.split(",")
        assert cells[7] == "1.17809725"
        cells[0], cells[7] = "r02b", "1.178097254"
        judged = tmp_path / "judged.csv"
        judged.write_text(text + ",".join(cells) + "\n")
        assert run("corpus", judged, "--out", tmp_path / "corpus.csv") == 0
        report = json.loads((tmp_path / "corpus.csv.report.json").read_text())
        assert (report["input_rows"], report["unique_records"]) == (41, 40)
        assert ["r02b", "r02"] in report["ingest_duplicates"]
        assert (tmp_path / "corpus.csv").read_bytes() == GOLDEN_CORPUS.read_bytes()
        assert run("train", tmp_path / "corpus.csv", "--n-trees", 1, "--out", tmp_path / "m.json") == 0


# kind of damage to the judged CSV -> a fragment of corpus's exit-2 message after the file name
CORPUS_MUTATIONS = {
    "ragged_row": "cells, got",
    "non_numeric_parameter": "could not convert string to float: 'abc'",
    "tau_at_bound": "tau must be in (0, 1)",
    "sigma_not_positive": "axis scales must be positive",
    "theta_outside": "theta must lie in [-pi/2, pi/2]",
    "vote_2": "votes must be 0 or 1, got '2'",
    "blank_vote": "votes must be 0 or 1, got ''",
    "missing_id_column": "missing required columns ['id']",
    "missing_parameter_column": "missing required columns ['",
    "no_vote_columns": "no judgment columns (j1..jR) found",
    "repeated_id": "repeats row",
    "empty_file": "needs records of both labels, has 0 with label 0 and 0 with label 1",
    "header_only": "needs records of both labels, has 0 with label 0 and 0 with label 1",
    "one_label": "needs records of both labels",
}
ROW_MUTATIONS = (
    "ragged_row", "non_numeric_parameter", "tau_at_bound", "sigma_not_positive", "theta_outside",
    "vote_2", "blank_vote", "repeated_id",
)
JUDGED = DATA / "judged.csv"  # 40 records: id, the 8 parameters, alpha, n and votes j1..j7


def mutate_judged_csv(text: str, kind: str, rng: np.random.Generator) -> tuple[str, int | None]:
    """``text`` of a judged CSV with one ``kind`` of damage, or of a valid variant, at a row and cell
    drawn from ``rng``, and the line number of the damaged row (None when the damage is to the whole file)."""
    rows = [line.split(",") for line in text.splitlines()]
    votes = range(rows[0].index("j1"), len(rows[0]))
    drop = {
        "missing_id_column": [0],
        "missing_parameter_column": [int(rng.integers(1, 9))],
        "no_vote_columns": list(votes),
        "alpha_n_absent": [rows[0].index("alpha"), rows[0].index("n")],
    }.get(kind, [])
    rows = [[cell for j, cell in enumerate(row) if j not in drop] for row in rows]
    if kind == "empty_file":
        rows = []
    elif kind == "header_only":
        rows = rows[:1]
    elif kind == "unknown_column":
        rows = [rows[0] + ["Mystery"]] + [row + [str(rng.integers(100))] for row in rows[1:]]
    elif kind == "one_label":
        vote = str(rng.integers(2))
        for row in rows[1:]:
            row[votes.start:] = [vote] * len(votes)
    if kind not in ROW_MUTATIONS:
        return "".join(",".join(row) + "\n" for row in rows), None
    index = int(rng.integers(2, len(rows)))
    row = rows[index]
    if kind == "ragged_row":
        row[:] = row[:-1] if rng.integers(2) else row + ["1"]
    elif kind == "non_numeric_parameter":
        row[int(rng.integers(1, 9))] = "abc"
    elif kind == "tau_at_bound":
        row[1] = str(rng.integers(2))
    elif kind == "sigma_not_positive":
        row[int(rng.integers(3, 7))] = str(rng.choice([0.0, -0.5]))
    elif kind == "theta_outside":
        # beyond the 1e-6 that a theta may lie past +-pi/2
        row[int(rng.integers(7, 9))] = str(rng.choice([-1.0, 1.0]) * (np.pi / 2 + 2e-6))
    elif kind in ("vote_2", "blank_vote"):
        row[int(rng.choice(votes))] = "2" if kind == "vote_2" else ""
    elif kind == "repeated_id":
        row[0] = rows[int(rng.integers(1, index))][0]
    return "".join(",".join(row) + "\n" for row in rows), index + 1


class TestCorpusMutations:
    """Seeded damage to the judged CSV: ``corpus`` exits 2, names the file (and the damaged row) and
    writes no corpus, report or sidecar; the valid variants exit 0 with a corpus ``train`` reads."""

    @pytest.mark.parametrize("kind", CORPUS_MUTATIONS)
    def test_damage_exit_2(self, tmp_path, capsys, kind):
        judged = tmp_path / "judged.csv"
        rng = np.random.default_rng(list(CORPUS_MUTATIONS).index(kind))
        text, line = mutate_judged_csv(JUDGED.read_text(), kind, rng)
        judged.write_text(text)
        code = run("corpus", judged, "--out", tmp_path / "corpus.csv")
        err = capsys.readouterr().err
        assert code == 2, err
        where = f"{judged}: " if line is None else f"{judged}: row {line}: "
        assert where in err and CORPUS_MUTATIONS[kind] in err
        assert sorted(tmp_path.iterdir()) == [judged]

    @pytest.mark.parametrize("kind", ["alpha_n_present", "alpha_n_absent", "unknown_column"])
    def test_valid_variant_exit_0(self, tmp_path, capsys, kind):
        judged = tmp_path / "judged.csv"
        text, _ = mutate_judged_csv(JUDGED.read_text(), kind, np.random.default_rng(0))
        judged.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("corpus", judged, "--out", tmp_path / "corpus.csv") == 0
        warned = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert warned == ([f"warning: {judged}: ignoring unknown column 'Mystery'"] if kind == "unknown_column" else [])
        assert (tmp_path / "corpus.csv").read_bytes() == GOLDEN_CORPUS.read_bytes()
        assert run("train", tmp_path / "corpus.csv", "--n-trees", 1, "--out", tmp_path / "m.json") == 0


@pytest.fixture()
def small_corpus(tmp_path, bench_csv):
    out = tmp_path / "corpus.csv"
    assert run("corpus", bench_csv, "--out", out) == 0
    return out


class TestTrain:
    def test_treebag_outputs(self, tmp_path, small_corpus):
        model = tmp_path / "model.json"
        code = run("train", small_corpus, "--n-trees", 5, "--seed", 2, "--out", model)
        assert code == 0
        assert model.exists()
        metrics = json.loads(model.with_suffix(".metrics.json").read_text())
        assert metrics["method"] == "treebag"
        assert -1.0 <= metrics["test_mcc"] <= 1.0
        assert {"tp", "tn", "fp", "fn"} == set(metrics["confusion"])

    @pytest.mark.parametrize("method", ["knn", "nb"])
    def test_baseline_metrics(self, tmp_path, small_corpus, method):
        model = tmp_path / f"{method}.json"
        assert run("train", small_corpus, "--method", method, "--seed", 2, "--out", model) == 0
        metrics = json.loads(model.with_suffix(".metrics.json").read_text())
        assert metrics["method"] == method
        assert not model.exists()  # baselines emit metrics only

    def test_cross_validation_flag(self, tmp_path, small_corpus):
        model = tmp_path / "model.json"
        code = run(
            "train", small_corpus, "--n-trees", 3, "--cv", "--cv-folds", 3,
            "--cv-repeats", 2, "--seed", 2, "--out", model,
        )
        assert code == 0
        metrics = json.loads(model.with_suffix(".metrics.json").read_text())
        assert len(metrics["cv_mcc_values"]) == 6
        assert -1.0 <= metrics["cv_mcc_mean"] <= 1.0

    @pytest.mark.parametrize("method", ["knn", "nb"])
    def test_cv_with_baseline_exit_2(self, tmp_path, small_corpus, capsys, method):
        out = tmp_path / f"{method}.json"
        assert run("train", small_corpus, "--method", method, "--cv", "--cv-folds", 3, "--out", out) == 2
        assert "--cv applies only to --method treebag" in capsys.readouterr().err
        assert not out.with_suffix(".metrics.json").exists()

    def test_extra_cell_in_corpus_exit_2(self, tmp_path, small_corpus, capsys):
        lines = small_corpus.read_text().splitlines()
        lines[2] += ",extra"
        small_corpus.write_text("\n".join(lines) + "\n")
        assert run("train", small_corpus, "--out", tmp_path / "m.json") == 2
        assert "row 3: expected 10 cells, got 11" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", ["empty", "label 1 only"])
    def test_corpus_without_both_labels_exit_2(self, tmp_path, capsys, keep):
        corpus = tmp_path / "corpus.csv"
        lines = GOLDEN_CORPUS.read_text().splitlines()
        keep_rows = [] if keep == "empty" else [l for l in lines[1:] if l.split(",")[8] == "1"]
        corpus.write_text("\n".join([lines[0], *keep_rows]) + "\n")
        model = tmp_path / "m.json"
        assert run("train", corpus, "--out", model) == 2
        assert "needs records of both labels" in capsys.readouterr().err
        assert list(tmp_path.glob("m.*")) == []

    def test_test_fraction_leaving_no_test_set_exit_2(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run("train", GOLDEN_CORPUS, "--test-fraction", 0.001, "--out", model) == 2
        assert "test_fraction 0.001 of 274 records leaves the test set empty" in capsys.readouterr().err
        assert list(tmp_path.glob("m.*")) == []

    def test_cv_folds_above_smaller_label_exit_2(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run("train", GOLDEN_CORPUS, "--cv", "--cv-folds", 137, "--n-trees", 1, "--out", model) == 2
        assert "cv_folds 137 exceeds the 136 records of the smaller label" in capsys.readouterr().err
        assert list(tmp_path.glob("m.*")) == []

    def test_knn_k_below_one_exit_2(self, tmp_path, capsys):
        model = tmp_path / "knn.json"
        assert run("train", GOLDEN_CORPUS, "--method", "knn", "--knn-k", 0, "--out", model) == 2
        assert "knn_k must be >= 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.glob("knn.*")) == []

    def test_missing_corpus_exit_2(self, tmp_path):
        assert run("train", tmp_path / "nope.csv", "--out", tmp_path / "m.json") == 2

    def test_config_file_and_flag_override(self, tmp_path, small_corpus):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# training config\nn_trees=3\nseed=5\n")
        model = tmp_path / "model.json"
        assert run("train", small_corpus, "--config", cfg, "--seed", 6, "--out", model) == 0
        sidecar = Path(str(model) + ".config.txt").read_text()
        assert "n_trees=3" in sidecar  # from file
        assert "seed=6" in sidecar  # flag wins

    def test_cv_false_in_config_file(self, tmp_path, small_corpus):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cv=false\n")
        model = tmp_path / "model.json"
        assert run("train", small_corpus, "--config", cfg, "--n-trees", 3, "--out", model) == 0
        assert "cv=False" in Path(str(model) + ".config.txt").read_text().splitlines()
        assert "cv_mcc_mean" not in json.loads(model.with_suffix(".metrics.json").read_text())

    def test_preprocess_none(self, tmp_path, small_corpus):
        model = tmp_path / "model.json"
        assert run("train", small_corpus, "--preprocess", "none", "--n-trees", 3, "--out", model) == 0
        preprocess = json.loads(model.read_text())["preprocess"]
        assert preprocess["steps"] == [] and preprocess["spatial_sign"] is False

    def test_unknown_config_key_exit_2(self, tmp_path, small_corpus):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery=1\n")
        assert run("train", small_corpus, "--config", cfg, "--out", tmp_path / "m.json") == 2


# kind of damage to the corpus CSV -> a fragment of train's exit-2 message after the file name
TRAIN_MUTATIONS = {
    "ragged_row": "cells, got",
    "non_numeric_cell": "'abc'",
    "label_2": "label must be 0 or 1, got 2",
    "nan_feature": "nan",
    "tau_outside": "tau must be in (0, 1)",
    "unaligned_scale": "aligned features must have max scale 1",
    "missing_header": "expected corpus columns",
    "header_only": "needs records of both labels",
    "repeated_record": "duplicate feature tuple",
    "theta_outside": "must be in [-pi/2, pi/2]",
    "sigma_not_positive": "must be > 0",
    "mu_negative": "mu must be finite and >= 0",
}


def mutate_corpus_csv(text: str, kind: str, rng: np.random.Generator) -> tuple[str, int | None]:
    """``text`` of a corpus CSV with one ``kind`` of damage, at a row and cell drawn from ``rng``,
    and the line number of the damaged row (None when the damage is to the whole file)."""
    header, *lines = text.splitlines()
    if kind == "missing_header":
        return "\n".join(lines) + "\n", None
    if kind == "header_only":
        return header + "\n", None
    rows = [line.split(",") for line in lines]
    index = int(rng.integers(len(rows)))
    row = rows[index]
    if kind == "ragged_row":
        row[:] = row[:-1] if rng.integers(2) else row + ["r9"]
    elif kind == "non_numeric_cell":
        row[int(rng.integers(9))] = "abc"  # a feature or the label
    elif kind == "label_2":
        row[8] = "2"
    elif kind == "nan_feature":
        row[int(rng.integers(8))] = "nan"
    elif kind == "tau_outside":
        row[0] = str(rng.choice([0.0, 1.0, -0.25, 1.5]))
    elif kind == "unaligned_scale":
        factor = rng.choice([0.5, 2.0])
        row[1:6] = [str(float(c) * factor) for c in row[1:6]]
    elif kind == "repeated_record":
        rows.append(row[:9] + ["r9"])
        index = len(rows) - 1
    elif kind == "theta_outside":
        # beyond the 1e-6 that a theta may lie past +-pi/2
        row[int(rng.integers(6, 8))] = str(rng.choice([-1.0, 1.0]) * (np.pi / 2 + 2e-6))
    elif kind == "sigma_not_positive":
        row[int(rng.integers(2, 6))] = str(rng.choice([0.0, -0.5]))
    elif kind == "mu_negative":
        row[1] = "-0.25"
    return "\n".join([header, *map(",".join, rows)]) + "\n", index + 2


class TestTrainMutations:
    """Seeded damage to the golden corpus: ``train``, with and without ``--cv``, exits 2, names the
    file and the damaged row, and writes no model, metrics or sidecar."""

    @pytest.mark.parametrize("cv", [False, True], ids=["train", "cv"])
    @pytest.mark.parametrize("kind", TRAIN_MUTATIONS)
    def test_damage_exit_2(self, tmp_path, capsys, kind, cv):
        corpus = tmp_path / "corpus.csv"
        rng = np.random.default_rng(list(TRAIN_MUTATIONS).index(kind))
        text, line = mutate_corpus_csv(GOLDEN_CORPUS.read_text(), kind, rng)
        corpus.write_text(text)
        flags = ["--cv", "--cv-folds", 2, "--cv-repeats", 1] if cv else []
        code = run("train", corpus, "--n-trees", 1, *flags, "--out", tmp_path / "m.json")
        err = capsys.readouterr().err
        assert code == 2, err
        where = f"{corpus}: " if line is None else f"{corpus}: row {line}: "
        assert where in err and TRAIN_MUTATIONS[kind] in err
        assert list(tmp_path.glob("m.*")) == []


@pytest.fixture()
def trained_model_file(tmp_path, small_corpus):
    model = tmp_path / "model.json"
    assert run("train", small_corpus, "--n-trees", 7, "--seed", 2, "--out", model) == 0
    return model


class TestScoreRank:
    def make_plots(self, tmp_path, n=3):
        out = tmp_path / "plots"
        assert run("generate", "--grid-count", n, "--n", 120, "--seed", 8, "--out", out) == 0
        return sorted(out.glob("grid*.csv"))

    def test_score_and_rank(self, tmp_path, trained_model_file):
        plots = self.make_plots(tmp_path)
        scores = tmp_path / "scores.csv"
        code = run(
            "score", *plots, "--model", trained_model_file,
            "--k-max", 3, "--n-restarts", 2, "--seed", 1, "--out", scores,
        )
        assert code == 0
        lines = scores.read_text().strip().splitlines()
        assert lines[0] == "id,k_star,m,scalar_score"
        assert len(lines) == len(plots) + 1

        ranking = tmp_path / "ranking.csv"
        assert run("rank", scores, "--out", ranking) == 0
        rlines = ranking.read_text().strip().splitlines()
        assert rlines[0] == "rank,id,k_star,m,scalar_score"
        assert len(rlines) == len(plots) + 1

        ascending = tmp_path / "asc.csv"
        assert run("rank", scores, "--ascending", "--out", ascending) == 0
        body = [l.split(",")[1] for l in rlines[1:]]
        asc_body = [l.split(",")[1] for l in ascending.read_text().strip().splitlines()[1:]]
        scalars = {l.split(",")[1]: float(l.split(",")[4]) for l in rlines[1:]}
        assert sorted(body, key=lambda i: -scalars[i]) == body
        assert sorted(asc_body, key=lambda i: scalars[i]) == asc_body

    def test_capped_fits_warn_on_stderr(self, tmp_path, trained_model_file, benchmark_plots, capsys):
        # the six seed-0 score-batch plots: with 3 EM iterations every K >= 2 stops at the cap
        scores = tmp_path / "scores.csv"
        assert run("score", *benchmark_plots["batch"], "--model", trained_model_file, "--max-iterations", 3,
                   "--out", scores) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(scores.read_text().splitlines()) == 7
        assert {line.split(": ")[1] for line in err} == {path.stem for path in benchmark_plots["batch"]}
        assert all(re.fullmatch(r"warning: \w+: k=([2-9]|10): the kept restart stopped at the cap of 3 EM iterations",
                                line) for line in err)

    def test_default_run_prints_no_warning(self, tmp_path, trained_model_file, benchmark_plots, capsys):
        plots = [*benchmark_plots["batch"], *benchmark_plots["pixel"]]
        assert run("score", *plots, "--model", trained_model_file, "--out", tmp_path / "scores.csv") == 0
        assert capsys.readouterr().err == ""

    def test_degenerate_k_warns_on_stderr(self, tmp_path, trained_model_file, capsys):
        sites = tmp_path / "sites.csv"
        sites.write_text("x,y\n" + "0,0\n" * 10 + "4,0\n" * 10 + "1,3\n" * 10)
        assert run("score", sites, "--model", trained_model_file, "--k-max", 3, "--regularization", 0,
                   "--out", tmp_path / "scores.csv") == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: sites: k={k} skipped: all 5 EM restarts failed: covariance collapsed to a singular matrix"
            for k in (2, 3)]

    def test_unfittable_plot_exit_1_names_it(self, tmp_path, trained_model_file, capsys):
        same = tmp_path / "same.csv"
        same.write_text("x,y\n1,2\n1,2\n1,2\n")
        scores = tmp_path / "scores.csv"
        assert run("score", P0, same, "--model", trained_model_file, "--k-max", 2, "--regularization", 0,
                   "--out", scores) == 1
        assert capsys.readouterr().err == f"internal error: {same}: no component count could be fitted\n"
        assert not scores.exists() and not Path(str(scores) + ".config.txt").exists()

    def test_batch_writes_what_one_plot_at_a_time_writes(self, tmp_path, trained_model_file, benchmark_plots,
                                                          monkeypatch, capsys):
        # the seed-0 score-batch plots (n = 500, fitted as one block) among plots of other n; with 3 EM
        # iterations every plot warns
        batch = benchmark_plots["batch"]
        plots = [batch[0], P0, *batch[1:4], benchmark_plots["pixel"][0], *batch[4:]]
        flags = ["--model", trained_model_file, "--max-iterations", 3, "--k-max", 4]
        batches, select_models = [], gmm.select_models
        monkeypatch.setattr(gmm, "select_models", lambda plots, config: batches.append(len(plots))
                            or select_models(plots, config))
        assert run("score", *plots, *flags, "--out", tmp_path / "scores.csv") == 0
        err = capsys.readouterr().err
        rows, alone_err = [], []
        for i, plot in enumerate(plots):
            assert run("score", plot, *flags, "--out", tmp_path / f"alone{i}.csv") == 0
            header, row = (tmp_path / f"alone{i}.csv").read_bytes().splitlines(keepends=True)
            rows.append(row)
            alone_err.append(capsys.readouterr().err)
        assert (tmp_path / "scores.csv").read_bytes() == header + b"".join(rows)
        assert err == "".join(alone_err) and len(err.splitlines()) >= len(plots)
        assert batches == [len(plots)]  # one plot alone is fitted by select_model

    def test_unfittable_plots_in_a_batch_exit_1_naming_the_first(self, tmp_path, trained_model_file, capsys):
        same, same_again, q0 = tmp_path / "same.csv", tmp_path / "same_again.csv", tmp_path / "q0.csv"
        same.write_text("x,y\n1,2\n1,2\n1,2\n")
        same_again.write_text("x,y\n5,5\n5,5\n")
        q0.write_bytes(P0.read_bytes())
        scores = tmp_path / "scores.csv"
        assert run("score", P0, same, q0, same_again, "--model", trained_model_file, "--k-max", 2,
                   "--regularization", 0, "--out", scores) == 1
        assert capsys.readouterr().err == f"internal error: {same}: no component count could be fitted\n"
        assert not scores.exists() and not Path(str(scores) + ".config.txt").exists()

    def test_comma_in_plot_id_round_trips_to_rank(self, tmp_path, trained_model_file):
        plot = tmp_path / "a,b.csv"
        self.make_plots(tmp_path, n=1)[0].rename(plot)
        scores = tmp_path / "scores.csv"
        code = run(
            "score", plot, "--model", trained_model_file,
            "--k-max", 2, "--n-restarts", 1, "--seed", 1, "--out", scores,
        )
        assert code == 0
        ranking = tmp_path / "ranking.csv"
        assert run("rank", scores, "--out", ranking) == 0
        with open(ranking, newline="") as fh:
            assert [row[1] for row in csv.reader(fh)] == ["id", "a,b"]

    def test_non_numeric_cell_exit_2(self, tmp_path, trained_model_file, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1.0,2.0\n3.0,oops\n")
        code = run("score", bad, "--model", trained_model_file, "--out", tmp_path / "s.csv")
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_bad_last_file_fails_before_any_fit(self, tmp_path, trained_model_file, monkeypatch, capsys):
        fits = []
        real = vqm.select_model

        def counting(*args):
            fits.append(args)
            return real(*args)

        monkeypatch.setattr(vqm, "select_model", counting)
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1.0,2.0\n3.0,oops\n")
        code = run("score", *self.make_plots(tmp_path, n=2), bad, "--model", trained_model_file,
                   "--out", tmp_path / "s.csv")
        assert code == 2
        assert "row 3" in capsys.readouterr().err
        assert fits == []

    def test_one_point_plot_fails_before_any_fit(self, tmp_path, trained_model_file, monkeypatch, capsys):
        fits = []
        monkeypatch.setattr(vqm, "select_model", lambda *args: fits.append(args))
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("x,y\n1.0,2.0\n")
        code = run("score", *self.make_plots(tmp_path, n=2), tiny, "--model", trained_model_file,
                   "--out", tmp_path / "s.csv")
        assert code == 2
        assert "tiny.csv: model selection needs at least 2 points, got 1" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "s.csv").exists()

    def test_duplicate_plot_id_fails_before_any_fit(self, tmp_path, trained_model_file, monkeypatch, capsys):
        fits = []
        monkeypatch.setattr(vqm, "select_model", lambda *args: fits.append(args))
        first, second = tmp_path / "a" / "p0.csv", tmp_path / "b" / "p0.csv"
        for path, plot in zip((first, second), self.make_plots(tmp_path, n=2)):
            path.parent.mkdir()
            plot.rename(path)
        code = run("score", first, second, "--model", trained_model_file, "--out", tmp_path / "s.csv")
        assert code == 2
        assert f"{first} and {second} both give plot id 'p0'" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "s.csv").exists()

    def test_rank_duplicate_id_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,k_star,m,scalar_score\np0,2,1,0\np1,3,2,0\np0,1,1,0\n")
        assert run("rank", scores, "--out", tmp_path / "ranking.csv") == 2
        assert "row 4: plot id 'p0' repeats row 2" in capsys.readouterr().err
        assert not (tmp_path / "ranking.csv").exists()

    @pytest.mark.parametrize("text", ["", "\n", "id,k_star,m,scalar_score\n"])
    def test_rank_without_score_rows_exit_2(self, tmp_path, capsys, text):
        scores, ranking = tmp_path / "scores.csv", tmp_path / "ranking.csv"
        scores.write_text(text)
        assert run("rank", scores, "--out", ranking) == 2
        assert f"{scores}: no score rows" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [scores]

    @pytest.mark.parametrize("text,code", [("\n\nx,y\n1,2\n3,4\n", 0), ("1,2\nx,y\n3,4\n", 2)])
    def test_header_only_as_first_non_blank_row(self, tmp_path, trained_model_file, text, code):
        plot, out = tmp_path / "p.csv", tmp_path / "s.csv"
        plot.write_text(text)
        assert run("score", plot, "--model", trained_model_file, "--k-max", 1, "--n-restarts", 1, "--out", out) == code
        assert out.exists() == (code == 0)

    def test_empty_cell_exit_2(self, tmp_path, trained_model_file, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1.0,2.0\n1,,2\n")
        code = run("score", bad, "--model", trained_model_file, "--out", tmp_path / "s.csv")
        assert code == 2
        assert "row 3: empty cell" in capsys.readouterr().err

    def test_out_of_range_tree_feature_exit_2(self, tmp_path, trained_model_file, capsys):
        payload = json.loads(trained_model_file.read_bytes())
        root = payload["trees"][0]["feature"]
        assert root[0] >= 0
        root[0] = len(payload["preprocess"]["pca_basis"][0])  # one past the last feature
        trained_model_file.write_text(json.dumps(payload))
        code = run("score", *self.make_plots(tmp_path, n=1), "--model", trained_model_file,
                   "--k-max", 2, "--n-restarts", 1, "--out", tmp_path / "s.csv")
        assert code == 2
        assert "corrupt model payload" in capsys.readouterr().err

    def test_misshapen_preprocess_exit_2(self, tmp_path, trained_model_file, capsys):
        payload = json.loads(trained_model_file.read_bytes())
        payload["preprocess"]["pca_basis"] = payload["preprocess"]["pca_basis"][0]  # 1-D
        trained_model_file.write_text(json.dumps(payload))
        code = run("score", *self.make_plots(tmp_path, n=1), "--model", trained_model_file,
                   "--k-max", 2, "--n-restarts", 1, "--out", tmp_path / "s.csv")
        assert code == 2
        assert "pca_basis" in capsys.readouterr().err


TOO_LARGE = "coordinates must be finite and within +-2.89e+76 to be fitted"
# kind of damage: the exit codes score may give, and what an exit-2 message says after the file name
MUTATIONS = {
    "dropped_cell": ((2,), "expected 2 columns, got 1"),
    "duplicated_cell": ((2,), "expected 2 columns, got 3"),
    "non_numeric_cell": ((2,), "non-numeric cell"),
    "half_numeric_header": ((2,), "row 1: non-numeric cell in ['1', 'abc']"),  # a header has no numeric cell
    "nan": ((2,), TOO_LARGE),
    "inf": ((2,), TOO_LARGE),
    "-inf": ((2,), TOO_LARGE),
    "1e308": ((2,), TOO_LARGE),
    "-1e308": ((2,), TOO_LARGE),
    "1e200": ((2,), TOO_LARGE),
    "truncated_last_row": ((0, 2), ""),  # a cut inside a number can leave a valid row
    "empty_file": ((2,), "no data rows"),
    "header_only": ((2,), "no data rows"),
}


def mutate_points_csv(text: str, kind: str, rng: np.random.Generator) -> str:
    """``text`` of an x,y CSV with one ``kind`` of damage, at a row and column drawn from ``rng``."""
    header, *lines = text.splitlines()
    rows = [line.split(",") for line in lines]
    r, c = int(rng.integers(len(rows))), int(rng.integers(2))
    if kind == "dropped_cell":
        del rows[r][c]
    elif kind == "duplicated_cell":
        rows[r].insert(c, rows[r][c])
    elif kind == "non_numeric_cell":
        rows[r][c] = "abc"
    elif kind == "half_numeric_header":
        header = "1,abc"
    elif kind == "truncated_last_row":
        last = ",".join(rows.pop())
        return "\n".join([header, *map(",".join, rows), last[: int(rng.integers(1, len(last)))]])
    elif kind == "empty_file":
        return ""
    elif kind == "header_only":
        return header + "\n"
    else:
        rows[r][c] = kind
    return "\n".join([header, *map(",".join, rows)]) + "\n"


class TestScoreMutations:
    """Seeded damage to the golden p0.csv: ``score`` gives the kind's exit code, an exit 2 names the
    file and comes before any fit with no output, and ``rank`` reads what an exit 0 wrote."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.json"
        assert run("train", GOLDEN_CORPUS, "--n-trees", 1, "--out", path) == 0
        return path

    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_score_exit_code(self, tmp_path, model, monkeypatch, capsys, kind):
        codes, message = MUTATIONS[kind]
        plot = tmp_path / "p0.csv"
        plot.write_text(mutate_points_csv(P0.read_text(), kind, np.random.default_rng(list(MUTATIONS).index(kind))))
        fits = []
        real = vqm.select_model
        monkeypatch.setattr(vqm, "select_model", lambda *args: fits.append(args) or real(*args))
        scores = tmp_path / "scores.csv"
        code = run("score", plot, "--model", model, "--k-max", 3, "--out", scores)
        err = capsys.readouterr().err
        assert code in codes, err
        if code == 2:
            assert f"{plot}: " in err and message in err
            assert fits == []
            assert not scores.exists()
        else:
            assert run("rank", scores, "--out", tmp_path / "ranking.csv") == 0

    @pytest.mark.parametrize("key", ["regularization", "em_tolerance"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_em_setting_exit_2(self, tmp_path, model, monkeypatch, capsys, key, value):
        fits = []
        real = vqm.select_model
        monkeypatch.setattr(vqm, "select_model", lambda *args: fits.append(args) or real(*args))
        scores = tmp_path / "scores.csv"
        flag = "--" + key.replace("_", "-")
        assert run("score", P0, "--model", model, "--k-max", 3, flag, value, "--out", scores) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert fits == []
        assert not scores.exists()


# kind of damage to a trained model.json -> a fragment of score's exit-2 message after the file name
MODEL_MUTATIONS = {
    "truncated": "corrupt model payload",
    "empty_file": "empty model payload",
    "not_an_object": "not a merging-model payload",
    "trees_not_a_list": "corrupt model payload",
    "no_trees": "model needs at least one tree",
    "tree_missing_array": "corrupt model payload: 'threshold'",
    "threshold_string": "tree thresholds must be finite numbers",
    "threshold_nan": "tree thresholds must be finite numbers",
    "threshold_1e999": "tree thresholds must be finite numbers",
    "feature_fractional": "tree features, children and leaf classes must be integers",
    "child_nested": "corrupt model payload",
    "preprocess_not_an_object": "corrupt model payload",
    "input_dim_fractional": "preprocess input_dim must be a positive integer, got 8.5",
    "means_string": "preprocess means must hold only finite numbers",
    "means_infinity": "preprocess means must hold only finite numbers",
    "scale_zero": "preprocess scales must be positive",
    "boxcox_lambda_nan": "preprocess boxcox_lambdas must be finite numbers or null",
    "pca_basis_nan": "preprocess pca_basis must hold only finite numbers",
    "pca_basis_ragged": "corrupt model payload",
    "node_array_boolean": "tree features, children and leaf classes must be integers",
}


def mutate_model_json(data: bytes, kind: str, rng: np.random.Generator) -> bytes:
    """``data`` of a trained model.json with one ``kind`` of damage, at a tree, node or feature drawn from ``rng``."""
    if kind == "truncated":
        return data[: int(rng.integers(1, len(data)))]
    if kind == "empty_file":
        return b""
    payload = json.loads(data)
    pre, tree = payload["preprocess"], payload["trees"][int(rng.integers(len(payload["trees"])))]
    node, j = int(rng.integers(len(tree["feature"]))), int(rng.integers(pre["input_dim"]))
    inner = [i for i, f in enumerate(tree["feature"]) if f >= 0]
    if kind == "not_an_object":
        payload = [payload]
    elif kind == "trees_not_a_list":
        payload["trees"] = len(payload["trees"])
    elif kind == "no_trees":
        payload["trees"] = []
    elif kind == "tree_missing_array":
        del tree["threshold"]
    elif kind == "threshold_string":
        tree["threshold"][node] = str(tree["threshold"][node])
    elif kind in ("threshold_nan", "threshold_1e999"):
        tree["threshold"][node] = float("nan") if kind == "threshold_nan" else 123456.75
    elif kind == "feature_fractional":
        tree["feature"][inner[int(rng.integers(len(inner)))]] += 0.7
    elif kind == "child_nested":
        i = inner[int(rng.integers(len(inner)))]
        tree["left"][i] = [tree["left"][i]]
    elif kind == "preprocess_not_an_object":
        payload["preprocess"] = list(pre)
    elif kind == "input_dim_fractional":
        pre["input_dim"] += 0.5
    elif kind in ("means_string", "means_infinity"):
        pre["means"][j] = str(pre["means"][j]) if kind == "means_string" else float("inf")
    elif kind == "scale_zero":
        pre["scales"][j] = 0.0
    elif kind == "boxcox_lambda_nan":
        pre["boxcox_lambdas"][j] = float("nan")
    elif kind == "pca_basis_nan":
        pre["pca_basis"][j][int(rng.integers(len(pre["pca_basis"][j])))] = float("nan")
    elif kind == "pca_basis_ragged":
        pre["pca_basis"][j] = pre["pca_basis"][j][:-1]
    elif kind == "node_array_boolean":  # JSON true or false among the integers
        name = str(rng.choice(["feature", "left", "right", "leaf_class"]))
        tree[name][node] = bool(tree[name][node])
    return json.dumps(payload, indent=1).replace("123456.75", "1e999").encode()


class TestModelMutations:
    """Seeded damage to a trained model.json: ``score`` exits 2 naming the file before any fit and
    writes no scores or sidecar; the intact model exits 0 with scores ``rank`` reads."""

    @pytest.fixture(scope="class")
    def model_bytes(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.json"
        assert run("train", GOLDEN_CORPUS, "--n-trees", 3, "--out", path) == 0
        return path.read_bytes()

    def score(self, tmp_path, monkeypatch, data):
        model = tmp_path / "model.json"
        model.write_bytes(data)
        fits = []
        real = vqm.select_model
        monkeypatch.setattr(vqm, "select_model", lambda *args: fits.append(args) or real(*args))
        code = run("score", P0, "--model", model, "--k-max", 2, "--n-restarts", 1, "--out", tmp_path / "s.csv")
        return code, model, fits

    @pytest.mark.parametrize("kind", MODEL_MUTATIONS)
    def test_damage_exit_2(self, tmp_path, model_bytes, monkeypatch, capsys, kind):
        rng = np.random.default_rng(list(MODEL_MUTATIONS).index(kind))
        code, model, fits = self.score(tmp_path, monkeypatch, mutate_model_json(model_bytes, kind, rng))
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"error: {model}: " in err and MODEL_MUTATIONS[kind] in err
        assert fits == []
        assert sorted(tmp_path.iterdir()) == [model]

    def test_intact_model_exit_0(self, tmp_path, model_bytes, monkeypatch):
        code, _, fits = self.score(tmp_path, monkeypatch, model_bytes)
        assert code == 0 and len(fits) == 1
        assert run("rank", tmp_path / "s.csv", "--out", tmp_path / "ranking.csv") == 0


class TestEvaluate:
    def write_inputs(self, tmp_path, n_plots=6, raters=5):
        rng = np.random.default_rng(1)
        scores = tmp_path / "scores.csv"
        with open(scores, "w") as fh:
            fh.write("id,k_star,m,scalar_score\n")
            for i in range(n_plots):
                k = int(rng.integers(1, 4))
                m = int(rng.integers(1, k + 1))
                fh.write(f"p{i},{k},{m},0\n")
        pairs = tmp_path / "pairs.csv"
        with open(pairs, "w") as fh:
            header = "idA,idB," + ",".join(f"v{r}" for r in range(raters))
            fh.write(header + "\n")
            for i in range(n_plots):
                for j in range(i + 1, n_plots):
                    votes = ",".join(("<", "=", ">")[rng.integers(3)] for _ in range(raters))
                    fh.write(f"p{i},p{j},{votes}\n")
        return scores, pairs

    def test_pairwise_mode(self, tmp_path):
        scores, pairs = self.write_inputs(tmp_path)
        out = tmp_path / "kappa.json"
        code = run(
            "evaluate", "--scores", scores, "--pairs", pairs,
            "--mode", "pairwise", "--b", 50, "--seed", 1, "--out", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_pairs"] == 15
        assert -1.0 <= report["kappa"] <= 1.0
        assert report["label"] in ("poor", "slight", "fair", "moderate", "substantial", "almost perfect")
        assert report["bootstrap"]["b"] == 50

    def test_alteration_mode(self, tmp_path):
        scores, pairs = self.write_inputs(tmp_path)
        out = tmp_path / "curve.csv"
        code = run(
            "evaluate", "--scores", scores, "--pairs", pairs,
            "--mode", "alteration", "--k-values", "0,5,10", "--b", 30, "--seed", 2, "--out", out,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,mean,sd,min,max"
        assert len(lines) == 4

    @pytest.mark.parametrize("k_values", ["", ",", " , ,"])
    def test_alteration_without_k_values_exit_2(self, tmp_path, capsys, k_values):
        scores, pairs = self.write_inputs(tmp_path)
        out = tmp_path / "curve.csv"
        code = run(
            "evaluate", "--scores", scores, "--pairs", pairs,
            "--mode", "alteration", "--k-values", k_values, "--b", 5, "--out", out,
        )
        assert code == 2
        assert "needs --k-values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--b", 0], "--b must be >= 1"),
        (["--mode", "alteration", "--k-values", "0,16"], "--k-values must be integers in [0, 15], got '0,16'"),
        (["--mode", "alteration", "--k-values", "1.5"], "--k-values must be integers in [0, 15], got '1.5'"),
    ])
    def test_bad_b_or_k_values_exit_2(self, tmp_path, capsys, argv, message):
        scores, pairs = self.write_inputs(tmp_path)
        out = tmp_path / "out"
        assert run("evaluate", "--scores", scores, "--pairs", pairs, *argv, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_score_id_exit_2(self, tmp_path, capsys):
        scores, pairs = self.write_inputs(tmp_path)
        scores.write_text(scores.read_text() + "p3,1,1,0\n")
        out = tmp_path / "kappa.json"
        assert run("evaluate", "--scores", scores, "--pairs", pairs, "--b", 5, "--out", out) == 2
        assert "row 8: plot id 'p3' repeats row 5" in capsys.readouterr().err
        assert not out.exists()

    def test_mismatched_ids_exit_2(self, tmp_path):
        scores, pairs = self.write_inputs(tmp_path)
        pairs.write_text("idA,idB,v1\np0,zzz,<\n")
        assert (
            run("evaluate", "--scores", scores, "--pairs", pairs, "--mode", "pairwise",
                "--b", 10, "--out", tmp_path / "o.json")
            == 2
        )


# The file and damage kind of each evaluate mutation -> a fragment of its exit-2 message.
EVAL_MUTATIONS = {
    ("scores", "ragged_row"): "cells, got",
    ("scores", "unknown_id"): "has no score",
    ("scores", "m_above_k_star"): "need 1 <= m <= k_star",
    ("scores", "non_integer_k_star"): "invalid literal for int()",
    ("scores", "missing_header"): "expected score columns",
    ("scores", "header_only"): "no score rows",
    ("pairs", "blank_vote"): "vote '' is not one of",
    ("pairs", "ragged_row"): "cells, got",
    ("pairs", "unknown_id"): "has no score",
    ("pairs", "missing_header"): "expected columns idA,idB",
    ("pairs", "header_only"): "no judgment rows",
}
EVAL_INPUTS = {"scores": DATA / "golden" / "scores.csv", "pairs": DATA / "pairs.csv"}


def mutate_eval_csv(text: str, file: str, kind: str, rng: np.random.Generator) -> str:
    """``text`` of the scores or pairs CSV with one ``kind`` of damage, at a row and cell drawn from ``rng``."""
    header, *lines = text.splitlines()
    if kind == "missing_header":
        return "\n".join(lines) + "\n"
    if kind == "header_only":
        return header + "\n"
    rows = [line.split(",") for line in lines]
    r = int(rng.integers(len(rows)))
    row = rows[r]
    if kind == "ragged_row":
        rows[r] = row[:-1] if rng.integers(2) else row + [row[-1]]
    elif kind == "unknown_id":
        row[int(rng.integers(2 if file == "pairs" else 1))] = "zz"
    elif kind == "m_above_k_star":
        row[2] = str(int(row[1]) + 1)
    elif kind == "non_integer_k_star":
        row[1] += ".5"
    elif kind == "blank_vote":
        row[int(rng.integers(2, len(row)))] = ""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def run_evaluate(tmp_path, mode, inputs, *extra):
    out = tmp_path / ("kappa.json" if mode == "pairwise" else "curve.csv")
    argv = ["--scores", inputs["scores"], "--pairs", inputs["pairs"], "--mode", mode, "--k-values", "0,2"]
    return run("evaluate", *argv, "--b", 20, "--out", out, *extra), out


@pytest.mark.parametrize("mode", ["pairwise", "alteration"])
class TestEvaluateMutations:
    """Seeded damage to the scores or the pair-judgment CSV: ``evaluate`` exits 2 in both modes,
    names the damaged file and writes no output; valid variants exit 0."""

    @pytest.mark.parametrize("file,kind", EVAL_MUTATIONS)
    def test_damage_exit_2(self, tmp_path, capsys, mode, file, kind):
        damaged = tmp_path / EVAL_INPUTS[file].name
        rng = np.random.default_rng(list(EVAL_MUTATIONS).index((file, kind)))
        damaged.write_text(mutate_eval_csv(EVAL_INPUTS[file].read_text(), file, kind, rng))
        code, out = run_evaluate(tmp_path, mode, {**EVAL_INPUTS, file: damaged})
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(damaged) in err and EVAL_MUTATIONS[file, kind] in err
        assert not out.exists()

    def test_repeated_pair_exit_0(self, tmp_path, mode):
        pairs = tmp_path / "pairs.csv"
        text = EVAL_INPUTS["pairs"].read_text()
        pairs.write_text(text + text.splitlines()[1] + "\n")
        code, out = run_evaluate(tmp_path, mode, {**EVAL_INPUTS, "pairs": pairs})
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("seed", [-5, 2**70])
    def test_any_integer_seed_exit_0(self, tmp_path, mode, seed):
        code, out = run_evaluate(tmp_path, mode, EVAL_INPUTS, "--seed", seed)
        assert code == 0 and out.exists()


# A non-default value for every option key of every command.  Each is valid
# with the other options at their defaults or at their FAST value.
SET = {
    "generate": {"seed": 4, "n": 30, "grid_count": 2},
    "corpus": {},
    "train": {
        "seed": 4, "method": "nb", "n_trees": 2, "test_fraction": 0.3, "balance": "none",
        "preprocess": "center_scale", "pca_threshold": 0.9, "knn_k": 3, "cv": True, "cv_folds": 3,
        "cv_repeats": 2,
    },
    "score": {
        "seed": 4, "k_max": 2, "em_tolerance": 0.0001, "max_iterations": 30, "n_restarts": 2,
        "regularization": 1e-05, "bic_mode": "component_count",
    },
    "rank": {"ascending": True},
    "evaluate": {"seed": 4, "mode": "alteration", "b": 20, "k_values": "0,2"},
}
# Passed as flags, except for the key under test, to keep every run small.
FAST = {
    "generate": {"grid_count": 1, "n": 20},
    "train": {"n_trees": 1, "cv_folds": 2, "cv_repeats": 1},
    "score": {"k_max": 1, "n_restarts": 1, "max_iterations": 20},
    "evaluate": {"mode": "alteration", "k_values": "0,1", "b": 10},
}
BAD_VALUES = [("train", "method"), ("train", "balance"), ("score", "bic_mode"), ("evaluate", "mode")]


def _flags(options: dict) -> list:
    argv = []
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, value]
    return argv


class TestOptions:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("inputs")
        assert run("train", GOLDEN_CORPUS, "--n-trees", 1, "--out", d / "model.json") == 0
        return {
            "generate": [],
            "corpus": [DATA / "judged.csv"],
            "train": [GOLDEN_CORPUS],
            "score": [DATA / "golden" / "p0.csv", "--model", d / "model.json"],
            "rank": [DATA / "golden" / "scores.csv"],
            "evaluate": ["--scores", DATA / "golden" / "scores.csv", "--pairs", DATA / "pairs.csv"],
        }

    def run_with(self, inputs, tmp_path, command, key, value, how):
        fast = {k: v for k, v in FAST.get(command, {}).items() if k != key}
        argv = [command, *inputs[command], *_flags(fast), "--out", tmp_path / "out"]
        if how == "flag":
            argv += _flags({key: value})
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={'yes' if value is True else value}\n")
            argv += ["--config", cfg]
        return run(*argv)

    def test_every_table_is_covered(self):
        from scatterscore.cli import OPTIONS

        assert {c: set(t) for c, t in OPTIONS.items()} == {c: set(v) for c, v in SET.items()}

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("command,key", [(c, k) for c, table in SET.items() for k in table])
    def test_value_lands_in_sidecar(self, tmp_path, inputs, command, key, how):
        value = SET[command][key]
        assert self.run_with(inputs, tmp_path, command, key, value, how) == 0
        out = tmp_path / "out" / "manifest.csv" if command == "generate" else tmp_path / "out"
        lines = Path(str(out) + ".config.txt").read_text().splitlines()
        assert f"{key}={value}" in lines
        assert sorted(line.split("=", 1)[0] for line in lines) == sorted(SET[command])

    @pytest.mark.parametrize("command,key", BAD_VALUES)
    def test_bad_value_same_message_from_flag_and_config(self, tmp_path, inputs, capsys, command, key):
        errors = []
        for how in ("flag", "config"):
            assert self.run_with(inputs, tmp_path, command, key, "bogus", how) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "'bogus'" in errors[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["corpus", "train", "score", "rank", "evaluate"])
    def test_out_in_missing_directory_exit_2(self, tmp_path, inputs, capsys, command):
        out = tmp_path / "nodir" / "out"
        assert run(command, *inputs[command], "--out", out) == 2
        assert f"{tmp_path / 'nodir'} is not a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["corpus", "train", "score", "rank", "evaluate"])
    def test_out_that_is_a_directory_exit_2(self, tmp_path, inputs, capsys, command):
        out = tmp_path / "outdir"
        out.mkdir()
        (out / "kept.txt").write_text("kept\n")
        assert run(command, *inputs[command], "--out", out) == 2
        assert f"--out {out} is a directory" in capsys.readouterr().err
        assert [(p.name, p.read_text()) for p in out.iterdir()] == [("kept.txt", "kept\n")]
        assert not Path(str(out) + ".config.txt").exists()
        assert list(tmp_path.iterdir()) == [out]

    def test_rank_takes_no_seed(self, tmp_path, inputs):
        with pytest.raises(SystemExit) as exc:
            run("rank", *inputs["rank"], "--seed", 1, "--out", tmp_path / "r.csv")
        assert exc.value.code == 2

    def test_corpus_takes_no_seed(self, tmp_path, inputs):
        # the corpus draws nothing at random, so there is no seed to record
        with pytest.raises(SystemExit) as exc:
            run("corpus", *inputs["corpus"], "--seed", 1, "--out", tmp_path / "c.csv")
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []
        assert run("corpus", *inputs["corpus"], "--out", tmp_path / "c.csv") == 0
        assert Path(str(tmp_path / "c.csv") + ".config.txt").read_text() == ""


# kind of damage to a config file -> a fragment of the exit-2 message; a line of the file, or the whole file
CONFIG_LINE_MUTATIONS = {
    "no_equals": ("n_trees 3", "expected key=value"),
    "unknown_key": ("mystery=1", "unknown config key 'mystery'"),
    "bad_int": ("n_trees=three", "config key 'n_trees': invalid literal for int()"),
    "bad_float": ("test_fraction=0.2.5", "config key 'test_fraction': could not convert string to float"),
    "bad_bool": ("cv=maybe", "config key 'cv': not a boolean: 'maybe'"),
    "empty_value": ("n_trees=", "config key 'n_trees': invalid literal for int()"),
}
CONFIG_FILE_MUTATIONS = {
    "non_utf8": "codec can't decode",
    "directory": "Is a directory",
    "missing": "No such file or directory",
}
VALID_CONFIG_LINES = ["# training config", "seed=5", "", "cv_folds=2  # folds", "balance=none"]


class TestConfigMutations:
    """Seeded damage to a ``--config`` file: ``train`` exits 2, names the file (and the damaged line)
    and writes nothing; the intact file exits 0 with its values in the sidecar."""

    def train(self, tmp_path, cfg):
        out = tmp_path / "out"
        out.mkdir()
        code = run("train", GOLDEN_CORPUS, "--n-trees", 1, "--config", cfg, "--out", out / "m.json")
        return code, sorted(out.iterdir())

    @pytest.mark.parametrize("kind", CONFIG_LINE_MUTATIONS)
    def test_line_damage_exit_2(self, tmp_path, capsys, kind):
        line, message = CONFIG_LINE_MUTATIONS[kind]
        lines = list(VALID_CONFIG_LINES)
        at = int(np.random.default_rng(list(CONFIG_LINE_MUTATIONS).index(kind)).integers(len(lines) + 1))
        lines.insert(at, line)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code, written = self.train(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"error: {cfg}: line {at + 1}: {message}" in err
        assert written == []

    @pytest.mark.parametrize("kind", CONFIG_FILE_MUTATIONS)
    def test_file_damage_exit_2(self, tmp_path, capsys, kind):
        cfg = tmp_path / "run.cfg"
        if kind == "non_utf8":
            text = "\n".join(VALID_CONFIG_LINES).encode()
            at = int(np.random.default_rng(0).integers(len(text)))
            cfg.write_bytes(text[:at] + b"\xff" + text[at:])
        elif kind == "directory":
            cfg.mkdir()
        code, written = self.train(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"cannot read config file {cfg}: " in err and CONFIG_FILE_MUTATIONS[kind] in err
        assert written == []

    def test_intact_file_exit_0(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(VALID_CONFIG_LINES) + "\n")
        code, written = self.train(tmp_path, cfg)
        assert code == 0
        sidecar = (tmp_path / "out" / "m.json.config.txt").read_text().splitlines()
        assert {"seed=5", "cv_folds=2", "balance=none", "n_trees=1"} <= set(sidecar)
        assert tmp_path / "out" / "m.json" in written


# reader -> (its input file, the command line that reads it, given the file and an --out path)
READERS = {
    "plot": (P0, lambda f, out, model: ["score", f, "--model", model, "--k-max", 2, "--n-restarts", 1, "--out", out]),
    "corpus": (GOLDEN_CORPUS, lambda f, out, model: ["train", f, "--n-trees", 1, "--out", out]),
    "judged": (DATA / "judged.csv", lambda f, out, model: ["corpus", f, "--out", out]),
    "pairs": (DATA / "pairs.csv", lambda f, out, model: ["evaluate", "--scores", DATA / "golden" / "scores.csv",
                                                         "--pairs", f, "--b", 10, "--out", out]),
    "scores": (DATA / "golden" / "scores.csv", lambda f, out, model: ["rank", f, "--out", out]),
    "params": (DATA / "params.csv", lambda f, out, model: ["generate", "--params-file", f, "--n", 20, "--out", out]),
}


class TestInputEncoding:
    """Every input is UTF-8 with an optional byte-order mark, and a file that does not decode, or holds a row
    that the csv module cannot read, exits 2 naming the file (and the row) and writes nothing."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        model = tmp_path_factory.mktemp("model") / "model.json"
        assert run("train", GOLDEN_CORPUS, "--n-trees", 1, "--out", model) == 0
        return model

    @staticmethod
    def run_on(tmp_path, name, reader, data: bytes, model):
        """Run ``reader``'s command on ``data`` written to ``<tmp_path>/<name>/in/<file name>``; its exit code
        and every file it wrote, by path relative to its --out directory."""
        source, argv = READERS[reader]
        path = tmp_path / name / "in" / source.name
        path.parent.mkdir(parents=True)
        path.write_bytes(data)
        out_dir = tmp_path / name / "out"
        out_dir.mkdir()
        code = run(*argv(path, out_dir / "out", model))
        return code, {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}

    @pytest.mark.parametrize("reader", [*READERS, "plot without a header"])
    def test_byte_order_mark_reads_as_the_clean_file(self, tmp_path, model, reader):
        # a plot's header would pass for one with the mark on its first cell, so a plot is also read without
        data = READERS[reader.split()[0]][0].read_bytes()
        if reader == "plot without a header":
            reader, data = "plot", data.split(b"\n", 1)[1]
        clean = self.run_on(tmp_path, "clean", reader, data, model)
        assert clean[0] == 0 and clean[1]
        assert self.run_on(tmp_path, "bom", reader, b"\xef\xbb\xbf" + data, model) == clean

    def test_byte_order_mark_in_config_file(self, tmp_path):
        outputs = []
        for name, bom in (("clean", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / name).mkdir()
            cfg = tmp_path / name / "run.cfg"
            cfg.write_bytes(bom + b"ascending=yes\n")
            out = tmp_path / name / "ranking.csv"
            assert run("rank", DATA / "golden" / "scores.csv", "--config", cfg, "--out", out) == 0
            outputs.append((out.read_bytes(), Path(str(out) + ".config.txt").read_bytes()))
        assert outputs[0] == outputs[1]
        assert b"ascending=True\n" in outputs[0][1]

    @pytest.mark.parametrize("damage", ["long_cell", "bad_byte"])
    @pytest.mark.parametrize("reader", READERS)
    def test_unreadable_file_exit_2_naming_it(self, tmp_path, model, capsys, reader, damage):
        header, first, rest = READERS[reader][0].read_bytes().split(b"\n", 2)
        cells = first.split(b",")
        cells[-1] = b"9" * 200_000 if damage == "long_cell" else cells[-1] + b"\xff"
        code, written = self.run_on(tmp_path, "bad", reader, b"\n".join([header, b",".join(cells), rest]), model)
        err = capsys.readouterr().err
        path = tmp_path / "bad" / "in" / READERS[reader][0].name
        assert code == 2, err
        if damage == "long_cell":
            assert f"error: {path}: row 2: field larger than field limit (131072)\n" in err
        else:
            assert f"error: {path}: 'utf-8' codec can't decode byte 0xff" in err
        assert written == {}

    def test_negative_zero_scores_as_zero(self, tmp_path, model):
        rows = P0.read_text().splitlines()
        for i in range(1, len(rows), 3):
            rows[i] = "ZERO," + rows[i].split(",")[1]
        text = "\n".join(rows) + "\n"
        zero = self.run_on(tmp_path, "zero", "plot", text.replace("ZERO", "0").encode(), model)
        assert zero[0] == 0 and zero[1]
        assert self.run_on(tmp_path, "negative_zero", "plot", text.replace("ZERO", "-0").encode(), model) == zero
