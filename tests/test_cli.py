import csv
import json
from pathlib import Path

import numpy as np
import pytest

from scatterscore import vqm
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
        assert set(read_corpus_csv(out).provenance) == {"r,1", "r2"}


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

    def test_unknown_config_key_exit_2(self, tmp_path, small_corpus):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery=1\n")
        assert run("train", small_corpus, "--config", cfg, "--out", tmp_path / "m.json") == 2


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
    ("scores", "header_only"): "has no score",
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
    "corpus": {"seed": 4},
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

    def test_rank_takes_no_seed(self, tmp_path, inputs):
        with pytest.raises(SystemExit) as exc:
            run("rank", *inputs["rank"], "--seed", 1, "--out", tmp_path / "r.csv")
        assert exc.value.code == 2
