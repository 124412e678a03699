"""Golden pins: a small CLI pipeline compared byte for byte with committed outputs.

The pipeline runs ``generate --params-file``, ``corpus``, ``train``,
``score``, ``rank`` and ``evaluate`` in both modes on the inputs in
``tests/data`` and compares every CSV it writes, plus ``kappa.json``, with
``tests/data/golden``.  It also pins the per-K BIC of one plot at 9
significant digits and the trained model's predictions on fixed feature
rows.  ``kappa_b300.json`` and ``curve_b300.csv`` repeat both ``evaluate``
modes with b = 300, more than two blocks of bootstrap or alteration
replicates and not a whole number of them.  Three more ``train`` runs pin the metrics of the kNN and naive
Bayes baselines and of ``--cv`` (``knn.metrics.json``, ``nb.metrics.json``
and ``cv.metrics.json``).  ``model.json`` bytes are not pinned: its layout
may change with the model format version, while its predictions may not.

``grouped.json`` pins fits of plots with many repeated points, which the
generated plots above lack: a 600-point plot snapped to a 30x30 grid
(per-K BIC and the iterations of each restart) and 30 points on 3 sites
(per-K BIC of ``select_model``).

``patience.json`` pins ``select_model`` with the default ``FitConfig``
(``k_max=10``, ``gmm.BIC_PATIENCE`` = 2) on ``p0`` and on the snapped plot: the
per-K BIC of the K values fitted before the sweep stops (a K whose
restarts all stopped below the best BIC is left out), K* and the warnings
that name the stopped K and the K values left unfitted.

``trees.json`` pins the node arrays of every tree: the pipeline's 9-tree
model, and ``fit_bagged_trees(n_trees=5)`` on a seeded matrix with tied
values, repeated rows, a constant column and noisy labels.  Thresholds are
kept as ``repr`` strings, so any change in their last bit shows.

Any change to a pinned file must be explained in CHANGES.md.  To rewrite
the pins from the current code, run
``PYTHONPATH=src python tests/test_golden.py``.
"""
import json
from pathlib import Path

import numpy as np

from scatterscore import gmm, mergemodel, trees
from scatterscore.cli import main

from conftest import random_aligned

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

SEED = 5
K_MAX = 3
PINNED_PLOT = "p0"
WORK_FILES = (
    "corpus.csv", "scores.csv", "ranking.csv", "curve.csv", "kappa.json", "curve_b300.csv", "kappa_b300.json",
)
# Extra ``train`` runs on the pipeline's corpus: output stem -> flags.
TRAIN_RUNS = {
    "knn": ("--method", "knn"),
    "nb": ("--method", "nb"),
    "cv": ("--cv", "--cv-folds", 3, "--cv-repeats", 2, "--n-trees", 9),
}
GROUPED = "grouped.json"
PATIENCE = "patience.json"
TREES = "trees.json"


def _run(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"scatterscore {argv[0]} exited {code}")


def run_pipeline(work: Path) -> dict[str, bytes]:
    """Run the pinned pipeline in ``work``; returns {pinned name: bytes}."""
    plots = work / "plots"
    _run("generate", "--params-file", DATA / "params.csv", "--n", 200, "--seed", SEED, "--out", plots)
    _run("corpus", DATA / "judged.csv", "--out", work / "corpus.csv")
    _run("train", work / "corpus.csv", "--n-trees", 9, "--seed", SEED, "--out", work / "model.json")
    for stem, flags in TRAIN_RUNS.items():
        _run("train", work / "corpus.csv", *flags, "--seed", SEED, "--out", work / f"{stem}.json")
    plot_files = sorted(plots.glob("p*.csv"))
    _run("score", *plot_files, "--model", work / "model.json", "--k-max", K_MAX, "--n-restarts", 2,
         "--seed", SEED, "--out", work / "scores.csv")
    _run("rank", work / "scores.csv", "--out", work / "ranking.csv")
    evaluate = ["evaluate", "--scores", work / "scores.csv", "--pairs", DATA / "pairs.csv", "--seed", SEED]
    _run(*evaluate, "--mode", "pairwise", "--b", 50, "--out", work / "kappa.json")
    _run(*evaluate, "--mode", "alteration", "--k-values", "0,1,3", "--b", 20, "--out", work / "curve.csv")
    _run(*evaluate, "--mode", "pairwise", "--b", 300, "--out", work / "kappa_b300.json")
    _run(*evaluate, "--mode", "alteration", "--k-values", "0,1,6", "--b", 300, "--out", work / "curve_b300.csv")

    metrics = [f"{stem}.metrics.json" for stem in TRAIN_RUNS]
    out = {name: (work / name).read_bytes() for name in (*WORK_FILES, *metrics)}
    for name in ("manifest.csv", f"{PINNED_PLOT}.csv"):
        out[name] = (plots / name).read_bytes()
    out["values.json"] = (json.dumps(_pinned_values(work, plots), indent=1) + "\n").encode()
    out[TREES] = tree_values(mergemodel.deserialize((work / "model.json").read_bytes()).trees)
    return out


def _pinned_values(work: Path, plots: Path) -> dict:
    sp = gmm.read_scatterplot_csv(plots / f"{PINNED_PLOT}.csv")
    fit = gmm.select_model(sp, gmm.FitConfig(k_max=K_MAX, n_restarts=2, seed=SEED))
    model = mergemodel.deserialize((work / "model.json").read_bytes())
    rng = np.random.default_rng(0)
    rows = np.array([random_aligned(rng).as_vector() for _ in range(64)])
    return {
        "per_k_bic": [[k, f"{b:.9g}"] for k, b in fit.per_k_bic],
        "predictions": "".join(map(str, mergemodel.predict_matrix(model, rows).tolist())),
    }


def _snapped_plot() -> gmm.Scatterplot:
    """600 points from two Gaussians snapped to a 30x30 grid: 270 distinct points."""
    rng = np.random.default_rng(260)
    a = rng.normal((0.0, 0.0), (1.0, 0.6), size=(300, 2))
    b = rng.normal((3.0, 1.5), (0.7, 1.0), size=(300, 2))
    X = np.vstack([a, b])
    lo, hi = X.min(axis=0), X.max(axis=0)
    return gmm.Scatterplot(np.round((X - lo) / (hi - lo) * 29))


def grouped_values() -> bytes:
    config = gmm.FitConfig(n_restarts=2, seed=SEED)
    snapped = _snapped_plot()
    fits = []
    for k in range(1, 6):
        model, traces = gmm.fit_em_with_trace(snapped, k, config)
        bic = gmm.bic_value(model.log_likelihood, k, snapped.n)
        fits.append([k, f"{bic:.9g}", [len(t) - 1 for t in traces]])
    sites = gmm.Scatterplot(np.repeat([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]], 10, axis=0))
    fit = gmm.select_model(sites, gmm.FitConfig(k_max=5, seed=SEED))
    values = {
        "snapped": fits,
        "sites": {"k_star": fit.k_star, "per_k_bic": [[k, f"{b:.9g}"] for k, b in fit.per_k_bic]},
    }
    return (json.dumps(values, indent=1) + "\n").encode()


def patience_values() -> bytes:
    values = {}
    plots = {PINNED_PLOT: gmm.read_scatterplot_csv(GOLDEN / f"{PINNED_PLOT}.csv"), "snapped": _snapped_plot()}
    for name, plot in plots.items():
        fit = gmm.select_model(plot, gmm.FitConfig())
        values[name] = {
            "k_star": fit.k_star,
            "per_k_bic": [[k, f"{b:.9g}"] for k, b in fit.per_k_bic],
            "warnings": list(fit.warnings),
        }
    return (json.dumps(values, indent=1) + "\n").encode()


def tied_matrix() -> tuple[np.ndarray, np.ndarray]:
    """200 rows of 4 features on a 0.1 grid: many tied values, 40 repeated
    rows, a constant column and about 10% flipped labels."""
    rng = np.random.default_rng(261)
    X = np.round(rng.normal(size=(160, 4)), 1)
    X[:, 2] = 1.5
    X = np.vstack([X, X[rng.integers(0, 160, size=40)]])
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int8)
    y[rng.random(200) < 0.1] ^= 1
    return X, y


def _tree_json(tree) -> str:
    arrays = tree.to_dict()
    arrays["threshold"] = [repr(t) for t in arrays["threshold"]]
    return json.dumps(arrays)


def tree_values(pipeline_trees) -> bytes:
    """Node arrays of the pipeline's trees and of a bag grown on ``tied_matrix``, one tree a line."""
    X, y = tied_matrix()
    groups = {"pipeline": pipeline_trees, "bagged": trees.fit_bagged_trees(X, y, n_trees=5, seed=SEED)}
    body = ",\n".join(f'"{name}": [\n' + ",\n".join(map(_tree_json, ts)) + "\n]" for name, ts in groups.items())
    return ("{\n" + body + "\n}\n").encode()


def test_pipeline_matches_golden(tmp_path):
    got = run_pipeline(tmp_path)
    assert sorted([*got, GROUPED, PATIENCE]) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in got.items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} differs from tests/data/golden/{name}"


def test_grouped_fits_match_golden():
    assert grouped_values() == (GOLDEN / GROUPED).read_bytes()


def test_patience_sweep_matches_golden():
    assert patience_values() == (GOLDEN / PATIENCE).read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.mkdir(exist_ok=True)
        for name, data in run_pipeline(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
    (GOLDEN / GROUPED).write_bytes(grouped_values())
    (GOLDEN / PATIENCE).write_bytes(patience_values())
    print(f"wrote pins to {GOLDEN}")
