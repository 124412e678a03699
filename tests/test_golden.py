"""Golden pins: a small CLI pipeline compared byte for byte with committed outputs.

The pipeline runs ``generate --params-file``, ``corpus``, ``train``,
``score``, ``rank`` and ``evaluate`` in both modes on the inputs in
``tests/data`` and compares every CSV it writes, plus ``kappa.json``, with
``tests/data/golden``.  It also pins the per-K BIC of one plot at 9
significant digits and the trained model's predictions on fixed feature
rows.  ``model.json`` bytes are not pinned: its layout may change with the
model format version, while its predictions may not.

Any change to a pinned file must be explained in CHANGES.md.  To rewrite
the pins from the current code, run
``PYTHONPATH=src python tests/test_golden.py``.
"""
import json
from pathlib import Path

import numpy as np

from scatterscore import gmm, mergemodel
from scatterscore.cli import main

from conftest import random_aligned

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

SEED = 5
K_MAX = 3
PINNED_PLOT = "p0"
WORK_FILES = ("corpus.csv", "scores.csv", "ranking.csv", "curve.csv", "kappa.json")


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
    plot_files = sorted(plots.glob("p*.csv"))
    _run("score", *plot_files, "--model", work / "model.json", "--k-max", K_MAX, "--n-restarts", 2,
         "--seed", SEED, "--out", work / "scores.csv")
    _run("rank", work / "scores.csv", "--out", work / "ranking.csv")
    evaluate = ["evaluate", "--scores", work / "scores.csv", "--pairs", DATA / "pairs.csv", "--seed", SEED]
    _run(*evaluate, "--mode", "pairwise", "--b", 50, "--out", work / "kappa.json")
    _run(*evaluate, "--mode", "alteration", "--k-values", "0,1,3", "--b", 20, "--out", work / "curve.csv")

    out = {name: (work / name).read_bytes() for name in WORK_FILES}
    for name in ("manifest.csv", f"{PINNED_PLOT}.csv"):
        out[name] = (plots / name).read_bytes()
    out["values.json"] = (json.dumps(_pinned_values(work, plots), indent=1) + "\n").encode()
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


def test_pipeline_matches_golden(tmp_path):
    got = run_pipeline(tmp_path)
    assert sorted(got) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in got.items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} differs from tests/data/golden/{name}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.mkdir(exist_ok=True)
        for name, data in run_pipeline(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
    print(f"wrote pins to {GOLDEN}")
