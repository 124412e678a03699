"""Self-test of the benchmark's tracing and metric names.

    python3 perfbench/tests/selftest.py          # or: python3 -m pytest perfbench/tests/selftest.py

The file name keeps it out of the package's test collection (``test_*.py``):
it checks the benchmark, not scatterscore.  It runs a small pipeline of
scatterscore commands under the tracer and takes about a second.
"""
import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from scatterscore import cli, gmm, vqm  # noqa: E402

# Counts that must repeat exactly between two traced runs of the same inputs.
REPEATED_COUNTS = (
    "gmm.em_iterations",
    "gmm.em_cap_hits",
    "gmm.k_fitted",
    "mergemodel.predict_calls",
    "trees.nodes",
    "agreement.kappa_evals",
    "util.spawn_rng_calls",
    "util.derive_seed_calls",
)


def installed_wrappers() -> list[str]:
    """Names of scatterscore attributes that are still tracing wrappers."""
    found = []
    for mod_name, module in tracing.scatterscore_modules().items():
        for attr, value in vars(module).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type):
                found += [f"{mod_name}.{attr}.{m}" for m, fn in vars(value).items() if hasattr(fn, "perfbench_span")]
    return found


def _mini_pipeline(runner: run.Runner, d: Path) -> None:
    """A small pass through every traced layer: generate, corpus, train
    (with CV), score, evaluate in both modes."""
    d.mkdir(parents=True)
    inputs.write_judged_csv(d / "judged.csv", 60)
    inputs.write_eval_inputs(d / "scores.csv", d / "pairs.csv", 5)
    steps = [
        ["generate", "--grid-count", 1, "--n", 150, "--seed", 5, "--out", d / "plots"],
        ["corpus", d / "judged.csv", "--out", d / "corpus.csv"],
        ["train", d / "corpus.csv", "--cv", "--cv-repeats", 1, "--cv-folds", 2, "--n-trees", 3,
         "--seed", 5, "--out", d / "model.json"],
        ["score", d / "plots" / "grid0000.csv", "--model", d / "model.json", "--k-max", 3,
         "--max-iterations", 40, "--seed", 5, "--out", d / "out.csv"],
        ["evaluate", "--scores", d / "scores.csv", "--pairs", d / "pairs.csv", "--mode", "pairwise",
         "--b", 20, "--out", d / "kappa.json"],
        ["evaluate", "--scores", d / "scores.csv", "--pairs", d / "pairs.csv", "--mode", "alteration",
         "--k-values", "1,5", "--b", 10, "--out", d / "curve.csv"],
    ]
    for argv in steps:
        runner.run(str(argv[0]), argv)


def _traced_counts(d: Path) -> dict:
    runner = run.Runner(cli)
    tracer = tracing.Tracer("selftest")
    runner.tracer = tracer
    tracer.install()
    try:
        _mini_pipeline(runner, d)
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.problems
    metrics = tracer.metrics()
    return {name: metrics[name][0] for name in REPEATED_COUNTS}


def test_counts_repeat_between_traced_runs(tmp_path):
    first = _traced_counts(tmp_path / "a")
    second = _traced_counts(tmp_path / "b")
    assert first == second
    assert all(value > 0 for value in first.values()), first


def test_wrappers_removed_after_traced_run(tmp_path):
    originals = {name: getattr(gmm, name) for name in ("select_model", "fit_em", "fit_em_with_trace")}
    tracer = tracing.Tracer("selftest")
    tracer.install()
    assert vqm.select_model is not originals["select_model"]
    assert installed_wrappers()
    tracer.uninstall()
    assert installed_wrappers() == []
    assert vqm.select_model is originals["select_model"]
    assert all(getattr(gmm, name) is fn for name, fn in originals.items())

    # An untraced command after the traced run records nothing.
    spans, counts = len(tracer.spans), dict(tracer.counts)
    runner = run.Runner(cli)
    _mini_pipeline(runner, tmp_path / "untraced")
    assert runner.failed == 0, runner.problems
    assert len(tracer.spans) == spans and dict(tracer.counts) == counts


def test_metric_names():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in declared)
    assert len(declared) == len(set(declared))
    reported = set(tracing.Tracer("names").metrics()) | {"trace.overhead_frac"}
    assert reported == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


if __name__ == "__main__":
    for test in (test_counts_repeat_between_traced_runs, test_wrappers_removed_after_traced_run, test_metric_names):
        work = run.fresh_dir(run.WORK / "selftest" / test.__name__)
        test(*([work] if test.__code__.co_argcount else []))
        print(f"ok {test.__name__}")
