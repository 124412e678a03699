#!/usr/bin/env python3
"""Benchmark of scatterscore, measured from outside through its CLI.

    python3 perfbench/run.py --workload score-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the repository root (any directory whose ``src/scatterscore`` holds
the package).  The inputs are generated from ``--seed`` into
``perfbench/work/``; the program sees only those files.  A run sets up
``SETUP_REPEATS`` times, then repeats one pass of the workload's commands
until another pass would end after ``--seconds`` (at least one pass), and
checks every output.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs one pass untraced and one with timing wrappers around
the package's public functions, and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is the result object.
See perfbench/README.md for the metrics and workloads.
"""
import os

# One BLAS thread: each workload runs in one process with no extra threads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 7
MODEL_RECORDS = 300  # judged records behind the model the score workloads use
TRAIN_RECORDS = 1000
CV_REPEATS = 2
CV_FOLDS = 10
BOOTSTRAP_B = 10000
ALTERATION_KS = "1,5,10,50"
K_MAX = 10  # the default FitConfig, which the score workloads keep


class Runner:
    """Runs scatterscore commands in-process, counts them and their failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: Tracer | None = None

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)

    def run(self, label: str, argv: list, ops: int = 1) -> float:
        """Run one command; ``ops`` is how many operations it stands for
        (plots, for ``score``).  Returns its wall time."""
        self.attempted += ops
        out, err = io.StringIO(), io.StringIO()
        span = None
        if self.tracer is not None:
            self.tracer.op += 1
            span = self.tracer.begin("cli." + label)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.end(span)
        if code != 0:
            self.fail(f"{label}: exit {code}: {err.getvalue().strip()}", ops)
        return elapsed


def read_outputs(d: Path, names: list[str]) -> dict[str, bytes]:
    """Output files by name; a file a failed command did not write reads empty."""
    return {name: (d / name).read_bytes() if (d / name).exists() else b"" for name in names}


# ---------------------------------------------------------------------------
# Workloads


class ScoreWorkload:
    """`scatterscore score` over a fixed batch of plots with a trained model."""

    name = ""
    plot_names: tuple[str, ...] = ()

    def make_plots(self, runner: Runner, plots: Path, seed: int) -> None:
        raise NotImplementedError

    def plots(self, d: Path) -> list[Path]:
        return [d / "plots" / f"{name}.csv" for name in self.plot_names]

    def setup(self, runner: Runner, d: Path, seed: int) -> None:
        self.make_plots(runner, d / "plots", seed)
        inputs.write_judged_csv(d / "judged.csv", MODEL_RECORDS)
        runner.run("corpus", ["corpus", d / "judged.csv", "--out", d / "corpus.csv"])
        runner.run("train", ["train", d / "corpus.csv", "--seed", seed, "--out", d / "model.json"])

    def commands(self, d: Path, seed: int) -> list:
        argv = ["score", *self.plots(d), "--model", d / "model.json", "--seed", seed, "--out", d / "scores.csv"]
        return [("score", argv, len(self.plot_names))]

    def outputs(self, d: Path) -> dict[str, bytes]:
        return read_outputs(d, ["scores.csv"])

    def pin(self, outputs: dict[str, bytes]) -> dict:
        """What reference.json keeps of these outputs: the (id, k_star, m) rows."""
        rows = [line.split(",") for line in outputs["scores.csv"].decode().splitlines()[1:]]
        return {"scores": [[r[0], int(r[1]), int(r[2])] for r in rows]}

    def check(self, runner: Runner, d: Path, outputs: dict[str, bytes], reference) -> None:
        got = self.pin(outputs)["scores"]
        if [row[0] for row in got] != list(self.plot_names):
            runner.fail(f"scores.csv lists {[row[0] for row in got]}, expected {self.plot_names}", len(self.plot_names))
            return
        want = {row[0]: row for row in reference["scores"]} if reference is not None else {}
        for row in got:
            plot_id, k_star, m = row
            if not 1 <= m <= k_star <= K_MAX:
                runner.fail(f"{plot_id}: (M, K*) = ({m}, {k_star}) outside 1 <= M <= K* <= {K_MAX}")
            elif reference is not None and want.get(plot_id) != row:
                runner.fail(f"{plot_id}: (K*, M) = ({k_star}, {m}) differs from the reference {want.get(plot_id)}")
        runner.run("rank", ["rank", d / "scores.csv", "--out", d / "ranking.csv"])
        ranked = sorted(line.split(",")[1] for line in (d / "ranking.csv").read_text().splitlines()[1:])
        if ranked != sorted(self.plot_names):
            runner.fail("rank did not read back every scored plot")


def generate_grid_plots(runner: Runner, out: Path, shapes: dict, n: int, seed: int) -> None:
    """Two-component plots of fixed shapes through `scatterscore generate`."""
    params = out.parent / f"{out.name}-params.csv"
    inputs.write_grid_params(params, shapes)
    runner.run("generate", ["generate", "--params-file", params, "--n", n, "--seed", seed, "--out", out])


class ScoreBatch(ScoreWorkload):
    name = "score-batch"
    plot_names = (*inputs.GRID_SHAPES, "blob3", "blob4", "blob5", "blob6")

    def make_plots(self, runner, plots, seed):
        generate_grid_plots(runner, plots, inputs.GRID_SHAPES, inputs.PLOT_N, seed)
        for n_blobs in (3, 4, 5, 6):
            inputs.write_blob_plot(plots / f"blob{n_blobs}.csv", seed, n_blobs)


class ScorePixel(ScoreWorkload):
    name = "score-pixel"
    plot_names = tuple(inputs.PIXEL_SHAPES)

    def make_plots(self, runner, plots, seed):
        raw = plots.parent / "raw"
        generate_grid_plots(runner, raw, inputs.PIXEL_SHAPES, inputs.PIXEL_N, seed)
        plots.mkdir()
        for name in self.plot_names:
            points = np.loadtxt(raw / f"{name}.csv", delimiter=",", skiprows=1)
            inputs.write_points(plots / f"{name}.csv", inputs.snap_to_pixels(points))


class TrainEval:
    """corpus, train, train --cv, evaluate pairwise and alteration."""

    name = "train-eval"

    def setup(self, runner: Runner, d: Path, seed: int) -> None:
        inputs.write_judged_csv(d / "judged.csv", TRAIN_RECORDS)
        inputs.write_eval_inputs(d / "scores.csv", d / "pairs.csv", seed)
        (d / "cv").mkdir()

    def commands(self, d: Path, seed: int) -> list:
        evaluate = ["evaluate", "--scores", d / "scores.csv", "--pairs", d / "pairs.csv", "--seed", seed]
        return [
            ("corpus", ["corpus", d / "judged.csv", "--out", d / "corpus.csv"], 1),
            ("train", ["train", d / "corpus.csv", "--seed", seed, "--out", d / "model.json"], 1),
            (
                "train_cv",
                ["train", d / "corpus.csv", "--cv", "--cv-repeats", CV_REPEATS, "--cv-folds", CV_FOLDS,
                 "--seed", seed, "--out", d / "cv" / "model.json"],
                1,
            ),
            ("evaluate_pairwise", [*evaluate, "--mode", "pairwise", "--b", BOOTSTRAP_B, "--out", d / "kappa.json"], 1),
            (
                "evaluate_alteration",
                [*evaluate, "--mode", "alteration", "--k-values", ALTERATION_KS, "--b", BOOTSTRAP_B,
                 "--out", d / "curve.csv"],
                1,
            ),
        ]

    def outputs(self, d: Path) -> dict[str, bytes]:
        names = ["corpus.csv", "model.json", "model.metrics.json", "cv/model.metrics.json", "kappa.json", "curve.csv"]
        return read_outputs(d, names)

    def pin(self, outputs: dict[str, bytes]) -> dict:
        """What reference.json keeps of these outputs: test MCC, predictions
        on the probe set, CV MCC values, and the kappa and curve files."""
        from scatterscore import mergemodel, pairspace

        model = mergemodel.deserialize(outputs["model.json"])
        probe = np.array(
            [
                pairspace.align_training_record(
                    pairspace.PairFeatures(
                        tau=p[0], mu=p[1],
                        shape_u=pairspace.ShapeParams(p[6], p[2], p[3]),
                        shape_v=pairspace.ShapeParams(p[7], p[4], p[5]),
                    )
                ).as_vector()
                for p in inputs.probe_features()
            ]
        )
        return {
            "test_mcc": json.loads(outputs["model.metrics.json"])["test_mcc"],
            "probe_predictions": "".join(map(str, mergemodel.predict_matrix(model, probe).tolist())),
            "cv_mcc_values": json.loads(outputs["cv/model.metrics.json"])["cv_mcc_values"],
            "kappa.json": outputs["kappa.json"].decode(),
            "curve.csv": outputs["curve.csv"].decode(),
        }

    def check(self, runner: Runner, d: Path, outputs: dict[str, bytes], reference) -> None:
        got = self.pin(outputs)
        if reference is not None:
            for key, want in reference.items():
                if got[key] != want:
                    runner.fail(f"{key} differs from the reference")
            return
        corpus_rows = outputs["corpus.csv"].decode().count("\n") - 1
        kappa = json.loads(got["kappa.json"])
        curve_ks = [line.split(",")[0] for line in got["curve.csv"].splitlines()[1:]]
        checks = {
            "corpus has rows": corpus_rows > TRAIN_RECORDS,
            "test MCC in [-1, 1]": -1.0 <= got["test_mcc"] <= 1.0,
            "probe predictions are 0/1": set(got["probe_predictions"]) <= {"0", "1"},
            "one CV MCC per fold": len(got["cv_mcc_values"]) == CV_FOLDS * CV_REPEATS
            and all(-1.0 <= v <= 1.0 for v in got["cv_mcc_values"]),
            "kappa at most 1": kappa["kappa"] <= 1.0 and kappa["bootstrap"]["b"] == BOOTSTRAP_B,
            "one curve row per k": curve_ks == ALTERATION_KS.split(","),
        }
        for what, ok in checks.items():
            if not ok:
                runner.fail(f"structural check failed: {what}")


# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (ScoreBatch(), ScorePixel(), TrainEval())}


# ---------------------------------------------------------------------------
# Running


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_setup(workload, runner: Runner, d: Path, seed: int) -> float:
    start = time.perf_counter()
    workload.setup(runner, fresh_dir(d), seed)
    return time.perf_counter() - start


def one_pass(workload, runner: Runner, d: Path, seed: int) -> tuple[float, dict[str, float]]:
    """Run the workload's commands once; returns (total, per-command) wall time."""
    times: dict[str, float] = {}
    for label, argv, ops in workload.commands(d, seed):
        times[label] = runner.run(label, argv, ops)
    return sum(times.values()), times


def digest(data: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(data):
        h.update(name.encode() + b"\0" + hashlib.sha256(data[name]).digest())
    return h.hexdigest()


def code_digest() -> str:
    """Digest of the benchmark's and the program's sources: with the seed,
    they determine every input and every output of a run."""
    files = {f"{base.name}/{path.relative_to(base)}": path.read_bytes()
             for base in (HERE, SRC) for path in sorted(base.rglob("*.py"))}
    return digest(files)


def compare_with_earlier_run(workload, seed: int, outputs_key: str) -> str:
    """Byte-identity across runs: the output digest of each (workload, seed,
    code) is kept in perfbench/work/digests.json for later runs to match."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload.name}/{seed}/{code_digest()}"
    if key in known:
        return "same" if known[key] == outputs_key else "different"
    known[key] = outputs_key
    partial = store.with_suffix(".partial")
    partial.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    partial.replace(store)  # a run killed mid-write leaves the old store whole
    return "first"


def machine_record(seed: int, workload: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "platform": platform.platform(),
        "seed": seed,
        "workload": workload,
    }


def load_reference(workload, seed: int):
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true", help=f"write this run's outputs as the seed-{DEFAULT_SEED} reference"
    )
    args = parser.parse_args(argv)
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error(f"--pin needs --seed {DEFAULT_SEED}")

    if args.workload == "all":  # each workload in its own process, one after another
        for name in WORKLOADS:
            argv = ["--workload", name, "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
            argv += ["--pin"] if args.pin else []
            code = subprocess.run([sys.executable, __file__, *map(str, argv)]).returncode
            if code != 0:
                return code
        return 0
    if not (SRC / "scatterscore" / "__init__.py").is_file():
        print(f"perfbench: no scatterscore package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from scatterscore import cli

    workload = WORKLOADS[args.workload]
    runner = Runner(cli)
    run_dir = fresh_dir(WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}")
    record = machine_record(args.seed, workload.name)
    (run_dir / "machine.json").write_text(json.dumps(record, indent=1) + "\n")
    print("machine " + json.dumps(record), flush=True)

    setup_times = [timed_setup(workload, runner, run_dir / "data", args.seed) for _ in range(SETUP_REPEATS)]
    data = run_dir / "data"

    passes: list[float] = []
    command_times: list[dict[str, float]] = []
    pass_outputs: list[dict[str, bytes]] = []
    start = time.perf_counter()
    while True:
        total, times = one_pass(workload, runner, data, args.seed)
        passes.append(total)
        command_times.append(times)
        pass_outputs.append(workload.outputs(data))
        if args.trace or time.perf_counter() - start + statistics.median(passes) > args.seconds:
            break

    tracer = None
    if args.trace:
        tracer = Tracer(run_dir.name)
        runner.tracer = tracer
        traced_data = run_dir / "traced"
        tracer.install()
        try:
            index = tracer.begin("bench.setup")
            traced_setup = timed_setup(workload, runner, traced_data, args.seed)
            tracer.end(index)
            index = tracer.begin("bench.pass")
            traced_pass, _ = one_pass(workload, runner, traced_data, args.seed)
            tracer.end(index)
        finally:
            tracer.uninstall()
            runner.tracer = None
        pass_outputs.append(workload.outputs(traced_data))
        tracer.write_spans(run_dir / "spans.jsonl")

    reference = load_reference(workload, args.seed)
    if args.pin:
        pinned = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        pinned[workload.name] = workload.pin(pass_outputs[0])
        REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        reference = pinned[workload.name]

    outputs_key = digest(pass_outputs[0])
    if any(digest(o) != outputs_key for o in pass_outputs[1:]):
        runner.fail("outputs differ between passes of this run", len(pass_outputs) - 1)
    across_runs = compare_with_earlier_run(workload, args.seed, outputs_key)
    if across_runs == "different":
        runner.fail("outputs differ from an earlier run with the same seed, inputs and program")
    try:
        workload.check(runner, data, pass_outputs[0], reference)
    except Exception as exc:  # an unreadable output is a failed check, not a crash
        runner.fail(f"outputs could not be checked: {exc!r}")
    kind = f"reference (seed {DEFAULT_SEED})" if reference is not None else "structural"
    print(
        f"check: {kind}; byte-identity across {len(pass_outputs)} passes in this run, "
        f"across runs: {across_runs}",
        flush=True,
    )
    print("commands_s " + json.dumps({k: statistics.median(t[k] for t in command_times) for k in command_times[0]}))
    for problem in runner.problems:
        print("FAILED " + problem, flush=True)

    if tracer is not None:
        untraced = statistics.median(setup_times) + passes[0]
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = ((traced_setup + traced_pass) / untraced - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (statistics.median(passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
