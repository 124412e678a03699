"""Command-line surface: generate, corpus, train, score, rank, evaluate.

Every command is deterministic given its resolved configuration, which is
recorded in a ``<out>.config.txt`` sidecar.  Each command's options are
declared once, in ``OPTIONS``: every key there is a ``--key-with-dashes``
flag, a key of the flat key=value config file (``--config``) and a sidecar
line.  Explicit flags override file values.  Each command reads and checks
all of its inputs before it computes or writes anything.  Exit codes: 0
success, 1 internal numeric failure, 2 input or usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

from . import agreement, augment, gmm, mergemodel, vqm
from .gmm import FitConfig
from .mergemodel import TrainConfig
from .preprocess import CANONICAL_STEPS, PreprocessSpec
from .util import derive_seed, spawn_rng, write_csv


class InputError(Exception):
    """Bad input file or usage; maps to exit code 2."""


@contextlib.contextmanager
def _input_errors(prefix: str = "", out=None):
    """Report an OSError, ValueError or KeyError raised inside, or a missing ``out`` directory, as a bad input."""
    try:
        if out is not None and not Path(out).parent.is_dir():
            raise ValueError(f"--out {out}: {Path(out).parent} is not a directory")
        yield
    except (OSError, ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        raise InputError(f"{prefix}{message}") from None


# ---------------------------------------------------------------------------
# Options: per command, {key: (type, default)}


def _fields(cls, **fields) -> dict:
    """Options backed by fields of ``cls`` (option key -> field name), with the field defaults."""
    return {key: (type(getattr(cls, name)), getattr(cls, name)) for key, name in fields.items()}


_FIT_FIELDS = dict(
    seed="seed", k_max="k_max", em_tolerance="em_tolerance", max_iterations="max_iterations",
    n_restarts="n_restarts", regularization="regularization", bic_mode="bic_penalty_mode",
)
_TRAIN_FIELDS = dict(
    seed="seed", n_trees="n_trees", test_fraction="test_fraction", balance="balance",
    cv_folds="cv_folds", cv_repeats="cv_repeats",
)

OPTIONS = {
    "generate": {"seed": (int, 0), "n": (int, 1000), "grid_count": (int, 0)},
    "corpus": {"seed": (int, 0)},  # recorded, unused: the corpus draws nothing at random
    "train": {
        **_fields(TrainConfig, **_TRAIN_FIELDS),
        **_fields(PreprocessSpec, pca_threshold="pca_variance_threshold"),
        "method": (str, "treebag"),
        "preprocess": (str, "all"),
        "knn_k": (int, 5),
        "cv": (bool, False),
    },
    "score": _fields(FitConfig, **_FIT_FIELDS),
    "rank": {"ascending": (bool, False)},
    "evaluate": {"seed": (int, 0), "mode": (str, "pairwise"), "b": (int, 10000), "k_values": (str, "")},
}


def _parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with _input_errors("cannot read config file: "):
        text = Path(path).read_text()
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}: line {i}: expected key=value")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, raw: str, kind):
    with _input_errors(f"config key {key!r}: "):
        if kind is not bool:
            return kind(raw)
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")


def resolve_config(args: argparse.Namespace, options: dict) -> dict:
    """Merge defaults <- config file <- explicit flags; reject unknown keys."""
    resolved = {key: default for key, (_, default) in options.items()}
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            if key not in options:
                raise InputError(f"unknown config key {key!r}")
            resolved[key] = _coerce(key, raw, options[key][0])
    for key in options:
        if getattr(args, key) is not None:
            resolved[key] = getattr(args, key)
    return resolved


def _write_sidecar(out_path, resolved: dict) -> None:
    lines = [f"{k}={resolved[k]}" for k in sorted(resolved)]
    Path(str(out_path) + ".config.txt").write_text("\n".join(lines) + "\n")


def _config(cls, fields: dict, opts: dict, **extra):
    return cls(**{name: opts[key] for key, name in fields.items()}, **extra)


def _preprocess_spec(opts: dict) -> PreprocessSpec:
    raw = opts["preprocess"]
    if raw == "none":
        steps = ()
    elif raw == "all":
        steps = CANONICAL_STEPS
    else:
        steps = tuple(s.strip() for s in raw.split(",") if s.strip())
    return PreprocessSpec(steps=steps, pca_variance_threshold=opts["pca_threshold"])


# ---------------------------------------------------------------------------
# Commands: each reads its inputs inside one _input_errors() block


def cmd_generate(args, opts) -> int:
    seed, n = opts["seed"], opts["n"]
    with _input_errors():
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if args.params_file:
            param_sets = augment.read_params_csv(args.params_file)
            if "manifest" in dict(param_sets):
                raise ValueError(f"{args.params_file}: id 'manifest' would name the file that holds the manifest")
        elif opts["grid_count"] > 0:
            param_sets = [
                (f"grid{i:04d}", augment.sample_grid_params(spawn_rng(seed, "grid", i)))
                for i in range(opts["grid_count"])
            ]
        else:
            raise ValueError("provide --params-file or --grid-count")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_rows = []
    for i, (plot_id, params) in enumerate(param_sets):
        plot_seed = derive_seed(seed, "plot", i)
        fname = f"{plot_id}.csv"
        gmm.write_scatterplot_csv(out_dir / fname, augment.generate_scatterplot(params, n, plot_seed, plot_id=plot_id))
        manifest_rows.append([plot_id, fname, n, plot_seed, *params.as_vector()])
    manifest = out_dir / "manifest.csv"
    write_csv(manifest, ("id", "file", "n", "seed", *augment.PARAM_COLUMNS), manifest_rows)
    _write_sidecar(manifest, opts)
    print(f"wrote {len(manifest_rows)} scatterplots to {out_dir}")
    return 0


def cmd_corpus(args, opts) -> int:
    with _input_errors(out=args.out):
        result = augment.ingest_benchmark(args.judgments)
        corpus = augment.build_corpus(result.records)
        mergemodel.check_corpus(corpus)
    augment.write_corpus_csv(args.out, corpus)
    report = {
        "input_rows": result.report.n_rows,
        "unique_records": result.report.n_unique,
        "ingest_duplicates": [list(d) for d in result.report.duplicates],
        "corpus_size": len(corpus),
    }
    Path(str(args.out) + ".report.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_sidecar(args.out, opts)
    print(
        f"ingested {result.report.n_rows} rows -> {result.report.n_unique} unique records "
        f"-> corpus of {len(corpus)} labeled pairs"
    )
    return 0


def cmd_train(args, opts) -> int:
    method = opts["method"]
    with _input_errors(out=args.out):
        if method not in ("treebag", "knn", "nb"):
            raise ValueError(f"unknown method {method!r} (expected treebag, knn or nb)")
        if opts["cv"] and method != "treebag":
            raise ValueError("--cv applies only to --method treebag")
        if opts["knn_k"] < 1:
            raise ValueError(f"knn_k must be >= 1, got {opts['knn_k']}")
        config = _config(TrainConfig, _TRAIN_FIELDS, opts, preprocess=_preprocess_spec(opts))
        corpus = augment.read_corpus_csv(args.corpus)
        mergemodel.check_corpus(corpus, config, cv=opts["cv"])

    if method == "treebag":
        model, confusion = mergemodel.train_bagged(corpus, config)
    else:
        confusion = mergemodel.train_baseline(corpus, config, method, knn_k=opts["knn_k"])
    metrics = {
        "method": method,
        "balance": opts["balance"],
        "preprocess": opts["preprocess"],
        "n_records": len(corpus),
        "confusion": dataclasses.asdict(confusion),
        "test_mcc": mergemodel.mcc(confusion),
    }
    if opts["cv"]:
        fold_mcc = mergemodel.cross_validate(corpus, config)
        metrics["cv_mcc_mean"] = sum(fold_mcc) / len(fold_mcc)
        metrics["cv_mcc_values"] = fold_mcc
    if method == "treebag":
        Path(args.out).write_bytes(mergemodel.serialize(model))
    Path(str(args.out)).with_suffix(".metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    _write_sidecar(args.out, opts)
    print(f"{method}: test MCC {metrics['test_mcc']:.4f} ({len(corpus)} records)")
    return 0


def cmd_score(args, opts) -> int:
    with _input_errors(out=args.out):
        fit_config = _config(FitConfig, _FIT_FIELDS, opts)
        merger = mergemodel.deserialize(Path(args.model).read_bytes())
        plots, paths = [], {}
        for path in args.points:  # read every file first, so a bad one fails before any fit
            plots.append(gmm.read_scatterplot_csv(path, plot_id=Path(path).stem))
            if plots[-1].n < 2:
                raise ValueError(f"{path}: model selection needs at least 2 points, got {plots[-1].n}")
            if plots[-1].id in paths:
                raise ValueError(f"{paths[plots[-1].id]} and {path} both give plot id {plots[-1].id!r}")
            paths[plots[-1].id] = path
    scores = [(sp.id, vqm.score_scatterplot(sp, fit_config, merger)) for sp in plots]
    vqm.write_scores_csv(args.out, scores)
    _write_sidecar(args.out, opts)
    print(f"scored {len(scores)} scatterplots -> {args.out}")
    return 0


def cmd_rank(args, opts) -> int:
    with _input_errors(out=args.out):
        scores = vqm.read_scores_csv(args.scores)
    ranked = vqm.rank(scores, ascending=opts["ascending"])
    vqm.write_ranking_csv(args.out, ranked)
    _write_sidecar(args.out, opts)
    print(f"ranked {len(ranked)} scatterplots -> {args.out}")
    return 0


def cmd_evaluate(args, opts) -> int:
    mode, b, seed = opts["mode"], opts["b"], opts["seed"]
    with _input_errors(out=args.out):
        if mode not in ("pairwise", "alteration"):
            raise ValueError(f"unknown mode {mode!r} (expected pairwise or alteration)")
        if b < 1:
            raise ValueError("--b must be >= 1")
        scores = vqm.read_scores_csv(args.scores)
        pairs, group = agreement.read_pair_judgments_csv(args.pairs)
        with _input_errors(f"{args.pairs} against {args.scores}: "):
            relations = agreement.pairwise_relations(scores, pairs)
        if mode == "alteration":
            ks = [s.strip() for s in opts["k_values"].split(",") if s.strip()]
            if not ks:
                raise ValueError("alteration mode needs --k-values (comma-separated)")
            if not all(s.isdigit() and int(s) <= len(relations) for s in ks):
                raise ValueError(f"--k-values must be integers in [0, {len(relations)}], got {opts['k_values']!r}")
            ks = [int(s) for s in ks]

    if mode == "pairwise":
        isolated = agreement.IsolatedRatings(votes=tuple(relations))
        point = agreement.vanbelle_kappa(group, isolated)
        boot = agreement.bootstrap_kappa(group, isolated, b, seed)
        report = {
            "mode": "pairwise",
            "n_pairs": len(pairs),
            "n_raters": group.raters,
            "kappa": point.kappa,
            "observed_agreement": point.observed_agreement,
            "expected_agreement": point.expected_agreement,
            "label": point.label,
            "bootstrap": {
                "b": boot.b,
                "seed": seed,
                "mean": boot.mean,
                "sd": boot.sd,
                "min": boot.min,
                "max": boot.max,
                "percentiles": {str(k): v for k, v in boot.percentiles.items()},
            },
        }
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"kappa {point.kappa:.4f} ({point.label}) over {len(pairs)} pairs")
    else:
        curve = agreement.alteration_curve(relations, group, ks, b, seed)
        write_csv(args.out, ("k", "mean", "sd", "min", "max"), ((p.k, p.mean, p.sd, p.min, p.max) for p in curve))
        print(f"alteration curve over k={ks} -> {args.out}")
    _write_sidecar(args.out, opts)
    return 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterscore",
        description="Score and rank 2D scatterplots by perceived cluster complexity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        for key, (kind, default) in OPTIONS[name].items():
            how = {"action": "store_true", "default": None} if kind is bool else {"type": kind}
            p.add_argument("--" + key.replace("_", "-"), help=f"default: {default!r}", **how)
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)
        return p

    command("generate", cmd_generate, "sample synthetic two-component scatterplots").add_argument(
        "--params-file", help="CSV of id and generator parameters, one plot per row"
    )
    command("corpus", cmd_corpus, "build the augmented training corpus from judgments").add_argument(
        "judgments", help="judged-benchmark CSV"
    )
    command("train", cmd_train, "train the merging classifier").add_argument(
        "corpus", help="corpus CSV from the corpus command"
    )
    p = command("score", cmd_score, "score scatterplot CSV files")
    p.add_argument("points", nargs="+", help="x,y CSV files")
    p.add_argument("--model", required=True, help="serialized merging model")
    command("rank", cmd_rank, "order a scores CSV").add_argument("scores")
    p = command("evaluate", cmd_evaluate, "agreement with a group of raters")
    p.add_argument("--scores", required=True)
    p.add_argument("--pairs", required=True, help="idA,idB,vote_1..vote_R CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, resolve_config(args, OPTIONS[args.command]))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal numeric failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
