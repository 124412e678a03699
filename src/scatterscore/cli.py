"""Command-line surface: generate, corpus, train, score, rank, evaluate.

Every command is deterministic given its resolved configuration, which is
recorded in a ``<out>.config.txt`` sidecar.  Options may come from a flat
key=value config file (``--config``); explicit flags override file
values.  Exit codes: 0 success, 1 internal numeric failure, 2 input or
usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import agreement, augment, gmm, mergemodel, vqm
from .preprocess import CANONICAL_STEPS, PreprocessSpec
from .util import derive_seed, spawn_rng, write_csv


class InputError(Exception):
    """Bad input file or usage; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config resolution


def _parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from None
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
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise InputError(f"config key {key!r}: {exc}") from None


def resolve_config(args: argparse.Namespace, schema: dict) -> dict:
    """Merge defaults <- config file <- explicit flags; reject unknown keys."""
    resolved = {key: default for key, (_, default) in schema.items()}
    if getattr(args, "config", None):
        for key, raw in _parse_config_file(args.config).items():
            if key not in schema:
                raise InputError(f"unknown config key {key!r}")
            resolved[key] = _coerce(key, raw, schema[key][0])
    for key in schema:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


def _write_sidecar(out_path, resolved: dict) -> None:
    lines = [f"{k}={resolved[k]}" for k in sorted(resolved)]
    Path(str(out_path) + ".config.txt").write_text("\n".join(lines) + "\n")


def _preprocess_spec(resolved: dict) -> PreprocessSpec:
    raw = resolved["preprocess"]
    if raw == "none":
        steps = ()
    elif raw == "all":
        steps = CANONICAL_STEPS
    else:
        steps = tuple(s.strip() for s in raw.split(",") if s.strip())
    try:
        return PreprocessSpec(steps=steps, pca_variance_threshold=resolved["pca_threshold"])
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _fit_config(resolved: dict) -> gmm.FitConfig:
    try:
        return gmm.FitConfig(
            k_max=resolved["k_max"],
            em_tolerance=resolved["em_tolerance"],
            max_iterations=resolved["max_iterations"],
            n_restarts=resolved["n_restarts"],
            regularization=resolved["regularization"],
            seed=resolved["seed"],
            bic_penalty_mode=resolved["bic_mode"],
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ---------------------------------------------------------------------------
# Commands

_FIT_SCHEMA = {
    "seed": (int, 0),
    "k_max": (int, 10),
    "em_tolerance": (float, 1e-8),
    "max_iterations": (int, 500),
    "n_restarts": (int, 5),
    "regularization": (float, 1e-6),
    "bic_mode": (str, "free_parameter_count"),
}


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--em-tolerance", dest="em_tolerance", type=float)
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--n-restarts", dest="n_restarts", type=int)
    p.add_argument("--regularization", type=float)
    p.add_argument("--bic-mode", dest="bic_mode", choices=["component_count", "free_parameter_count"])


def cmd_generate(args) -> int:
    schema = {"seed": (int, 0), "n": (int, 1000), "grid_count": (int, 0)}
    resolved = resolve_config(args, schema)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.params_file:
        try:
            param_sets = augment.read_params_csv(args.params_file)
        except (OSError, ValueError) as exc:
            raise InputError(str(exc)) from None
    elif resolved["grid_count"] > 0:
        param_sets = []
        for i in range(resolved["grid_count"]):
            rng = spawn_rng(resolved["seed"], "grid", i)
            param_sets.append((f"grid{i:04d}", augment.sample_grid_params(rng)))
    else:
        raise InputError("provide --params-file or --grid-count")

    manifest_rows = []
    for i, (plot_id, params) in enumerate(param_sets):
        plot_seed = derive_seed(resolved["seed"], "plot", i)
        try:
            sp = augment.generate_scatterplot(params, resolved["n"], plot_seed, plot_id=plot_id)
        except ValueError as exc:
            raise InputError(f"parameter set {plot_id!r}: {exc}") from None
        fname = f"{plot_id}.csv"
        gmm.write_scatterplot_csv(out_dir / fname, sp)
        manifest_rows.append([plot_id, fname, resolved["n"], plot_seed, *params.as_vector()])

    manifest = out_dir / "manifest.csv"
    write_csv(manifest, ("id", "file", "n", "seed", *augment.PARAM_COLUMNS), manifest_rows)
    _write_sidecar(manifest, resolved)
    print(f"wrote {len(manifest_rows)} scatterplots to {out_dir}")
    return 0


def cmd_corpus(args) -> int:
    resolved = resolve_config(args, {"seed": (int, 0)})
    try:
        result = augment.ingest_benchmark(args.judgments)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    corpus = augment.build_corpus(result.records)
    augment.write_corpus_csv(args.out, corpus)
    report = {
        "input_rows": result.report.n_rows,
        "unique_records": result.report.n_unique,
        "ingest_duplicates": [list(d) for d in result.report.duplicates],
        "corpus_size": len(corpus),
    }
    Path(str(args.out) + ".report.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_sidecar(args.out, resolved)
    print(
        f"ingested {result.report.n_rows} rows -> {result.report.n_unique} unique records "
        f"-> corpus of {len(corpus)} labeled pairs"
    )
    return 0


_TRAIN_SCHEMA = {
    "seed": (int, 0),
    "method": (str, "treebag"),
    "n_trees": (int, 25),
    "test_fraction": (float, 0.2),
    "balance": (str, "up_sample"),
    "preprocess": (str, "all"),
    "pca_threshold": (float, 0.95),
    "knn_k": (int, 5),
    "cv": (bool, False),
    "cv_folds": (int, 10),
    "cv_repeats": (int, 10),
}


def cmd_train(args) -> int:
    resolved = resolve_config(args, _TRAIN_SCHEMA)
    try:
        corpus = augment.read_corpus_csv(args.corpus)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    try:
        config = mergemodel.TrainConfig(
            n_trees=resolved["n_trees"],
            test_fraction=resolved["test_fraction"],
            balance=resolved["balance"],
            preprocess=_preprocess_spec(resolved),
            cv_folds=resolved["cv_folds"],
            cv_repeats=resolved["cv_repeats"],
            seed=resolved["seed"],
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None

    method = resolved["method"]
    if method == "treebag":
        model, confusion = mergemodel.train_bagged(corpus, config)
        Path(args.out).write_bytes(mergemodel.serialize(model))
    elif method in ("knn", "nb"):
        _, confusion = mergemodel.train_baseline(corpus, config, method, knn_k=resolved["knn_k"])
    else:
        raise InputError(f"unknown method {method!r} (expected treebag, knn or nb)")

    metrics = {
        "method": method,
        "balance": resolved["balance"],
        "preprocess": resolved["preprocess"],
        "n_records": len(corpus),
        "confusion": {
            "tp": confusion.tp,
            "tn": confusion.tn,
            "fp": confusion.fp,
            "fn": confusion.fn,
        },
        "test_mcc": mergemodel.mcc(confusion),
    }
    if resolved["cv"] and method == "treebag":
        fold_mcc = mergemodel.cross_validate(corpus, config)
        metrics["cv_mcc_mean"] = sum(fold_mcc) / len(fold_mcc)
        metrics["cv_mcc_values"] = fold_mcc
    metrics_path = Path(str(args.out)).with_suffix(".metrics.json")
    metrics_path.write_text(json.dumps(metrics, indent=2) + "\n")
    _write_sidecar(args.out, resolved)
    print(f"{method}: test MCC {metrics['test_mcc']:.4f} ({len(corpus)} records)")
    return 0


def cmd_score(args) -> int:
    resolved = resolve_config(args, dict(_FIT_SCHEMA))
    fit_config = _fit_config(resolved)
    try:
        merger = mergemodel.deserialize(Path(args.model).read_bytes())
    except OSError as exc:
        raise InputError(str(exc)) from None
    except mergemodel.ModelFormatError as exc:
        raise InputError(str(exc)) from None
    scores = []
    for path in args.points:
        plot_id = Path(path).stem
        try:
            sp = gmm.read_scatterplot_csv(path, plot_id=plot_id)
        except (OSError, ValueError) as exc:
            raise InputError(str(exc)) from None
        scores.append((plot_id, vqm.score_scatterplot(sp, fit_config, merger)))
    vqm.write_scores_csv(args.out, scores)
    _write_sidecar(args.out, resolved)
    print(f"scored {len(scores)} scatterplots -> {args.out}")
    return 0


def cmd_rank(args) -> int:
    resolved = resolve_config(args, {"ascending": (bool, False)})
    try:
        scores = vqm.read_scores_csv(args.scores)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    ranked = vqm.rank(scores, ascending=resolved["ascending"])
    vqm.write_ranking_csv(args.out, ranked)
    _write_sidecar(args.out, resolved)
    print(f"ranked {len(ranked)} scatterplots -> {args.out}")
    return 0


_EVAL_SCHEMA = {
    "seed": (int, 0),
    "mode": (str, "pairwise"),
    "b": (int, 10000),
    "k_values": (str, ""),
}


def cmd_evaluate(args) -> int:
    resolved = resolve_config(args, _EVAL_SCHEMA)
    try:
        scores = vqm.read_scores_csv(args.scores)
        pairs, group = agreement.read_pair_judgments_csv(args.pairs)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    try:
        relations = agreement.pairwise_relations(scores, pairs)
    except KeyError as exc:
        raise InputError(str(exc.args[0])) from None

    if resolved["b"] < 1:
        raise InputError("--b must be >= 1")
    mode = resolved["mode"]
    if mode == "pairwise":
        isolated = agreement.IsolatedRatings(votes=tuple(relations))
        point = agreement.vanbelle_kappa(group, isolated)
        boot = agreement.bootstrap_kappa(group, isolated, resolved["b"], resolved["seed"])
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
                "seed": resolved["seed"],
                "mean": boot.mean,
                "sd": boot.sd,
                "min": boot.min,
                "max": boot.max,
                "percentiles": {str(k): v for k, v in boot.percentiles.items()},
            },
        }
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"kappa {point.kappa:.4f} ({point.label}) over {len(pairs)} pairs")
    elif mode == "alteration":
        if not resolved["k_values"]:
            raise InputError("alteration mode needs --k-values (comma-separated)")
        try:
            ks = [int(s) for s in resolved["k_values"].split(",") if s.strip()]
        except ValueError as exc:
            raise InputError(f"bad --k-values: {exc}") from None
        try:
            curve = agreement.alteration_curve(relations, group, ks, resolved["b"], resolved["seed"])
        except ValueError as exc:
            raise InputError(str(exc)) from None
        rows = ((pt.k, pt.mean, pt.sd, pt.min, pt.max) for pt in curve)
        write_csv(args.out, ("k", "mean", "sd", "min", "max"), rows)
        print(f"alteration curve over k={ks} -> {args.out}")
    else:
        raise InputError(f"unknown mode {mode!r} (expected pairwise or alteration)")
    _write_sidecar(args.out, resolved)
    return 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterscore",
        description="Score and rank 2D scatterplots by perceived cluster complexity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--out", required=True)

    p = sub.add_parser("generate", help="sample synthetic two-component scatterplots")
    p.add_argument("--params-file", dest="params_file")
    p.add_argument("--grid-count", dest="grid_count", type=int)
    p.add_argument("--n", type=int, help="points per scatterplot")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("corpus", help="build the augmented training corpus from judgments")
    p.add_argument("judgments", help="judged-benchmark CSV")
    common(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("train", help="train the merging classifier")
    p.add_argument("corpus", help="corpus CSV from the corpus command")
    p.add_argument("--method", choices=["treebag", "knn", "nb"])
    p.add_argument("--n-trees", dest="n_trees", type=int)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--balance", choices=list(mergemodel.BALANCE_METHODS))
    p.add_argument("--preprocess", help="'all', 'none', or comma-separated steps")
    p.add_argument("--pca-threshold", dest="pca_threshold", type=float)
    p.add_argument("--knn-k", dest="knn_k", type=int)
    p.add_argument("--cv", action="store_const", const=True, default=None)
    p.add_argument("--cv-folds", dest="cv_folds", type=int)
    p.add_argument("--cv-repeats", dest="cv_repeats", type=int)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score scatterplot CSV files")
    p.add_argument("points", nargs="+", help="x,y CSV files")
    p.add_argument("--model", required=True, help="serialized merging model")
    _add_fit_flags(p)
    common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("rank", help="order a scores CSV")
    p.add_argument("scores")
    p.add_argument("--ascending", action="store_const", const=True, default=None)
    common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="agreement with a group of raters")
    p.add_argument("--scores", required=True)
    p.add_argument("--pairs", required=True, help="idA,idB,vote_1..vote_R CSV")
    p.add_argument("--mode", choices=["pairwise", "alteration"])
    p.add_argument("--b", type=int, help="bootstrap / alteration replicates")
    p.add_argument("--k-values", dest="k_values", help="comma-separated alteration counts")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal numeric failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
