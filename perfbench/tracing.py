"""Spans and counters around scatterscore's public functions.

``Tracer.install`` replaces each function listed in ``TRACED`` with a
timing wrapper.  It rebinds the name in the defining module and in every
scatterscore module that imported the function by name (``vqm.select_model``,
``agreement.spawn_rng``, ...), so nested calls give nested spans.
``Tracer.uninstall`` puts every original back.  Spans stay in memory until
``write_spans`` is called at the end of the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute) of every traced function.  Counted functions get a
# call counter and no span: they are called tens of thousands of times.
TRACED = (
    ("gmm", "select_model"),
    ("gmm", "fit_em"),
    ("gmm", "fit_em_with_trace"),
    ("gmm", "read_scatterplot_csv"),
    ("pairspace", "aligned_pair_from_model"),
    ("vqm", "score_scatterplot"),
    ("vqm", "build_merge_matrix"),
    ("vqm", "count_components"),
    ("vqm", "write_scores_csv"),
    ("mergemodel", "train_bagged"),
    ("mergemodel", "cross_validate"),
    ("mergemodel", "up_sample"),
    ("mergemodel", "down_sample"),
    ("mergemodel", "predict"),
    ("mergemodel", "serialize"),
    ("mergemodel", "deserialize"),
    ("preprocess", "fit_preprocess"),
    ("preprocess", "FittedPreprocess.apply_matrix"),
    ("trees", "fit_bagged_trees"),
    ("trees", "grow_tree"),
    ("trees", "ensemble_vote_fraction"),
    ("augment", "generate_scatterplot"),
    ("augment", "ingest_benchmark"),
    ("augment", "build_corpus"),
    ("augment", "replicate"),
    ("augment", "write_corpus_csv"),
    ("augment", "read_corpus_csv"),
    ("agreement", "pairwise_relations"),
    ("agreement", "vanbelle_kappa"),
    ("agreement", "bootstrap_kappa"),
    ("agreement", "alteration_curve"),
    ("agreement", "alter_decisions"),
)
COUNTED = (("util", "spawn_rng"), ("util", "derive_seed"))

FIT_KS = tuple(range(1, 11))
ALTERATION_KS = (1, 5, 10, 50)

# Span name -> per-layer metric holding the summed duration of its spans.
TIME_METRICS = {
    "gmm.select_model": "gmm.select_model_s",
    "gmm.read_scatterplot_csv": "gmm.read_csv_s",
    "vqm.build_merge_matrix": "vqm.merge_matrix_s",
    "pairspace.aligned_pair_from_model": "pairspace.aligned_pair_s",
    "vqm.count_components": "vqm.count_components_s",
    "vqm.write_scores_csv": "vqm.write_scores_s",
    "mergemodel.predict": "mergemodel.predict_s",
    "mergemodel.deserialize": "mergemodel.deserialize_s",
    "mergemodel.train_bagged": "mergemodel.train_bagged_s",
    "mergemodel.cross_validate": "mergemodel.cross_validate_s",
    "mergemodel.up_sample": "mergemodel.balance_s",
    "mergemodel.down_sample": "mergemodel.balance_s",
    "mergemodel.serialize": "mergemodel.serialize_s",
    "preprocess.fit_preprocess": "preprocess.fit_s",
    "preprocess.FittedPreprocess.apply_matrix": "preprocess.apply_s",
    "trees.fit_bagged_trees": "trees.fit_bagged_s",
    "trees.ensemble_vote_fraction": "trees.vote_s",
    "augment.ingest_benchmark": "augment.ingest_s",
    "augment.build_corpus": "augment.build_corpus_s",
    "augment.write_corpus_csv": "augment.write_corpus_s",
    "augment.read_corpus_csv": "augment.read_corpus_s",
    "augment.generate_scatterplot": "augment.generate_s",
    "agreement.pairwise_relations": "agreement.relations_s",
    "agreement.vanbelle_kappa": "agreement.vanbelle_kappa_s",
    "agreement.bootstrap_kappa": "agreement.bootstrap_kappa_s",
    "agreement.alteration_curve": "agreement.alteration_curve_s",
}
LAYERS = ("cli", "gmm", "pairspace", "vqm", "mergemodel", "preprocess", "trees", "augment", "agreement")

COUNT_METRICS = (
    "gmm.em_iterations",
    "gmm.em_restarts",
    "gmm.em_cap_hits",
    "gmm.restart_failures",
    "gmm.k_fitted",
    "mergemodel.predict_calls",
    "mergemodel.model_bytes",
    "trees.trees_grown",
    "trees.nodes",
    "augment.corpus_rows",
    "agreement.kappa_evals",
    "util.spawn_rng_calls",
    "util.derive_seed_calls",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_fit(counts, args, kwargs, result):
    """Restart, iteration and cap counts from the traces fit_em_with_trace returns."""
    config = _arg(args, kwargs, 2, "config")
    traces = result[1]
    counts["gmm.em_restarts"] += config.n_restarts
    counts["gmm.restart_failures"] += config.n_restarts - len(traces)
    for trace in traces:
        # A trace holds the log-likelihood before the first M-step and after each one.
        iterations = len(trace) - 1
        counts["gmm.em_iterations"] += iterations
        counts["gmm.em_cap_hits"] += iterations >= config.max_iterations


def _count_failed_fit(counts, args, kwargs):
    """fit_em_with_trace raises when every restart failed."""
    n_restarts = _arg(args, kwargs, 2, "config").n_restarts
    counts["gmm.em_restarts"] += n_restarts
    counts["gmm.restart_failures"] += n_restarts


def _count_tree(counts, args, kwargs, tree):
    counts["trees.trees_grown"] += 1
    counts["trees.nodes"] += tree.n_nodes


def _add(key, amount=lambda args, kwargs, result: 1):
    def hook(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)

    return hook


# Span name -> hook(counts, args, kwargs, result), run when the call returns.
_HOOKS = {
    "gmm.fit_em_with_trace": _count_fit,
    "gmm.fit_em": _add("gmm.k_fitted"),
    "mergemodel.predict": _add("mergemodel.predict_calls"),
    "mergemodel.serialize": _add("mergemodel.model_bytes", lambda a, k, model_bytes: len(model_bytes)),
    "trees.grow_tree": _count_tree,
    "augment.build_corpus": _add("augment.corpus_rows", lambda a, k, corpus: len(corpus)),
    "augment.replicate": _add("augment.replicas_emitted", lambda a, k, replicas: len(replicas)),
    "agreement.vanbelle_kappa": _add("agreement.kappa_evals"),
    "agreement.bootstrap_kappa": _add("agreement.kappa_evals", lambda a, k, summary: summary.b),
    "agreement.alteration_curve": _add(
        "agreement.kappa_evals", lambda a, k, curve: len(curve) * _arg(a, k, 3, "b")
    ),
}
# Span name -> hook(counts, args, kwargs), run when the call raises.
_RAISE_HOOKS = {"gmm.fit_em_with_trace": _count_failed_fit}
# Span name -> position and keyword of the argument kept as the span's tag.
_TAGS = {"gmm.fit_em": (1, "k"), "agreement.alter_decisions": (1, "k")}


class Tracer:
    """Records spans ``[name, start, end, parent, tag, op]`` for one run.

    ``parent`` is the index of the enclosing span (-1 at top level) and
    ``op`` the number of the CLI command the span belongs to.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, tag=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, tag, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        hook, raise_hook = _HOOKS.get(name), _RAISE_HOOKS.get(name)
        tag_pos, tag_name = _TAGS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = _arg(args, kwargs, tag_pos, tag_name) if tag_pos is not None else None
            index = self.begin(name, tag)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if raise_hook:
                    raise_hook(self.counts, args, kwargs)
                raise
            finally:
                self.end(index)
            if hook:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.perfbench_span = name
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.perfbench_span = name
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = scatterscore_modules()
        for (mod_name, attr), counted in [(t, False) for t in TRACED] + [(t, True) for t in COUNTED]:
            owner = modules["scatterscore." + mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            name = f"{mod_name}.{attr}"
            wrapper = (self._count_wrapper if counted else self._span_wrapper)(name, original)
            self._rebind(owner, leaf, original, wrapper)
            if not path:
                for other in modules.values():
                    if other is not owner and getattr(other, leaf, None) is original:
                        self._rebind(other, leaf, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: summed span times, counts and ratios."""
        totals: Counter = Counter()
        for name, start, end, _, _, _ in self.spans:
            if name in TIME_METRICS:
                totals[TIME_METRICS[name]] += end - start
        out = {name: (float(totals[name]), "s") for name in sorted(set(TIME_METRICS.values()))}

        fit_k: Counter = Counter()
        fit_total = 0.0
        for name, start, end, _, tag, _ in self.spans:
            if name == "gmm.fit_em":
                fit_k[tag] += end - start
            elif name == "gmm.fit_em_with_trace":
                fit_total += end - start
        for k in FIT_KS:
            out[f"gmm.fit_em_s.k{k}"] = (float(fit_k[k]), "s")
        iterations = self.counts["gmm.em_iterations"]
        out["gmm.iter_s"] = (fit_total / iterations if iterations else 0.0, "s")

        for k, seconds in self._alteration_times().items():
            out[f"agreement.alteration_s.k{k}"] = (seconds, "s")

        for name in COUNT_METRICS:
            out[name] = (self.counts[name], "count")
        restarts = self.counts["gmm.em_restarts"]
        converged = restarts - self.counts["gmm.restart_failures"] - self.counts["gmm.em_cap_hits"]
        out["gmm.em_converged_frac"] = (converged / restarts if restarts else 0.0, "ratio")
        emitted = self.counts["augment.replicas_emitted"]
        out["augment.replicas_kept_frac"] = (
            self.counts["augment.corpus_rows"] / emitted if emitted else 0.0,
            "ratio",
        )

        layer_self: Counter = Counter()
        for (name, *_), own in zip(self.spans, self.self_times()):
            layer_self[name.split(".", 1)[0]] += own
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (float(layer_self[layer]), "s")
        return out

    def _alteration_times(self) -> dict[int, float]:
        """Time inside ``alteration_curve`` per k: from the first
        ``alter_decisions`` call with that k to the first with the next k,
        or to the end of the curve."""
        blocks: dict[int, list[tuple[int, float]]] = {}
        for name, start, _, parent, tag, _ in self.spans:
            if name == "agreement.alter_decisions" and parent >= 0:
                if self.spans[parent][0] == "agreement.alteration_curve":
                    block = blocks.setdefault(parent, [])
                    if not block or block[-1][0] != tag:
                        block.append((tag, start))
        per_k: Counter = Counter()
        for curve, block in blocks.items():
            ends = [start for _, start in block[1:]] + [self.spans[curve][2]]
            for (k, start), end in zip(block, ends):
                per_k[k] += end - start
        return {k: float(per_k[k]) for k in ALTERATION_KS}

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, self time, parent,
        run id, op number and tag; times in seconds."""
        own = self.self_times()
        with open(path, "w") as fh:
            for (name, start, end, parent, tag, op), self_s in zip(self.spans, own):
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "self_s": self_s,
                    "parent": parent,
                    "run": self.run_id,
                    "op": op,
                }
                if tag is not None:
                    record["tag"] = tag
                fh.write(json.dumps(record) + "\n")


def scatterscore_modules() -> dict[str, object]:
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "scatterscore" or name.startswith("scatterscore.")
    }

