"""K* against a 40-restart reference: how often the production sweep misses the BIC-best K.

The reference K* of a plot is the K of the best BIC over K = 1..10, each K fitted with 40 restarts
(``seed=99``) that all run to the tolerance or the cap: no patience and no bar.  Production is ``select_model``
with the default ``FitConfig`` at seeds 0-5, run as one batch per seed (``select_models``, which gives each
plot what ``select_model`` gives it).  The plots are the 7 seed-0 benchmark plots (``score-batch`` and
``score-pixel``) and the 60 ``sweeps.json`` blob plots, 402 (plot, seed) cases.

A miss is a case whose K* differs from the reference's, an over-fit a miss above it, and a plot is
seed-dependent when its K* differs between seeds.  The script prints each miss, each seed-dependent plot
and the counts, and exits 1 when the counts or the seed-0 misses differ from ``EXPECTED``: a change to the
seeding or to the sweep that moves them must say so and commit the new values.

    PYTHONPATH=src python tests/kstar_reference.py     # about two minutes
"""
import math
import sys
import tempfile
from pathlib import Path

from scatterscore.gmm import DegenerateCovarianceError, FitConfig, bic_value, fit_em, read_scatterplot_csv
from scatterscore.gmm import select_models

from conftest import write_benchmark_plots
from test_golden import SWEEP_SEEDS, sweep_plot

REFERENCE = FitConfig(n_restarts=40, seed=99)
SEEDS = range(6)
EXPECTED = {
    "cases": 402,
    "misses": 26,
    "one K too few": 25,
    "over-fits": 1,
    "seed-dependent plots": 4,
    "seed-0 misses": ["blob1003", "blob1032", "blob1033", "blob1034", "blob1047"],
}


def reference_k_star(plot) -> int:
    """The K of the best BIC over K = 1..``k_max``, each K the best of ``REFERENCE.n_restarts`` unbarred
    restarts; a K whose restarts all fail is left out."""
    best_k, best_bic = 0, -math.inf
    for k in range(1, REFERENCE.k_max + 1):
        try:
            model = fit_em(plot, k, REFERENCE)
        except DegenerateCovarianceError:
            continue
        bic = bic_value(model.log_likelihood, k, plot.n, REFERENCE.bic_penalty_mode)
        if bic > best_bic:
            best_k, best_bic = k, bic
    return best_k


def plots() -> dict:
    with tempfile.TemporaryDirectory() as d:
        paths = write_benchmark_plots(Path(d))
        benchmark = {path.stem: read_scatterplot_csv(path) for path in [*paths["batch"], *paths["pixel"]]}
    return {**benchmark, **{f"blob{seed}": sweep_plot(seed) for seed in SWEEP_SEEDS}}


def main() -> int:
    named = plots()
    reference = {name: reference_k_star(plot) for name, plot in named.items()}
    production = {seed: dict(zip(named, (r.k_star for r in select_models(list(named.values()), FitConfig(seed=seed)))))
                  for seed in SEEDS}
    misses = [(name, seed, k_stars[name]) for seed, k_stars in production.items() for name in named
              if k_stars[name] != reference[name]]
    for name, seed, k_star in misses:
        print(f"{name} seed {seed}: K*={k_star}, reference K*={reference[name]}")
    dependent = [name for name in named if len({production[seed][name] for seed in SEEDS}) > 1]
    for name in dependent:
        print(f"{name}: K* {[production[seed][name] for seed in SEEDS]} at seeds 0-5, reference {reference[name]}")
    found = {
        "cases": len(named) * len(SEEDS),
        "misses": len(misses),
        "one K too few": sum(k_star == reference[name] - 1 for name, _, k_star in misses),
        "over-fits": sum(k_star > reference[name] for name, _, k_star in misses),
        "seed-dependent plots": len(dependent),
        "seed-0 misses": [name for name, seed, _ in misses if seed == 0],
    }
    for key, value in found.items():
        print(f"{key}: {value}" + ("" if value == EXPECTED[key] else f", expected {EXPECTED[key]}"))
    return 0 if found == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
