"""The sweep oracle: ``select_model`` against the exhaustive sweep.

K* is defined by the exhaustive sweep: every K from 1 to ``k_max``, with every restart run to the tolerance
or the cap (``test_gmm.unbarred_sweep`` with ``gmm.BIC_PATIENCE`` = ``k_max``).  ``select_model`` takes two
shortcuts: the patience stop and the projected stop.  On each plot, with the default ``FitConfig``, the two
sweeps must select the same K*, the same model and the same BIC, and every K that ``select_model`` lists as a
hit (a BIC above the best before it) must have the exhaustive sweep's BIC.  ``EXCEPTIONS`` lists the known
deviations by plot, each with its size.

Tier-1 runs the 12 plots of ``TIER1``.  ``PYTHONPATH=src python tests/test_sweep_oracle.py`` runs all of
``PLOTS`` (101 plots, under a minute) and exits 1 on any deviation not listed; it also checks that
``select_models`` over all of them gives each plot what ``select_model`` gives it, bit for bit.
"""
import math
import sys

import numpy as np
import pytest

from scatterscore import augment, gmm
from scatterscore.gmm import FitConfig, Scatterplot, select_model, select_models
from scatterscore.util import spawn_rng

from test_golden import _snapped_plot, sweep_plot
from test_gmm import fit_bits, unbarred_sweep


def grid_plot(seed: int) -> Scatterplot:
    """A two-component plot of 300 points from the generator grid, as ``scatterscore generate --grid-count``
    draws its parameters."""
    return augment.generate_scatterplot(augment.sample_grid_params(spawn_rng(seed, "grid", 0)), 300, seed)


def lattice_plot(seed: int) -> Scatterplot:
    """``grid_plot(seed)`` snapped to a 40x40 lattice spanning its points, so that many points repeat."""
    X = grid_plot(seed).points
    lo, hi = X.min(axis=0), X.max(axis=0)
    return Scatterplot(np.round((X - lo) / (hi - lo) * 39))


PLOTS = {
    **{f"blob{seed}": (sweep_plot, seed) for seed in range(1000, 1060)},
    **{f"grid{seed}": (grid_plot, seed) for seed in range(20)},
    **{f"lattice{seed}": (lattice_plot, seed) for seed in range(20)},
    "snapped": (lambda _: _snapped_plot(), None),
}
TIER1 = [*(f"blob{seed}" for seed in (1000, 1001, 1002, 1003)), *(f"grid{seed}" for seed in range(4)),
         *(f"lattice{seed}" for seed in range(4))]

EXCEPTIONS = {
    # Late climbs: every K=4 restart stops under K=3's bar, and without the bar a K=4 restart climbs past it
    # after M-step 50 (blob1003: restart 4 from L = -1368.2 at M-step 50 to -1355.2).
    "blob1003": ["K*=3, exhaustive K*=4", "selected BIC -4e+00"],
    "blob1047": ["K*=3, exhaustive K*=4", "selected BIC -7e+00"],
    # The lattice artefact (ROADMAP item 3): the exhaustive sweep's K* has a component on a few lattice points
    # in a line, with a variance at the regularization floor or, on lattice14, on a diagonal with a
    # determinant near 0, and a BIC that the patience and the projected stop never reach.
    "lattice1": ["K*=2, exhaustive K*=6", "selected BIC -2e+01"],
    "lattice2": ["K*=2, exhaustive K*=5", "selected BIC -2e+02"],
    "lattice3": ["K*=2, exhaustive K*=5", "selected BIC -3e+01"],
    "lattice9": ["K*=2, exhaustive K*=6", "selected BIC -2e+02"],
    "lattice11": ["K*=2, exhaustive K*=10", "selected BIC -4e+02"],
    "lattice14": ["K*=2, exhaustive K*=3", "selected BIC -2e+01"],
    "lattice16": ["K*=1, exhaustive K*=7", "selected BIC -6e+01"],
    "lattice18": ["K*=2, exhaustive K*=9", "selected BIC -7e+02"],
    "snapped": ["K*=2, exhaustive K*=10", "selected BIC -2e+02"],
}


def deviations(monkeypatch, plot: Scatterplot) -> list[str]:
    """How ``select_model`` deviates from the exhaustive sweep on ``plot``, as messages with their sizes."""
    config = FitConfig()
    res = select_model(plot, config)
    with monkeypatch.context() as patch:
        patch.setattr(gmm, "BIC_PATIENCE", config.k_max)
        full = unbarred_sweep(patch, plot, config)
    found = []
    if res.k_star != full.k_star:
        found.append(f"K*={res.k_star}, exhaustive K*={full.k_star}")
    elif res.model != full.model:
        found.append(f"K*={res.k_star}: another model")
    exhaustive, best = dict(full.per_k_bic), -math.inf
    for k, bic in res.per_k_bic:
        if bic > best:
            best = bic
            if bic != exhaustive[k]:
                found.append(f"k={k}: BIC {bic - exhaustive[k]:+.0e}")
    if res.bic != full.bic:
        found.append(f"selected BIC {res.bic - full.bic:+.0e}")
    return found


@pytest.mark.parametrize("name", TIER1)
def test_select_model_matches_the_exhaustive_sweep(monkeypatch, name):
    make, seed = PLOTS[name]
    assert deviations(monkeypatch, make(seed)) == EXCEPTIONS.get(name, [])


def main() -> int:
    unexpected = 0
    plots = {name: make(seed) for name, (make, seed) in PLOTS.items()}
    batch = dict(zip(plots, select_models(list(plots.values()), FitConfig())))
    for name, plot in plots.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            found = deviations(monkeypatch, plot)
        if fit_bits(batch[name]) != fit_bits(select_model(plot, FitConfig())):
            found.append("select_models differs from select_model")
        expected = EXCEPTIONS.get(name, [])
        if found != expected:
            unexpected += 1
            print(f"{name}: {found}, expected {expected}")
    print(f"{len(PLOTS)} plots, {unexpected} with unexpected deviations")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
