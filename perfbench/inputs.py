"""Seeded inputs for the scatterscore benchmark.

Everything the program reads in a benchmark run is written from the run's
seed, so the same seed always gives byte-identical files.  The seed draws
the points of plots whose shapes are fixed, and the scores and pair
judgments; the judged-benchmark CSV is one fixed set.  Two-component grid
plots come from the package's own generator (``scatterscore generate``);
blob mixtures, pixel snapping, judged CSVs, scores and pair judgments have
no generator in the package and are made here with numpy alone.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

PLOT_N = 500
PIXEL_N = 4000
PIXEL_GRID = 100
JUDGE_VOTES = 20
EVAL_PLOTS = 30
EVAL_RATERS = 15

# Generator parameter grid of the judged scatterplots; mirrors
# ``augment.GENERATOR_GRID`` so the inputs do not move when that module does.
_GRID = {
    "tau": (0.1, 0.2, 0.3, 0.4, 0.5),
    "mu": (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0),
    "sigma": (0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
    "theta": (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2),
}
_PARAM_COLUMNS = ("tau", "mu", "sigma_ux", "sigma_uy", "sigma_vx", "sigma_vy", "theta_u", "theta_v")

# Fixed two-component shapes from that grid, in _PARAM_COLUMNS order.  As
# with the blob layouts, the seed draws the points, not the shape.
GRID_SHAPES = {
    "grid0": (0.3, 2.0, 1.0, 2.0, 1.5, 0.5, math.pi / 8, math.pi / 2),
    "grid1": (0.5, 8.0, 2.0, 1.0, 1.0, 1.5, math.pi / 4, 0.0),
}
PIXEL_SHAPES = {"pixel0": (0.4, 5.0, 1.5, 1.0, 2.0, 1.0, 3 * math.pi / 8, math.pi / 8)}

# Stream tags keep the draws for each kind of input independent.
_BLOB, _LAYOUT, _JUDGED, _EVAL, _PROBE = 1, 2, 3, 4, 5


def rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def blob_layout(n_blobs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fixed (centres, axis sigmas, angles, weights) of an n_blobs mixture.

    Centres sit at least eight of the largest axis sigma apart, so the true
    count is unambiguous.  The layout does not depend on the seed: the cost
    of fitting a plot varies about twofold between layouts, which would
    swamp the changes the benchmark is meant to see.
    """
    gen = rng(0, _LAYOUT, n_blobs)
    sigmas = gen.uniform(0.4, 1.2, size=(n_blobs, 2))
    angles = gen.uniform(0.0, math.pi, size=n_blobs)
    min_dist = 8.0 * float(sigmas.max())
    side = min_dist * (1.0 + math.sqrt(n_blobs))
    centres: list[np.ndarray] = []
    while len(centres) < n_blobs:
        c = gen.uniform(0.0, side, size=2)
        if all(np.hypot(*(c - o)) >= min_dist for o in centres):
            centres.append(c)
    return np.array(centres), sigmas, angles, gen.dirichlet(np.full(n_blobs, 8.0))


def blob_points(gen: np.random.Generator, n: int, n_blobs: int) -> np.ndarray:
    """n points drawn with ``gen`` from the fixed n_blobs layout."""
    centres, sigmas, angles, weights = blob_layout(n_blobs)
    counts = gen.multinomial(n, weights)
    parts = []
    for j in range(n_blobs):
        cos, sin = math.cos(angles[j]), math.sin(angles[j])
        axes = np.array([[cos, -sin], [sin, cos]]) @ np.diag(sigmas[j])
        parts.append(gen.standard_normal((counts[j], 2)) @ axes.T + centres[j])
    points = np.vstack(parts)
    return points[gen.permutation(n)]


def snap_to_pixels(points: np.ndarray, grid: int = PIXEL_GRID) -> np.ndarray:
    """Integer pixel coordinates of a grid x grid monochrome rendering."""
    lo = points.min(axis=0)
    span = np.where(points.max(axis=0) > lo, points.max(axis=0) - lo, 1.0)
    return np.minimum(np.floor((points - lo) / span * grid), grid - 1).astype(np.int64)


def write_points(path: Path, points: np.ndarray) -> None:
    if points.dtype.kind == "i":
        body = "".join(f"{x},{y}\n" for x, y in points.tolist())
    else:
        body = "".join(f"{x:.9g},{y:.9g}\n" for x, y in points.tolist())
    path.write_text("x,y\n" + body)


def write_blob_plot(path: Path, seed: int, n_blobs: int) -> None:
    write_points(path, blob_points(rng(seed, _BLOB, n_blobs), PLOT_N, n_blobs))


def write_grid_params(path: Path, shapes: dict[str, tuple[float, ...]]) -> None:
    """``scatterscore generate --params-file`` input: one row per plot id."""
    lines = ["id," + ",".join(_PARAM_COLUMNS)]
    lines += [",".join([plot_id, *(repr(v) for v in params)]) for plot_id, params in shapes.items()]
    path.write_text("\n".join(lines) + "\n")


def _grid_params(gen: np.random.Generator) -> list[float]:
    pick = lambda key: float(gen.choice(_GRID[key]))
    tau, mu = pick("tau"), pick("mu")
    sux, suy, svx, svy = (pick("sigma") for _ in range(4))
    return [tau, mu, sux, suy, svx, svy, pick("theta"), pick("theta")]


def one_cluster_probability(params: list[float]) -> float:
    """Separation rule: components read as one cluster when the centre
    distance is below the summed mean radii; logistic noise around it."""
    mu, sux, suy, svx, svy = params[1:6]
    margin = 0.5 * (sux + suy + svx + svy) - mu
    return 1.0 / (1.0 + math.exp(-margin))


def write_judged_csv(path: Path, n_records: int) -> None:
    """Judged-benchmark CSV: grid parameters plus JUDGE_VOTES noisy votes.

    Like the paper's judged benchmark it is one fixed set, the same for
    every seed: the size of the trees grown on it follows the draw of the
    noisy votes, and with votes drawn per seed the time of ``train --cv``
    varied by about 10% between seeds.  The seed still drives the split,
    balancing, bootstrap and CV folds through ``--seed``.
    """
    gen = rng(0, _JUDGED)
    header = ["id", *_PARAM_COLUMNS, *(f"j{v + 1}" for v in range(JUDGE_VOTES))]
    lines = [",".join(header)]
    for i in range(n_records):
        params = _grid_params(gen)
        votes = (gen.random(JUDGE_VOTES) < one_cluster_probability(params)).astype(int)
        lines.append(",".join([f"r{i:05d}", *(repr(p) for p in params), *map(str, votes.tolist())]))
    path.write_text("\n".join(lines) + "\n")


def probe_features(n: int = 256) -> list[list[float]]:
    """Fixed raw pair parameters whose predictions pin a trained model."""
    gen = rng(0, _PROBE)
    return [_grid_params(gen) for _ in range(n)]


def _relation(a: tuple[int, int], b: tuple[int, int]) -> str:
    return "<" if a < b else (">" if a > b else "=")


def write_eval_inputs(scores_path: Path, pairs_path: Path, seed: int) -> None:
    """EVAL_PLOTS synthetic (M, K*) scores and every pair of them judged by
    EVAL_RATERS raters who agree with the true order 75% of the time."""
    gen = rng(seed, _EVAL)
    ids = [f"p{i:02d}" for i in range(EVAL_PLOTS)]
    scores = []
    for _ in ids:
        k = int(gen.integers(1, 11))
        scores.append((int(gen.integers(1, k + 1)), k))
    score_lines = ["id,k_star,m,scalar_score"]
    for plot_id, (m, k) in zip(ids, scores):
        score_lines.append(f"{plot_id},{k},{m},{m + (k - m) / (k + 1):.9g}")
    scores_path.write_text("\n".join(score_lines) + "\n")

    pair_lines = ["idA,idB," + ",".join(f"v{r + 1}" for r in range(EVAL_RATERS))]
    for a in range(EVAL_PLOTS):
        for b in range(a + 1, EVAL_PLOTS):
            truth = _relation(scores[a], scores[b])
            others = [s for s in "<=>" if s != truth]
            votes = [
                truth if gen.random() < 0.75 else others[int(gen.integers(2))]
                for _ in range(EVAL_RATERS)
            ]
            pair_lines.append(",".join([ids[a], ids[b], *votes]))
    pairs_path.write_text("\n".join(pair_lines) + "\n")
