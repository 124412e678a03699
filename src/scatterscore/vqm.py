"""End-to-end scatterplot scoring: merge matrix, cluster count, ranking.

A fitted mixture's component pairs are classified merge/not-merge; the
merge decisions form a symmetric binary matrix whose connected components
count the perceived clusters M.  The (M, K*) pair orders scatterplots
lexicographically from simple (1,1) to complex (K*,K*).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import FitConfig, MixtureModel, Scatterplot, select_model
from .mergemodel import MergingModel, predict
from .pairspace import aligned_pair_from_model
from .util import parse_rows, read_table, reject_repeated_ids, write_csv


@dataclass(frozen=True, eq=False)
class MergeMatrix:
    """Symmetric binary K x K pairwise merge decisions (diagonal 1)."""

    k: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.int8)
        if e.shape != (self.k, self.k):
            raise ValueError(f"expected a {self.k}x{self.k} matrix, got {e.shape}")
        if not np.array_equal(e, e.T):
            raise ValueError("merge matrix must be symmetric")
        e = e.copy()
        np.fill_diagonal(e, 1)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True, order=False)
class VqmScore:
    """(clusters after merging, components before merging)."""

    m: int
    k_star: int

    def __post_init__(self):
        if not (1 <= self.m <= self.k_star):
            raise ValueError(f"need 1 <= m <= k_star, got ({self.m}, {self.k_star})")


def build_merge_matrix(model: MixtureModel, merger: MergingModel) -> MergeMatrix:
    """Classify every unordered component pair once; symmetric by construction."""
    k = model.k
    entries = np.eye(k, dtype=np.int8)
    for u in range(k):
        for v in range(u + 1, k):
            h, _ = predict(merger, aligned_pair_from_model(model, u, v))
            entries[u, v] = entries[v, u] = h
    return MergeMatrix(k=k, entries=entries)


def count_components(matrix: MergeMatrix) -> int:
    """Connected components of the merge graph, via union-find."""
    parent = list(range(matrix.k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u in range(matrix.k):
        for v in range(u + 1, matrix.k):
            if matrix.entries[u, v]:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
    return len({find(i) for i in range(matrix.k)})


def score_scatterplot(scatterplot: Scatterplot, fit_config: FitConfig, merger: MergingModel) -> VqmScore:
    """Full pipeline: BIC-selected mixture -> merge matrix -> (M, K*)."""
    result = select_model(scatterplot, fit_config)
    m = count_components(build_merge_matrix(result.model, merger))
    return VqmScore(m=m, k_star=result.k_star)


def compare(a: VqmScore, b: VqmScore) -> str:
    """Lexicographic order by m then k_star; returns '<', '=' or '>'."""
    ka, kb = (a.m, a.k_star), (b.m, b.k_star)
    if ka < kb:
        return "<"
    if ka > kb:
        return ">"
    return "="


def scalar_score(score: VqmScore) -> float:
    """Order-embedding of (m, k_star) into the reals, for plotting only.

    m + (k_star - m) / (k_star + 1): the fractional part never reaches 1,
    so the integer part always equals m.
    """
    return score.m + (score.k_star - score.m) / (score.k_star + 1)


def rank(scores, ascending: bool = False) -> list:
    """Stable sort of (id, VqmScore) pairs; ties keep input order.

    Default is descending complexity (most promising view first); pass
    ascending=True for the simple-to-complex chain.
    """
    items = list(scores)
    return sorted(items, key=lambda t: (t[1].m, t[1].k_star), reverse=not ascending)


# ---------------------------------------------------------------------------
# CSV I/O

SCORE_COLUMNS = ("id", "k_star", "m", "scalar_score")


def write_scores_csv(path, scores) -> None:
    rows = ((plot_id, score.k_star, score.m, scalar_score(score)) for plot_id, score in scores)
    write_csv(path, SCORE_COLUMNS, rows)


def read_scores_csv(path) -> list[tuple[str, VqmScore]]:
    header, rows = read_table(path)
    if header and header[:3] != ["id", "k_star", "m"]:
        raise ValueError(f"{path}: expected score columns {SCORE_COLUMNS}, got {header}")
    scores = list(parse_rows(path, rows, lambda cells: (cells[0], VqmScore(m=int(cells[2]), k_star=int(cells[1])))))
    return reject_repeated_ids(path, scores, "plot id")


def write_ranking_csv(path, ranked) -> None:
    rows = (
        (pos, plot_id, score.k_star, score.m, scalar_score(score))
        for pos, (plot_id, score) in enumerate(ranked, start=1)
    )
    write_csv(path, ("rank", *SCORE_COLUMNS), rows)
