"""Agreement between an isolated rater (the measure) and a rater group.

Implements the group-vs-isolated chance-corrected kappa: observed
agreement is the mean over items of the fraction of group raters matching
the isolated vote; expected agreement pairs the group's mean category
proportions with the isolated rater's marginals.  Includes bootstrap
resampling, the verbal agreement scale, ranking-decision alteration
analysis, and the worst-case displacement formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import derive_seed, parse_rows, read_table, spawn_rng
from .vqm import compare

LANDIS_KOCH_BANDS = (
    (0.0, "poor"),  # kappa <= 0
    (0.2, "slight"),
    (0.4, "fair"),
    (0.6, "moderate"),
    (0.8, "substantial"),
    (1.0, "almost perfect"),
)

PERCENTILES = (2.5, 5.0, 25.0, 50.0, 75.0, 95.0, 97.5)

RELATION_CATEGORIES = ("<", "=", ">")


@dataclass(frozen=True, eq=False)
class GroupRatings:
    """items x raters category votes from a group of raters."""

    categories: tuple[str, ...]
    votes: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "votes", tuple(tuple(row) for row in self.votes))
        if len(self.categories) < 1 or len(set(self.categories)) != len(self.categories):
            raise ValueError("categories must be non-empty and distinct")
        if len(self.votes) < 1:
            raise ValueError("need at least one item")
        widths = {len(row) for row in self.votes}
        if len(widths) != 1 or min(widths) < 1:
            raise ValueError("every item needs the same positive number of rater votes")
        cat = set(self.categories)
        for row in self.votes:
            for v in row:
                if v not in cat:
                    raise ValueError(f"vote {v!r} is not a listed category")

    @property
    def items(self) -> int:
        return len(self.votes)

    @property
    def raters(self) -> int:
        return len(self.votes[0])

    def codes(self) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.categories)}
        return np.array([[index[v] for v in row] for row in self.votes], dtype=np.int64)


@dataclass(frozen=True)
class IsolatedRatings:
    """Per-item category votes of a single rater (the measure)."""

    votes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "votes", tuple(self.votes))
        if len(self.votes) < 1:
            raise ValueError("need at least one vote")

    def codes(self, categories) -> np.ndarray:
        index = {c: i for i, c in enumerate(categories)}
        try:
            return np.array([index[v] for v in self.votes], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"isolated vote {exc.args[0]!r} is not a listed category") from None


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    observed_agreement: float
    expected_agreement: float
    label: str


@dataclass(frozen=True, eq=False)
class BootstrapSummary:
    b: int
    mean: float
    sd: float
    min: float
    max: float
    percentiles: dict
    values: np.ndarray


def landis_koch_label(kappa: float) -> str:
    """Verbal agreement band; kappa = 0 falls outside (0, 0.2] so is 'poor'."""
    if kappa > 1.0 + 1e-12:
        raise ValueError(f"kappa cannot exceed 1, got {kappa}")
    for upper, label in LANDIS_KOCH_BANDS:
        if kappa <= upper:
            return label
    return "almost perfect"


def _agreement_terms(group_codes: np.ndarray, n_categories: int):
    """Per-item rater-match fraction table (items x categories)."""
    n, r = group_codes.shape
    prop = np.empty((n, n_categories))
    for c in range(n_categories):
        prop[:, c] = (group_codes == c).mean(axis=1)
    return prop


def _kappa_from_terms(prop: np.ndarray, iso_codes: np.ndarray, n_categories: int):
    n = prop.shape[0]
    p_o = float(prop[np.arange(n), iso_codes].mean())
    q_bar = prop.mean(axis=0)
    r_marg = np.bincount(iso_codes, minlength=n_categories) / n
    p_e = float(q_bar @ r_marg)
    if p_e >= 1.0 - 1e-15:
        kappa = 1.0 if p_o >= 1.0 - 1e-15 else 0.0
    else:
        kappa = (p_o - p_e) / (1.0 - p_e)
    return kappa, p_o, p_e


def vanbelle_kappa(group: GroupRatings, isolated: IsolatedRatings) -> KappaResult:
    """Chance-corrected agreement between the rater group and the measure."""
    if len(isolated.votes) != group.items:
        raise ValueError(
            f"group has {group.items} items but isolated rater has {len(isolated.votes)} votes"
        )
    n_cat = len(group.categories)
    prop = _agreement_terms(group.codes(), n_cat)
    kappa, p_o, p_e = _kappa_from_terms(prop, isolated.codes(group.categories), n_cat)
    return KappaResult(
        kappa=kappa,
        observed_agreement=p_o,
        expected_agreement=p_e,
        label=landis_koch_label(kappa),
    )


def bootstrap_kappa(group: GroupRatings, isolated: IsolatedRatings, b: int, seed: int) -> BootstrapSummary:
    """Item-level bootstrap of the kappa estimate; deterministic given seed."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if len(isolated.votes) != group.items:
        raise ValueError("group/isolated dimensions differ")
    n_cat = len(group.categories)
    prop = _agreement_terms(group.codes(), n_cat)
    iso = isolated.codes(group.categories)
    n = group.items
    values = np.empty(b)
    for i in range(b):
        rng = spawn_rng(seed, "bootstrap", i)
        idx = rng.integers(0, n, size=n)
        values[i], _, _ = _kappa_from_terms(prop[idx], iso[idx], n_cat)
    return _summarize(values)


def _spread(values: np.ndarray) -> tuple[float, float]:
    """(mean, sd) with exact zeros when every value is identical."""
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return lo, 0.0
    return float(values.mean()), float(values.std())


def _summarize(values: np.ndarray) -> BootstrapSummary:
    values = np.asarray(values, dtype=float)
    values.setflags(write=False)
    mean, sd = _spread(values)
    return BootstrapSummary(
        b=values.shape[0],
        mean=mean,
        sd=sd,
        min=float(values.min()),
        max=float(values.max()),
        percentiles={p: float(np.percentile(values, p)) for p in PERCENTILES},
        values=values,
    )


def majority_vote_by_origin(predictions) -> dict:
    """Per-origin majority of binary replica predictions; ties merge (1)."""
    groups: dict = {}
    for origin, h in predictions:
        groups.setdefault(origin, []).append(int(h))
    if any(len(v) == 0 for v in groups.values()) or not groups:
        raise ValueError("need at least one prediction per origin")
    return {
        origin: (1 if 2 * sum(votes) >= len(votes) else 0) for origin, votes in groups.items()
    }


def pairwise_relations(scores, pairs) -> list[str]:
    """Machine order relation per (idA, idB) pair via the score comparator."""
    table = dict(scores)
    out = []
    for id_a, id_b in pairs:
        if id_a not in table or id_b not in table:
            missing = id_a if id_a not in table else id_b
            raise KeyError(f"pair id {missing!r} has no score")
        out.append(compare(table[id_a], table[id_b]))
    return out


def alter_decisions(relations, k: int, seed: int) -> list[str]:
    """Change exactly k uniformly-chosen relations to a different symbol."""
    relations = list(relations)
    if not (0 <= k <= len(relations)):
        raise ValueError(f"k must be in [0, {len(relations)}], got {k}")
    rng = spawn_rng(seed, "alter")
    positions = rng.choice(len(relations), size=k, replace=False) if k else []
    for pos in positions:
        alternatives = [r for r in RELATION_CATEGORIES if r != relations[pos]]
        relations[pos] = alternatives[int(rng.integers(2))]
    return relations


@dataclass(frozen=True)
class AlterationPoint:
    k: int
    mean: float
    sd: float
    min: float
    max: float


def alteration_curve(relations, group: GroupRatings, k_values, b: int, seed: int) -> list[AlterationPoint]:
    """Kappa distribution after k random decision alterations, per k."""
    relations = list(relations)
    if b < 1:
        raise ValueError("b must be >= 1")
    n_cat = len(group.categories)
    prop = _agreement_terms(group.codes(), n_cat)
    index = {c: i for i, c in enumerate(group.categories)}
    out = []
    for k in k_values:
        values = np.empty(b)
        for j in range(b):
            altered = alter_decisions(relations, k, derive_seed(seed, "curve", k, j))
            codes = np.array([index[r] for r in altered], dtype=np.int64)
            values[j], _, _ = _kappa_from_terms(prop, codes, n_cat)
        mean, sd = _spread(values)
        out.append(
            AlterationPoint(
                k=int(k), mean=mean, sd=sd, min=float(values.min()), max=float(values.max())
            )
        )
    return out


# ---------------------------------------------------------------------------
# Worst-case ranking displacement


@dataclass(frozen=True)
class WorstCase:
    r: float  # number of ranking alterations
    q: float  # worst-case percentage of down-graded plots
    q_large_n: float  # large-n approximation sqrt(50 p)


def worst_case_formulas(n_plots: int, p: float) -> WorstCase:
    """Alteration count and worst-case displacement for p% altered pairs."""
    if n_plots < 2:
        raise ValueError("need at least 2 plots")
    if not (0.0 <= p <= 50.0):
        raise ValueError("p must be a percentage in [0, 50]")
    r = n_plots * (n_plots - 1) * p / 200.0
    q = 100.0 * math.sqrt(r) / n_plots
    return WorstCase(r=r, q=q, q_large_n=math.sqrt(50.0 * p))


def min_alterations_to_displace(n_displaced: int) -> int:
    """Pairwise alterations needed to push n plots out of a top-K set: n^2."""
    if n_displaced < 0:
        raise ValueError("n_displaced must be >= 0")
    return n_displaced * n_displaced


def alteration_percentage(n_plots: int, r: float) -> float:
    """Inverse of the r formula: percentage of altered pairs."""
    if n_plots < 2:
        raise ValueError("need at least 2 plots")
    return 200.0 * r / (n_plots * (n_plots - 1))


# ---------------------------------------------------------------------------
# CSV I/O


def read_group_csv(path) -> tuple[list[str], GroupRatings]:
    """Read item_id,rater_1..rater_R category votes; returns (ids, ratings)."""
    header, rows = read_table(path)
    if not rows:
        raise ValueError(f"{path}: no rating rows")
    if len(header) < 2:
        raise ValueError(f"{path}: need an item id and at least one vote per row")
    ids = [cells[0] for _, cells in rows]
    votes = [tuple(cells[1:]) for _, cells in rows]
    categories = sorted({v for row in votes for v in row})
    return ids, GroupRatings(categories=tuple(categories), votes=tuple(votes))


def _pair_judgment(cells) -> tuple[tuple[str, str], tuple[str, ...]]:
    for v in cells[2:]:
        if v not in RELATION_CATEGORIES:
            raise ValueError(f"vote {v!r} is not one of {RELATION_CATEGORIES}")
    return (cells[0], cells[1]), tuple(cells[2:])


def read_pair_judgments_csv(path) -> tuple[list[tuple[str, str]], GroupRatings]:
    """Read idA,idB,vote_1..vote_R rows with votes in {<, =, >}."""
    header, rows = read_table(path)
    if not rows:
        raise ValueError(f"{path}: no judgment rows")
    if len(header) < 3:
        raise ValueError(f"{path}: need two ids and at least one vote per row")
    parsed = parse_rows(path, rows, _pair_judgment)
    pairs = [pair for pair, _ in parsed]
    votes = [row_votes for _, row_votes in parsed]
    return pairs, GroupRatings(categories=RELATION_CATEGORIES, votes=tuple(votes))
