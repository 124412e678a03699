"""Agreement between an isolated rater (the measure) and a rater group.

Implements the group-vs-isolated chance-corrected kappa: observed
agreement is the mean over items of the fraction of group raters matching
the isolated vote; expected agreement pairs the group's mean category
proportions with the isolated rater's marginals.  Includes bootstrap
resampling, the verbal agreement scale, ranking-decision alteration
analysis, and the worst-case displacement formulas.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .util import parse_rows, read_table, spawn_rng, spawn_rngs
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
_RELATION_SET = frozenset(RELATION_CATEGORIES)
# relation -> the two other symbols, picked by one random bit
_ALTERNATIVES = {r: tuple(a for a in RELATION_CATEGORIES if a != r) for r in RELATION_CATEGORIES}

# Replicates per block in the bootstrap and the alteration curve.  At
# n = 435 items a (C, n) block is 0.45 MB and the bootstrap's resampled
# (C, n, categories) proportions 1.3 MB.
_BLOCK = 128


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


@dataclass(frozen=True)
class AlterationPoint:
    k: int
    mean: float
    sd: float
    min: float
    max: float


def landis_koch_label(kappa: float) -> str:
    """Verbal agreement band; kappa = 0 falls outside (0, 0.2] so is 'poor'."""
    if kappa > 1.0 + 1e-12:
        raise ValueError(f"kappa cannot exceed 1, got {kappa}")
    for upper, label in LANDIS_KOCH_BANDS:
        if kappa <= upper:
            return label
    return "almost perfect"


def _proportions(group: GroupRatings, n_votes: int, what: str, b: int = 1) -> np.ndarray:
    """Per-item fraction of the group's raters voting each category (items x
    categories), once ``b`` >= 1 and there is one of ``what`` per item."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if n_votes != group.items:
        raise ValueError(f"group has {group.items} items but there are {n_votes} {what}")
    return (group.codes()[..., None] == np.arange(len(group.categories))).mean(axis=1)


def _kappas(p_o: np.ndarray, q_bar: np.ndarray, codes: np.ndarray, n_categories: int):
    """(kappa, p_e) of each replicate in a block: observed agreements ``p_o``
    (m,), group category means ``q_bar`` (m, categories), isolated codes (m, n).

    p_e stays a 1-D dot product per replicate: a batched product changes
    the last bit of some kappas.  Where p_e is 1, kappa is 1 for perfect
    observed agreement and 0 otherwise.
    """
    m, n = codes.shape
    offsets = codes + n_categories * np.arange(m)[:, None]
    r_marg = np.bincount(offsets.ravel(), minlength=m * n_categories).reshape(m, n_categories) / n
    p_e = np.array([q @ r for q, r in zip(q_bar, r_marg)])
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(p_e >= 1.0 - 1e-15, p_o >= 1.0 - 1e-15, (p_o - p_e) / (1.0 - p_e))
    return kappa, p_e


def _summarize(b: int, block_kappas, k=None):
    """Summary of ``b`` replicate kappas, ``block_kappas(range)`` giving those
    of ``_BLOCK`` replicates at a time: a BootstrapSummary, or the
    AlterationPoint of ``k`` alterations.  sd is an exact zero when every
    value is identical."""
    values = np.empty(b)
    for start in range(0, b, _BLOCK):
        stop = min(b, start + _BLOCK)
        values[start:stop] = block_kappas(range(start, stop))
    lo, hi = float(values.min()), float(values.max())
    mean, sd = (lo, 0.0) if lo == hi else (float(values.mean()), float(values.std()))
    if k is not None:
        return AlterationPoint(k=int(k), mean=mean, sd=sd, min=lo, max=hi)
    values.setflags(write=False)
    percentiles = {p: float(np.percentile(values, p)) for p in PERCENTILES}
    return BootstrapSummary(b=b, mean=mean, sd=sd, min=lo, max=hi, percentiles=percentiles, values=values)


def vanbelle_kappa(group: GroupRatings, isolated: IsolatedRatings) -> KappaResult:
    """Chance-corrected agreement between the rater group and the measure."""
    prop = _proportions(group, len(isolated.votes), "isolated votes")
    iso = isolated.codes(group.categories)[None]
    p_o = prop[np.arange(group.items), iso].mean(axis=1)
    kappa, p_e = (float(v[0]) for v in _kappas(p_o, prop.mean(axis=0)[None], iso, prop.shape[1]))
    return KappaResult(
        kappa=kappa,
        observed_agreement=float(p_o[0]),
        expected_agreement=p_e,
        label=landis_koch_label(kappa),
    )


def bootstrap_kappa(group: GroupRatings, isolated: IsolatedRatings, b: int, seed: int) -> BootstrapSummary:
    """Item-level bootstrap of the kappa estimate; deterministic given seed."""
    prop = _proportions(group, len(isolated.votes), "isolated votes", b)
    iso = isolated.codes(group.categories)
    n, n_cat = prop.shape

    def kappas(replicates):
        rows = np.array([rng.integers(0, n, size=n) for rng in spawn_rngs(seed, ("bootstrap",), replicates)])
        codes = iso[rows]
        return _kappas(prop[rows, codes].mean(axis=1), prop[rows].mean(axis=1), codes, n_cat)[0]

    return _summarize(b, kappas)


def majority_vote_by_origin(predictions) -> dict:
    """Per-origin majority of binary replica predictions; ties merge (1)."""
    groups: dict = {}
    for origin, h in predictions:
        groups.setdefault(origin, []).append(int(h))
    if not groups:
        raise ValueError("need at least one prediction")
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


def alter_decisions(relations, k: int, seed) -> list[str]:
    """Change exactly k uniformly-chosen relations to a different symbol, drawing
    from ``spawn_rng(seed, "alter")`` or from ``seed`` if it is such a Generator.

    Raises ValueError for k outside [0, len(relations)] or a relation
    outside ``RELATION_CATEGORIES``.
    """
    relations = list(relations)
    if not (0 <= k <= len(relations)):
        raise ValueError(f"k must be in [0, {len(relations)}], got {k}")
    if not _RELATION_SET.issuperset(relations):
        bad = next(r for r in relations if r not in _RELATION_SET)
        raise ValueError(f"relation {bad!r} is not one of {RELATION_CATEGORIES}")
    rng = seed if isinstance(seed, np.random.Generator) else spawn_rng(seed, "alter")
    if k:
        positions = rng.choice(len(relations), size=k, replace=False)
        for pos, bit in zip(positions.tolist(), rng.integers(2, size=k).tolist()):
            relations[pos] = _ALTERNATIVES[relations[pos]][bit]
    return relations


def alteration_curve(relations, group: GroupRatings, k_values, b: int, seed: int) -> list[AlterationPoint]:
    """Kappa distribution after k random decision alterations, per k."""
    relations = list(relations)
    prop = _proportions(group, len(relations), "relations", b)
    n, n_cat = prop.shape
    q_bar = prop.mean(axis=0)
    items = np.arange(n)
    # ASCII code of a relation symbol -> its category index; -1 if the group lacks it
    table = np.full(256, -1, dtype=np.int64)
    for i, c in enumerate(group.categories):
        if c in _RELATION_SET:
            table[ord(c)] = i

    def kappas(k, replicates):
        rngs = spawn_rngs(seed, ("curve", k), replicates, ("alter",))  # one Generator, reused
        text = "".join("".join(alter_decisions(relations, k, rng)) for rng in rngs)
        codes = table[np.frombuffer(text.encode("ascii"), dtype=np.uint8)].reshape(len(replicates), n)
        if codes.min() < 0:
            raise ValueError(f"a relation is not one of the group's categories {group.categories}")
        q = np.broadcast_to(q_bar, (len(replicates), n_cat))
        return _kappas(prop[items, codes].mean(axis=1), q, codes, n_cat)[0]

    return [_summarize(b, functools.partial(kappas, k), k) for k in k_values]


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
    if len(header) < 3 or header[:2] != ["ida", "idb"]:
        raise ValueError(f"{path}: expected columns idA,idB and at least one vote, got {header}")
    parsed = parse_rows(path, rows, _pair_judgment)
    pairs = [pair for pair, _ in parsed]
    votes = [row_votes for _, row_votes in parsed]
    return pairs, GroupRatings(categories=RELATION_CATEGORIES, votes=tuple(votes))
