"""Benchmark ingestion, judgment summarization, and symmetry augmentation.

Human-judgment records arrive as generator parameters of two-component
mixtures plus per-subject binary votes.  They are aligned into the
classifier feature space, labeled by majority vote, replicated across the
symmetries of that space (angle reflection, component swap, isotropic
angle freedom), and deduplicated into a training corpus.
"""
from __future__ import annotations

import math
import warnings as _warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from .gmm import Scatterplot
from .pairspace import ANGLE_TOL, HALF_PI, SCALE_TOL, PairFeatures, ShapeParams, align_training_record
from .util import fmt_num, parse_rows, read_table, reject_repeated_ids, spawn_rng, write_csv

#: Angle grid used to replicate records with an isotropic component: the
#: ellipse orientation is unidentifiable there, so every orientation must
#: carry the same label.
ISOTROPIC_ANGLES = tuple(
    np.pi * f for f in (-1 / 2, -3 / 8, -1 / 4, -1 / 8, 0.0, 1 / 8, 1 / 4, 3 / 8, 1 / 2)
)

_ISO_TOL = 1e-9

#: Generator parameter grid of the original judged scatterplots.
GENERATOR_GRID = {
    "tau": (0.1, 0.2, 0.3, 0.4, 0.5),
    "mu": (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0),
    "sigma": (0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
    "theta": (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2),
}

PARAM_COLUMNS = (
    "tau",
    "mu",
    "sigma_ux",
    "sigma_uy",
    "sigma_vx",
    "sigma_vy",
    "theta_u",
    "theta_v",
)
_DROPPED_COLUMNS = ("alpha", "n")

VOTE_ONE_CLUSTER = 1
VOTE_MORE_THAN_ONE = 0

LABEL_MERGE = 1
LABEL_DO_NOT_MERGE = 0


@dataclass(frozen=True)
class JudgmentRecord:
    """One judged scatterplot: raw generator parameters + binary votes.

    A vote of 1 means the subject saw one cluster, 0 more than one.
    """

    record_id: str
    params: PairFeatures
    judgments: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "judgments", tuple(int(j) for j in self.judgments))
        if len(self.judgments) < 1:
            raise ValueError("a judgment record needs at least one vote")
        if any(j not in (0, 1) for j in self.judgments):
            raise ValueError("votes must be 0 or 1")


class _RowError(ValueError):
    """A corpus row that fails a check; ``row`` is its index."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


# What each feature column must be, in PARAM_COLUMNS order.
_RULES = ("in (0, 1)", "finite and >= 0", "> 0", "> 0", "> 0", "> 0", "in [-pi/2, pi/2]", "in [-pi/2, pi/2]")


def _check_rows(X: np.ndarray, y: np.ndarray, keys: np.ndarray) -> None:
    """_RowError at the first row of (X, y) that ``AlignedPairFeatures`` with a
    label of 0 or 1 would reject, or whose canonical key (the row of ``keys``)
    repeats an earlier row's."""
    faults = np.column_stack([
        ~((X[:, 0] > 0.0) & (X[:, 0] < 1.0)),
        ~((X[:, 1] >= 0.0) & np.isfinite(X[:, 1])),
        ~(X[:, 2:6] > 0.0),
        ~(np.abs(X[:, 6:]) <= HALF_PI + ANGLE_TOL),
        ~(np.abs(X[:, 1:6].max(axis=1) - 1.0) <= SCALE_TOL),
        ~np.isin(y, (LABEL_DO_NOT_MERGE, LABEL_MERGE)),
    ])
    bad = np.flatnonzero(faults.any(axis=1))
    if len(bad):
        i, row = int(bad[0]), X[bad[0]].tolist()
        messages = [f"{name} must be {rule}, got {v}" for name, rule, v in zip(PARAM_COLUMNS, _RULES, row)]
        messages.append(f"aligned features must have max scale 1, got {max(row[1:6])}")
        messages.append(f"label must be 0 or 1, got {y[i]}")
        raise _RowError(i, messages[int(np.argmax(faults[i]))])
    repeats = np.setdiff1d(np.arange(len(X)), _first_rows(keys))
    if len(repeats):
        i = int(repeats[0])
        raise _RowError(i, f"duplicate feature tuple in corpus: {tuple(keys[i].tolist())}")


@dataclass(frozen=True, eq=False)
class TrainingCorpus:
    """Deduplicated labeled pairs as columns: the aligned features ``X`` (n, 8)
    in ``PARAM_COLUMNS`` order, the int8 labels ``y`` and the id of the
    judgment record each row came from.  Rows are checked by ``_check_rows``.
    ``keys`` holds each row's canonical key (``canonical_keys(X)``), computed once."""

    X: np.ndarray
    y: np.ndarray
    origin_ids: tuple[str, ...]
    keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X, y, origin_ids = np.asarray(self.X, dtype=float), np.asarray(self.y), tuple(self.origin_ids)
        if X.ndim != 2 or X.shape[1] != len(PARAM_COLUMNS) or not len(X) == len(y) == len(origin_ids):
            raise ValueError(f"corpus columns disagree: X {X.shape}, {len(y)} labels, {len(origin_ids)} origin ids")
        keys = canonical_keys(X)
        _check_rows(X, y, keys)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "y", y.astype(np.int8))
        object.__setattr__(self, "origin_ids", origin_ids)

    def __len__(self) -> int:
        return len(self.y)


def summarize_judgments(judgments) -> int:
    """Majority vote: 0 (do not merge) only when more-than-one strictly wins.

    A tie is not a majority for more-than-one, so it yields 1 (merge).
    """
    votes = list(judgments)
    if not votes:
        raise ValueError("cannot summarize an empty judgment list")
    n_more_than_one = sum(1 for v in votes if int(v) == VOTE_MORE_THAN_ONE)
    return LABEL_DO_NOT_MERGE if 2 * n_more_than_one > len(votes) else LABEL_MERGE


def canonical_key(vec) -> tuple:
    """Dedup key of 8 features in ``PARAM_COLUMNS`` order: each rounded to 9 decimals, -0.0 as 0.0.
    The per-value reference for ``canonical_keys``, which keys whole corpora."""
    return tuple(round(float(x), 9) + 0.0 for x in vec)


# From 2**23 on, doubles lie more than 1e-9 apart, so round(v, 9) is v itself;
# below it, v * 1e9 and its nearest integer stay under 2**53, where doubles are exact.
_KEY_EXACT = 2.0**23
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: a double's high and low 26 bits


def _round9(v: np.ndarray) -> np.ndarray:
    """``round(v, 9) + 0.0`` element for element: Python rounds the exact binary
    value half to even, and reads the decimal back correctly rounded."""
    small = np.abs(v) < _KEY_EXACT
    x = np.where(small, v, 0.0)
    p = x * 1e9
    n = np.rint(p)
    # rint(p) is the exact product's nearest integer unless p, rounded, lies half-way
    # between two: then the product's rounding error (Dekker: 1e9 has 21 significant
    # bits, so hi * 1e9 and lo * 1e9 are exact) decides the side.
    tie = np.flatnonzero(np.abs(p - n) == 0.5)
    if len(tie):
        xt, pt = x[tie], p[tie]
        hi = xt * _SPLIT - (xt * _SPLIT - xt)
        error = (hi * 1e9 - pt) + (xt - hi) * 1e9
        n[tie] = np.where(error > 0.0, np.ceil(pt), np.where(error < 0.0, np.floor(pt), n[tie]))
    return np.where(small, n / 1e9, v) + 0.0


def canonical_keys(X) -> np.ndarray:
    """The canonical keys of the rows of ``X`` as an (n, 8) float array, one column
    at a time: element for element the values of ``canonical_key``."""
    X = np.asarray(X, dtype=float)
    keys = np.empty_like(X)
    for j in range(X.shape[1]):
        keys[:, j] = _round9(X[:, j])
    return keys


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """Index of the first of each distinct row of ``keys``, ascending."""
    return np.sort(np.unique(keys, axis=0, return_index=True)[1])


def _as_written(X: np.ndarray) -> np.ndarray:
    """``X`` at the 9 significant digits the corpus CSV holds."""
    out = np.empty_like(X)
    for j in range(X.shape[1]):
        out[:, j] = [float(fmt_num(v)) for v in X[:, j].tolist()]
    return out


def replicate(x) -> np.ndarray:
    """Rows of the aligned features ``x`` and all its symmetry replicas (duplicates kept).

    Always: the original, the angle-negated copy, the component-swapped
    copy, and the negated-swapped copy.  When a component is isotropic its
    orientation is unidentifiable, so nine extra copies sweep that angle
    over a half-turn.  Deduplication happens later, in corpus building.
    """
    x = np.asarray(x, dtype=float)
    base = np.stack([x, x])
    base[1, 6:] = -x[6:]
    swapped = base[:, [0, 1, 4, 5, 2, 3, 7, 6]]  # components u and v trade places
    swapped[:, 0] = 1.0 - x[0]
    out = [base, swapped]
    for sigma_x, theta in ((2, 6), (4, 7)):
        if abs(x[sigma_x] - x[sigma_x + 1]) <= _ISO_TOL:
            sweep = np.tile(x, (len(ISOTROPIC_ANGLES), 1))
            sweep[:, theta] = ISOTROPIC_ANGLES
            out.append(sweep)
    return np.concatenate(out)


def build_corpus(records) -> TrainingCorpus:
    """Align, label, replicate, and dedup judgment records into a corpus.

    Replicas are rounded to the precision the corpus CSV holds before they
    are deduplicated and checked, so the corpus reads back as built.
    Deduplication keeps the first occurrence of each canonical key,
    scanning records in input order and replicas in emission order.
    ValueError names the record of a replica that is not a valid row.
    """
    records = list(records)
    blocks = [replicate(align_training_record(rec.params).as_vector()) for rec in records]
    X = _as_written(np.concatenate([np.empty((0, len(PARAM_COLUMNS))), *blocks]))
    rows = _first_rows(canonical_keys(X))
    origin = np.repeat(np.arange(len(records)), [len(b) for b in blocks])[rows]
    labels = np.array([summarize_judgments(rec.judgments) for rec in records], dtype=np.int8)
    try:
        return TrainingCorpus(X=X[rows], y=labels[origin], origin_ids=tuple(records[k].record_id for k in origin))
    except _RowError as exc:
        raise ValueError(f"record {records[origin[exc.row]].record_id!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Benchmark CSV ingestion


@dataclass(frozen=True)
class IngestReport:
    n_rows: int
    n_unique: int
    duplicates: tuple[tuple[str, str], ...]  # (dropped_id, kept_id)


@dataclass(frozen=True)
class IngestResult:
    records: tuple[JudgmentRecord, ...]
    report: IngestReport


def _params_parser(header: list[str]):
    """Row parser for the ``id`` and generator-parameter columns, found by name."""
    id_col = header.index("id")
    param_cols = [header.index(c) for c in PARAM_COLUMNS]
    return lambda cells: (cells[id_col], PairFeatures.from_vector([cells[j] for j in param_cols]))


def read_params_csv(path) -> list[tuple[str, PairFeatures]]:
    """(id, generator parameters) per row: the ``generate --params-file`` input.

    Each id names the file ``<id>.csv``, so it must be unique and a bare
    file name: not empty, ``.`` or ``..``, and without ``/`` or ``\\``.
    """
    header, rows = read_table(path, required=("id", *PARAM_COLUMNS))
    if not header:
        return []
    id_and_params = _params_parser(header)

    def parse(cells):
        plot_id, params = id_and_params(cells)
        if plot_id in ("", ".", "..") or "/" in plot_id or "\\" in plot_id:
            raise ValueError(f"id {plot_id!r} is not a bare file name")
        return plot_id, params

    return reject_repeated_ids(path, list(parse_rows(path, rows, parse)), "id")


def ingest_benchmark(path) -> IngestResult:
    """Read a judged-benchmark CSV and merge alignment-equivalent rows.

    Expected columns: ``id``, the eight generator parameters, optional
    ``alpha``/``n`` (dropped), then the per-subject vote columns
    ``j1..jR`` with 1 = one-cluster.  Rows whose aligned parameters
    coincide at the precision the corpus CSV holds are merged, keeping the
    first occurrence.
    """
    header, rows = read_table(path, required=("id", *PARAM_COLUMNS))
    if not header:
        return IngestResult(records=(), report=IngestReport(0, 0, ()))
    judge_cols = [c for c in header if c.startswith("j") and c[1:].isdigit()]
    if not judge_cols:
        raise ValueError(f"{path}: no judgment columns (j1..jR) found")
    known = {"id", *PARAM_COLUMNS, *_DROPPED_COLUMNS, *judge_cols}
    for col in header:
        if col not in known:
            _warnings.warn(f"{path}: ignoring unknown column {col!r}")
    id_and_params = _params_parser(header)
    vote_cols = [header.index(c) for c in judge_cols]

    def parse(cells):
        record_id, params = id_and_params(cells)
        return JudgmentRecord(record_id=record_id, params=params, judgments=[int(cells[j]) for j in vote_cols])

    records = [record for _, record in parse_rows(path, rows, parse)]
    aligned = np.array([align_training_record(r.params).as_vector() for r in records]).reshape(-1, len(PARAM_COLUMNS))
    _, first, inverse = np.unique(canonical_keys(_as_written(aligned)), axis=0, return_index=True, return_inverse=True)
    kept = first[inverse.reshape(-1)].tolist()  # the inverse is (n, 1) on some numpy versions
    duplicates = tuple((records[i].record_id, records[k].record_id) for i, k in enumerate(kept) if k != i)
    unique = tuple(records[i] for i, k in enumerate(kept) if k == i)
    report = IngestReport(n_rows=len(records), n_unique=len(unique), duplicates=duplicates)
    return IngestResult(records=unique, report=report)


# ---------------------------------------------------------------------------
# Synthetic scatterplot generation


def _shape_transform(shape: ShapeParams) -> np.ndarray:
    """A with A A^T = composed covariance: rotation times axis scaling."""
    c, s = math.cos(shape.theta), math.sin(shape.theta)
    return np.array([[c * shape.sigma_x, -s * shape.sigma_y], [s * shape.sigma_x, c * shape.sigma_y]])


def generate_scatterplot(params: PairFeatures, n_points: int, seed: int, plot_id: str | None = None) -> Scatterplot:
    """Sample a two-component mixture scatterplot in generator geometry.

    Component u sits at the origin, v at (0, mu); each point comes from u
    with probability tau.  Deterministic given the seed.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = spawn_rng(seed, "generate")
    from_u = rng.random(n_points) < params.tau
    z = rng.standard_normal((n_points, 2))
    pts_u = z @ _shape_transform(params.shape_u).T
    pts_v = z @ _shape_transform(params.shape_v).T + np.array([0.0, params.mu])
    points = np.where(from_u[:, None], pts_u, pts_v)
    return Scatterplot(points=points, id=plot_id)


def sample_grid_params(rng: np.random.Generator) -> PairFeatures:
    """Draw one parameter set uniformly from the generator grid."""
    pick = lambda vals: float(rng.choice(vals))
    return PairFeatures(
        tau=pick(GENERATOR_GRID["tau"]),
        mu=pick(GENERATOR_GRID["mu"]),
        shape_u=ShapeParams(pick(GENERATOR_GRID["theta"]), pick(GENERATOR_GRID["sigma"]), pick(GENERATOR_GRID["sigma"])),
        shape_v=ShapeParams(pick(GENERATOR_GRID["theta"]), pick(GENERATOR_GRID["sigma"]), pick(GENERATOR_GRID["sigma"])),
    )


# ---------------------------------------------------------------------------
# Corpus CSV round trip

CORPUS_COLUMNS = (*PARAM_COLUMNS, "label", "origin_id")


def write_corpus_csv(path, corpus: TrainingCorpus) -> None:
    rows = zip(corpus.X, corpus.y.tolist(), corpus.origin_ids)
    write_csv(path, CORPUS_COLUMNS, ([*x.tolist(), label, origin] for x, label, origin in rows))


def read_corpus_csv(path) -> TrainingCorpus:
    """The corpus of a CSV of ``CORPUS_COLUMNS``; ValueError names the file and
    the row of a cell that is not a number or of a row the corpus rejects."""
    header, rows = read_table(path)
    if header and header != list(CORPUS_COLUMNS):
        raise ValueError(f"{path}: expected corpus columns {CORPUS_COLUMNS}, got {header}")
    values, labels, origin_ids, lines = array("d"), [], [], array("q")
    for line, (x, label, origin_id) in parse_rows(path, rows, _corpus_row):
        values.extend(x)
        labels.append(label)
        origin_ids.append(origin_id)
        lines.append(line)
    try:
        X = np.frombuffer(values).reshape(-1, len(PARAM_COLUMNS))
        return TrainingCorpus(X=X, y=np.array(labels), origin_ids=origin_ids)
    except _RowError as exc:
        raise ValueError(f"{path}: row {lines[exc.row]}: {exc}") from None


def _corpus_row(cells: list[str]) -> tuple[list[float], int, str]:
    return [float(c) for c in cells[:8]], int(cells[8]), cells[9]
