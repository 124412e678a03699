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
from dataclasses import dataclass

import numpy as np

from .gmm import Scatterplot
from .pairspace import (
    AlignedPairFeatures,
    PairFeatures,
    ShapeParams,
    align_training_record,
    with_theta_u,
    with_theta_v,
)
from .util import parse_rows, read_table, reject_repeated_ids, spawn_rng, write_csv

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


@dataclass(frozen=True)
class LabeledPair:
    features: AlignedPairFeatures
    label: int
    origin_id: str

    def __post_init__(self):
        if self.label not in (LABEL_DO_NOT_MERGE, LABEL_MERGE):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class TrainingCorpus:
    """Deduplicated labeled pairs."""

    records: tuple[LabeledPair, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for rec in self.records:
            key = canonical_key(rec.features)
            if key in seen:
                raise ValueError(f"duplicate feature tuple in corpus: {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def provenance(self) -> dict[str, tuple[int, ...]]:
        """Origin id -> indices of the records that came from it, in record order."""
        rows: dict[str, list[int]] = {}
        for i, rec in enumerate(self.records):
            rows.setdefault(rec.origin_id, []).append(i)
        return {origin: tuple(v) for origin, v in rows.items()}


def summarize_judgments(judgments) -> int:
    """Majority vote: 0 (do not merge) only when more-than-one strictly wins.

    A tie is not a majority for more-than-one, so it yields 1 (merge).
    """
    votes = list(judgments)
    if not votes:
        raise ValueError("cannot summarize an empty judgment list")
    n_more_than_one = sum(1 for v in votes if int(v) == VOTE_MORE_THAN_ONE)
    return LABEL_DO_NOT_MERGE if 2 * n_more_than_one > len(votes) else LABEL_MERGE


def canonical_key(features: PairFeatures) -> tuple:
    """Dedup key: the 8 fields rounded to 9 decimals, fixed order."""
    return tuple(round(float(x), 9) + 0.0 for x in features.as_vector())


def _negated(f: AlignedPairFeatures) -> AlignedPairFeatures:
    return AlignedPairFeatures(
        tau=f.tau,
        mu=f.mu,
        shape_u=ShapeParams(-f.shape_u.theta, f.shape_u.sigma_x, f.shape_u.sigma_y),
        shape_v=ShapeParams(-f.shape_v.theta, f.shape_v.sigma_x, f.shape_v.sigma_y),
    )


def _swapped(f: AlignedPairFeatures) -> AlignedPairFeatures:
    return AlignedPairFeatures(tau=1.0 - f.tau, mu=f.mu, shape_u=f.shape_v, shape_v=f.shape_u)


def _is_isotropic(shape: ShapeParams) -> bool:
    return abs(shape.sigma_x - shape.sigma_y) <= _ISO_TOL


def replicate(record: LabeledPair) -> list[LabeledPair]:
    """Emit the record and all its symmetry replicas (duplicates kept).

    Always: the original, the angle-negated copy, the component-swapped
    copy, and the negated-swapped copy.  When a component is isotropic its
    orientation is unidentifiable, so nine extra copies sweep that angle
    over a half-turn.  Deduplication happens later, in corpus building.
    """
    f = record.features
    variants = [f, _negated(f), _swapped(f), _swapped(_negated(f))]
    if _is_isotropic(f.shape_u):
        variants.extend(with_theta_u(f, a) for a in ISOTROPIC_ANGLES)
    if _is_isotropic(f.shape_v):
        variants.extend(with_theta_v(f, a) for a in ISOTROPIC_ANGLES)
    return [LabeledPair(features=v, label=record.label, origin_id=record.origin_id) for v in variants]


def build_corpus(records) -> TrainingCorpus:
    """Align, label, replicate, and dedup judgment records into a corpus.

    Deduplication keeps the first occurrence of each canonical feature
    key, scanning records in input order and replicas in emission order.
    """
    out: list[LabeledPair] = []
    seen: set[tuple] = set()
    for rec in records:
        base = LabeledPair(
            features=align_training_record(rec.params),
            label=summarize_judgments(rec.judgments),
            origin_id=rec.record_id,
        )
        for rep in replicate(base):
            key = canonical_key(rep.features)
            if key in seen:
                continue
            seen.add(key)
            out.append(rep)
    return TrainingCorpus(records=tuple(out))


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

    param_sets = parse_rows(path, rows, parse)
    reject_repeated_ids(path, rows, param_sets, "id")
    return param_sets


def ingest_benchmark(path) -> IngestResult:
    """Read a judged-benchmark CSV and merge alignment-equivalent rows.

    Expected columns: ``id``, the eight generator parameters, optional
    ``alpha``/``n`` (dropped), then the per-subject vote columns
    ``j1..jR`` with 1 = one-cluster.  Rows whose parameters coincide after
    alignment are merged, keeping the first occurrence.
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

    records: list[JudgmentRecord] = []
    seen: dict[tuple, str] = {}
    duplicates: list[tuple[str, str]] = []
    for record in parse_rows(path, rows, parse):
        key = canonical_key(align_training_record(record.params))
        if key in seen:
            duplicates.append((record.record_id, seen[key]))
            continue
        seen[key] = record.record_id
        records.append(record)
    report = IngestReport(n_rows=len(rows), n_unique=len(records), duplicates=tuple(duplicates))
    return IngestResult(records=tuple(records), report=report)


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
    rows = ([*rec.features.as_vector().tolist(), rec.label, rec.origin_id] for rec in corpus.records)
    write_csv(path, CORPUS_COLUMNS, rows)


def read_corpus_csv(path) -> TrainingCorpus:
    header, rows = read_table(path)
    if header and header != list(CORPUS_COLUMNS):
        raise ValueError(f"{path}: expected corpus columns {CORPUS_COLUMNS}, got {header}")

    def parse(cells):
        features = AlignedPairFeatures.from_vector(cells[:8])
        return LabeledPair(features=features, label=int(cells[8]), origin_id=cells[9])

    records = parse_rows(path, rows, parse)
    try:
        return TrainingCorpus(records=records)
    except ValueError as exc:  # a repeated feature tuple
        raise ValueError(f"{path}: {exc}") from None
