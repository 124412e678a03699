"""Shared helpers: deterministic seed derivation and the CSV reader/writer
that every file the package reads or writes goes through."""
from __future__ import annotations

import csv
import zlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _as_entropy(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"seed path parts must be int or str, got {type(part).__name__}")


def derive_seed(seed: int, *path) -> int:
    """Stable 64-bit sub-seed for a (seed, *path) derivation chain.

    Every source of randomness in the package draws from seeds produced
    here, so a run is fully determined by one top-level seed plus the
    documented path (operation name, replica index, ...).
    """
    ss = np.random.SeedSequence([_as_entropy(seed)] + [_as_entropy(p) for p in path])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def spawn_rng(seed: int, *path) -> np.random.Generator:
    """Generator seeded by ``derive_seed(seed, *path)``."""
    return np.random.default_rng(derive_seed(seed, *path))


def fmt_num(x) -> str:
    """Format a number for CSV output at 9 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x) + 0.0  # normalize -0.0
    return f"{xf:.9g}"


def read_rows(path):
    """Yield (line number, stripped cells) per non-blank row; blank lines do not shift the numbers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            cells = [c.strip() for c in row]
            if any(cells):
                yield reader.line_num, cells


def read_table(path, required=()) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """(lower-cased header, [(line, cells)]) of a CSV; ``([], [])`` when empty.

    Raises ValueError when a ``required`` column is missing or a row is not
    as wide as the header.
    """
    rows = list(read_rows(path))
    if not rows:
        return [], []
    header = [c.lower() for c in rows[0][1]]
    missing = [c for c in required if c not in header]
    if missing:
        raise ValueError(f"{path}: missing required columns {missing}")
    body = rows[1:]
    for line, cells in body:
        if len(cells) != len(header):
            raise ValueError(f"{path}: row {line}: expected {len(header)} cells, got {len(cells)}")
    return header, body


def parse_rows(path, rows, parse) -> list:
    """``parse(cells)`` per (line, cells) row; its ValueError gains the path and line number."""
    out = []
    for line, cells in rows:
        try:
            out.append(parse(cells))
        except ValueError as exc:
            raise ValueError(f"{path}: row {line}: {exc}") from None
    return out


def write_csv(path, header, rows) -> None:
    """Write a header and rows, numbers via :func:`fmt_num`; cells with a comma,
    quote or newline are quoted the usual CSV way."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else fmt_num(c) for c in row] for row in rows)
