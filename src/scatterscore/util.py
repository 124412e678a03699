"""Shared helpers: deterministic seed derivation and the CSV reader/writer
that every file the package reads or writes goes through."""
from __future__ import annotations

import csv
import itertools
import zlib
from collections.abc import Iterator

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


# numpy's SeedSequence hash constants, and the multiplier of PCG64's LCG
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF, 0x2360ED051FC65DA44385DF649FCCF645


def _seed_block(parts, n64: int) -> np.ndarray:
    """(m, n64) uint64: ``SeedSequence([_as_entropy(p) for p in parts]).generate_state(n64, np.uint64)``
    per row, hashed in uint32 columns, where a uint64 array in ``parts`` gives one value per row.  Rows
    whose value is one entropy word (below 2**32) where others are two go through SeedSequence."""
    m = next(len(p) for p in parts if isinstance(p, np.ndarray))
    columns = [p if isinstance(p, np.ndarray) else np.full(m, _as_entropy(p), dtype=np.uint64) for p in parts]
    words, odd = [], np.zeros(m, dtype=bool)
    for c in columns:
        lo, hi = (c & _M32).astype(np.uint32), (c >> 32).astype(np.uint32)
        words += [lo, hi] if hi.any() else [lo]
        odd |= (hi == 0) & hi.any()
    h, mult = _INIT_A, _MULT_A

    def hashmix(v):
        nonlocal h
        v, h = v ^ h, h * mult & _M32
        v = v * h
        return v ^ (v >> 16)

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else np.zeros(m, dtype=np.uint32)) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w, dst in itertools.product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(w))
    h, mult = _INIT_B, _MULT_B  # generate_state: the same step with other constants
    state = np.stack([hashmix(pool[i % 4]) for i in range(2 * n64)], axis=1).astype("<u4").view("<u8")
    for r in np.flatnonzero(odd):
        state[r] = np.random.SeedSequence([int(c[r]) for c in columns]).generate_state(n64, dtype=np.uint64)
    return state


def spawn_rngs(seed: int, path: tuple, indices, *hops: tuple):
    """For each j of ``indices``, one reused Generator in the state of ``spawn_rng(seed, *path, j)``, or of
    ``spawn_rng(derive_seed(seed, *path, j), *hop)`` given one hop.  Use each before taking the next.

    The seeds of all indices are derived at once, on the first draw; they become Python ints 128 at a
    time, which keeps a list of ints for every index out of memory."""
    values = _seed_block([seed, *path, np.asarray(indices, dtype=np.uint64)], 1)[:, 0]
    for hop in hops:
        values = _seed_block([values, *hop], 1)[:, 0]
    states = _seed_block([values], 4)
    rng = np.random.Generator(np.random.PCG64(0))
    state = rng.bit_generator.state  # has_uint32 and uinteger 0, as after seeding
    for start in range(0, len(states), 128):
        for s_hi, s_lo, i_hi, i_lo in states[start:start + 128].tolist():
            inc = ((i_hi << 64 | i_lo) << 1 | 1) % 2**128
            state["state"] = {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) % 2**128, "inc": inc}
            rng.bit_generator.state = state
            yield rng


def fmt_num(x) -> str:
    """Format a number for CSV output at 9 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x) + 0.0  # normalize -0.0
    return f"{xf:.9g}"


def read_rows(path):
    """Yield (line number, stripped cells) per non-blank row of a UTF-8 CSV, with or without a byte-order
    mark; blank lines do not shift the numbers.  Bytes that do not decode, or a row the csv module cannot
    read, raise a ValueError that names the file (and the row)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                cells = [c.strip() for c in row]
                if any(cells):
                    yield reader.line_num, cells
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: row {reader.line_num}: {exc}") from None


def read_table(path, required=()) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """(lower-cased header, iterator of (line, cells) per row) of a CSV; the
    iterator is empty, and the header ``[]``, when the file is.

    Raises ValueError when a ``required`` column is missing; the iterator
    raises it at a row that is not as wide as the header.  Rows are read
    as they are taken, so a caller that keeps only what it parses holds no
    list of the file's cells.
    """
    rows = read_rows(path)
    first = next(rows, None)
    if first is None:
        return [], iter(())
    header = [c.lower() for c in first[1]]
    missing = [c for c in required if c not in header]
    if missing:
        rows.close()
        raise ValueError(f"{path}: missing required columns {missing}")
    return header, _of_width(path, rows, len(header))


def _of_width(path, rows, width: int):
    for line, cells in rows:
        if len(cells) != width:
            raise ValueError(f"{path}: row {line}: expected {width} cells, got {len(cells)}")
        yield line, cells


def parse_rows(path, rows, parse):
    """Yield (line, ``parse(cells)``) per (line, cells) row; a ValueError from
    ``parse`` gains the path and line number."""
    for line, cells in rows:
        try:
            value = parse(cells)
        except ValueError as exc:
            raise ValueError(f"{path}: row {line}: {exc}") from None
        yield line, value


def reject_repeated_ids(path, parsed, what: str) -> list:
    """The values of ``parsed``, (line, (id, ...)) pairs, without their lines;
    ValueError at the row whose id repeats an earlier one, naming both rows."""
    first_line: dict[str, int] = {}
    for line, (item_id, *_) in parsed:
        if item_id in first_line:
            raise ValueError(f"{path}: row {line}: {what} {item_id!r} repeats row {first_line[item_id]}")
        first_line[item_id] = line
    return [value for _, value in parsed]


def write_csv(path, header, rows) -> None:
    """Write a header and rows, numbers via :func:`fmt_num`; cells with a comma,
    quote or newline are quoted the usual CSV way."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else fmt_num(c) for c in row] for row in rows)
