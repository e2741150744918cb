"""CSV tables: their schemas, writers, one reader and the series ``plot`` draws.

Curves, sweep cells and node pairs each have one table.  Angles and
distances have 12 significant digits, straightness-like values 9 (enough
to re-check 1e-9 tolerances straight from the files) and counts are
integers, all as ``%g``/``%d`` print them, with plain "\\n" line endings so
output bytes do not depend on the platform.  The curve and sweep writers
format a row with one ``%`` template; the pair writer, whose table grows
with the square of the node count, formats whole columns with numpy and
falls back to ``%`` one value at a time where that could differ.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .svgplot import Series

CURVE_HEADER = ["alpha", "straightness", "network", "k"]
# A sweep table has its parameter columns, then these summary columns.
SWEEP_SUMMARY_HEADER = ["pair_count", "mean", "std_dev", "skipped"]
PAIRS_HEADER = ["u", "v", "d_spatial", "d_geodesic", "straightness"]

# Pairs formatted and written at once, about 1.5 MB of text, so memory stays flat while
# numpy's per-call cost spreads over ~2**14 rows instead of one source's few hundred.
CHUNK_PAIRS = 1 << 14

_PAD = 0  # the byte that marks the unused end of a field, dropped before writing


def _word_table() -> np.ndarray:
    """4 ASCII digits as one uint32 per 0 <= w < 10**4: ``[w]`` prints w zero-padded,
    ``[w + 10**4]`` with leading zeros as ``_PAD`` ("0" for 0), ``[w + 2 * 10**4]`` with
    trailing zeros as ``_PAD`` (all ``_PAD`` for 0)."""
    digit = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # of each w, highest first
    zero = digit == 0
    lead = np.logical_and.accumulate(zero, axis=0)
    lead[-1] = False
    trail = np.logical_and.accumulate(zero[::-1], axis=0)[::-1]
    table = np.where([np.zeros_like(zero), lead, trail], np.uint8(_PAD), digit + ord("0"))
    return np.ascontiguousarray(table.transpose(0, 2, 1)).view(np.uint32).ravel()


_WORDS = _word_table()
_INT_POWERS = 10 ** np.arange(19, dtype=np.int64)
_POWERS = _INT_POWERS.astype(float)  # exact, so x * 10**k rounds once


def _open_table(path, header: Sequence[str]):
    """Open ``path`` for writing and write the header line."""
    fh = Path(path).open("w", encoding="utf-8", newline="")
    fh.write(",".join(header) + "\n")
    return fh


def write_curve_csv(
    path, curves: Iterable[tuple[str, int, Iterable[tuple[float, float]]]]
) -> None:
    """One row per (network, alpha) sample: ``alpha,straightness,network,k``."""
    with _open_table(path, CURVE_HEADER) as fh:
        for network, k, samples in curves:
            fh.writelines("%.12g,%.9g,%s,%d\n" % (*s, network, k) for s in samples)


def write_sweep_csv(path, results: Sequence) -> None:
    """One row per ``SweepResult``; parameter columns from ``results[0]``."""
    if not results:
        raise ValueError("no sweep results to write")
    parameters = list(results[0].parameters)
    template = "%d," * len(parameters) + "%d,%.9g,%.9g,%d\n"
    with _open_table(path, [*parameters, *SWEEP_SUMMARY_HEADER]) as fh:
        for r in results:
            s = r.summary
            values = (s.pair_count, s.mean, s.std_dev, s.skipped_pairs)
            fh.write(template % (*r.parameters.values(), *values))


def write_pairs_csv(path, rows: Iterable[tuple]) -> Iterator[tuple]:
    """Pass :func:`~straightnet.metrics.straightness_rows` rows on, writing each.

    ``path`` is opened when the first row is asked for.  Source ``u`` adds
    its ``v > u`` pairs, so rows of every node in id order give all pairs.
    Pairs are written once ``CHUNK_PAIRS`` are held, and at the end.
    """
    with Path(path).open("wb") as fh:
        fh.write(",".join(PAIRS_HEADER).encode() + b"\n")
        held, count = [], 0  # (u, its d_spatial, d_geodesic and straightness tails)
        for row in rows:
            u, _, *columns = row
            tails = [c[u + 1 :].copy() for c in columns]  # copied: a row may be a view
            held.append((u, *tails))
            count += len(tails[0])
            if count >= CHUNK_PAIRS:
                fh.write(_pair_lines(held))
                held, count = [], 0
            yield row
        if count:
            fh.write(_pair_lines(held))


def _pair_lines(held: list[tuple]) -> bytes:
    """The table lines of ``(u, d_spatial, d_geodesic, straightness)`` tails."""
    sources, *columns = zip(*held)
    sources, lengths = np.array(sources), [len(tail) for tail in columns[0]]
    first = np.cumsum([0, *lengths[:-1]])  # each source's first pair
    v = np.arange(sum(lengths)) + np.repeat(sources + 1 - first, lengths)
    floats = [_floats(np.concatenate(c), d) for c, d in zip(columns, (12, 12, 9))]
    return _lines([np.repeat(_integers(sources), lengths, axis=1), _integers(v), *floats])


def _lines(fields: list[np.ndarray]) -> bytes:
    """Comma-separated lines of columns of 4-byte words, without their ``_PAD`` bytes."""
    comma, newline = (np.full((1, fields[0].shape[1]), ord(c), np.uint32) for c in ",\n")
    words = np.vstack([*(w for f in fields[:-1] for w in (f, comma)), fields[-1], newline])
    text = words.T.ravel().view(np.uint8)  # row by row
    return text[text != _PAD].tobytes()


def _integers(n: np.ndarray) -> np.ndarray:
    """``%d`` of non-negative int64s: a column of 4-byte words each, padded with ``_PAD``."""
    words = _words(n, -(-len(str(n.max())) // 4))
    digits = np.searchsorted(_INT_POWERS[1:], n, side="right") + 1
    first = len(words) - (digits + 3) // 4  # the word holding the leading digit
    place = np.arange(len(words))[:, None]  # blank before it, no leading zeros in it
    return _WORDS[words + 10**4 * (2 * (place < first) + (place == first))]


def _floats(x: np.ndarray, digits: int) -> np.ndarray:
    """``%.{digits}g`` of float64s: a column of 4-byte words each, padded with ``_PAD``.

    For 10**-4 <= x < 10**digits, %g prints x * 10**k rounded half to even
    to an integer of ``digits`` digits, the point moved k places left, then
    strips trailing zeros.  One correctly rounded multiply by an exact 10**k
    puts y within half an ulp of x * 10**k, so rint(y) is that integer
    unless y is within an ulp of a tie or rounds up to 10**digits (a y that
    rounded up to 10**(digits - 1) prints as % would).  ``%`` formats those
    values, one at a time, and every other x: 0, negative, inf, nan or in
    exponent notation.
    """
    with np.errstate(all="ignore"):  # log10 of 0 or a negative; inf - inf
        shift = np.nan_to_num(np.clip(digits - 1 - np.floor(np.log10(x)), 0, digits + 3))
        shift = shift.astype(np.intp)  # digits after the point: x >= 10**-4
        y = x * _POWERS[shift]
        fast = (y >= 10.0 ** (digits - 1)) & (y < 10.0**digits - 1)
        fast &= np.abs(y - np.floor(y) - 0.5) > np.spacing(y)
    whole, part = np.divmod(np.where(fast, np.rint(y), 0).astype(np.int64), _INT_POWERS[shift])
    head = _integers(whole)
    lines = {i: b"%.*g" % (digits, x[i]) for i in np.flatnonzero(~fast).tolist()}
    room = max((len(line) + 3) // 4 for line in lines.values()) - len(head) - 1 if lines else 0
    count = max(-(-shift.max(initial=0, where=fast) // 4), room)  # fraction words
    tail, later = [], np.zeros(len(x), bool)  # later: a nonzero fraction word after this one
    for word in _words(part * _INT_POWERS[4 * count - shift * fast], count)[::-1]:
        tail.append(_WORDS[word + 2 * 10**4 * ~later])  # the last nonzero word: no trailing 0s
        later |= word != 0
    point = np.where(later, ord("."), _PAD).astype(np.uint32)
    words = np.vstack([head, point, *tail[::-1]])
    for i, line in lines.items():
        words[:, i] = np.frombuffer(line.ljust(4 * len(words), bytes([_PAD])), np.uint32)
    return words


def _words(n: np.ndarray, count: int) -> np.ndarray:
    """The last ``count`` base-10**4 digits of non-negative int64s, highest first."""
    words = np.empty((count, len(n)), dtype=np.intp)
    for i in reversed(range(count)):
        n, words[i] = np.divmod(n, 10**4)
    return words


def read_table(path) -> tuple[list[str], list[dict[str, str]]]:
    """Read a CSV produced by the writers above; values stay as strings."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty table")
            rows = []
            for fields in filter(None, reader):  # blank lines are skipped
                if len(fields) != len(header):
                    counts = f"{len(fields)} fields, the header {len(header)}"
                    raise ValueError(f"{path}: line {reader.line_num} has {counts}")
                rows.append(dict(zip(header, fields)))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
        return header, rows


def plot_series(path, x=None, y=None, series=None) -> tuple[str, str, list[Series]]:
    """The ``(x, y, series)`` that ``plot`` draws from the table at ``path``.

    Without ``x``, a curve table plots straightness over alpha, one series
    per network and k, and a sweep table its mean over the first parameter,
    one series per value of the others; a given ``y`` or ``series`` still
    wins.  Series are labelled ``col=value ...`` (``y`` without series
    columns) in first-seen row order.  Rows whose x or y is not finite, as
    in a pair table, are left out.
    """
    header, rows = read_table(path)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if x is None:
        split = len(header) - len(SWEEP_SUMMARY_HEADER)
        if CURVE_HEADER[0] in header:
            x, default_y, default_series = CURVE_HEADER[0], CURVE_HEADER[1], CURVE_HEADER[2:]
        elif split > 0 and header[split:] == SWEEP_SUMMARY_HEADER:
            x, default_y, default_series = header[0], "mean", header[1:split]
        else:
            raise ValueError("cannot infer plot columns; pass --x/--y (and optionally --series)")
        y = y or default_y
        series = default_series if series is None else series
    if y is None:
        raise ValueError("missing --y column")
    series = series or []
    for column in (x, y, *series):
        if column not in header:
            raise ValueError(f"column {column!r} not in table header {header}")
    grouped: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        point = _number(path, x, row[x]), _number(path, y, row[y])
        if math.isfinite(point[0]) and math.isfinite(point[1]):
            label = " ".join(f"{column}={row[column]}" for column in series) or y
            grouped.setdefault(label, []).append(point)
    return x, y, [Series(label, tuple(points)) for label, points in grouped.items()]


def _number(path, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}: column {column!r} holds {text!r}, not a number") from None
