"""CSV tables: their schemas, writers, and the series ``plot`` draws from one.

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

import contextlib
import csv
import errno
import itertools
import math
import os
import pickle
import shutil
import sys
import tempfile
import threading
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from . import shortest_paths
from .analytic import MAX_CURVE_SAMPLES
from .metrics import block_moments, check_work, straightness_blocks, summarize_moments
from .model import NetworkGraph
from .svgplot import Series

CURVE_HEADER = ["alpha", "straightness", "network", "k"]
# A sweep table has its parameter columns, then these summary columns.
SWEEP_SUMMARY_HEADER = ["pair_count", "mean", "std_dev", "skipped"]
PAIRS_HEADER = ["u", "v", "d_spatial", "d_geodesic", "straightness"]

# Pairs each source range formats and writes at once, about 0.7 MB of padded text, so
# memory stays flat while numpy's per-call cost spreads over 2**13 rows, not a source's few.
CHUNK_PAIRS = 1 << 13

# Most source ranges a pair dump runs at once, each after the first in a forked
# process, each with 1/K of CHUNK_ENTRIES per geodesic chunk.  Threads did not help: on
# these 2k-8k-value arrays nearly every numpy call holds the GIL, and two threads
# relaxed 0.95x as fast as one.  On 2 cores the street graph (side 31) dumps in about
# 0.23 s on two processes and 0.40 s on one.  More than two were not measured.
MAX_RANGES = 2
# Relaxing one source costs about as much as writing this many pairs per unit of
# N + E: the street graph is cut at source 353 of 961, and its two range processes
# ended a median 1-4 ms apart (three sets of 11 runs, each with a spread of about
# +-40 ms); the equal-pairs cut at 282 left the forked range a median 82 ms behind.
SOURCE_COST = 0.14

_PAD = 0  # the byte that marks the unused end of a field, dropped before writing
_PAD_BYTE = bytes([_PAD])


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


def write_pairs_csv(path, graph: NetworkGraph, strict: bool = False):
    """Write the ``v > u`` pairs of every node ``u`` of ``graph`` in ``(u, v)`` order, ``nan``
    for a skipped pair, and return their :func:`~straightnet.metrics.summarize_moments`.
    The ``path`` (not a directory, in one that exists), the work of all N sources and the
    graph (``strict`` as for the summary) are checked before the first geodesic.  The
    sources run as :func:`_cuts` ranges, each after the first in a forked process into its
    own temporary file; the table replaces ``path`` once complete, and every process has
    ended by the time the call returns or raises."""
    target = Path(path).resolve()  # a link's target is replaced, not the link
    if target.is_dir() or not target.parent.is_dir():  # named as given, not as the part file
        code = errno.EISDIR if target.is_dir() else errno.ENOENT
        raise OSError(code, os.strerror(code), os.fspath(path))
    check_work(graph.node_count, graph.node_count, graph.edge_count)
    return summarize_moments(graph, _dump(target, graph), strict)  # checks, then reads


def _range_count(nodes: int) -> int:
    """Source ranges a dump of ``nodes`` sources runs at once: one for a graph of one
    geodesic chunk.  Forking is safe only on Linux (macOS system libraries are not
    fork-safe; Windows cannot fork) and only while no other Python thread runs, as the
    child would inherit the locks that thread holds."""
    one_chunk = nodes * nodes <= shortest_paths.CHUNK_ENTRIES
    if one_chunk or sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(MAX_RANGES, len(os.sched_getaffinity(0)))


def _dump(path: Path, graph: NetworkGraph) -> Iterator[tuple]:
    parts = _range_count(graph.node_count)
    cuts = _cuts(graph.node_count, graph.edge_count, parts)
    ranges = zip(cuts, cuts[1:])  # each stream checks its work here, its ids at its first block
    streams = [straightness_blocks(graph, [(u, 1) for u in range(*r)], parts) for r in ranges]
    part = path.with_name(f".{path.name}.{os.urandom(4).hex()}.part")
    fh = part.open("xb")
    children: list[tuple[int, BinaryIO]] = []  # range processes not yet reaped, in order
    try:
        with fh, contextlib.ExitStack() as stack:
            spills = [stack.enter_context(tempfile.TemporaryFile()) for _ in streams[1:]]
            for blocks, spill in zip(streams[1:], spills):
                children.append(_fork(blocks, spill))
            fh.write(",".join(PAIRS_HEADER).encode() + b"\n")
            moments = _run(streams[0], fh)
            for spill in spills:
                moments += _reap(children)
                spill.seek(0)
                shutil.copyfileobj(spill, fh)
        part.replace(path)
    except BaseException:
        _kill(children)
        part.unlink()
        raise
    yield from moments


def _run(blocks: Iterator[tuple], out: BinaryIO) -> list[tuple]:
    """Write the pair lines of a range's blocks to ``out``; return its rows' moments."""
    moments = []
    for block in blocks:
        out.writelines(_pair_lines(block))
        moments += block_moments(block[1], block[4])
    return moments


def _fork(blocks: Iterator[tuple], out: BinaryIO) -> tuple[int, BinaryIO]:
    """Run a range in a child process; return its pid and the pipe on which it sends
    ``("ok", moments)`` or ``("error", exception)`` before it ends."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    code = 1
    try:  # the child never returns: its copy of the caller's stack must not run on
        os.close(read)
        try:
            result = "ok", _run(blocks, out)
            out.flush()
        except BaseException as exc:
            result = "error", exc
        with open(write, "wb") as pipe:
            pipe.write(_pickled(*result))
        code = 0
    finally:
        os._exit(code)


def _pickled(kind: str, value) -> bytes:
    """``(kind, value)`` pickled; an exception that does not survive a round trip is
    sent as its nearest built-in type with the same message, prefixed by its type."""
    try:
        data = pickle.dumps((kind, value))
        pickle.loads(data)  # an exception may pickle and still fail to unpickle
        return data
    except Exception:
        builtin = next(t for t in type(value).__mro__ if t.__module__ == "builtins")
        return pickle.dumps((kind, builtin(f"{type(value).__qualname__}: {value}")))


def _reap(children: list[tuple[int, BinaryIO]]) -> list[tuple]:
    """The moments of the first range process once it has ended, or its exception."""
    pid, pipe = children[0]
    with pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del children[0]
    if code:  # killed (out of memory, say) or could not send: what it sent is cut short
        how = f"by signal {-code}" if code < 0 else f"with exit code {code}"
        raise ChildProcessError(f"a source range process ended {how} before its rows")
    kind, value = pickle.loads(data)
    if kind == "error":
        raise value
    return value


def _kill(children: list[tuple[int, BinaryIO]]) -> None:
    """Kill and reap the range processes not yet reaped."""
    import signal  # only ever needed here

    for pid, pipe in children:
        pipe.close()
        os.kill(pid, signal.SIGKILL)  # an ended one waits as a zombie, so the pid is its own
        os.waitpid(pid, 0)
    children.clear()


def _cuts(nodes: int, edges: int, parts: int) -> list[int]:
    """Bounds of ``parts`` source ranges that take about as long: source u writes
    N - 1 - u pairs and relaxes as long as writing SOURCE_COST * (N + E) pairs takes."""
    cost = np.cumsum(nodes - 1 - np.arange(nodes) + SOURCE_COST * (nodes + edges))
    cuts = np.searchsorted(cost, cost[-1] * np.arange(1, parts) / parts) + 1  # none empty
    return [0, *cuts.tolist(), nodes]


def _pair_lines(block: tuple) -> Iterator[bytes]:
    """The table lines of a block's ``v > u`` pairs, about ``CHUNK_PAIRS`` at a time."""
    u, _, *columns = block  # d_spatial, d_geodesic, straightness
    above = np.arange(columns[0].shape[1]) > u[:, None]
    ends = np.cumsum(above.sum(axis=1))
    cuts = np.searchsorted(ends, np.arange(CHUNK_PAIRS, ends[-1], CHUNK_PAIRS)) + 1
    for lo, hi in itertools.pairwise([0, *cuts.tolist(), len(u)]):
        if (pairs := above[lo:hi]).any():
            floats = [_floats(c[lo:hi][pairs], d) for c, d in zip(columns, (12, 12, 9))]
            u_words = np.repeat(_integers(u[lo:hi]), pairs.sum(axis=1), axis=1)
            yield _lines([u_words, _integers(np.nonzero(pairs)[1]), *floats])


def _lines(fields: list[np.ndarray]) -> bytes:
    """Comma-separated lines of columns of 4-byte words, without their ``_PAD`` bytes."""
    comma, newline = (np.full((fields[0].shape[1], 1), ord(c), np.uint32) for c in ",\n")
    words = [*(w for f in fields[:-1] for w in (f.T, comma)), fields[-1].T, newline]
    text = np.concatenate(words, axis=1).ravel().view(np.uint8)  # row by row
    return text.tobytes().translate(None, _PAD_BYTE)  # faster than a mask, and no index


def _integers(n: np.ndarray) -> np.ndarray:
    """``%d`` of non-negative int64s: a column of 4-byte words each, padded with ``_PAD``."""
    count = -(-len(str(n.max())) // 4)
    if count == 1:
        return _WORDS[n + 10**4][None]
    words = _words(n, count)
    nonzero = words != 0
    nonzero[-1] = True  # 0 prints its last word
    first = nonzero.argmax(axis=0)  # the word holding the leading digit
    place = np.arange(count)[:, None]  # blank before it, no leading zeros in it
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
        words[:, i] = np.frombuffer(line.ljust(4 * len(words), _PAD_BYTE), np.uint32)
    return words


def _words(n: np.ndarray, count: int) -> np.ndarray:
    """The last ``count`` base-10**4 digits of non-negative int64s, highest first."""
    words = np.empty((count, len(n)), dtype=np.intp)
    for i in reversed(range(count)):  # numpy divides by a scalar fast, np.divmod does not
        high = n // 10**4
        words[i] = n - high * 10**4
        n = high
    return words


def plot_series(path, x=None, y=None, series=None) -> tuple[str, str, list[Series]]:
    """The ``(x, y, series)`` that ``plot`` draws from the table at ``path``.

    Without ``x``, a curve table plots straightness over alpha, one series
    per network and k, and a sweep table its mean over the first parameter,
    one series per value of the others; a given ``y`` or ``series`` still
    wins.  Series are labelled ``col=value ...`` (``y`` without series
    columns) in first-seen row order.  Rows whose x or y is not finite, as
    in a pair table, are left out.  The table is read in one pass, with the
    columns checked at its first data row, so its first fault names the error.
    """
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty table")
            rows = filter(None, reader)  # blank lines are skipped
            first = next(rows, None)
            if first is None:
                raise ValueError(f"{path}: no data rows")
            if x is None:
                split = len(header) - len(SWEEP_SUMMARY_HEADER)
                if CURVE_HEADER[0] in header:
                    x, default_y, *default_series = CURVE_HEADER
                elif split > 0 and header[split:] == SWEEP_SUMMARY_HEADER:
                    x, default_y, default_series = header[0], "mean", header[1:split]
                else:
                    raise ValueError(
                        "cannot infer plot columns; pass --x/--y (and optionally --series)"
                    )
                y = y or default_y
                series = default_series if series is None else series
            if y is None:
                raise ValueError("missing --y column")
            series = series or []
            for column in (x, y, *series):
                if column not in header:
                    raise ValueError(f"column {column!r} not in table header {header}")
            at = {column: i for i, column in enumerate(header)}  # a repeated name: the last
            grouped: dict[str, list[tuple[float, float]]] = {}
            for count, fields in enumerate(itertools.chain([first], rows)):
                if len(fields) != len(header):
                    counts = f"{len(fields)} fields, the header {len(header)}"
                    raise ValueError(f"{path}: line {reader.line_num} has {counts}")
                if count == MAX_CURVE_SAMPLES:
                    raise ValueError(f"{path}: more than {MAX_CURVE_SAMPLES=} data rows")
                point = _number(path, x, fields[at[x]]), _number(path, y, fields[at[y]])
                if math.isfinite(point[0]) and math.isfinite(point[1]):
                    label = " ".join(f"{column}={fields[at[column]]}" for column in series) or y
                    grouped.setdefault(label, []).append(point)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # decoded a block at a time: its position misleads
            raise ValueError(f"{path}: not UTF-8 text: {_undecodable(path) or exc}") from exc
    return x, y, [Series(label, tuple(points)) for label, points in grouped.items()]


def _undecodable(path) -> str | None:
    """Where the file at ``path`` first fails to decode as UTF-8, by line and byte."""
    with Path(path).open("rb") as fh:
        offset = 0
        for number, line in enumerate(fh, 1):  # no UTF-8 sequence holds a "\n" byte
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = f"byte 0x{line[exc.start]:02x} at file offset {offset + exc.start}"
                return f"line {number}: can't decode {byte}: {exc.reason}"
            offset += len(line)
    return None


def _number(path, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}: column {column!r} holds {text!r}, not a number") from None
