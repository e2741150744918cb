"""CSV tables: their schemas, writers and plot defaults, and one reader.

Curves, sweep cells and node pairs each have one table.  Every writer
formats a row with one ``%`` template: angles and distances with 12
significant digits, straightness-like values with 9 (enough to re-check
1e-9 tolerances straight from the files) and counts as integers, with
plain "\\n" line endings so output bytes do not depend on the platform.
"""

from __future__ import annotations

import csv
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

CURVE_HEADER = ["alpha", "straightness", "network", "k"]
# A sweep table has its parameter columns, then these summary columns.
SWEEP_SUMMARY_HEADER = ["pair_count", "mean", "std_dev", "skipped"]
PAIRS_HEADER = ["u", "v", "d_spatial", "d_geodesic", "straightness"]


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


def plot_columns(header: list[str]) -> tuple[str, str, list[str]] | None:
    """Default ``(x, y, series)`` plot columns of a curve or sweep table, else None.

    A sweep table plots its mean over the first parameter, one series per
    value of the others.
    """
    if CURVE_HEADER[0] in header:
        return CURVE_HEADER[0], CURVE_HEADER[1], CURVE_HEADER[2:]
    split = len(header) - len(SWEEP_SUMMARY_HEADER)
    if split > 0 and header[split:] == SWEEP_SUMMARY_HEADER:
        return header[0], "mean", header[1:split]
    return None


def write_pairs_csv(path, rows: Iterable[tuple]) -> Iterator[tuple]:
    """Pass :func:`~straightnet.metrics.straightness_rows` rows on, writing each.

    ``path`` is opened when the first row is asked for.  Source ``u`` adds
    its ``v > u`` pairs, so rows of every node in id order give all pairs.
    """
    with _open_table(path, PAIRS_HEADER) as fh:
        for row in rows:
            u, _, *columns = row  # d_spatial, d_geodesic, straightness
            pairs = zip(count(u + 1), *(c[u + 1:].tolist() for c in columns))
            fh.write("".join(map(f"{u},%d,%.12g,%.12g,%.9g\n".__mod__, pairs)))
            yield row


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
