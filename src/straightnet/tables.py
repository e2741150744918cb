"""CSV schemas shared by the command line surface and the test suite.

Angles are written with 12 significant digits and straightness-like values
with 9, enough to re-check 1e-9 tolerances straight from the files.  All
writers emit plain "\\n" line endings so output bytes do not depend on the
platform.
"""

from __future__ import annotations

import csv
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .sweeps import SweepResult

CURVE_HEADER = ["alpha", "straightness", "network", "k"]
# A sweep table has its parameter columns, then these summary columns.
SWEEP_SUMMARY_HEADER = ["pair_count", "mean", "std_dev", "skipped"]
PAIRS_HEADER = ["u", "v", "d_spatial", "d_geodesic", "straightness"]


def format_angle(value: float) -> str:
    return f"{value:.12g}"


def format_ratio(value: float) -> str:
    return f"{value:.9g}"


def _write_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_curve_csv(
    path, curves: Iterable[tuple[str, int, Iterable[tuple[float, float]]]]
) -> None:
    """One row per (network, alpha) sample: ``alpha,straightness,network,k``."""
    rows = [
        [format_angle(alpha), format_ratio(s), network, k]
        for network, k, samples in curves
        for alpha, s in samples
    ]
    _write_rows(path, CURVE_HEADER, rows)


def write_sweep_csv(path, results: Sequence[SweepResult]) -> None:
    """One row per sweep cell; parameter columns from ``results[0]``."""
    if not results:
        raise ValueError("no sweep results to write")
    rows = [
        [
            *r.parameters.values(),
            r.summary.pair_count,
            format_ratio(r.summary.mean),
            format_ratio(r.summary.std_dev),
            r.summary.skipped_pairs,
        ]
        for r in results
    ]
    _write_rows(path, [*results[0].parameters, *SWEEP_SUMMARY_HEADER], rows)


def sweep_parameters(header: list[str]) -> list[str]:
    """Parameter columns of a sweep table header; empty for other tables."""
    split = len(header) - len(SWEEP_SUMMARY_HEADER)
    return header[:split] if header[split:] == SWEEP_SUMMARY_HEADER else []


def write_pairs_csv(path, rows: Iterable[tuple]) -> Iterator[tuple]:
    """Pass :func:`~straightnet.metrics.straightness_rows` rows on, writing each.

    ``path`` is opened when the first row is asked for.  Source ``u`` adds
    its ``v > u`` pairs, so rows of every node in id order give all pairs.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(PAIRS_HEADER) + "\n")
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
