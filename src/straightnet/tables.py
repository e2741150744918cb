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
RECT_SWEEP_HEADER = ["squares_per_side", "pair_count", "mean", "std_dev", "skipped"]
RADIAL_SWEEP_HEADER = ["radii", "rings", "pair_count", "mean", "std_dev", "skipped"]
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


def write_rect_sweep_csv(path, results: Iterable[SweepResult]) -> None:
    rows = [
        [
            r.parameters["squares_per_side"],
            r.summary.pair_count,
            format_ratio(r.summary.mean),
            format_ratio(r.summary.std_dev),
            r.summary.skipped_pairs,
        ]
        for r in results
    ]
    _write_rows(path, RECT_SWEEP_HEADER, rows)


def write_radial_sweep_csv(path, results: Iterable[SweepResult]) -> None:
    rows = [
        [
            r.parameters["radii"],
            r.parameters["rings"],
            r.summary.pair_count,
            format_ratio(r.summary.mean),
            format_ratio(r.summary.std_dev),
            r.summary.skipped_pairs,
        ]
        for r in results
    ]
    _write_rows(path, RADIAL_SWEEP_HEADER, rows)


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
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty table")
        return list(reader.fieldnames), list(reader)
