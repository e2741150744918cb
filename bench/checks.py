"""Output checks and oracles, run in the parent after each job.

Each check returns ``(attempted, failed)`` operations for one job.  An
operation is a sweep cell, a CLI command or a pair row; it fails on a
nonzero exit code or on output outside ``TOLERANCE`` of the reference.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads

TOLERANCE = 1e-9
RADIAL_REFERENCE = Path(__file__).with_name("radial_reference.json")


def grid_oracle(size: int) -> tuple[int, float, float]:
    """Exact pair count, mean and population std of straightness on a grid.

    On a unit grid with ``n = size + 1`` nodes per side the geodesic of an
    offset ``(a, b)`` is ``a + b``, so straightness depends on the offset
    class alone.  The class holds ``(n - a)(n - b)`` unordered pairs, twice
    that when both a and b are positive (the two mirror diagonals).
    """
    n = size + 1
    weights, values = [], []
    for a in range(n):
        for b in range(n):
            if a == 0 and b == 0:
                continue
            weights.append((n - a) * (n - b) * (2 if a and b else 1))
            values.append(math.hypot(a, b) / (a + b))
    w = np.array(weights, dtype=float)
    v = np.array(values)
    total = w.sum()
    mean = float((w * v).sum() / total)
    std = float(math.sqrt((w * (v - mean) ** 2).sum() / total))
    return int(total), mean, std


def grid_pairs(tiny: bool) -> int:
    return sum(grid_oracle(s)[0] for s in workloads.GRID_SIZES[tiny])


def check_grid(outcome: dict, tiny: bool) -> tuple[int, int]:
    cells = {cell[0]: cell for cell in outcome["cells"]}
    sizes = workloads.GRID_SIZES[tiny]
    failed = 0
    for size in sizes:
        pairs, mean, std = grid_oracle(size)
        cell = cells.get(size)
        if (
            cell is None
            or cell[1] != pairs
            or cell[4] != 0
            or abs(cell[2] - mean) > TOLERANCE
            or abs(cell[3] - std) > TOLERANCE
        ):
            failed += 1
    return len(sizes), failed


def radial_reference(tiny: bool) -> dict[tuple[int, int], list]:
    """Reference cells ``(k, m) -> [pair_count, mean, std_dev, skipped]``."""
    data = json.loads(RADIAL_REFERENCE.read_text())
    if data["subdivision"] != workloads.RADIAL_SUBDIVISION:
        raise ValueError(f"{RADIAL_REFERENCE.name} is for another subdivision")
    return {
        (k, m): data["cells"][f"{k},{m}"]
        for k in workloads.RADIAL_RADII[tiny]
        for m in workloads.RADIAL_RINGS[tiny]
    }


def radial_pairs(tiny: bool) -> int:
    return sum(cell[0] for cell in radial_reference(tiny).values())


def _read_csv(path: Path) -> list[list[str]]:
    if not path.is_file():
        return []
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _contains(path: Path, marker: str) -> bool:
    return path.is_file() and marker in path.read_text()


def check_radial(outcome: dict, workdir: Path, tiny: bool) -> tuple[int, int]:
    """Sweep cells against the reference, plus one operation per command."""
    reference = radial_reference(tiny)
    rows = {}
    for row in _read_csv(workdir / "sweep_radial.csv"):
        try:
            rows[(int(row[0]), int(row[1]))] = [int(row[2]), float(row[3]),
                                                float(row[4]), int(row[5])]
        except (IndexError, ValueError):
            continue
    failed = 0
    for key, (pairs, mean, std, skipped) in reference.items():
        got = rows.get(key)
        if (
            got is None
            or got[0] != pairs
            or got[3] != skipped
            or abs(got[1] - mean) > TOLERANCE
            or abs(got[2] - std) > TOLERANCE
        ):
            failed += 1
    outputs_ok = [
        (workdir / "sweep_radial.csv").is_file(),
        _contains(workdir / "sweep_radial.svg", "<svg"),
        _contains(workdir / "curves.csv", "alpha")
        and _contains(workdir / "curves.svg", "<svg"),
        True,  # validate writes no file; its exit code decides
    ]
    for code, ok in zip(outcome["exit_codes"], outputs_ok, strict=True):
        failed += code != 0 or not ok
    return len(reference) + len(outputs_ok), failed


class PairsReference:
    """Geodesics of a graph JSON by Floyd-Warshall, independent of the program."""

    def __init__(self, graph_text: str) -> None:
        data = json.loads(graph_text)
        positions = np.array([[node["x"], node["y"]] for node in data["nodes"]])
        edges = np.array([[edge["u"], edge["v"]] for edge in data["edges"]])
        n = len(positions)
        lengths = np.hypot(*(positions[edges[:, 0]] - positions[edges[:, 1]]).T)
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        dist[edges[:, 0], edges[:, 1]] = lengths
        dist[edges[:, 1], edges[:, 0]] = lengths
        for k in range(n):
            np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
        self.u, self.v = np.triu_indices(n, 1)
        delta = positions[self.u] - positions[self.v]
        self.d_spatial = np.hypot(delta[:, 0], delta[:, 1])
        self.d_geodesic = dist[self.u, self.v]
        ratio = self.d_spatial / self.d_geodesic
        self.mean = float(ratio.mean())
        self.std = float(np.sqrt(np.mean((ratio - self.mean) ** 2)))
        self.nodes, self.edges = n, len(edges)

    @property
    def pairs(self) -> int:
        return len(self.u)


def _pair_rows(path: Path) -> np.ndarray:
    """The pair table as floats; a row that does not parse becomes NaN."""
    if not path.is_file():
        return np.zeros((0, 5))
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        rows = []
        for line in path.read_text().splitlines()[1:]:
            try:
                row = [float(field) for field in line.split(",")]
            except ValueError:
                row = []
            rows.append(row if len(row) == 5 else [math.nan] * 5)
        return np.array(rows, dtype=float).reshape(-1, 5)


def _summary_value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(f"{key}:"):
            return float(line.split(":", 1)[1])
    return math.nan


def check_pairs(outcome: dict, workdir: Path, ref: PairsReference) -> tuple[int, int]:
    """Every pair row against the reference, plus the command itself."""
    rows = _pair_rows(workdir / "pairs.csv")
    if rows.shape[1] != 5:
        rows = np.zeros((0, 5))
    m = min(len(rows), ref.pairs)
    got = rows[:m]
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = (
            (got[:, 0] == ref.u[:m])
            & (got[:, 1] == ref.v[:m])
            & (np.abs(got[:, 2] - ref.d_spatial[:m]) <= TOLERANCE)
            & (np.abs(got[:, 3] - ref.d_geodesic[:m]) <= TOLERANCE)
            & (np.abs(got[:, 4] - got[:, 2] / got[:, 3]) <= TOLERANCE)
        )
    failed = int(m - ok.sum()) + (ref.pairs - m)
    stdout = outcome["stdout"][0]
    command_ok = (
        outcome["exit_codes"][0] == 0
        and len(rows) == ref.pairs
        and abs(_summary_value(stdout, "mean") - ref.mean) <= TOLERANCE
        and abs(_summary_value(stdout, "std_dev") - ref.std) <= TOLERANCE
    )
    return ref.pairs + 1, failed + (not command_ok)
