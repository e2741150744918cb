"""Simulation sweeps: all-pairs straightness across generator parameters.

Each cell is an isometric subgraph of a host that the host's symmetries keep whole
(the largest grid of its size's parity, or the wheel of its spoke count with the
most rings), and one geodesic batch per host serves its cells."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .generators import GridSpec, RadialSpec, generate_radioconcentric, generate_rectilinear
from .metrics import StraightnessSummary, check_work, nested_summaries

# Side meshing used by the radial simulation sweep.  Corner-only graphs
# (subdivision 1) connect every privileged position directly and their mean
# straightness stays above 0.9 for any spoke count; real intermediate
# destinations along the sides are needed for the sweep to discriminate
# between few and many spokes.
DEFAULT_SWEEP_SUBDIVISION = 4


@dataclass(frozen=True)
class SweepResult:
    """One sweep cell: generator parameters and aggregate."""

    parameters: dict[str, int]
    summary: StraightnessSummary


def _sweep(specs: Iterable, group: Callable, generate: Callable, cell_ids: Callable) -> list:
    """``(spec, summary)`` per spec, each charged as built; one host per ``group`` key,
    generated from its largest spec, serves each distinct spec at ``cell_ids(host, spec)``."""
    charged, groups, spent = [], {}, 0
    for spec in specs:
        spent = check_work(spec.orbit_count, spec.node_count, spec.edge_count, spent)
        charged.append(spec)
        groups.setdefault(group(spec), {})[spec] = None  # distinct, in order
    summaries = {}
    for cells in groups.values():
        host = max(cells, key=lambda spec: spec.node_count)
        ids = [cell_ids(host, spec) for spec in cells]
        summaries.update(zip(cells, nested_summaries(generate(host), ids)))
    return [(spec, summaries[spec]) for spec in charged]


def sweep_rectilinear(sizes: Iterable[int]) -> list[SweepResult]:
    """All-pairs straightness of unit grids, one result per size."""
    specs = (GridSpec(s) for s in sizes)
    cells = _sweep(specs, lambda spec: spec.squares_per_side % 2, generate_rectilinear, _grid_ids)
    return [SweepResult({"squares_per_side": s.squares_per_side}, summary) for s, summary in cells]


def sweep_radial(
    radii: Iterable[int],
    rings: Iterable[int],
    subdivision: int = DEFAULT_SWEEP_SUBDIVISION,
) -> list[SweepResult]:
    """All-pairs straightness of radio-concentric networks over (k, m)."""
    rings = list(rings)
    specs = (RadialSpec(k, m, subdivision) for k in radii for m in rings)
    cells = _sweep(specs, lambda spec: spec.radii_count, generate_radioconcentric, _wheel_ids)
    return [
        SweepResult({"radii": s.radii_count, "rings": s.rings_count}, summary)
        for s, summary in cells
    ]


def _grid_ids(host: GridSpec, cell: GridSpec) -> np.ndarray:
    """Host ids of ``cell``'s nodes, row by row, both coordinates shifted by (S - s) / 2."""
    s = cell.squares_per_side
    i = (host.squares_per_side - s) // 2 + np.arange(s + 1)
    return (i[:, None] * (host.squares_per_side + 1) + i).ravel()


def _wheel_ids(host: RadialSpec, cell: RadialSpec) -> np.ndarray:
    """Host ids of the center and ``cell``'s first rings of corners (same ids) and side
    nodes (shifted by the host's extra corners); the host's D_k keeps each ring whole."""
    k, m = cell.radii_count, cell.rings_count
    sides = 1 + m * k + np.arange(m * k * (cell.side_subdivision - 1))
    return np.concatenate([np.arange(1 + m * k), sides + (host.rings_count - m) * k])
