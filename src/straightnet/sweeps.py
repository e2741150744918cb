"""Simulation sweeps: all-pairs straightness across generator parameters.

Each cell is an isometric subgraph of a host (the largest grid, or per spoke count
the wheel of the most rings), and one geodesic batch per host serves its cells."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .generators import GridSpec, RadialSpec, generate_radioconcentric, generate_rectilinear
from .metrics import StraightnessSummary, check_work, nested_summaries
from .model import NetworkGraph

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


def _charged(specs: Iterable) -> list:
    """``specs``, refused at the first whose running work passes MAX_WORK, as built."""
    charged, spent = [], 0
    for spec in specs:
        spent = check_work(spec.orbit_count, spec.node_count, spec.edge_count, spent)
        charged.append(spec)
    return charged


def sweep_rectilinear(sizes: Iterable[int]) -> list[SweepResult]:
    """All-pairs straightness of unit grids, one result per size."""
    specs = _charged(GridSpec(s) for s in sizes)
    side = 1 + max((spec.squares_per_side for spec in specs), default=0)
    cells, host = {}, None
    for spec in dict.fromkeys(specs):  # each grid is built: its orbits depend on its size
        graph = generate_rectilinear(spec)
        host = graph if graph.node_count == side * side else host
        ids = (graph.positions @ (1, side)).astype(np.intp)  # the host node at its (i, j)
        cells[spec] = ids, tuple((int(ids[v]), size) for v, size in graph.orbits)
    summaries = dict(zip(cells, nested_summaries(host, list(cells.values()))))
    return [SweepResult({"squares_per_side": s.squares_per_side}, summaries[s]) for s in specs]


def sweep_radial(
    radii: Iterable[int],
    rings: Iterable[int],
    subdivision: int = DEFAULT_SWEEP_SUBDIVISION,
) -> list[SweepResult]:
    """All-pairs straightness of radio-concentric networks over (k, m)."""
    rings = list(rings)
    specs = _charged(RadialSpec(k, m, subdivision) for k in radii for m in rings)
    summaries = {}
    for k in dict.fromkeys(spec.radii_count for spec in specs):  # one host per spoke count
        wheels = dict.fromkeys(RadialSpec(k, m, subdivision) for m in rings)
        host = generate_radioconcentric(spec := max(wheels, key=lambda w: w.rings_count))
        cells = [sub_wheel(host, spec, wheel.rings_count) for wheel in wheels]
        summaries.update(zip(wheels, nested_summaries(host, cells)))
    return [
        SweepResult({"radii": s.radii_count, "rings": s.rings_count}, summaries[s]) for s in specs
    ]


def sub_wheel(host: NetworkGraph, spec: RadialSpec, rings: int) -> tuple:
    """``(ids, orbits)`` of the first ``rings`` rings of ``host``, made by ``spec``.

    Center and corners keep their ids; side ids shift by the host's extra corners.
    Symmetries keep every ring, so the orbits are the host's inside it."""
    k, q = spec.radii_count, spec.side_subdivision
    sides = 1 + rings * k + np.arange(rings * k * (q - 1))
    ids = np.concatenate([np.arange(1 + rings * k), sides + (spec.rings_count - rings) * k])
    inside = np.isin([v for v, _ in host.orbits], ids)
    return ids, tuple(orbit for orbit, kept in zip(host.orbits, inside) if kept)
