"""Simulation sweeps: all-pairs straightness across generator parameters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .generators import GridSpec, RadialSpec, generate_radioconcentric, generate_rectilinear
from .metrics import StraightnessSummary, check_work, orbit_rows, summarize

# Side meshing used by the radial simulation sweep.  Corner-only graphs
# (subdivision 1) connect every privileged position directly and their mean
# straightness stays above 0.9 for any spoke count; real intermediate
# destinations along the sides are needed for the sweep to discriminate
# between few and many spokes.
DEFAULT_SWEEP_SUBDIVISION = 4


@dataclass(frozen=True)
class SweepResult:
    """One sweep cell: generator parameters and aggregate (packed cells have no own time)."""

    parameters: dict[str, int]
    summary: StraightnessSummary


def _sweep(generate, cells) -> list[SweepResult]:
    """Generate and summarize each ``(parameters, spec)`` cell in order.

    The cells, and the geodesic work of all of them from the specs' counts
    (one source per orbit), are checked before any graph is generated.
    """
    check_work((spec.orbit_count, spec.node_count, spec.edge_count) for _, spec in cells)
    graphs = orbit_rows(generate(spec) for _, spec in cells)  # each built when first read
    return [
        SweepResult(parameters, summarize(graph, rows=rows))
        for (parameters, _), (graph, rows) in zip(cells, graphs)
    ]


def sweep_rectilinear(sizes: Iterable[int]) -> list[SweepResult]:
    """All-pairs straightness of unit grids, one result per size."""
    cells = [({"squares_per_side": s}, GridSpec(s)) for s in sizes]
    return _sweep(generate_rectilinear, cells)


def sweep_radial(
    radii: Iterable[int],
    rings: Iterable[int],
    subdivision: int = DEFAULT_SWEEP_SUBDIVISION,
) -> list[SweepResult]:
    """All-pairs straightness of radio-concentric networks over (k, m)."""
    rings = list(rings)
    cells = [
        ({"radii": k, "rings": m}, RadialSpec(k, m, subdivision))
        for k in radii
        for m in rings
    ]
    return _sweep(generate_radioconcentric, cells)
