"""Per-pair straightness, whole-graph aggregates and analytic cross-checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .analytic import (
    canonicalize,
    sector_angle,
    straightness_radial,
    straightness_rectilinear,
)
from .generators import RadialSpec, ring_node_id, side_node_id
from .model import NetworkGraph, RouteMetrics
from .shortest_paths import all_pairs, dijkstra


@dataclass(frozen=True)
class StraightnessSummary:
    """Aggregate over all unordered node pairs.

    ``std_dev`` is the population standard deviation: the pair set is the
    whole population of routes, not a sample from one.  ``skipped_pairs``
    counts pairs left out of the aggregate (unreachable, or co-located so
    the ratio is undefined); ``pair_count + skipped_pairs == N*(N-1)/2``.
    """

    pair_count: int
    mean: float
    std_dev: float
    skipped_pairs: int


def pair_straightness(
    graph: NetworkGraph, distances: np.ndarray, u: int, v: int
) -> RouteMetrics:
    """Route metrics for one pair, using a precomputed all-pairs matrix."""
    if u == v:
        raise ValueError("straightness of a node with itself is undefined")
    d_spatial = float(
        math.hypot(*(graph.positions[u] - graph.positions[v]))
    )
    d_geodesic = float(distances[u, v])
    if not math.isfinite(d_geodesic) or d_spatial == 0.0:
        return RouteMetrics(u, v, d_spatial, d_geodesic, math.nan, skipped=True)
    return RouteMetrics(u, v, d_spatial, d_geodesic, d_spatial / d_geodesic)


def iter_pair_metrics(graph: NetworkGraph) -> Iterator[RouteMetrics]:
    """All unordered pairs in canonical ``(min id, max id)`` order."""
    distances = all_pairs(graph)
    for u in range(graph.node_count - 1):
        for v in range(u + 1, graph.node_count):
            yield pair_straightness(graph, distances, u, v)


def summarize(graph: NetworkGraph, strict: bool = False) -> StraightnessSummary:
    """Mean and standard deviation of straightness over all node pairs.

    Runs Dijkstra from one representative per orbit of the graph's symmetry
    group (every node, for a graph without symmetries) and weights the
    representative's row of ordered-pair values by its orbit size: a
    symmetry preserves both distances, so every node of an orbit sees the
    same values.  The weighted two-pass aggregate over the kept rows runs
    in a fixed order, so repeated runs are bit-identical.  Ordered counts
    are halved into unordered pairs.  With ``strict`` any skipped pair
    raises instead of being counted.
    """
    n = graph.node_count
    if n < 2:
        raise ValueError("need at least 2 nodes to aggregate pair straightness")
    positions = graph.positions
    kept: list[tuple[int, np.ndarray]] = []
    ordered_kept = ordered_skipped = 0
    for source, weight in graph.orbits:
        d_g = dijkstra(graph, source)
        d_s = np.hypot(
            positions[:, 0] - positions[source, 0],
            positions[:, 1] - positions[source, 1],
        )
        usable = np.isfinite(d_g) & (d_s > 0.0)  # d_s == 0 only at the source
        row = d_s[usable] / d_g[usable]
        kept.append((weight, row))
        ordered_kept += weight * len(row)
        ordered_skipped += weight * (n - 1 - len(row))
    skipped = ordered_skipped // 2
    if strict and skipped:
        raise ValueError(f"{skipped} pair(s) unreachable or co-located")
    if ordered_kept == 0:
        raise ValueError("no measurable pair in graph")
    mean = sum(w * float(row.sum()) for w, row in kept) / ordered_kept
    square_sum = sum(w * float(((row - mean) ** 2).sum()) for w, row in kept)
    return StraightnessSummary(
        pair_count=ordered_kept // 2,
        mean=mean,
        std_dev=math.sqrt(square_sum / ordered_kept),
        skipped_pairs=skipped,
    )


def center_curve_check(graph: NetworkGraph) -> float:
    """Largest gap between measured and closed-form grid straightness.

    Expects a generated grid.  Measures straightness from corner node 0 to
    every other node with Dijkstra distances and compares against the
    closed form evaluated at each node's direction.  The corner quadrant is
    fully general thanks to rotation symmetry.
    """
    row = dijkstra(graph, 0)
    positions = graph.positions
    worst = 0.0
    for node in range(1, graph.node_count):
        x, y = positions[node]
        measured = math.hypot(x, y) / row[node]
        expected = straightness_rectilinear(math.atan2(y, x))
        worst = max(worst, abs(measured - expected))
    return worst


def center_radial_check(
    graph: NetworkGraph, spec: RadialSpec
) -> tuple[float, float]:
    """Measured vs. closed-form straightness from the center, per ring.

    Needs ``side_subdivision >= 2`` so destinations exist strictly between
    spokes, where the closed form is informative.  Returns
    ``(max_formula_deviation, max_ring_spread)``: the worst disagreement
    with the reduced closed form over all corner and subdivision nodes, and
    the worst spread of the measured value across rings for the same
    angular offset (which the scaling argument says must vanish).
    """
    if spec.side_subdivision < 2:
        raise ValueError("check needs side_subdivision >= 2")
    k = spec.radii_count
    theta = sector_angle(k)
    row = dijkstra(graph, 0)
    positions = graph.positions

    def measured_straightness(node: int) -> float:
        x, y = positions[node]
        return math.hypot(x, y) / row[node]

    worst_formula = 0.0
    for ring in range(1, spec.rings_count + 1):
        for radius in range(k):
            node = ring_node_id(spec, ring, radius)
            # Corner nodes sit on a spoke: the reduced direction is 0.
            worst_formula = max(worst_formula, abs(measured_straightness(node) - 1.0))

    worst_spread = 0.0
    for side in range(k):
        for step in range(1, spec.side_subdivision):
            across_rings = []
            for ring in range(1, spec.rings_count + 1):
                node = side_node_id(spec, ring, side, step)
                x, y = positions[node]
                measured = measured_straightness(node)
                expected = straightness_radial(
                    k, canonicalize(theta, math.atan2(y, x))
                )
                worst_formula = max(worst_formula, abs(measured - expected))
                across_rings.append(measured)
            worst_spread = max(worst_spread, max(across_rings) - min(across_rings))
    return worst_formula, worst_spread
