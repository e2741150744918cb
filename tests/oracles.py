"""Reference implementations used to pin expected test values.

The ``enumerated_*`` functions stay deliberately independent of the
library's shortest-path code: geodesics come from exhaustive simple-path
enumeration, which is exact for the small graphs (<= ~10 nodes) the
hand-checked cases use.  ``all_pairs`` and ``pair_straightness`` are the
plain per-pair path the library's row kernel is checked against, and the
``loop_*`` builders are the node-by-node construction the array-built
generators must reproduce bit for bit.  The ``scalar_*`` closed forms are
the one-direction-at-a-time ``math`` evaluation the array closed forms
must equal exactly, and the ``loop_center_*`` checks the per-node center
checks the row-kernel ones must agree with.
"""

import math
from dataclasses import dataclass

import numpy as np

from straightnet import dijkstra, ring_node_id, sector_angle, side_node_id


def euclidean_distance(a, b):
    """Crow-flies distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def all_pairs(graph):
    """Full ``(N, N)`` geodesic distance matrix, row i = distances from i."""
    rows = [dijkstra(graph, s) for s in range(graph.node_count)]
    return np.vstack(rows) if rows else np.zeros((0, 0))


@dataclass(frozen=True)
class RouteMetrics:
    """Spatial distance, on-network distance and their ratio for one pair.

    Pairs whose geodesic distance is infinite (disconnected graph) or whose
    spatial distance is zero are flagged ``skipped`` and carry ``nan``
    straightness.
    """

    source: int
    target: int
    d_spatial: float
    d_geodesic: float
    straightness: float
    skipped: bool = False


def pair_straightness(graph, distances, u, v):
    """Route metrics for one pair, using a precomputed all-pairs matrix."""
    if u == v:
        raise ValueError("straightness of a node with itself is undefined")
    d_spatial = math.hypot(*(graph.positions[u] - graph.positions[v]))
    d_geodesic = float(distances[u, v])
    if not math.isfinite(d_geodesic) or d_spatial == 0.0:
        return RouteMetrics(u, v, d_spatial, d_geodesic, math.nan, skipped=True)
    return RouteMetrics(u, v, d_spatial, d_geodesic, d_spatial / d_geodesic)


def enumerated_geodesic(graph, source, target):
    """Shortest source-target distance by trying every simple path."""
    adjacency = graph.adjacency
    best = math.inf

    def extend(node, seen, total):
        nonlocal best
        if total >= best:
            return
        if node == target:
            best = total
            return
        for neighbor, weight in adjacency[node]:
            if neighbor not in seen:
                extend(neighbor, seen | {neighbor}, total + weight)

    extend(source, {source}, 0.0)
    return best


def enumerated_distance_matrix(graph):
    n = graph.node_count
    return [
        [enumerated_geodesic(graph, u, v) for v in range(n)] for u in range(n)
    ]


def enumerated_pair_straightness(graph, u, v):
    d_s = euclidean_distance(graph.positions[u], graph.positions[v])
    return d_s / enumerated_geodesic(graph, u, v)


def enumerated_mean_straightness(graph):
    """Plain average over all unordered pairs, fully enumerated."""
    n = graph.node_count
    values = [
        enumerated_pair_straightness(graph, u, v)
        for u in range(n - 1)
        for v in range(u + 1, n)
    ]
    return sum(values) / len(values)


def loop_rectilinear(spec):
    """``(nodes, edges, symmetries)`` of the grid, built node by node."""
    s = spec.squares_per_side
    n = s + 1
    nodes = [(float(i), float(j)) for j in range(n) for i in range(n)]
    edges = []
    for j in range(n):
        for i in range(s):
            edges.append((j * n + i, j * n + i + 1))
    for j in range(s):
        for i in range(n):
            edges.append((j * n + i, (j + 1) * n + i))
    quarter_turn = [i * n + (s - j) for j in range(n) for i in range(n)]
    diagonal = [i * n + j for j in range(n) for i in range(n)]
    return nodes, edges, (quarter_turn, diagonal)


def loop_radioconcentric(spec):
    """``(nodes, edges, symmetries)`` of the wheel, built node by node."""
    k, m, q = spec.radii_count, spec.rings_count, spec.side_subdivision
    theta = 2.0 * math.pi / k

    nodes = [(0.0, 0.0)]
    for ring in range(1, m + 1):
        for radius in range(k):
            angle = radius * theta
            nodes.append((ring * math.cos(angle), ring * math.sin(angle)))
    if q > 1:
        for ring in range(1, m + 1):
            for side in range(k):
                ax, ay = nodes[ring_node_id(spec, ring, side)]
                bx, by = nodes[ring_node_id(spec, ring, (side + 1) % k)]
                for step in range(1, q):
                    f = step / q
                    nodes.append((ax + f * (bx - ax), ay + f * (by - ay)))

    edges = []
    for radius in range(k):
        edges.append((0, ring_node_id(spec, 1, radius)))
    for ring in range(1, m):
        for radius in range(k):
            edges.append(
                (ring_node_id(spec, ring, radius), ring_node_id(spec, ring + 1, radius))
            )
    for ring in range(1, m + 1):
        for side in range(k):
            chain = [ring_node_id(spec, ring, side)]
            if q > 1:
                chain.extend(side_node_id(spec, ring, side, s) for s in range(1, q))
            chain.append(ring_node_id(spec, ring, (side + 1) % k))
            edges.extend(zip(chain, chain[1:]))

    rotation, reflection = [0], [0]
    for ring in range(1, m + 1):
        for radius in range(k):
            rotation.append(ring_node_id(spec, ring, (radius + 1) % k))
            reflection.append(ring_node_id(spec, ring, -radius % k))
    if q > 1:
        for ring in range(1, m + 1):
            for side in range(k):
                for step in range(1, q):
                    rotation.append(side_node_id(spec, ring, (side + 1) % k, step))
                    reflection.append(side_node_id(spec, ring, (-side - 1) % k, q - step))
    return nodes, edges, (rotation, reflection)


def scalar_canonicalize(theta, alpha):
    """Reduce one direction to ``[0, theta/2]`` (rotation, then reflection)."""
    a = math.fmod(alpha, theta)
    if a < 0.0:
        a += theta
    if a > 0.5 * theta:
        a = theta - a
    return a


def scalar_straightness_rectilinear(alpha):
    a = scalar_canonicalize(math.pi / 2.0, alpha)
    return 1.0 / (math.cos(a) + math.sin(a))


def scalar_straightness_radial(radii_count, alpha):
    theta = sector_angle(radii_count)
    a = scalar_canonicalize(theta, alpha)
    half_apex = 0.5 * (math.pi - theta)
    return 1.0 / (
        math.cos(a)
        + math.sin(a) / math.tan(half_apex)
        + math.sin(a) / math.sin(half_apex)
    )


def loop_center_curve_check(graph):
    """Worst grid deviation from node 0, one node at a time."""
    row = dijkstra(graph, 0)
    positions = graph.positions
    worst = 0.0
    for node in range(1, graph.node_count):
        x, y = positions[node]
        measured = math.hypot(x, y) / row[node]
        expected = scalar_straightness_rectilinear(math.atan2(y, x))
        worst = max(worst, abs(measured - expected))
    return worst


def loop_center_radial_check(graph, spec):
    """``(formula deviation, ring spread)`` from the center, node by node."""
    k = spec.radii_count
    row = dijkstra(graph, 0)
    positions = graph.positions

    def measured_straightness(node):
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
                expected = scalar_straightness_radial(k, math.atan2(y, x))
                worst_formula = max(worst_formula, abs(measured - expected))
                across_rings.append(measured)
            worst_spread = max(worst_spread, max(across_rings) - min(across_rings))
    return worst_formula, worst_spread
