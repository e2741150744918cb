"""Reference implementations used to pin expected test values.

The ``enumerated_*`` functions stay deliberately independent of the
library's shortest-path code: geodesics come from exhaustive simple-path
enumeration over neighbor lists built here from the edge arrays, which is
exact for the small graphs (<= ~10 nodes) the hand-checked cases use.
``exact_grid_summary`` is the grid aggregate summed over offset classes,
with no path search at all, and ``exact_grid_distances`` and
``exact_wheel_distances`` are the two families' all-pairs geodesics from
their geometry alone (``exact_wheel_summary`` aggregates the wheel's).
``two_pass_summary`` is the aggregate that keeps every row (``rows_of``
splits blocks into rows), which the one-pass fold of per-row moments must
match, and ``row_moments`` the moments of one row alone, which the block
fold must equal bit for bit.
``all_pairs`` and ``pair_straightness`` are the plain per-pair path the
library's row kernel is checked against (its fields formatted by
``format_angle``/``format_ratio``).  ``loop_pairs_csv`` is the pair-table
writer with one ``%`` template per pair, whose bytes the array writer must
reproduce.  The ``loop_*`` builders are the node-by-node construction the
array-built generators must reproduce bit for bit.  ``loop_graph`` is the
per-element ``NetworkGraph`` constructor (a dict of positions, a set of
edges and a union-find) that the array constructor must match; its list
adjacency is the arc layout that the geodesic kernel's arc arrays must
match, and the arc lists ``dijkstra`` reads.  ``dijkstra`` is the
one-source-at-a-time binary-heap search the vectorised kernel must equal
bit for bit.  The ``scalar_*`` closed forms are the one-direction-at-a-time
``math`` evaluation the array closed forms must equal exactly (the mesh
oracle within an ulp, where ``np.hypot`` and ``math.hypot`` differ), and the
``loop_center_*`` checks the per-node center checks the row-kernel ones
must agree with.  The scalar ``*_node_id`` one-liners state the
generators' node-id layout independently of ``src/``, so the loop
builders and the tests index nodes through them.  ``read_table`` reads a
written table back as ``csv.DictReader`` does, with none of the library's code.
"""

import csv
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from straightnet import shortest_paths
from straightnet.analytic import sector_angle
from straightnet.metrics import StraightnessSummary
from straightnet.model import RIGID_TOLERANCE


def grid_node_id(spec, i, j):
    """Row-major id of grid position ``(i, j)``."""
    return j * (spec.squares_per_side + 1) + i


def ring_node_id(spec, ring, radius):
    """Id of the corner on ``ring`` (1-based) along spoke ``radius``."""
    return 1 + (ring - 1) * spec.radii_count + radius


def side_node_id(spec, ring, side, step):
    """Id of node ``step`` (1..q-1) on the chord from spoke ``side`` on ``ring``."""
    k, q = spec.radii_count, spec.side_subdivision
    return 1 + spec.rings_count * k + ((ring - 1) * k + side) * (q - 1) + step - 1


def read_table(path):
    """A table's header and its rows, as dicts of strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def euclidean_distance(a, b):
    """Crow-flies distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def dijkstra(graph, sources):
    """Shortest-path distances from each of ``sources`` under edge-length weights.

    Yields one float64 row per source, in order, ``inf`` for unreachable
    nodes; an id outside ``0..N-1`` raises when reached.  The heap breaks
    ties by (distance, node id), so traversal order is reproducible.
    """
    n = graph.node_count
    adjacency = loop_graph(graph.positions, graph.edges).adjacency
    for source in sources:
        if not 0 <= source < n:
            raise ValueError(f"source id {source} outside 0..{n - 1}")
        dist = [math.inf] * n
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:  # stale: pushes happen only on strict improvement
                continue
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        yield np.asarray(dist)


def rows_of(blocks):
    """The ``(source, weight, d_spatial, d_geodesic, straightness)`` rows, one per source,
    of ``metrics.straightness_blocks`` blocks."""
    return (row for ids, w, *arrays in blocks for row in zip(ids.tolist(), w.tolist(), *arrays))


def all_pairs(graph):
    """Full ``(N, N)`` geodesic distance matrix, row i = distances from i."""
    rows = list(dijkstra(graph, range(graph.node_count)))
    return np.vstack(rows) if rows else np.zeros((0, 0))


def exact_grid_summary(size):
    """``(pair_count, mean, std_dev)`` of straightness on a unit grid, exactly.

    With ``n = size + 1`` nodes per side, an offset ``(a, b)`` has geodesic
    ``a + b`` and covers ``(n - a)(n - b)`` unordered pairs, twice that when
    ``a`` and ``b`` are both nonzero (the two mirror diagonals).
    """
    n = size + 1
    a, b = (axis.ravel()[1:] for axis in np.indices((n, n)))  # every offset but (0, 0)
    weight = (n - a) * (n - b) * np.where((a > 0) & (b > 0), 2, 1)
    value = np.hypot(a, b) / (a + b)
    total = int(weight.sum())
    mean = float((weight * value).sum()) / total
    return total, mean, math.sqrt(float((weight * (value - mean) ** 2).sum()) / total)


def exact_grid_distances(size):
    """All-pairs geodesics of a unit grid: ``|dx| + |dy|``, with no path search."""
    spec = SimpleNamespace(squares_per_side=size)
    x, y = np.zeros((2, (size + 1) ** 2))
    for j in range(size + 1):
        for i in range(size + 1):
            node = grid_node_id(spec, i, j)
            x[node], y[node] = i, j
    return abs(x[:, None] - x) + abs(y[:, None] - y)


def wheel_layout(k, m, q):
    """``(ring, spoke, fraction)`` of every node of the ``(k, m, q)`` wheel.

    The center is ring 0; a corner has fraction 0; a side node lies at
    ``fraction`` of the way along its ring's chord from ``spoke`` to the next.
    """
    spec = SimpleNamespace(radii_count=k, rings_count=m, side_subdivision=q)
    ring, spoke, fraction = np.zeros((3, 1 + m * k * q))
    for r in range(1, m + 1):
        for s in range(k):
            for step in range(q):  # step 0 is the corner
                node = side_node_id(spec, r, s, step) if step else ring_node_id(spec, r, s)
                ring[node], spoke[node], fraction[node] = r, s, step / q
    return ring, spoke.astype(int), fraction


def exact_wheel_distances(k, m, q):
    """All-pairs geodesics of a wheel from its geometry, with no path search.

    Corners on rings i and j, ``delta`` <= k/2 sectors apart, are
    ``min(i + j, |i - j| + min(i, j) c delta)`` apart, ``c = 2 sin(pi/k)``
    being the unit chord: through the center, or down to the lower ring and
    along it.  A side node at fraction f of its ring-r chord leaves through
    either chord end, at ``f r c`` or ``(1 - f) r c``; two nodes of one
    chord can also go straight along it.
    """
    ring, spoke, fraction = wheel_layout(k, m, q)
    c = 2.0 * math.sin(math.pi / k)
    low = np.minimum(ring[:, None], ring)
    exits = ((spoke, fraction * ring * c), ((spoke + 1) % k, (1.0 - fraction) * ring * c))
    best = np.full((len(ring), len(ring)), math.inf)
    for end_u, off_u in exits:
        for end_v, off_v in exits:
            delta = abs(end_u[:, None] - end_v)
            delta = np.minimum(delta, k - delta)
            corners = np.minimum(ring[:, None] + ring, abs(ring[:, None] - ring) + low * c * delta)
            best = np.minimum(best, off_u[:, None] + corners + off_v)
    chord = (ring[:, None] == ring) & (spoke[:, None] == spoke)
    along = abs(fraction[:, None] - fraction) * ring[:, None] * c
    return np.where(chord, np.minimum(best, along), best)


def exact_wheel_summary(k, m, q):
    """``(pair_count, mean, std_dev)`` of straightness over ``exact_wheel_distances``.

    Positions come from each node's ring, spoke and fraction along its chord.
    """
    ring, spoke, fraction = wheel_layout(k, m, q)
    angle = 2.0 * math.pi / k
    ax, ay = ring * np.cos(spoke * angle), ring * np.sin(spoke * angle)
    bx, by = ring * np.cos((spoke + 1) * angle), ring * np.sin((spoke + 1) * angle)
    x, y = ax + fraction * (bx - ax), ay + fraction * (by - ay)
    u, v = np.triu_indices(len(ring), 1)
    value = np.hypot(x[u] - x[v], y[u] - y[v]) / exact_wheel_distances(k, m, q)[u, v]
    return len(value), float(value.mean()), float(value.std())


def row_moments(weight, ratio):
    """``(weight, count, sum, centred square sum)`` of one row's measured ratios, the
    row alone: the per-row reference that ``metrics.block_moments`` must equal."""
    row = ratio[~np.isnan(ratio)]
    total = float(row.sum())
    return weight, len(row), total, float(((row - total / max(len(row), 1)) ** 2).sum())


def two_pass_summary(graph, rows):
    """``StraightnessSummary`` of ``rows`` by the two-pass aggregate.

    Keeps every row's measured ratios, sums them for the mean, then sums the
    squared deviations from that mean: the aggregate ``summarize`` folded
    before it kept four numbers per row.
    """
    n = graph.node_count
    kept = []
    ordered_kept = ordered_skipped = 0
    for _, weight, _, _, ratio in rows:
        row = ratio[~np.isnan(ratio)]
        kept.append((weight, row))
        ordered_kept += weight * len(row)
        ordered_skipped += weight * (n - 1 - len(row))
    mean = sum(w * float(row.sum()) for w, row in kept) / ordered_kept
    square_sum = sum(w * float(((row - mean) ** 2).sum()) for w, row in kept)
    return StraightnessSummary(
        pair_count=ordered_kept // 2,
        mean=mean,
        std_dev=math.sqrt(square_sum / ordered_kept),
        skipped_pairs=ordered_skipped // 2,
    )


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


def format_angle(value):
    """A table's angle or distance field, formatted one value at a time."""
    return f"{value:.12g}"


def format_ratio(value):
    """A table's straightness-like field, formatted one value at a time."""
    return f"{value:.9g}"


def loop_pairs_csv(path, rows):
    """Pass straightness rows on, writing each source's ``v > u`` pairs with one ``%`` each."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("u,v,d_spatial,d_geodesic,straightness\n")
        for row in rows:
            u, _, *columns = row  # d_spatial, d_geodesic, straightness
            pairs = zip(count(u + 1), *(c[u + 1 :].tolist() for c in columns))
            fh.write("".join(map(f"{u},%d,%.12g,%.12g,%.9g\n".__mod__, pairs)))
            yield row


def enumerated_geodesic(graph, source, target):
    """Shortest source-target distance by trying every simple path."""
    adjacency = [[] for _ in range(graph.node_count)]
    for (u, v), w in zip(graph.edges.tolist(), graph.edge_lengths.tolist()):
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
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


def loop_graph(nodes, edges, symmetries=()):
    """``NetworkGraph``'s fields, checked and built one node and edge at a time.

    Raises the ``ValueError`` the graph constructor raises for the first
    faulty node, edge or symmetry.  ``components`` is a tuple, not a method.
    """
    positions = np.atleast_2d(np.array(nodes, dtype=float))
    if positions.size == 0:
        positions = positions.reshape(0, 2)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("nodes must be a sequence of (x, y) pairs")
    if not np.all(np.isfinite(positions)):
        raise ValueError("node coordinates must be finite")
    seen = {}
    for i in range(len(positions)):
        key = (float(positions[i, 0]), float(positions[i, 1]))
        if key in seen:
            raise ValueError(f"nodes {seen[key]} and {i} share the position {key}")
        seen[key] = i

    n = len(positions)
    pairs, known = [], set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references an unknown node id")
        if u == v:
            raise ValueError(f"self-loop on node {u} is not allowed")
        pair = (u, v) if u < v else (v, u)
        if pair in known:
            raise ValueError(f"duplicate edge {pair}")
        known.add(pair)
        pairs.append(pair)
    ends = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    du = positions[ends[:, 0]] - positions[ends[:, 1]]
    lengths = np.hypot(du[:, 0], du[:, 1])
    if not math.isfinite(sum(lengths.tolist())):
        raise ValueError("edge lengths overflow: their total is not finite")
    adjacency = [[] for _ in range(n)]
    for (u, v), w in zip(pairs, lengths.tolist()):
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))

    perms = []
    for perm in symmetries:
        image = [int(p) for p in perm]
        if sorted(image) != list(range(n)):
            raise ValueError(f"symmetry is not a permutation of the {n} node ids")
        for u, v in pairs:
            a, b = image[u], image[v]
            if ((a, b) if a < b else (b, a)) not in known:
                raise ValueError(f"symmetry maps edge ({u}, {v}) onto a non-edge ({a}, {b})")
        centered = positions - positions.sum(axis=0) / max(n, 1)
        moved = centered[image]
        left, _, right = np.linalg.svd(centered.T @ moved)
        residual = np.abs(centered @ (left @ right) - moved).max(initial=0.0)
        if residual > RIGID_TOLERANCE * max(1.0, np.abs(centered).max(initial=0.0)):
            raise ValueError(
                f"symmetry is not a rigid motion of the positions (off by {residual:.3g})"
            )
        perms.append(image)
    return SimpleNamespace(
        positions=positions,
        edges=pairs,
        edge_lengths=lengths,
        adjacency=tuple(map(tuple, adjacency)),
        orbits=union_find_classes(n, [(u, v) for p in perms for u, v in enumerate(p)]),
        components=union_find_classes(n, pairs),
    )


def kernel_adjacency(graph):
    """The geodesic kernel's arc arrays as per-node ``(head, length)`` tuples."""
    degree, offset, length = shortest_paths._arcs(graph)
    first = np.cumsum(degree) - degree
    tails = np.repeat(np.arange(graph.node_count), degree)
    arcs = list(zip((tails + offset).tolist(), length.tolist()))
    return tuple(tuple(arcs[f : f + d]) for f, d in zip(first.tolist(), degree.tolist()))


def union_find_classes(n, links):
    """``(lowest id, size)`` per class the ``(u, v)`` links join."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in links:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    sizes = {}
    for v in range(n):
        root = find(v)
        sizes[root] = sizes.get(root, 0) + 1
    return tuple(sizes.items())


def loop_rectilinear(spec):
    """``(nodes, edges, symmetries)`` of the grid, built node by node."""
    s = spec.squares_per_side
    n = s + 1
    nodes = [(float(i), float(j)) for j in range(n) for i in range(n)]
    edges = []
    for j in range(n):
        for i in range(s):
            edges.append((grid_node_id(spec, i, j), grid_node_id(spec, i + 1, j)))
    for j in range(s):
        for i in range(n):
            edges.append((grid_node_id(spec, i, j), grid_node_id(spec, i, j + 1)))
    quarter_turn = [grid_node_id(spec, s - j, i) for j in range(n) for i in range(n)]
    diagonal = [grid_node_id(spec, j, i) for j in range(n) for i in range(n)]
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


def scalar_mesh_oracle_radial(radii_count, alpha):
    """The two-route sector geometry for one direction ``alpha`` in ``[0, theta]``."""
    theta = sector_angle(radii_count)
    if not (math.isfinite(alpha) and 0.0 <= alpha <= theta):
        raise ValueError("alpha must lie within the first sector [0, theta]")
    ax, ay = 1.0, 0.0
    bx, by = math.cos(theta), math.sin(theta)
    ux, uy = math.cos(alpha), math.sin(alpha)
    nx, ny = ay - by, bx - ax
    t = (ax * nx + ay * ny) / (ux * nx + uy * ny)
    px, py = t * ux, t * uy
    chord = min(math.hypot(px - ax, py - ay), math.hypot(px - bx, py - by))
    return math.hypot(px, py) / (1.0 + chord)


def loop_center_curve_check(graph):
    """Worst grid deviation from node 0, one node at a time."""
    row = next(dijkstra(graph, [0]))
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
    row = next(dijkstra(graph, [0]))
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
