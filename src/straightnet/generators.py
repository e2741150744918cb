"""Deterministic generators for perfect grid and radio-concentric networks."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import NetworkGraph


@dataclass(frozen=True)
class GridSpec:
    """Square grid parameters: ``squares_per_side`` unit cells per side."""

    squares_per_side: int

    def __post_init__(self):
        if self.squares_per_side < 1:
            raise ValueError("squares_per_side must be at least 1")


@dataclass(frozen=True)
class RadialSpec:
    """Radio-concentric network parameters.

    ``radii_count`` is the number of radial spokes (at least 3: with one
    spoke there is nothing to connect and with two the spokes fold onto a
    line, so sides are undefined).  ``rings_count`` is the number of
    concentric layers.  ``side_subdivision`` splits every side chord into
    that many collinear segments, placing destination nodes strictly
    between spokes; 1 means plain corner-to-corner chords.
    """

    radii_count: int
    rings_count: int
    side_subdivision: int = 1

    def __post_init__(self):
        if self.radii_count < 3:
            raise ValueError("radii_count must be at least 3 (sides undefined below)")
        if self.rings_count < 1:
            raise ValueError("rings_count must be at least 1")
        if self.side_subdivision < 1:
            raise ValueError("side_subdivision must be at least 1")


def grid_node_id(spec: GridSpec, i: int, j: int) -> int:
    """Row-major node id of grid position ``(i, j)``."""
    n = spec.squares_per_side + 1
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"grid position ({i}, {j}) outside 0..{n - 1}")
    return j * n + i


def generate_rectilinear(spec: GridSpec) -> NetworkGraph:
    """Perfect square grid with unit spacing.

    Nodes sit at integer coordinates ``(i, j)`` for ``0 <= i, j <= s`` in
    row-major id order; edges join horizontal and vertical neighbors.
    Corner node 0 at ``(0, 0)`` doubles as the origin for center-to-edge
    comparisons, which covers the general case by rotation symmetry.

    The graph carries the square's symmetry group D4, generated by the
    quarter turn ``(i, j) -> (s - j, i)`` and the diagonal reflection
    ``(i, j) -> (j, i)``.
    """
    s = spec.squares_per_side
    n = s + 1
    nodes = [(float(i), float(j)) for j in range(n) for i in range(n)]
    edges: list[tuple[int, int]] = []
    for j in range(n):
        for i in range(s):
            edges.append((j * n + i, j * n + i + 1))
    for j in range(s):
        for i in range(n):
            edges.append((j * n + i, (j + 1) * n + i))
    quarter_turn = [i * n + (s - j) for j in range(n) for i in range(n)]
    diagonal = [i * n + j for j in range(n) for i in range(n)]
    return NetworkGraph(nodes, edges, symmetries=(quarter_turn, diagonal))


def ring_node_id(spec: RadialSpec, ring: int, radius: int) -> int:
    """Id of the corner node on ``ring`` (1-based) along spoke ``radius``."""
    if not 1 <= ring <= spec.rings_count:
        raise ValueError(f"ring {ring} outside 1..{spec.rings_count}")
    if not 0 <= radius < spec.radii_count:
        raise ValueError(f"radius index {radius} outside 0..{spec.radii_count - 1}")
    return 1 + (ring - 1) * spec.radii_count + radius


def side_node_id(spec: RadialSpec, ring: int, side: int, step: int) -> int:
    """Id of interior subdivision node ``step`` (1..q-1) on a side chord.

    ``side`` i is the chord from spoke i to spoke i+1 (mod k) on ``ring``.
    Only defined when ``side_subdivision > 1``.
    """
    q = spec.side_subdivision
    if q < 2:
        raise ValueError("graph has no subdivision nodes (side_subdivision is 1)")
    if not 1 <= ring <= spec.rings_count:
        raise ValueError(f"ring {ring} outside 1..{spec.rings_count}")
    if not 0 <= side < spec.radii_count:
        raise ValueError(f"side index {side} outside 0..{spec.radii_count - 1}")
    if not 1 <= step <= q - 1:
        raise ValueError(f"step {step} outside 1..{q - 1}")
    base = 1 + spec.rings_count * spec.radii_count
    return base + ((ring - 1) * spec.radii_count + side) * (q - 1) + (step - 1)


def generate_radioconcentric(spec: RadialSpec) -> NetworkGraph:
    """Perfect radio-concentric network.

    One center node at the origin, ``rings_count`` concentric layers of
    corner nodes at unit radial spacing, radial edges along each spoke and
    straight chord sides between neighboring spokes on every ring.  With
    ``side_subdivision`` q > 1 each chord is split into q collinear
    segments by q-1 interior nodes, so destinations exist strictly between
    spokes.

    The graph carries the dihedral group D_k, generated by the rotation
    through one sector and the reflection in the x-axis, which sends spoke
    i to spoke -i and subdivision node (ring, side, step) to
    (ring, -side-1 mod k, q-step).
    """
    k, m, q = spec.radii_count, spec.rings_count, spec.side_subdivision
    theta = 2.0 * math.pi / k

    nodes: list[tuple[float, float]] = [(0.0, 0.0)]
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

    edges: list[tuple[int, int]] = []
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
    return NetworkGraph(nodes, edges, symmetries=(rotation, reflection))
