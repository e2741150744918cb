"""Deterministic generators for perfect grid and radio-concentric networks."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .analytic import sector_angle
from .model import NetworkGraph

# Largest node count a spec may ask for, so that an oversized request fails
# before anything is allocated instead of exhausting memory.
MAX_NODES = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    """Square grid parameters: ``squares_per_side`` unit cells per side."""

    squares_per_side: int

    def __post_init__(self):
        _check_integers(self)
        if self.squares_per_side < 1:
            raise ValueError("squares_per_side must be at least 1")
        _check_node_count((self.squares_per_side + 1) ** 2)


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
        _check_integers(self)
        if self.radii_count < 3:
            raise ValueError("radii_count must be at least 3 (sides undefined below)")
        if self.rings_count < 1:
            raise ValueError("rings_count must be at least 1")
        if self.side_subdivision < 1:
            raise ValueError("side_subdivision must be at least 1")
        _check_node_count(
            1 + self.rings_count * self.radii_count * self.side_subdivision
        )


def _check_integers(spec) -> None:
    for field in fields(spec):
        value = getattr(spec, field.name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{field.name} must be an integer, not {value!r}")
        object.__setattr__(spec, field.name, int(value))  # numpy ints can overflow


def _check_node_count(count: int) -> None:
    if count > MAX_NODES:
        raise ValueError(f"{count} nodes requested, more than MAX_NODES = {MAX_NODES}")


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
    n = spec.squares_per_side + 1
    ids = np.arange(n * n).reshape(n, n)  # ids[j, i] is the node at (i, j)
    j, i = np.divmod(ids.ravel(), n)
    nodes = np.column_stack([i, j]).astype(float)
    edges = np.concatenate([_links(ids[:, :-1], ids[:, 1:]), _links(ids[:-1], ids[1:])])
    quarter_turn, diagonal = ids.T[::-1].ravel(), ids.T.ravel()
    return NetworkGraph(nodes, edges.tolist(), symmetries=(quarter_turn, diagonal))


def _links(tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """``(E, 2)`` edge block joining ``tails`` to ``heads`` element-wise."""
    return np.column_stack([tails.ravel(), heads.ravel()])


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
    theta = sector_angle(k)
    spokes = np.array([(math.cos(r * theta), math.sin(r * theta)) for r in range(k)])
    corners = np.arange(1, m + 1)[:, None, None] * spokes  # [ring - 1, spoke]
    chords = np.roll(corners, -1, axis=1) - corners
    sides = corners[:, :, None] + (np.arange(1, q) / q)[:, None] * chords[:, :, None]
    nodes = np.concatenate([[(0.0, 0.0)], corners.reshape(-1, 2), sides.reshape(-1, 2)])

    # ids of corner [ring - 1, spoke] and side node [ring - 1, side, step - 1]
    corner = 1 + np.arange(m * k).reshape(m, k)
    side = 1 + m * k + np.arange(m * k * (q - 1)).reshape(m, k, q - 1)
    next_corner = np.roll(corner, -1, axis=1)
    chains = np.concatenate([corner[..., None], side, next_corner[..., None]], axis=2)
    edges = np.concatenate([
        _links(np.zeros(k, dtype=int), corner[0]),
        _links(corner[:-1], corner[1:]),
        _links(chains[..., :-1], chains[..., 1:]),
    ])

    rotation = np.concatenate([[0], next_corner.ravel(), np.roll(side, -1, axis=1).ravel()])
    reflection = np.concatenate(
        [[0], np.roll(corner[:, ::-1], 1, axis=1).ravel(), side[:, ::-1, ::-1].ravel()]
    )
    return NetworkGraph(nodes, edges.tolist(), symmetries=(rotation, reflection))
