"""Core graph model: embedded graphs with straight-segment edges."""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Largest displacement, relative to the layout's extent, by which a declared
# symmetry may miss a rigid motion of the node positions.
RIGID_TOLERANCE = 1e-9


# eq=False: graphs compare and hash by identity, since == on their arrays would raise
@dataclass(frozen=True, slots=True, eq=False)
class NetworkGraph:
    """Immutable undirected geometric graph.

    Nodes are dense integer ids ``0..N-1`` at pairwise-distinct positions.
    Edges are straight segments; their lengths are always derived from the
    endpoint positions, never stored independently, so geometry and edge
    weight cannot disagree.  Edges may cross without meeting at a node.
    The input is checked and stored as whole arrays, and nothing else.

    Parameters
    ----------
    nodes : sequence of (x, y)
        Node positions, one per id, all coordinates finite.
    edges : sequence of (u, v)
        Unordered id pairs.  Self-loops, duplicate edges and ids that are not whole
        numbers (``1.0`` is, ``1.5``, ``"1"`` and ``True`` are not) are rejected.
    symmetries : sequence of node permutations, optional
        Generators of a group of automorphisms: ``perm[i]`` is the image of
        node ``i``.  Each must map the edge set onto itself and move the
        positions by a rigid motion, so it preserves every crow-flies and
        network distance.  The nodes split into the orbits of the group
        they generate; see :attr:`orbits`.

    Attributes
    ----------
    positions, edges : ndarray
        Read-only ``(N, 2)`` node positions and ``(E, 2)`` edges, each row ``u < v``.
    edge_lengths : ndarray
        Read-only Euclidean length of each edge, derived from positions.
    symmetries : tuple of ndarray
        Read-only node permutations generating the graph's symmetry group.
    orbits : tuple of (int, int)
        ``(representative, size)`` per orbit of that group: the lowest node id,
        in increasing order; sizes sum to N, and no symmetries give N orbits of 1.

    Raises
    ------
    ValueError
        On duplicate positions, edges that are not ``(u, v)`` pairs, invalid
        ids, self-loops, repeated edges, edge lengths whose total overflows,
        or a symmetry that is not a permutation, breaks an edge or is not a
        rigid motion of the positions.
    """

    positions: np.ndarray
    edges: np.ndarray
    edge_lengths: np.ndarray
    symmetries: tuple[np.ndarray, ...]
    orbits: tuple[tuple[int, int], ...]

    def __init__(self, nodes, edges, symmetries=()) -> None:
        # copy so freezing the array never affects a caller-owned buffer
        positions = np.atleast_2d(np.array(nodes, dtype=float))
        positions = positions.reshape(0, 2) if positions.size == 0 else positions
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("nodes must be a sequence of (x, y) pairs")
        if not np.all(np.isfinite(positions)):
            raise ValueError("node coordinates must be finite")

        order = np.lexsort(positions.T)  # equal positions end up side by side
        repeats = order[1:][np.all(positions[order[1:]] == positions[order[:-1]], axis=1)]
        if len(repeats):
            j = repeats.min()
            key = tuple(positions[j].tolist())
            i = np.all(positions == key, axis=1).argmax()
            raise ValueError(f"nodes {i} and {j} share the position {key}")

        n = len(positions)
        given, bad = _ids(edges)
        given = given.reshape(0, 2) if given.shape == (0,) else given
        if given.ndim != 2 or given.shape[1] != 2:
            raise ValueError("edges must be a sequence of (u, v) pairs")
        if bad.any():
            edge = tuple(given[bad.any(axis=1).argmax()].tolist())
            raise ValueError(f"edge {edge} holds an id that is not a whole number")
        # each check covers the whole array; the first faulty edge names the error
        unknown = np.any((given < 0) | (given >= n), axis=1)
        edge_arr = np.sort(np.where(unknown[:, None], 0, given).astype(np.int64), axis=1)
        # keys[k] = u * n + v of the k-th distinct edge, first seen in row first[k]
        keys, first = np.unique(edge_arr[:, 0] * n + edge_arr[:, 1], return_index=True)
        loops = edge_arr[:, 0] == edge_arr[:, 1]
        faults = unknown | loops | (np.bincount(first, minlength=len(given)) == 0)
        if faults.any():
            e = faults.argmax()
            (u, v), (a, b) = given[e].tolist(), edge_arr[e].tolist()
            if unknown[e]:
                raise ValueError(f"edge ({u}, {v}) references an unknown node id")
            raise ValueError(f"self-loop on node {a} is not allowed" if loops[e]
                             else f"duplicate edge {(a, b)}")
        du = positions[edge_arr[:, 0]] - positions[edge_arr[:, 1]]
        lengths = np.hypot(du[:, 0], du[:, 1])
        if not math.isfinite(sum(lengths.tolist())):
            raise ValueError("edge lengths overflow: their total is not finite")

        perms = tuple(_check_symmetry(p, positions, edge_arr, keys) for p in symmetries)

        for arr in (positions, edge_arr, lengths, *perms):
            arr.setflags(write=False)
        ids = np.arange(n)
        orbits = _classes(n, np.tile(ids, len(perms)), np.concatenate([ids[:0], *perms]))
        for name, value in zip(self.__slots__, (positions, edge_arr, lengths, perms, orbits)):
            object.__setattr__(self, name, value)

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def components(self) -> tuple[tuple[int, int], ...]:
        """``(lowest id, size)`` per connected component, like :attr:`orbits`."""
        return _classes(self.node_count, *self.edges.T)

    def __repr__(self) -> str:
        return f"NetworkGraph(nodes={self.node_count}, edges={self.edge_count})"


def _check_symmetry(perm, positions, edges, keys) -> np.ndarray:
    """Validate one automorphism against the sorted edge ``keys``; return it."""
    n = len(positions)
    perm, bad = _ids(perm)
    if bad.any() or perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"symmetry is not a permutation of the {n} node ids")
    image = perm[edges]
    kept = np.isin(image.min(axis=1) * n + image.max(axis=1), keys, assume_unique=True)
    if not kept.all():
        e = kept.argmin()
        (u, v), (a, b) = edges[e].tolist(), image[e].tolist()
        raise ValueError(f"symmetry maps edge ({u}, {v}) onto a non-edge ({a}, {b})")
    # A permutation keeps the centroid, so a rigid motion fixes it and is
    # the orthogonal map that best fits the centered points (Procrustes).
    centered = positions - positions.sum(axis=0) / max(n, 1)  # np.mean warns on 0 nodes
    moved = centered[perm]
    left, _, right = np.linalg.svd(centered.T @ moved)
    residual = np.abs(centered @ (left @ right) - moved).max(initial=0.0)
    if residual > RIGID_TOLERANCE * max(1.0, np.abs(centered).max(initial=0.0)):
        raise ValueError(
            f"symmetry is not a rigid motion of the positions (off by {residual:.3g})"
        )
    return perm


def _ids(values) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as int64 node ids (object where one is past int64, or any is bad) and the
    mask of those that are not whole numbers.  An integer array costs a dtype test."""
    given = np.asarray(values)
    if given.dtype.kind in "iu" and np.can_cast(given.dtype, np.int64):  # not uint64
        return given.astype(np.int64), np.zeros(given.shape, bool)
    given = np.array(values, dtype=object)  # as given: 2**63 would read as a float
    bad = ~np.fromiter(map(_whole, given.flat), bool, given.size).reshape(given.shape)
    try:
        return (given if bad.any() else given.astype(np.int64)), bad
    except OverflowError:  # an id past int64 names no node either
        return given, bad


def _classes(n: int, u, v) -> tuple[tuple[int, int], ...]:
    """``(lowest id, size)`` per class that the links ``u[i]``--``v[i]`` join.

    Each round points every node at its root, then hooks the larger root
    of each link across two classes onto the smaller one.  Roots only
    decrease, so each class ends at its lowest id.
    """
    root = np.arange(n)
    while True:
        while not np.array_equal(up := root[root], root):
            root = up
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
    reps, sizes = np.unique(root, return_counts=True)
    return tuple(zip(reps.tolist(), sizes.tolist()))


def graph_to_json(graph: NetworkGraph) -> dict:
    """Portable dict form: node ids with coordinates plus edge id pairs.

    Edge lengths are intentionally not serialized; they are re-derived on
    load so files cannot carry inconsistent geometry.  Symmetries are not
    serialized either, so a loaded graph has none.
    """
    return {
        "nodes": [
            {"id": i, "x": float(x), "y": float(y)}
            for i, (x, y) in enumerate(graph.positions)
        ],
        "edges": [{"u": int(u), "v": int(v)} for u, v in graph.edges],
    }


def graph_from_json(data: dict) -> NetworkGraph:
    """Rebuild a graph from the dict form produced by :func:`graph_to_json`.

    Entries are checked in list order, so the first faulty one names the error.
    """
    if not isinstance(data, dict) or not all(
        isinstance(data.get(key), list) for key in ("nodes", "edges")
    ):
        raise ValueError("graph JSON must contain 'nodes' and 'edges' lists")
    raw_nodes, raw_edges = data["nodes"], data["edges"]

    nodes = [None] * len(raw_nodes)  # one slot per id, filled as entries are read
    for entry in raw_nodes:
        try:
            i, x, y = _json_id(entry["id"]), entry["x"], entry["y"]
            if type(x) not in (int, float) or type(y) not in (int, float):
                raise TypeError("coordinates must be JSON numbers")  # "1.5", true, null
            xy = float(x), float(y)
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed node entry: {reprlib.repr(entry)}") from exc
        if not 0 <= i < len(nodes):
            raise ValueError("node ids must be dense integers 0..N-1")
        if nodes[i] is not None:
            raise ValueError(f"node id {i} appears twice")
        nodes[i] = xy

    edges = []
    for entry in raw_edges:
        try:
            edges.append((_json_id(entry["u"]), _json_id(entry["v"])))
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed edge entry: {reprlib.repr(entry)}") from exc
    return NetworkGraph(nodes, edges)


def _json_id(value) -> int:
    """``value`` as an int, refusing ``1.9``, ``"3"``, ``true`` and the like."""
    if not _whole(value):
        raise ValueError(f"{value!r} is not an integer id")
    return int(value)


def _whole(value) -> bool:
    """Whether ``value`` is a whole number: ``1.0`` is; ``1.9``, ``"3"``, ``True``, ``nan``,
    ``inf`` and ``None`` are not."""
    try:
        return not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def save_graph(graph: NetworkGraph, path) -> None:
    Path(path).write_text(
        json.dumps(graph_to_json(graph), separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def load_graph(path) -> NetworkGraph:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return graph_from_json(data)
