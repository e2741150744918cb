"""Core graph model: embedded graphs with straight-segment edges."""

from __future__ import annotations

import json
import math
import reprlib
from pathlib import Path

import numpy as np

# Largest displacement, relative to the layout's extent, by which a declared
# symmetry may miss a rigid motion of the node positions.
RIGID_TOLERANCE = 1e-9


class NetworkGraph:
    """Immutable undirected geometric graph.

    Nodes are dense integer ids ``0..N-1`` at pairwise-distinct positions.
    Edges are straight segments; their lengths are always derived from the
    endpoint positions, never stored independently, so geometry and edge
    weight cannot disagree.  Edges may cross without meeting at a node.
    The input is checked and stored as whole arrays, plus the tuple
    adjacency that Dijkstra reads.

    Parameters
    ----------
    nodes : sequence of (x, y)
        Node positions, one per id, all coordinates finite.
    edges : sequence of (u, v)
        Unordered id pairs.  Self-loops and duplicate edges are rejected.
    symmetries : sequence of node permutations, optional
        Generators of a group of automorphisms: ``perm[i]`` is the image of
        node ``i``.  Each must map the edge set onto itself and move the
        positions by a rigid motion, so it preserves every crow-flies and
        network distance.  The nodes split into the orbits of the group
        they generate; see :attr:`orbits`.

    Raises
    ------
    ValueError
        On duplicate positions, edges that are not ``(u, v)`` pairs, invalid
        ids, self-loops, repeated edges, edge lengths whose total overflows,
        or a symmetry that is not a permutation, breaks an edge or is not a
        rigid motion of the positions.
    """

    __slots__ = (
        "_positions", "_edges", "_lengths", "_adjacency", "_symmetries", "_orbits"
    )

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
        try:
            given = np.array(edges, dtype=np.int64)
        except OverflowError:  # an id past int64 names no node either
            given = np.array(edges, dtype=object)
        given = given.reshape(0, 2) if given.shape == (0,) else given
        if given.ndim != 2 or given.shape[1] != 2:
            raise ValueError("edges must be a sequence of (u, v) pairs")
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

        # arcs 2e, 2e+1 run along edge e; a stable sort by tail keeps edge order
        order = np.argsort(edge_arr.ravel(), kind="stable")
        heads = edge_arr[:, ::-1].ravel()[order].tolist()
        arcs = list(zip(heads, np.repeat(lengths, 2)[order].tolist()))
        ends = np.cumsum(np.bincount(edge_arr.ravel(), minlength=n)).tolist()
        adjacency = tuple(tuple(arcs[a:b]) for a, b in zip([0, *ends], ends))

        perms = tuple(_check_symmetry(p, positions, edge_arr, keys) for p in symmetries)

        for arr in (positions, edge_arr, lengths, *perms):
            arr.setflags(write=False)
        ids = np.arange(n)
        orbits = _classes(n, np.tile(ids, len(perms)), np.concatenate([ids[:0], *perms]))
        fields = (positions, edge_arr, lengths, adjacency, perms, orbits)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("NetworkGraph is immutable")

    @property
    def node_count(self) -> int:
        return len(self._positions)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def positions(self) -> np.ndarray:
        """Read-only ``(N, 2)`` array of node positions."""
        return self._positions

    @property
    def edges(self) -> np.ndarray:
        """Read-only ``(E, 2)`` array of edges, each row sorted ``u < v``."""
        return self._edges

    @property
    def edge_lengths(self) -> np.ndarray:
        """Euclidean length of each edge, derived from positions."""
        return self._lengths

    @property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-node tuple of ``(neighbor, edge_length)`` pairs."""
        return self._adjacency

    @property
    def symmetries(self) -> tuple[np.ndarray, ...]:
        """Read-only node permutations generating the graph's symmetry group."""
        return self._symmetries

    @property
    def orbits(self) -> tuple[tuple[int, int], ...]:
        """``(representative, size)`` per orbit of the symmetry group.

        The representative is the orbit's lowest node id; orbits come in
        increasing representative order and their sizes sum to N.  Without
        symmetries every node is its own orbit of size 1.
        """
        return self._orbits

    def components(self) -> tuple[tuple[int, int], ...]:
        """``(lowest id, size)`` per connected component, like :attr:`orbits`."""
        return _classes(self.node_count, *self._edges.T)

    def __repr__(self) -> str:
        return f"NetworkGraph(nodes={self.node_count}, edges={self.edge_count})"


def _check_symmetry(perm, positions, edges, keys) -> np.ndarray:
    """Validate one automorphism against the sorted edge ``keys``; return it."""
    n = len(positions)
    perm = np.array(perm, dtype=np.int64)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
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
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer id")
    return int(value)


def save_graph(graph: NetworkGraph, path) -> None:
    Path(path).write_text(
        json.dumps(graph_to_json(graph), separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def load_graph(path) -> NetworkGraph:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return graph_from_json(data)
