"""Core graph model: embedded graphs with straight-segment edges."""

from __future__ import annotations

import json
import math
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
        On duplicate positions, invalid ids, self-loops, repeated edges,
        edge lengths whose total overflows, or a symmetry that is not a
        permutation, breaks an edge or is not a rigid motion of the positions.
    """

    __slots__ = (
        "_positions", "_edges", "_lengths", "_adjacency", "_symmetries", "_orbits"
    )

    def __init__(self, nodes, edges, symmetries=()) -> None:
        # copy so freezing the array never affects a caller-owned buffer
        positions = np.atleast_2d(np.array(nodes, dtype=float))
        if positions.size == 0:
            positions = positions.reshape(0, 2)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("nodes must be a sequence of (x, y) pairs")
        if not np.all(np.isfinite(positions)):
            raise ValueError("node coordinates must be finite")

        seen: dict[tuple[float, float], int] = {}
        for i in range(len(positions)):
            key = (float(positions[i, 0]), float(positions[i, 1]))
            if key in seen:
                raise ValueError(
                    f"nodes {seen[key]} and {i} share the position {key}"
                )
            seen[key] = i

        n = len(positions)
        pairs: list[tuple[int, int]] = []
        known: set[tuple[int, int]] = set()
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

        edge_arr = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        if len(pairs):
            du = positions[edge_arr[:, 0]] - positions[edge_arr[:, 1]]
            lengths = np.hypot(du[:, 0], du[:, 1])
        else:
            lengths = np.zeros(0)
        if not math.isfinite(sum(lengths.tolist())):
            raise ValueError("edge lengths overflow: their total is not finite")

        adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for (u, v), w in zip(pairs, lengths):
            w = float(w)
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))

        perms = tuple(_check_symmetry(p, positions, pairs, known) for p in symmetries)

        for arr in (positions, edge_arr, lengths, *perms):
            arr.setflags(write=False)
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_edges", edge_arr)
        object.__setattr__(self, "_lengths", lengths)
        object.__setattr__(self, "_adjacency", tuple(tuple(a) for a in adjacency))
        object.__setattr__(self, "_symmetries", perms)
        links = ((u, v) for p in perms for u, v in enumerate(p.tolist()))
        object.__setattr__(self, "_orbits", _classes(n, links))

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
        return _classes(self.node_count, self._edges.tolist())

    def __repr__(self) -> str:
        return f"NetworkGraph(nodes={self.node_count}, edges={self.edge_count})"


def _check_symmetry(perm, positions, pairs, known) -> np.ndarray:
    """Validate one automorphism in O(N + E) and return it as an int array."""
    n = len(positions)
    perm = np.array(perm, dtype=np.int64)
    if (
        perm.shape != (n,)
        or (n and (perm.min() < 0 or perm.max() >= n))
        or not np.all(np.bincount(perm, minlength=n) == 1)
    ):
        raise ValueError(f"symmetry is not a permutation of the {n} node ids")
    image = perm.tolist()
    for u, v in pairs:
        a, b = image[u], image[v]
        if ((a, b) if a < b else (b, a)) not in known:
            raise ValueError(f"symmetry maps edge ({u}, {v}) onto a non-edge ({a}, {b})")
    # A permutation keeps the centroid, so a rigid motion fixes it and is
    # the orthogonal map that best fits the centered points (Procrustes).
    centered = positions - positions.mean(axis=0)
    moved = centered[perm]
    left, _, right = np.linalg.svd(centered.T @ moved)
    residual = np.abs(centered @ (left @ right) - moved).max(initial=0.0)
    if residual > RIGID_TOLERANCE * max(1.0, np.abs(centered).max(initial=0.0)):
        raise ValueError(
            f"symmetry is not a rigid motion of the positions (off by {residual:.3g})"
        )
    return perm


def _classes(n: int, links) -> tuple[tuple[int, int], ...]:
    """``(lowest id, size)`` per class the ``(u, v)`` links join (union-find)."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in links:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    sizes: dict[int, int] = {}
    for v in range(n):
        root = find(v)
        sizes[root] = sizes.get(root, 0) + 1
    return tuple(sizes.items())


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
    """Rebuild a graph from the dict form produced by :func:`graph_to_json`."""
    if not isinstance(data, dict) or not all(
        isinstance(data.get(key), list) for key in ("nodes", "edges")
    ):
        raise ValueError("graph JSON must contain 'nodes' and 'edges' lists")
    raw_nodes, raw_edges = data["nodes"], data["edges"]

    by_id: dict[int, tuple[float, float]] = {}
    for entry in raw_nodes:
        try:
            node_id = _json_id(entry["id"])
            pos = (float(entry["x"]), float(entry["y"]))
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed node entry: {entry!r}") from exc
        if node_id in by_id:
            raise ValueError(f"node id {node_id} appears twice")
        by_id[node_id] = pos
    if set(by_id) != set(range(len(by_id))):
        raise ValueError("node ids must be dense integers 0..N-1")
    nodes = [by_id[i] for i in range(len(by_id))]

    edges = []
    for entry in raw_edges:
        try:
            edges.append((_json_id(entry["u"]), _json_id(entry["v"])))
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed edge entry: {entry!r}") from exc
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
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return graph_from_json(data)
