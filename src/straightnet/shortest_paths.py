"""Exact geodesics: a vectorised label-correcting relaxation from batches of sources."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .model import NetworkGraph

# Most labels (float64, 1 MB) of one relaxation, so memory stays flat: a batch runs in
# chunks of CHUNK_ENTRIES // N sources (GridSpec(30)'s 136 orbits are one), as fast as
# 2**20 on GridSpec(100) and faster on street graphs (side 31: 0.16 -> 0.14 s, 2 cores).
CHUNK_ENTRIES = 1 << 17


def _arcs(graph: NetworkGraph) -> tuple[np.ndarray, ...]:
    """``(degree, offset, length)`` of arcs sorted by tail, in edge order: node ``u``'s
    ``degree[u]`` arcs follow those of ``0..u-1``, and arc ``a`` runs to ``u + offset[a]``."""
    edges = graph.edges
    # arcs 2e, 2e+1 run along edge e; a stable sort by tail keeps edge order
    order = np.argsort(edges.ravel(), kind="stable")
    offset = (edges[:, ::-1] - edges).ravel()[order]
    degree = np.bincount(edges.ravel(), minlength=graph.node_count)
    return degree, offset, np.repeat(graph.edge_lengths, 2)[order]


def geodesic_blocks(
    graph: NetworkGraph, sources: Iterable[int], parts: int = 1
) -> Iterator[np.ndarray]:
    """Shortest-path distances from each of ``sources`` under edge-length weights.

    Yields one float64 (sources, N) block per chunk of ``CHUNK_ENTRIES // parts``
    labels (at least one row), in order, ``inf`` for unreachable nodes.  Every id
    is checked before the first block: a non-integer (even a ``bool``) or one
    outside ``0..N-1`` raises.

    Each chunk runs one Bellman-Ford-Moore relaxation that pushes from the labels the
    last round lowered.  Lengths are non-negative, so ``fl(d + w)`` is monotone in ``d``
    and never below it: every order reaches the least fixpoint, the minimum over walks
    of their left-to-right float sums, and rows equal heap Dijkstra's.
    """
    n, sources = graph.node_count, list(sources)
    for source in sources:
        if isinstance(source, bool) or not isinstance(source, (int, np.integer)):
            raise ValueError(f"source id {source!r} is not an integer")
        if not 0 <= source < n:
            raise ValueError(f"source id {source} outside 0..{n - 1}")
    degree, offset, length = _arcs(graph)
    first, step = np.cumsum(degree) - degree, max(1, CHUNK_ENTRIES // parts // max(n, 1))
    for start in range(0, len(sources), step):
        chunk = sources[start : start + step]
        labels = np.full(len(chunk) * n, np.inf)
        lowered = np.zeros(len(labels), dtype=bool)
        changed = np.arange(len(chunk)) * n + np.asarray(chunk, dtype=np.intp)
        labels[changed] = 0.0
        with np.errstate(over="ignore"):  # a candidate past a float's range is inf, never kept
            while len(changed):
                tail = changed % n
                count = degree[tail]
                ends = np.cumsum(count)
                arc = np.arange(ends[-1]) + np.repeat(first[tail] - ends + count, count)
                head = np.repeat(changed, count) + offset[arc]
                candidate = np.repeat(labels[changed], count) + length[arc]
                better = candidate < labels[head]
                head = head[better]
                np.minimum.at(labels, head, candidate[better])
                lowered[head] = True
                changed = np.flatnonzero(lowered)
                lowered[changed] = False
        yield labels.reshape(-1, n)
