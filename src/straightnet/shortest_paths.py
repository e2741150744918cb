"""Exact geodesics: a vectorised label-correcting relaxation from a batch of sources."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .model import NetworkGraph

# Most labels one relaxation holds at once, as float64 entries (8 MB).  A
# batch runs in chunks of CHUNK_ENTRIES // N sources, so memory stays flat
# however many sources a caller passes: every orbit of GridSpec(200) at once
# would otherwise need 5,151 x 40,401 labels (1.7 GB).  Every benchmark
# graph's batch fits in one chunk.
CHUNK_ENTRIES = 1 << 20


def _arcs(graph: NetworkGraph) -> tuple[np.ndarray, ...]:
    """``(first, degree, offset, length)``: arcs sorted by tail, in edge order.

    Node ``u``'s arcs are ``first[u]`` to ``first[u] + degree[u] - 1``;
    arc ``a`` runs to node ``u + offset[a]`` along an edge of ``length[a]``.
    """
    edges = graph.edges
    # arcs 2e, 2e+1 run along edge e; a stable sort by tail keeps edge order
    order = np.argsort(edges.ravel(), kind="stable")
    offset = (edges[:, ::-1] - edges).ravel()[order]
    degree = np.bincount(edges.ravel(), minlength=graph.node_count)
    first = np.cumsum(degree) - degree
    return first, degree, offset, np.repeat(graph.edge_lengths, 2)[order]


def geodesics(graph: NetworkGraph, sources: Iterable[int]) -> Iterator[np.ndarray]:
    """Shortest-path distances from each of ``sources`` under edge-length weights.

    Yields one float64 row per source, in order, ``inf`` for unreachable
    nodes.  Every id is checked before the first row: a non-integer (even a
    ``bool``) or one outside ``0..N-1`` raises.  Each chunk of sources is one
    Bellman-Ford-Moore relaxation over a flat ``rows x N`` label array that
    pushes only from the labels the last round lowered.  Lengths are
    non-negative, so ``fl(d + w)`` is monotone in ``d`` and never below it;
    every relaxation order then reaches the same least fixpoint, the
    minimum over walks of their left-to-right float sums, and the rows
    equal heap Dijkstra's bit for bit.
    """
    n = graph.node_count
    sources = list(sources)
    for source in sources:
        if isinstance(source, bool) or not isinstance(source, (int, np.integer)):
            raise ValueError(f"source id {source!r} is not an integer")
        if not 0 <= source < n:
            raise ValueError(f"source id {source} outside 0..{n - 1}")
    if not sources:
        return
    arcs = _arcs(graph)
    rows = max(1, CHUNK_ENTRIES // n)
    for start in range(0, len(sources), rows):
        chunk = sources[start : start + rows]
        yield from _relax(arcs, n, chunk).reshape(len(chunk), n)


@np.errstate(over="ignore")  # a candidate past a float's range is inf, so never kept
def _relax(arcs: tuple[np.ndarray, ...], n: int, chunk: list[int]) -> np.ndarray:
    """Flat labels: ``n`` distances from each of ``chunk`` in turn."""
    first, degree, offset, length = arcs
    labels = np.full(len(chunk) * n, np.inf)
    lowered = np.zeros(len(labels), dtype=bool)
    changed = np.arange(len(chunk)) * n + chunk
    labels[changed] = 0.0
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
    return labels
