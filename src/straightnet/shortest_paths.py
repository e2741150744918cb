"""Exact geodesics: Dijkstra from a batch of sources, over arc lists built once per batch."""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Iterable, Iterator

import numpy as np

from .model import NetworkGraph


def _adjacency(graph: NetworkGraph) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Per-node tuple of ``(neighbor, edge_length)`` arcs, in edge order."""
    edges = graph.edges
    # arcs 2e, 2e+1 run along edge e; a stable sort by tail keeps edge order
    order = np.argsort(edges.ravel(), kind="stable")
    heads = edges[:, ::-1].ravel()[order].tolist()
    arcs = list(zip(heads, np.repeat(graph.edge_lengths, 2)[order].tolist()))
    ends = np.cumsum(np.bincount(edges.ravel(), minlength=graph.node_count)).tolist()
    return tuple(tuple(arcs[a:b]) for a, b in zip([0, *ends], ends))


def dijkstra(graph: NetworkGraph, sources: Iterable[int]) -> Iterator[np.ndarray]:
    """Shortest-path distances from each of ``sources`` under edge-length weights.

    Yields one float64 row per source, in order, ``inf`` for unreachable
    nodes; an id outside ``0..N-1`` raises when reached.  The arc lists are
    built once per call, so pass every source in one call.  The heap breaks
    ties by (distance, node id), so traversal order is reproducible.
    """
    n = graph.node_count
    adjacency = _adjacency(graph)
    for source in sources:
        if not 0 <= source < n:
            raise ValueError(f"source id {source} outside 0..{n - 1}")
        dist = [math.inf] * n
        dist[source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, source)]
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
