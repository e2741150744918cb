"""Exact geodesic distances: single-source Dijkstra over the tuple adjacency."""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from .model import NetworkGraph


def dijkstra(graph: NetworkGraph, source: int) -> np.ndarray:
    """Shortest-path distances from ``source`` under edge-length weights.

    Returns one float64 entry per node, ``inf`` for unreachable nodes.
    The heap breaks ties by (distance, node id) so traversal order is
    reproducible, although the distances themselves are order-independent.
    """
    n = graph.node_count
    if not 0 <= source < n:
        raise ValueError(f"source id {source} outside 0..{n - 1}")
    adjacency = graph.adjacency
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
    return np.asarray(dist)

