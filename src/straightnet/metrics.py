"""The per-source straightness row kernel and whole-graph aggregates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .model import NetworkGraph
from .shortest_paths import dijkstra


@dataclass(frozen=True)
class StraightnessSummary:
    """Aggregate over all unordered node pairs.

    ``std_dev`` is the population standard deviation: the pair set is the
    whole population of routes, not a sample from one.  ``skipped_pairs``
    counts pairs left out of the aggregate (unreachable, or co-located so
    the ratio is undefined); ``pair_count + skipped_pairs == N*(N-1)/2``.
    """

    pair_count: int
    mean: float
    std_dev: float
    skipped_pairs: int


def straightness_rows(graph: NetworkGraph, sources=None) -> Iterator[tuple]:
    """``(source, weight, d_spatial, d_geodesic, straightness)`` per source.

    One Dijkstra run per ``(source, weight)`` in ``sources`` (default: every
    node, weight 1).  Arrays run over all targets; straightness is ``nan``
    for unreachable or co-located pairs, so always at the source itself.
    """
    if sources is None:
        sources = ((v, 1) for v in range(graph.node_count))
    positions = graph.positions
    for source, weight in sources:
        d_g = dijkstra(graph, source)
        d_s = np.hypot(*(positions - positions[source]).T)
        ratio = np.full(len(d_g), math.nan)
        np.divide(d_s, d_g, out=ratio, where=np.isfinite(d_g) & (d_s > 0.0))
        yield source, weight, d_s, d_g, ratio


def summarize(
    graph: NetworkGraph, strict: bool = False, rows: Iterable[tuple] | None = None
) -> StraightnessSummary:
    """Mean and standard deviation of straightness over all node pairs.

    Folds :func:`straightness_rows`, by default one per orbit of the graph's
    symmetry group, weighted by orbit size: a symmetry preserves both
    distances, so every node of an orbit sees the same values.  ``rows``
    replaces them, e.g. with a pair-table writer over every node's row
    (weights summing to N).  The weighted two-pass aggregate runs in a fixed
    order, so repeated runs are bit-identical; ordered counts are halved.

    Positions are distinct and path lengths finite, so the skipped pairs are
    those between connected components.  With ``strict`` a graph that has
    any raises, as does a graph without edges, before ``rows`` is read.
    """
    n = graph.node_count
    if n < 2:
        raise ValueError("need at least 2 nodes to aggregate pair straightness")
    if strict:
        crossing = (n * n - sum(size * size for _, size in graph.components())) // 2
        if crossing:
            raise ValueError(f"{crossing} pair(s) unreachable or co-located")
    if graph.edge_count == 0:
        raise ValueError("no measurable pair in graph")
    if rows is None:
        rows = straightness_rows(graph, graph.orbits)
    kept: list[tuple[int, np.ndarray]] = []
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
