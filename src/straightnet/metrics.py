"""The per-source straightness row kernel and whole-graph aggregates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator

import numpy as np

from .model import NetworkGraph
from .shortest_paths import cell_geodesics


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


# Most geodesic work one command may start, in units of sources x (N + E). A unit
# took 65-130 ns on 2 cores on the benchmark's graphs (35-70 s in all), but up to
# 1.6 us where shortest paths have many hops (a fixed cost per round, one per hop).
MAX_WORK = 2**29

# A ratio too small for a float (crow-flies distance below about 5e-324 times the
# route) reads as the smallest positive float, so no pair at distinct positions
# gets straightness 0.
SMALLEST_RATIO = np.nextafter(0.0, 1.0)


def check_work(batches: Iterable[tuple[int, int, int]]) -> None:
    """Raise once the running work of ``(sources, nodes, edges)`` batches passes MAX_WORK."""
    total = 0
    for sources, nodes, edges in batches:
        if (total := total + sources * (nodes + edges)) > MAX_WORK:
            raise ValueError(f"{total} units of geodesic work, more than {MAX_WORK=}")


def straightness_rows(graph: NetworkGraph, sources=None) -> Iterator[tuple]:
    """``(source, weight, d_spatial, d_geodesic, straightness)`` per source.

    One :func:`geodesics` batch over the ``(source, weight)`` pairs in
    ``sources`` (default: every node, weight 1).  Arrays run over all
    targets; straightness is ``nan`` for unreachable or co-located pairs,
    so always at the source itself, and otherwise in ``(0, 1]`` up to
    rounding.  The call checks the batch's work.
    """
    sources = [(v, 1) for v in range(graph.node_count)] if sources is None else list(sources)
    check_work([(len(sources), graph.node_count, graph.edge_count)])
    return _rows(graph, sources, cell_geodesics([(graph, [s for s, _ in sources])]))


def orbit_rows(graphs: Iterable[NetworkGraph]) -> Iterator[tuple]:
    """``(graph, rows)`` per graph, read when first needed; rows as :func:`straightness_rows`
    over its orbits.  Small graphs share relaxations, so read each one's rows in full
    before the next.  Rows are grouped by graph identity, so each graph must be a new
    object, as a sweep builds one per cell.  Callers check the work."""
    found = cell_geodesics((g, [s for s, _ in g.orbits]) for g in graphs)
    for graph, tagged in groupby(found, key=lambda item: item[0]):
        yield graph, _rows(graph, graph.orbits, tagged)


def _rows(graph: NetworkGraph, sources: list, found: Iterator) -> Iterator[tuple]:
    for (source, weight), (_, d_g) in zip(sources, found):  # sources first: no later row read
        d_s = np.hypot(*(graph.positions - graph.positions[source]).T)
        ratio = np.full(len(d_g), math.nan)
        np.divide(d_s, d_g, out=ratio, where=np.isfinite(d_g) & (d_s > 0.0))
        np.maximum(ratio, SMALLEST_RATIO, out=ratio)  # nan stays nan
        yield source, weight, d_s, d_g, ratio


def summarize(
    graph: NetworkGraph, strict: bool = False, rows: Iterable[tuple] | None = None
) -> StraightnessSummary:
    """Mean and standard deviation of straightness over all node pairs.

    Folds :func:`straightness_rows`, by default one per orbit of the graph's
    symmetry group, weighted by orbit size: a symmetry preserves both
    distances, so every node of an orbit sees the same values.  ``rows``
    replaces them, e.g. with a pair-table writer over every node's row
    (weights summing to N).  Each row's moments merge as by Chan et al. in a
    fixed order, so repeated runs are bit-identical; ordered counts are halved.

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
    rows = straightness_rows(graph, graph.orbits) if rows is None else rows
    moments = []  # (weight, count, sum, centred square sum) per row
    ordered_kept = ordered_skipped = 0
    for _, weight, _, _, ratio in rows:
        row = ratio[~np.isnan(ratio)]
        ordered_kept += weight * len(row)
        ordered_skipped += weight * (n - 1 - len(row))
        if len(row):
            total = float(row.sum())
            moments.append((weight, len(row), total, float(((row - total / len(row)) ** 2).sum())))
    if not ordered_kept:
        raise ValueError("no measurable pair in graph")
    mean = sum(w * total for w, _, total, _ in moments) / ordered_kept
    square_sum = sum(w * (m2 + c * (total / c - mean) ** 2) for w, c, total, m2 in moments)
    return StraightnessSummary(
        pair_count=ordered_kept // 2,
        mean=mean,
        std_dev=math.sqrt(square_sum / ordered_kept),
        skipped_pairs=ordered_skipped // 2,
    )
