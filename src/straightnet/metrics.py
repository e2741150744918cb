"""The per-source straightness row kernel and whole-graph aggregates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .model import NetworkGraph
from .shortest_paths import geodesics


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
# 0.8 us where shortest paths have many hops (a fixed cost per round, one per hop).
MAX_WORK = 2**29

# A ratio too small for a float (crow-flies distance below about 5e-324 times the
# route) reads as the smallest positive float, so no pair at distinct positions
# gets straightness 0.
SMALLEST_RATIO = np.nextafter(0.0, 1.0)


def check_work(sources: int, nodes: int, edges: int, spent: int = 0) -> int:
    """``spent`` plus the work of one batch; raise if that passes MAX_WORK."""
    if (total := spent + sources * (nodes + edges)) > MAX_WORK:
        raise ValueError(f"{total} units of geodesic work, more than {MAX_WORK=}")
    return total


def straightness_rows(graph: NetworkGraph, sources=None) -> Iterator[tuple]:
    """``(source, weight, d_spatial, d_geodesic, straightness)`` per source.

    One :func:`geodesics` batch over the ``(source, weight)`` pairs in
    ``sources`` (default: every node, weight 1).  Arrays run over all
    targets; straightness is ``nan`` for unreachable or co-located pairs,
    so always at the source itself, and otherwise in ``(0, 1]`` up to
    rounding.  The call checks the batch's work.
    """
    sources = [(v, 1) for v in range(graph.node_count)] if sources is None else list(sources)
    check_work(len(sources), graph.node_count, graph.edge_count)
    return _rows(graph, sources, geodesics(graph, [s for s, _ in sources]))


def _rows(graph: NetworkGraph, sources: list, found: Iterator) -> Iterator[tuple]:
    for (source, weight), d_g in zip(sources, found):  # sources first: no later row read
        d_s = np.hypot(*(graph.positions - graph.positions[source]).T)
        ratio = np.full(len(d_g), math.nan)
        np.divide(d_s, d_g, out=ratio, where=np.isfinite(d_g) & (d_s > 0.0))
        np.maximum(ratio, SMALLEST_RATIO, out=ratio)  # nan stays nan
        yield source, weight, d_s, d_g, ratio


def _moments(weight: int, ratio: np.ndarray) -> tuple:
    """``(weight, count, sum, centred square sum)`` of one row's measured ratios."""
    row = ratio[~np.isnan(ratio)]
    total = float(row.sum())
    return weight, len(row), total, float(((row - total / max(len(row), 1)) ** 2).sum())


def _fold(n: int, moments: Iterable[tuple]) -> StraightnessSummary:
    """Summary of ``n`` nodes from their rows' :func:`_moments`, merged in order as by
    Chan et al., so repeated runs are bit-identical; ordered counts are halved."""
    rows = list(moments)
    if not (kept := sum(w * c for w, c, _, _ in rows)):
        raise ValueError("no measurable pair in graph")
    mean = sum(w * total for w, _, total, _ in rows) / kept  # an empty row adds 0.0
    square_sum = sum(w * (m2 + c * (total / c - mean) ** 2) for w, c, total, m2 in rows if c)
    skipped = sum(w * (n - 1 - c) for w, c, _, _ in rows)
    return StraightnessSummary(kept // 2, mean, math.sqrt(square_sum / kept), skipped // 2)


def nested_summaries(host: NetworkGraph, cells: list[np.ndarray]) -> list[StraightnessSummary]:
    """The summary of each cell from one :func:`straightness_rows` batch over the orbits
    of ``host``, which checks that batch's work.

    A cell is the isometric subgraph on increasing host ids that every symmetry of
    ``host`` keeps whole, so its orbits are the host's inside it and a host row at its
    ids is its own row: a row joins every cell that holds its source, with its weight."""
    held = [np.bincount(ids, minlength=host.node_count).astype(bool) for ids in cells]
    moments = [[] for _ in cells]
    for source, weight, _, _, ratio in straightness_rows(host, host.orbits):
        for ids, has, rows in zip(cells, held, moments):  # each ratio depends on its own pair
            if has[source]:
                rows.append(_moments(weight, ratio[ids]))
    return [_fold(len(ids), rows) for ids, rows in zip(cells, moments)]


def summarize(
    graph: NetworkGraph, strict: bool = False, rows: Iterable[tuple] | None = None
) -> StraightnessSummary:
    """Mean and standard deviation of straightness over all node pairs.

    Folds :func:`straightness_rows`, by default one per orbit of the graph's
    symmetry group, weighted by orbit size: a symmetry preserves both
    distances, so every node of an orbit sees the same values.  ``rows``
    replaces them, e.g. with a pair-table writer over every node's row
    (weights summing to N), and :func:`_fold` merges them.

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
    return _fold(n, (_moments(weight, ratio) for _, weight, _, _, ratio in rows))
