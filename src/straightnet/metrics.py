"""The per-source straightness row kernel and whole-graph aggregates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .model import NetworkGraph
from .shortest_paths import geodesic_blocks


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


# Most geodesic work one command may start, in units of sources x (N + E). On 2 cores
# a unit took 57-69 ns on grids of side 30-100 and the street graph (side 31), about
# 35 s for the whole budget.  A relaxation round, one per hop, also costs about 55 us
# whatever its frontier, so long-hop graphs cost more: 114 ns per unit (18,700 rounds)
# on RadialSpec(3, 1000, 1), up to 0.8 us.  The pair dump adds the table: about 95 ns
# per unit in all for the street graph on two range processes, 165 ns on one.
MAX_WORK = 2**29

# Values per array of one block of rows (256 KB): the pair dump is as fast as with
# whole geodesic chunks (2**17) and keeps the parent's peak RSS, and grid sizes
# 1..30 sweep within 2.7 MB, where 2**16 takes 3.7 MB.
BLOCK_ENTRIES = 1 << 15

# A ratio too small for a float (crow-flies distance below about 5e-324 times the
# route) reads as the smallest positive float, so no pair at distinct positions
# gets straightness 0.
SMALLEST_RATIO = np.nextafter(0.0, 1.0)


def check_work(sources: int, nodes: int, edges: int, spent: int = 0) -> int:
    """``spent`` plus the work of one batch; raise if that passes MAX_WORK."""
    if (total := spent + sources * (nodes + edges)) > MAX_WORK:
        raise ValueError(f"{total} units of geodesic work, more than {MAX_WORK=}")
    return total


def straightness_blocks(graph: NetworkGraph, sources=None, parts: int = 1) -> Iterator[tuple]:
    """``(sources, weights, d_spatial, d_geodesic, straightness)`` blocks, one row per
    source, of one :func:`geodesic_blocks` batch over the ``(source, weight)`` pairs in
    ``sources`` (default: every node, weight 1): ``BLOCK_ENTRIES // N`` rows (at least
    one) sliced from its chunks (``parts`` is passed on).  Straightness is ``nan`` for
    unreachable or co-located pairs, so always at the source itself, and otherwise in
    ``(0, 1]`` up to rounding.  Checked when called."""
    sources = [(v, 1) for v in range(graph.node_count)] if sources is None else list(sources)
    check_work(len(sources), graph.node_count, graph.edge_count)
    return _blocks(graph, sources, geodesic_blocks(graph, [s for s, _ in sources], parts))


def _blocks(graph: NetworkGraph, sources: list, chunks: Iterator) -> Iterator[tuple]:
    rows, done, (x, y) = max(1, BLOCK_ENTRIES // max(graph.node_count, 1)), 0, graph.positions.T
    for chunk in chunks:  # the search checks every id before its first chunk
        for d_g in (chunk[i : i + rows] for i in range(0, len(chunk), rows)):
            ids, weights = np.array(sources[done : done + len(d_g)], dtype=np.intp).T
            done += len(d_g)
            dx = x - x[ids, None]
            d_s = np.hypot(dx, y - y[ids, None], out=dx)
            ratio = np.full(d_g.shape, math.nan)
            np.divide(d_s, d_g, out=ratio, where=np.isfinite(d_g) & (d_s > 0.0))
            np.maximum(ratio, SMALLEST_RATIO, out=ratio)  # nan stays nan
            yield ids, weights, d_s, d_g, ratio


def block_moments(weights, ratio: np.ndarray) -> list[tuple]:
    """``(weight, count, sum, centred square sum)`` of each row's measured ratios.

    The rows with c measured (not ``nan``) ratios are reduced as one C-contiguous
    (rows, c) array: numpy sums each row pairwise as alone, so bit for bit as alone."""
    kept = ~np.isnan(ratio)
    counts = kept.sum(axis=1)
    sums, squares = np.zeros(len(ratio)), np.zeros(len(ratio))
    for c in set(counts.tolist()) - {0}:  # reshape(-1, 0) would raise; np.unique loads numpy.ma
        rows = np.flatnonzero(counts == c)  # boolean indexing copies: ratio is left as it was
        values = (ratio[rows][kept[rows]] if len(rows) < len(ratio) else ratio[kept]).reshape(-1, c)
        sums[rows] = values.sum(axis=1)
        values -= sums[rows, None] / c
        squares[rows] = np.square(values, out=values).sum(axis=1)
    return list(zip(np.asarray(weights).tolist(), counts.tolist(), sums.tolist(), squares.tolist()))


def _fold(n: int, moments: Iterable[tuple]) -> StraightnessSummary:
    """Summary of ``n`` nodes from their rows' :func:`block_moments`, merged in order as by
    Chan et al., so repeated runs are bit-identical; ordered counts are halved."""
    rows = list(moments)
    if not (kept := sum(w * c for w, c, _, _ in rows)):
        raise ValueError("no measurable pair in graph")
    mean = sum(w * total for w, _, total, _ in rows) / kept  # an empty row adds 0.0
    square_sum = sum(w * (m2 + c * (total / c - mean) ** 2) for w, c, total, m2 in rows if c)
    skipped = sum(w * (n - 1 - c) for w, c, _, _ in rows)
    return StraightnessSummary(kept // 2, mean, math.sqrt(square_sum / kept), skipped // 2)


def nested_summaries(host: NetworkGraph, cells: list[np.ndarray]) -> list[StraightnessSummary]:
    """The summary of each cell from one :func:`straightness_blocks` batch over the orbits
    of ``host``, which checks that batch's work; :func:`summarize` is its one-cell case.

    A cell is the isometric subgraph on increasing host ids that every symmetry of
    ``host`` keeps whole, so its orbits are the host's inside it and a host row at its
    ids is its own row: a row joins every cell that holds its source, with its weight."""
    held = [np.bincount(ids, minlength=host.node_count).astype(bool) for ids in cells]
    moments = [[] for _ in cells]
    for sources, weights, _, _, ratio in straightness_blocks(host, host.orbits):
        for ids, has, rows in zip(cells, held, moments):  # each ratio depends on its own pair
            inside = np.flatnonzero(has[sources])
            rows += block_moments(weights[inside], ratio[np.ix_(inside, ids)])
    return [_fold(len(ids), rows) for ids, rows in zip(cells, moments)]


def summarize(graph: NetworkGraph, strict: bool = False) -> StraightnessSummary:
    """Mean and standard deviation of straightness over all node pairs.

    The one cell of :func:`nested_summaries` that is the whole graph: one row per orbit
    of its symmetry group, weighted by orbit size, as a symmetry preserves both distances.
    Its ``nan`` pairs are the skipped ones and the rest lie in ``(0, 1]``.  The graph is
    checked as by :func:`summarize_moments`, and only then the batch's work.
    """
    _check(graph, strict)
    return nested_summaries(graph, [np.arange(graph.node_count)])[0]


def summarize_moments(
    graph: NetworkGraph, moments: Iterable[tuple], strict: bool = False
) -> StraightnessSummary:
    """The summary of ``graph`` from the :func:`block_moments` of rows whose weights
    sum to N, as the pair-table writer passes them, merged by :func:`_fold`.  The graph
    is checked before ``moments`` is read."""
    _check(graph, strict)
    return _fold(graph.node_count, moments)


def _check(graph: NetworkGraph, strict: bool) -> None:
    """Refuse a graph of fewer than 2 nodes or without edges, and with ``strict`` one whose
    components leave pairs skipped: positions are distinct and path lengths finite."""
    n = graph.node_count
    if n < 2:
        raise ValueError("need at least 2 nodes to aggregate pair straightness")
    if strict:
        crossing = (n * n - sum(size * size for _, size in graph.components())) // 2
        if crossing:
            raise ValueError(f"{crossing} pair(s) unreachable or co-located")
    if graph.edge_count == 0:
        raise ValueError("no measurable pair in graph")
