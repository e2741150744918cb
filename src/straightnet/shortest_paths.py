"""Exact geodesics: a vectorised label-correcting relaxation from batches of sources."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .model import NetworkGraph

# Most labels (float64, 1 MB) of one relaxation, so memory stays flat: a batch runs in
# chunks of CHUNK_ENTRIES // N sources, as fast as 2**20 on GridSpec(100) and faster on
# street graphs (side 31, 8 chunks: 0.16 -> 0.14 s on 2 cores).  Chunks in a row share
# one up to PACK_ENTRIES labels, as each round costs ~25 numpy calls: the radial sweep's
# 90 relaxations became 14, 0.064 -> 0.036 s; 2**17 was no faster, VmHWM 33 -> 37 MB.
CHUNK_ENTRIES = 1 << 17
PACK_ENTRIES = 1 << 14


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
    ``bool``) or one outside ``0..N-1`` raises.
    """
    return (row for _, row in cell_geodesics([(graph, sources)]))


def cell_geodesics(cells: Iterable[tuple[NetworkGraph, Iterable[int]]]) -> Iterator[tuple]:
    """``(graph, row)`` per :func:`geodesics` row of each ``(graph, sources)`` cell, read lazily.

    Small cells in a row share one Bellman-Ford-Moore relaxation over flat labels
    that pushes from those the last round lowered; arcs stay in their graph, so
    rows never meet.  Lengths are non-negative, so ``fl(d + w)`` is monotone in
    ``d`` and never below it: every order reaches the least fixpoint, the minimum
    over walks of their left-to-right float sums, and rows equal heap Dijkstra's.
    """
    pack, held, width = [], 0, 0  # (graph, arcs, sources) per chunk; their rows, row width
    for graph, sources in cells:
        n, sources = graph.node_count, list(sources)
        for source in sources:
            if isinstance(source, bool) or not isinstance(source, (int, np.integer)):
                raise ValueError(f"source id {source!r} is not an integer")
            if not 0 <= source < n:
                raise ValueError(f"source id {source} outside 0..{n - 1}")
        arcs, step = _arcs(graph), max(1, CHUNK_ENTRIES // max(n, 1))
        for start in range(0, len(sources), step):
            chunk = sources[start : start + step]
            if pack and (held + len(chunk)) * max(width, n) > PACK_ENTRIES:
                yield from _rows(pack, width)
                pack, held, width = [], 0, 0
            pack.append((graph, arcs, chunk))
            held, width = held + len(chunk), max(width, n)
    if pack:
        yield from _rows(pack, width)


def _rows(pack: list[tuple], width: int) -> Iterator[tuple]:
    """``(graph, row)`` per source of each ``(graph, arcs, sources)`` chunk, ``width`` a row."""
    arcs = zip(*(arcs[1:] for _, arcs, _ in pack))  # a lone graph's are not copied
    degree, offset, length = (a[0] if len(pack) == 1 else np.concatenate(a) for a in arcs)
    first = np.cumsum(degree) - degree
    counts, nodes = zip(*((len(sources), graph.node_count) for graph, _, sources in pack))
    starts = np.arange(sum(counts)) * width
    # the graphs laid end to end: label i lies at their node i + shift[i // width]
    shift = np.repeat(np.cumsum(nodes) - nodes, counts) - starts
    labels = np.full(len(starts) * width, np.inf)
    lowered = np.zeros(len(labels), dtype=bool)
    changed = starts + np.concatenate([np.asarray(s, dtype=np.intp) for *_, s in pack])
    labels[changed] = 0.0
    with np.errstate(over="ignore"):  # a candidate past a float's range is inf, so never kept
        while len(changed):
            tail = changed + shift[changed // width]
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
    graphs = (graph for graph, _, sources in pack for _ in sources)
    yield from ((g, row[: g.node_count]) for g, row in zip(graphs, labels.reshape(-1, width)))
