import math
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from straightnet import (
    GridSpec,
    NetworkGraph,
    RadialSpec,
    generate_radioconcentric,
    generate_rectilinear,
    metrics,
    shortest_paths,
    summarize,
    sweep_radial,
    sweep_rectilinear,
    tables,
)
from straightnet.model import graph_from_json, graph_to_json
from straightnet.metrics import block_moments, straightness_blocks, summarize_moments
from straightnet.shortest_paths import geodesic_blocks
from straightnet.tables import write_pairs_csv
from straightnet.validation import center_curve_check, center_radial_check

import oracles
from oracles import (
    all_pairs,
    format_angle,
    format_ratio,
    grid_node_id,
    pair_straightness,
    read_table,
    ring_node_id,
    rows_of,
    side_node_id,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (the benchmark's seeded street graphs)

SQRT7_OVER_1_PLUS_SQRT3 = math.sqrt(7.0) / (1.0 + math.sqrt(3.0))  # 0.9684121919...


def fold_rows(graph, rows):
    """``summarize_moments`` of ``(source, weight, d_spatial, d_geodesic, straightness)``
    rows, each folded on its own."""
    moments = (m for _, w, _, _, ratio in rows for m in block_moments([w], ratio[None]))
    return summarize_moments(graph, moments)


def scaled_copy(graph, factor):
    return NetworkGraph(graph.positions * factor, graph.edges.tolist())


class TestPairStraightness:
    def test_unit_square_diagonal(self):
        g = generate_rectilinear(GridSpec(1))
        m = pair_straightness(g, all_pairs(g), 0, 3)
        assert m.d_spatial == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert m.d_geodesic == 2.0
        assert m.straightness == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)
        assert not m.skipped

    def test_edge_neighbors_are_straight(self):
        g = generate_rectilinear(GridSpec(2))
        distances = all_pairs(g)
        for u, v in g.edges:
            assert pair_straightness(g, distances, int(u), int(v)).straightness == 1.0

    def test_wheel_cross_pair(self):
        spec = RadialSpec(3, 2)
        g = generate_radioconcentric(spec)
        u, v = ring_node_id(spec, 2, 0), ring_node_id(spec, 1, 1)
        m = pair_straightness(g, all_pairs(g), u, v)
        assert m.d_spatial == pytest.approx(math.sqrt(7.0), abs=1e-12)
        assert m.d_geodesic == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)
        assert m.straightness == pytest.approx(SQRT7_OVER_1_PLUS_SQRT3, abs=1e-12)
        # the exhaustive oracle agrees
        assert m.straightness == pytest.approx(
            oracles.enumerated_pair_straightness(g, u, v), abs=1e-12
        )

    def test_self_pair_rejected(self):
        g = generate_rectilinear(GridSpec(1))
        with pytest.raises(ValueError):
            pair_straightness(g, all_pairs(g), 2, 2)

    def test_unreachable_pair_is_skipped(self):
        g = NetworkGraph([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)], [(0, 1)])
        m = pair_straightness(g, all_pairs(g), 0, 2)
        assert m.skipped
        assert math.isinf(m.d_geodesic)
        assert math.isnan(m.straightness)


class TestSummarize:
    def test_unit_square_hand_enumeration(self):
        # 4 side pairs at 1 and 2 diagonals at sqrt(2)/2: (4 + sqrt(2)) / 6
        summary = summarize(generate_rectilinear(GridSpec(1)))
        assert summary.pair_count == 6
        assert summary.skipped_pairs == 0
        assert summary.mean == pytest.approx(0.9023689270621825, abs=1e-12)

    def test_matches_exhaustive_oracle_on_micro_graphs(self):
        for graph in (
            generate_rectilinear(GridSpec(1)),
            generate_radioconcentric(RadialSpec(3, 2)),
            generate_radioconcentric(RadialSpec(4, 1)),
        ):
            assert summarize(graph).mean == pytest.approx(
                oracles.enumerated_mean_straightness(graph), abs=1e-12
            )

    def test_square_wheel_is_perfectly_straight(self):
        summary = summarize(generate_radioconcentric(RadialSpec(4, 1)))
        assert summary.pair_count == 10
        assert summary.mean == 1.0
        assert summary.std_dev == 0.0

    def test_triangle_wheel_is_perfectly_straight(self):
        summary = summarize(generate_radioconcentric(RadialSpec(3, 1)))
        assert summary.pair_count == 6
        assert summary.mean == 1.0

    def test_pair_count_bookkeeping(self):
        g = NetworkGraph([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)], [(0, 1)])
        summary = summarize(g)
        assert summary.pair_count == 1
        assert summary.skipped_pairs == 2
        n = g.node_count
        assert summary.pair_count + summary.skipped_pairs == n * (n - 1) // 2

    def test_strict_mode_rejects_skips(self):
        g = NetworkGraph([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)], [(0, 1)])
        with pytest.raises(ValueError, match="unreachable"):
            summarize(g, strict=True)

    def test_too_small_graph_rejected(self):
        with pytest.raises(ValueError):
            summarize(NetworkGraph([(0.0, 0.0)], []))

    def test_population_std_dev(self):
        g = generate_rectilinear(GridSpec(1))
        values = np.array([1.0, 1.0, 1.0, 1.0, math.sqrt(0.5), math.sqrt(0.5)])
        expected = math.sqrt(np.mean((values - values.mean()) ** 2))
        assert summarize(g).std_dev == pytest.approx(expected, abs=1e-15)

    def test_repeat_runs_bit_identical(self):
        g = generate_radioconcentric(RadialSpec(6, 2, 2))
        first = summarize(g)
        second = summarize(g)
        assert first == second

    def test_rows_without_a_measurable_pair_are_refused(self):
        g = NetworkGraph([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)], [(0, 1)])
        # node 2 is isolated
        for rows in (iter([]), rows_of(straightness_blocks(g, [(2, 3)]))):
            with pytest.raises(ValueError, match="^no measurable pair in graph$"):
                fold_rows(g, rows)

    def test_sources_may_be_a_one_shot_iterator(self):
        g = generate_radioconcentric(RadialSpec(5, 2, 3))
        rows = list(rows_of(straightness_blocks(g, ((v, 1) for v in range(g.node_count)))))
        assert [source for source, *_ in rows] == list(range(g.node_count))
        assert fold_rows(g, iter(rows)) == fold_rows(g, rows_of(straightness_blocks(g)))


class TestWorkBudget:
    def test_rows_are_refused_when_called(self, monkeypatch):
        g = generate_rectilinear(GridSpec(2))  # 9 nodes, 12 edges
        monkeypatch.setattr(metrics, "MAX_WORK", 9 * 21 - 1)
        monkeypatch.setattr(metrics, "geodesic_blocks", None)  # any search would fail
        with pytest.raises(ValueError, match=r"^189 units of geodesic work, more than MAX_WORK=188$"):
            straightness_blocks(g)  # the iterator is never advanced
        with pytest.raises(ValueError, match="^189 units"):
            summarize(generic_copy(g))


def generic_copy(graph):
    """The same graph without symmetries, so summarize uses all N sources."""
    return graph_from_json(graph_to_json(graph))


def assert_same_summary(orbit, generic):
    assert orbit.pair_count == generic.pair_count
    assert orbit.skipped_pairs == generic.skipped_pairs
    assert abs(orbit.mean - generic.mean) <= 1e-12
    assert abs(orbit.std_dev - generic.std_dev) <= 1e-12


def spy_searches(monkeypatch):
    """Record the sources of each batch that goes through ``metrics.geodesic_blocks``."""
    calls = []

    def spy(graph, sources, *parts):
        calls.append(list(sources))
        return geodesic_blocks(graph, calls[-1], *parts)

    monkeypatch.setattr(metrics, "geodesic_blocks", spy)
    return calls


def count_geodesics_calls(monkeypatch, graph):
    calls = spy_searches(monkeypatch)
    summarize(graph)
    (batch,) = calls  # one batch per graph
    return batch


class TestOrbitReduction:
    @pytest.mark.parametrize("size", range(1, 13))
    def test_grid_matches_generic_path(self, size):
        g = generate_rectilinear(GridSpec(size))
        assert_same_summary(summarize(g), summarize(generic_copy(g)))

    @pytest.mark.parametrize("k", range(3, 10))
    def test_wheel_matches_generic_path(self, k):
        for m in range(1, 4):
            for q in range(1, 5):
                g = generate_radioconcentric(RadialSpec(k, m, q))
                assert_same_summary(summarize(g), summarize(generic_copy(g)))

    def test_grid_runs_one_source_per_orbit(self, monkeypatch):
        calls = count_geodesics_calls(monkeypatch, generate_rectilinear(GridSpec(30)))
        assert len(calls) == 136

    @pytest.mark.parametrize("k, m", [(3, 1), (8, 2), (20, 5)])
    def test_wheel_runs_one_source_per_orbit(self, monkeypatch, k, m):
        g = generate_radioconcentric(RadialSpec(k, m, 4))
        assert len(count_geodesics_calls(monkeypatch, g)) == 1 + 3 * m

    def test_imported_graph_runs_every_source(self, monkeypatch):
        g = generic_copy(generate_rectilinear(GridSpec(4)))
        assert count_geodesics_calls(monkeypatch, g) == list(range(25))


class TestInvariance:
    @settings(max_examples=25, deadline=None)
    @given(factor=st.floats(min_value=0.05, max_value=40.0))
    def test_scale_invariance(self, factor):
        g = generate_radioconcentric(RadialSpec(5, 1, 2))
        reference = summarize(g)
        scaled = summarize(scaled_copy(g, factor))
        assert scaled.mean == pytest.approx(reference.mean, abs=1e-12)
        assert scaled.std_dev == pytest.approx(reference.std_dev, abs=1e-12)

    def test_rigid_motion_invariance(self):
        g = generate_rectilinear(GridSpec(3))
        angle = 0.7
        rotation = np.array(
            [[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]]
        )
        moved = NetworkGraph(g.positions @ rotation + [3.0, -2.0], g.edges.tolist())
        reference, transformed = summarize(g), summarize(moved)
        assert transformed.mean == pytest.approx(reference.mean, abs=1e-9)
        assert transformed.std_dev == pytest.approx(reference.std_dev, abs=1e-9)

    def test_pair_enumeration_is_canonical(self, tmp_path):
        g = generate_rectilinear(GridSpec(2))
        path = tmp_path / "pairs.csv"
        write_pairs_csv(path, g)
        _, rows = read_table(path)
        pairs = [(int(r["u"]), int(r["v"])) for r in rows]
        assert pairs == [(u, v) for u in range(9) for v in range(u + 1, 9)]


@st.composite
def connected_graphs(draw):
    """``(points, edges)``: a random spanning tree plus extra edges on <= 12 points."""
    coordinate = st.one_of(st.integers(-20, 20), st.floats(-20.0, 20.0)).map(float)
    points = draw(
        st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=12, unique=True)
    )
    n = len(points)
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2))
    for u, v in draw(st.lists(extra, max_size=n)):
        v += v >= u  # any node but u
        edges.add((min(u, v), max(u, v)))
    return points, sorted(edges)


# A route sums at most 11 rounded edge lengths, so along collinear nodes the
# ratio may round a few ulps past 1; 16 ulps bounds that with room to spare.
ROUNDING = 16 * np.finfo(float).eps
# Closest two points may be for a similar copy to keep every ratio to 1e-9.
SPACING = 0.01


class TestRandomConnectedGraphs:
    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(), st.data())
    def test_summary_ignores_labels_and_edge_order(self, case, data):
        points, edges = case
        label = data.draw(st.permutations(range(len(points))), label="label")
        moved = [None] * len(points)
        for i, point in enumerate(points):
            moved[label[i]] = point
        relabelled = [(label[v], label[u]) for u, v in edges]
        shuffled = data.draw(st.permutations(relabelled), label="edges")
        expected = summarize(NetworkGraph(points, edges))
        got = summarize(NetworkGraph(moved, shuffled))
        assert (got.pair_count, got.skipped_pairs) == (expected.pair_count, 0)
        assert abs(got.mean - expected.mean) <= 1e-12
        assert abs(got.std_dev - expected.std_dev) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs())
    # 5e-324 apart, 2 apart by road: the true ratio is below the smallest float
    @example(([(0.0, 1.0), (0.0, 0.0), (0.0, 5e-324)], [(0, 1), (0, 2)]))
    def test_straightness_lies_in_the_unit_interval(self, case):
        g = NetworkGraph(*case)
        for _, _, _, _, ratio in rows_of(straightness_blocks(g)):
            finite = ratio[np.isfinite(ratio)]
            assert len(finite) == g.node_count - 1  # connected: only the source is nan
            assert np.all(finite > 0.0) and np.all(finite <= 1.0 + ROUNDING)

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(), st.data())
    def test_geodesics_equal_heap_dijkstra(self, case, data):
        points, edges = case
        # a random subset of the edges often splits the graph, so inf entries count too
        kept = data.draw(st.lists(st.sampled_from(edges), unique=True), label="kept")
        for g in (NetworkGraph(points, edges), NetworkGraph(points, kept)):
            sources = range(g.node_count)
            got = [row.tobytes() for row in np.vstack(list(geodesic_blocks(g, sources)))]
            assert got == [row.tobytes() for row in oracles.dijkstra(g, sources)]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(connected_graphs(), min_size=1, max_size=6), st.data())
    def test_packed_cells_equal_heap_dijkstra(self, cases, data):
        # each (graph, sources) cell is one batch, split into chunks of any size
        cells = []
        for points, edges in cases:
            kept = data.draw(st.lists(st.sampled_from(edges), unique=True), label="kept")
            g = NetworkGraph(points, data.draw(st.sampled_from([edges, kept]), label="edges"))
            # repeats, and numpy ints of any width mixed with Python ints
            kind = st.sampled_from([int, np.int32, np.uint64])
            ids = st.lists(st.tuples(st.integers(0, g.node_count - 1), kind), max_size=20)
            cells.append((g, [as_id(v) for v, as_id in data.draw(ids, label="sources")]))
        chunk = data.draw(st.sampled_from([1, 7, 13, 40, 100]), label="chunk")
        with mock.patch.object(shortest_paths, "CHUNK_ENTRIES", chunk):
            got = [row.tobytes() for g, s in cells for b in geodesic_blocks(g, s) for row in b]
        expected = [row.tobytes() for g, s in cells for row in oracles.dijkstra(g, s)]
        assert got == expected

    @settings(max_examples=50, deadline=None)
    @given(
        connected_graphs(),
        st.floats(min_value=0.05, max_value=40.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
        st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    )
    def test_summary_is_similarity_invariant(self, case, scale, angle, shift):
        points, edges = case
        # Moving a point rounds it by about 1e-13 here, so a pair much closer
        # than SPACING may merge or lose its ratio's leading digits: such
        # layouts have no similar copy in floating point.
        gaps = np.hypot(*(np.array(points)[:, None] - np.array(points)).T)
        assume(gaps[np.triu_indices(len(points), 1)].min() >= SPACING)
        c, s = math.cos(angle), math.sin(angle)
        moved = scale * np.array(points) @ np.array([[c, s], [-s, c]]) + shift
        expected = summarize(NetworkGraph(points, edges))
        got = summarize(NetworkGraph(moved, edges))
        assert (got.pair_count, got.skipped_pairs) == (expected.pair_count, 0)
        assert abs(got.mean - expected.mean) <= 1e-9
        assert abs(got.std_dev - expected.std_dev) <= 1e-9


def std_gap_of_fold(graph, blocks):
    """``summarize``'s fold against ``oracles.two_pass_summary`` on the same rows.

    Counts and mean must be identical; returns the gap between the two
    standard deviations and the two-pass summary.
    """
    rows = list(rows_of(blocks))
    got, expected = fold_rows(graph, rows), oracles.two_pass_summary(graph, rows)
    assert (got.pair_count, got.skipped_pairs) == (expected.pair_count, expected.skipped_pairs)
    assert got.mean == expected.mean  # the same sums in the same order
    return abs(got.std_dev - expected.std_dev), expected


class TestOnePassFold:
    """``summarize`` keeps four numbers per row and still matches the two passes."""

    def test_grid_sweep_graphs(self):
        for size in range(1, 31):
            graph = generate_rectilinear(GridSpec(size))
            gap, expected = std_gap_of_fold(graph, straightness_blocks(graph, graph.orbits))
            assert gap <= 2e-15 * expected.std_dev

    def test_radial_sweep_graphs(self):
        for k in range(3, 21):
            for m in range(1, 6):
                graph = generate_radioconcentric(RadialSpec(k, m, 4))
                gap, expected = std_gap_of_fold(graph, straightness_blocks(graph, graph.orbits))
                assert gap <= 2e-15 * expected.std_dev

    @pytest.mark.parametrize("seed", range(501, 511))
    def test_street_graphs_with_every_row(self, seed):
        graph = graph_from_json(workloads.street_graph(seed, 31))
        gap, expected = std_gap_of_fold(graph, straightness_blocks(graph))
        assert gap <= 2e-15 * expected.std_dev

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(), st.data())
    def test_random_graphs(self, case, data):
        points, edges = case
        kept = data.draw(st.lists(st.sampled_from(edges), min_size=1, unique=True), label="kept")
        for graph in (NetworkGraph(points, edges), NetworkGraph(points, kept)):
            gap, expected = std_gap_of_fold(graph, straightness_blocks(graph))
            # Rounding a row's mean moves either std by ulps of the mean, not
            # of the std, which here may be 1e5 times smaller than the mean.
            assert gap <= 2e-15 * expected.mean

    def test_memory_grows_with_rows_not_pairs(self):
        # 4,901 all-node rows: kept whole they are 192 MB, as moments 0.2 MB;
        # one geodesic chunk is 8 MB
        graph = generic_copy(generate_rectilinear(GridSpec(70)))
        tracemalloc.start()
        try:
            summarize(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48e6


def dump_pairs(graph, path):
    """The summary and pair table of the ``straightness --pairs-csv`` command."""
    summary = write_pairs_csv(path, graph)
    return summary, path.read_bytes()


def assert_dump_is_the_loop_dump(graph, directory, monkeypatch=None):
    """``write_pairs_csv`` writes the bytes of the one-``%``-per-pair writer, and the
    summary of its moments is the one of each row folded on its own.  With
    ``monkeypatch`` the dump runs with one usable CPU and with two, so on one source
    range and on two (the graph needs more than one geodesic chunk)."""
    rows = oracles.loop_pairs_csv(directory / "loop.csv", rows_of(straightness_blocks(graph)))
    expected = fold_rows(graph, rows), (directory / "loop.csv").read_bytes()
    for cpus in (1, 2) if monkeypatch else (None,):
        if monkeypatch:
            monkeypatch.setattr(tables.os, "sched_getaffinity", lambda _: set(range(cpus)))
            parts = []
            monkeypatch.setattr(
                tables,
                "straightness_blocks",
                lambda graph, sources, k: parts.append(k) or straightness_blocks(graph, sources, k),
            )
        assert dump_pairs(graph, directory / "pairs.csv") == expected
        assert sorted(p.name for p in directory.iterdir()) == ["loop.csv", "pairs.csv"]
        if monkeypatch:
            assert parts == [cpus] * cpus  # each range is told how many run


def jittered_street_graph(seed, side):
    """A ``side`` x ``side`` unit lattice, each node moved by up to 0.3 on each
    axis, with about a fifth of its edges dropped (so it may fall apart)."""
    rng = np.random.default_rng(seed)
    row, column = np.divmod(np.arange(side * side), side)
    points = np.column_stack([column, row]) + rng.uniform(-0.3, 0.3, (side * side, 2))
    ids = np.arange(side * side).reshape(side, side)
    lattice = np.vstack([
        np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
        np.column_stack([ids[:-1].ravel(), ids[1:].ravel()]),
    ])
    return NetworkGraph(points.tolist(), lattice[rng.random(len(lattice)) < 0.8].tolist())


SMALL_GRAPHS = {
    "unit square": lambda: generate_rectilinear(GridSpec(1)),
    "square wheel": lambda: generate_radioconcentric(RadialSpec(4, 1)),
    "two-ring triangle wheel": lambda: generate_radioconcentric(RadialSpec(3, 2)),
    "subdivided wheel": lambda: generate_radioconcentric(RadialSpec(3, 1, 2)),
    "3x3 grid": lambda: generate_rectilinear(GridSpec(2)),
    "two parts": lambda: NetworkGraph(
        [(0.0, 0.0), (1.0, 0.0), (9.0, 9.0), (9.0, 10.5), (7.0, 11.0)],
        [(0, 1), (2, 3), (3, 4), (2, 4)],
    ),
}


class TestPairDump:
    @pytest.mark.parametrize("name", SMALL_GRAPHS)
    def test_small_graphs_match_all_pairs_and_oracle(self, tmp_path, name):
        g = SMALL_GRAPHS[name]()
        assert g.node_count <= 10
        _, data = dump_pairs(g, tmp_path / "pairs.csv")
        lines = data.decode().splitlines()[1:]
        distances = all_pairs(g)
        expected = []
        for u in range(g.node_count):
            for v in range(u + 1, g.node_count):
                m = pair_straightness(g, distances, u, v)
                expected.append(
                    f"{u},{v},{format_angle(m.d_spatial)},"
                    f"{format_angle(m.d_geodesic)},{format_ratio(m.straightness)}"
                )
        assert lines == expected
        for line in lines:
            u, v, _, d_geodesic, straightness = line.split(",")
            u, v = int(u), int(v)
            oracle = oracles.enumerated_geodesic(g, u, v)
            assert float(d_geodesic) == pytest.approx(oracle, rel=1e-11)
            if math.isfinite(oracle):
                expected_ratio = oracles.enumerated_pair_straightness(g, u, v)
                assert float(straightness) == pytest.approx(expected_ratio, rel=1e-8)
            else:
                assert straightness == "nan"
        assert_dump_is_the_loop_dump(g, tmp_path)

    def test_the_call_writes_the_table_and_returns_its_summary(self, tmp_path):
        g = generate_rectilinear(GridSpec(2))
        path = tmp_path / "pairs.csv"
        summary = write_pairs_csv(path, g)  # nothing of the result is read
        assert sorted(tmp_path.iterdir()) == [path]
        assert path.read_bytes().count(b"\n") == 1 + 9 * 8 // 2
        assert summary == summarize(generic_copy(g)) and summary.pair_count == 36

    @pytest.mark.parametrize("size", [1, 4, 7])
    def test_symmetric_grid_dumps_like_its_json_round_trip(self, tmp_path, size):
        g = generate_rectilinear(GridSpec(size))
        assert len(g.orbits) < g.node_count
        summary, data = dump_pairs(g, tmp_path / "grid.csv")
        assert (summary, data) == dump_pairs(generic_copy(g), tmp_path / "copy.csv")
        assert data.count(b"\n") == 1 + g.node_count * (g.node_count - 1) // 2

    def test_symmetric_grid_dump_runs_every_source(self, monkeypatch, tmp_path):
        g = generate_rectilinear(GridSpec(4))
        calls = spy_searches(monkeypatch)
        dump_pairs(g, tmp_path / "pairs.csv")
        assert calls == [list(range(25))]

    def test_dump_summary_is_the_generic_summary(self, tmp_path):
        g = graph_from_json(graph_to_json(generate_radioconcentric(RadialSpec(5, 2, 3))))
        summary, _ = dump_pairs(g, tmp_path / "pairs.csv")
        assert summary == summarize(g)

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs())
    def test_random_graphs_dump_like_the_loop_writer(self, tmp_path_factory, case):
        assert_dump_is_the_loop_dump(NetworkGraph(*case), tmp_path_factory.mktemp("dump"))

    def test_street_graph_dumps_like_the_loop_writer(self, monkeypatch, tmp_path):
        assert_dump_is_the_loop_dump(jittered_street_graph(1, 31), tmp_path, monkeypatch)

    @pytest.mark.parametrize("factor", [1e-9, 1e12])
    def test_scaled_graphs_dump_like_the_loop_writer(self, monkeypatch, tmp_path, factor):
        # 1e-9: every distance in exponent notation; 1e12: exponents and
        # 12-digit integer parts, all written by the writer's fallback
        monkeypatch.setattr(shortest_paths, "CHUNK_ENTRIES", 7 * 64)  # 10 chunks of the 64 sources
        graph = scaled_copy(jittered_street_graph(2, 8), factor)
        assert_dump_is_the_loop_dump(graph, tmp_path, monkeypatch)

    @pytest.mark.parametrize("chunk", [301, 300, 299, 1])
    def test_dumps_across_chunks(self, monkeypatch, tmp_path, chunk):
        graph = jittered_street_graph(3, 5)
        assert graph.node_count * (graph.node_count - 1) // 2 == 300  # pairs
        monkeypatch.setattr(tables, "CHUNK_PAIRS", chunk)
        monkeypatch.setattr(shortest_paths, "CHUNK_ENTRIES", 4 * 25)  # 7 chunks of the 25 sources
        assert_dump_is_the_loop_dump(graph, tmp_path, monkeypatch)

    def test_two_ranges_cut_inside_a_geodesic_chunk(self, monkeypatch, tmp_path):
        graph = jittered_street_graph(5, 9)
        monkeypatch.setattr(shortest_paths, "CHUNK_ENTRIES", 7 * 81)  # 7 sources per chunk
        _, cut, end = tables._cuts(81, graph.edge_count, 2)
        assert end == 81 and cut % 7  # range 1 starts inside the one-range layout's chunk
        assert_dump_is_the_loop_dump(graph, tmp_path, monkeypatch)

    def test_more_ranges_than_cores(self, monkeypatch, tmp_path):
        # four ranges, three of them forked, on two cores: the ranges still append
        # their lines and moments in source order
        graph = jittered_street_graph(7, 12)
        monkeypatch.setattr(shortest_paths, "CHUNK_ENTRIES", 3 * 144)
        monkeypatch.setattr(tables, "MAX_RANGES", 4)
        monkeypatch.setattr(tables.os, "sched_getaffinity", lambda _: {0, 1, 2, 3})
        starts = []

        def spy(graph, sources, k):
            starts.append(sources[0][0])
            return straightness_blocks(graph, sources, k)

        monkeypatch.setattr(tables, "straightness_blocks", spy)
        assert_dump_is_the_loop_dump(graph, tmp_path)
        assert sorted(starts) == tables._cuts(144, graph.edge_count, 4)[:-1]  # four ranges

    def test_isolated_nodes_dump_like_the_loop_writer(self, monkeypatch, tmp_path):
        # an isolated node's row measures no pair (kept count 0), the others meet inf
        street = jittered_street_graph(6, 7)
        points = [(-5.0, -5.0), *street.positions.tolist(), (20.0, 3.0), (3.5, 30.0)]
        graph = NetworkGraph(points, (street.edges + 1).tolist())
        monkeypatch.setattr(shortest_paths, "CHUNK_ENTRIES", 5 * 52)
        assert {0, 50, 51} <= {v for v, size in graph.components() if size == 1}
        assert_dump_is_the_loop_dump(graph, tmp_path, monkeypatch)

    def test_dump_memory_stays_flat(self, monkeypatch, tmp_path):
        # 461,280 pairs.  Kept whole, the rows are 22 MB (3 float64 arrays of 961
        # each per source) and the table text 16 MB; each range writes CHUNK_PAIRS =
        # 2**13 pairs at a time, about 0.7 MB of padded text, and relaxes half of a
        # 1 MB geodesic chunk.  The forked range's process traces its own peak, from
        # the fork on.
        graph = generic_copy(generate_rectilinear(GridSpec(30)))
        monkeypatch.setattr(tables.os, "sched_getaffinity", lambda _: set(range(tables.MAX_RANGES)))
        peaks = tmp_path / "peaks.txt"

        def traced(graph, sources, k):
            blocks = straightness_blocks(graph, sources, k)

            def stream():
                yield from blocks
                with peaks.open("a") as fh:
                    fh.write(f"{os.getpid()} {tracemalloc.get_traced_memory()[1]}\n")

            return stream()

        monkeypatch.setattr(tables, "straightness_blocks", traced)
        tracemalloc.start()
        try:
            write_pairs_csv(tmp_path / "pairs.csv", graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ranges = dict(line.split() for line in peaks.read_text().splitlines())
        assert len(ranges) == tables.MAX_RANGES and str(os.getpid()) in ranges
        assert max(peak, *map(int, ranges.values())) < 16e6

    def test_strict_failure_never_opens_the_table(self, tmp_path):
        g = NetworkGraph([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)], [(0, 1)])
        path = tmp_path / "pairs.csv"
        with pytest.raises(ValueError, match="^2 pair"):
            write_pairs_csv(path, g, strict=True)
        assert not path.exists() and not list(tmp_path.iterdir())


class NotPickled(ValueError):
    """An exception that pickles and then fails to unpickle: its class takes two
    arguments, its pickle holds one."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def assert_no_child_process():
    with pytest.raises(ChildProcessError):  # nothing left to reap, not even a zombie
        os.waitpid(-1, os.WNOHANG)


class TestProcesses:
    """Only a pair dump of more than one geodesic chunk forks, one process per later
    source range, and it reaps every one within the call.  Nothing starts a thread."""

    @pytest.fixture
    def started(self, monkeypatch):
        forks, threads = [], []
        fork, start = os.fork, threading.Thread.start
        monkeypatch.setattr(os, "fork", lambda: forks.append(pid := fork()) or pid)
        monkeypatch.setattr(threading.Thread, "start", lambda t: threads.append(t) or start(t))
        monkeypatch.setattr(tables.os, "sched_getaffinity", lambda _: {0, 1})
        return forks, threads

    def test_sweeps_start_none(self, started):
        sweep_rectilinear(range(1, 31))  # the GridSpec(30) host: 130,696 labels, one chunk
        sweep_radial(range(3, 21), range(1, 6))
        assert started == ([], [])

    @pytest.mark.parametrize("size, children", [(18, 0), (19, 1)])
    def test_only_dumps_past_one_chunk_fork(self, started, tmp_path, size, children):
        # 361**2 = 130,321 labels fit one chunk of 2**17; 400**2 = 160,000 do not
        forks, threads = started
        graph = generic_copy(generate_rectilinear(GridSpec(size)))
        dump_pairs(graph, tmp_path / "pairs.csv")
        assert len(forks) == children and threads == []
        assert_no_child_process()

    def test_another_thread_keeps_the_dump_in_one_process(self, started, tmp_path):
        # a child would inherit the locks of a running thread, held or not
        forks, _ = started
        graph = generic_copy(generate_rectilinear(GridSpec(19)))
        forked = dump_pairs(graph, tmp_path / "forked.csv")
        assert len(forks) == 1
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            alone = dump_pairs(graph, tmp_path / "alone.csv")
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive() and alone == forked and len(forks) == 1
        assert_no_child_process()

    def test_other_platforms_dump_in_one_process(self, started, monkeypatch, tmp_path):
        # macOS system libraries are not fork-safe, and Windows cannot fork
        forks, _ = started
        graph = generic_copy(generate_rectilinear(GridSpec(19)))
        forked = dump_pairs(graph, tmp_path / "forked.csv")
        assert len(forks) == 1
        monkeypatch.setattr(sys, "platform", "darwin")
        assert dump_pairs(graph, tmp_path / "alone.csv") == forked and len(forks) == 1
        assert_no_child_process()

    @pytest.mark.parametrize(
        "error, expected",
        [
            (lambda: NotPickled("made-up", "refusal"), "^NotPickled: made-up: refusal$"),
            (lambda: type("Local", (ValueError,), {})("refusal"), "^Local: refusal$"),
        ],
        ids=["fails to unpickle", "fails to pickle"],
    )
    def test_child_error_keeps_its_type_and_message(
        self, started, monkeypatch, tmp_path, error, expected
    ):
        # sent as the nearest built-in type, here ValueError, named in the message
        graph = generic_copy(generate_rectilinear(GridSpec(19)))

        def kernel(graph, sources, k):
            blocks = straightness_blocks(graph, sources, k)
            if sources[0][0] == 0:
                return blocks

            def broken():
                yield next(blocks)
                raise error()

            return broken()

        monkeypatch.setattr(tables, "straightness_blocks", kernel)
        with pytest.raises(ValueError, match=expected) as raised:
            dump_pairs(graph, tmp_path / "pairs.csv")
        assert type(raised.value) is ValueError and len(started[0]) == 1
        assert not list(tmp_path.iterdir())
        assert_no_child_process()

    def test_failing_first_range_kills_the_others(self, started, monkeypatch, tmp_path):
        # the forked range would block for a minute; the dump ends at once, and the
        # part file is removed only after the child is reaped
        graph = generic_copy(generate_rectilinear(GridSpec(19)))
        unlink, removed = Path.unlink, []

        def kernel(graph, sources, k):
            blocks = straightness_blocks(graph, sources, k)

            def broken():
                yield next(blocks)
                if sources[0][0] == 0:
                    raise OSError(28, "No space left")
                time.sleep(60)

            return broken()

        def checked_unlink(path, *args):
            assert_no_child_process()
            removed.append(path.name)
            return unlink(path, *args)

        monkeypatch.setattr(tables, "straightness_blocks", kernel)
        monkeypatch.setattr(Path, "unlink", checked_unlink)
        start = time.monotonic()
        with pytest.raises(OSError, match="No space left"):
            dump_pairs(graph, tmp_path / "pairs.csv")
        assert time.monotonic() - start < 30 and len(started[0]) == 1
        assert len(removed) == 1 and removed[0].endswith(".part")
        assert not list(tmp_path.iterdir())
        assert_no_child_process()


class TestBlockMoments:
    """The block fold gives every row the moments of the row summed alone."""

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(), st.data())
    def test_random_graphs(self, case, data):
        points, edges = case
        # a random subset of the edges often splits the graph, or leaves no edge
        kept = data.draw(st.lists(st.sampled_from(edges), unique=True), label="kept")
        graph = NetworkGraph(points, kept)
        weights = st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points))
        sources = list(enumerate(data.draw(weights, label="weights")))
        entries = data.draw(st.integers(1, 2 * len(points) ** 2), label="entries")
        with mock.patch.object(metrics, "BLOCK_ENTRIES", entries):
            blocks = list(straightness_blocks(graph, sources))
        for _, weight, _, _, ratio in blocks:
            expected = [oracles.row_moments(w, r) for w, r in zip(weight.tolist(), ratio)]
            assert block_moments(weight, ratio) == expected

    @pytest.mark.parametrize("mixed", [False, True], ids=["one-count", "mixed-counts"])
    def test_the_block_is_left_as_it_was(self, mixed):
        # the fold centres each row in place, on a copy: ratio[kept] copies by its mask
        rng = np.random.default_rng(7)
        ratio = rng.random((6, 50))
        ratio[:, ::7] = math.nan
        if mixed:  # rows of different measured counts, and a row of none
            ratio[1, 1::3] = ratio[3, 2::5] = ratio[5] = math.nan
        before = ratio.tobytes()
        block_moments(np.arange(1, 7), ratio)
        assert ratio.tobytes() == before

    @pytest.mark.parametrize("length", [1, 2, 8, 9, 129, 8191, 8192, 8193, 20_000])
    def test_long_rows(self, length):
        # numpy sums in pairwise blocks of 8 and 128 and buffers of 8,192: a row
        # reduced inside a 2-D group still meets each split as it does alone
        rng = np.random.default_rng(length)
        ratio = rng.random((6, length))
        ratio[:3, rng.random(length) < 0.2] = math.nan  # three rows of one kept count
        ratio[4] = math.nan  # kept count 0
        weights = np.arange(1, 7)
        expected = [oracles.row_moments(w, r) for w, r in zip(weights.tolist(), ratio)]
        assert block_moments(weights, ratio) == expected


class TestCenterCurveCheck:
    def test_three_four_five_node(self):
        spec = GridSpec(4)
        g = generate_rectilinear(spec)
        row_based = math.hypot(3.0, 4.0) / 7.0
        assert row_based == pytest.approx(5.0 / 7.0, abs=1e-15)
        # the whole-grid check covers node (3, 4) among the rest
        assert center_curve_check(g) <= 1e-9

    @pytest.mark.parametrize("size", range(1, 21))
    def test_measured_equals_closed_form_for_all_sizes(self, size):
        graph = generate_rectilinear(GridSpec(size))
        assert center_curve_check(graph) <= 1e-9


class TestCenterRadialCheck:
    def test_square_wheel_midpoint(self):
        spec = RadialSpec(4, 1, 2)
        g = generate_radioconcentric(spec)
        formula_dev, ring_spread = center_radial_check(g, spec)
        assert formula_dev <= 1e-9
        assert ring_spread <= 1e-9
        # the chord midpoint sits on the bisector: S = 1 / (1 + sqrt(2))
        distances = all_pairs(g)
        mid = side_node_id(spec, 1, 0, 1)
        measured = math.hypot(*g.positions[mid]) / distances[0, mid]
        assert measured == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)), abs=1e-12)

    @pytest.mark.parametrize("k", [4, 8, 16])
    @pytest.mark.parametrize("m", [1, 3])
    def test_formula_and_homothety(self, k, m):
        spec = RadialSpec(k, m, 4)
        g = generate_radioconcentric(spec)
        formula_dev, ring_spread = center_radial_check(g, spec)
        assert formula_dev <= 1e-9
        assert ring_spread <= 1e-9

    def test_unsubdivided_graph_rejected(self):
        spec = RadialSpec(4, 1)
        g = generate_radioconcentric(spec)
        with pytest.raises(ValueError, match="subdivision"):
            center_radial_check(g, spec)

    @pytest.mark.parametrize("spec", [RadialSpec(4, 2, 2), RadialSpec(5, 1, 2)])
    def test_graph_of_another_spec_rejected(self, spec):
        g = generate_radioconcentric(RadialSpec(4, 1, 2))
        with pytest.raises(ValueError, match="graph has 9 nodes"):
            center_radial_check(g, spec)

    def test_detects_arc_shaped_sides(self):
        """Nodes placed on the circle instead of the chord must be flagged."""
        spec = RadialSpec(6, 1, 4)
        k, q = 6, 4
        theta = 2 * math.pi / k
        nodes = [(0.0, 0.0)]
        for i in range(k):
            nodes.append((math.cos(i * theta), math.sin(i * theta)))
        for side in range(k):
            for step in range(1, q):
                a = (side + step / q) * theta
                nodes.append((math.cos(a), math.sin(a)))
        edges = [(0, 1 + i) for i in range(k)]
        base = 1 + k
        for side in range(k):
            chain = [1 + side]
            chain += [base + side * (q - 1) + (s - 1) for s in range(1, q)]
            chain.append(1 + (side + 1) % k)
            edges.extend(zip(chain, chain[1:]))
        arc_graph = NetworkGraph(nodes, edges)
        formula_dev, _ = center_radial_check(arc_graph, spec)
        assert formula_dev > 1e-3


class TestCenterChecksMatchLoopReference:
    """The row-kernel center checks against the per-node loops they replace."""

    @pytest.mark.parametrize("size", range(1, 41))
    def test_grid(self, size):
        graph = generate_rectilinear(GridSpec(size))
        reference = oracles.loop_center_curve_check(graph)
        assert center_curve_check(graph) == pytest.approx(reference, abs=1e-14)

    @pytest.mark.parametrize("k", range(3, 25))
    def test_wheels(self, k):
        for m in range(1, 7):
            for q in range(2, 6):
                spec = RadialSpec(k, m, q)
                graph = generate_radioconcentric(spec)
                reference = oracles.loop_center_radial_check(graph, spec)
                assert center_radial_check(graph, spec) == pytest.approx(
                    reference, abs=1e-14
                )


def test_grid_node_helper_agrees_with_check():
    # corner row of a 5-grid: measured straightness along the axis is exactly 1
    spec = GridSpec(5)
    g = generate_rectilinear(spec)
    distances = all_pairs(g)
    for i in range(1, 6):
        node = grid_node_id(spec, i, 0)
        m = pair_straightness(g, distances, 0, node)
        assert m.straightness == 1.0
