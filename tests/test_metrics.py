import math
import sys
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
    geodesics,
    metrics,
    shortest_paths,
    straightness_rows,
    summarize,
)
from straightnet.model import graph_from_json, graph_to_json
from straightnet.shortest_paths import cell_geodesics
from straightnet.tables import read_table, write_pairs_csv
from straightnet.validation import center_curve_check, center_radial_check

import oracles
from oracles import (
    all_pairs,
    format_angle,
    format_ratio,
    grid_node_id,
    pair_straightness,
    ring_node_id,
    side_node_id,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (the benchmark's seeded street graphs)

SQRT7_OVER_1_PLUS_SQRT3 = math.sqrt(7.0) / (1.0 + math.sqrt(3.0))  # 0.9684121919...


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
        for rows in (iter([]), straightness_rows(g, [(2, 3)])):  # node 2 is isolated
            with pytest.raises(ValueError, match="^no measurable pair in graph$"):
                summarize(g, rows=rows)

    def test_sources_may_be_a_one_shot_iterator(self):
        g = generate_radioconcentric(RadialSpec(5, 2, 3))
        rows = list(straightness_rows(g, ((v, 1) for v in range(g.node_count))))
        assert [source for source, *_ in rows] == list(range(g.node_count))
        assert summarize(g, rows=iter(rows)) == summarize(g, rows=straightness_rows(g))


class TestWorkBudget:
    def test_rows_are_refused_when_called(self, monkeypatch):
        g = generate_rectilinear(GridSpec(2))  # 9 nodes, 12 edges
        monkeypatch.setattr(metrics, "MAX_WORK", 9 * 21 - 1)
        monkeypatch.setattr(metrics, "cell_geodesics", None)  # any search would fail
        with pytest.raises(ValueError, match=r"^189 units of geodesic work, more than MAX_WORK=188$"):
            straightness_rows(g)  # the iterator is never advanced
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
    """Record the sources of each cell that goes through ``metrics.cell_geodesics``."""
    calls = []

    def counting(cells):
        for graph, sources in cells:
            calls.append(list(sources))
            yield graph, calls[-1]

    monkeypatch.setattr(metrics, "cell_geodesics", lambda cells: cell_geodesics(counting(cells)))
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
        summarize(g, rows=write_pairs_csv(path, straightness_rows(g)))
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
        for _, _, _, _, ratio in straightness_rows(g):
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
            got = [row.tobytes() for row in geodesics(g, sources)]
            assert got == [row.tobytes() for row in oracles.dijkstra(g, sources)]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(connected_graphs(), min_size=1, max_size=6), st.data())
    def test_packed_cells_equal_heap_dijkstra(self, cases, data):
        cells = []
        for points, edges in cases:
            kept = data.draw(st.lists(st.sampled_from(edges), unique=True), label="kept")
            g = NetworkGraph(points, data.draw(st.sampled_from([edges, kept]), label="edges"))
            # repeats, and numpy ints of any width mixed with Python ints
            kind = st.sampled_from([int, np.int32, np.uint64])
            ids = st.lists(st.tuples(st.integers(0, g.node_count - 1), kind), max_size=20)
            cells.append((g, [as_id(v) for v, as_id in data.draw(ids, label="sources")]))
        limits = st.sampled_from([1, 7, 40, shortest_paths.PACK_ENTRIES])
        with mock.patch.multiple(
            shortest_paths,
            PACK_ENTRIES=data.draw(limits, label="pack"),
            CHUNK_ENTRIES=data.draw(st.sampled_from([1, 13, 100]), label="chunk"),
        ):
            got = [row.tobytes() for row in cell_geodesics(cells)]
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


def std_gap_of_fold(graph, rows):
    """``summarize``'s fold against ``oracles.two_pass_summary`` on the same rows.

    Counts and mean must be identical; returns the gap between the two
    standard deviations and the two-pass summary.
    """
    rows = list(rows)
    got, expected = summarize(graph, rows=rows), oracles.two_pass_summary(graph, rows)
    assert (got.pair_count, got.skipped_pairs) == (expected.pair_count, expected.skipped_pairs)
    assert got.mean == expected.mean  # the same sums in the same order
    return abs(got.std_dev - expected.std_dev), expected


class TestOnePassFold:
    """``summarize`` keeps four numbers per row and still matches the two passes."""

    def test_grid_sweep_graphs(self):
        for size in range(1, 31):
            graph = generate_rectilinear(GridSpec(size))
            gap, expected = std_gap_of_fold(graph, straightness_rows(graph, graph.orbits))
            assert gap <= 2e-15 * expected.std_dev

    def test_radial_sweep_graphs(self):
        for k in range(3, 21):
            for m in range(1, 6):
                graph = generate_radioconcentric(RadialSpec(k, m, 4))
                gap, expected = std_gap_of_fold(graph, straightness_rows(graph, graph.orbits))
                assert gap <= 2e-15 * expected.std_dev

    @pytest.mark.parametrize("seed", range(501, 511))
    def test_street_graphs_with_every_row(self, seed):
        graph = graph_from_json(workloads.street_graph(seed, 31))
        gap, expected = std_gap_of_fold(graph, straightness_rows(graph))
        assert gap <= 2e-15 * expected.std_dev

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs(), st.data())
    def test_random_graphs(self, case, data):
        points, edges = case
        kept = data.draw(st.lists(st.sampled_from(edges), min_size=1, unique=True), label="kept")
        for graph in (NetworkGraph(points, edges), NetworkGraph(points, kept)):
            gap, expected = std_gap_of_fold(graph, straightness_rows(graph))
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
    """The pair table the ``straightness --pairs-csv`` command writes."""
    summary = summarize(graph, rows=write_pairs_csv(path, straightness_rows(graph)))
    return summary, path.read_bytes()


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

    def test_strict_failure_never_opens_the_table(self, tmp_path):
        g = NetworkGraph([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)], [(0, 1)])
        path = tmp_path / "pairs.csv"
        with pytest.raises(ValueError, match="^2 pair"):
            summarize(g, strict=True, rows=write_pairs_csv(path, straightness_rows(g)))
        assert not path.exists()


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
