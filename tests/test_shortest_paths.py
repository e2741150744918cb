import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straightnet import (
    GridSpec,
    NetworkGraph,
    RadialSpec,
    generate_radioconcentric,
    generate_rectilinear,
    shortest_paths,
)
from straightnet.metrics import straightness_blocks
from straightnet.shortest_paths import geodesic_blocks

import oracles
from oracles import all_pairs, grid_node_id, ring_node_id


def orbit_sources(graph):
    return [source for source, _ in graph.orbits]


def assert_same_rows(graph, sources):
    got = [row.tobytes() for row in np.vstack(list(geodesic_blocks(graph, sources)))]
    assert got == [row.tobytes() for row in oracles.dijkstra(graph, sources)]


class TestDijkstra:
    """Hand-checked distances."""

    def test_unit_square_from_corner(self):
        g = generate_rectilinear(GridSpec(1))
        assert next(geodesic_blocks(g, [0])).tolist() == [[0.0, 1.0, 1.0, 2.0]]

    def test_grid_distances_are_manhattan(self):
        spec = GridSpec(4)
        g = generate_rectilinear(spec)
        (row,) = next(geodesic_blocks(g, [0]))
        assert row[grid_node_id(spec, 3, 4)] == 7.0
        for i in range(5):
            for j in range(5):
                assert row[grid_node_id(spec, i, j)] == float(i + j)

    def test_wheel_center_row(self):
        g = generate_radioconcentric(RadialSpec(4, 1))
        assert next(geodesic_blocks(g, [0])).tolist() == [[0.0, 1.0, 1.0, 1.0, 1.0]]

    def test_opposite_wheel_nodes_via_center(self):
        g = generate_radioconcentric(RadialSpec(4, 1))
        distances = all_pairs(g)
        assert distances[1, 3] == 2.0

    def test_invalid_source(self):
        g = generate_rectilinear(GridSpec(1))
        with pytest.raises(ValueError):
            next(geodesic_blocks(g, [4]))
        with pytest.raises(ValueError):
            next(geodesic_blocks(g, [-1]))

    def test_unreachable_marked_infinite(self):
        g = NetworkGraph([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)], [(0, 1)])
        (row,) = next(geodesic_blocks(g, [0]))
        assert row[1] == 1.0
        assert math.isinf(row[2])

    def test_candidate_overflow_is_silent(self):
        # one edge near a float's range: the way back from node 1 sums past it
        g = NetworkGraph([(1e308, 0.0), (0.0, 1.0)], [(0, 1)])
        rows = np.vstack(list(geodesic_blocks(g, [0, 1])))
        assert rows.tolist() == [[0.0, 1e308], [1e308, 0.0]]


class TestBatch:
    """One call runs a whole batch of sources over arc arrays built once."""

    GRAPH = NetworkGraph(
        [(0.0, 0.0), (2.0, 0.0), (2.0, 1.5), (0.3, 0.4), (1.1, 2.2)],
        [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4), (0, 4)],
    )

    def test_rows_come_in_source_order_with_repeats(self):
        rows = np.vstack(list(geodesic_blocks(self.GRAPH, [2, 0, 2])))
        expected = all_pairs(self.GRAPH)
        assert len(rows) == 3
        for row, source in zip(rows, [2, 0, 2]):
            assert row.tobytes() == expected[source].tobytes()

    def test_empty_batch_yields_nothing(self):
        assert list(geodesic_blocks(self.GRAPH, [])) == []

    def test_bad_id_raises_before_any_row(self):
        rows = geodesic_blocks(self.GRAPH, [0, 99])
        with pytest.raises(ValueError, match=r"^source id 99 outside 0\.\.4$"):
            next(rows)

    @pytest.mark.parametrize("bad", [1.5, True, np.True_, 2.0, "1", None], ids=repr)
    def test_non_integer_id_raises_before_any_row(self, bad):
        rows = geodesic_blocks(self.GRAPH, [0, bad])
        with pytest.raises(ValueError, match=rf"^source id {bad!r} is not an integer$"):
            next(rows)

    def test_numpy_integer_ids_are_ids(self):
        rows = np.vstack(list(geodesic_blocks(self.GRAPH, np.array([2, 0], dtype=np.int32))))
        expected = all_pairs(self.GRAPH)
        assert [r.tobytes() for r in rows] == [expected[2].tobytes(), expected[0].tobytes()]

    def test_batch_spanning_several_chunks(self, monkeypatch):
        # three rows per chunk: ten sources, repeats included, take four chunks
        graph = generate_radioconcentric(RadialSpec(7, 3, 3))
        monkeypatch.setattr(shortest_paths, "CHUNK_ENTRIES", 3 * graph.node_count + 2)
        sources = [5, 0, 17, 5, 63, 1, 2, 40, 0, 9]
        blocks = list(geodesic_blocks(graph, sources))  # held: later chunks must not overwrite them
        assert [len(block) for block in blocks] == [3, 3, 3, 1]
        rows = np.vstack(blocks)
        expected = oracles.dijkstra(graph, sources)
        assert [r.tobytes() for r in rows] == [r.tobytes() for r in expected]

    def test_large_batch_runs_in_bounded_memory(self):
        # the 5,151 orbit rows of this grid at once would need 1.7 GB; one
        # chunk of labels is 1 MB (3 rows), the arc arrays 3 MB; 5.5 MB measured
        graph = generate_rectilinear(GridSpec(200))
        sources = orbit_sources(graph)
        assert len(sources) == 5151
        tracemalloc.start()
        try:
            blocks = geodesic_blocks(graph, sources)
            next(blocks), next(blocks)  # the first two chunks
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestAgainstHeapDijkstra:
    """The relaxation's rows equal the reference heap Dijkstra's bit for bit."""

    def test_grid_sweep_graphs(self):
        for size in range(1, 31):
            graph = generate_rectilinear(GridSpec(size))
            assert_same_rows(graph, orbit_sources(graph))

    def test_radial_sweep_graphs(self):
        for k in range(3, 21):
            for m in range(1, 6):
                graph = generate_radioconcentric(RadialSpec(k, m, 4))
                assert_same_rows(graph, orbit_sources(graph))


def assert_exact_geodesics(graph, expected):
    got = np.vstack([d_geodesic for _, _, _, d_geodesic, _ in straightness_blocks(graph)])
    assert np.abs(got - expected).max() <= 1e-12


class TestExactGeodesics:
    """Every pair of the sweep hosts has the geodesic its geometry gives.

    Every cell of the default sweeps and of the 1..30 grid sweep is an
    isometric subgraph of one of these hosts.
    """

    @pytest.mark.parametrize("k", range(3, 21))
    def test_default_radial_hosts(self, k):
        graph = generate_radioconcentric(RadialSpec(k, 5, 4))
        assert_exact_geodesics(graph, oracles.exact_wheel_distances(k, 5, 4))

    @pytest.mark.parametrize("size", [29, 30])
    def test_grid_hosts(self, size):
        graph = generate_rectilinear(GridSpec(size))
        assert_exact_geodesics(graph, oracles.exact_grid_distances(size))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 12), st.integers(1, 4), st.integers(1, 4), st.integers(1, 20))
    def test_any_wheel_and_grid(self, k, m, q, size):
        wheel = generate_radioconcentric(RadialSpec(k, m, q))
        assert_exact_geodesics(wheel, oracles.exact_wheel_distances(k, m, q))
        grid = generate_rectilinear(GridSpec(size))
        assert_exact_geodesics(grid, oracles.exact_grid_distances(size))


class TestAllPairs:
    def test_single_node(self):
        g = NetworkGraph([(0.0, 0.0)], [])
        assert all_pairs(g).tolist() == [[0.0]]

    def test_unit_square_matrix_symmetric(self):
        g = generate_rectilinear(GridSpec(1))
        distances = all_pairs(g)
        assert distances.shape == (4, 4)
        assert np.array_equal(distances, distances.T)

    def test_chord_beats_center_detour(self):
        # outer node one step down the spoke, then along the inner chord
        spec = RadialSpec(3, 2)
        g = generate_radioconcentric(spec)
        distances = all_pairs(g)
        u = ring_node_id(spec, 2, 0)
        v = ring_node_id(spec, 1, 1)
        assert distances[u, v] == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)

    @pytest.mark.parametrize(
        "graph",
        [
            generate_rectilinear(GridSpec(1)),
            generate_radioconcentric(RadialSpec(4, 1)),
            generate_radioconcentric(RadialSpec(3, 2)),
            NetworkGraph(
                [(0.0, 0.0), (2.0, 0.0), (2.0, 1.5), (0.3, 0.4), (1.1, 2.2)],
                [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4), (0, 4)],
            ),
        ],
        ids=["grid1", "wheel4", "wheel3x2", "irregular"],
    )
    def test_matches_exhaustive_enumeration(self, graph):
        distances = all_pairs(graph)
        expected = oracles.enumerated_distance_matrix(graph)
        assert np.allclose(distances, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "graph",
        [
            generate_rectilinear(GridSpec(3)),
            generate_radioconcentric(RadialSpec(5, 2, 2)),
        ],
        ids=["grid3", "wheel5x2q2"],
    )
    def test_never_shorter_than_crow_flies(self, graph):
        distances = all_pairs(graph)
        for u in range(graph.node_count):
            for v in range(graph.node_count):
                d_s = oracles.euclidean_distance(graph.positions[u], graph.positions[v])
                assert distances[u, v] >= d_s - 1e-12

    def test_relaxation_inequality_on_every_edge(self):
        g = generate_radioconcentric(RadialSpec(6, 2, 2))
        distances = all_pairs(g)
        for (u, v), w in zip(g.edges, g.edge_lengths):
            assert np.all(np.abs(distances[u] - distances[v]) <= w + 1e-12)
