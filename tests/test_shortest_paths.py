import math
import tracemalloc

import numpy as np
import pytest

from straightnet import (
    GridSpec,
    NetworkGraph,
    RadialSpec,
    generate_radioconcentric,
    generate_rectilinear,
    geodesics,
    shortest_paths,
)
from straightnet.shortest_paths import cell_geodesics

import oracles
from oracles import all_pairs, grid_node_id, ring_node_id


def orbit_sources(graph):
    return [source for source, _ in graph.orbits]


def assert_same_rows(graph, sources):
    got = [row.tobytes() for row in geodesics(graph, sources)]
    assert got == [row.tobytes() for row in oracles.dijkstra(graph, sources)]


class TestDijkstra:
    """Hand-checked distances."""

    def test_unit_square_from_corner(self):
        g = generate_rectilinear(GridSpec(1))
        assert next(geodesics(g, [0])).tolist() == [0.0, 1.0, 1.0, 2.0]

    def test_grid_distances_are_manhattan(self):
        spec = GridSpec(4)
        g = generate_rectilinear(spec)
        row = next(geodesics(g, [0]))
        assert row[grid_node_id(spec, 3, 4)] == 7.0
        for i in range(5):
            for j in range(5):
                assert row[grid_node_id(spec, i, j)] == float(i + j)

    def test_wheel_center_row(self):
        g = generate_radioconcentric(RadialSpec(4, 1))
        assert next(geodesics(g, [0])).tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]

    def test_opposite_wheel_nodes_via_center(self):
        g = generate_radioconcentric(RadialSpec(4, 1))
        distances = all_pairs(g)
        assert distances[1, 3] == 2.0

    def test_invalid_source(self):
        g = generate_rectilinear(GridSpec(1))
        with pytest.raises(ValueError):
            next(geodesics(g, [4]))
        with pytest.raises(ValueError):
            next(geodesics(g, [-1]))

    def test_unreachable_marked_infinite(self):
        g = NetworkGraph([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)], [(0, 1)])
        row = next(geodesics(g, [0]))
        assert row[1] == 1.0
        assert math.isinf(row[2])

    def test_candidate_overflow_is_silent(self):
        # one edge near a float's range: the way back from node 1 sums past it
        g = NetworkGraph([(1e308, 0.0), (0.0, 1.0)], [(0, 1)])
        rows = list(geodesics(g, [0, 1]))
        assert [row.tolist() for row in rows] == [[0.0, 1e308], [1e308, 0.0]]


class TestBatch:
    """One call runs a whole batch of sources over arc arrays built once."""

    GRAPH = NetworkGraph(
        [(0.0, 0.0), (2.0, 0.0), (2.0, 1.5), (0.3, 0.4), (1.1, 2.2)],
        [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4), (0, 4)],
    )

    def test_rows_come_in_source_order_with_repeats(self):
        rows = list(geodesics(self.GRAPH, [2, 0, 2]))
        expected = all_pairs(self.GRAPH)
        assert len(rows) == 3
        for row, source in zip(rows, [2, 0, 2]):
            assert row.tobytes() == expected[source].tobytes()

    def test_empty_batch_yields_nothing(self):
        assert list(geodesics(self.GRAPH, [])) == []

    def test_bad_id_raises_before_any_row(self):
        rows = geodesics(self.GRAPH, [0, 99])
        with pytest.raises(ValueError, match=r"^source id 99 outside 0\.\.4$"):
            next(rows)

    @pytest.mark.parametrize("bad", [1.5, True, np.True_, 2.0, "1", None], ids=repr)
    def test_non_integer_id_raises_before_any_row(self, bad):
        rows = geodesics(self.GRAPH, [0, bad])
        with pytest.raises(ValueError, match=rf"^source id {bad!r} is not an integer$"):
            next(rows)

    def test_numpy_integer_ids_are_ids(self):
        rows = list(geodesics(self.GRAPH, np.array([2, 0], dtype=np.int32)))
        expected = all_pairs(self.GRAPH)
        assert [r.tobytes() for r in rows] == [expected[2].tobytes(), expected[0].tobytes()]

    def test_batch_spanning_several_chunks(self, monkeypatch):
        # three rows per chunk: ten sources, repeats included, take four chunks
        graph = generate_radioconcentric(RadialSpec(7, 3, 3))
        monkeypatch.setattr(shortest_paths, "CHUNK_ENTRIES", 3 * graph.node_count + 2)
        sources = [5, 0, 17, 5, 63, 1, 2, 40, 0, 9]
        rows = list(geodesics(graph, sources))  # held: later chunks must not overwrite them
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
            rows = geodesics(graph, sources)
            for _ in range(2 * (shortest_paths.CHUNK_ENTRIES // graph.node_count)):
                next(rows)  # the first two chunks
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestCells:
    """Small cells in a row share one relaxation; rows stay each cell's own."""

    GRID = generate_rectilinear(GridSpec(2))  # 9 nodes
    WHEEL = generate_radioconcentric(RadialSpec(5, 1, 2))  # 11 nodes

    def packs(self, monkeypatch, cells, pack_entries, chunk_entries=1 << 17):
        """Rows of ``cells`` and the ``(nodes, rows)`` cells of each relaxation."""
        monkeypatch.setattr(shortest_paths, "PACK_ENTRIES", pack_entries)
        monkeypatch.setattr(shortest_paths, "CHUNK_ENTRIES", chunk_entries)
        packs, relax = [], shortest_paths._rows

        def recording(pack, width):
            packs.append([(n, len(sources)) for _, n, sources in pack])
            return relax(pack, width)

        monkeypatch.setattr(shortest_paths, "_rows", recording)
        rows = [row.tobytes() for row in cell_geodesics(cells)]
        expected = [row.tobytes() for g, s in cells for row in oracles.dijkstra(g, s)]
        assert rows == expected
        return packs

    def test_small_cells_share_one_relaxation(self, monkeypatch):
        cells = [(self.GRID, [0, 4]), (self.WHEEL, [3]), (self.GRID, []), (self.GRID, [8])]
        packs = self.packs(monkeypatch, cells, shortest_paths.PACK_ENTRIES)
        assert packs == [[(9, 2), (11, 1), (9, 1)]]

    def test_cell_split_across_two_packs(self, monkeypatch):
        # two rows per chunk, five 9-wide rows per pack: the second cell's
        # chunks fall on both sides of the first pack's end
        cells = [(self.GRID, [0, 1, 2]), (self.GRID, [3, 4, 5, 6])]
        packs = self.packs(monkeypatch, cells, 5 * 9, chunk_entries=2 * 9)
        assert packs == [[(9, 2), (9, 1), (9, 2)], [(9, 2)]]

    def test_cell_larger_than_a_pack_runs_alone(self, monkeypatch):
        cells = [(self.GRID, [0]), (self.WHEEL, [0, 5, 5]), (self.GRID, [7, 2])]
        packs = self.packs(monkeypatch, cells, 2 * 11)
        assert packs == [[(9, 1)], [(11, 3)], [(9, 2)]]

    def test_bad_id_in_third_cell_raises_before_its_rows(self, monkeypatch):
        monkeypatch.setattr(shortest_paths, "PACK_ENTRIES", 9)  # one grid row per pack
        rows = cell_geodesics([(self.GRID, [0]), (self.GRID, [4, 8]), (self.GRID, [3, 9])])
        got = []
        with pytest.raises(ValueError, match=r"^source id 9 outside 0\.\.8$"):
            for row in rows:
                got.append(row.tobytes())
        expected = [row.tobytes() for row in oracles.dijkstra(self.GRID, [0, 4, 8])]
        assert got == expected[: len(got)]  # rows of earlier cells only, in order


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
