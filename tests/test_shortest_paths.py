import math

import numpy as np
import pytest

from straightnet import (
    GridSpec,
    NetworkGraph,
    RadialSpec,
    dijkstra,
    generate_radioconcentric,
    generate_rectilinear,
)

import oracles
from oracles import all_pairs, grid_node_id, ring_node_id


class TestDijkstra:
    def test_unit_square_from_corner(self):
        g = generate_rectilinear(GridSpec(1))
        assert dijkstra(g, 0).tolist() == [0.0, 1.0, 1.0, 2.0]

    def test_grid_distances_are_manhattan(self):
        spec = GridSpec(4)
        g = generate_rectilinear(spec)
        row = dijkstra(g, 0)
        assert row[grid_node_id(spec, 3, 4)] == 7.0
        for i in range(5):
            for j in range(5):
                assert row[grid_node_id(spec, i, j)] == float(i + j)

    def test_wheel_center_row(self):
        g = generate_radioconcentric(RadialSpec(4, 1))
        assert dijkstra(g, 0).tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]

    def test_opposite_wheel_nodes_via_center(self):
        g = generate_radioconcentric(RadialSpec(4, 1))
        distances = all_pairs(g)
        assert distances[1, 3] == 2.0

    def test_invalid_source(self):
        g = generate_rectilinear(GridSpec(1))
        with pytest.raises(ValueError):
            dijkstra(g, 4)
        with pytest.raises(ValueError):
            dijkstra(g, -1)

    def test_unreachable_marked_infinite(self):
        g = NetworkGraph([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)], [(0, 1)])
        row = dijkstra(g, 0)
        assert row[1] == 1.0
        assert math.isinf(row[2])


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
