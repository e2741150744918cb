import json
import math

import numpy as np
import pytest

from straightnet import (
    NetworkGraph,
    Point2D,
    euclidean_distance,
    generate_radioconcentric,
    generate_rectilinear,
    graph_from_json,
    graph_to_json,
    GridSpec,
    load_graph,
    RadialSpec,
    save_graph,
)

SQUARE_NODES = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
SQUARE_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3)]


class TestEuclideanDistance:
    def test_identity(self):
        assert euclidean_distance((0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_pythagorean_triple(self):
        assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_unit_circle_chord(self):
        # chord spanning 2*pi/3 on the unit circle: 2*sin(pi/3) = sqrt(3)
        far = (math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        assert euclidean_distance((1.0, 0.0), far) == pytest.approx(
            1.7320508075688772, abs=1e-15
        )

    def test_symmetric(self):
        a, b = (0.3, -1.2), (2.5, 0.7)
        assert euclidean_distance(a, b) == euclidean_distance(b, a)

    def test_accepts_point2d(self):
        assert euclidean_distance(Point2D(0.0, 0.0), Point2D(0.0, 2.0)) == 2.0


class TestBuildGraph:
    def test_single_edge(self):
        g = NetworkGraph([(0.0, 0.0), (1.0, 0.0)], [(0, 1)])
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.edge_lengths[0] == 1.0

    def test_unit_square(self):
        g = NetworkGraph(SQUARE_NODES, SQUARE_EDGES)
        assert g.edge_count == 4
        assert np.allclose(g.edge_lengths, 1.0)

    def test_duplicate_position_rejected(self):
        with pytest.raises(ValueError, match="share the position"):
            NetworkGraph([(0.0, 0.0), (0.0, 0.0)], [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            NetworkGraph(SQUARE_NODES, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            NetworkGraph(SQUARE_NODES, [(0, 1), (1, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown node id"):
            NetworkGraph(SQUARE_NODES, [(0, 7)])

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            NetworkGraph([(0.0, 0.0), (math.inf, 1.0)], [])

    def test_edges_normalized_low_id_first(self):
        g = NetworkGraph(SQUARE_NODES, [(3, 1), (2, 0)])
        assert g.edges.tolist() == [[1, 3], [0, 2]]

    def test_isolated_node_allowed(self):
        g = NetworkGraph([(0.0, 0.0), (5.0, 5.0)], [])
        assert g.node_count == 2
        assert g.edge_count == 0

    def test_overflowing_edge_lengths_rejected(self):
        # each length is finite, but a path over both is not
        with pytest.raises(ValueError, match="overflow"):
            NetworkGraph([(0.0, 0.0), (1e308, 0.0), (-1e308, 0.0)], [(0, 1), (0, 2)])

    def test_components(self):
        g = NetworkGraph(
            [(0.0, 0.0), (5.0, 5.0), (1.0, 0.0), (6.0, 5.0), (9.0, 0.0)],
            [(1, 3), (0, 2)],
        )
        assert g.components() == ((0, 2), (1, 2), (4, 1))
        assert NetworkGraph(SQUARE_NODES, SQUARE_EDGES).components() == ((0, 4),)


class TestImmutability:
    def test_positions_not_writable(self):
        g = NetworkGraph(SQUARE_NODES, SQUARE_EDGES)
        with pytest.raises(ValueError):
            g.positions[0, 0] = 9.0

    def test_attributes_frozen(self):
        g = NetworkGraph(SQUARE_NODES, SQUARE_EDGES)
        with pytest.raises(AttributeError):
            g.positions = None


@pytest.mark.parametrize(
    "graph",
    [
        generate_rectilinear(GridSpec(3)),
        generate_radioconcentric(RadialSpec(5, 2, 3)),
    ],
    ids=["grid", "radial"],
)
def test_edge_lengths_match_endpoint_distances(graph):
    # lengths are derived, so the straight-segment invariant is exact
    for (u, v), length in zip(graph.edges, graph.edge_lengths):
        d = euclidean_distance(graph.point(int(u)), graph.point(int(v)))
        assert abs(length - d) <= 1e-12


def test_adjacency_is_symmetric():
    g = NetworkGraph(SQUARE_NODES, SQUARE_EDGES)
    for u in range(g.node_count):
        for v, w in g.neighbors(u):
            assert (u, w) in [(n, wt) for n, wt in g.neighbors(v)]


class TestSymmetries:
    # square ring 0-1-2-3 with the closing edge 3-0 missing
    OPEN_RING_NODES = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    OPEN_RING_EDGES = [(0, 1), (1, 2), (2, 3)]

    def test_no_symmetries_means_singleton_orbits(self):
        g = NetworkGraph(SQUARE_NODES, SQUARE_EDGES)
        assert g.symmetries == ()
        assert g.orbits == ((0, 1), (1, 1), (2, 1), (3, 1))

    def test_orbits_of_declared_reflection(self):
        # mirror of the open ring across y = 0.5 swaps 0<->3 and 1<->2
        g = NetworkGraph(
            self.OPEN_RING_NODES, self.OPEN_RING_EDGES, symmetries=[[3, 2, 1, 0]]
        )
        assert g.orbits == ((0, 2), (1, 2))
        assert g.symmetries[0].tolist() == [3, 2, 1, 0]
        assert not g.symmetries[0].flags.writeable

    def test_rigid_rotation_that_breaks_an_edge_rejected(self):
        # the quarter turn is a rigid motion but sends edge 2-3 to 3-0
        with pytest.raises(ValueError, match="non-edge"):
            NetworkGraph(
                self.OPEN_RING_NODES, self.OPEN_RING_EDGES, symmetries=[[1, 2, 3, 0]]
            )

    @pytest.mark.parametrize("perm", [[0, 1, 2], [0, 0, 2, 3], [0, 1, 2, 4]])
    def test_non_permutation_rejected(self, perm):
        with pytest.raises(ValueError, match="not a permutation"):
            NetworkGraph(SQUARE_NODES, SQUARE_EDGES, symmetries=[perm])

    def test_nudged_grid_node_rejected(self):
        g = generate_rectilinear(GridSpec(4))
        positions = g.positions.copy()
        positions[7, 0] += 1e-6
        with pytest.raises(ValueError, match="rigid motion"):
            NetworkGraph(positions, g.edges, symmetries=g.symmetries)

    def test_non_rigid_edge_preserving_map_rejected(self):
        # a rectangle's quarter turn keeps the 4-cycle but not the lengths
        nodes = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        with pytest.raises(ValueError, match="rigid motion"):
            NetworkGraph(nodes, edges, symmetries=[[1, 2, 3, 0]])

    @pytest.mark.parametrize(
        "graph",
        [generate_rectilinear(GridSpec(5)), generate_radioconcentric(RadialSpec(6, 2, 4))],
        ids=["grid", "radial"],
    )
    def test_orbits_partition_the_nodes(self, graph):
        assert sum(size for _, size in graph.orbits) == graph.node_count
        reps = [rep for rep, _ in graph.orbits]
        assert reps == sorted(reps) and reps[0] == 0

    def test_json_round_trip_drops_symmetries(self):
        g = generate_rectilinear(GridSpec(3))
        restored = graph_from_json(graph_to_json(g))
        assert len(g.symmetries) == 2
        assert restored.symmetries == ()
        assert len(restored.orbits) == restored.node_count


class TestGraphJson:
    def test_dict_round_trip(self):
        g = generate_radioconcentric(RadialSpec(4, 2))
        restored = graph_from_json(graph_to_json(g))
        assert np.array_equal(restored.positions, g.positions)
        assert np.array_equal(restored.edges, g.edges)

    def test_lengths_never_serialized(self):
        data = graph_to_json(NetworkGraph(SQUARE_NODES, SQUARE_EDGES))
        assert set(data["nodes"][0]) == {"id", "x", "y"}
        assert set(data["edges"][0]) == {"u", "v"}

    def test_file_round_trip(self, tmp_path):
        g = generate_rectilinear(GridSpec(2))
        path = tmp_path / "grid.json"
        save_graph(g, path)
        restored = load_graph(path)
        assert np.array_equal(restored.positions, g.positions)
        assert np.array_equal(restored.edges, g.edges)

    def test_save_is_deterministic(self, tmp_path):
        g = generate_rectilinear(GridSpec(2))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(g, a)
        save_graph(g, b)
        assert a.read_bytes() == b.read_bytes()

    def test_sparse_ids_rejected(self):
        data = {"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0}], "edges": []}
        with pytest.raises(ValueError, match="dense"):
            graph_from_json(data)

    def test_repeated_id_rejected(self):
        data = {"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 0, "x": 1, "y": 0}], "edges": []}
        with pytest.raises(ValueError, match="twice"):
            graph_from_json(data)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            graph_from_json({"nodes": [{"id": 0, "x": 0}], "edges": []})
        with pytest.raises(ValueError):
            graph_from_json({"nodes": []})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_graph(path)

    def test_id_order_in_file_is_irrelevant(self):
        g = NetworkGraph(SQUARE_NODES, SQUARE_EDGES)
        data = graph_to_json(g)
        data["nodes"].reverse()
        restored = graph_from_json(data)
        assert np.array_equal(restored.positions, g.positions)


def test_repr_mentions_counts():
    g = NetworkGraph(SQUARE_NODES, SQUARE_EDGES)
    assert "nodes=4" in repr(g) and "edges=4" in repr(g)
