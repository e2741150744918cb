import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straightnet import (
    NetworkGraph,
    generate_radioconcentric,
    generate_rectilinear,
    graph_from_json,
    graph_to_json,
    GridSpec,
    load_graph,
    RadialSpec,
    save_graph,
)

import oracles

SQUARE_NODES = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
SQUARE_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3)]


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
        with pytest.raises(ValueError, match=r"nodes 0 and 2 share the position \(-0.0, 0.0\)"):
            NetworkGraph([(0.0, 0.0), (1.0, 0.0), (-0.0, 0.0), (1.0, 0.0)], [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            NetworkGraph(SQUARE_NODES, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            NetworkGraph(SQUARE_NODES, [(0, 1), (1, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown node id"):
            NetworkGraph(SQUARE_NODES, [(0, 7)])

    @pytest.mark.parametrize("big", [10**24, -(2**63) - 1, 2**63])
    def test_id_past_int64_is_an_unknown_node(self, big):
        with pytest.raises(ValueError, match=rf"edge \(0, {big}\) references an unknown"):
            NetworkGraph(SQUARE_NODES, [(0, 1), (0, big)])

    @pytest.mark.parametrize(
        "edges", [[(0, 1, 2), (1, 2, 3)], [0, 1], [[]], np.zeros((2, 2, 2), dtype=int)]
    )
    def test_edges_that_are_not_pairs_rejected(self, edges):
        with pytest.raises(ValueError, match=r"edges must be a sequence of \(u, v\) pairs"):
            NetworkGraph(SQUARE_NODES, edges)

    def test_first_faulty_edge_names_the_error(self):
        with pytest.raises(ValueError, match="self-loop on node 2"):
            NetworkGraph(SQUARE_NODES, [(0, 1), (2, 2), (1, 0), (0, 9)])
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            NetworkGraph(SQUARE_NODES, [(0, 1), (1, 0), (2, 2), (0, 9)])

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
        d = oracles.euclidean_distance(graph.positions[u], graph.positions[v])
        assert abs(length - d) <= 1e-12


def test_adjacency_is_symmetric():
    g = NetworkGraph(SQUARE_NODES, SQUARE_EDGES)
    for u in range(g.node_count):
        for v, w in g.adjacency[u]:
            assert (u, w) in g.adjacency[v]


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


THREE_NODES = [{"id": i, "x": i, "y": 0} for i in range(3)]


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

    def test_id_past_int64_is_not_dense(self):
        data = {"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 10**24, "x": 1, "y": 0}], "edges": []}
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

    @pytest.mark.parametrize(
        "data",
        [
            {"nodes": 5, "edges": []},
            {"nodes": [], "edges": None},
            [{"id": 0, "x": 0, "y": 0}],
        ],
    )
    def test_sections_that_are_not_lists_rejected(self, data):
        with pytest.raises(ValueError, match="must contain"):
            graph_from_json(data)

    @pytest.mark.parametrize(
        "nodes, edges, kind",
        [
            ([{"id": math.inf, "x": 0, "y": 0}], [], "node"),
            (
                [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
                [{"u": 0, "v": math.inf}],
                "edge",
            ),
        ],
    )
    def test_infinite_ids_rejected(self, nodes, edges, kind):
        with pytest.raises(ValueError, match=f"malformed {kind} entry"):
            graph_from_json({"nodes": nodes, "edges": edges})

    @pytest.mark.parametrize(
        "nodes, edges, kind",
        [
            ([{"id": 0, "x": 0, "y": 0}, {"id": 1.9, "x": 1, "y": 0}], [], "node"),
            ([{"id": 0, "x": 0, "y": 0}, {"id": "1", "x": 1, "y": 0}], [], "node"),
            (THREE_NODES, [{"u": 0.7, "v": 1}], "edge"),
            (THREE_NODES, [{"u": 1, "v": 2.2}], "edge"),
            (THREE_NODES, [{"u": "0", "v": 1}], "edge"),
            (THREE_NODES, [{"u": 0, "v": True}], "edge"),
        ],
    )
    def test_non_integer_ids_rejected(self, nodes, edges, kind):
        with pytest.raises(ValueError, match=f"malformed {kind} entry"):
            graph_from_json({"nodes": nodes, "edges": edges})

    def test_integral_float_ids_accepted(self):
        nodes = [{"id": 0.0, "x": 0, "y": 0}, {"id": 1.0, "x": 1, "y": 0}]
        graph = graph_from_json({"nodes": nodes, "edges": [{"u": 0, "v": 1.0}]})
        assert graph.edges.tolist() == [[0, 1]]

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

    def test_reversed_node_entries_load_the_same_graph(self):
        data = graph_to_json(generate_radioconcentric(RadialSpec(5, 2, 3)))
        in_order = graph_from_json(data)
        data["nodes"].reverse()
        reversed_ = graph_from_json(data)
        assert np.array_equal(reversed_.positions, in_order.positions)
        assert np.array_equal(reversed_.edges, in_order.edges)

    @pytest.mark.parametrize(
        "ids, message",
        [
            ([0, 7, 7], "dense"),
            ([0, 1, 1, 7], "appears twice"),
            ([0, -1, 0], "dense"),
            ([0, 7, "x"], "dense"),
            ([0, "x", 7], "malformed node entry"),
        ],
    )
    def test_first_faulty_entry_names_the_error(self, ids, message):
        nodes = [{"id": i, "x": n, "y": 0} for n, i in enumerate(ids)]
        with pytest.raises(ValueError, match=message):
            graph_from_json({"nodes": nodes, "edges": []})

    @pytest.mark.parametrize(
        "x, y",
        [("1.5", 0), (0, True), (False, 0), (None, 0), (0, [1]), ({"v": 1}, 0), (10**400, 0)],
        ids=["string", "true", "false", "null", "list", "object", "past-float"],
    )
    def test_coordinates_that_are_not_numbers_rejected(self, x, y):
        nodes = [{"id": 0, "x": 5, "y": 5}, {"id": 1, "x": x, "y": y}]
        with pytest.raises(ValueError, match="malformed node entry"):
            graph_from_json({"nodes": nodes, "edges": []})


# Small graphs with the faults the constructor must name: lattice positions,
# some of them repeated, a mirror in x = 0 as a symmetry that holds when the
# edges are closed under it, and unknown ids, self-loops, repeated edges and
# broken permutations mixed in.
@st.composite
def graph_inputs(draw):
    point = st.tuples(st.integers(1, 2), st.integers(-2, 2))
    left = draw(st.lists(point, max_size=5, unique=True))
    on_axis = st.tuples(st.sampled_from([0.0, -0.0]), st.integers(-2, 2))
    axis = draw(st.lists(on_axis, max_size=3, unique_by=lambda p: p[1]))
    nodes = [*left, *axis, *((-x, y) for x, y in left)]
    h, n = len(left), len(nodes)
    mirror = [*range(n - h, n), *range(h, n - h), *range(h)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2])) if nodes else 0):
        nodes.append(draw(st.sampled_from(nodes)))

    node = st.integers(0, max(n - 1, 0))
    raw = draw(st.lists(st.tuples(node, node), max_size=10))
    edges = {(min(u, v), max(u, v)) for u, v in raw if u != v}
    if draw(st.booleans()):
        edges |= {tuple(sorted((mirror[u], mirror[v]))) for u, v in edges}
    order = draw(st.permutations(sorted(edges)))
    flips = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    edges = [e[::-1] if flip else e for e, flip in zip(order, flips)]
    faults = st.one_of(
        st.tuples(st.integers(-1, n), st.integers(-1, n)),
        st.tuples(node, st.just(10**24)),
        st.sampled_from(edges or [(0, 0)]).map(lambda e: e[::-1]),
    )
    for fault in draw(st.lists(faults, max_size=2)):
        edges.insert(draw(st.integers(0, len(edges))), fault)
    perms = st.one_of(
        st.just(mirror),
        st.just(mirror),
        st.permutations(range(n)),
        st.lists(st.integers(-1, n), max_size=n + 1),
    )
    return nodes, edges, draw(st.lists(perms, max_size=2))


@settings(max_examples=200, deadline=None)
@given(graph_inputs())
def test_matches_the_loop_reference(case):
    nodes, edges, symmetries = case
    try:
        expected = oracles.loop_graph(nodes, edges, symmetries)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            NetworkGraph(nodes, edges, symmetries)
        assert str(raised.value) == str(exc)
        return
    g = NetworkGraph(nodes, edges, symmetries)
    assert g.edges.tolist() == list(map(list, expected.edges))
    assert g.edge_lengths.tobytes() == expected.edge_lengths.tobytes()
    assert g.adjacency == expected.adjacency
    assert g.orbits == expected.orbits
    assert g.components() == expected.components


def test_repr_mentions_counts():
    g = NetworkGraph(SQUARE_NODES, SQUARE_EDGES)
    assert "nodes=4" in repr(g) and "edges=4" in repr(g)
