import math

import numpy as np
import pytest

from straightnet import (
    GridSpec,
    NetworkGraph,
    RadialSpec,
    generate_radioconcentric,
    generate_rectilinear,
    sector_angle,
)
from straightnet.generators import MAX_NODES

import oracles
from oracles import grid_node_id, ring_node_id, side_node_id


class TestSpecValidation:
    def test_grid_size_must_be_positive(self):
        with pytest.raises(ValueError):
            GridSpec(0)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_too_few_radii(self, k):
        with pytest.raises(ValueError, match="at least 3"):
            RadialSpec(k, 1)

    def test_rings_must_be_positive(self):
        with pytest.raises(ValueError):
            RadialSpec(4, 0)

    def test_subdivision_must_be_positive(self):
        with pytest.raises(ValueError):
            RadialSpec(4, 1, 0)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: GridSpec(2.5), "squares_per_side"),
            (lambda: GridSpec(True), "squares_per_side"),
            (lambda: GridSpec("3"), "squares_per_side"),
            (lambda: RadialSpec(8.0, 2, 2), "radii_count"),
            (lambda: RadialSpec(8, 2.0, 2), "rings_count"),
            (lambda: RadialSpec(8, 2, False), "side_subdivision"),
        ],
        ids=["grid-float", "grid-bool", "grid-str", "radii-float", "rings-float", "q-bool"],
    )
    def test_non_integer_field_rejected(self, make, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make()

    def test_numpy_integers_accepted(self):
        assert generate_rectilinear(GridSpec(np.int64(3))).node_count == 16
        spec = RadialSpec(np.int32(8), np.int64(2), np.uint8(2))
        assert generate_radioconcentric(spec).node_count == 33

    def test_node_cap(self):
        # (s + 1)^2 and 1 + m*k*q nodes: the largest specs under the cap pass
        assert MAX_NODES == 1_000_000
        GridSpec(999)
        RadialSpec(3, 333_333)
        with pytest.raises(ValueError, match="1002001 nodes"):
            GridSpec(1000)
        with pytest.raises(ValueError, match="1000001 nodes"):
            RadialSpec(5, 100_000, 2)


class TestRectilinear:
    def test_unit_square(self):
        g = generate_rectilinear(GridSpec(1))
        assert g.node_count == 4
        assert g.edge_count == 4

    def test_two_by_two(self):
        g = generate_rectilinear(GridSpec(2))
        assert g.node_count == 9
        assert g.edge_count == 12  # 2*s*(s+1)

    def test_row_major_ids(self):
        spec = GridSpec(4)
        g = generate_rectilinear(spec)
        assert g.node_count == 25
        assert g.edge_count == 40
        assert grid_node_id(spec, 3, 4) == 23
        assert g.positions[23].tolist() == [3.0, 4.0]
        assert g.positions[0].tolist() == [0.0, 0.0]

    def test_all_edges_unit_length(self):
        g = generate_rectilinear(GridSpec(5))
        assert np.all(g.edge_lengths == 1.0)

    def test_translation_symmetry(self):
        """Shifting any non-boundary column node by (1, 0) lands on a node."""
        g = generate_rectilinear(GridSpec(4))
        node_set = {tuple(p) for p in g.positions}
        for x, y in g.positions:
            if x <= 3:
                assert (x + 1.0, y) in node_set

    def test_degree_pattern(self):
        g = generate_rectilinear(GridSpec(3))
        degrees = sorted(len(g.adjacency[i]) for i in range(g.node_count))
        # 4 corners, 8 boundary, 4 interior for s=3
        assert degrees == [2] * 4 + [3] * 8 + [4] * 4


class TestRadioconcentric:
    def test_small_wheel(self):
        spec = RadialSpec(4, 1)
        g = generate_radioconcentric(spec)
        assert g.node_count == 5
        assert g.edge_count == 8
        ring = [g.positions[ring_node_id(spec, 1, i)] for i in range(4)]
        assert ring[0] == pytest.approx((1.0, 0.0), abs=1e-15)
        assert ring[1] == pytest.approx((0.0, 1.0), abs=1e-15)
        assert ring[2] == pytest.approx((-1.0, 0.0), abs=1e-15)
        assert ring[3] == pytest.approx((0.0, -1.0), abs=1e-15)

    def test_side_chords_of_square_wheel(self):
        g = generate_radioconcentric(RadialSpec(4, 1))
        chords = sorted(g.edge_lengths)[4:]  # radial edges are the 4 shortest
        assert chords == pytest.approx([math.sqrt(2)] * 4, abs=1e-12)

    def test_two_ring_triangle_counts(self):
        spec = RadialSpec(3, 2)
        g = generate_radioconcentric(spec)
        assert g.node_count == 7
        assert g.edge_count == 12
        outer = g.positions[ring_node_id(spec, 2, 0)]
        assert outer == pytest.approx((2.0, 0.0), abs=1e-15)

    def test_outer_chord_scales_with_ring(self):
        spec = RadialSpec(3, 2)
        g = generate_radioconcentric(spec)
        a = g.positions[ring_node_id(spec, 2, 0)]
        b = g.positions[ring_node_id(spec, 2, 1)]
        # ring-2 chord: 2 * 2 * sin(pi/3) = 2 * sqrt(3)
        assert math.dist(a, b) == pytest.approx(2 * math.sqrt(3), abs=1e-12)

    def test_subdivided_counts(self):
        g = generate_radioconcentric(RadialSpec(8, 1, 4))
        assert g.node_count == 1 + 8 + 8 * 3
        assert g.edge_count == 8 + 8 * 4  # radial + chord segments

    def test_node_and_edge_count_formula(self):
        for k, m, q in [(3, 1, 1), (5, 2, 1), (4, 3, 2), (6, 2, 5)]:
            g = generate_radioconcentric(RadialSpec(k, m, q))
            assert g.node_count == 1 + k * m + k * m * (q - 1)
            assert g.edge_count == k * m + k * m * q

    def test_rotation_symmetry(self):
        """Rotating the node set by one sector angle maps it onto itself."""
        for spec in (RadialSpec(5, 2), RadialSpec(6, 3, 3)):
            g = generate_radioconcentric(spec)
            theta = sector_angle(spec.radii_count)
            c, s = math.cos(theta), math.sin(theta)
            rotated = g.positions @ np.array([[c, s], [-s, c]])
            for point in rotated:
                nearest = np.min(np.hypot(*(g.positions - point).T))
                assert nearest <= 1e-9

    def test_subdivision_nodes_collinear_with_chord(self):
        spec = RadialSpec(7, 2, 5)
        g = generate_radioconcentric(spec)
        for ring in (1, 2):
            for side in range(7):
                a = g.positions[ring_node_id(spec, ring, side)]
                b = g.positions[ring_node_id(spec, ring, (side + 1) % 7)]
                direction = (b - a) / np.hypot(*(b - a))
                normal = np.array([-direction[1], direction[0]])
                for step in range(1, 5):
                    p = g.positions[side_node_id(spec, ring, side, step)]
                    assert abs((p - a) @ normal) <= 1e-12

    def test_subdivision_positions_scale_across_rings(self):
        spec = RadialSpec(5, 3, 4)
        g = generate_radioconcentric(spec)
        for side in range(5):
            for step in range(1, 4):
                base = g.positions[side_node_id(spec, 1, side, step)]
                for ring in (2, 3):
                    p = g.positions[side_node_id(spec, ring, side, step)]
                    assert np.allclose(p, ring * base, atol=1e-12)

    def test_center_is_node_zero(self):
        g = generate_radioconcentric(RadialSpec(9, 2))
        assert g.positions[0].tolist() == [0.0, 0.0]
        assert len(g.adjacency[0]) == 9


class TestSymmetryGroups:
    @pytest.mark.parametrize("size", range(1, 13))
    def test_grid_orbit_count(self, size):
        half = (size + 2) // 2  # ceil(n / 2) with n = size + 1 nodes per side
        g = generate_rectilinear(GridSpec(size))
        assert len(g.orbits) == half * (half + 1) // 2

    def test_grid_corners_form_one_orbit(self):
        spec = GridSpec(6)
        g = generate_rectilinear(spec)
        assert dict(g.orbits)[grid_node_id(spec, 0, 0)] == 4
        assert dict(g.orbits)[grid_node_id(spec, 3, 3)] == 1  # the center

    @pytest.mark.parametrize("k", [3, 4, 7])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_wheel_orbit_count_and_sizes(self, k, m, q):
        g = generate_radioconcentric(RadialSpec(k, m, q))
        assert len(g.orbits) == 1 + m * (1 + q // 2)
        # center alone; corners and side midpoints (on a mirror axis) in
        # orbits of k; other side nodes paired with their mirror image, 2k
        midpoints = 1 if q % 2 == 0 else 0
        expected = [1] + [k] * m * (1 + midpoints) + [2 * k] * m * ((q - 1) // 2)
        assert sorted(size for _, size in g.orbits) == sorted(expected)


def assert_same_graph(graph, reference):
    nodes, edges, symmetries = reference
    expected = NetworkGraph(nodes, edges, symmetries=symmetries)
    assert graph.positions.tobytes() == expected.positions.tobytes()
    assert graph.edges.tolist() == expected.edges.tolist()
    assert [p.tolist() for p in graph.symmetries] == list(map(list, symmetries))
    assert graph.orbits == expected.orbits


class TestLoopReference:
    """The array-built generators equal the node-by-node construction."""

    def test_grids(self):
        for s in range(1, 41):
            spec = GridSpec(s)
            assert_same_graph(generate_rectilinear(spec), oracles.loop_rectilinear(spec))

    @pytest.mark.parametrize("k", range(3, 25))
    def test_wheels(self, k):
        for m in range(1, 7):
            for q in range(1, 6):
                spec = RadialSpec(k, m, q)
                assert_same_graph(
                    generate_radioconcentric(spec), oracles.loop_radioconcentric(spec)
                )
