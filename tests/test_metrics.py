import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straightnet import (
    GridSpec,
    RadialSpec,
    all_pairs,
    build_graph,
    center_curve_check,
    center_radial_check,
    dijkstra,
    generate_radioconcentric,
    generate_rectilinear,
    graph_from_json,
    graph_to_json,
    grid_node_id,
    iter_pair_metrics,
    metrics,
    pair_straightness,
    ring_node_id,
    side_node_id,
    summarize,
)

import oracles

SQRT7_OVER_1_PLUS_SQRT3 = math.sqrt(7.0) / (1.0 + math.sqrt(3.0))  # 0.9684121919...


def scaled_copy(graph, factor):
    return build_graph(graph.positions * factor, graph.edges.tolist())


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
        g = build_graph([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)], [(0, 1)])
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
        g = build_graph([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)], [(0, 1)])
        summary = summarize(g)
        assert summary.pair_count == 1
        assert summary.skipped_pairs == 2
        n = g.node_count
        assert summary.pair_count + summary.skipped_pairs == n * (n - 1) // 2

    def test_strict_mode_rejects_skips(self):
        g = build_graph([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)], [(0, 1)])
        with pytest.raises(ValueError, match="unreachable"):
            summarize(g, strict=True)

    def test_too_small_graph_rejected(self):
        with pytest.raises(ValueError):
            summarize(build_graph([(0.0, 0.0)], []))

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


def generic_copy(graph):
    """The same graph without symmetries, so summarize uses all N sources."""
    return graph_from_json(graph_to_json(graph))


def assert_same_summary(orbit, generic):
    assert orbit.pair_count == generic.pair_count
    assert orbit.skipped_pairs == generic.skipped_pairs
    assert abs(orbit.mean - generic.mean) <= 1e-12
    assert abs(orbit.std_dev - generic.std_dev) <= 1e-12


def count_dijkstra_calls(monkeypatch, graph):
    calls = []

    def counting(g, source):
        calls.append(source)
        return dijkstra(g, source)

    monkeypatch.setattr(metrics, "dijkstra", counting)
    summarize(graph)
    return calls


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
        calls = count_dijkstra_calls(monkeypatch, generate_rectilinear(GridSpec(30)))
        assert len(calls) == 136

    @pytest.mark.parametrize("k, m", [(3, 1), (8, 2), (20, 5)])
    def test_wheel_runs_one_source_per_orbit(self, monkeypatch, k, m):
        g = generate_radioconcentric(RadialSpec(k, m, 4))
        assert len(count_dijkstra_calls(monkeypatch, g)) == 1 + 3 * m

    def test_imported_graph_runs_every_source(self, monkeypatch):
        g = generic_copy(generate_rectilinear(GridSpec(4)))
        assert count_dijkstra_calls(monkeypatch, g) == list(range(25))


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
        moved = build_graph(g.positions @ rotation + [3.0, -2.0], g.edges.tolist())
        reference, transformed = summarize(g), summarize(moved)
        assert transformed.mean == pytest.approx(reference.mean, abs=1e-9)
        assert transformed.std_dev == pytest.approx(reference.std_dev, abs=1e-9)

    def test_pair_enumeration_is_canonical(self):
        g = generate_rectilinear(GridSpec(2))
        pairs = [(m.source, m.target) for m in iter_pair_metrics(g)]
        assert pairs == sorted(pairs)
        assert len(pairs) == 36


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
        arc_graph = build_graph(nodes, edges)
        formula_dev, _ = center_radial_check(arc_graph, spec)
        assert formula_dev > 1e-3


def test_grid_node_helper_agrees_with_check():
    # corner row of a 5-grid: measured straightness along the axis is exactly 1
    spec = GridSpec(5)
    g = generate_rectilinear(spec)
    distances = all_pairs(g)
    for i in range(1, 6):
        node = grid_node_id(spec, i, 0)
        m = pair_straightness(g, distances, 0, node)
        assert m.straightness == 1.0
