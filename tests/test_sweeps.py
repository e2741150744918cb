import tracemalloc

import pytest

from straightnet import (
    GridSpec,
    RadialSpec,
    generate_radioconcentric,
    generate_rectilinear,
    summarize,
    sweep_radial,
    sweep_rectilinear,
)
from straightnet import metrics, sweeps
from straightnet.sweeps import DEFAULT_SWEEP_SUBDIVISION
from straightnet.tables import read_table, write_sweep_csv

import oracles


def record_summaries(monkeypatch):
    """Make ``sweeps.summarize`` record calls; returns the list of calls."""
    calls = []
    monkeypatch.setattr(sweeps, "summarize", lambda graph: calls.append(graph))
    return calls


class TestRectSweep:
    def test_single_cell_matches_direct_summary(self):
        result = sweep_rectilinear([1])[0]
        assert result.parameters == {"squares_per_side": 1}
        assert result.summary == summarize(generate_rectilinear(GridSpec(1)))
        assert result.wall_time_ms >= 0

    def test_unit_square_mean(self):
        result = sweep_rectilinear([1])[0]
        assert result.summary.mean == pytest.approx(0.9023689270621825, abs=1e-12)

    def test_row_per_size_in_order(self):
        results = sweep_rectilinear([3, 1, 2])
        sizes = [r.parameters["squares_per_side"] for r in results]
        assert sizes == [3, 1, 2]

    @pytest.mark.parametrize("size", [0, -2])
    def test_size_guard(self, size, monkeypatch):
        calls = record_summaries(monkeypatch)
        with pytest.raises(ValueError, match="at least 1"):
            sweep_rectilinear([1, 2, size])
        assert calls == []  # refused before any cell was summarized

    def test_work_budget_is_one_running_total(self, monkeypatch):
        budget = 0
        for size in (1, 2, 3):
            g = generate_rectilinear(GridSpec(size))
            budget += len(g.orbits) * (g.node_count + g.edge_count)
        monkeypatch.setattr(metrics, "MAX_WORK", budget)
        built = []

        def counting(spec):
            built.append(spec.squares_per_side)
            return generate_rectilinear(spec)

        monkeypatch.setattr(sweeps, "generate_rectilinear", counting)
        assert len(sweep_rectilinear([1, 2, 3])) == 3  # a total equal to the budget passes
        assert built == [1, 2, 3]
        built.clear()
        with pytest.raises(ValueError, match=f"^{budget + 6 * (25 + 40)} units .*MAX_WORK"):
            sweep_rectilinear([1, 2, 3, 4])
        assert built == []  # refused from the specs' counts, before any graph is built

    def test_one_shot_iterator(self):
        results = sweep_rectilinear(iter([2, 1]))
        assert [r.parameters["squares_per_side"] for r in results] == [2, 1]


    def test_sweep_matches_the_offset_class_sum(self):
        # A5's sweep, checked against a sum that runs no path search
        for size, result in zip(range(1, 31), sweep_rectilinear(range(1, 31))):
            pairs, mean, std_dev = oracles.exact_grid_summary(size)
            assert (result.summary.pair_count, result.summary.skipped_pairs) == (pairs, 0)
            assert abs(result.summary.mean - mean) <= 1e-12
            assert abs(result.summary.std_dev - std_dev) <= 1e-12


class TestRadialSweep:
    def test_corner_only_square_wheel_is_straight(self):
        # with subdivision 1 the k=4, m=1 wheel scores a perfect mean
        result = sweep_radial([4], [1], subdivision=1)[0]
        assert result.summary.mean == 1.0

    def test_cell_matches_direct_summary(self):
        result = sweep_radial([5], [2], subdivision=3)[0]
        expected = summarize(generate_radioconcentric(RadialSpec(5, 2, 3)))
        assert result.summary == expected

    def test_grid_ordering_radii_major(self):
        results = sweep_radial([3, 4], [1, 2], subdivision=1)
        cells = [(r.parameters["radii"], r.parameters["rings"]) for r in results]
        assert cells == [(3, 1), (3, 2), (4, 1), (4, 2)]

    def test_default_subdivision_places_nodes_between_spokes(self):
        assert DEFAULT_SWEEP_SUBDIVISION > 1
        sparse = sweep_radial([4], [1], subdivision=1)[0].summary.mean
        meshed = sweep_radial([4], [1])[0].summary.mean
        assert meshed < sparse  # intermediate destinations force detours

    def test_invalid_radii_propagates(self, monkeypatch):
        calls = record_summaries(monkeypatch)
        with pytest.raises(ValueError, match="radii_count"):
            sweep_radial([3, 4, 2], [1])
        assert calls == []  # refused before any cell was summarized

    def test_one_shot_iterators(self):
        results = sweep_radial(iter([4, 3]), iter([1, 2]), subdivision=1)
        cells = [(r.parameters["radii"], r.parameters["rings"]) for r in results]
        assert cells == [(4, 1), (4, 2), (3, 1), (3, 2)]

    def test_ring_count_matters_less_than_spoke_count(self):
        """Across the sweep, ring count moves the mean far less than spokes."""
        spokes = [3, 10, 20]
        rings = [1, 2, 3, 4, 5]
        table = {
            (r.parameters["radii"], r.parameters["rings"]): r.summary.mean
            for r in sweep_radial(spokes, rings)
        }
        ring_spread = max(
            max(table[(k, m)] for m in rings) - min(table[(k, m)] for m in rings)
            for k in spokes
        )
        spoke_spread = min(
            max(table[(k, m)] for k in spokes) - min(table[(k, m)] for k in spokes)
            for m in rings
        )
        assert ring_spread < spoke_spread


class TestPackedCells:
    """Small cells share geodesic relaxations; every summary stays its own graph's."""

    def test_default_radial_cells_equal_direct_summaries(self):
        for result in sweep_radial(range(3, 21), range(1, 6)):
            k, m = result.parameters["radii"], result.parameters["rings"]
            spec = RadialSpec(k, m, DEFAULT_SWEEP_SUBDIVISION)
            assert result.summary == summarize(generate_radioconcentric(spec))

    def test_grid_cells_equal_direct_summaries(self):
        for size, result in zip(range(1, 31), sweep_rectilinear(range(1, 31))):
            assert result.summary == summarize(generate_rectilinear(GridSpec(size)))

    @pytest.mark.parametrize(
        "sweep, bound",
        [
            (lambda: sweep_radial(range(3, 21), range(1, 6)), 2_000_000),
            # the largest cell alone peaks at 2.4 MB: a sweep that kept earlier
            # graphs, or the last cell's labels, while relaxing it passes 3 MB
            (lambda: sweep_rectilinear(range(1, 31)), 3_000_000),
        ],
        ids=["radial", "rect"],
    )
    def test_peak_memory(self, sweep, bound):
        tracemalloc.start()
        try:
            sweep()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestSweepCsv:
    def test_rect_schema(self, tmp_path):
        path = tmp_path / "rect.csv"
        write_sweep_csv(path, sweep_rectilinear([1, 2]))
        header, rows = read_table(path)
        assert header == ["squares_per_side", "pair_count", "mean", "std_dev", "skipped"]
        assert [r["squares_per_side"] for r in rows] == ["1", "2"]
        assert rows[0]["mean"] == "0.902368927"
        assert rows[0]["pair_count"] == "6"
        assert rows[0]["skipped"] == "0"

    def test_radial_schema(self, tmp_path):
        path = tmp_path / "radial.csv"
        write_sweep_csv(path, sweep_radial([4], [1], subdivision=1))
        header, rows = read_table(path)
        assert header == ["radii", "rings", "pair_count", "mean", "std_dev", "skipped"]
        assert rows[0]["radii"] == "4"
        assert rows[0]["rings"] == "1"
        assert rows[0]["mean"] == "1"
        assert rows[0]["std_dev"] == "0"

    def test_empty_results_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="no sweep results"):
            write_sweep_csv(path, [])
        assert not path.exists()

    def test_newline_discipline(self, tmp_path):
        path = tmp_path / "rect.csv"
        write_sweep_csv(path, sweep_rectilinear([1]))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
