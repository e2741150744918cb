import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straightnet import (
    GridSpec,
    RadialSpec,
    generate_radioconcentric,
    generate_rectilinear,
    summarize,
    sweep_radial,
    sweep_rectilinear,
)
from straightnet import metrics, shortest_paths, sweeps
from straightnet.shortest_paths import geodesics
from straightnet.sweeps import DEFAULT_SWEEP_SUBDIVISION, _grid_ids, _wheel_ids
from straightnet.tables import read_table, write_sweep_csv

import oracles


def record_summaries(monkeypatch):
    """Make ``sweeps.nested_summaries`` record its hosts; returns the list of hosts."""
    calls = []
    monkeypatch.setattr(sweeps, "nested_summaries", lambda host, cells: calls.append(host))
    return calls


def record_builds(monkeypatch, name):
    """Make ``sweeps.<name>`` record the specs it generates; returns the list of specs."""
    built, generate = [], getattr(sweeps, name)
    monkeypatch.setattr(sweeps, name, lambda spec: built.append(spec) or generate(spec))
    return built


class TestRectSweep:
    def test_single_cell_matches_direct_summary(self):
        result = sweep_rectilinear([1])[0]
        assert result.parameters == {"squares_per_side": 1}
        assert result.summary == summarize(generate_rectilinear(GridSpec(1)))

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
        built = record_builds(monkeypatch, "generate_rectilinear")
        assert len(sweep_rectilinear([1, 2, 3])) == 3  # a total equal to the budget passes
        assert built == [GridSpec(3), GridSpec(2)]  # the largest grid of each size parity
        built.clear()
        with pytest.raises(ValueError, match=f"^{budget + 6 * (25 + 40)} units .*MAX_WORK"):
            sweep_rectilinear([1, 2, 3, 4])
        assert built == []  # refused from the specs' counts, before any graph is built

    def test_one_shot_iterator(self):
        results = sweep_rectilinear(iter([2, 1]))
        assert [r.parameters["squares_per_side"] for r in results] == [2, 1]

    def test_builds_only_the_host_of_each_parity(self, monkeypatch):
        built = record_builds(monkeypatch, "generate_rectilinear")
        sweep_rectilinear(range(1, 31))
        assert built == [GridSpec(29), GridSpec(30)]  # no grid cell is built

    def test_sweep_matches_the_offset_class_sum(self):
        # A5's sweep, checked against a sum that runs no path search
        for size, result in zip(range(1, 31), sweep_rectilinear(range(1, 31))):
            pairs, mean, std_dev = oracles.exact_grid_summary(size)
            assert (result.summary.pair_count, result.summary.skipped_pairs) == (pairs, 0)
            assert abs(result.summary.mean - mean) <= 1e-12
            assert abs(result.summary.std_dev - std_dev) <= 1e-12


def test_empty_input_gives_no_results():
    assert sweep_rectilinear([]) == []
    assert sweep_radial([], [1]) == []
    assert sweep_radial([3], []) == []


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

    def test_builds_only_the_host_of_each_spoke_count(self, monkeypatch):
        built = record_builds(monkeypatch, "generate_radioconcentric")
        sweep_radial(range(3, 21), range(1, 6))
        assert built == [RadialSpec(k, 5, DEFAULT_SWEEP_SUBDIVISION) for k in range(3, 21)]

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
    """Cells share their host's geodesic rows; every summary stays its own graph's."""

    def test_default_radial_cells_equal_direct_summaries(self):
        for result in sweep_radial(range(3, 21), range(1, 6)):
            k, m = result.parameters["radii"], result.parameters["rings"]
            spec = RadialSpec(k, m, DEFAULT_SWEEP_SUBDIVISION)
            assert result.summary == summarize(generate_radioconcentric(spec))

    def test_grid_cells_equal_direct_summaries(self):
        for size, result in zip(range(1, 31), sweep_rectilinear(range(1, 31))):
            assert result.summary == summarize(generate_rectilinear(GridSpec(size)))

    @pytest.mark.parametrize("chunk_entries", [1, 13])
    @pytest.mark.parametrize("pack_entries", [9, 40, 2**14])
    def test_cells_split_across_packs(self, monkeypatch, pack_entries, chunk_entries):
        # the cells of one host share its relaxations: at each CHUNK_ENTRIES
        # limit, from one source per chunk to the whole host in one, each
        # summary still sees only its own rows, in its own order
        radial = [RadialSpec(k, m, 2) for k in (3, 5) for m in (1, 2)]
        expected = [summarize(generate_radioconcentric(spec)) for spec in radial]
        expected += [summarize(generate_rectilinear(GridSpec(s))) for s in (1, 2, 3)]
        for entries in (pack_entries, chunk_entries):
            monkeypatch.setattr(shortest_paths, "CHUNK_ENTRIES", entries)
            results = sweep_radial([3, 5], [1, 2], 2) + sweep_rectilinear([1, 2, 3])
            assert [r.summary for r in results] == expected

    def test_repeated_parameters_give_one_result_per_cell(self):
        # repeated parameters are folded once and still give one result each
        rect = sweep_rectilinear([2, 2, 1])
        assert [r.parameters["squares_per_side"] for r in rect] == [2, 2, 1]
        expected = [summarize(generate_rectilinear(GridSpec(s))) for s in (2, 2, 1)]
        assert [r.summary for r in rect] == expected
        radial = sweep_radial([3, 3], [1])
        assert [r.parameters for r in radial] == [{"radii": 3, "rings": 1}] * 2
        wheel = generate_radioconcentric(RadialSpec(3, 1, DEFAULT_SWEEP_SUBDIVISION))
        assert [r.summary for r in radial] == [summarize(wheel)] * 2

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


class TestOneRelaxationPerHost:
    """Every cell is a subgraph of its host; one geodesic batch per host serves them all."""

    @staticmethod
    def spy(monkeypatch):
        batches = []

        def spy(graph, sources):
            batches.append((graph, list(sources)))
            return geodesics(graph, batches[-1][1])

        monkeypatch.setattr(metrics, "geodesics", spy)
        return batches

    def test_grid_sweep_searches_the_largest_grid_once(self, monkeypatch):
        # one batch per size parity, from the representatives of its largest grid
        batches = self.spy(monkeypatch)
        sweep_rectilinear(range(1, 31))
        assert [(host.node_count, len(sources)) for host, sources in batches] == [
            (900, 120),
            (961, 136),
        ]
        for (_, sources), size in zip(batches, (29, 30)):
            assert sources == [v for v, _ in generate_rectilinear(GridSpec(size)).orbits]

    def test_radial_sweep_searches_one_wheel_per_spoke_count(self, monkeypatch):
        batches = self.spy(monkeypatch)
        sweep_radial(range(3, 21), range(1, 6))
        assert len(batches) == 18
        for k, (host, sources) in zip(range(3, 21), batches):
            wheel = generate_radioconcentric(RadialSpec(k, 5, DEFAULT_SWEEP_SUBDIVISION))
            assert host.positions.tobytes() == wheel.positions.tobytes()
            assert sources == [v for v, _ in wheel.orbits]
            assert len(sources) == 16

    def test_library_refuses_at_the_first_cell_past_the_budget(self):
        # the (3, m) cells pass MAX_WORK long before a spec passes MAX_NODES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^538376069 units of geodesic work, more"):
                sweep_radial(range(3, 1003), range(1, 1001), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 14), min_size=1, max_size=6))
    def test_any_grid_sizes_equal_direct_summaries(self, sizes):
        results = sweep_rectilinear(sizes)
        assert [r.parameters["squares_per_side"] for r in results] == sizes
        expected = [summarize(generate_rectilinear(GridSpec(s))) for s in sizes]
        assert [r.summary for r in results] == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(3, 9), min_size=1, max_size=4),
        st.lists(st.integers(1, 4), min_size=1, max_size=4),
        st.integers(1, 5),
    )
    def test_any_radial_sweep_equals_direct_summaries(self, radii, rings, q):
        results = sweep_radial(radii, rings, q)
        cells = [(k, m) for k in radii for m in rings]
        assert [(r.parameters["radii"], r.parameters["rings"]) for r in results] == cells
        expected = [summarize(generate_radioconcentric(RadialSpec(k, m, q))) for k, m in cells]
        assert [r.summary for r in results] == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_cell_ids_place_the_generated_cell_in_its_host(self, data):
        if data.draw(st.booleans(), label="grid"):
            host_spec = GridSpec(data.draw(st.integers(1, 14), label="S"))
            shift = data.draw(st.integers(0, (host_spec.squares_per_side - 1) // 2), label="t")
            spec = GridSpec(host_spec.squares_per_side - 2 * shift)  # same parity, S - s = 2t
            ids = _grid_ids(host_spec, spec)
            generate = generate_rectilinear
        else:
            k, rings, q = (data.draw(st.integers(*r)) for r in ((3, 20), (1, 5), (1, 5)))
            host_spec = RadialSpec(k, rings, q)
            spec = RadialSpec(k, data.draw(st.integers(1, rings), label="m"), q)
            ids = _wheel_ids(host_spec, spec)
            generate, shift = generate_radioconcentric, 0  # a sub-wheel keeps its positions
        host, cell = generate(host_spec), generate(spec)
        assert len(ids) == cell.node_count and np.all(np.diff(ids) > 0)
        assert host.positions[ids].tobytes() == (cell.positions + shift).tobytes()
        # the host's edges between the cell's nodes are the cell's edges
        place = np.full(host.node_count, -1)
        place[ids] = np.arange(len(ids))
        inner = place[host.edges]
        inner = inner[np.all(inner >= 0, axis=1)]
        assert sorted(map(tuple, inner.tolist())) == sorted(map(tuple, cell.edges.tolist()))
        # the host's orbits inside the cell are the cell's, in host ids
        inside = tuple((v, size) for v, size in host.orbits if place[v] >= 0)
        assert inside == tuple((int(ids[v]), size) for v, size in cell.orbits)


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
