import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straightnet import load_graph
from straightnet.cli import MAX_CURVE_SAMPLES, MAX_RANGE_VALUES, _parse_range, main
from straightnet.shortest_paths import cell_geodesics
from straightnet.tables import read_table


def run_cli(*args):
    return main([str(a) for a in args])


def write_graph_json(path, nodes, edges):
    data = {
        "nodes": [{"id": i, "x": x, "y": y} for i, (x, y) in enumerate(nodes)],
        "edges": [{"u": u, "v": v} for u, v in edges],
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestGen:
    def test_rect(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert run_cli("gen", "rect", "--size", 4, "--out", out) == 0
        assert "nodes: 25  edges: 40" in capsys.readouterr().out
        g = load_graph(out)
        assert g.node_count == 25
        assert g.edge_count == 40

    def test_radial(self, tmp_path, capsys):
        out = tmp_path / "wheel.json"
        assert run_cli("gen", "radial", "--radii", 4, "--rings", 1, "--out", out) == 0
        assert "nodes: 5  edges: 8" in capsys.readouterr().out

    def test_radial_with_two_spokes_fails(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code = run_cli("gen", "radial", "--radii", 2, "--rings", 1, "--out", out)
        assert code == 1
        assert not out.exists()
        assert "at least 3" in capsys.readouterr().err

    def test_grid_size_zero_fails(self, tmp_path):
        assert run_cli("gen", "rect", "--size", 0, "--out", tmp_path / "g.json") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("rect", "--size", 1000),
            ("radial", "--radii", 5, "--rings", 100_000, "--subdivide", 2),
        ],
        ids=["rect", "radial"],
    )
    def test_node_cap_refused_before_building(self, tmp_path, capsys, args):
        out = tmp_path / "big.json"
        assert run_cli("gen", *args, "--out", out) == 1
        assert not out.exists()
        assert "nodes requested, more than MAX_NODES" in capsys.readouterr().err

    def test_unwritable_path_is_io_error(self, tmp_path):
        target = tmp_path / "missing_dir" / "grid.json"
        assert run_cli("gen", "rect", "--size", 1, "--out", target) == 3


class TestCurve:
    def test_sample_cap_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        from straightnet import cli

        def never(*args):
            raise AssertionError("sampled a curve over the cap")

        monkeypatch.setattr(cli, "analytic_curve", never)
        csv_path = tmp_path / "curves.csv"
        steps = MAX_CURVE_SAMPLES + 1
        args = ("curve", "--kinds", "rectilinear", "--steps", steps)
        assert run_cli(*args, "--out-csv", csv_path) == 1
        assert not csv_path.exists()
        err = capsys.readouterr().err
        assert f"{steps} curve samples, more than MAX_CURVE_SAMPLES" in err
        assert err.count("\n") == 1

    def test_default_network_set(self, tmp_path):
        csv_path = tmp_path / "curves.csv"
        assert run_cli("curve", "--steps", 9, "--out-csv", csv_path) == 0
        header, rows = read_table(csv_path)
        assert header == ["alpha", "straightness", "network", "k"]
        assert len(rows) == 5 * 9
        networks = {(r["network"], r["k"]) for r in rows}
        assert networks == {
            ("rectilinear", "4"),
            ("radial", "3"),
            ("radial", "4"),
            ("radial", "8"),
            ("radial", "16"),
        }

    def test_first_rectilinear_row_is_optimal(self, tmp_path):
        csv_path = tmp_path / "curves.csv"
        run_cli("curve", "--steps", 5, "--out-csv", csv_path)
        _, rows = read_table(csv_path)
        first = rows[0]
        assert first["network"] == "rectilinear"
        assert first["alpha"] == "0"
        assert first["straightness"] == "1"

    def test_square_wheel_bisector_value(self, tmp_path):
        csv_path = tmp_path / "curves.csv"
        run_cli("curve", "--steps", 5, "--out-csv", csv_path)
        _, rows = read_table(csv_path)
        last_k4 = [r for r in rows if r["network"] == "radial" and r["k"] == "4"][-1]
        assert float(last_k4["alpha"]) == pytest.approx(math.pi / 4, rel=1e-11)
        assert last_k4["straightness"] == "0.414213562"

    def test_sixteen_spokes_dominate_three(self, tmp_path):
        csv_path = tmp_path / "curves.csv"
        run_cli("curve", "--steps", 33, "--out-csv", csv_path)
        _, rows = read_table(csv_path)
        by_k = {}
        for r in rows:
            if r["network"] == "radial":
                by_k.setdefault(r["k"], []).append(float(r["straightness"]))
        assert all(a >= b for a, b in zip(by_k["16"], by_k["3"]))

    def test_svg_output(self, tmp_path):
        csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
        assert run_cli("curve", "--steps", 9, "--out-csv", csv_path, "--out-svg", svg_path) == 0
        svg = svg_path.read_text(encoding="utf-8")
        assert svg.count("<polyline") == 5
        assert "radial k=16" in svg

    def test_step_guard(self, tmp_path):
        assert run_cli("curve", "--steps", 1, "--out-csv", tmp_path / "c.csv") == 1

    def test_overflowing_alpha_max_refused(self, tmp_path, capsys):
        # 1e308 is finite, but the last of 3 samples, 2 * 1e308, is not
        args = ("curve", "--steps", 3, "--alpha-max", "1e308")
        assert run_cli(*args, "--out-csv", tmp_path / "c.csv") == 1
        err = capsys.readouterr().err
        assert "alpha_max must be finite and positive" in err
        assert err.count("\n") == 1


class TestSweeps:
    def test_rect_sweep(self, tmp_path):
        out = tmp_path / "rect.csv"
        assert run_cli("sweep-rect", "--sizes", "1..3", "--out", out) == 0
        header, rows = read_table(out)
        assert header == ["squares_per_side", "pair_count", "mean", "std_dev", "skipped"]
        assert [r["squares_per_side"] for r in rows] == ["1", "2", "3"]
        assert rows[0]["mean"] == "0.902368927"

    def test_radial_sweep_corner_only(self, tmp_path):
        out = tmp_path / "radial.csv"
        code = run_cli(
            "sweep-radial", "--radii", "3..4", "--rings", "1", "--subdivide", 1, "--out", out
        )
        assert code == 0
        header, rows = read_table(out)
        assert header == ["radii", "rings", "pair_count", "mean", "std_dev", "skipped"]
        assert [r["mean"] for r in rows] == ["1", "1"]

    def test_rect_size_guard(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli("sweep-rect", "--sizes", "400", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("straightnet: ") and err.count("\n") == 1
        assert "units of geodesic work, more than MAX_WORK=" in err
        assert not out.exists()

    def test_late_budget_refusal_is_immediate(self, tmp_path, capsys):
        # sizes 1..91 fit the budget; the refusal comes from the specs, not after them
        out = tmp_path / "r.csv"
        start = time.perf_counter()
        assert run_cli("sweep-rect", "--sizes", "1..400", "--out", out) == 1
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.err == (
            "straightnet: 552712103 units of geodesic work, more than MAX_WORK=536870912\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_bad_range_syntax(self, tmp_path):
        assert run_cli("sweep-rect", "--sizes", "5..1", "--out", tmp_path / "r.csv") == 1

    def test_huge_range_rejected_with_message(self, tmp_path, capsys):
        code = run_cli("sweep-rect", "--sizes", "1..1000000000000", "--out", tmp_path / "r.csv")
        assert code == 1
        assert f"more than {MAX_RANGE_VALUES} values" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "command, option",
        [("curve", "--radii"), ("sweep-rect", "--sizes"), ("sweep-radial", "--rings")],
    )
    def test_empty_range_option_is_refused(self, tmp_path, capsys, command, option):
        # argparse stores "--" as an empty list without calling _parse_range
        out = tmp_path / "table.csv"
        output = "--out-csv" if command == "curve" else "--out"
        assert run_cli(command, f"{option}=--", output, out) == 1
        assert capsys.readouterr().err == f"straightnet: {option} selects no values\n"
        assert not out.exists()


class TestParseRange:
    @pytest.mark.parametrize(
        "text, expected",
        [("8", [8]), ("3..6", [3, 4, 5, 6]), ("1,2,5", [1, 2, 5]), (" 1, 3..4,", [1, 3, 4])],
    )
    def test_accepted_forms(self, text, expected):
        assert _parse_range(text) == expected

    @pytest.mark.parametrize("text", ["", ",", "5..1", "x", "1..y", "1...3"])
    def test_malformed_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_range(text)

    def test_huge_range_rejected_before_expansion(self):
        with pytest.raises(argparse.ArgumentTypeError, match="more than"):
            _parse_range("1..1000000000000")

    def test_limit_counts_every_part(self):
        assert len(_parse_range(f"1..{MAX_RANGE_VALUES}")) == MAX_RANGE_VALUES
        with pytest.raises(argparse.ArgumentTypeError, match="more than"):
            _parse_range(f"0,1..{MAX_RANGE_VALUES}")


class TestStraightness:
    def test_summary_output(self, tmp_path, capsys):
        graph_path = tmp_path / "wheel.json"
        run_cli("gen", "radial", "--radii", 4, "--rings", 1, "--out", graph_path)
        capsys.readouterr()
        assert run_cli("straightness", graph_path) == 0
        out = capsys.readouterr().out
        assert "pairs:   10" in out
        assert "mean:    1.000000000" in out

    def test_pair_dump(self, tmp_path):
        graph_path = tmp_path / "grid.json"
        pairs_path = tmp_path / "pairs.csv"
        run_cli("gen", "rect", "--size", 1, "--out", graph_path)
        assert run_cli("straightness", graph_path, "--pairs-csv", pairs_path) == 0
        header, rows = read_table(pairs_path)
        assert header == ["u", "v", "d_spatial", "d_geodesic", "straightness"]
        assert len(rows) == 6
        diagonal = [r for r in rows if (r["u"], r["v"]) == ("0", "3")][0]
        assert diagonal["straightness"] == "0.707106781"
        assert diagonal["d_geodesic"] == "2"

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("straightness", tmp_path / "nope.json") == 3

    def test_corrupt_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]", encoding="utf-8")
        assert run_cli("straightness", bad) == 1

    def test_deeply_nested_file_is_one_line_usage_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert run_cli("straightness", deep) == 1
        err = capsys.readouterr().err
        assert "not valid JSON" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"nodes": 5, "edges": []}',
            '{"nodes": [], "edges": null}',
            '{"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],'
            ' "edges": [{"u": 0, "v": Infinity}]}',
            '{"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1.9, "x": 1, "y": 0}],'
            ' "edges": [{"u": 0, "v": 1}]}',
            '{"nodes": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": "1.5", "y": true}],'
            ' "edges": [{"u": 0, "v": 1}]}',
        ],
        ids=["int-nodes", "null-edges", "infinite-id", "fractional-id", "string-coordinate"],
    )
    def test_malformed_graph_is_one_line_usage_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert run_cli("straightness", bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("straightnet: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"nodes": [' + "[" * 500 + "]" * 500 + '], "edges": []}',
            '{"nodes": [[' + "0, " * 10_000 + '0]], "edges": []}',
            '{"nodes": [{"id": 0, "x": 0, "y": 0}], "edges": [{"u": "' + "9" * 5000 + '"}]}',
        ],
        ids=["nested-node", "wide-node", "long-edge"],
    )
    def test_malformed_entry_is_quoted_in_short(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert run_cli("straightness", bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("straightnet: malformed ") and err.count("\n") == 1
        assert len(err) < 120

    def test_edge_id_past_int64_is_an_unknown_node(self, tmp_path, capsys):
        path = write_graph_json(tmp_path / "g.json", [(0, 0), (1, 0)], [(0, 10**24)])
        assert run_cli("straightness", path) == 1
        err = capsys.readouterr().err
        assert err == f"straightnet: edge (0, {10**24}) references an unknown node id\n"

    def test_strict_mode_on_disconnected_graph(self, tmp_path):
        path = tmp_path / "parts.json"
        path.write_text(
            json.dumps(
                {
                    "nodes": [
                        {"id": 0, "x": 0, "y": 0},
                        {"id": 1, "x": 1, "y": 0},
                        {"id": 2, "x": 5, "y": 5},
                    ],
                    "edges": [{"u": 0, "v": 1}],
                }
            ),
            encoding="utf-8",
        )
        assert run_cli("straightness", path) == 0
        assert run_cli("straightness", path, "--strict") == 1

    def test_disconnected_graph_dump(self, tmp_path, capsys):
        path = write_graph_json(
            tmp_path / "parts.json",
            [(0, 0), (1, 0), (9, 9), (9, 10.5)],
            [(0, 1), (2, 3)],
        )
        pairs_path = tmp_path / "pairs.csv"
        assert run_cli("straightness", path, "--pairs-csv", pairs_path) == 0
        assert capsys.readouterr().out == (
            "nodes:   4\nedges:   2\npairs:   2\nskipped: 4\n"
            "mean:    1.000000000\nstd_dev: 0.000000000\n"
            f"pair table -> {pairs_path}\n"
        )
        assert pairs_path.read_bytes() == (
            b"u,v,d_spatial,d_geodesic,straightness\n"
            b"0,1,1,1,1\n"
            b"0,2,12.7279220614,inf,nan\n"
            b"0,3,13.8293166859,inf,nan\n"
            b"1,2,12.0415945788,inf,nan\n"
            b"1,3,13.2003787824,inf,nan\n"
            b"2,3,1.5,1.5,1\n"
        )

    def test_strict_dump_fails_without_writing_the_table(self, tmp_path, capsys):
        path = write_graph_json(tmp_path / "parts.json", [(0, 0), (1, 0), (5, 5)], [(0, 1)])
        pairs_path = tmp_path / "pairs.csv"
        code = run_cli("straightness", path, "--strict", "--pairs-csv", pairs_path)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "straightnet: 2 pair(s) unreachable or co-located\n"
        assert captured.out == ""
        assert not pairs_path.exists()

    def test_edgeless_dump_fails_without_writing_the_table(self, tmp_path, capsys):
        path = write_graph_json(tmp_path / "dots.json", [(0, 0), (1, 0)], [])
        pairs_path = tmp_path / "pairs.csv"
        assert run_cli("straightness", path, "--pairs-csv", pairs_path) == 1
        assert "no measurable pair" in capsys.readouterr().err
        assert not pairs_path.exists()

    @pytest.fixture(scope="class")
    def large_wheel(self, tmp_path_factory):
        """An 80,001-node wheel saved as JSON, so it loads without symmetries."""
        path = tmp_path_factory.mktemp("large") / "wheel.json"
        args = ("--radii", 200, "--rings", 100, "--subdivide", 4, "--out", path)
        assert run_cli("gen", "radial", *args) == 0
        return path

    @pytest.mark.parametrize("dump", [False, True])
    def test_work_past_the_budget_is_refused(self, large_wheel, tmp_path, capsys, dump):
        pairs_path = tmp_path / "pairs.csv"
        extra = ("--pairs-csv", pairs_path) if dump else ()
        capsys.readouterr()  # drop the fixture's own output
        assert run_cli("straightness", large_wheel, *extra) == 1
        captured = capsys.readouterr()
        # 80,001 sources x (80,001 nodes + 100,000 edges)
        message = "14400260001 units of geodesic work, more than MAX_WORK=536870912"
        assert captured.err == f"straightnet: {message}\n"
        assert captured.out == ""
        assert not pairs_path.exists()

    def test_dump_runs_geodesics_from_every_node(self, tmp_path, monkeypatch):
        from straightnet import metrics, shortest_paths

        graph_path = tmp_path / "grid.json"
        run_cli("gen", "rect", "--size", 5, "--out", graph_path)
        calls = []

        def counting(cells):
            for graph, sources in cells:
                calls.append(list(sources))
                yield graph, calls[-1]

        def spy(cells):
            return cell_geodesics(counting(cells))

        for module in (metrics, shortest_paths):  # every binding of the one search entry
            monkeypatch.setattr(module, "cell_geodesics", spy)
        assert run_cli("straightness", graph_path, "--pairs-csv", tmp_path / "p.csv") == 0
        assert calls == [list(range(36))]


class TestValidate:
    def test_all_checks_pass(self, capsys):
        assert run_cli("validate") == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 8
        assert "FAIL" not in out
        assert "pointwise win share" in out

    def test_violation_exits_two(self, monkeypatch, capsys):
        from straightnet import cli
        from straightnet.validation import CheckResult

        broken = [CheckResult("made-up check", 1.0, 1e-9)]
        monkeypatch.setattr(cli, "run_all_checks", lambda: broken)
        assert run_cli("validate") == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "made-up check" in captured.err

    def test_checks_search_each_graph_once(self, monkeypatch):
        from straightnet import metrics, validation

        batches = []

        def counting(cells):
            for graph, sources in cells:
                batches.append(list(sources))
                yield graph, batches[-1]

        monkeypatch.setattr(metrics, "cell_geodesics", lambda c: cell_geodesics(counting(c)))
        names = [r.name for r in validation.run_all_checks()]
        assert batches == [[0], [0]]  # grid s=10 and the (8, 3, 4) wheel
        assert names[-3:] == [
            "grid center curve",
            "radial center curve",
            "ring independence (homothety)",
        ]


class TestPlot:
    @pytest.mark.parametrize(
        "make_table, explicit",
        [
            (("sweep-rect", "--sizes", "1..4", "--out"),
             ("--x", "squares_per_side", "--y", "mean", "--series")),
            (("sweep-radial", "--radii", "3..5", "--rings", "1..2", "--out"),
             ("--x", "radii", "--y", "mean", "--series", "rings")),
            (("curve", "--steps", 9, "--out-csv"),
             ("--x", "alpha", "--y", "straightness", "--series", "network", "k")),
        ],
        ids=["rect-sweep", "radial-sweep", "curve"],
    )
    def test_autodetected_columns_match_explicit(self, tmp_path, make_table, explicit):
        csv_path = tmp_path / "t.csv"
        assert run_cli(*make_table, csv_path) == 0
        auto, manual = tmp_path / "auto.svg", tmp_path / "manual.svg"
        assert run_cli("plot", csv_path, "--out", auto) == 0
        assert run_cli("plot", csv_path, "--out", manual, *explicit) == 0
        assert auto.read_bytes() == manual.read_bytes()

    def test_curve_table_autodetected(self, tmp_path):
        csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
        run_cli("curve", "--steps", 9, "--out-csv", csv_path)
        assert run_cli("plot", csv_path, "--out", svg_path) == 0
        assert svg_path.read_text(encoding="utf-8").count("<polyline") == 5

    def test_radial_sweep_autodetected(self, tmp_path):
        csv_path, svg_path = tmp_path / "r.csv", tmp_path / "r.svg"
        run_cli("sweep-radial", "--radii", "3..5", "--rings", "1..2", "--subdivide", 1, "--out", csv_path)
        assert run_cli("plot", csv_path, "--out", svg_path) == 0
        svg = svg_path.read_text(encoding="utf-8")
        assert svg.count("<polyline") == 2  # one series per ring count

    def test_explicit_columns(self, tmp_path):
        csv_path, svg_path = tmp_path / "r.csv", tmp_path / "rings.svg"
        run_cli("sweep-radial", "--radii", "3..4", "--rings", "1..2", "--subdivide", 1, "--out", csv_path)
        code = run_cli(
            "plot", csv_path, "--out", svg_path, "--x", "rings", "--y", "mean", "--series", "radii"
        )
        assert code == 0
        assert "radii=3" in svg_path.read_text(encoding="utf-8")

    def test_unknown_table_layout_needs_columns(self, tmp_path):
        weird = tmp_path / "w.csv"
        weird.write_text("a,b\n1,2\n", encoding="utf-8")
        assert run_cli("plot", weird, "--out", tmp_path / "w.svg") == 1

    def test_empty_table_rejected(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("alpha,straightness,network,k\n", encoding="utf-8")
        assert run_cli("plot", empty, "--out", tmp_path / "e.svg") == 1

    @pytest.mark.parametrize(
        "row, fields", [("0.2", 1), ("0.2,0.8,radial,8,9", 5)], ids=["short", "long"]
    )
    def test_ragged_row_rejected(self, tmp_path, capsys, row, fields):
        table = tmp_path / "r.csv"
        table.write_text(
            f"alpha,straightness,network,k\n0.1,0.9,radial,8\n{row}\n", encoding="utf-8"
        )
        assert run_cli("plot", table, "--out", tmp_path / "r.svg") == 1
        err = capsys.readouterr().err
        assert err == f"straightnet: {table}: line 3 has {fields} fields, the header 4\n"
        assert not (tmp_path / "r.svg").exists()

    def test_overlong_field_is_one_line_usage_error(self, tmp_path, capsys):
        table = tmp_path / "big.csv"
        field = "9" * 200_000  # past the csv module's default field limit
        table.write_text(
            f"alpha,straightness,network,k\n0.1,0.9,radial,8\n0.2,{field},radial,8\n",
            encoding="utf-8",
        )
        assert run_cli("plot", table, "--out", tmp_path / "big.svg") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"straightnet: {table}: line 3: field larger than field limit")
        assert err.count("\n") == 1
        assert not (tmp_path / "big.svg").exists()


# JSON values that are not what a graph entry holds, or only just are
JUNK = st.sampled_from(
    [None, True, False, "", "1.5", [0], {}, -1, 1.5, 1e20, 2**70, 10**400]
    + [1e308, -1e308, math.inf, math.nan]
)


@st.composite
def graph_documents(draw):
    """Graph JSON: a well-formed graph with up to three faults put in."""
    n = draw(st.integers(0, 6))
    coordinate = st.one_of(st.integers(-3, 3), st.floats(-10.0, 10.0))
    points = st.lists(
        st.tuples(coordinate, coordinate),
        min_size=n,
        max_size=n,
        unique_by=lambda p: (float(p[0]), float(p[1])),
    )
    nodes = [{"id": i, "x": x, "y": y} for i, (x, y) in enumerate(draw(points))]
    nodes = draw(st.permutations(nodes))
    edges = []
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = pair.filter(lambda e: e[0] != e[1])
        ends = draw(st.lists(pairs, min_size=1, max_size=2 * n, unique_by=frozenset))
        edges = [{"u": u, "v": v} for u, v in ends]
    document = {"nodes": nodes, "edges": edges}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["value", "value", "key", "entry", "document"]))
        entries = draw(st.sampled_from([nodes, edges])) or nodes or edges
        if fault == "document" or not entries:
            return draw(st.one_of(JUNK, st.just({"nodes": nodes}), st.just({"edges": edges})))
        i = draw(st.integers(0, len(entries) - 1))
        if fault == "entry" or not isinstance(entries[i], dict) or not entries[i]:
            entries[i] = draw(JUNK)
            continue
        key = draw(st.sampled_from(sorted(entries[i])))
        if fault == "key":
            del entries[i][key]
        else:
            entries[i][key] = draw(JUNK)
    return document


class TestFuzzedInput:
    """Outside input ends in exit 0 or 1 with a one-line message, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(graph_documents(), st.booleans(), st.booleans())
    def test_graph_json(self, tmp_path_factory, document, strict, dump):
        base = tmp_path_factory.getbasetemp()
        graph_path, pairs_path = base / "fuzzed.json", base / "fuzzed.csv"
        graph_path.write_text(json.dumps(document), encoding="utf-8")
        args = ["straightness", graph_path] + ["--strict"] * strict
        args += ["--pairs-csv", pairs_path] * dump
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(*args)
        if code == 0:
            assert err.getvalue() == "" and "mean:" in out.getvalue()
        else:
            assert code == 1
            assert err.getvalue().startswith("straightnet: ")
            assert err.getvalue().count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.sampled_from("0123456789.,- _+x\u0663") | st.characters(), max_size=24))
    def test_range_text(self, text):
        try:
            values = _parse_range(text)
        except argparse.ArgumentTypeError:  # argparse reports it and exits with 1
            return
        assert 0 < len(values) <= MAX_RANGE_VALUES
        assert all(type(v) is int for v in values)


class TestArgumentHandling:
    def test_no_command(self):
        assert run_cli() == 1

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 1

    def test_unknown_flag(self):
        assert run_cli("validate", "--frobnicate") == 1

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_version_exits_zero(self):
        assert run_cli("--version") == 0


class TestDeterminism:
    def test_outputs_identical_across_repeated_runs(self, tmp_path):
        captured = {}
        for run in ("1", "2"):
            base = tmp_path / run
            base.mkdir()
            run_cli("gen", "rect", "--size", 3, "--out", base / "g.json")
            run_cli("curve", "--steps", 17, "--out-csv", base / "c.csv", "--out-svg", base / "c.svg")
            run_cli("sweep-rect", "--sizes", "1..4", "--out", base / "sr.csv")
            run_cli("sweep-radial", "--radii", "3..5", "--rings", "1..2", "--out", base / "sd.csv")
            run_cli("straightness", base / "g.json", "--pairs-csv", base / "p.csv")
            run_cli("plot", base / "c.csv", "--out", base / "plot.svg")
            captured[run] = {
                name: (base / name).read_bytes()
                for name in ("g.json", "c.csv", "c.svg", "sr.csv", "sd.csv", "p.csv", "plot.svg")
            }
        assert captured["1"] == captured["2"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "straightnet", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
