import hashlib
import json
import math
import re

import pytest

from straightnet import Series, analytic_curve, render_svg
from straightnet.cli import main
from straightnet.svgplot import series_from_table, write_svg


def curve_series(count=5):
    kinds = [("rectilinear", None)] + [("radial", k) for k in (3, 4, 8, 16)]
    return [
        Series(
            "rectilinear" if kind == "rectilinear" else f"radial k={k}",
            tuple(analytic_curve(kind, k, 25)),
        )
        for kind, k in kinds[:count]
    ]


class TestRenderSvg:
    def test_one_polyline_per_series_plus_reference(self):
        svg = render_svg(curve_series(), "alpha", "straightness")
        assert svg.count("<polyline") == 5
        assert svg.count("stroke-dasharray") == 1

    def test_fixed_viewport(self):
        svg = render_svg(curve_series(1), "alpha", "straightness")
        assert 'width="800"' in svg
        assert 'height="500"' in svg
        assert 'viewBox="0 0 800 500"' in svg

    def test_legend_carries_labels(self):
        svg = render_svg(curve_series(), "alpha", "straightness")
        for label in ("rectilinear", "radial k=3", "radial k=16"):
            assert f">{label}</text>" in svg

    def test_byte_determinism(self):
        a = render_svg(curve_series(), "alpha", "straightness", title="curves")
        b = render_svg(curve_series(), "alpha", "straightness", title="curves")
        assert a == b

    def test_single_point_series_becomes_marker(self):
        svg = render_svg([Series("dot", ((0.5, 0.9),))], "x", "y")
        assert "<circle" in svg
        assert "<polyline" not in svg

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            render_svg([], "x", "y")
        with pytest.raises(ValueError, match="nothing to plot"):
            render_svg([Series("empty", ())], "x", "y")

    def test_labels_are_escaped(self):
        svg = render_svg([Series("a<b&c", ((0.0, 1.0), (1.0, 0.5)))], "x<y", "s&t")
        assert "a&lt;b&amp;c" in svg
        assert "x&lt;y" in svg

    def test_reference_line_present_even_below_one(self):
        # all values below 1: the optimum line must still be inside the frame
        svg = render_svg([Series("low", ((0.0, 0.4), (1.0, 0.5)))], "x", "y")
        assert "stroke-dasharray" in svg

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_point_rejected(self, bad, axis):
        point = (bad, 0.5) if axis == "x" else (0.5, bad)
        series = [Series("ok", ((0.0, 1.0), (1.0, 0.5))), Series("k<3", ((0.0, 0.2), point))]
        message = f"series 'k<3': point ({point[0]}, {point[1]}) is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            render_svg(series, "x", "y")

    def test_write_svg(self, tmp_path):
        path = tmp_path / "plot.svg"
        write_svg(path, render_svg(curve_series(2), "alpha", "straightness"))
        content = path.read_text(encoding="utf-8")
        assert content.startswith("<svg")
        assert content.endswith("</svg>\n")


class TestSeriesFromTable:
    HEADER = ["alpha", "straightness", "network", "k"]

    def rows(self):
        out = []
        for k in (3, 4):
            for i in range(3):
                out.append(
                    {
                        "alpha": str(i * 0.1),
                        "straightness": str(1.0 - 0.05 * i),
                        "network": "radial",
                        "k": str(k),
                    }
                )
        return out

    def test_grouping(self):
        series = series_from_table(
            self.HEADER, self.rows(), "alpha", "straightness", ["network", "k"]
        )
        assert [s.label for s in series] == ["network=radial k=3", "network=radial k=4"]
        assert all(len(s.points) == 3 for s in series)

    def test_single_series_when_no_group_columns(self):
        series = series_from_table(self.HEADER, self.rows(), "alpha", "straightness")
        assert len(series) == 1
        assert len(series[0].points) == 6

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="not in table"):
            series_from_table(self.HEADER, self.rows(), "angle", "straightness")

    def test_points_parse_as_floats(self):
        series = series_from_table(self.HEADER, self.rows(), "alpha", "straightness", ["k"])
        x, y = series[0].points[1]
        assert x == pytest.approx(0.1)
        assert y == pytest.approx(0.95)


def test_full_figure_smoke():
    """The comparison figure: grid curve and four wheel curves over [0, pi/4]."""
    series = curve_series()
    svg = render_svg(series, "direction alpha (rad)", "straightness")
    assert svg.count("<polyline") == len(series)
    # every curve starts at the optimum on the first spoke direction
    assert all(s.points[0][1] == 1.0 for s in series)
    assert series[0].points[-1][1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


# sha256 of each chart as written by render_svg before its <line> and <text>
# elements shared one template each (computed on the code that still spelled
# out every element), so that refactor and any later one keep every byte.
PINNED_CHARTS = {
    "escaped title and labels": (
        [Series("a<b&c", ((0.0, 1.0), (1.0, 0.5))), Series("k>2", ((0.0, 0.2), (2.0, 0.9)))],
        "x<y",
        "s&t",
        "title <&> here",
        "c7850862281d32bafdbb9b237b9d4d344fda410f37dc071b5d924d75d5d92229",
    ),
    "single point": (
        [Series("dot", ((0.5, 0.9),))],
        "x",
        "y",
        "",
        "429a314522f4b33f7f47a8ff81afdd5856c64bd27a2d9556a51bf20190fdf198",
    ),
    "palette wraps": (
        [Series(f"s{i}", ((0.0, i / 10), (1.0, 1 - i / 20))) for i in range(9)],
        "x",
        "y",
        "",
        "68dd24a06ea41b4fd64feeecf635cbb0eaf98333c6de64640dcd6c719666ff4e",
    ),
    "equal x": (
        [Series("col", ((2.0, 0.3), (2.0, 0.8)))],
        "x",
        "y",
        "",
        "e30c6b8c54aed1cd814b8d40c2dc439485aba8b799c22215abc5dd03be5b6a1d",
    ),
    "above one": (
        [Series("up", ((0.0, 0.5), (1.0, 1.7), (2.0, 3.25)))],
        "x",
        "y",
        "peak",
        "a381bae9036606b942d90397e7cad2b9b85dee0bed7e7e4c2c400569c4913fff",
    ),
}
PINNED_PLOTS = {
    "curve": "024c8855350d9668feff8fedb145ab4b1483155290edcd38547ba7d1529fbc58",
    "sweep-rect": "a2e64f57f521919b13bb8ca6f61918ab48469a1cd0491c24ae774ff1a2729229",
    "sweep-radial": "f9af4645501c7111f97b43aa8382af1dd30ceead7c341cb56695bcdd679bf31f",
    "pairs straightness": "467668bce6cb779686b8f1b256f66068dda4ca57363a2093d117c40233d55caf",
    "pairs d_geodesic": "764560f6bb097fb426c91dff50d722ed6353f5cea3fa028781a6eddf7b0a1731",
}


@pytest.mark.parametrize("name", PINNED_CHARTS)
def test_chart_bytes_are_pinned(name):
    *args, digest = PINNED_CHARTS[name]
    assert hashlib.sha256(render_svg(*args).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", PINNED_PLOTS)
def test_cli_svg_bytes_are_pinned(name, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    table = tmp_path / "table.csv"
    if name == "curve":
        commands = [["curve", "--out-csv", table, "--out-svg", svg]]
    elif name == "sweep-rect":
        commands = [["sweep-rect", "--sizes", "1..4", "--out", table], ["plot", table, "--out", svg]]
    elif name == "sweep-radial":
        sweep = ["sweep-radial", "--radii", "3..4", "--rings", "1..2", "--out", table]
        commands = [sweep, ["plot", table, "--out", svg]]
    else:  # a pair dump of two parts: its inf/nan rows are left out of the plot
        graph = tmp_path / "parts.json"
        nodes = [(0, 0), (1, 0), (9, 9), (9, 10.5)]
        graph.write_text(
            json.dumps(
                {
                    "nodes": [{"id": i, "x": x, "y": y} for i, (x, y) in enumerate(nodes)],
                    "edges": [{"u": 0, "v": 1}, {"u": 2, "v": 3}],
                }
            ),
            encoding="utf-8",
        )
        y = name.split()[1]
        commands = [
            ["straightness", graph, "--pairs-csv", table],
            ["plot", table, "--x", "d_spatial", "--y", y, "--out", svg],
        ]
    for command in commands:
        assert main([str(a) for a in command]) == 0
    capsys.readouterr()
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == PINNED_PLOTS[name]
