import hashlib
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straightnet.analytic import analytic_curve
from straightnet.cli import main
from straightnet.svgplot import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    WIDTH,
    Series,
    render_svg,
    write_svg,
)
from straightnet.tables import plot_series


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


X_TICK_LABEL = re.compile(
    f'<text x="[^"]*" y="{HEIGHT - MARGIN_BOTTOM + 20}" text-anchor="middle" '
    'font-size="12" font-family="sans-serif">([^<]*)</text>'
)

Y_TICK_LABEL = re.compile(
    f'<text x="{MARGIN_LEFT - 8}" y="[^"]*" text-anchor="end" '
    'font-size="12" font-family="sans-serif">([^<]*)</text>'
)
# legend labels start 42 px right of the plot frame
LEGEND_TEXT = re.compile(f'<text x="{WIDTH - MARGIN_RIGHT + 42}" y="([^"]*)"[^>]*>([^<]*)</text>')


def drawn_points(svg):
    """The pixel position of every polyline vertex and marker."""
    vertices = " ".join(re.findall(r'points="([^"]*)"', svg)).split()
    points = [tuple(map(float, v.split(","))) for v in vertices]
    return points + [tuple(map(float, c)) for c in re.findall(r'cx="([^"]*)" cy="([^"]*)"', svg)]


def in_frame(point):
    px, py = point
    return MARGIN_LEFT <= px <= WIDTH - MARGIN_RIGHT and MARGIN_TOP <= py <= HEIGHT - MARGIN_BOTTOM


@st.composite
def finite_charts(draw):
    """1-3 series of 1-10 points with |v| <= 1e300; some with one x, some with every y < 0."""
    finite = st.floats(-1e300, 1e300)
    xs = st.just(draw(finite)) if draw(st.booleans()) else finite
    ys = st.floats(-1e300, 0.0, exclude_max=True) if draw(st.booleans()) else finite
    points = st.lists(st.tuples(xs, ys), min_size=1, max_size=10)
    drawn = draw(st.lists(points, min_size=1, max_size=3))
    return [Series(f"s{i}", tuple(p)) for i, p in enumerate(drawn)]


class TestAxesFitTheData:
    def test_negative_y_is_drawn_inside_the_frame(self):
        svg = render_svg([Series("s", ((0.0, -5.0), (1.0, 0.5), (2.0, 0.9)))], "x", "y")
        assert all(in_frame(p) for p in drawn_points(svg))
        assert ">-5.00</text>" in svg  # the lowest y tick

    @pytest.mark.parametrize("x", [1e17, -1e17, 2.0**53, 1e300])
    def test_constant_x_of_any_magnitude_is_widened(self, x):
        svg = render_svg([Series("s", ((x, 0.5), (x, 0.9)))], "x", "y")
        assert len(set(X_TICK_LABEL.findall(svg))) == 6
        assert drawn_points(svg) == [(355.0, 249.52), (355.0, 97.14)]  # the middle

    def test_y_near_the_float_maximum_is_refused(self):
        message = "y axis for values 0.5 to 1.7e+308 overflows"
        with pytest.raises(ValueError, match=re.escape(message)):
            render_svg([Series("s", ((0.0, 0.5), (1.0, 1.7e308)))], "x", "y")

    def test_close_x_ticks_get_the_digits_that_tell_them_apart(self):
        svg = render_svg([Series("s", ((1000.0, 0.5), (1001.0, 0.9)))], "x", "y")
        labels = ["1000", "1000.2", "1000.4", "1000.6", "1000.8", "1001"]
        assert X_TICK_LABEL.findall(svg) == labels

    @pytest.mark.parametrize(
        "y, labels",
        [
            (1e4, ["0.00", "2100.00", "4200.00", "6300.00", "8400.00", "10500.00"]),
            (1e300, ["0", "2.1e+299", "4.2e+299", "6.3e+299", "8.4e+299", "1.05e+300"]),
            (-1e6, ["-1e+06", "-8e+05", "-6e+05", "-4e+05", "-2e+05", "1.05"]),
        ],
    )
    def test_y_tick_labels_past_eight_characters_take_the_x_digits(self, y, labels):
        svg = render_svg([Series("s", ((0.0, y), (1.0, 0.5)))], "x", "y")
        assert Y_TICK_LABEL.findall(svg) == labels

    @pytest.mark.parametrize("count, last", [(23, "s22"), (24, "+2 more"), (30, "+8 more")])
    def test_legend_stays_on_the_canvas(self, count, last):
        series = [Series(f"s{i}", ((0.0, i / 30), (1.0, 0.5))) for i in range(count)]
        svg = render_svg(series, "x", "y")
        legend = LEGEND_TEXT.findall(svg)
        assert len(legend) == min(count, 23) and legend[-1][1] == last
        assert all(float(y) <= HEIGHT for y, _ in legend)
        assert svg.count("<polyline") == count  # every series is still drawn

    def test_x_too_close_for_six_ticks_is_refused(self):
        with pytest.raises(ValueError, match="too close for six ticks"):
            render_svg([Series("s", ((0.0, 0.5), (5e-324, 0.9)))], "x", "y")

    @settings(max_examples=300, deadline=None)
    @given(finite_charts())
    def test_any_finite_chart_fits_or_is_refused(self, series):
        try:
            svg = render_svg(series, "x", "y")
        except ValueError:
            return
        assert "nan" not in svg and "inf" not in svg
        assert len(set(X_TICK_LABEL.findall(svg))) == 6
        assert all(len(label) <= 10 for label in Y_TICK_LABEL.findall(svg))  # "-1.05e+300"
        assert all(in_frame(p) for p in drawn_points(svg))


class TestSeriesFromTable:
    """``tables.plot_series`` groups the rows of a table into series."""

    HEADER = ["alpha", "straightness", "network", "k"]

    def table(self, tmp_path):
        lines = [",".join(self.HEADER)]
        for k in (3, 4):
            for i in range(3):
                lines.append(f"{i * 0.1},{1.0 - 0.05 * i},radial,{k}")
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_grouping(self, tmp_path):
        _, _, series = plot_series(
            self.table(tmp_path), "alpha", "straightness", ["network", "k"]
        )
        assert [s.label for s in series] == ["network=radial k=3", "network=radial k=4"]
        assert all(len(s.points) == 3 for s in series)

    def test_single_series_when_no_group_columns(self, tmp_path):
        _, _, series = plot_series(self.table(tmp_path), "alpha", "straightness")
        assert len(series) == 1
        assert len(series[0].points) == 6
        assert series[0].label == "straightness"

    def test_unknown_column_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not in table"):
            plot_series(self.table(tmp_path), "angle", "straightness")

    def test_points_parse_as_floats(self, tmp_path):
        _, _, series = plot_series(self.table(tmp_path), "alpha", "straightness", ["k"])
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
