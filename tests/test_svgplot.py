import math

import pytest

from straightnet import Series, analytic_curve, render_svg
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
