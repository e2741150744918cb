"""The table schemas: exact bytes of small tables, the pair table's number
formatting, and the plot defaults."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from straightnet import sweep_radial, sweep_rectilinear, tables
from straightnet.cli import main
from straightnet.tables import (
    PAIRS_HEADER,
    SWEEP_SUMMARY_HEADER,
    plot_series,
    write_sweep_csv,
)

CURVE_BYTES = (
    b"alpha,straightness,network,k\n"
    b"0,1,rectilinear,4\n"
    b"0.392699081699,0.765366865,rectilinear,4\n"
    b"0.785398163397,0.707106781,rectilinear,4\n"
)
RECT_SWEEP_BYTES = (
    b"squares_per_side,pair_count,mean,std_dev,skipped\n"
    b"1,6,0.902368927,0.138071187,0\n"
)
RADIAL_SWEEP_BYTES = b"radii,rings,pair_count,mean,std_dev,skipped\n4,1,10,1,0,0\n"


def curve_table(tmp_path):
    path = tmp_path / "curves.csv"
    args = ["curve", "--kinds", "rectilinear", "--steps", "3", "--out-csv", str(path)]
    assert main(args) == 0
    return path


def rect_sweep_table(tmp_path):
    path = tmp_path / "rect.csv"
    write_sweep_csv(path, sweep_rectilinear([1]))
    return path


def radial_sweep_table(tmp_path):
    path = tmp_path / "radial.csv"
    write_sweep_csv(path, sweep_radial([4], [1], subdivision=1))
    return path


class TestExactBytes:
    @pytest.mark.parametrize(
        "table, expected",
        [
            (curve_table, CURVE_BYTES),
            (rect_sweep_table, RECT_SWEEP_BYTES),
            (radial_sweep_table, RADIAL_SWEEP_BYTES),
        ],
        ids=["curve", "rect-sweep", "radial-sweep"],
    )
    def test_table_bytes(self, tmp_path, table, expected):
        assert table(tmp_path).read_bytes() == expected


def decimal_edges():
    """Doubles where %g's digits are hardest to get from one rounded multiply:
    nearest doubles to decimal ties at 9 and 12 digits, powers of ten, and
    their neighbours either side; and the values that are never printed
    from digits."""
    ties = (123456788, 123456789, 123456789012, 123456789013)
    centres = [(m + 0.5) * 10.0**j for m in ties for j in range(-16, 5)]
    centres += [10.0**j for j in range(-6, 17)]
    values = [5e-324, 1e-4, 9.99999999999e-05, 999999999999.5, -0.0, -1.5, math.inf, math.nan]
    for c in centres:
        values += [math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)]
    return values


def with_examples(values):
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test

    return decorate


def column_text(values, digits):
    """A column of floats as the pair writer prints it, one per line."""
    return tables._lines([tables._floats(np.array(values, dtype=float), digits)])


class TestFloatColumns:
    @given(st.floats())
    @with_examples(decimal_edges())
    def test_every_double_prints_as_percent_g(self, x):
        for digits in (9, 12):
            assert column_text([x], digits) == b"%.*g\n" % (digits, x)

    @given(st.lists(st.floats(), min_size=1, max_size=50))
    @example(decimal_edges())
    def test_columns_print_as_percent_g(self, values):
        for digits in (9, 12):
            assert column_text(values, digits) == b"".join(b"%.*g\n" % (digits, x) for x in values)


class TestIntegerColumns:
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=50))
    @example([0, 10**4])  # 0 beside a value of two words
    @example([9999, 0, 7])  # every value one word
    def test_columns_print_as_percent_d(self, values):
        text = tables._lines([tables._integers(np.array(values, dtype=np.int64))])
        assert text == b"".join(b"%d\n" % v for v in values)


class TestPlotColumns:
    """The columns ``tables.plot_series`` plots when no x column is given."""

    @staticmethod
    def plotted(path, **columns):
        x, y, series = plot_series(path, **columns)
        return x, y, [s.label for s in series]

    def test_curve_table(self, tmp_path):
        labels = ["network=rectilinear k=4"]
        assert self.plotted(curve_table(tmp_path)) == ("alpha", "straightness", labels)

    def test_rect_sweep_table(self, tmp_path):
        assert self.plotted(rect_sweep_table(tmp_path)) == ("squares_per_side", "mean", ["mean"])

    def test_radial_sweep_table(self, tmp_path):
        assert self.plotted(radial_sweep_table(tmp_path)) == ("radii", "mean", ["rings=1"])

    @pytest.mark.parametrize(
        "columns, expected",
        [
            ({"y": "std_dev"}, ("radii", "std_dev", ["rings=1"])),
            ({"series": []}, ("radii", "mean", ["mean"])),
            ({"y": "pair_count", "series": ["skipped"]}, ("radii", "pair_count", ["skipped=0"])),
        ],
        ids=["y", "no-series", "both"],
    )
    def test_given_y_or_series_override_the_defaults(self, tmp_path, columns, expected):
        assert self.plotted(radial_sweep_table(tmp_path), **columns) == expected

    @pytest.mark.parametrize(
        "header",
        [PAIRS_HEADER, ["a", "b"], SWEEP_SUMMARY_HEADER, SWEEP_SUMMARY_HEADER[1:], []],
        ids=["pairs", "unknown", "summary-only", "short", "empty"],
    )
    def test_other_tables_have_none(self, tmp_path, header):
        path = tmp_path / "t.csv"
        text = ",".join(header) + "\n" + ",".join("1" * len(header)) + "\n"
        path.write_text(text, encoding="utf-8")
        # an empty header holds no data row, so it is refused before the defaults
        message = "cannot infer plot columns" if header else "no data rows"
        with pytest.raises(ValueError, match=message):
            plot_series(path)


def test_plot_keeps_only_the_points_it_draws(tmp_path):
    # a dict of strings per row, as a reader of whole rows keeps, is about 590 B a row
    path, rows = tmp_path / "pairs.csv", 20_000
    lines = [",".join(PAIRS_HEADER)]
    for i in range(rows):
        d = 1.0 + i / rows
        lines.append(f"{i // 200},{i % 200 + 200},{d:.12g},{1.25 * d:.12g},{0.8:.9g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        _, _, series = plot_series(path, "d_spatial", "straightness")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(s.points) for s in series] == [rows]
    assert peak < 200 * rows
