"""The table schemas: exact bytes of small tables and their plot defaults."""

import pytest

from straightnet import sweep_radial, sweep_rectilinear
from straightnet.cli import main
from straightnet.tables import (
    PAIRS_HEADER,
    SWEEP_SUMMARY_HEADER,
    plot_columns,
    read_table,
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


class TestPlotColumns:
    def test_curve_table(self, tmp_path):
        header, _ = read_table(curve_table(tmp_path))
        assert plot_columns(header) == ("alpha", "straightness", ["network", "k"])

    def test_rect_sweep_table(self, tmp_path):
        header, _ = read_table(rect_sweep_table(tmp_path))
        assert plot_columns(header) == ("squares_per_side", "mean", [])

    def test_radial_sweep_table(self, tmp_path):
        header, _ = read_table(radial_sweep_table(tmp_path))
        assert plot_columns(header) == ("radii", "mean", ["rings"])

    @pytest.mark.parametrize(
        "header",
        [PAIRS_HEADER, ["a", "b"], SWEEP_SUMMARY_HEADER, SWEEP_SUMMARY_HEADER[1:], []],
        ids=["pairs", "unknown", "summary-only", "short", "empty"],
    )
    def test_other_tables_have_none(self, header):
        assert plot_columns(header) is None
