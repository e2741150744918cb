"""Minimal dependency-free SVG line charts for curve and sweep tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

WIDTH, HEIGHT = 800, 500
MARGIN_LEFT, MARGIN_RIGHT = 70, 160
MARGIN_TOP, MARGIN_BOTTOM = 40, 60

PALETTE = [
    "#d62728",  # red
    "#9467bd",  # purple
    "#1f77b4",  # blue
    "#2ca02c",  # green
    "#17becf",  # cyan
    "#ff7f0e",  # orange
    "#8c564b",  # brown
    "#7f7f7f",  # gray
]


@dataclass(frozen=True)
class Series:
    label: str
    points: tuple[tuple[float, float], ...]


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(
    series_list: Sequence[Series],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Render series as a fixed 800x500 chart with a reference line at y=1.

    Output is a pure function of the input: identical tables give byte
    identical SVG.  Single-point series are drawn as a marker instead of a
    degenerate polyline.
    """
    if not series_list or all(len(s.points) == 0 for s in series_list):
        raise ValueError("nothing to plot: no series with points")

    xs = [x for s in series_list for x, _ in s.points]
    ys = [y for s in series_list for _, y in s.points]
    x_min, x_max = min(xs), max(xs)
    if x_min == x_max:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    # Straightness-style axis: always include the optimum line y=1.
    y_max = 1.05 * max(1.0, max(ys))
    y_min = 0.0

    plot_left, plot_right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    plot_top, plot_bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = plot_left + (x - x_min) / (x_max - x_min) * (plot_right - plot_left)
        py = plot_bottom - (y - y_min) / (y_max - y_min) * (plot_bottom - plot_top)
        return px, py

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="16" font-family="sans-serif">{_escape(title)}</text>'
        )

    # Horizontal grid with y tick labels.
    for i in range(6):
        y_val = y_min + (y_max - y_min) * i / 5
        _, py = to_px(x_min, y_val)
        out.append(
            f'<line x1="{plot_left}" y1="{py:.2f}" x2="{plot_right}" y2="{py:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{plot_left - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{y_val:.2f}</text>'
        )

    # x ticks.
    for i in range(6):
        x_val = x_min + (x_max - x_min) * i / 5
        px, _ = to_px(x_val, y_min)
        out.append(
            f'<line x1="{px:.2f}" y1="{plot_bottom}" x2="{px:.2f}" '
            f'y2="{plot_bottom + 5}" stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{plot_bottom + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{x_val:.3g}</text>'
        )

    # Axes.
    out.append(
        f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" '
        f'y2="{plot_bottom}" stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{plot_left}" y1="{plot_top}" x2="{plot_left}" '
        f'y2="{plot_bottom}" stroke="#000000" stroke-width="1.5"/>'
    )

    # Optimum reference: dashed horizontal line at straightness 1.
    _, ref_py = to_px(x_min, 1.0)
    out.append(
        f'<line x1="{plot_left}" y1="{ref_py:.2f}" x2="{plot_right}" '
        f'y2="{ref_py:.2f}" stroke="#000000" stroke-width="1" '
        'stroke-dasharray="6 4"/>'
    )

    legend_x = plot_right + 14
    legend_y = plot_top + 10
    for idx, series in enumerate(series_list):
        color = PALETTE[idx % len(PALETTE)]
        pixels = [to_px(x, y) for x, y in series.points]
        if len(pixels) == 1:
            px, py = pixels[0]
            out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}"/>')
        else:
            joined = " ".join(f"{px:.2f},{py:.2f}" for px, py in pixels)
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
                f'points="{joined}"/>'
            )
        ly = legend_y + idx * 20
        out.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        out.append(
            f'<text x="{legend_x + 28}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{_escape(series.label)}</text>'
        )

    out.append(
        f'<text x="{(plot_left + plot_right) / 2:.1f}" y="{HEIGHT - 16}" '
        f'text-anchor="middle" font-size="13" font-family="sans-serif">'
        f"{_escape(x_label)}</text>"
    )
    out.append(
        f'<text x="20" y="{(plot_top + plot_bottom) / 2:.1f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 20 {(plot_top + plot_bottom) / 2:.1f})">'
        f"{_escape(y_label)}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def series_from_table(
    header: list[str],
    rows: list[dict[str, str]],
    x_column: str,
    y_column: str,
    series_columns: Sequence[str] = (),
) -> list[Series]:
    """Group table rows into plottable series.

    Series are keyed by the joined values of ``series_columns`` (a single
    unnamed series when empty) and appear in first-seen row order.
    """
    for column in (x_column, y_column, *series_columns):
        if column not in header:
            raise ValueError(f"column {column!r} not in table header {header}")
    grouped: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if series_columns:
            label = " ".join(f"{col}={row[col]}" for col in series_columns)
        else:
            label = y_column
        x, y = float(row[x_column]), float(row[y_column])
        if math.isfinite(x) and math.isfinite(y):  # pair dumps may carry nan/inf
            grouped.setdefault(label, []).append((x, y))
    return [Series(label, tuple(points)) for label, points in grouped.items()]


def write_svg(path, svg_text: str) -> None:
    Path(path).write_text(svg_text, encoding="utf-8")
