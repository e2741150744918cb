"""Minimal dependency-free SVG line charts of point series."""

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
LEGEND_ROWS = 23  # 20-px legend rows from y = 50 that fit the canvas


@dataclass(frozen=True)
class Series:
    label: str
    points: tuple[tuple[float, float], ...]


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1, y1, x2, y2, stroke: str, width, extra: str = "") -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
        f'stroke-width="{width}"{extra}/>'
    )


def _text(x, y, size: int, text: str, anchor: str = "", extra: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-size="{size}" '
        f'font-family="sans-serif"{extra}>{_escape(text)}</text>'
    )


def _tick_labels(ticks: list[float]) -> list[str]:
    """Distinct ``ticks`` with the fewest significant digits, at least 3, that tell them apart."""
    digits = next(d for d in range(3, 18) if len({f"{t:.{d}g}" for t in ticks}) == len(ticks))
    return [f"{t:.{digits}g}" for t in ticks]


def render_svg(
    series_list: Sequence[Series], x_label: str, y_label: str, title: str = ""
) -> str:
    """Render series as a fixed 800x500 chart with a reference line at y=1.

    Output is a pure function of the input: identical series give byte
    identical SVG.  Single-point series are drawn as a marker instead of a
    degenerate polyline.  A point that is not finite, an axis whose span
    overflows a float, or x values too close for six distinct ticks raise
    ``ValueError``.  Past 23 series the legend's last row reads ``+N more``.
    """
    if not series_list or all(len(s.points) == 0 for s in series_list):
        raise ValueError("nothing to plot: no series with points")
    for label, (x, y) in ((s.label, p) for s in series_list for p in s.points):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"series {label!r}: point ({x}, {y}) is not finite")

    xs = [x for s in series_list for x, _ in s.points]
    ys = [y for s in series_list for _, y in s.points]
    x_min, x_max = min(xs), max(xs)
    if x_min == x_max:  # widened by enough to tell the ends apart at any magnitude
        pad = max(0.5, 1e-9 * abs(x_min))
        x_min, x_max = x_min - pad, x_max + pad
    # Straightness-style axis: always include 0 and the optimum line y=1.
    y_max = 1.05 * max(1.0, max(ys))
    y_min = min(0.0, min(ys))
    for axis, values, low, high in (("x", xs, x_min, x_max), ("y", ys, y_min, y_max)):
        if not math.isfinite((high - low) * 5):  # the ticks' (high - low) * i / 5
            raise ValueError(f"{axis} axis for values {min(values)} to {max(values)} overflows")
    x_ticks = [x_min + (x_max - x_min) * i / 5 for i in range(6)]
    if len(set(x_ticks)) < 6:
        raise ValueError(f"x values from {min(xs)} to {max(xs)} are too close for six ticks")
    y_ticks = [y_min + (y_max - y_min) * i / 5 for i in range(6)]
    y_labels = [f"{t:.2f}" for t in y_ticks]
    if max(map(len, y_labels)) > 8:  # wider than the left margin holds
        y_labels = _tick_labels(y_ticks)

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
        out.append(_text(f"{WIDTH / 2:.1f}", 24, 16, title, "middle"))

    # Horizontal grid with y tick labels.
    for y_val, label in zip(y_ticks, y_labels):
        _, py = to_px(x_min, y_val)
        out.append(_line(plot_left, f"{py:.2f}", plot_right, f"{py:.2f}", "#dddddd", 1))
        out.append(_text(plot_left - 8, f"{py + 4:.2f}", 12, label, "end"))

    # x ticks.
    for x_val, label in zip(x_ticks, _tick_labels(x_ticks)):
        px, _ = to_px(x_val, y_min)
        out.append(_line(f"{px:.2f}", plot_bottom, f"{px:.2f}", plot_bottom + 5, "#000000", 1))
        out.append(_text(f"{px:.2f}", plot_bottom + 20, 12, label, "middle"))

    # Axes.
    out.append(_line(plot_left, plot_bottom, plot_right, plot_bottom, "#000000", 1.5))
    out.append(_line(plot_left, plot_top, plot_left, plot_bottom, "#000000", 1.5))

    # Optimum reference: dashed horizontal line at straightness 1.
    ref = f"{to_px(x_min, 1.0)[1]:.2f}"
    out.append(_line(plot_left, ref, plot_right, ref, "#000000", 1, ' stroke-dasharray="6 4"'))

    legend_x, legend_y = plot_right + 14, plot_top + 10
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
        if len(series_list) <= LEGEND_ROWS or idx < LEGEND_ROWS - 1:
            out.append(_line(legend_x, ly, legend_x + 22, ly, color, 3))
            out.append(_text(legend_x + 28, ly + 4, 12, series.label))
        elif idx == LEGEND_ROWS - 1:  # its last row counts the series left out
            out.append(_text(legend_x + 28, ly + 4, 12, f"+{len(series_list) - idx} more"))

    out.append(_text(f"{(plot_left + plot_right) / 2:.1f}", HEIGHT - 16, 13, x_label, "middle"))
    mid = f"{(plot_top + plot_bottom) / 2:.1f}"
    out.append(_text(20, mid, 13, y_label, "middle", f' transform="rotate(-90 20 {mid})"'))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, svg_text: str) -> None:
    Path(path).write_text(svg_text, encoding="utf-8")
