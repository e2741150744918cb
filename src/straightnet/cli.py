"""Command line surface: generators, analytic curves, sweeps and plots.

Exit codes: 0 success, 1 invalid arguments or input data, 2 validation
check violated, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .analytic import analytic_curve, check_curve_samples, dominance_fraction
from .generators import (
    GridSpec,
    RadialSpec,
    generate_radioconcentric,
    generate_rectilinear,
)
from .metrics import summarize, summarize_moments
from .model import load_graph, save_graph
from .svgplot import Series, render_svg, write_svg
from .sweeps import DEFAULT_SWEEP_SUBDIVISION, sweep_radial, sweep_rectilinear
from .tables import plot_series, write_curve_csv, write_pairs_csv, write_sweep_csv
from .validation import run_all_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

DEFAULT_CURVE_RADII = (3, 4, 8, 16)

# Most values a range expression, or cells a radial sweep, may select; checked first.
MAX_RANGE_VALUES = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_range(text: str) -> list[int]:
    """Accept '8', '3..20' and '1,2,5' style integer selections.

    Raises ``argparse.ArgumentTypeError``, whose message argparse reports
    as is, on junk, empty ranges and selections of more than
    ``MAX_RANGE_VALUES`` values.
    """
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dots, hi = part.partition("..")
        try:
            start = int(lo)
            stop = int(hi) if dots else start
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {part!r}") from exc
        if stop < start:
            raise argparse.ArgumentTypeError(f"empty range {part!r}")
        if len(values) + stop - start + 1 > MAX_RANGE_VALUES:
            raise argparse.ArgumentTypeError(
                f"{text!r} selects more than {MAX_RANGE_VALUES} values"
            )
        values.extend(range(start, stop + 1))
    if not values:
        raise argparse.ArgumentTypeError(f"no values in range expression {text!r}")
    return values


def _cmd_gen(args) -> int:
    if args.kind == "rect":
        graph = generate_rectilinear(GridSpec(args.size))
    else:
        graph = generate_radioconcentric(
            RadialSpec(args.radii, args.rings, args.subdivide)
        )
    save_graph(graph, args.out)
    print(f"nodes: {graph.node_count}  edges: {graph.edge_count}  -> {args.out}")
    return EXIT_OK


def _cmd_curve(args) -> int:
    kinds: list[tuple[str, int]] = []
    if "rectilinear" in args.kinds:
        kinds.append(("rectilinear", 4))
    if "radial" in args.kinds:
        kinds.extend(("radial", k) for k in args.radii)
    check_curve_samples(len(kinds) * args.steps)
    curves = [
        (kind, k, analytic_curve(kind, k, args.steps, args.alpha_max))
        for kind, k in kinds
    ]
    write_curve_csv(args.out_csv, curves)
    print(f"curve table: {len(kinds)} network(s) x {args.steps} samples -> {args.out_csv}")
    if args.out_svg:
        series = [
            Series(
                "rectilinear" if kind == "rectilinear" else f"radial k={k}",
                tuple(samples),
            )
            for kind, k, samples in curves
        ]
        write_svg(
            args.out_svg,
            render_svg(series, "direction alpha (rad)", "straightness"),
        )
        print(f"curve plot -> {args.out_svg}")
    return EXIT_OK


def _report_sweep(results, out, label: str) -> int:
    """Write the sweep table and print one line per cell, named by ``label``."""
    write_sweep_csv(out, results)
    for r in results:
        print(
            f"{label.format(**r.parameters)}: "
            f"mean {r.summary.mean:.6f}  std {r.summary.std_dev:.6f}  "
            f"pairs {r.summary.pair_count}"
        )
    print(f"-> {out}")
    return EXIT_OK


def _cmd_sweep_rect(args) -> int:
    results = sweep_rectilinear(args.sizes)
    return _report_sweep(results, args.out, "size {squares_per_side:>3}")


def _cmd_sweep_radial(args) -> int:
    if (cells := len(args.radii) * len(args.rings)) > MAX_RANGE_VALUES:  # before any spec
        raise ValueError(f"--radii x --rings selects {cells} cells, more than {MAX_RANGE_VALUES}")
    results = sweep_radial(args.radii, args.rings, subdivision=args.subdivide)
    return _report_sweep(results, args.out, "radii {radii:>3} rings {rings}")


def _cmd_straightness(args) -> int:
    graph = load_graph(args.graph)
    if args.pairs_csv:  # every node's row, not one per orbit
        summary = summarize_moments(graph, write_pairs_csv(args.pairs_csv, graph), args.strict)
    else:
        summary = summarize(graph, strict=args.strict)
    print(f"nodes:   {graph.node_count}")
    print(f"edges:   {graph.edge_count}")
    print(f"pairs:   {summary.pair_count}")
    print(f"skipped: {summary.skipped_pairs}")
    print(f"mean:    {summary.mean:.9f}")
    print(f"std_dev: {summary.std_dev:.9f}")
    if args.pairs_csv:
        print(f"pair table -> {args.pairs_csv}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    results = run_all_checks()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(
            f"{r.name:<{width}}  max deviation {r.max_deviation:.3e}  "
            f"(tolerance {r.tolerance:.0e})  {status}"
        )
    fraction = dominance_fraction(8)
    print(
        f"{'info: radial k=8 pointwise win share':<{width}}  "
        f"{fraction:.4f} of directions in [0, pi/4]"
    )
    if all(r.passed for r in results):
        return EXIT_OK
    failed = ", ".join(r.name for r in results if not r.passed)
    print(f"validation failed: {failed}", file=sys.stderr)
    return EXIT_VALIDATION


def _cmd_plot(args) -> int:
    x, y, series = plot_series(args.table, args.x, args.y, args.series)
    write_svg(args.out, render_svg(series, x, y, title=args.title))
    print(f"{len(series)} series -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="straightnet",
        description="Straightness of perfect grid and radio-concentric networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a network and write graph JSON")
    gen_kind = gen.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    gen_rect = gen_kind.add_parser("rect", help="perfect square grid")
    gen_rect.add_argument("--size", type=int, required=True, help="squares per side")
    gen_rect.add_argument("--out", default="rect.json")
    gen_rect.set_defaults(func=_cmd_gen)
    gen_radial = gen_kind.add_parser("radial", help="perfect radio-concentric network")
    gen_radial.add_argument("--radii", type=int, required=True)
    gen_radial.add_argument("--rings", type=int, required=True)
    gen_radial.add_argument("--subdivide", type=int, default=1, help="side segments")
    gen_radial.add_argument("--out", default="radial.json")
    gen_radial.set_defaults(func=_cmd_gen)

    curve = sub.add_parser("curve", help="closed-form straightness curves")
    curve.add_argument(
        "--kinds",
        nargs="+",
        choices=["rectilinear", "radial"],
        default=["rectilinear", "radial"],
    )
    curve.add_argument(
        "--radii",
        type=_parse_range,
        default=list(DEFAULT_CURVE_RADII),
        help="spoke counts for radial curves, e.g. 3,4,8,16 or 3..16",
    )
    curve.add_argument("--steps", type=int, default=201)
    curve.add_argument("--alpha-max", type=float, default=math.pi / 4.0)
    curve.add_argument("--out-csv", default="curves.csv")
    curve.add_argument("--out-svg", default=None)
    curve.set_defaults(func=_cmd_curve)

    sweep_rect = sub.add_parser("sweep-rect", help="all-pairs sweep over grid sizes")
    sweep_rect.add_argument("--sizes", type=_parse_range, default=list(range(1, 13)))
    sweep_rect.add_argument("--out", default="sweep_rect.csv")
    sweep_rect.set_defaults(func=_cmd_sweep_rect)

    sweep_rad = sub.add_parser(
        "sweep-radial", help="all-pairs sweep over spoke and ring counts"
    )
    sweep_rad.add_argument("--radii", type=_parse_range, default=list(range(3, 21)))
    sweep_rad.add_argument("--rings", type=_parse_range, default=list(range(1, 6)))
    sweep_rad.add_argument(
        "--subdivide", type=int, default=DEFAULT_SWEEP_SUBDIVISION,
        help="side segments per chord (1 = corner nodes only)",
    )
    sweep_rad.add_argument("--out", default="sweep_radial.csv")
    sweep_rad.set_defaults(func=_cmd_sweep_radial)

    straightness = sub.add_parser(
        "straightness", help="all-pairs summary of an imported graph JSON"
    )
    straightness.add_argument("graph", help="graph JSON path")
    straightness.add_argument("--pairs-csv", default=None, help="dump per-pair table")
    straightness.add_argument(
        "--strict", action="store_true", help="fail on unreachable or degenerate pairs"
    )
    straightness.set_defaults(func=_cmd_straightness)

    validate = sub.add_parser("validate", help="run the built-in consistency checks")
    validate.set_defaults(func=_cmd_validate)

    plot = sub.add_parser("plot", help="render a CSV table as an SVG line chart")
    plot.add_argument("table", help="CSV produced by curve or sweep commands")
    plot.add_argument("--out", default="plot.svg")
    plot.add_argument("--x", default=None)
    plot.add_argument("--y", default=None)
    plot.add_argument("--series", nargs="*", default=None)
    plot.add_argument("--title", default="")
    plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or usage error (1)
        return int(exc.code or 0)
    for name in ("sizes", "radii", "rings"):
        # argparse stores [] without calling _parse_range for "--radii=--"
        if getattr(args, name, None) == []:
            print(f"straightnet: --{name} selects no values", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except OSError as exc:
        print(f"straightnet: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"straightnet: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
