"""Straightness of perfect grid and radio-concentric networks.

Builds the two idealized street layouts as embedded graphs, evaluates the
closed-form center-to-periphery straightness curves, measures straightness
on the graphs with one Dijkstra run per source node (one per symmetry
orbit on generated graphs), and drives the simulation sweeps behind the
``straightnet`` command line tool.
"""

from .analytic import (
    analytic_curve,
    canonicalize,
    dominance_fraction,
    mesh_oracle_radial,
    mesh_routes,
    sector_angle,
    straightness_radial,
    straightness_rectilinear,
)
from .generators import (
    GridSpec,
    RadialSpec,
    generate_radioconcentric,
    generate_rectilinear,
    grid_node_id,
    ring_node_id,
    side_node_id,
)
from .metrics import straightness_rows, summarize
from .model import (
    NetworkGraph,
    graph_from_json,
    graph_to_json,
    load_graph,
    save_graph,
)
from .shortest_paths import dijkstra
from .svgplot import Series, render_svg, series_from_table
from .sweeps import (
    DEFAULT_SWEEP_SUBDIVISION,
    sweep_radial,
    sweep_rectilinear,
)
from .validation import CheckResult, run_all_checks
from .validation import center_curve_check, center_radial_check

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DEFAULT_SWEEP_SUBDIVISION",
    "GridSpec",
    "NetworkGraph",
    "RadialSpec",
    "Series",
    "analytic_curve",
    "canonicalize",
    "center_curve_check",
    "center_radial_check",
    "dijkstra",
    "dominance_fraction",
    "generate_radioconcentric",
    "generate_rectilinear",
    "graph_from_json",
    "graph_to_json",
    "grid_node_id",
    "load_graph",
    "mesh_oracle_radial",
    "mesh_routes",
    "render_svg",
    "ring_node_id",
    "run_all_checks",
    "save_graph",
    "sector_angle",
    "series_from_table",
    "side_node_id",
    "straightness_radial",
    "straightness_rectilinear",
    "straightness_rows",
    "summarize",
    "sweep_radial",
    "sweep_rectilinear",
]
