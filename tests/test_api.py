import importlib
import os
import subprocess
import sys
from pathlib import Path

import straightnet

PUBLIC_NAMES = [
    "GridSpec",
    "NetworkGraph",
    "RadialSpec",
    "Series",
    "analytic_curve",
    "dominance_fraction",
    "generate_radioconcentric",
    "generate_rectilinear",
    "geodesics",
    "load_graph",
    "render_svg",
    "run_all_checks",
    "save_graph",
    "straightness_radial",
    "straightness_rectilinear",
    "straightness_rows",
    "summarize",
    "sweep_radial",
    "sweep_rectilinear",
]


# helpers kept out of the package root, each importable from its module
MODULE_NAMES = {
    "analytic": ["canonicalize", "mesh_oracle_radial", "sector_angle"],
    "model": ["graph_from_json", "graph_to_json"],
    "svgplot": ["write_svg"],
    "sweeps": ["DEFAULT_SWEEP_SUBDIVISION"],
    "tables": ["plot_series", "read_table"],
    "validation": ["CheckResult", "center_curve_check", "center_radial_check"],
}


GRAPH_ATTRIBUTES = [
    "components",
    "edge_count",
    "edge_lengths",
    "edges",
    "node_count",
    "orbits",
    "positions",
    "symmetries",
]


def test_public_api_is_pinned():
    # growing or shrinking the package namespace is a reviewed change
    assert sorted(straightnet.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(straightnet, name) is not None


def test_helpers_live_in_their_modules():
    for module, names in MODULE_NAMES.items():
        for name in names:
            assert hasattr(importlib.import_module(f"straightnet.{module}"), name)
            assert not hasattr(straightnet, name)


def test_graph_surface_is_pinned():
    # the graph's public attributes are the model's interface to every caller
    public = [name for name in dir(straightnet.NetworkGraph) if not name.startswith("_")]
    assert sorted(public) == GRAPH_ATTRIBUTES


def test_import_loads_no_network_or_mail_modules():
    # each of these costs every command's start-up time; xml.sax.saxutils, for
    # one, pulls in all four (about 27 ms on a 2-core machine)
    code = "import sys, straightnet, straightnet.cli; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert loaded.isdisjoint({"urllib.request", "http.client", "ssl", "email"})
