import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import straightnet

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "GridSpec",
    "NetworkGraph",
    "RadialSpec",
    "generate_radioconcentric",
    "generate_rectilinear",
    "load_graph",
    "save_graph",
    "straightness_radial",
    "straightness_rectilinear",
    "summarize",
    "sweep_radial",
    "sweep_rectilinear",
]


# helpers kept out of the package root, each importable from its module
MODULE_NAMES = {
    "analytic": [
        "analytic_curve",
        "canonicalize",
        "dominance_fraction",
        "mesh_oracle_radial",
        "sector_angle",
    ],
    "metrics": ["block_moments", "straightness_blocks", "summarize_moments"],
    "model": ["graph_from_json", "graph_to_json"],
    "shortest_paths": ["geodesic_blocks"],
    "svgplot": ["Series", "render_svg", "write_svg"],
    "sweeps": ["DEFAULT_SWEEP_SUBDIVISION"],
    "tables": ["plot_series", "usable_cpus", "write_pairs_csv"],
    "validation": [
        "CheckResult",
        "center_curve_check",
        "center_radial_check",
        "run_all_checks",
    ],
}

# removed: the per-row views of the block kernel (rows come from metrics.straightness_blocks)
# and the dict-per-row table reader (plot_series reads a table in one pass)
REMOVED_NAMES = {
    "straightnet": ["straightness_rows"],
    "straightnet.metrics": ["straightness_rows"],
    "straightnet.shortest_paths": ["geodesics"],
    "straightnet.tables": ["read_table"],
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
    for module, names in REMOVED_NAMES.items():
        for name in names:
            assert not hasattr(importlib.import_module(module), name)
    assert "rows" not in inspect.signature(straightnet.summarize).parameters


def test_graph_surface_is_pinned():
    # the graph's public attributes are the model's interface to every caller
    public = [name for name in dir(straightnet.NetworkGraph) if not name.startswith("_")]
    assert sorted(public) == GRAPH_ATTRIBUTES


def fresh_modules(code):
    """The names in ``sys.modules`` that ``code`` prints from a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_network_or_mail_modules():
    # each of these costs every command's start-up time; xml.sax.saxutils, for
    # one, pulls in all four (about 27 ms on a 2-core machine), concurrent.futures
    # about 4 ms and multiprocessing about 6 ms, where the pair dump's plain
    # os.fork needs neither
    loaded = fresh_modules("import sys, straightnet, straightnet.cli; print(*sys.modules)")
    unwanted = {"urllib.request", "http.client", "ssl", "email", "concurrent.futures"}
    assert loaded.isdisjoint(unwanted | {"multiprocessing"})
    assert "signal" not in loaded  # imported only to kill a range process


def test_root_import_loads_only_the_study():
    # the computation core does not depend on the chart, self-check, table or CLI layers
    loaded = fresh_modules("import sys, straightnet; print(*sys.modules)")
    layers = {"svgplot", "validation", "tables", "cli"}
    assert loaded.isdisjoint({f"straightnet.{name}" for name in layers})


def test_readme_names_the_root_api():
    text = (ROOT / "README.md").read_text()
    count, names = re.search(
        r"^The package root exports (\d+) names:(.*?)Helpers such as", text, re.S | re.M
    ).groups()
    assert int(count) == len(straightnet.__all__)
    assert sorted(re.findall(r"`(\w+)`", names)) == sorted(straightnet.__all__)
