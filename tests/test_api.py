import straightnet

PUBLIC_NAMES = [
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
    "load_graph",
    "mesh_oracle_radial",
    "render_svg",
    "run_all_checks",
    "save_graph",
    "sector_angle",
    "series_from_table",
    "straightness_radial",
    "straightness_rectilinear",
    "straightness_rows",
    "summarize",
    "sweep_radial",
    "sweep_rectilinear",
]


GRAPH_ATTRIBUTES = [
    "adjacency",
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


def test_graph_surface_is_pinned():
    # the graph's public attributes are the model's interface to every caller
    public = [name for name in dir(straightnet.NetworkGraph) if not name.startswith("_")]
    assert sorted(public) == GRAPH_ATTRIBUTES
