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


def test_public_api_is_pinned():
    # growing or shrinking the package namespace is a reviewed change
    assert sorted(straightnet.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(straightnet, name) is not None
