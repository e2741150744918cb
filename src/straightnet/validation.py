"""Self-checks tying the closed forms, the oracle geometry and the graphs
together.  Each check reports its worst observed deviation against a fixed
tolerance; a fresh build passes all of them."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import (
    canonicalize,
    mesh_oracle_radial,
    sector_angle,
    straightness_radial,
    straightness_rectilinear,
)
from .generators import GridSpec, RadialSpec, ring_node_id, side_node_id
from .generators import generate_radioconcentric, generate_rectilinear
from .model import NetworkGraph
from .shortest_paths import dijkstra

TRIG_TOLERANCE = 1e-12  # pure trigonometric identities
GEOMETRY_TOLERANCE = 1e-9  # coordinate constructions vs. closed forms
BOUNDARY_TOLERANCE = 1e-3  # many-spokes limit of the radial closed form


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def center_curve_check(graph: NetworkGraph) -> float:
    """Largest gap between measured and closed-form grid straightness.

    Expects a generated grid.  Measures straightness from corner node 0 to
    every other node with Dijkstra distances and compares against the
    closed form evaluated at each node's direction.  The corner quadrant is
    fully general thanks to rotation symmetry.
    """
    row = dijkstra(graph, 0)
    positions = graph.positions
    worst = 0.0
    for node in range(1, graph.node_count):
        x, y = positions[node]
        measured = math.hypot(x, y) / row[node]
        expected = straightness_rectilinear(math.atan2(y, x))
        worst = max(worst, abs(measured - expected))
    return worst


def center_radial_check(graph: NetworkGraph, spec: RadialSpec) -> tuple[float, float]:
    """Measured vs. closed-form straightness from the center, per ring.

    Needs ``side_subdivision >= 2`` so destinations exist strictly between
    spokes, where the closed form is informative.  Returns
    ``(max_formula_deviation, max_ring_spread)``: the worst disagreement
    with the reduced closed form over all corner and subdivision nodes, and
    the worst spread of the measured value across rings for the same
    angular offset (which the scaling argument says must vanish).
    """
    if spec.side_subdivision < 2:
        raise ValueError("check needs side_subdivision >= 2")
    k = spec.radii_count
    theta = sector_angle(k)
    row = dijkstra(graph, 0)
    positions = graph.positions

    def measured_straightness(node: int) -> float:
        x, y = positions[node]
        return math.hypot(x, y) / row[node]

    worst_formula = 0.0
    for ring in range(1, spec.rings_count + 1):
        for radius in range(k):
            node = ring_node_id(spec, ring, radius)
            # Corner nodes sit on a spoke: the reduced direction is 0.
            worst_formula = max(worst_formula, abs(measured_straightness(node) - 1.0))

    worst_spread = 0.0
    for side in range(k):
        for step in range(1, spec.side_subdivision):
            across_rings = []
            for ring in range(1, spec.rings_count + 1):
                node = side_node_id(spec, ring, side, step)
                x, y = positions[node]
                measured = measured_straightness(node)
                expected = straightness_radial(k, canonicalize(theta, math.atan2(y, x)))
                worst_formula = max(worst_formula, abs(measured - expected))
                across_rings.append(measured)
            worst_spread = max(worst_spread, max(across_rings) - min(across_rings))
    return worst_formula, worst_spread


def check_symmetry() -> CheckResult:
    """Reflected directions across each sector bisector agree exactly."""
    worst = 0.0
    for k in range(3, 33):
        theta = sector_angle(k)
        for i in range(334):
            alpha = 0.5 * theta * (i + 0.5) / 334
            worst = max(
                worst,
                abs(
                    straightness_radial(k, alpha)
                    - straightness_radial(k, theta - alpha)
                ),
            )
    return CheckResult("bisector symmetry", worst, TRIG_TOLERANCE)


def check_rotation() -> CheckResult:
    """Adding whole sectors to the direction never changes the value."""
    worst = 0.0
    for k in range(3, 17):
        theta = sector_angle(k)
        for i in range(40):
            alpha = 0.5 * theta * (i + 0.5) / 40
            reference = straightness_radial(k, alpha)
            for turns in (1, 2, 5, k, 3 * k):
                worst = max(
                    worst,
                    abs(straightness_radial(k, alpha + turns * theta) - reference),
                )
    return CheckResult("sector rotation", worst, TRIG_TOLERANCE)


def check_formula_vs_mesh() -> CheckResult:
    """Closed form equals the explicit two-route mesh geometry."""
    worst = 0.0
    spoke_counts = list(range(3, 33))
    per_k = -(-1000 // len(spoke_counts))
    for k in spoke_counts:
        theta = sector_angle(k)
        for i in range(per_k):
            alpha = theta * (i + 0.5) / per_k
            expected = straightness_radial(k, canonicalize(theta, alpha))
            worst = max(worst, abs(mesh_oracle_radial(k, alpha) - expected))
    return CheckResult("closed form vs mesh geometry", worst, GEOMETRY_TOLERANCE)


def check_boundary_limit() -> CheckResult:
    """With very many spokes the straightness approaches 1 everywhere."""
    theta = sector_angle(10_000)
    low = min(
        straightness_radial(10_000, 0.5 * theta * i / 200) for i in range(201)
    )
    return CheckResult("many-spokes boundary limit", 1.0 - low, BOUNDARY_TOLERANCE)


def check_grid_center() -> CheckResult:
    """Dijkstra-measured grid straightness matches the closed form."""
    graph = generate_rectilinear(GridSpec(10))
    return CheckResult("grid center curve", center_curve_check(graph), GEOMETRY_TOLERANCE)


def check_radial_center() -> tuple[CheckResult, CheckResult]:
    """Measured center-to-side straightness matches the closed form, and is
    independent of the destination ring (homothety)."""
    spec = RadialSpec(8, 3, 4)
    formula_dev, ring_spread = center_radial_check(generate_radioconcentric(spec), spec)
    return (
        CheckResult("radial center curve", formula_dev, GEOMETRY_TOLERANCE),
        CheckResult("ring independence (homothety)", ring_spread, GEOMETRY_TOLERANCE),
    )


def check_rectilinear_range() -> CheckResult:
    """Grid closed form stays within [1/sqrt(2), 1]."""
    low, high = 1.0 / math.sqrt(2.0), 1.0
    worst = 0.0
    for i in range(2000):
        alpha = math.pi * i / 1999
        value = straightness_rectilinear(alpha)
        worst = max(worst, max(low - value, value - high, 0.0))
    return CheckResult("grid value range", worst, TRIG_TOLERANCE)


def run_all_checks() -> list[CheckResult]:
    return [
        check_symmetry(),
        check_rotation(),
        check_formula_vs_mesh(),
        check_boundary_limit(),
        check_rectilinear_range(),
        check_grid_center(),
        *check_radial_center(),
    ]
