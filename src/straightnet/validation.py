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


def check_symmetry(samples_per_k: int = 334, max_radii: int = 32) -> CheckResult:
    """Reflected directions across each sector bisector agree exactly."""
    worst = 0.0
    for k in range(3, max_radii + 1):
        theta = sector_angle(k)
        for i in range(samples_per_k):
            alpha = 0.5 * theta * (i + 0.5) / samples_per_k
            worst = max(
                worst,
                abs(
                    straightness_radial(k, alpha)
                    - straightness_radial(k, theta - alpha)
                ),
            )
    return CheckResult("bisector symmetry", worst, TRIG_TOLERANCE)


def check_rotation(samples_per_k: int = 40, max_radii: int = 16) -> CheckResult:
    """Adding whole sectors to the direction never changes the value."""
    worst = 0.0
    for k in range(3, max_radii + 1):
        theta = sector_angle(k)
        for i in range(samples_per_k):
            alpha = 0.5 * theta * (i + 0.5) / samples_per_k
            reference = straightness_radial(k, alpha)
            for turns in (1, 2, 5, k, 3 * k):
                worst = max(
                    worst,
                    abs(straightness_radial(k, alpha + turns * theta) - reference),
                )
    return CheckResult("sector rotation", worst, TRIG_TOLERANCE)


def check_formula_vs_mesh(samples: int = 1000, max_radii: int = 32) -> CheckResult:
    """Closed form equals the explicit two-route mesh geometry."""
    worst = 0.0
    spoke_counts = list(range(3, max_radii + 1))
    per_k = -(-samples // len(spoke_counts))
    for k in spoke_counts:
        theta = sector_angle(k)
        for i in range(per_k):
            alpha = theta * (i + 0.5) / per_k
            expected = straightness_radial(k, canonicalize(theta, alpha))
            worst = max(worst, abs(mesh_oracle_radial(k, alpha) - expected))
    return CheckResult("closed form vs mesh geometry", worst, GEOMETRY_TOLERANCE)


def check_boundary_limit(radii_count: int = 10_000, samples: int = 201) -> CheckResult:
    """With very many spokes the straightness approaches 1 everywhere."""
    theta = sector_angle(radii_count)
    low = min(
        straightness_radial(radii_count, 0.5 * theta * i / (samples - 1))
        for i in range(samples)
    )
    return CheckResult("many-spokes boundary limit", 1.0 - low, BOUNDARY_TOLERANCE)


def check_grid_center(size: int = 10) -> CheckResult:
    """Dijkstra-measured grid straightness matches the closed form."""
    graph = generate_rectilinear(GridSpec(size))
    return CheckResult("grid center curve", center_curve_check(graph), GEOMETRY_TOLERANCE)


def check_radial_center(
    radii_count: int = 8, rings_count: int = 3, subdivision: int = 4
) -> CheckResult:
    """Measured center-to-side straightness matches the closed form."""
    spec = RadialSpec(radii_count, rings_count, subdivision)
    graph = generate_radioconcentric(spec)
    formula_dev, _ = center_radial_check(graph, spec)
    return CheckResult("radial center curve", formula_dev, GEOMETRY_TOLERANCE)


def check_homothety(
    radii_count: int = 8, rings_count: int = 3, subdivision: int = 4
) -> CheckResult:
    """Measured straightness is independent of the destination ring."""
    spec = RadialSpec(radii_count, rings_count, subdivision)
    graph = generate_radioconcentric(spec)
    _, ring_spread = center_radial_check(graph, spec)
    return CheckResult("ring independence (homothety)", ring_spread, GEOMETRY_TOLERANCE)


def check_rectilinear_range(samples: int = 2000) -> CheckResult:
    """Grid closed form stays within [1/sqrt(2), 1]."""
    low, high = 1.0 / math.sqrt(2.0), 1.0
    worst = 0.0
    for i in range(samples):
        alpha = math.pi * i / (samples - 1)
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
        check_radial_center(),
        check_homothety(),
    ]
