"""Self-checks tying the closed forms, the oracle geometry and the graphs
together.  Each check reports its worst observed deviation against a fixed
tolerance; a fresh build passes all of them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    mesh_oracle_radial,
    sector_angle,
    straightness_radial,
    straightness_rectilinear,
)
from .generators import GridSpec, RadialSpec
from .generators import generate_radioconcentric, generate_rectilinear
from .metrics import straightness_rows
from .model import NetworkGraph

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
    _, _, _, _, measured = next(straightness_rows(graph, [(0, 1)]))
    x, y = graph.positions.T
    return _worst((measured - straightness_rectilinear(np.arctan2(y, x)))[1:])


def center_radial_check(graph: NetworkGraph, spec: RadialSpec) -> tuple[float, float]:
    """Measured vs. closed-form straightness from the center, per ring.

    Needs ``side_subdivision >= 2`` so destinations exist strictly between
    spokes, where the closed form is informative.  Returns
    ``(max_formula_deviation, max_ring_spread)``: the worst disagreement
    with the closed form over all corner and subdivision nodes, and the
    worst spread of the measured value across rings for the same angular
    offset (which the scaling argument says must vanish).
    """
    k, m, q = spec.radii_count, spec.rings_count, spec.side_subdivision
    if q < 2:
        raise ValueError("check needs side_subdivision >= 2")
    if graph.node_count != 1 + m * k * q:
        raise ValueError(f"graph has {graph.node_count} nodes, the spec {1 + m * k * q}")
    _, _, _, _, measured = next(straightness_rows(graph, [(0, 1)]))
    x, y = graph.positions.T
    expected = straightness_radial(k, np.arctan2(y, x))
    # side nodes follow the center and the m*k corners, one row per ring
    sides = measured[1 + m * k :].reshape(m, -1)
    spread = sides.max(axis=0) - sides.min(axis=0)
    return _worst((measured - expected)[1:]), _worst(spread)


def _worst(deviations: np.ndarray) -> float:
    """Largest absolute deviation, 0 for none."""
    return float(np.max(np.abs(deviations), initial=0.0))


def check_symmetry() -> CheckResult:
    """Reflected directions across each sector bisector agree exactly."""
    worst = 0.0
    for k in range(3, 33):
        theta = sector_angle(k)
        alpha = 0.5 * theta * (np.arange(334) + 0.5) / 334
        reflected = straightness_radial(k, theta - alpha)
        worst = max(worst, _worst(straightness_radial(k, alpha) - reflected))
    return CheckResult("bisector symmetry", worst, TRIG_TOLERANCE)


def check_rotation() -> CheckResult:
    """Adding whole sectors to the direction never changes the value."""
    worst = 0.0
    for k in range(3, 17):
        theta = sector_angle(k)
        alpha = 0.5 * theta * (np.arange(40) + 0.5) / 40
        turns = np.array([1, 2, 5, k, 3 * k])[:, None]
        rotated = straightness_radial(k, alpha + turns * theta)
        worst = max(worst, _worst(rotated - straightness_radial(k, alpha)))
    return CheckResult("sector rotation", worst, TRIG_TOLERANCE)


def check_formula_vs_mesh() -> CheckResult:
    """Closed form equals the explicit two-route mesh geometry."""
    worst = 0.0
    per_k = 34  # ceil(1000 / 30): at least 1000 directions over the 30 spoke counts
    for k in range(3, 33):
        alpha = sector_angle(k) * (np.arange(per_k) + 0.5) / per_k
        mesh = [mesh_oracle_radial(k, a) for a in alpha.tolist()]
        worst = max(worst, _worst(np.array(mesh) - straightness_radial(k, alpha)))
    return CheckResult("closed form vs mesh geometry", worst, GEOMETRY_TOLERANCE)


def check_boundary_limit() -> CheckResult:
    """With very many spokes the straightness approaches 1 everywhere."""
    theta = sector_angle(10_000)
    low = float(np.min(straightness_radial(10_000, 0.5 * theta * np.arange(201) / 200)))
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
    value = straightness_rectilinear(math.pi * np.arange(2000) / 1999)
    worst = _worst(np.maximum(np.maximum(low - value, value - high), 0.0))
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
