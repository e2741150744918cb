"""Acceptance gate: every release-blocking behavior in one module.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per check.  Two checks (A5, A6) encode fixed reproduction targets whose
stated thresholds are partly unreachable under the exact graph definitions
used here; they fail with the measured numbers in the message rather than
being quietly loosened.  See the failure text for the precise values.
"""

import math
import time

import numpy as np
import pytest

from straightnet import (
    GridSpec,
    RadialSpec,
    canonicalize,
    center_curve_check,
    center_radial_check,
    dijkstra,
    generate_radioconcentric,
    generate_rectilinear,
    mesh_oracle_radial,
    sector_angle,
    straightness_radial,
    summarize,
    sweep_radial,
    sweep_rectilinear,
)
from straightnet.cli import main

import oracles
from oracles import all_pairs, grid_node_id, pair_straightness, ring_node_id


def report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {name}: {verdict}{suffix}")


def test_a1_analytic_formula_suite():
    """Closed forms agree with the mesh-geometry oracle and are symmetric."""
    start = time.perf_counter()

    worst_oracle = 0.0
    samples = 0
    for k in range(3, 33):
        theta = sector_angle(k)
        for i in range(34):  # 30 spoke counts x 34 = 1020 probe points
            alpha = theta * (i + 0.5) / 34
            expected = straightness_radial(k, canonicalize(theta, alpha))
            worst_oracle = max(worst_oracle, abs(mesh_oracle_radial(k, alpha) - expected))
            samples += 1

    worst_symmetry = 0.0
    sym_samples = 0
    for k in range(3, 33):
        theta = sector_angle(k)
        for i in range(334):  # >= 10^4 reflected pairs in total
            alpha = 0.5 * theta * (i + 0.5) / 334
            worst_symmetry = max(
                worst_symmetry,
                abs(straightness_radial(k, alpha) - straightness_radial(k, theta - alpha)),
            )
            sym_samples += 1

    elapsed = time.perf_counter() - start
    ok = (
        samples >= 1000
        and worst_oracle <= 1e-9
        and sym_samples >= 10_000
        and worst_symmetry <= 1e-12
        and elapsed < 1.0
    )
    detail = (
        f"oracle dev {worst_oracle:.2e} on {samples} pts, "
        f"symmetry dev {worst_symmetry:.2e} on {sym_samples} pts, {elapsed:.2f}s"
    )
    report("A1 analytic formula suite", ok, detail)
    assert ok, detail


def test_a2_boundary_condition():
    """With 10^4 spokes the straightness never drops below 1 - 1e-3."""
    k = 10_000
    theta = sector_angle(k)
    low = min(straightness_radial(k, 0.5 * theta * i / 200) for i in range(201))
    ok = low >= 1.0 - 1e-3
    detail = f"min straightness {low:.6f}"
    report("A2 many-spokes boundary", ok, detail)
    assert ok, detail


def test_a3_grid_cross_validation():
    """Measured corner-to-node straightness equals the closed form, s=1..15."""
    start = time.perf_counter()
    worst = 0.0
    for size in range(1, 16):
        spec = GridSpec(size)
        graph = generate_rectilinear(spec)
        # independent oracle: grid geodesics are Manhattan distances
        row = dijkstra(graph, 0)
        for i in range(size + 1):
            for j in range(size + 1):
                assert row[grid_node_id(spec, i, j)] == pytest.approx(i + j, abs=1e-12)
        worst = max(worst, center_curve_check(graph))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    detail = f"max deviation {worst:.2e}, {elapsed:.2f}s"
    report("A3 grid cross-validation", ok, detail)
    assert ok, detail


def test_a4_radial_cross_validation():
    """Center-to-side straightness matches the closed form on every ring."""
    start = time.perf_counter()
    worst_formula = 0.0
    worst_spread = 0.0
    for k in (4, 8, 16):
        for m in (1, 3):
            spec = RadialSpec(k, m, 4)
            graph = generate_radioconcentric(spec)
            formula_dev, ring_spread = center_radial_check(graph, spec)
            worst_formula = max(worst_formula, formula_dev)
            worst_spread = max(worst_spread, ring_spread)
    elapsed = time.perf_counter() - start
    ok = worst_formula <= 1e-9 and worst_spread <= 1e-9 and elapsed < 10.0
    detail = (
        f"formula dev {worst_formula:.2e}, ring spread {worst_spread:.2e}, "
        f"{elapsed:.2f}s"
    )
    report("A4 radial cross-validation", ok, detail)
    assert ok, detail


def test_a5_grid_sweep_plateau():
    """Grid means for sizes 5..12: target is a sub-0.80 plateau of width 0.02.

    The exact all-pairs means of the perfect unit grid are 0.8209 (s=5)
    down to 0.8020 (s=12): the plateau is real (spread 0.019) but sits just
    above 0.80, crossing below it only from s=15 on.  The sub-0.80 half of
    the target is therefore unreachable for this size window; the check
    states the target faithfully and reports the measured values.
    """
    start = time.perf_counter()
    results = sweep_rectilinear(range(5, 13))
    elapsed = time.perf_counter() - start
    means = {r.parameters["squares_per_side"]: r.summary.mean for r in results}
    spread = max(means.values()) - min(means.values())
    all_below = all(m < 0.80 for m in means.values())
    ok = all_below and spread <= 0.02 and elapsed < 60.0
    listing = ", ".join(f"s={s}: {m:.4f}" for s, m in sorted(means.items()))
    detail = f"spread {spread:.4f}, below-0.80 {all_below}, {elapsed:.1f}s; {listing}"
    report("A5 grid sweep plateau", ok, detail)
    assert ok, detail


def test_a6_radial_sweep_crossover():
    """Radial sweep: mean straightness should first beat 0.80 at k in 7..11.

    At the sweep's side meshing the multi-ring networks cross 0.80 at
    k = 8..10 and every k >= 10 mean clears 0.80, reproducing the targeted
    crossover.  The single-ring wheel is structurally more direct and
    crosses at k = 5 under every meshing level, so the k-in-7..11 clause
    cannot hold for rings=1; the check keeps the stated range and reports
    the measured crossovers.
    """
    start = time.perf_counter()
    results = sweep_radial(range(3, 21), range(1, 6))
    elapsed = time.perf_counter() - start
    table = {
        (r.parameters["radii"], r.parameters["rings"]): r.summary.mean
        for r in results
    }
    crossovers = {}
    for m in range(1, 6):
        crossovers[m] = next(
            (k for k in range(3, 21) if table[(k, m)] > 0.80), None
        )
    crossover_ok = all(c in {7, 8, 9, 10, 11} for c in crossovers.values())
    high_k_ok = all(
        table[(k, m)] > 0.80 for k in range(10, 21) for m in range(1, 6)
    )
    ok = crossover_ok and high_k_ok and elapsed < 60.0
    detail = (
        f"crossovers {crossovers}, k>=10 all above 0.80: {high_k_ok}, {elapsed:.1f}s"
    )
    report("A6 radial sweep crossover", ok, detail)
    assert ok, detail


def test_a7_micro_oracles():
    """Hand-enumerable graphs, pinned against exhaustive path enumeration."""
    unit_square = generate_rectilinear(GridSpec(1))
    square_mean = summarize(unit_square).mean
    enum_square = oracles.enumerated_mean_straightness(unit_square)

    wheel = generate_radioconcentric(RadialSpec(4, 1))
    wheel_mean = summarize(wheel).mean
    enum_wheel = oracles.enumerated_mean_straightness(wheel)

    spec = RadialSpec(3, 2)
    two_ring = generate_radioconcentric(spec)
    u, v = ring_node_id(spec, 2, 0), ring_node_id(spec, 1, 1)
    pair = pair_straightness(two_ring, all_pairs(two_ring), u, v)
    enum_pair = oracles.enumerated_pair_straightness(two_ring, u, v)

    ok = (
        abs(square_mean - 0.9023689) <= 1e-6
        and abs(square_mean - enum_square) <= 1e-12
        and abs(wheel_mean - 1.0) <= 1e-12
        and abs(wheel_mean - enum_wheel) <= 1e-12
        and abs(pair.straightness - 0.9684129) <= 1e-6
        and abs(pair.straightness - enum_pair) <= 1e-12
    )
    detail = (
        f"unit square {square_mean:.9f}, square wheel {wheel_mean:.12f}, "
        f"two-ring pair {pair.straightness:.9f}"
    )
    report("A7 micro oracles", ok, detail)
    assert ok, detail


def test_a8_determinism(tmp_path):
    """Byte-identical outputs for every command over two repeated runs."""
    outputs = {}
    for run in ("1", "2"):
        base = tmp_path / f"run{run}"
        base.mkdir()
        commands = [
            ["gen", "rect", "--size", "4", "--out", str(base / "grid.json")],
            ["gen", "radial", "--radii", "6", "--rings", "2", "--subdivide", "3",
             "--out", str(base / "wheel.json")],
            ["curve", "--steps", "41", "--out-csv", str(base / "curves.csv"),
             "--out-svg", str(base / "curves.svg")],
            ["sweep-rect", "--sizes", "1..5", "--out", str(base / "rect.csv")],
            ["sweep-radial", "--radii", "3..6", "--rings", "1..2",
             "--out", str(base / "radial.csv")],
            ["straightness", str(base / "wheel.json"),
             "--pairs-csv", str(base / "pairs.csv")],
            ["plot", str(base / "curves.csv"), "--out", str(base / "plot.svg")],
        ]
        for command in commands:
            assert main(command) == 0, command
        outputs[run] = {
            p.name: p.read_bytes() for p in sorted(base.iterdir())
        }
    ok = outputs["1"] == outputs["2"]
    names = ", ".join(sorted(outputs["1"]))
    report("A8 determinism", ok, f"compared {names}")
    assert ok
