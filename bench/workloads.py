"""The benchmark's workloads: their inputs and the timed calls into the program.

Each workload is one batch job run in a fresh worker process, driven only
through straightnet's public functions and its CLI ``main``:

- ``grid_sweep``: ``sweep_rectilinear(range(1, 31))``, the grid-size sweep
  behind acceptance check A5.  Almost all of it is all-pairs Dijkstra on a
  few large graphs, so it is the workload for the geodesic kernel.
- ``radial_sweep``: ``sweep-radial`` over its default k 3..20, m 1..5,
  q 4 (the A6 sweep), then ``plot``, ``curve --out-svg`` and ``validate``
  through ``cli.main``.  Many small graphs make per-graph overhead weigh
  more, and it is the only workload that reaches svgplot, analytic and
  validation.
- ``pairs_dump``: ``straightness g.json --pairs-csv out.csv`` on a
  street-like graph made from the seed.  The graph has no symmetry, so it
  bypasses any family-specific shortcut; the work is writing one row per
  node pair.

``tiny`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

WORKLOADS = ("grid_sweep", "radial_sweep", "pairs_dump")

GRID_SIZES = {False: range(1, 31), True: range(1, 5)}
RADIAL_RADII = {False: range(3, 21), True: range(3, 5)}
RADIAL_RINGS = {False: range(1, 6), True: range(1, 3)}
RADIAL_SUBDIVISION = 4  # the sweep-radial default
STREET_SIDE = {False: 31, True: 6}
STREET_JITTER = 0.3
STREET_DROP_SHARE = 0.3


def street_graph(seed: int, side: int) -> dict:
    """A jittered ``side`` x ``side`` lattice with some edges removed, as graph JSON.

    Node positions move by up to ``STREET_JITTER`` on each axis, so the
    graph has no symmetry to exploit.  A random spanning tree of the lattice
    is kept, so the graph stays connected, and ``STREET_DROP_SHARE`` of the
    other lattice edges are removed.  The same seed gives the same graph.
    """
    rng = random.Random(seed)
    nodes = [
        (i + rng.uniform(-STREET_JITTER, STREET_JITTER),
         j + rng.uniform(-STREET_JITTER, STREET_JITTER))
        for j in range(side)
        for i in range(side)
    ]
    lattice = []
    for j in range(side):
        for i in range(side):
            v = j * side + i
            if i + 1 < side:
                lattice.append((v, v + 1))
            if j + 1 < side:
                lattice.append((v, v + side))

    root = list(range(len(nodes)))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree = set()
    for u, v in rng.sample(lattice, len(lattice)):
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            tree.add((u, v))
    others = [e for e in lattice if e not in tree]
    dropped = set(rng.sample(others, round(STREET_DROP_SHARE * len(others))))
    return {
        "nodes": [{"id": i, "x": x, "y": y} for i, (x, y) in enumerate(nodes)],
        "edges": [{"u": u, "v": v} for u, v in lattice if (u, v) not in dropped],
    }


def _cli_range(values: range) -> str:
    return f"{values.start}..{values.stop - 1}"


def prepare(name: str, seed: int, tiny: bool, workdir: Path) -> dict:
    """Make a workload's inputs in ``workdir``; return what ``run`` needs."""
    if name == "grid_sweep":
        return {"sizes": list(GRID_SIZES[tiny])}
    if name == "radial_sweep":
        sweep_csv = workdir / "sweep_radial.csv"
        return {
            "commands": [
                ["sweep-radial", "--radii", _cli_range(RADIAL_RADII[tiny]),
                 "--rings", _cli_range(RADIAL_RINGS[tiny]),
                 "--subdivide", str(RADIAL_SUBDIVISION), "--out", str(sweep_csv)],
                ["plot", str(sweep_csv), "--out", str(workdir / "sweep_radial.svg")],
                ["curve", "--out-csv", str(workdir / "curves.csv"),
                 "--out-svg", str(workdir / "curves.svg")],
                ["validate"],
            ]
        }
    if name == "pairs_dump":
        graph_json = workdir / "graph.json"
        graph_json.write_text(json.dumps(street_graph(seed, STREET_SIDE[tiny])))
        return {
            "commands": [
                ["straightness", str(graph_json),
                 "--pairs-csv", str(workdir / "pairs.csv")],
            ]
        }
    raise ValueError(f"unknown workload {name!r}")


def run(name: str, job: dict, straightnet, tracer=None) -> dict:
    """The timed section: call the program once and return what it produced.

    With a tracer the calls go through its wrappers, so every module
    boundary crossed records a span.
    """
    if name == "grid_sweep":
        results = straightnet.sweep_rectilinear(job["sizes"])
        return {
            "cells": [
                [r.parameters["squares_per_side"], r.summary.pair_count,
                 r.summary.mean, r.summary.std_dev, r.summary.skipped_pairs]
                for r in results
            ]
        }
    main = straightnet.cli.main
    if tracer is not None:
        main = tracer.entry("cli", main)
    codes, stdouts = [], []
    for argv in job["commands"]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            codes.append(main(argv))
        stdouts.append(captured.getvalue())
    return {"exit_codes": codes, "stdout": stdouts}
