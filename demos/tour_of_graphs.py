"""A first tour: build the two network families and poke at their geometry.

Run from the repository root:  python demos/tour_of_graphs.py
"""

import math
from pathlib import Path

from straightnet import (
    GridSpec,
    RadialSpec,
    generate_radioconcentric,
    generate_rectilinear,
    grid_node_id,
    load_graph,
    ring_node_id,
    save_graph,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# A perfect grid: 4 squares per side, nodes on integer coordinates.
grid_spec = GridSpec(4)
grid = generate_rectilinear(grid_spec)
print(f"grid:  {grid}")
print(f"  node (3, 4) has id {grid_node_id(grid_spec, 3, 4)} at {grid.positions[23].tolist()}")
print(f"  every edge has unit length: {set(grid.edge_lengths.tolist())}")

# A radio-concentric network: 8 spokes, 2 rings, sides kept as single chords.
wheel_spec = RadialSpec(radii_count=8, rings_count=2)
wheel = generate_radioconcentric(wheel_spec)
print(f"wheel: {wheel}")
start, end = wheel.positions[[ring_node_id(wheel_spec, 1, 0), ring_node_id(wheel_spec, 1, 1)]]
print(f"  first ring node on spoke 1 sits at ({end[0]:.6f}, {end[1]:.6f})")
chord = math.dist(start, end)
print(f"  inner side chord length: {chord:.6f} (= 2 sin(pi/8) = {2 * math.sin(math.pi / 8):.6f})")

# Graphs round-trip through a JSON file; edge lengths are re-derived on load.
path = OUT / "wheel.json"
save_graph(wheel, path)
restored = load_graph(path)
print(f"saved and reloaded: {restored} from {path}")
