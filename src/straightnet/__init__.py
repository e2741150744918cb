"""Straightness of perfect grid and radio-concentric networks.

Builds the two idealized street layouts as embedded graphs, evaluates the
closed-form center-to-periphery straightness curves, measures straightness
on the graphs from shortest-path distances to every source node (one per
symmetry orbit on generated graphs), and drives the simulation sweeps
behind the ``straightnet`` command line tool.
"""

from .analytic import straightness_radial, straightness_rectilinear
from .generators import (
    GridSpec,
    RadialSpec,
    generate_radioconcentric,
    generate_rectilinear,
)
from .metrics import summarize
from .model import NetworkGraph, load_graph, save_graph
from .sweeps import sweep_radial, sweep_rectilinear

__version__ = "0.1.0"

__all__ = [
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
