"""Leader-line point label placement by elastic beam displacement.

Labels are modeled as nodes of a beam network built over a proximity graph
of their bounding rectangles. Constraint violations (overlaps, tight gaps,
detached leaders, screen overruns) load the network with forces, and
iteratively solving the stiffness system slides the labels into a layout
that separates them while preserving their relative arrangement.
"""

from .baselines import localp, nop
from .beams import BeamParams, DisplacementField, solve_displacements
from .forces import ForceAssignment, assemble_forces
from .geometry import Rect, Vec2
from .metrics import MetricsReport, build_report, count_conflicts
from .optimizer import RunReport, effective_max_iterations, run
from .proximity import ProximityGraph, delaunay_graph, mst_graph, partition_labels, prune_graph
from .scene import (
    GraphKind,
    Label,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    font_size_for,
    initial_layout,
    measure_text,
)
from .scenefile import generate_synthetic, load_scene, save_scene, synthetic_scene
from .svgrender import render_svg, write_svg

__version__ = "0.1.0"

__all__ = [
    "BeamParams",
    "DisplacementField",
    "ForceAssignment",
    "GraphKind",
    "Label",
    "LayoutConfig",
    "LeaderSpec",
    "LeaderType",
    "MetricsReport",
    "PointFeature",
    "ProximityGraph",
    "Rect",
    "RunReport",
    "Vec2",
    "assemble_forces",
    "build_report",
    "count_conflicts",
    "delaunay_graph",
    "effective_max_iterations",
    "font_size_for",
    "generate_synthetic",
    "initial_layout",
    "load_scene",
    "localp",
    "measure_text",
    "mst_graph",
    "nop",
    "partition_labels",
    "prune_graph",
    "render_svg",
    "run",
    "save_scene",
    "solve_displacements",
    "synthetic_scene",
    "write_svg",
    "__version__",
]
