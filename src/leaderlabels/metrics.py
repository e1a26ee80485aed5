"""Quality metrics for a placement run.

Conflict counts look at the final layout alone. Displacement and direction
deviation compare final label centers against the initial layout, the latter
averaged over a fixed reference proximity graph so that runs remain
comparable no matter how the graph evolved during iteration.

Every metric takes the layout as (n, 4) rects with the live slots or one
`forces.SceneArrays`; `build_report` takes `Label`s and reads them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .forces import SceneArrays, conflicting_feature_pairs, conflicting_label_pairs, scene_arrays
from .geometry import normalize_orientation_deg, rect_centers
from .proximity import ProximityGraph
from .scene import Label, PointFeature, label_rects


@dataclass(frozen=True, slots=True)
class MetricsReport:
    label_conflicts: int
    feature_conflicts: int
    total_displacement_cm: float
    mean_direction_deviation_deg: float
    elapsed_s: float
    edge_deviations: tuple[tuple[int, int, float], ...]

    def as_dict(self) -> dict:
        return {
            "label_conflicts": self.label_conflicts,
            "feature_conflicts": self.feature_conflicts,
            "total_displacement_cm": self.total_displacement_cm,
            "mean_direction_deviation_deg": self.mean_direction_deviation_deg,
            "elapsed_s": self.elapsed_s,
        }


def count_conflicts(rects: np.ndarray, arrays: SceneArrays, d_min: float) -> tuple[int, int]:
    """(label-label, label-feature) conflict counts of the layout at the
    (n, 4) rects.

    A conflict is an overlap or a gap below d_min. Deleted labels and their
    feature symbols are excluded, as is each label's own feature.
    """
    n_rr = len(conflicting_label_pairs(rects, arrays.live, d_min))
    n_rp = len(conflicting_feature_pairs(rects, arrays, d_min))
    return n_rr, n_rp


def direction_deviation(o1_deg: float, o2_deg: float) -> float:
    """Deviation between two undirected edge orientations, in [0, 90]."""
    a = normalize_orientation_deg(o1_deg)
    b = normalize_orientation_deg(o2_deg)
    d = abs(a - b)
    return d if d < 90.0 else 180.0 - d


def _edge_orientation(p: list[float], q: list[float]) -> float | None:
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dx == 0.0 and dy == 0.0:
        return None
    return normalize_orientation_deg(math.degrees(math.atan2(dy, dx)))


def edge_direction_deviations(
    initial_rects: np.ndarray, final_rects: np.ndarray, graph: ProximityGraph
) -> list[tuple[int, int, float]]:
    """Per-edge orientation drift between the layouts at the (n, 4)
    initial_rects and final_rects.

    Edges whose endpoints coincide in either layout have no orientation and
    contribute zero drift. Each label's centre is taken once per layout.
    """
    before, after = rect_centers(initial_rects).tolist(), rect_centers(final_rects).tolist()
    out = []
    for i, j in graph.edges.tolist():
        o1 = _edge_orientation(before[i], before[j])
        o2 = _edge_orientation(after[i], after[j])
        dev = 0.0 if o1 is None or o2 is None else direction_deviation(o1, o2)
        out.append((i, j, dev))
    return out


def _mean_deviation(devs: list[tuple[int, int, float]]) -> float:
    if not devs:
        return 0.0
    # Added left to right: from Python 3.12, sum() compensates float sums.
    total = 0.0
    for _, _, d in devs:
        total += d
    return total / len(devs)


def mean_direction_deviation(
    initial_rects: np.ndarray, final_rects: np.ndarray, graph: ProximityGraph
) -> float:
    """Average orientation drift over the reference graph's edges, degrees."""
    return _mean_deviation(edge_direction_deviations(initial_rects, final_rects, graph))


def total_displacement_cm(initial_rects: np.ndarray, final_rects: np.ndarray, live: np.ndarray) -> float:
    """Sum of the live labels' center displacements between the (n, 4)
    initial_rects and final_rects, reported in cm."""
    if len(initial_rects) != len(final_rects):
        raise ValueError("layouts must be index-aligned")
    moved = rect_centers(final_rects[live]) - rect_centers(initial_rects[live])
    total_mm = 0.0
    for dx, dy in moved.tolist():
        total_mm += math.hypot(dx, dy)
    return total_mm / 10.0


def build_report(
    initial: Sequence[Label],
    final: Sequence[Label],
    features: Sequence[PointFeature],
    d_min: float,
    graph: ProximityGraph,
    elapsed_s: float = 0.0,
) -> MetricsReport:
    """The metrics of the final labels against the initial ones, each
    layout read once into arrays; the final layout's deleted labels are
    left out."""
    before, rects, arrays = label_rects(initial), label_rects(final), scene_arrays(final, features)
    n_rr, n_rp = count_conflicts(rects, arrays, d_min)
    displacement = total_displacement_cm(before, rects, arrays.live)
    devs = edge_direction_deviations(before, rects, graph)
    return MetricsReport(
        label_conflicts=n_rr,
        feature_conflicts=n_rp,
        total_displacement_cm=displacement,
        mean_direction_deviation_deg=_mean_deviation(devs),
        elapsed_s=elapsed_s,
        edge_deviations=tuple(devs),
    )
