"""Quality metrics for a placement run.

Conflict counts look at the final layout alone. Displacement and direction
deviation compare final label centers against the initial layout, the latter
averaged over a fixed reference proximity graph so that runs remain
comparable no matter how the graph evolved during iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .forces import conflicting_feature_pairs, conflicting_label_pairs, scene_arrays
from .geometry import normalize_orientation_deg
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


def count_conflicts(
    labels: Sequence[Label], features: Sequence[PointFeature], d_min: float
) -> tuple[int, int]:
    """(label-label, label-feature) conflict counts.

    A conflict is an overlap or a gap below d_min. Deleted labels and their
    feature symbols are excluded, as is each label's own feature.
    """
    rects, arrays = label_rects(labels), scene_arrays(labels, features)
    n_rr = len(conflicting_label_pairs(rects, arrays.live, d_min))
    n_rp = len(conflicting_feature_pairs(rects, arrays, d_min))
    return n_rr, n_rp


def direction_deviation(o1_deg: float, o2_deg: float) -> float:
    """Deviation between two undirected edge orientations, in [0, 90]."""
    a = normalize_orientation_deg(o1_deg)
    b = normalize_orientation_deg(o2_deg)
    d = abs(a - b)
    return d if d < 90.0 else 180.0 - d


def _edge_orientation(p: tuple[float, float], q: tuple[float, float]) -> float | None:
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dx == 0.0 and dy == 0.0:
        return None
    return normalize_orientation_deg(math.degrees(math.atan2(dy, dx)))


def _centers(labels: Sequence[Label], slots: set[int]) -> dict[int, tuple[float, float]]:
    """The rect centre of each label at slots, as `Rect.center` gives it."""
    out = {}
    for i in slots:
        r = labels[i].rect
        out[i] = (0.5 * (r.x_min + r.x_max), 0.5 * (r.y_min + r.y_max))
    return out


def edge_direction_deviations(
    initial: Sequence[Label], final: Sequence[Label], graph: ProximityGraph
) -> list[tuple[int, int, float]]:
    """Per-edge orientation drift between the two layouts.

    Edges whose endpoints coincide in either layout have no orientation and
    contribute zero drift. Each label's centre is taken once per layout.
    """
    edges = graph.edges.tolist()
    slots = {i for edge in edges for i in edge}
    before, after = _centers(initial, slots), _centers(final, slots)
    out = []
    for i, j in edges:
        o1 = _edge_orientation(before[i], before[j])
        o2 = _edge_orientation(after[i], after[j])
        dev = 0.0 if o1 is None or o2 is None else direction_deviation(o1, o2)
        out.append((i, j, dev))
    return out


def mean_direction_deviation(
    initial: Sequence[Label], final: Sequence[Label], graph: ProximityGraph
) -> float:
    """Average orientation drift over the reference graph's edges, degrees."""
    devs = edge_direction_deviations(initial, final, graph)
    if not devs:
        return 0.0
    # Added left to right: from Python 3.12, sum() compensates float sums.
    total = 0.0
    for _, _, d in devs:
        total += d
    return total / len(devs)


def total_displacement_cm(initial: Sequence[Label], final: Sequence[Label]) -> float:
    """Sum of label center displacements, reported in cm."""
    if len(initial) != len(final):
        raise ValueError("layouts must be index-aligned")
    total_mm = 0.0
    for a, b in zip(initial, final):
        if b.deleted:
            continue
        total_mm += (b.rect.center() - a.rect.center()).norm()
    return total_mm / 10.0


def build_report(
    initial: Sequence[Label],
    final: Sequence[Label],
    features: Sequence[PointFeature],
    d_min: float,
    graph: ProximityGraph,
    elapsed_s: float = 0.0,
) -> MetricsReport:
    n_rr, n_rp = count_conflicts(final, features, d_min)
    return MetricsReport(
        label_conflicts=n_rr,
        feature_conflicts=n_rp,
        total_displacement_cm=total_displacement_cm(initial, final),
        mean_direction_deviation_deg=mean_direction_deviation(initial, final, graph),
        elapsed_s=elapsed_s,
        edge_deviations=tuple(edge_direction_deviations(initial, final, graph)),
    )
