"""Reference placement methods for comparison runs.

`nop` returns the starting layout untouched. `localp` is a purely greedy
local repair: it repeatedly picks the most conflicted label and slides it to
the nearest position that clears all of its conflicts. Only conflicted
labels ever move, which resolves overlaps but tends to tear up relative
directions between neighbors; that contrast is exactly what the beam method
is measured against.
"""

from __future__ import annotations

from typing import Sequence

from .forces import scene_arrays
from .geometry import points_array
from .optimizer import starting_layout
from .repair import greedy_repair
from .scene import Label, LayoutConfig, PointFeature, label_rects, placed_labels


def nop(features: Sequence[PointFeature], cfg: LayoutConfig) -> list[Label]:
    """The layout `run` and `localp` start from (`starting_layout`), unmodified."""
    return starting_layout(features, cfg)


def localp(features: Sequence[PointFeature], cfg: LayoutConfig) -> list[Label]:
    """Greedy conflict-driven adjustment of the initial layout.

    Labels are ranked by conflict degree (ties by index); the worst one is
    grid-searched for the nearest clearing displacement along the leader
    type's admissible axes, with the radius doubling on failure. Residual
    conflicts are left in place when the bounded search fails, for the
    metrics to report honestly.
    """
    features = list(features)
    labels = starting_layout(features, cfg)
    rects, conns = label_rects(labels), points_array(l.conn for l in labels)
    arrays = scene_arrays(labels, features)
    greedy_repair(rects, conns, arrays, cfg)
    return placed_labels(labels, arrays.live, rects, conns)
