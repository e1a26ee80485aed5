"""Greedy local conflict repair.

Shared by the LocalP baseline (which runs it on the raw initial layout) and
by the optimizer's finishing pass (which runs it on whatever small residue
the beam iteration could not untangle, typically labels wedged between
opposing constraints whose net force cancels).

The procedure ranks labels by conflict degree and grid-searches the worst
one for the nearest displacement that clears every one of its conflicts
while keeping it on screen and attached to its leader. One search does
this: it steps outward along the leader type's admissible axes first and,
for a label whose every axis step is blocked, then walks the off-axis
borders of square grid rings, each border nearest first. A move is accepted
only when the new spot is conflict-free against the whole scene, so every
accepted move strictly reduces the number of conflicting pairs and the loop
terminates. Labels never in conflict are never touched. Both kinds of step
draw on one deterministic candidate-evaluation budget per invocation, so
that hopelessly overfull scenes fail fast instead of grinding.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Iterable, Sequence

from .forces import conflicting_feature_pairs, conflicting_label_pairs
from .geometry import Rect, Vec2, point_rect_signed_clearance, rect_distance
from .scene import Label, LayoutConfig, LeaderType, PointFeature, connection_point

# Search retries double the radius each time: 10 * d_min * 2^retry. Eight
# retries reach 512 mm at the default d_min, beyond any screen used here, so
# the axis search only gives up when every admissible position is blocked.
BASE_RADIUS_FACTOR = 10.0
MAX_RETRIES = 8
# The 2D ring search is quadratic in the radius, so it escalates less far.
MAX_RETRIES_DIAGONAL = 3
# Hard cap on candidate positions evaluated across one repair invocation.
# Feasible scenes use a few thousand; the cap only bites on hopelessly
# overfull scenes, which then report their residue instead of grinding.
CANDIDATE_BUDGET = 500_000


def admissible_directions(cfg: LayoutConfig) -> tuple[Vec2, ...]:
    """Unit directions a label may move in, by leader type."""
    if cfg.leader.kind is LeaderType.FIXED_DIR_FIXED_CONN:
        u = cfg.leader.unit()
        return (u, -u)
    return (Vec2(1.0, 0.0), Vec2(-1.0, 0.0), Vec2(0.0, 1.0), Vec2(0.0, -1.0))


def conflict_degrees(
    labels: Sequence[Label], features: Sequence[PointFeature], d_min: float
) -> dict[int, int]:
    degree: dict[int, int] = {}
    for i, j in conflicting_label_pairs(labels, d_min):
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    for i, _ in conflicting_feature_pairs(labels, features, d_min):
        degree[i] = degree.get(i, 0) + 1
    return degree


class _Budget:
    __slots__ = ("left",)

    def __init__(self, amount: int) -> None:
        self.left = amount

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def greedy_repair(
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    diagonal: bool = False,
    max_axis_retries: int = MAX_RETRIES,
) -> tuple[list[Label], int]:
    """Resolve conflicts in place by nearest-first grid moves.

    With diagonal=True a label whose axis-aligned escapes are all blocked is
    additionally searched over a 2D grid ring, which rescues labels wedged
    into corners (for example screen edge on one side, fixed symbol on the
    other). max_axis_retries bounds how far the axis search escalates; a
    finishing pass after an iterative solve should keep it small so stuck
    labels get nudged, never relocated across the layout. Returns the
    adjusted labels and how many moves were applied. Stops when
    conflict-free, when no conflicted label has a clearing position within
    the bounded search radius, or when the evaluation budget runs out.
    """
    labels = list(labels)
    anchors = {f.id: f.anchor for f in features}
    deleted_ids = {l.feature_id for l in labels if l.deleted}
    directions = admissible_directions(cfg)
    grid = cfg.d_min / 2.0

    def axis_steps(k: int) -> Iterable[Vec2]:
        return (direction * (k * grid) for direction in directions)

    def ring_steps(k: int) -> Iterable[Vec2]:
        return (Vec2(ix * grid, iy * grid) for ix, iy in _ring_border(k))

    # Axis steps first; rings only for a label whose every axis step is blocked.
    searches = [(max_axis_retries, 1.0, axis_steps)]
    if diagonal and cfg.leader.kind is not LeaderType.FIXED_DIR_FIXED_CONN:
        searches.append((MAX_RETRIES_DIAGONAL, math.sqrt(2.0), ring_steps))
    moves = 0
    budget = _Budget(CANDIDATE_BUDGET)
    # A label whose search exhausted stays parked until some move lands near
    # enough to change its surroundings.
    stuck: dict[int, float] = {}

    while budget.left > 0:
        degree = conflict_degrees(labels, features, cfg.d_min)
        if not degree:
            break
        candidates = [i for i in degree if i not in stuck]
        moved = False
        for idx in sorted(candidates, key=lambda i: (-degree[i], i)):
            lbl = labels[idx]
            anchor = anchors[lbl.feature_id]
            for retries, reach_scale, steps in searches:
                d = _search(
                    idx, labels, features, cfg, anchor, deleted_ids, budget,
                    retries, reach_scale, steps,
                )
                if d is not None:
                    break
            if d is not None:
                old_center = lbl.rect.center()
                rect = lbl.rect.translated(d)
                conn = connection_point(rect, anchor, cfg.leader, lbl.conn + d)
                labels[idx] = replace(lbl, rect=rect, conn=conn)
                moves += 1
                moved = True
                # Unpark stuck labels whose surroundings this move changed,
                # at either the vacated or the newly occupied spot.
                new_center = rect.center()
                for s_idx in [
                    s
                    for s, reach in stuck.items()
                    if (labels[s].rect.center() - old_center).norm() <= reach
                    or (labels[s].rect.center() - new_center).norm() <= reach
                ]:
                    del stuck[s_idx]
                break
            reach = BASE_RADIUS_FACTOR * cfg.d_min * (2.0**max_axis_retries) + 4.0 * math.hypot(
                lbl.rect.width, lbl.rect.height
            )
            stuck[idx] = reach
        if not moved:
            break
    return labels, moves


def _search(
    idx: int,
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    anchor: Vec2,
    deleted_ids: set[str],
    budget: _Budget,
    retries: int,
    reach_scale: float,
    step_offsets: Callable[[int], Iterable[Vec2]],
) -> Vec2 | None:
    """Nearest clearing displacement for label idx, or None.

    step_offsets(k) yields the candidate offsets of step k, nearest first.
    Steps run outward in retries whose radius doubles each time; an offset
    of step k lies at most k * grid * reach_scale from the label's center.
    """
    rect = labels[idx].rect
    center = rect.center()
    own_half_diag = 0.5 * math.hypot(rect.width, rect.height)
    own_feature = labels[idx].feature_id
    grid = cfg.d_min / 2.0
    start = 1
    for retry in range(retries + 1):
        radius = BASE_RADIUS_FACTOR * cfg.d_min * (2.0**retry)
        # Anything beyond this retry's reach cannot touch a candidate;
        # prefilter once per retry.
        reach = radius * reach_scale + own_half_diag + cfg.d_min
        near_labels = [
            other.rect
            for j, other in enumerate(labels)
            if j != idx
            and not other.deleted
            and (other.rect.center() - center).norm()
            <= reach + 0.5 * math.hypot(other.rect.width, other.rect.height)
        ]
        near_features = [
            f
            for f in features
            if f.id != own_feature
            and f.id not in deleted_ids
            and (f.anchor - center).norm() <= reach + f.symbol_radius
        ]
        end = int(radius / grid)
        for k in range(start, end + 1):
            for d in step_offsets(k):
                if not budget.spend():
                    return None
                if _candidate_ok(rect.translated(d), near_labels, near_features, cfg, anchor):
                    return d
        start = end + 1
    return None


def _ring_border(r: int) -> list[tuple[int, int]]:
    """Grid offsets (ix, iy) on the border of the square ring r, both non-zero.

    Ordered by (ix^2 + iy^2, ix, iy): for each m = 1..r the cells at squared
    distance r^2 + m^2, eight of them below the corners and four at m = r.
    """
    cells = []
    for m in range(1, r):
        cells += [(-r, -m), (-r, m), (-m, -r), (-m, r), (m, -r), (m, r), (r, -m), (r, m)]
    return cells + [(-r, -r), (-r, r), (r, -r), (r, r)]


def _candidate_ok(
    candidate: Rect,
    near_labels: Sequence[Rect],
    near_features: Sequence[PointFeature],
    cfg: LayoutConfig,
    anchor: Vec2,
) -> bool:
    d_min = cfg.d_min
    for other in near_labels:
        if rect_distance(candidate, other) < d_min:
            return False
    for feat in near_features:
        if point_rect_signed_clearance(feat.anchor, candidate) - feat.symbol_radius < d_min:
            return False
    screen = cfg.screen
    fits = (
        candidate.width <= screen.width - 2 * d_min
        and candidate.height <= screen.height - 2 * d_min
    )
    if fits and not (
        candidate.x_min - screen.x_min >= d_min
        and screen.x_max - candidate.x_max >= d_min
        and candidate.y_min - screen.y_min >= d_min
        and screen.y_max - candidate.y_max >= d_min
    ):
        return False
    if cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN:
        # Keep the label attached: the leader ray must still meet the
        # attachment edge after the move.
        u = cfg.leader.unit()
        if abs(u.y) >= abs(u.x):
            if not (candidate.x_min <= anchor.x <= candidate.x_max):
                return False
            level = candidate.y_min if u.y > 0 else candidate.y_max
            if (level - anchor.y) * u.y < 0:
                return False
        else:
            if not (candidate.y_min <= anchor.y <= candidate.y_max):
                return False
            level = candidate.x_min if u.x > 0 else candidate.x_max
            if (level - anchor.x) * u.x < 0:
                return False
    return True
