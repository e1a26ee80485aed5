"""Shared builders for randomized test scenes and geometry."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
import pytest
import scipy.linalg

from leaderlabels.forces import SceneArrays, scene_arrays
from leaderlabels.geometry import Rect, Vec2, points_array
from leaderlabels.repair import MAX_RETRIES, greedy_repair
from leaderlabels.scene import (
    BeamParams,
    Label,
    LayoutConfig,
    LeaderType,
    PointFeature,
    label_rects,
    live_slots,
    placed_labels,
)


class OverlapError(ValueError):
    """Raised when an operation requires rectangle interiors to be disjoint."""


def interiors_overlap(a: Rect, b: Rect) -> bool:
    """True when the open interiors intersect. Touching edges do not count."""
    return a.x_min < b.x_max and b.x_min < a.x_max and a.y_min < b.y_max and b.y_min < a.y_max


def random_rect(rng: random.Random, span: float = 100.0, max_side: float = 20.0) -> Rect:
    x = rng.uniform(0.0, span)
    y = rng.uniform(0.0, span)
    w = rng.uniform(0.5, max_side)
    h = rng.uniform(0.5, max_side)
    return Rect(x, y, x + w, y + h)


def disjoint_rect_pair(rng: random.Random) -> tuple[Rect, Rect]:
    """Two rects guaranteed not to overlap in their interiors."""
    while True:
        a = random_rect(rng)
        b = random_rect(rng)
        if not (a.x_min < b.x_max and b.x_min < a.x_max and a.y_min < b.y_max and b.y_min < a.y_max):
            return a, b


def overlapping_rect_pair(rng: random.Random) -> tuple[Rect, Rect]:
    while True:
        a = random_rect(rng)
        dx = rng.uniform(-0.8, 0.8) * a.width
        dy = rng.uniform(-0.8, 0.8) * a.height
        b = Rect(
            a.x_min + dx,
            a.y_min + dy,
            a.x_min + dx + rng.uniform(0.5, 20.0),
            a.y_min + dy + rng.uniform(0.5, 20.0),
        )
        if a.x_min < b.x_max and b.x_min < a.x_max and a.y_min < b.y_max and b.y_min < a.y_max:
            return a, b


def _nearest_coords(a_min: float, a_max: float, b_min: float, b_max: float) -> tuple[float, float]:
    # Nearest coordinates of two intervals; midpoint of the shared span on overlap.
    if b_min >= a_max:
        return a_max, b_min
    if a_min >= b_max:
        return a_min, b_max
    m = 0.5 * (max(a_min, b_min) + min(a_max, b_max))
    return m, m


def rect_nearest_points(a: Rect, b: Rect) -> tuple[Vec2, Vec2]:
    """Closest point pair (p on a, q on b) between two disjoint rectangles.

    When the rectangles only touch, p == q on the shared boundary. Raises
    OverlapError when the interiors intersect, because no boundary pair is
    meaningful then.
    """
    if interiors_overlap(a, b):
        raise OverlapError("rectangle interiors intersect")
    px, qx = _nearest_coords(a.x_min, a.x_max, b.x_min, b.x_max)
    py, qy = _nearest_coords(a.y_min, a.y_max, b.y_min, b.y_max)
    return Vec2(px, py), Vec2(qx, qy)


@dataclass(frozen=True, slots=True)
class AxisGaps:
    """Signed displacement of a rect along each axis direction that brings a
    point onto the corresponding face.

    Moving the rect by x_neg in the -x direction puts the point on its x_max
    face, and so on. A negative gap means the rect is already clear of the
    point along that direction.
    """

    x_neg: float
    x_pos: float
    y_neg: float
    y_pos: float


def point_axis_gaps(r: Rect, p: Vec2) -> AxisGaps:
    return AxisGaps(
        x_neg=r.x_max - p.x,
        x_pos=p.x - r.x_min,
        y_neg=r.y_max - p.y,
        y_pos=p.y - r.y_min,
    )


def point_rect_distance(p: Vec2, r: Rect) -> float:
    """Distance from a point to a closed rectangle, 0 when inside."""
    dx = max(0.0, r.x_min - p.x, p.x - r.x_max)
    dy = max(0.0, r.y_min - p.y, p.y - r.y_max)
    return math.hypot(dx, dy)


def rect_distance(a: Rect, b: Rect) -> float:
    """Minimum Euclidean distance between two rectangles, 0 when they meet."""
    dx = max(0.0, a.x_min - b.x_max, b.x_min - a.x_max)
    dy = max(0.0, a.y_min - b.y_max, b.y_min - a.y_max)
    return math.hypot(dx, dy)


def point_rect_signed_clearance(p: Vec2, r: Rect) -> float:
    """Signed distance from a point to a rectangle boundary.

    Positive outside, zero on the boundary, negative inside (minus the
    penetration depth to the nearest face).
    """
    dx = max(r.x_min - p.x, p.x - r.x_max)
    dy = max(r.y_min - p.y, p.y - r.y_max)
    if dx <= 0.0 and dy <= 0.0:
        return max(dx, dy)
    return math.hypot(max(dx, 0.0), max(dy, 0.0))


def labels_from_rects(rects: list[Rect]) -> list[Label]:
    return [
        Label(
            feature_id=f"f{i}",
            rect=r,
            conn=Vec2(0.5 * (r.x_min + r.x_max), r.y_min),
            font_size=10.0,
        )
        for i, r in enumerate(rects)
    ]


def label_layout(labels: Sequence[Label]) -> tuple[np.ndarray, np.ndarray]:
    """The labels as the array layers take them: (n, 4) rects and live slots."""
    return label_rects(labels), live_slots(labels)


def scene_layout(
    labels: Sequence[Label], features: Sequence[PointFeature]
) -> tuple[np.ndarray, SceneArrays]:
    """The labels and features as the conflict scans take them: (n, 4)
    rects and `scene_arrays`."""
    return label_rects(labels), scene_arrays(labels, features)


def repair_labels(
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    diagonal: bool = False,
    max_axis_retries: int = MAX_RETRIES,
) -> tuple[list[Label], int]:
    """`repair.greedy_repair` of the labels: the repaired labels and the
    moves."""
    rects, conns = label_rects(labels), points_array(l.conn for l in labels)
    arrays = scene_arrays(labels, features)
    _, moves = greedy_repair(rects, conns, arrays, cfg, diagonal, max_axis_retries)
    return placed_labels(labels, arrays.live, rects, conns), moves


def pair_totals(a: Rect, b: Rect, d_min: float) -> tuple[Vec2, Vec2]:
    """The totals `forces.assemble_forces` gives labels a and b, passed as
    one conflicting pair, at d_min: on leader type 2, which has no
    attachment pull, and on a screen far from both, so that the pair force
    is all that acts."""
    from leaderlabels.forces import ConflictPairs, assemble_forces
    from leaderlabels.scene import LeaderSpec

    labels = labels_from_rects([a, b])
    features = [PointFeature(id=l.feature_id, anchor=l.conn, depth=100.0, text="T") for l in labels]
    leader = LeaderSpec(kind=LeaderType.FIXED_DIR_FIXED_CONN)
    cfg = LayoutConfig(screen=Rect(-1e4, -1e4, 1e4, 1e4), d_min=d_min, leader=leader)
    pairs = ConflictPairs([(0, 1)], [])
    fa, fb = assemble_forces(cfg, pairs, *scene_layout(labels, features)).totals.tolist()
    return Vec2(*fa), Vec2(*fb)


def random_labels(rng: random.Random, n: int, span: float = 100.0, max_side: float = 20.0) -> list[Label]:
    return labels_from_rects([random_rect(rng, span, max_side) for _ in range(n)])


def brute_force_label_conflicts(labels, d_min: float) -> list[tuple[int, int]]:
    """O(n^2) reference for the label conflict scan."""
    out = []
    for i in range(len(labels)):
        if labels[i].deleted:
            continue
        for j in range(i + 1, len(labels)):
            if labels[j].deleted:
                continue
            ri, rj = labels[i].rect, labels[j].rect
            if rect_distance(ri, rj) < d_min or interiors_overlap(ri, rj):
                out.append((i, j))
    return out


def brute_force_feature_conflicts(labels, features, d_min: float) -> list[tuple[int, int]]:
    deleted_ids = {l.feature_id for l in labels if l.deleted}
    out = []
    for i, lbl in enumerate(labels):
        if lbl.deleted:
            continue
        for k, f in enumerate(features):
            if f.id == lbl.feature_id or f.id in deleted_ids:
                continue
            if point_rect_signed_clearance(f.anchor, lbl.rect) - f.symbol_radius < d_min:
                out.append((i, k))
    return out


def segment_crosses_interior(p: Vec2, q: Vec2, r: Rect) -> bool:
    """Scalar reference for `geometry.segments_cross_interiors`: clip the
    segment to the rect axis by axis, stopping once the clip is empty."""
    t0, t1 = 0.0, 1.0
    dx = q.x - p.x
    dy = q.y - p.y
    for delta, lo, hi, start in ((dx, r.x_min, r.x_max, p.x), (dy, r.y_min, r.y_max, p.y)):
        if delta == 0.0:
            if start < lo or start > hi:
                return False
        else:
            ta = (lo - start) / delta
            tb = (hi - start) / delta
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1:
                return False
    if t0 >= t1:
        return False
    tm = 0.5 * (t0 + t1)
    mx = p.x + tm * dx
    my = p.y + tm * dy
    return r.x_min < mx < r.x_max and r.y_min < my < r.y_max


def reference_attachment_force(label: Label, feature: PointFeature, leader) -> Vec2:
    """Scalar reference for `forces.attachment_forces`: the pull back over
    the leader ray, from the attachment edge's two ends."""
    if not leader.kind.fixed_direction:
        return Vec2(0.0, 0.0)
    u = leader.unit()
    n = u.perp()
    rect = label.rect
    if abs(u.y) >= abs(u.x):
        y = rect.y_min if u.y > 0 else rect.y_max
        e1, e2 = Vec2(rect.x_min, y), Vec2(rect.x_max, y)
    else:
        x = rect.x_min if u.x > 0 else rect.x_max
        e1, e2 = Vec2(x, rect.y_min), Vec2(x, rect.y_max)
    a_off = n.dot(e1 - feature.anchor)
    b_off = n.dot(e2 - feature.anchor)
    lo, hi = (a_off, b_off) if a_off <= b_off else (b_off, a_off)
    if lo <= 0.0 <= hi:
        return Vec2(0.0, 0.0)
    if lo > 0.0:
        return n * (-lo)
    return n * (-hi)


def reference_screen_force(rect: Rect, screen: Rect, d_min: float) -> Vec2:
    """Scalar reference for `forces.screen_forces`, whether or not the rect
    fits the screen."""
    fx = 0.0
    fy = 0.0
    left = rect.x_min - screen.x_min
    if left < d_min:
        fx += d_min - left
    right = screen.x_max - rect.x_max
    if right < d_min:
        fx -= d_min - right
    bottom = rect.y_min - screen.y_min
    if bottom < d_min:
        fy += d_min - bottom
    top = screen.y_max - rect.y_max
    if top < d_min:
        fy -= d_min - top
    return Vec2(fx, fy)


def reference_separation_force(a: Rect, b: Rect, d_min: float) -> tuple[Vec2, Vec2]:
    """Reference for `forces._separation`, on `Rect`s and `Vec2`s, of rects
    whose interiors are disjoint: half the remaining deficit along the
    nearest-point axis, the center line for touching rects and +x for
    concentric ones."""
    gap = rect_distance(a, b)
    if gap > 0.0:
        pa, qb = rect_nearest_points(a, b)
        d, inv = pa - qb, 1.0 / gap
        direction = d * inv if inv < math.inf else Vec2(d.x / gap, d.y / gap)
    else:
        d = a.center() - b.center()
        direction = d.normalized() if d.norm() > 0.0 else Vec2(1.0, 0.0)
    fa = direction * (0.5 * (d_min - gap))
    return fa, Vec2(-fa.x, -fa.y)


def reference_overlap_force(a: Rect, b: Rect, d_min: float) -> tuple[Vec2, Vec2]:
    """Reference for `forces._overlap`, of rects whose interiors intersect:
    the smallest of the four axis moves, ties in the order -x, +x, -y, +y,
    half to each rect."""
    mags = (
        a.x_max - b.x_min + d_min,
        b.x_max - a.x_min + d_min,
        a.y_max - b.y_min + d_min,
        b.y_max - a.y_min + d_min,
    )
    best = 0
    for k in range(1, 4):
        if abs(mags[k]) < abs(mags[best]):
            best = k
    dirs = (Vec2(-1.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, -1.0), Vec2(0.0, 1.0))
    fa = dirs[best] * (0.5 * abs(mags[best]))
    return fa, Vec2(-fa.x, -fa.y)


def reference_point_repulsion_candidates(rect: Rect, center: Vec2, radius: float, d_min: float) -> list[Vec2]:
    """Reference for `forces._escapes`, from `point_axis_gaps`: the four
    axis moves of rect that give the symbol disk an axis clearance of
    d_min."""
    gaps = point_axis_gaps(rect, center)
    pad = radius + d_min
    return [
        Vec2(-(gaps.x_neg + pad), 0.0),
        Vec2(gaps.x_pos + pad, 0.0),
        Vec2(0.0, -(gaps.y_neg + pad)),
        Vec2(0.0, gaps.y_pos + pad),
    ]


def reference_compose_point_forces(candidates_per_feature) -> Vec2:
    """Reference for `forces._compose`: a recursive search over
    the angle-admissible selections, then a stack-driven one over all of
    them, each keeping the first smallest sum it visits."""
    sets = [list(c) for c in candidates_per_feature]
    best_adm = None
    chosen: list[Vec2] = []

    def visit(level: int, sx: float, sy: float) -> None:
        nonlocal best_adm
        if level == len(sets):
            mag2 = sx * sx + sy * sy
            if best_adm is None or mag2 < best_adm[0]:
                best_adm = (mag2, Vec2(sx, sy))
            return
        for cand in sets[level]:
            if any(prev.dot(cand) < 0.0 for prev in chosen):
                continue
            chosen.append(cand)
            visit(level + 1, sx + cand.x, sy + cand.y)
            chosen.pop()

    visit(0, 0.0, 0.0)
    if best_adm is not None:
        return best_adm[1]
    best_any = None
    stack = [(0, 0.0, 0.0)]
    while stack:
        level, sx, sy = stack.pop()
        if level == len(sets):
            mag2 = sx * sx + sy * sy
            if best_any is None or mag2 < best_any[0]:
                best_any = (mag2, Vec2(sx, sy))
            continue
        for cand in reversed(sets[level]):
            stack.append((level + 1, sx + cand.x, sy + cand.y))
    return best_any[1]


def reference_assemble_forces(features, cfg, pairs, rects, arrays, group=None, n_groups=1):
    """Reference for `forces.assemble_forces`, as it summed the forces
    before its lean kernel: the attachment and screen forces as (n, 2)
    arrays, the totals as Python lists, and one `Rect` per label in a
    conflicting pair for the reference pair and symbol rules above."""
    from leaderlabels.forces import (
        _SOURCE_SETS,
        MAX_COMPOSED_FEATURES,
        RESOLVE_TARGET_FACTOR,
        ForceAssignment,
        LabelLargerThanScreenError,
    )
    from leaderlabels.scene import attachment_edge

    attachment_bit, pair_bit, point_bit, screen_bit = 1, 2, 4, 8
    d_min = cfg.d_min
    live = arrays.live
    total = np.zeros((len(rects), 2))
    tags = [0] * n_groups
    target = RESOLVE_TARGET_FACTOR * d_min
    group_of = [0] * len(rects) if group is None else group.tolist()

    def mark(slots, bit: int) -> None:
        for g in {group_of[i] for i in slots}:
            tags[g] |= bit

    if cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN:
        boxes, anchors = rects[live], arrays.anchors[live]
        u = cfg.leader.unit()
        n = u.perp()
        along, level = attachment_edge(boxes, u)
        across, nv = 1 - along, (n.x, n.y)
        ends = boxes[:, across::2] - anchors[:, across, None]
        off = nv[along] * (level - anchors[:, along])[:, None] + nv[across] * ends
        lo, hi = off.min(axis=1), off.max(axis=1)
        pull = -np.where(lo > 0.0, lo, hi)
        fa = np.column_stack((n.x * pull, n.y * pull))
        fa[(lo <= 0.0) & (hi >= 0.0)] = 0.0
        total[live] += fa
        if fa.any():
            mark(live[fa.any(axis=1)].tolist(), attachment_bit)
    tx, ty = total.T.tolist()

    in_conflict = {i for pair in pairs.labels for i in pair} | {i for i, _ in pairs.features}
    boxes = {i: Rect(*rects[i].tolist()) for i in in_conflict}
    for i, j in pairs.labels:
        ri, rj = boxes[i], boxes[j]
        if interiors_overlap(ri, rj):
            fi, fj = reference_overlap_force(ri, rj, target)
        else:
            fi, fj = reference_separation_force(ri, rj, target)
        tx[i] += fi.x
        ty[i] += fi.y
        tx[j] += fj.x
        ty[j] += fj.y
    mark((i for i, _ in pairs.labels), pair_bit)

    feature_conflicts: dict[int, list[tuple[float, int]]] = {}
    for i, k in pairs.features:
        gap = point_rect_signed_clearance(features[k].anchor, boxes[i]) - features[k].symbol_radius
        feature_conflicts.setdefault(i, []).append((gap, k))
    pushed = []
    for i, hits in feature_conflicts.items():
        hits.sort()
        cand_sets = [
            reference_point_repulsion_candidates(
                boxes[i], features[k].anchor, features[k].symbol_radius, target
            )
            for _, k in hits[:MAX_COMPOSED_FEATURES]
        ]
        composed = reference_compose_point_forces(cand_sets)
        if composed.norm() > 0.0:
            tx[i] += composed.x
            ty[i] += composed.y
            pushed.append(i)
    mark(pushed, point_bit)

    total = np.column_stack((tx, ty))
    boxes, screen = rects[live], cfg.screen
    fits = (boxes[:, 2] - boxes[:, 0] <= screen.width - 2.0 * d_min) & (
        boxes[:, 3] - boxes[:, 1] <= screen.height - 2.0 * d_min
    )
    if not fits.all():
        x0, y0, x1, y1 = boxes[np.argmin(fits)].tolist()
        raise LabelLargerThanScreenError(
            f"label {x1 - x0:.3f}x{y1 - y0:.3f} mm cannot keep {d_min} mm "
            f"clearance inside a {screen.width:.3f}x{screen.height:.3f} mm screen"
        )
    lo, hi = (screen.x_min, screen.y_min), (screen.x_max, screen.y_max)
    margins = np.column_stack((boxes[:, 0:2] - lo, hi - boxes[:, 2:4]))
    push = np.where(margins < d_min, d_min - margins, 0.0)
    fs = np.column_stack((push[:, 0] - push[:, 2], push[:, 1] - push[:, 3]))
    total[live] += fs
    if fs.any():
        mark(live[fs.any(axis=1)].tolist(), screen_bit)
    return ForceAssignment(total, tuple(_SOURCE_SETS[t] for t in tags))


def reference_connection_point(rect: Rect, anchor: Vec2, leader, translated_conn: Vec2) -> Vec2:
    """Scalar reference for `scene.connection_points`."""
    kind = leader.kind
    if kind.fixed_connection:
        return translated_conn
    if kind is LeaderType.FREE_DIR_FREE_CONN:
        x = min(max(anchor.x, rect.x_min), rect.x_max)
        y = min(max(anchor.y, rect.y_min), rect.y_max)
        return Vec2(x, y)
    u = leader.unit()
    if abs(u.y) >= abs(u.x):
        level = rect.y_min if u.y > 0 else rect.y_max
        t = (level - anchor.y) / u.y
        return Vec2(anchor.x + t * u.x, level)
    level = rect.x_min if u.x > 0 else rect.x_max
    t = (level - anchor.x) / u.x
    return Vec2(level, anchor.y + t * u.y)


def candidate_ok(
    candidate: Rect,
    near_labels: Sequence[Rect],
    near_features: Sequence[PointFeature],
    cfg: LayoutConfig,
    anchor: Vec2,
) -> bool:
    """Scalar reference for the repair search's candidate test."""
    d_min = cfg.d_min
    for other in near_labels:
        if rect_distance(candidate, other) < d_min:
            return False
    for feat in near_features:
        if point_rect_signed_clearance(feat.anchor, candidate) - feat.symbol_radius < d_min:
            return False
    screen = cfg.screen
    if not (
        candidate.x_min - screen.x_min >= d_min
        and screen.x_max - candidate.x_max >= d_min
        and candidate.y_min - screen.y_min >= d_min
        and screen.y_max - candidate.y_max >= d_min
    ):
        return False
    if cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN:
        # Attached by the loop's rule: no pull, and the attachment edge
        # ahead of the anchor along u.
        label = Label(feature_id="c", rect=candidate, conn=anchor, font_size=1.0)
        feature = PointFeature(id="c", anchor=anchor, depth=1.0, text="c")
        if reference_attachment_force(label, feature, cfg.leader) != Vec2(0.0, 0.0):
            return False
        u = cfg.leader.unit()
        if abs(u.y) >= abs(u.x):
            level = candidate.y_min if u.y > 0 else candidate.y_max
            if (level - anchor.y) * u.y < 0:
                return False
        else:
            level = candidate.x_min if u.x > 0 else candidate.x_max
            if (level - anchor.x) * u.x < 0:
                return False
    return True


def ring_border_cells(r: int) -> list[tuple[int, int]]:
    """The off-axis border cells of ring r in (ix^2 + iy^2, ix, iy) order."""
    cells = []
    for m in range(1, r):
        cells += [(-r, -m), (-r, m), (-m, -r), (-m, r), (m, -r), (m, r), (r, -m), (r, m)]
    return cells + [(-r, -r), (-r, r), (r, -r), (r, r)]


def reference_search(
    idx: int,
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    anchor: Vec2,
    deleted_ids: set[str],
    budget: int,
    retries: int,
    reach_scale: float,
    step_offsets: Callable[[int], Iterable[Vec2]],
) -> tuple[Vec2 | None, int]:
    """The repair search with one `candidate_ok` call per candidate, each
    costing one unit of budget: (displacement or None, budget left).

    step_offsets(k) yields the offsets of step k, nearest first.
    """
    from leaderlabels.repair import BASE_RADIUS_FACTOR

    rect = labels[idx].rect
    center = rect.center()
    own_half_diag = 0.5 * math.hypot(rect.width, rect.height)
    own_feature = labels[idx].feature_id
    grid = cfg.d_min / 2.0
    start = 1
    for retry in range(retries + 1):
        radius = BASE_RADIUS_FACTOR * cfg.d_min * (2.0**retry)
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
                if budget <= 0:
                    return None, budget
                budget -= 1
                if candidate_ok(rect.translated(d), near_labels, near_features, cfg, anchor):
                    return d, budget
        start = end + 1
    return None, budget


def reference_repair(
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    budget: int,
    diagonal: bool = False,
    max_axis_retries: int = 8,
) -> tuple[list[Label], int, int]:
    """The greedy repair pass on `Label`s: degrees from the brute-force
    scans, one `reference_search` per search, and each move a new `Label`
    with the translated rect and `reference_connection_point`. Returns the
    labels, the moves and the budget left."""
    import dataclasses

    from leaderlabels.repair import BASE_RADIUS_FACTOR, MAX_RETRIES_DIAGONAL, admissible_directions

    labels = list(labels)
    anchors = {f.id: f.anchor for f in features}
    deleted_ids = {l.feature_id for l in labels if l.deleted}
    grid = cfg.d_min / 2.0
    searches = [
        (max_axis_retries, 1.0, lambda k: [d * (k * grid) for d in admissible_directions(cfg)])
    ]
    if diagonal and cfg.leader.kind is not LeaderType.FIXED_DIR_FIXED_CONN:
        searches.append((
            MAX_RETRIES_DIAGONAL, math.sqrt(2.0),
            lambda k: [Vec2(ix * grid, iy * grid) for ix, iy in ring_border_cells(k)],
        ))
    moves = 0
    stuck: dict[int, float] = {}
    while budget > 0:
        degree: dict[int, int] = {}
        for pair in brute_force_label_conflicts(labels, cfg.d_min):
            for i in pair:
                degree[i] = degree.get(i, 0) + 1
        for i, _ in brute_force_feature_conflicts(labels, features, cfg.d_min):
            degree[i] = degree.get(i, 0) + 1
        if not degree:
            break
        moved = False
        for idx in sorted((i for i in degree if i not in stuck), key=lambda i: (-degree[i], i)):
            lbl = labels[idx]
            anchor = anchors[lbl.feature_id]
            for retries, reach_scale, steps in searches:
                d, budget = reference_search(
                    idx, labels, features, cfg, anchor, deleted_ids, budget,
                    retries, reach_scale, steps,
                )
                if d is not None:
                    break
            if d is not None:
                rect = lbl.rect.translated(d)
                conn = reference_connection_point(rect, anchor, cfg.leader, lbl.conn + d)
                labels[idx] = dataclasses.replace(lbl, rect=rect, conn=conn)
                moves += 1
                moved = True
                spots = (lbl.rect.center(), rect.center())
                for s in [
                    s for s, reach in stuck.items()
                    if any((labels[s].rect.center() - c).norm() <= reach for c in spots)
                ]:
                    del stuck[s]
                break
            stuck[idx] = BASE_RADIUS_FACTOR * cfg.d_min * (2.0**max_axis_retries) + 4.0 * math.hypot(
                lbl.rect.width, lbl.rect.height
            )
        if not moved:
            break
    return labels, moves, budget


def reference_block_search(
    idx: int,
    rects: np.ndarray,
    cfg: LayoutConfig,
    anchor: Vec2,
    arrays: SceneArrays,
    budget,
    search,
) -> Vec2 | None:
    """`repair._search` that tests every candidate, in blocks, with no
    cells marked blocked beforehand; the search's index is not read. A
    drop-in for `repair._search`: the same candidates in the same order,
    charged as one by one."""
    from leaderlabels import repair
    from leaderlabels.geometry import HYPOT_RTOL

    box = rects[idx]
    x0, y0, x1, y1 = box.tolist()
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    own_half_diag = 0.5 * math.hypot(x1 - x0, y1 - y0)
    grid = cfg.d_min / 2.0
    slots = arrays.live[arrays.live != idx]
    others, symbols = rects[slots], arrays.symbols[slots]
    centers = 0.5 * (others[:, 0:2] + others[:, 2:4])
    label_dist = np.hypot(centers[:, 0] - cx, centers[:, 1] - cy)
    half_diag = 0.5 * np.hypot(others[:, 2] - others[:, 0], others[:, 3] - others[:, 1])
    symbol_dist = np.hypot(symbols[:, 0] - cx, symbols[:, 1] - cy)
    start = 1
    for retry in range(search.retries + 1):
        radius = repair.BASE_RADIUS_FACTOR * cfg.d_min * (2.0**retry)
        reach = radius * search.reach_scale + own_half_diag + cfg.d_min
        near_rects = others[label_dist <= (reach + half_diag) * (1.0 + HYPOT_RTOL)]
        near_symbols = symbols[symbol_dist <= (reach + symbols[:, 2]) * (1.0 + HYPOT_RTOL)]
        block = max(1, repair.BLOCK_ELEMENTS // max(1, len(near_rects) + len(near_symbols)))
        end = int(radius / grid)
        t, t_end = search.counts[start - 1], search.counts[end]
        while t < t_end:
            if budget.left <= 0:
                return None
            offsets = search.offsets[t : min(t_end, t + block, t + budget.left)] * search.scale
            passed = np.flatnonzero(repair._candidates_ok(
                box + np.tile(offsets, 2), near_rects, near_symbols, cfg, anchor
            ))
            if len(passed):
                first = int(passed[0])
                budget.left -= first + 1
                return Vec2(*offsets[first].tolist())
            budget.left -= len(offsets)
            t += len(offsets)
        start = end + 1
    return None


def reference_edge_direction_deviations(initial, final, graph) -> list[tuple[int, int, float]]:
    """Reference for `metrics.edge_direction_deviations`: four `Rect.center`
    calls per edge, each edge's orientations from those `Vec2`s."""
    from leaderlabels.geometry import normalize_orientation_deg
    from leaderlabels.metrics import direction_deviation

    def orientation(p: Vec2, q: Vec2) -> float | None:
        dx, dy = q.x - p.x, q.y - p.y
        if dx == 0.0 and dy == 0.0:
            return None
        return normalize_orientation_deg(math.degrees(math.atan2(dy, dx)))

    out = []
    for i, j in graph.edges.tolist():
        o1 = orientation(initial[i].rect.center(), initial[j].rect.center())
        o2 = orientation(final[i].rect.center(), final[j].rect.center())
        out.append((i, j, 0.0 if o1 is None or o2 is None else direction_deviation(o1, o2)))
    return out


def reference_element_blocks(
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray, params: BeamParams
) -> np.ndarray:
    """Reference for `beams._global_stiffness_batch`: each element's local
    6x6 block and rotation written entry by entry into zeroed stacks, then
    Tᵀ k T."""
    from leaderlabels.beams import ZeroLengthEdgeError

    dx = x2 - x1
    dy = y2 - y1
    length = np.hypot(dx, dy)
    if np.any(length <= 0.0):
        raise ZeroLengthEdgeError("beam element with zero length")
    c = dx / length
    s = dy / length
    e = params.elastic_modulus
    a = params.cross_section
    i_m = params.moment_of_inertia
    ax = e * a / length
    b12 = 12.0 * e * i_m / length**3
    b6 = 6.0 * e * i_m / length**2
    b4 = 4.0 * e * i_m / length
    b2 = 2.0 * e * i_m / length
    m = length.shape[0]
    k = np.zeros((m, 6, 6))
    k[:, 0, 0] = ax
    k[:, 0, 3] = -ax
    k[:, 3, 0] = -ax
    k[:, 3, 3] = ax
    k[:, 1, 1] = b12
    k[:, 1, 4] = -b12
    k[:, 4, 1] = -b12
    k[:, 4, 4] = b12
    k[:, 1, 2] = b6
    k[:, 2, 1] = b6
    k[:, 1, 5] = b6
    k[:, 5, 1] = b6
    k[:, 2, 4] = -b6
    k[:, 4, 2] = -b6
    k[:, 4, 5] = -b6
    k[:, 5, 4] = -b6
    k[:, 2, 2] = b4
    k[:, 5, 5] = b4
    k[:, 2, 5] = b2
    k[:, 5, 2] = b2
    t = np.zeros((m, 6, 6))
    for base in (0, 3):
        t[:, base + 0, base + 0] = c
        t[:, base + 0, base + 1] = s
        t[:, base + 1, base + 0] = -s
        t[:, base + 1, base + 1] = c
        t[:, base + 2, base + 2] = 1.0
    return np.transpose(t, (0, 2, 1)) @ k @ t


def column_stack_element_blocks(
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray, params: BeamParams
) -> np.ndarray:
    """Reference for the coefficient-table layout of
    `beams._global_stiffness_batch`: both tables built by np.column_stack,
    then gathered through the module's patterns."""
    from leaderlabels.beams import _LOCAL_PATTERN, _ROTATION_PATTERN, ZeroLengthEdgeError

    dx = x2 - x1
    dy = y2 - y1
    length = np.hypot(dx, dy)
    if np.any(length <= 0.0):
        raise ZeroLengthEdgeError("beam element with zero length")
    c = dx / length
    s = dy / length
    e = params.elastic_modulus
    a = params.cross_section
    i_m = params.moment_of_inertia
    ax = e * a / length
    b12 = 12.0 * e * i_m / length**3
    b6 = 6.0 * e * i_m / length**2
    b4 = 4.0 * e * i_m / length
    b2 = 2.0 * e * i_m / length
    table = np.column_stack((np.zeros_like(ax), ax, b12, b6, b4, b2, -ax, -b12, -b6))
    k_local = table[:, _LOCAL_PATTERN].reshape(-1, 6, 6)
    table = np.column_stack((np.zeros_like(c), np.ones_like(c), c, s, -s))
    t = table[:, _ROTATION_PATTERN].reshape(-1, 6, 6)
    return np.transpose(t, (0, 2, 1)) @ k_local @ t


def element_stiffness(p1: Vec2, p2: Vec2, params: BeamParams) -> np.ndarray:
    """Global-frame 6x6 stiffness of one beam element between two nodes.

    DOF order is (u1, v1, theta1, u2, v2, theta2). The block is symmetric and
    positive semidefinite; rigid-body modes are its null space.
    """
    return reference_element_blocks(
        np.array([p1.x]), np.array([p1.y]), np.array([p2.x]), np.array([p2.y]), params
    )[0]


def reference_solve(
    positions: Sequence[Vec2],
    edges: Sequence[tuple[int, int]],
    forces: Sequence[Vec2],
    params: BeamParams,
) -> tuple[Vec2, ...]:
    """The beam solve one Vec2 per node: K assembled with np.add.at onto
    the ground springs, each translation capped by `Vec2.norm`. Returns
    the capped translations."""
    n = len(positions)
    k_g = params.ground_stiffness
    ndof = 3 * n
    k = np.zeros((ndof, ndof))
    idx = np.arange(n)
    k[3 * idx, 3 * idx] = k_g
    k[3 * idx + 1, 3 * idx + 1] = k_g
    k[3 * idx + 2, 3 * idx + 2] = k_g * 1.0
    if edges:
        i_arr, j_arr = np.array(edges).T
        x = np.array([p.x for p in positions])
        y = np.array([p.y for p in positions])
        blocks = reference_element_blocks(x[i_arr], y[i_arr], x[j_arr], y[j_arr], params)
        dofs = np.stack(
            [3 * i_arr, 3 * i_arr + 1, 3 * i_arr + 2, 3 * j_arr, 3 * j_arr + 1, 3 * j_arr + 2],
            axis=1,
        )
        np.add.at(k, (dofs[:, :, None], dofs[:, None, :]), blocks)
    f = np.zeros(ndof)
    f[3 * idx] = [v.x for v in forces]
    f[3 * idx + 1] = [v.y for v in forces]
    factor = scipy.linalg.cho_factor(k, lower=True, check_finite=False)
    d = scipy.linalg.cho_solve(factor, f, check_finite=False)
    raw = tuple(Vec2(float(d[3 * i]), float(d[3 * i + 1])) for i in range(n))
    capped = []
    cap = params.max_step
    for v in raw:
        norm = v.norm()
        capped.append(v if norm <= cap else v * (cap / norm))
    return tuple(capped)


def reference_mst_edges(rects: np.ndarray, live: np.ndarray) -> list[tuple[float, int, int]]:
    """Reference for the rect-distance MST of `proximity._mst_edge_list`:
    every live pair measured with `rect_distance` on scalar `Rect`s, the
    (weight, i, j) tuples sorted, Kruskal over them."""
    from leaderlabels.proximity import _find

    live = live.tolist()
    boxes = [Rect(*r) for r in rects.tolist()]
    cand = sorted(
        (rect_distance(boxes[i], boxes[j]), i, j) for a, i in enumerate(live) for j in live[a + 1:]
    )
    parent = {i: i for i in live}
    chosen: list[tuple[float, int, int]] = []
    for w, i, j in cand:
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[rj] = ri
            chosen.append((w, i, j))
            if len(chosen) == len(live) - 1:
                break
    return chosen


def reference_partition_labels(rects: np.ndarray, live: np.ndarray, t_num: int) -> list[list[int]]:
    """Reference for `proximity.partition_labels`: the rect-distance MST,
    with the longest edge inside an oversized component deleted one at a
    time and the union-find rebuilt after each deletion."""
    from leaderlabels.proximity import _find

    if t_num < 1:
        raise ValueError("t_num must be at least 1")
    active = reference_mst_edges(rects, live)
    live = live.tolist()

    while True:
        parent = {i: i for i in live}
        for _, i, j in active:
            ri, rj = _find(parent, i), _find(parent, j)
            if ri != rj:
                parent[rj] = ri
        sizes: dict[int, int] = {}
        for i in live:
            r = _find(parent, i)
            sizes[r] = sizes.get(r, 0) + 1
        oversized = {r for r, s in sizes.items() if s > t_num}
        if not oversized:
            groups: dict[int, list[int]] = {}
            for i in live:
                groups.setdefault(_find(parent, i), []).append(i)
            return [sorted(g) for g in sorted(groups.values(), key=lambda g: g[0])]
        removable = [e for e in active if _find(parent, e[1]) in oversized]
        active.remove(max(removable))


def reference_advance(features, cfg, arrays, t_d, rects, conns, pairs, carried, step_no):
    """Reference for one group's step of `optimizer._advance`, as each loop
    once stepped alone on its own labels' arrays: assemble forces, build
    the graph (the carried Delaunay triangles if `_delaunay_tests` accepts
    them, else Qhull's, pruned; or the MST),
    solve, move and rescan. A step whose forces are all zero builds no
    graph after the loop's first, and neither solves nor rescans. Returns
    the moved rects and conns, their pairs, the step's triangles and its
    stats."""
    from leaderlabels import optimizer as opt
    from leaderlabels.beams import solve_displacements
    from leaderlabels.forces import conflict_pairs
    from leaderlabels.geometry import rect_centers
    from leaderlabels.proximity import (
        ProximityGraph,
        delaunay_graph,
        mst_graph,
        prune_graph,
        _delaunay_tests,
    )
    from leaderlabels.scene import GraphKind, connection_points

    live = arrays.live
    assignment = reference_assemble_forces(features, cfg, pairs, rects, arrays)
    totals = opt.project_for_leader_type(assignment.totals, cfg.leader)
    norms = [math.hypot(x, y) for x, y in totals[live].tolist()]
    max_force = max(norms, default=0.0)
    moves = totals.any()
    edges, triangles = None, carried
    if moves or step_no == 1:
        if cfg.graph_kind is GraphKind.MST:
            graph = mst_graph(rects, live, "center")
        else:
            xy = rect_centers(rects)
            if carried is not None and _delaunay_tests(carried, xy, live, None)[0][0]:
                graph = ProximityGraph(xy, carried.edges, carried)
            else:
                graph = delaunay_graph(rects, live)
            graph = prune_graph(graph, rects, live, t_d)
        edges, triangles = len(graph.edges), graph.triangulation
    if moves:
        disp = solve_displacements(graph, totals, cfg.resolved_beam())
        translations, capped = disp.translations, len(disp.capped_nodes)
    else:
        translations, capped = np.zeros_like(totals), 0
    d = opt.project_for_leader_type(translations[live], cfg.leader)
    moved_rects = rects.copy()
    moved_rects[live] += d[:, [0, 1, 0, 1]]
    moved_conns = conns.copy()
    moved_conns[live] = connection_points(
        moved_rects[live], arrays.anchors[live], cfg.leader, conns[live] + d
    )
    if moves:
        pairs = conflict_pairs(moved_rects, arrays, cfg.d_min)
    stats = opt.StepStats(
        step=step_no,
        max_force=max_force,
        label_conflicts=len(pairs.labels),
        feature_conflicts=len(pairs.features),
        graph_edges=edges,
        force_tags=assignment.group_sources[0],
        capped=capped,
    )
    return moved_rects, moved_conns, pairs, triangles, stats


def reference_run_loop(labels: list[Label], features: Sequence[PointFeature], cfg: LayoutConfig, t_d=None):
    """Reference for one loop of `optimizer.run` as each loop once ran, one
    group after another: from its own labels and features, with its own
    `scene_arrays` and starting scan, stepped alone by
    `reference_advance`, and its labels built again at the end."""
    from leaderlabels import optimizer as opt
    from leaderlabels.forces import conflict_pairs
    from leaderlabels.scene import GraphKind

    n_live = sum(1 for l in labels if not l.deleted)
    if n_live == 0:
        return labels, opt.LoopStats(0, 0, 0, 0.0, "force", ())
    t_s = opt.effective_max_iterations(n_live, cfg.t_s_override)
    t_f = cfg.force_threshold
    if t_d is None and cfg.graph_kind is GraphKind.DT:
        t_d = opt.pruning_distance(points_array(f.anchor for f in features), cfg)
    arrays = scene_arrays(labels, features)
    rects = label_rects(labels)
    conns = points_array(l.conn for l in labels)
    pairs = conflict_pairs(rects, arrays, cfg.d_min)
    triangles = None
    history = []
    while True:
        rects, conns, pairs, triangles, stats = reference_advance(
            features, cfg, arrays, t_d, rects, conns, pairs, triangles, len(history) + 1
        )
        history.append(stats)
        if stats.step >= t_s or stats.max_force <= t_f:
            break
    reason = "force" if stats.max_force <= t_f else "max_iterations"
    return placed_labels(labels, arrays.live, rects, conns), opt.LoopStats(
        n_live, stats.step, t_s, stats.max_force, reason, tuple(history)
    )


def reference_run(features: Sequence[PointFeature], cfg: LayoutConfig):
    """Reference for `optimizer.run` as it ran before its loops shared the
    run's arrays and stepped in lockstep: each subgroup loop runs alone, one
    after another, on its own labels and features (`reference_run_loop`),
    and its labels are merged back one by one."""
    from leaderlabels import optimizer as opt

    features = list(features)
    labels = opt.initial_layout(features, cfg)
    if cfg.leader.kind is LeaderType.FIXED_DIR_FIXED_CONN:
        labels = opt.handle_offscreen_fixed(labels, cfg.screen, cfg.leader)
    initial_rects, live = label_rects(labels), live_slots(labels)
    t_d = opt.pruning_distance(points_array(f.anchor for f in features), cfg)
    ref_graph = opt.reference_graph(initial_rects, live, features, cfg, t_d)

    feature_by_id = {f.id: f for f in features}
    loops = []
    if cfg.t_num is None:
        labels, stats = reference_run_loop(labels, features, cfg, t_d)
        loops.append(stats)
        subgroup_sizes = ()
    else:
        groups = reference_partition_labels(label_rects(labels), live_slots(labels), cfg.t_num)
        merged = list(labels)
        for group in groups:
            sub_labels = [labels[i] for i in group]
            sub_features = [feature_by_id[l.feature_id] for l in sub_labels]
            solved, stats = reference_run_loop(sub_labels, sub_features, cfg)
            loops.append(stats)
            for local, original in enumerate(group):
                merged[original] = solved[local]
        labels = merged
        subgroup_sizes = tuple(len(g) for g in groups)

    repair_moves = 0
    rects, conns = label_rects(labels), points_array(l.conn for l in labels)
    arrays = scene_arrays(labels, features)
    n_rr, n_rp = opt.count_conflicts(rects, arrays, cfg.d_min)
    if n_rr + n_rp > 0:
        _, repair_moves = opt.greedy_repair(
            rects, conns, arrays, cfg, diagonal=True, max_axis_retries=5
        )
        n_rr, n_rp = opt.count_conflicts(rects, arrays, cfg.d_min)
    labels = placed_labels(labels, live, rects, conns)
    reasons = {loop.exit_reason for loop in loops}
    report = opt.RunReport(
        method="beams",
        graph_kind=cfg.graph_kind.value,
        leader_type=int(cfg.leader.kind),
        iterations=max((loop.steps for loop in loops), default=0),
        total_steps=sum(loop.steps for loop in loops),
        elapsed_s=0.0,
        exit_reason=reasons.pop() if len(reasons) == 1 else "mixed",
        infeasible=(n_rr + n_rp) > 0,
        label_conflicts=n_rr,
        feature_conflicts=n_rp,
        total_displacement_cm=opt.total_displacement_cm(initial_rects, rects, live),
        mean_direction_deviation_deg=opt.mean_direction_deviation(initial_rects, rects, ref_graph),
        initial_graph_edges=len(ref_graph.edges),
        solver_graph_edges=sum(loop.history[0].graph_edges for loop in loops if loop.history),
        force_tags=tuple(sorted({t for loop in loops for s in loop.history for t in s.force_tags})),
        subgroup_sizes=subgroup_sizes,
        loops=tuple(loops),
        deleted_count=sum(1 for l in labels if l.deleted),
        repair_moves=repair_moves,
    )
    return labels, report


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240818)


def small_scene(n: int = 6, seed: int = 0) -> tuple[list[PointFeature], LayoutConfig]:
    """Hand-rolled scene helper for unit tests that want direct control."""
    rng = random.Random(seed)
    features = []
    for i in range(n):
        features.append(
            PointFeature(
                id=f"p{i}",
                anchor=Vec2(rng.uniform(10, 190), rng.uniform(10, 110)),
                depth=rng.uniform(50, 500),
                text="".join(rng.choice("ABCDEFGH") for _ in range(rng.randint(4, 9))),
            )
        )
    cfg = LayoutConfig(screen=Rect(0, 0, 200, 140))
    return features, cfg
