"""Per-label force vectors from every constraint source.

Four sources act on a label: repulsion from other labels (separated-but-close
and overlapping cases), repulsion from fixed feature symbols, attraction back
to its leader line, and containment pressure from the screen edges. Forces
are displacement-valued (mm): applying a force as a translation moves the
label toward resolving the constraint that produced it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    HYPOT_RTOL,
    OverlapError,
    Rect,
    Vec2,
    ZERO,
    interiors_overlap,
    point_axis_gaps,
    points_array,
    point_rect_signed_clearance,
    rect_distance,
    rect_nearest_points,
    row_blocks,
)
from .scene import (
    Label,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    label_rects,
    live_slots,
)

# A label in conflict with more than this many feature symbols composes over
# the nearest ones only, bounding the 4^k selection search.
MAX_COMPOSED_FEATURES = 8

# Assembly aims conflict resolution at this multiple of d_min while still
# gating conflicts at d_min itself. Without the margin, pairs whose partner
# is pinned approach the threshold asymptotically and the loop stops with
# the gap a hair under d_min; with it they land strictly clear and the
# force vanishes, giving the iteration a stable fixed point.
RESOLVE_TARGET_FACTOR = 1.25

# The symbol scan's box test widens each label by radius + d_min plus this
# margin (mm), far above float rounding at screen coordinates, so the box
# never drops a pair the exact clearance test would keep.
_BROAD_PHASE_SLACK = 1e-6


class NotInConflictError(ValueError):
    """The gate condition for this force does not hold."""


class NotOverlappingError(ValueError):
    """overlap_force requires intersecting interiors."""


class LabelLargerThanScreenError(ValueError):
    """No placement of this label can satisfy screen containment."""


@dataclass(frozen=True, slots=True)
class ForceAssignment:
    """Total force per label slot, and the sources that contributed to any
    label: "attachment", "pair", "point", "screen"."""

    totals: tuple[Vec2, ...]
    sources: frozenset[str]


# One shared set for each of the 16 combinations of the four sources:
# every step's stats keep their set for the rest of the run.
_SOURCE_SETS = {
    s: s
    for s in (
        frozenset(c)
        for r in range(5)
        for c in itertools.combinations(("attachment", "pair", "point", "screen"), r)
    )
}


def separation_force(a: Rect, b: Rect, d_min: float) -> tuple[Vec2, Vec2]:
    """Push two disjoint-but-too-close rectangles apart.

    Each side receives half the remaining deficit along the nearest-point
    axis, in opposite directions. Raises NotInConflictError when the gap is
    already at least d_min, OverlapError when interiors intersect (the
    overlap force handles that case).
    """
    if interiors_overlap(a, b):
        raise OverlapError("rect interiors intersect; use overlap_force")
    gap = rect_distance(a, b)
    if gap >= d_min:
        raise NotInConflictError(f"gap {gap} is not below d_min {d_min}")
    if gap > 0.0:
        pa, qb = rect_nearest_points(a, b)
        direction = (pa - qb) * (1.0 / gap)
    else:
        # Touching rects leave the nearest-point axis undefined; fall back to
        # the center line, then to +x for concentric degenerates.
        d = a.center() - b.center()
        direction = d.normalized() if d.norm() > 0.0 else Vec2(1.0, 0.0)
    fa = direction * (0.5 * (d_min - gap))
    return fa, Vec2(-fa.x, -fa.y)


_OVERLAP_DIRS = (Vec2(-1.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, -1.0), Vec2(0.0, 1.0))


def overlap_force(a: Rect, b: Rect, d_min: float) -> tuple[Vec2, Vec2]:
    """Separate two overlapping rectangles along the cheapest axis direction.

    Candidate magnitudes are the moves of `a` along -x, +x, -y, +y that leave
    an axis gap of d_min; the smallest wins (ties in that order). Each rect
    receives half of it, in opposite directions.
    """
    if not interiors_overlap(a, b):
        raise NotOverlappingError("rect interiors are disjoint")
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
    fa = _OVERLAP_DIRS[best] * (0.5 * abs(mags[best]))
    return fa, Vec2(-fa.x, -fa.y)


def point_repulsion_candidates(
    rect: Rect, center: Vec2, radius: float, d_min: float
) -> list[Vec2]:
    """Four axis-direction escapes from a conflicting feature symbol.

    Each candidate is the smallest move of the rect along that axis direction
    giving the symbol disk an axis clearance of d_min. All four are positive
    whenever the gate (disk within d_min of the rect, or overlapping) holds.
    """
    clearance = point_rect_signed_clearance(center, rect) - radius
    if clearance >= d_min:
        raise NotInConflictError(f"symbol clearance {clearance} is not below d_min {d_min}")
    gaps = point_axis_gaps(rect, center)
    pad = radius + d_min
    return [
        Vec2(-(gaps.x_neg + pad), 0.0),
        Vec2(gaps.x_pos + pad, 0.0),
        Vec2(0.0, -(gaps.y_neg + pad)),
        Vec2(0.0, gaps.y_pos + pad),
    ]


def compose_point_forces(candidates_per_feature: Sequence[Sequence[Vec2]]) -> Vec2:
    """Combine one escape direction per conflicting feature into one force.

    A selection is admissible when every chosen pair spans at most 90
    degrees; among admissible selections the smallest vector sum wins. With a
    single feature that reduces to its smallest candidate. When opposing
    features leave no admissible selection, the smallest sum over all
    selections is used instead.
    """
    if not candidates_per_feature:
        raise ValueError("at least one candidate set is required")

    sets = [list(c) for c in candidates_per_feature]
    best_adm: tuple[float, Vec2] | None = None
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

    # No angle-admissible selection exists (opposing features): fall back to
    # the smallest sum over the full selection product.
    best_any: tuple[float, Vec2] | None = None
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
    assert best_any is not None
    return best_any[1]


def _attachment_edge(rect: Rect, u: Vec2) -> tuple[Vec2, Vec2]:
    # The rect edge facing against the leader direction (dominant axis).
    if abs(u.y) >= abs(u.x):
        y = rect.y_min if u.y > 0 else rect.y_max
        return Vec2(rect.x_min, y), Vec2(rect.x_max, y)
    x = rect.x_min if u.x > 0 else rect.x_max
    return Vec2(x, rect.y_min), Vec2(x, rect.y_max)


def attachment_force(label: Label, feature: PointFeature, leader: LeaderSpec) -> Vec2:
    """Pull a drifted label back over its fixed-direction leader ray.

    Zero while the ray from the anchor still meets the attachment edge.
    Otherwise the force is perpendicular to the leader, with magnitude equal
    to the exact offset that brings the nearest edge endpoint back onto the
    ray's line, so one clean step restores attachment.
    """
    if not leader.kind.fixed_direction:
        return ZERO
    u = leader.unit()
    n = u.perp()
    e1, e2 = _attachment_edge(label.rect, u)
    a_off = n.dot(e1 - feature.anchor)
    b_off = n.dot(e2 - feature.anchor)
    lo, hi = (a_off, b_off) if a_off <= b_off else (b_off, a_off)
    if lo <= 0.0 <= hi:
        # The supporting line crosses the edge. A label fully behind its
        # anchor cannot be recovered by a perpendicular pull either, so no
        # force is emitted in that case and the screen and pair forces are
        # left to move it.
        return ZERO
    if lo > 0.0:
        return n * (-lo)
    return n * (-hi)


def attachment_forces(rects: np.ndarray, anchors: np.ndarray, leader: LeaderSpec) -> np.ndarray:
    """`attachment_force` for many labels at once, as the same floats.

    rects is (n, 4) as `label_rects` gives it and anchors (n, 2), one row
    per label. Returns the (n, 2) forces, zero rows where the scalar
    function gives ZERO.
    """
    if not leader.kind.fixed_direction:
        return np.zeros((len(rects), 2))
    u = leader.unit()
    n = u.perp()
    if abs(u.y) >= abs(u.x):
        y = rects[:, 1] if u.y > 0 else rects[:, 3]
        e1x, e1y, e2x, e2y = rects[:, 0], y, rects[:, 2], y
    else:
        x = rects[:, 0] if u.x > 0 else rects[:, 2]
        e1x, e1y, e2x, e2y = x, rects[:, 1], x, rects[:, 3]
    ax, ay = anchors[:, 0], anchors[:, 1]
    a_off = n.x * (e1x - ax) + n.y * (e1y - ay)
    b_off = n.x * (e2x - ax) + n.y * (e2y - ay)
    ordered = a_off <= b_off
    lo = np.where(ordered, a_off, b_off)
    hi = np.where(ordered, b_off, a_off)
    off = -np.where(lo > 0.0, lo, hi)
    force = np.column_stack((n.x * off, n.y * off))
    force[(lo <= 0.0) & (hi >= 0.0)] = 0.0
    return force


def screen_force(rect: Rect, screen: Rect, d_min: float) -> Vec2:
    """Inward pressure when a label sits within d_min of any screen edge.

    Violated edges contribute (d_min - clearance) each, pointing inward;
    clearance goes negative once the label crosses the edge. Raises
    LabelLargerThanScreenError when no position could satisfy containment.
    """
    if rect.width > screen.width - 2.0 * d_min or rect.height > screen.height - 2.0 * d_min:
        raise LabelLargerThanScreenError(
            f"label {rect.width:.3f}x{rect.height:.3f} mm cannot keep {d_min} mm "
            f"clearance inside a {screen.width:.3f}x{screen.height:.3f} mm screen"
        )
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


def screen_forces(rects: np.ndarray, screen: Rect, d_min: float) -> np.ndarray:
    """`screen_force` for many labels at once, as the same floats.

    rects is (n, 4) as `label_rects` gives it; returns the (n, 2) forces.
    Raises LabelLargerThanScreenError for the first rect that cannot fit.
    """
    width = rects[:, 2] - rects[:, 0]
    height = rects[:, 3] - rects[:, 1]
    too_large = np.flatnonzero(
        (width > screen.width - 2.0 * d_min) | (height > screen.height - 2.0 * d_min)
    )
    if len(too_large):
        screen_force(Rect(*rects[too_large[0]].tolist()), screen, d_min)
    left = rects[:, 0] - screen.x_min
    right = screen.x_max - rects[:, 2]
    bottom = rects[:, 1] - screen.y_min
    top = screen.y_max - rects[:, 3]
    fx = np.where(left < d_min, d_min - left, 0.0) - np.where(right < d_min, d_min - right, 0.0)
    fy = np.where(bottom < d_min, d_min - bottom, 0.0) - np.where(top < d_min, d_min - top, 0.0)
    return np.column_stack((fx, fy))


def conflicting_label_pairs(
    labels: Sequence[Label], d_min: float, rects: np.ndarray | None = None
) -> list[tuple[int, int]]:
    """All live label pairs overlapping or closer than d_min, sorted.

    d_min must be positive, as `LayoutConfig.d_min` is: overlapping rects
    are at distance 0, so the one distance test also catches overlaps.
    rects, when given, must be `label_rects(labels)`.

    The axis gaps of every live pair i < j are taken as arrays, in blocks
    of rows so that memory stays linear in n. Their np.hypot decides each
    pair, and `rect_distance` each one within HYPOT_RTOL of d_min.
    """
    live = live_slots(labels)
    if len(live) < 2:
        return []
    if rects is None:
        rects = label_rects(labels)
    boxes = rects[live]
    m = len(live)
    pairs: list[tuple[int, int]] = []
    for rows in row_blocks(m, m):
        # Columns from the block's first row on; j > i is masked below.
        a, b = boxes[rows], boxes[rows.start:]
        gx = np.maximum(np.maximum(a[:, 0:1] - b[:, 2], b[:, 0] - a[:, 2:3]), 0.0)
        gy = np.maximum(np.maximum(a[:, 1:2] - b[:, 3], b[:, 1] - a[:, 3:4]), 0.0)
        upper = np.arange(rows.start, m) > np.arange(rows.start, rows.stop)[:, None]
        r, c = np.nonzero(upper & (gx < d_min) & (gy < d_min))
        gap = np.hypot(gx[r, c], gy[r, c])
        close = gap < d_min
        i_slots = live[r + rows.start]
        j_slots = live[c + rows.start]
        for k in np.flatnonzero(np.abs(gap - d_min) <= HYPOT_RTOL * d_min).tolist():
            close[k] = rect_distance(labels[i_slots[k]].rect, labels[j_slots[k]].rect) < d_min
        pairs.extend(zip(i_slots[close].tolist(), j_slots[close].tolist()))
    return pairs


def conflicting_feature_pairs(
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    d_min: float,
    rects: np.ndarray | None = None,
) -> list[tuple[int, int]]:
    """(label index, feature index) conflicts against foreign feature symbols.

    A label never conflicts with its own feature, and symbols whose label was
    deleted are treated as removed from the map. A numpy box test, in blocks
    of labels, picks the symbols whose anchor lies within radius + d_min of
    each live label's rect; each candidate is then confirmed exactly. Pairs
    come out sorted. rects, when given, must be `label_rects(labels)`.
    """
    live = live_slots(labels)
    if not len(live):
        return []
    if rects is None:
        rects = label_rects(labels)
    deleted_ids = {l.feature_id for l in labels if l.deleted}
    ax = np.array([f.anchor.x for f in features])
    ay = np.array([f.anchor.y for f in features])
    reach = np.array([f.symbol_radius for f in features]) + (d_min + _BROAD_PHASE_SLACK)
    boxes = rects[live]
    pairs: list[tuple[int, int]] = []
    for block in row_blocks(len(live), len(features)):
        b = boxes[block]
        near = (
            (ax >= b[:, 0:1] - reach)
            & (ax <= b[:, 2:3] + reach)
            & (ay >= b[:, 1:2] - reach)
            & (ay <= b[:, 3:4] + reach)
        )
        rows, cols = np.nonzero(near)
        for i, k in zip(live[rows + block.start].tolist(), cols.tolist()):
            lbl = labels[i]
            feat = features[k]
            if feat.id == lbl.feature_id or feat.id in deleted_ids:
                continue
            if point_rect_signed_clearance(feat.anchor, lbl.rect) - feat.symbol_radius < d_min:
                pairs.append((i, k))
    return pairs


class ConflictPairs(NamedTuple):
    """The conflicting pairs of one layout, as the two scans return them."""

    labels: list[tuple[int, int]]
    features: list[tuple[int, int]]


def conflict_pairs(
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    d_min: float,
    rects: np.ndarray | None = None,
) -> ConflictPairs:
    """Both conflict scans of one layout. rects, when given, must be
    `label_rects(labels)`."""
    if rects is None:
        rects = label_rects(labels)
    return ConflictPairs(
        conflicting_label_pairs(labels, d_min, rects),
        conflicting_feature_pairs(labels, features, d_min, rects),
    )


def assemble_forces(
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    pairs: ConflictPairs | None = None,
    rects: np.ndarray | None = None,
) -> ForceAssignment:
    """Sum every constraint source into one force per label.

    Label-label forces apply to every conflicting pair, not only graph
    neighbors. Feature repulsions are composed per label across conflicting
    symbols. The leader attachment pull applies to the sliding-connection
    fixed-direction type only (the fixed-connection variant can never
    detach). Deleted labels receive no force. Each label's total is summed
    from 0.0 in one fixed order, so it is reproducible to the bit:
    attachment, then label pairs by rising partner index, then point, then
    screen. `pairs`, when given, must be `conflict_pairs` of this very
    layout; the optimizer passes the ones it counted when it made the layout.
    rects, when given, must be `label_rects(labels)`.

    The attachment and screen forces of all live labels are array
    operations. A label whose force is zero gets a zero row, and adding it
    changes no total: a total never becomes -0.0, and x + 0.0 == x for any
    other x. A vector is zero exactly when its norm is, so a source is
    listed exactly when some label's force from it has `norm() > 0`.
    """
    n = len(labels)
    if rects is None:
        rects = label_rects(labels)
    live = live_slots(labels)
    total = np.zeros((n, 2))
    sources: set[str] = set()
    d_min = cfg.d_min
    target = RESOLVE_TARGET_FACTOR * d_min
    if pairs is None:
        pairs = conflict_pairs(labels, features, d_min, rects)

    if cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN:
        anchor_by_id = {f.id: f.anchor for f in features}
        anchors = points_array(anchor_by_id[labels[i].feature_id] for i in live.tolist())
        fa = attachment_forces(rects[live], anchors, cfg.leader)
        total[live] += fa
        if fa.any():
            sources.add("attachment")
    tx, ty = total.T.tolist()

    def add(i: int, f: Vec2, source: str) -> None:
        tx[i] += f.x
        ty[i] += f.y
        sources.add(source)

    # The scan sorts the pairs, so each label meets its partners by rising
    # index: first as the second slot of (j, i), then as the first of (i, j).
    for i, j in pairs.labels:
        ri, rj = labels[i].rect, labels[j].rect
        if interiors_overlap(ri, rj):
            fi, fj = overlap_force(ri, rj, target)
        else:
            fi, fj = separation_force(ri, rj, target)
        add(i, fi, "pair")
        add(j, fj, "pair")

    feature_conflicts: dict[int, list[tuple[float, int]]] = {}
    for i, k in pairs.features:
        gap = point_rect_signed_clearance(features[k].anchor, labels[i].rect) - features[k].symbol_radius
        feature_conflicts.setdefault(i, []).append((gap, k))
    for i, hits in feature_conflicts.items():
        hits.sort()
        rect = labels[i].rect
        cand_sets = [
            point_repulsion_candidates(rect, features[k].anchor, features[k].symbol_radius, target)
            for _, k in hits[:MAX_COMPOSED_FEATURES]
        ]
        composed = compose_point_forces(cand_sets)
        if composed.norm() > 0.0:
            add(i, composed, "point")

    total = np.column_stack((tx, ty))
    fs = screen_forces(rects[live], cfg.screen, d_min)
    total[live] += fs
    if fs.any():
        sources.add("screen")
    return ForceAssignment(
        totals=tuple(Vec2(x, y) for x, y in total.tolist()),
        sources=_SOURCE_SETS[frozenset(sources)],
    )
