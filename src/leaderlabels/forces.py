"""Per-label force vectors from every constraint source.

Four sources act on a label: repulsion from other labels (separated-but-close
and overlapping cases), repulsion from fixed feature symbols, attraction back
to its leader line, and containment pressure from the screen edges. Forces
are displacement-valued (mm): applying a force as a translation moves the
label toward resolving the constraint that produced it.

Each rule is written once, over (n, 4) rect arrays, and shared by the
forces, the conflict scans and the repair search: `geometry.rects_closer`
(label gap), `geometry.symbols_closer` (symbol clearance),
`geometry.screen_margins` (screen fit) and `scene.attachment_edge`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    OverlapError,
    Rect,
    Vec2,
    interiors_overlap,
    point_axis_gaps,
    point_rect_signed_clearance,
    points_array,
    rect_distance,
    rect_nearest_points,
    group_blocks,
    rects_closer,
    same_group,
    screen_margins,
    symbols_closer,
)
from .scene import (
    Label,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    attachment_edge,
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


class NotInConflictError(ValueError):
    """The gate condition for this force does not hold."""


class NotOverlappingError(ValueError):
    """overlap_force requires intersecting interiors."""


class LabelLargerThanScreenError(ValueError):
    """No placement of this label can satisfy screen containment."""


# The force sources, each one bit of a group's tag.
_SOURCES = ("attachment", "pair", "point", "screen")
_ATTACHMENT, _PAIR, _POINT, _SCREEN = (1 << k for k in range(len(_SOURCES)))

# One shared set for each of the 16 combinations of the four sources, at
# the tag that has their bits: every step's stats keep their set for the
# rest of the run.
_SOURCE_SETS = [
    frozenset(name for k, name in enumerate(_SOURCES) if bits >> k & 1)
    for bits in range(1 << len(_SOURCES))
]


@dataclass(frozen=True, slots=True, eq=False)
class ForceAssignment:
    """Total force per label slot, an (n, 2) array, and per group the
    sources that contributed to any of its labels: "attachment", "pair",
    "point", "screen". An assembly without groups has one."""

    totals: np.ndarray
    group_sources: tuple[frozenset[str], ...]


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


def attachment_forces(rects: np.ndarray, anchors: np.ndarray, leader: LeaderSpec) -> np.ndarray:
    """Pull drifted labels back over their fixed-direction leader rays.

    rects is (n, 4) as `label_rects` gives it and anchors (n, 2), one row
    per label; returns the (n, 2) forces. A force is zero while the ray
    from the anchor still meets the attachment edge. Otherwise it is
    perpendicular to the leader, with magnitude equal to the exact offset
    that brings the nearest edge end back onto the ray's line, so one clean
    step restores attachment.
    """
    if not leader.kind.fixed_direction:
        return np.zeros((len(rects), 2))
    u = leader.unit()
    n = u.perp()
    along, level = attachment_edge(rects, u)
    across, nv = 1 - along, (n.x, n.y)
    # n . (end - anchor) for the edge's two ends, (n, 2).
    ends = rects[:, across::2] - anchors[:, across, None]
    off = nv[along] * (level - anchors[:, along])[:, None] + nv[across] * ends
    lo, hi = off.min(axis=1), off.max(axis=1)
    pull = -np.where(lo > 0.0, lo, hi)
    force = np.column_stack((n.x * pull, n.y * pull))
    # The line crosses the edge. A label fully behind its anchor cannot be
    # pulled back either; the screen and pair forces are left to move it.
    force[(lo <= 0.0) & (hi >= 0.0)] = 0.0
    return force


def attachment_force(label: Label, feature: PointFeature, leader: LeaderSpec) -> Vec2:
    """`attachment_forces` of one label."""
    return Vec2(*attachment_forces(label_rects([label]), points_array([feature.anchor]), leader)[0])


def screen_forces(rects: np.ndarray, screen: Rect, d_min: float) -> np.ndarray:
    """Inward pressure on the labels within d_min of any screen edge.

    rects is (n, 4) as `label_rects` gives it; returns the (n, 2) forces.
    Violated edges contribute (d_min - clearance) each, pointing inward.
    Raises LabelLargerThanScreenError for the first rect that no position
    could keep inside.
    """
    fits, margins = screen_margins(rects, screen, d_min)
    _raise_unless_fits(rects, fits, screen, d_min)
    push = np.where(margins < d_min, d_min - margins, 0.0)
    return np.column_stack((push[:, 0] - push[:, 2], push[:, 1] - push[:, 3]))


def _raise_unless_fits(rects: np.ndarray, fits: np.ndarray, screen: Rect, d_min: float) -> None:
    if not fits.all():
        x0, y0, x1, y1 = rects[np.argmin(fits)].tolist()
        raise LabelLargerThanScreenError(
            f"label {x1 - x0:.3f}x{y1 - y0:.3f} mm cannot keep {d_min} mm "
            f"clearance inside a {screen.width:.3f}x{screen.height:.3f} mm screen"
        )


def check_screen_fit(rects: np.ndarray, screen: Rect, d_min: float) -> None:
    """Raise LabelLargerThanScreenError, as `screen_forces` does, for the
    first of the (n, 4) rects that no position could keep inside."""
    _raise_unless_fits(rects, screen_margins(rects, screen, d_min)[0], screen, d_min)


def screen_force(rect: Rect, screen: Rect, d_min: float) -> Vec2:
    """`screen_forces` of one rect."""
    row = np.array([[rect.x_min, rect.y_min, rect.x_max, rect.y_max]])
    return Vec2(*screen_forces(row, screen, d_min)[0])


class SceneArrays(NamedTuple):
    """What the scans and the assembly read of a scene that stays put while
    its labels move. Built by `scene_arrays`.

    Features are numbered by the last index that carries their id. `own`
    gives each label slot its feature's number (-1 for none) and `anchors`
    its feature's anchor (NaN for none). The symbols that count are the
    features `index` whose label is not deleted, with numbers `ids`, and
    `symbols`, an (m, 3) array of anchor x, y and radius.
    """

    live: np.ndarray
    anchors: np.ndarray
    own: np.ndarray
    index: np.ndarray
    ids: np.ndarray
    symbols: np.ndarray


def scene_arrays(labels: Sequence[Label], features: Sequence[PointFeature]) -> SceneArrays:
    number = {f.id: k for k, f in enumerate(features)}
    ids = np.array([number[f.id] for f in features], dtype=np.int64)
    own = np.array([number.get(l.feature_id, -1) for l in labels], dtype=np.int64)
    live = live_slots(labels)
    index = np.flatnonzero(~np.isin(ids, np.delete(own, live)))
    # One NaN row last, where own == -1 points.
    xyr = [v for f in features for v in (f.anchor.x, f.anchor.y, f.symbol_radius)]
    xyr = np.array(xyr + [math.nan] * 3).reshape(-1, 3)
    return SceneArrays(live, xyr[own, 0:2], own, index, ids[index], xyr[index])


def conflicting_label_pairs(
    rects: np.ndarray, live: np.ndarray, d_min: float, starts: np.ndarray | None = None
) -> list[tuple[int, int]]:
    """All live label pairs of the (n, 4) rects overlapping or closer than
    d_min, sorted. With starts, live lists the labels of several groups,
    one group after another, group k's from starts[k] on and each group's
    slots rising, and only the pairs within a group count; None is one
    group.

    d_min must be positive, as `LayoutConfig.d_min` is: overlapping rects
    are at distance 0, so the one distance test also catches overlaps.
    `rects_closer` tests the labels in the blocks of `group_blocks`, so
    memory stays linear in n and the work grows with the groups' sizes.
    """
    boxes = rects[live]
    pairs: list[tuple[int, int]] = []
    for rows, cols, mixed in group_blocks(starts, len(live), starts, len(live)):
        # Columns from the block's first row on; only later labels of the
        # same group are kept.
        i, j = rects_closer(boxes[rows], boxes[rows.start:cols.stop], d_min)
        i, j = i + rows.start, j + rows.start
        keep = j > i
        if mixed:
            keep &= same_group(starts, i, starts, j)
        pairs.extend(zip(live[i[keep]].tolist(), live[j[keep]].tolist()))
    pairs.sort()
    return pairs


def conflicting_feature_pairs(
    rects: np.ndarray,
    arrays: SceneArrays,
    d_min: float,
    starts: np.ndarray | None = None,
    symbol_starts: np.ndarray | None = None,
) -> list[tuple[int, int]]:
    """(label index, feature index) conflicts against foreign feature symbols.

    A label never conflicts with its own feature, and symbols whose label was
    deleted are treated as removed from the map. `symbols_closer` tests the
    live labels of the (n, 4) rects against the symbols of arrays in the
    blocks of `group_blocks`. Pairs come out sorted. With starts and
    symbol_starts, arrays.live and the symbols list the labels and symbols
    of several groups, one group after another, group k's from starts[k]
    and symbol_starts[k] on, and only the pairs of a label and a symbol of
    one group count; None is one group.
    """
    live = arrays.live
    boxes = rects[live]
    pairs: list[tuple[int, int]] = []
    for rows, cols, mixed in group_blocks(starts, len(live), symbol_starts, len(arrays.symbols)):
        i, k = symbols_closer(boxes[rows], arrays.symbols[cols], d_min)
        i, k = i + rows.start, k + cols.start
        slots = live[i]
        keep = arrays.ids[k] != arrays.own[slots]
        if mixed:
            keep &= same_group(starts, i, symbol_starts, k)
        pairs.extend(zip(slots[keep].tolist(), arrays.index[k[keep]].tolist()))
    pairs.sort()
    return pairs


class ConflictPairs(NamedTuple):
    """The conflicting pairs of one layout, as the two scans return them."""

    labels: list[tuple[int, int]]
    features: list[tuple[int, int]]


def conflict_pairs(
    rects: np.ndarray,
    arrays: SceneArrays,
    d_min: float,
    starts: np.ndarray | None = None,
    symbol_starts: np.ndarray | None = None,
) -> ConflictPairs:
    """Both conflict scans of the layout at the (n, 4) rects, within the
    groups that starts and symbol_starts mark (one group when None)."""
    return ConflictPairs(
        conflicting_label_pairs(rects, arrays.live, d_min, starts),
        conflicting_feature_pairs(rects, arrays, d_min, starts, symbol_starts),
    )


def assemble_forces(
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    pairs: ConflictPairs,
    rects: np.ndarray,
    arrays: SceneArrays,
    group: np.ndarray | None = None,
    n_groups: int = 1,
) -> ForceAssignment:
    """Sum every constraint source into one force per label.

    Label-label forces apply to every conflicting pair, not only graph
    neighbors. Feature repulsions are composed per label across conflicting
    symbols. The leader attachment pull applies to the sliding-connection
    fixed-direction type only (the fixed-connection variant can never
    detach). Deleted labels receive no force. Each label's total is summed
    from 0.0 in one fixed order, so it is reproducible to the bit:
    attachment, then label pairs by rising partner index, then point, then
    screen. The layout is the (n, 4) rects, one row per label slot; arrays
    is `scene_arrays` of its labels and features, and pairs must be
    `conflict_pairs` of this very layout: the optimizer passes the ones it
    counted when it made the layout.

    The attachment and screen forces of all live labels are array
    operations. A label whose force is zero gets a zero row, and adding it
    changes no total: a total never becomes -0.0, and x + 0.0 == x for any
    other x. A vector is zero exactly when its norm is, so a source is
    listed exactly when some label's force from it has `norm() > 0`. Only
    the labels in a conflicting pair get a scalar `Rect`. arrays.live may
    leave out live labels: those get no force, and no pair may name them.
    The sources are listed per group of group, each label slot's group id
    below n_groups (one group when None), so one assembly over several
    groups' labels gives each group what an assembly of its own labels
    gives.
    """
    d_min = cfg.d_min
    live = arrays.live
    total = np.zeros((len(rects), 2))
    tags = [0] * n_groups
    target = RESOLVE_TARGET_FACTOR * d_min

    group_of = [0] * len(rects) if group is None else group.tolist()

    def mark(slots, bit: int) -> None:
        # Lists the source with bit for the group of each of the slots.
        for g in {group_of[i] for i in slots}:
            tags[g] |= bit

    if cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN:
        fa = attachment_forces(rects[live], arrays.anchors[live], cfg.leader)
        total[live] += fa
        if fa.any():
            mark(live[fa.any(axis=1)].tolist(), _ATTACHMENT)
    tx, ty = total.T.tolist()

    in_conflict = {i for pair in pairs.labels for i in pair} | {i for i, _ in pairs.features}
    boxes = {i: Rect(*rects[i].tolist()) for i in in_conflict}

    # The scan sorts the pairs, so each label meets its partners by rising
    # index: first as the second slot of (j, i), then as the first of (i, j).
    for i, j in pairs.labels:
        ri, rj = boxes[i], boxes[j]
        if interiors_overlap(ri, rj):
            fi, fj = overlap_force(ri, rj, target)
        else:
            fi, fj = separation_force(ri, rj, target)
        tx[i] += fi.x
        ty[i] += fi.y
        tx[j] += fj.x
        ty[j] += fj.y
    mark((i for i, _ in pairs.labels), _PAIR)

    feature_conflicts: dict[int, list[tuple[float, int]]] = {}
    for i, k in pairs.features:
        gap = point_rect_signed_clearance(features[k].anchor, boxes[i]) - features[k].symbol_radius
        feature_conflicts.setdefault(i, []).append((gap, k))
    pushed = []
    for i, hits in feature_conflicts.items():
        hits.sort()
        rect = boxes[i]
        cand_sets = [
            point_repulsion_candidates(rect, features[k].anchor, features[k].symbol_radius, target)
            for _, k in hits[:MAX_COMPOSED_FEATURES]
        ]
        composed = compose_point_forces(cand_sets)
        if composed.norm() > 0.0:
            tx[i] += composed.x
            ty[i] += composed.y
            pushed.append(i)
    mark(pushed, _POINT)

    total = np.column_stack((tx, ty))
    fs = screen_forces(rects[live], cfg.screen, d_min)
    total[live] += fs
    if fs.any():
        mark(live[fs.any(axis=1)].tolist(), _SCREEN)
    return ForceAssignment(total, tuple(_SOURCE_SETS[t] for t in tags))
