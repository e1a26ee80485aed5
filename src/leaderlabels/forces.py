"""Per-label force vectors from every constraint source.

Four sources act on a label: repulsion from other labels (separated-but-close
and overlapping cases), repulsion from fixed feature symbols, attraction back
to its leader line, and containment pressure from the screen edges. Forces
are displacement-valued (mm): applying a force as a translation moves the
label toward resolving the constraint that produced it.

Each rule is written once, over (n, 4) rect arrays, and shared by the
forces, the conflict scans and the repair search: `geometry.rect_gaps`
(label gap), `geometry.symbol_rows_closer` (symbol clearance),
`geometry.screen_margins` (screen clearance) and `scene.attachment_edge`.

Every per-scene array is indexed by label slot, and slot k holds feature
k's label: one `SceneArrays` holds the live slots and each slot's anchor
and symbol radius, and a symbol pair is (label slot, symbol slot).

`assemble_forces` splits its work by how many labels a source touches.
The attachment and screen forces act on every live label: they are a few
array operations on `rects[live]`. The pair and symbol forces act only on
the labels in a conflicting pair, about 3 pairs and 1.5 symbol hits a step
at the paper's sizes: they are functions of plain floats (`_pair_force`,
`_symbol_gap`, `_escapes`, `_compose`), run on those labels alone. At
those counts, pair forces over the (m, 2) pair array measured slower: 267
against 220 µs a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    NearList,
    Rect,
    group_blocks,
    hypot_below,
    mask_pairs,
    rect_gaps,
    rects_near,
    same_group,
    screen_margins,
    screen_room,
    stacked_pairs,
    symbol_rows_closer,
    symbols_near,
)
from .scene import (
    Label,
    LabelLargerThanScreenError,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    attachment_edge,
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


def _separation(a, b, d_min: float) -> tuple[float, float]:
    """The force on a of disjoint rects a and b closer than d_min (b gets
    its negation): half the deficit along the nearest-point axis, per axis
    a's nearest coordinate minus b's, 0 where the spans overlap. Touching
    rects fall back to the center line, concentric ones to +x."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ox = ax1 - bx0 if bx0 >= ax1 else ax0 - bx1 if ax0 >= bx1 else 0.0
    oy = ay1 - by0 if by0 >= ay1 else ay0 - by1 if ay0 >= by1 else 0.0
    gap = math.hypot(ox, oy)
    if gap > 0.0:
        # Below about 5.6e-309, 1 / gap overflows; divide there instead.
        inv = 1.0 / gap
        dx, dy = (ox * inv, oy * inv) if inv < math.inf else (ox / gap, oy / gap)
    else:
        cx = 0.5 * (ax0 + ax1) - 0.5 * (bx0 + bx1)
        cy = 0.5 * (ay0 + ay1) - 0.5 * (by0 + by1)
        norm = math.hypot(cx, cy)
        dx, dy = (cx / norm, cy / norm) if norm > 0.0 else (1.0, 0.0)
    m = 0.5 * (d_min - gap)
    return dx * m, dy * m


def _overlap(a, b, d_min: float) -> tuple[float, float]:
    """The force on a of rects a and b whose interiors intersect; b gets its
    negation. Half the smallest of the moves of a along -x, +x, -y, +y that
    leave an axis gap of d_min, the first of equal ones in that order."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    mags = [abs(ax1 - bx0 + d_min), abs(bx1 - ax0 + d_min)]
    mags += [abs(ay1 - by0 + d_min), abs(by1 - ay0 + d_min)]
    m = min(mags)
    dx, dy = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))[mags.index(m)]
    return dx * (0.5 * m), dy * (0.5 * m)


def _pair_force(a, b, d_min: float) -> tuple[float, float]:
    """`_overlap` when the interiors of a and b intersect, else `_separation`."""
    if a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]:
        return _overlap(a, b, d_min)
    return _separation(a, b, d_min)


def _symbol_gap(rect, x: float, y: float, radius: float) -> float:
    """The signed clearance of a symbol's center (x, y) from rect (negative
    inside), minus its radius."""
    x0, y0, x1, y1 = rect
    dx, dy = max(x0 - x, x - x1), max(y0 - y, y - y1)
    if dx <= 0.0 and dy <= 0.0:
        return max(dx, dy) - radius
    return math.hypot(max(dx, 0.0), max(dy, 0.0)) - radius


def _escapes(rect, x: float, y: float, radius: float, d_min: float) -> list[tuple[float, float]]:
    """The moves of rect along -x, +x, -y, +y that give the symbol disk at
    (x, y) an axis clearance of d_min."""
    x0, y0, x1, y1 = rect
    pad = radius + d_min
    return [(-(x1 - x + pad), 0.0), (x - x0 + pad, 0.0), (0.0, -(y1 - y + pad)), (0.0, y - y0 + pad)]


def _compose(sets) -> tuple[float, float]:
    """One escape per conflicting symbol, from each of the candidate sets,
    combined. A selection is admissible when every chosen pair spans at most
    90 degrees; the first admissible selection, in lexicographic order,
    with the smallest sum wins, or, when opposing symbols leave none, the
    first with the smallest sum of all. Sums are added level by level."""
    for admissible in (True, False):
        level = [(0.0, 0.0, ())]
        for cands in sets:
            level = [
                (sx + cx, sy + cy, chosen + ((cx, cy),))
                for sx, sy, chosen in level
                for cx, cy in cands
                if not (admissible and chosen and any(px * cx + py * cy < 0.0 for px, py in chosen))
            ]
        if level:
            _, fx, fy = min(((x * x + y * y, x, y) for x, y, _ in level), key=lambda s: s[0])
            return fx, fy
    raise ValueError("a candidate set is empty")


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
    # n . (end - anchor) for the edge's two ends, one column each.
    a_al, a_ac = anchors[:, along], anchors[:, across]
    base = nv[along] * (level - a_al)
    o0 = base + nv[across] * (rects[:, across] - a_ac)
    o1 = base + nv[across] * (rects[:, across + 2] - a_ac)
    lo, hi = np.minimum(o0, o1), np.maximum(o0, o1)
    # The pull is -lo, or -hi, when both ends lie on one side of the line,
    # and zero when the line crosses the edge, also for a label fully behind
    # its anchor: the screen and pair forces are left to move that one.
    return (np.maximum(lo, 0.0) + np.minimum(hi, 0.0))[:, None] * (-n.x, -n.y)


def screen_forces(rects: np.ndarray, screen: Rect, d_min: float) -> np.ndarray:
    """Inward pressure on the labels within d_min of any screen edge.

    rects is (n, 4) as `label_rects` gives it; returns the (n, 2) forces.
    Violated edges contribute (d_min - clearance) each, pointing inward.
    The push does not depend on whether a rect fits the screen:
    `check_screen_fit` is the one test of that.
    """
    push = np.maximum(d_min - screen_margins(rects, screen), 0.0)
    return push[:, 0:2] - push[:, 2:4]


def check_screen_fit(rects: np.ndarray, screen: Rect, d_min: float) -> None:
    """Raise LabelLargerThanScreenError for the first of the (n, 4) rects
    too large to keep d_min from every screen edge in any position."""
    fits = (rects[:, 2:4] - rects[:, 0:2] <= screen_room(screen, d_min)).all(axis=1)
    if not fits.all():
        x0, y0, x1, y1 = rects[np.argmin(fits)].tolist()
        raise LabelLargerThanScreenError(
            f"label {x1 - x0:.3f}x{y1 - y0:.3f} mm cannot keep {d_min} mm "
            f"clearance inside a {screen.width:.3f}x{screen.height:.3f} mm screen"
        )


class SceneArrays(NamedTuple):
    """What the scans and the assembly read of a scene that stays put while
    its labels move, by label slot: slot k holds feature k's label. Built
    by `scene_arrays`.

    live lists the slots whose label is not deleted, and symbols holds each
    slot's feature as an (n, 3) array of anchor x, y and symbol radius. The
    symbols that count are the live slots': a deleted label's symbol is
    removed from the map, and a label never meets its own.
    """

    live: np.ndarray
    symbols: np.ndarray

    @property
    def anchors(self) -> np.ndarray:
        """The (n, 2) anchors of the slots."""
        return self.symbols[:, 0:2]


def scene_arrays(labels: Sequence[Label], features: Sequence[PointFeature]) -> SceneArrays:
    """The `SceneArrays` of labels that are slot for slot the features:
    ValueError unless label k names feature k, for every k."""
    if len(labels) != len(features) or any(l.feature_id != f.id for l, f in zip(labels, features)):
        raise ValueError("label slot k must hold the label of feature k")
    xyr = [(f.anchor.x, f.anchor.y, f.symbol_radius) for f in features]
    return SceneArrays(live_slots(labels), np.array(xyr, dtype=float).reshape(-1, 3))


def _label_candidates(
    boxes: np.ndarray, limit: float, starts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (i, j), i < j, of the boxes of one group that pass the box test
    `rects_near` at limit, row-major in the blocks of `group_blocks`."""
    found = []
    for rows, cols, mixed in group_blocks(starts, len(boxes), starts, len(boxes)):
        # Columns from the block's first row on; only later boxes of the
        # same group are kept.
        i, j = mask_pairs(rects_near(boxes[rows], boxes[rows.start:cols.stop], limit))
        i, j = i + rows.start, j + rows.start
        keep = j > i
        if mixed:
            keep &= same_group(starts, i, starts, j)
        found.append((i[keep], j[keep]))
    return stacked_pairs(found)


def _symbol_candidates(
    boxes: np.ndarray, symbols: np.ndarray, limit: float, starts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (i, k) of the boxes and of the symbols, one each per live
    label, that pass the box test `symbols_near` at limit, within a group
    and leaving out each label's own symbol (k == i), row-major in the
    blocks of `group_blocks`."""
    found = []
    for rows, cols, mixed in group_blocks(starts, len(boxes), starts, len(symbols)):
        i, k = mask_pairs(symbols_near(boxes[rows], symbols[cols], limit))
        i, k = i + rows.start, k + cols.start
        keep = k != i
        if mixed:
            keep &= same_group(starts, i, starts, k)
        found.append((i[keep], k[keep]))
    return stacked_pairs(found)


def conflicting_label_pairs(
    rects: np.ndarray,
    live: np.ndarray,
    d_min: float,
    starts: np.ndarray | None = None,
    near: NearList | None = None,
) -> list[tuple[int, int]]:
    """All live label pairs of the (n, 4) rects overlapping or closer than
    d_min, sorted. With starts, live lists the labels of several groups,
    one group after another, group k's from starts[k] on and each group's
    slots rising, and only the pairs within a group count; None is one
    group.

    d_min must be positive, as `LayoutConfig.d_min` is: overlapping rects
    are at distance 0, so the one distance test also catches overlaps.
    The box test `rects_near` runs in the blocks of `group_blocks`, so
    memory stays linear in n and the work grows with the groups' sizes;
    `hypot_below` of their `rect_gaps` then decides each pair it passed. With
    near, a `NearList` that holds at rects[live] (`conflict_pairs` checks
    it), only its label candidates are tested; when it has none, the box
    test finds them on its base at d_min + 2·skin, since each pair's axis
    gaps shrink by at most twice the largest move.
    """
    boxes = rects[live]
    if near is not None and near.labels is None:
        near.labels = _label_candidates(near.base, d_min + 2.0 * near.skin, starts)
    i, j = _label_candidates(boxes, d_min, starts) if near is None else near.labels
    close = hypot_below(*rect_gaps(boxes[i], boxes[j]), d_min)
    pairs = list(zip(live[i[close]].tolist(), live[j[close]].tolist()))
    pairs.sort()
    return pairs


def conflicting_feature_pairs(
    rects: np.ndarray,
    arrays: SceneArrays,
    d_min: float,
    starts: np.ndarray | None = None,
    near: NearList | None = None,
) -> list[tuple[int, int]]:
    """(label slot, symbol slot) conflicts against foreign feature symbols.

    A label never conflicts with its own feature, and symbols whose label was
    deleted are treated as removed from the map. The box test
    `symbols_near` runs over the live labels of the (n, 4) rects and their
    symbols in the blocks of `group_blocks`, and `symbol_rows_closer`
    decides each pair it passed. Pairs come out sorted. With starts,
    arrays.live lists the labels of several groups, one group after
    another, group k's from starts[k] on, and only the pairs of a label and
    a symbol of one group count; None is one group. With near, as for
    `conflicting_label_pairs`, but its symbol candidates, found at
    d_min + skin: the symbols stay put.
    """
    live = arrays.live
    boxes, symbols = rects[live], arrays.symbols[live]
    if near is not None and near.symbols is None:
        near.symbols = _symbol_candidates(near.base, symbols, d_min + near.skin, starts)
    i, k = _symbol_candidates(boxes, symbols, d_min, starts) if near is None else near.symbols
    close = symbol_rows_closer(boxes[i], symbols[k], d_min)
    pairs = list(zip(live[i[close]].tolist(), live[k[close]].tolist()))
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
    near: NearList | None = None,
) -> ConflictPairs:
    """Both conflict scans of the layout at the (n, 4) rects, within the
    groups that starts marks (one group when None), with the `NearList`
    near carries over rects[arrays.live], if any: one `holds` decides for
    both scans, and when it fails, near takes the rects as its new base."""
    if near is not None:
        boxes = rects[arrays.live]
        if not near.holds(boxes):
            near.rebase(boxes)
    return ConflictPairs(
        conflicting_label_pairs(rects, arrays.live, d_min, starts, near),
        conflicting_feature_pairs(rects, arrays, d_min, starts, near),
    )


def assemble_forces(
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

    The attachment and screen rows that are not zero are added to zeros; a
    zero row would change no total, since a sum is -0.0 only when both
    terms are. Only the labels in a conflicting pair run the float rules. A
    source is listed exactly when some label's force from it is not zero.
    arrays.live may leave out live labels: those get no force, and no pair
    may name them. The sources are listed per group of group, each label
    slot's group id below n_groups (one group when None), so one assembly
    over several groups' labels gives each group what an assembly of its
    own labels gives.

    Every live label must fit the screen with d_min to spare, as
    `check_screen_fit` tests: `optimizer.starting_layout` checks that
    once, before any loop, and the steps only translate labels. The screen
    push does not test it again, and reads the same whether a label fits
    or not.
    """
    d_min, live = cfg.d_min, arrays.live
    target = RESOLVE_TARGET_FACTOR * d_min
    total, tags = np.zeros((len(rects), 2)), [0] * n_groups

    def mark(slots, bit: int) -> None:
        # Lists the source with bit for the group of each of the slots.
        if len(slots):
            for g in set(group[slots].tolist()) if group is not None and n_groups > 1 else (0,):
                tags[g] |= bit

    def add(force: np.ndarray, bit: int) -> None:
        # Adds the rows of force, one per live label, that are not zero.
        pushed = force.any(axis=1)
        slots = live[pushed]
        if len(slots):
            total[slots] += force[pushed]
        mark(slots, bit)

    boxes = rects[live]
    if cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN:
        add(attachment_forces(boxes, arrays.anchors[live], cfg.leader), _ATTACHMENT)

    if pairs.labels or pairs.features:
        slots = sorted({i for pair in pairs.labels for i in pair}.union(i for i, _ in pairs.features))
        box = dict(zip(slots, rects[slots].tolist()))
        acc = dict(zip(slots, total[slots].tolist()))
        # The scan sorts the pairs, so each label meets its partners by
        # rising index: first as the second slot of (j, i), then as the
        # first of (i, j).
        for i, j in pairs.labels:
            fx, fy = _pair_force(box[i], box[j], target)
            a, b = acc[i], acc[j]
            a[0], a[1], b[0], b[1] = a[0] + fx, a[1] + fy, b[0] - fx, b[1] - fy
        mark([i for i, _ in pairs.labels], _PAIR)
        hits: dict[int, list] = {}
        symbols = arrays.symbols[[k for _, k in pairs.features]].tolist()
        for (i, k), (x, y, r) in zip(pairs.features, symbols):
            hits.setdefault(i, []).append((_symbol_gap(box[i], x, y, r), k, x, y, r))
        pushed = []
        for i, near in hits.items():
            near.sort()
            near = near[:MAX_COMPOSED_FEATURES]
            fx, fy = _compose([_escapes(box[i], x, y, r, target) for *_, x, y, r in near])
            if fx != 0.0 or fy != 0.0:
                a = acc[i]
                a[0], a[1] = a[0] + fx, a[1] + fy
                pushed.append(i)
        mark(pushed, _POINT)
        for i, xy in acc.items():
            total[i] = xy

    add(screen_forces(boxes, cfg.screen, d_min), _SCREEN)
    return ForceAssignment(total, tuple(_SOURCE_SETS[t] for t in tags))
