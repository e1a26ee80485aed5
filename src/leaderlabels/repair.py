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

Candidates are tested as arrays, in nearest-first order, in blocks of at
most BLOCK_ELEMENTS candidate x neighbour elements and never more than the
budget has left. The first candidate of a block that passes is taken, and
the budget is charged up to and including it, so the choice and the
budget left are those of testing the candidates one at a time.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from .forces import SceneArrays, conflicting_feature_pairs, conflicting_label_pairs, scene_arrays
from .geometry import HYPOT_RTOL, Vec2, clearances_below, hypot_below, points_array
from .scene import (
    Label,
    LayoutConfig,
    LeaderType,
    PointFeature,
    connection_point,
    label_rects,
    live_slots,
)

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
# Candidates x (near rects + near symbols) per block of one search, so the
# temporaries of a block stay a few hundred KiB however far a search reaches.
BLOCK_ELEMENTS = 1 << 15
# The block test's box broad phase grows the candidates' bounding box by
# d_min plus this margin (mm), far above float rounding at screen
# coordinates, so it never drops a rect or symbol the exact test would keep.
_BROAD_PHASE_SLACK = 1e-6


def admissible_directions(cfg: LayoutConfig) -> tuple[Vec2, ...]:
    """Unit directions a label may move in, by leader type."""
    if cfg.leader.kind is LeaderType.FIXED_DIR_FIXED_CONN:
        u = cfg.leader.unit()
        return (u, -u)
    return (Vec2(1.0, 0.0), Vec2(-1.0, 0.0), Vec2(0.0, 1.0), Vec2(0.0, -1.0))


def conflict_degrees(
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    d_min: float,
    arrays: SceneArrays | None = None,
) -> dict[int, int]:
    """Conflicts per label slot. arrays, when given, must be
    `scene_arrays(labels, features, d_min)`."""
    degree: dict[int, int] = {}
    for i, j in conflicting_label_pairs(labels, d_min):
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    for i, _ in conflicting_feature_pairs(labels, features, d_min, None, arrays):
        degree[i] = degree.get(i, 0) + 1
    return degree


class _Budget:
    """Candidates left to test in one repair invocation."""

    __slots__ = ("left",)

    def __init__(self, amount: int) -> None:
        self.left = amount


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
    # Moves change rects only, never ids or deleted flags.
    arrays = scene_arrays(labels, features, cfg.d_min)
    searches = _searches(cfg, diagonal, max_axis_retries)
    moves = 0
    budget = _Budget(CANDIDATE_BUDGET)
    # A label whose search exhausted stays parked until some move lands near
    # enough to change its surroundings.
    stuck: dict[int, float] = {}

    while budget.left > 0:
        degree = conflict_degrees(labels, features, cfg.d_min, arrays)
        if not degree:
            break
        candidates = [i for i in degree if i not in stuck]
        moved = False
        for idx in sorted(candidates, key=lambda i: (-degree[i], i)):
            lbl = labels[idx]
            anchor = anchors[lbl.feature_id]
            for retries, reach_scale, step_count, step_offsets in searches:
                d = _search(
                    idx, labels, cfg, anchor, arrays, budget,
                    retries, reach_scale, step_count, step_offsets,
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


StepCount = Callable[[int], int]
StepOffsets = Callable[[np.ndarray], np.ndarray]


def _searches(
    cfg: LayoutConfig, diagonal: bool, max_axis_retries: int
) -> list[tuple[int, float, StepCount, StepOffsets]]:
    """The searches a conflicted label goes through, in order, as
    (retries, reach_scale, step_count, step_offsets) for `_search`.

    Axis steps come first: step k moves the label k grid cells along each
    admissible direction, k-major and direction-minor. Rings are searched
    only for a label whose every axis step is blocked: step k is the border
    of ring k as `_ring_border` lists it. Steps 1..k hold
    len(directions) * k axis offsets and 4 k^2 ring cells.
    """
    directions = points_array(admissible_directions(cfg))
    nd = len(directions)
    grid = cfg.d_min / 2.0

    def axis_offsets(t: np.ndarray) -> np.ndarray:
        # The same floats as direction * (k * grid).
        return directions[t % nd] * ((t // nd + 1) * grid)[:, None]

    def ring_offsets(t: np.ndarray) -> np.ndarray:
        return _ring_cells(t) * grid

    searches = [(max_axis_retries, 1.0, lambda k: nd * k, axis_offsets)]
    if diagonal and cfg.leader.kind is not LeaderType.FIXED_DIR_FIXED_CONN:
        searches.append((MAX_RETRIES_DIAGONAL, math.sqrt(2.0), lambda k: 4 * k * k, ring_offsets))
    return searches


def _search(
    idx: int,
    labels: Sequence[Label],
    cfg: LayoutConfig,
    anchor: Vec2,
    arrays: SceneArrays,
    budget: _Budget,
    retries: int,
    reach_scale: float,
    step_count: StepCount,
    step_offsets: StepOffsets,
) -> Vec2 | None:
    """Nearest clearing displacement for label idx, or None.

    The candidate offsets are numbered nearest first: step_count(k) is the
    number in steps 1..k, and step_offsets(t) gives the (len(t), 2) offsets
    numbered t. Steps run outward in retries whose radius doubles each
    time; an offset of step k lies at most k * grid * reach_scale from the
    label's center. Each retry's offsets are tested in blocks of at most
    budget.left candidates, and the first that passes is taken; the budget
    is charged up to and including it, as if candidates were tested one by
    one.
    """
    rect = labels[idx].rect
    center = rect.center()
    own_half_diag = 0.5 * math.hypot(rect.width, rect.height)
    grid = cfg.d_min / 2.0
    box = np.array([rect.x_min, rect.y_min, rect.x_max, rect.y_max])
    others = live_slots(labels)
    rects = label_rects(labels)[others[others != idx]]
    centers = 0.5 * (rects[:, 0:2] + rects[:, 2:4])
    label_dist = np.hypot(centers[:, 0] - center.x, centers[:, 1] - center.y)
    half_diag = 0.5 * np.hypot(rects[:, 2] - rects[:, 0], rects[:, 3] - rects[:, 1])
    symbols = arrays.symbols[arrays.ids != arrays.own[idx]]
    symbol_dist = np.hypot(symbols[:, 0] - center.x, symbols[:, 1] - center.y)
    start = 1
    for retry in range(retries + 1):
        radius = BASE_RADIUS_FACTOR * cfg.d_min * (2.0**retry)
        # Anything beyond this retry's reach cannot touch a candidate;
        # prefilter once per retry. The bound is grown so that np.hypot's
        # last bit never drops what the scalar norm would keep; an extra
        # rect or symbol never changes a decision.
        reach = radius * reach_scale + own_half_diag + cfg.d_min
        near_rects = rects[label_dist <= (reach + half_diag) * (1.0 + HYPOT_RTOL)]
        near_symbols = symbols[symbol_dist <= (reach + symbols[:, 2]) * (1.0 + HYPOT_RTOL)]
        block = max(1, BLOCK_ELEMENTS // max(1, len(near_rects) + len(near_symbols)))
        end = int(radius / grid)
        t, t_end = step_count(start - 1), step_count(end)
        while t < t_end:
            if budget.left <= 0:
                return None
            offsets = step_offsets(np.arange(t, min(t_end, t + block, t + budget.left)))
            passed = np.flatnonzero(
                _candidates_ok(box + np.tile(offsets, 2), near_rects, near_symbols, cfg, anchor)
            )
            if len(passed):
                first = int(passed[0])
                budget.left -= first + 1
                return Vec2(*offsets[first].tolist())
            budget.left -= len(offsets)
            t += len(offsets)
        start = end + 1
    return None


# The eight border cells of ring r at m < r steps off the axes, in
# (ix^2 + iy^2, ix, iy) order: (-r, -m), (-r, m), (-m, -r), (-m, r),
# (m, -r), (m, r), (r, -m), (r, m). At m = r, cells 0, 1, 6 and 7 are the
# four corners in that order.
_CELL_SIGN_X = np.array([-1, -1, -1, -1, 1, 1, 1, 1])
_CELL_SIGN_Y = np.array([-1, 1, -1, 1, -1, 1, -1, 1])
_CELL_X_ON_RING = np.array([True, True, False, False, False, False, True, True])
_CORNER_CELLS = np.array([0, 1, 6, 7])


def _ring_cells(t: np.ndarray) -> np.ndarray:
    """Grid cells (ix, iy), an (len(t), 2) int array, numbered t over the
    borders of rings 1, 2, ... as `_ring_border` lists them.

    Rings 1..r hold 4 r^2 cells, so cell t lies on ring isqrt(t // 4) + 1.
    """
    q = t // 4
    r = np.floor(np.sqrt(q)).astype(np.int64)
    r += (r + 1) * (r + 1) <= q
    r -= r * r > q
    r += 1
    p = t - 4 * (r - 1) * (r - 1)
    m = p // 8 + 1
    cell = np.where(m == r, _CORNER_CELLS[p % 4], p % 8)
    on_x = _CELL_X_ON_RING[cell]
    return np.column_stack((
        _CELL_SIGN_X[cell] * np.where(on_x, r, m),
        _CELL_SIGN_Y[cell] * np.where(on_x, m, r),
    ))


def _ring_border(r: int) -> np.ndarray:
    """Grid offsets (ix, iy) on the border of the square ring r, both non-zero.

    An (8r - 4, 2) int array ordered by (ix^2 + iy^2, ix, iy): for each
    m = 1..r the cells at squared distance r^2 + m^2, eight of them below
    the corners and four at m = r.
    """
    return _ring_cells(np.arange(4 * (r - 1) * (r - 1), 4 * r * r))


def _candidates_ok(
    cands: np.ndarray,
    near_rects: np.ndarray,
    near_symbols: np.ndarray,
    cfg: LayoutConfig,
    anchor: Vec2,
) -> np.ndarray:
    """Which candidate rects are clear, on screen and attached.

    cands and near_rects are (m, 4) and (q, 4) arrays of x_min, y_min,
    x_max, y_max; near_symbols is (s, 3): anchor x, y and symbol radius.
    A candidate passes when every near rect lies at least d_min away, every
    near symbol's clearance minus its radius is at least d_min, it keeps
    d_min from the screen edges unless it cannot fit, and, for the sliding
    fixed-direction leader, the leader ray still meets its attachment edge.

    The screen and attachment tests are column operations. The pair tests
    run on the candidates that pass them, against the rects and symbols
    near the candidates' bounding box; `hypot_below` and
    `clearances_below` decide them as `rect_distance` and
    `point_rect_signed_clearance` would.
    """
    d_min = cfg.d_min
    screen = cfg.screen
    x0, y0, x1, y1 = cands.T
    fits = (x1 - x0 <= screen.width - 2 * d_min) & (y1 - y0 <= screen.height - 2 * d_min)
    ok = ~fits | (
        (x0 - screen.x_min >= d_min)
        & (screen.x_max - x1 >= d_min)
        & (y0 - screen.y_min >= d_min)
        & (screen.y_max - y1 >= d_min)
    )
    if cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN:
        # Keep the label attached: the leader ray must still meet the
        # attachment edge after the move.
        u = cfg.leader.unit()
        if abs(u.y) >= abs(u.x):
            level = y0 if u.y > 0 else y1
            ok &= (x0 <= anchor.x) & (anchor.x <= x1) & ((level - anchor.y) * u.y >= 0)
        else:
            level = x0 if u.x > 0 else x1
            ok &= (y0 <= anchor.y) & (anchor.y <= y1) & ((level - anchor.x) * u.x >= 0)

    pad = d_min + _BROAD_PHASE_SLACK
    rows = np.flatnonzero(ok)
    if len(rows) and len(near_rects):
        c = cands[rows]
        lo, hi = c[:, 0:2].min(axis=0) - pad, c[:, 2:4].max(axis=0) + pad
        b = near_rects[np.all((near_rects[:, 2:4] >= lo) & (near_rects[:, 0:2] <= hi), axis=1)]
        gx = np.maximum(np.maximum(c[:, 0:1] - b[:, 2], b[:, 0] - c[:, 2:3]), 0.0)
        gy = np.maximum(np.maximum(c[:, 1:2] - b[:, 3], b[:, 1] - c[:, 3:4]), 0.0)
        r, k = np.nonzero((gx < d_min) & (gy < d_min))
        ok[rows[r[hypot_below(gx[r, k], gy[r, k], d_min)]]] = False
        rows = np.flatnonzero(ok)
    if len(rows) and len(near_symbols):
        c = cands[rows]
        reach = near_symbols[:, 2] + pad
        lo, hi = c[:, 0:2].min(axis=0), c[:, 2:4].max(axis=0)
        s = near_symbols[
            np.all(
                (near_symbols[:, 0:2] >= lo - reach[:, None])
                & (near_symbols[:, 0:2] <= hi + reach[:, None]),
                axis=1,
            )
        ]
        px, py, radius = s[:, 0], s[:, 1], s[:, 2]
        dx = np.maximum(c[:, 0:1] - px, px - c[:, 2:3])
        dy = np.maximum(c[:, 1:2] - py, py - c[:, 3:4])
        # The clearance is at least max(dx, dy), so a pair with dx or dy of
        # radius + d_min or more is clear.
        r, k = np.nonzero((dx < radius + pad) & (dy < radius + pad))
        ok[rows[r[clearances_below(dx[r, k], dy[r, k], radius[k], d_min)]]] = False
    return ok
