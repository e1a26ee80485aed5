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
budget left are those of testing the candidates one at a time. The tests
are the loop's own rules: `screen_margins`, `attachment_forces`,
`rects_closer` and `symbols_closer`. A pass takes the layout as the loop
leaves it, (n, 4) rects, (n, 2) connection points and one `SceneArrays`,
and moves their rows in place, one at a time; its callers build the
labels.

Ring candidates lie on the grid, and in a crowded scene nearly all of them
are blocked. So a ring retry that the search's first block does not settle
marks, in one bool mask over the retry's grid cells, the cells where a
near rect, a near symbol or a screen edge blocks the moved label by a
margin (`_blocked_cells`), and tests only the cells left. A marked
candidate is still charged to the budget: it would fail the test, so the
first candidate to pass, and the charge up to and including it, are those
of testing every candidate, and the charge rule does not change. Unlike
the blocks, the mask and the numbers of its unmarked cells grow with the
retry's square of cells.

Each search is one record of tables (`_Search`). The ring order is one
sort of the grid cells (`_ring_lattice`), with its inverse
(`_lattice_index`); both are built on first use, once per process.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from .forces import SceneArrays, attachment_forces, conflicting_feature_pairs, conflicting_label_pairs
from .geometry import (
    _BROAD_PHASE_SLACK,
    HYPOT_RTOL,
    Vec2,
    hypot_below,
    points_array,
    rect_centers,
    rects_closer,
    rects_near,
    screen_margins,
    screen_room,
    symbols_closer,
    symbols_near,
)
from .scene import LayoutConfig, LeaderType, attachment_edge, connection_points

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

def admissible_directions(cfg: LayoutConfig) -> tuple[Vec2, ...]:
    """Unit directions a label may move in, by leader type."""
    if cfg.leader.kind is LeaderType.FIXED_DIR_FIXED_CONN:
        u = cfg.leader.unit()
        return (u, -u)
    return (Vec2(1.0, 0.0), Vec2(-1.0, 0.0), Vec2(0.0, 1.0), Vec2(0.0, -1.0))


def conflict_degrees(rects: np.ndarray, arrays: SceneArrays, d_min: float) -> dict[int, int]:
    """Conflicts per label slot of the layout at the (n, 4) rects."""
    ends = [i for pair in conflicting_label_pairs(rects, arrays.live, d_min) for i in pair]
    ends += [i for i, _ in conflicting_feature_pairs(rects, arrays, d_min)]
    return Counter(ends)


class _Budget:
    """Candidates left to test in one repair invocation."""

    __slots__ = ("left",)

    def __init__(self, amount: int) -> None:
        self.left = amount


def greedy_repair(
    rects: np.ndarray,
    conns: np.ndarray,
    arrays: SceneArrays,
    cfg: LayoutConfig,
    diagonal: bool = False,
    max_axis_retries: int = MAX_RETRIES,
) -> tuple[int, int]:
    """Resolve conflicts by nearest-first grid moves of rows of the (n, 4)
    rects and (n, 2) conns, in place.

    With diagonal=True a label whose axis-aligned escapes are all blocked is
    additionally searched over a 2D grid ring, which rescues labels wedged
    into corners (for example screen edge on one side, fixed symbol on the
    other). max_axis_retries bounds how far the axis search escalates; a
    finishing pass after an iterative solve should keep it small so stuck
    labels get nudged, never relocated across the layout. Returns the
    evaluation budget left and how many moves were applied. Stops when
    conflict-free, when no conflicted label has a clearing position within
    the bounded search radius, or when the budget runs out.
    """
    d_min = cfg.d_min
    searches: list[_Search] = []
    moves = 0
    budget = _Budget(CANDIDATE_BUDGET)
    # A label whose search exhausted stays parked until some move lands near
    # enough to change its surroundings.
    stuck: dict[int, float] = {}

    while budget.left > 0:
        degree = conflict_degrees(rects, arrays, d_min)
        if not degree:
            break
        # Built once some label needs a search.
        searches = searches or _searches(cfg, diagonal, max_axis_retries)
        candidates = [i for i in degree if i not in stuck]
        for idx in sorted(candidates, key=lambda i: (-degree[i], i)):
            anchor = Vec2(*arrays.anchors[idx])
            for search in searches:
                d = _search(idx, rects, cfg, anchor, arrays, budget, search)
                if d is not None:
                    break
            if d is not None:
                vacated = 0.5 * (rects[idx, 0:2] + rects[idx, 2:4])
                rects[idx] += (d.x, d.y, d.x, d.y)
                row = slice(idx, idx + 1)
                conns[row] = connection_points(
                    rects[row], arrays.anchors[row], cfg.leader, conns[row] + (d.x, d.y)
                )
                moves += 1
                # Unpark the stuck labels whose surroundings this move
                # changed: those centered at most their reach (below the
                # next float up) from the vacated or the occupied spot.
                slots = np.array(list(stuck), dtype=np.int64)
                reach = np.nextafter(np.array(list(stuck.values())), math.inf)
                centers = rect_centers(rects[slots])
                near = hypot_below(*(centers - vacated).T, reach)
                near |= hypot_below(*(centers - 0.5 * (rects[idx, 0:2] + rects[idx, 2:4])).T, reach)
                for s in slots[near].tolist():
                    del stuck[s]
                break
            size = (rects[idx, 2:4] - rects[idx, 0:2]).tolist()
            stuck[idx] = BASE_RADIUS_FACTOR * d_min * 2.0**max_axis_retries + 4.0 * math.hypot(*size)
        else:
            break
    return budget.left, moves


class _Search(NamedTuple):
    """One search of `_search`: its offsets (rows of offsets times scale)
    out to its last retry in test order, nearest first, and counts[k], the
    number in steps 1..k. The ring search holds the shared int32 grid
    cells, scaled by grid, and its index holds the number of cell (ix, iy)
    at [ix + L, iy + L], -1 on the axes; the axis search has none."""

    retries: int
    reach_scale: float
    offsets: np.ndarray
    scale: float
    counts: list[int]
    index: np.ndarray | None


def _searches(cfg: LayoutConfig, diagonal: bool, max_axis_retries: int) -> list[_Search]:
    """The searches a conflicted label goes through, in order.

    Axis steps come first: step k moves the label k grid cells along each
    admissible direction, k-major and direction-minor. Rings are searched
    only for a label whose every axis step is blocked: step k is the
    border of square ring k, both cell coordinates non-zero, in
    (ix^2 + iy^2, ix, iy) order (`_ring_lattice`). Steps 1..k hold
    len(directions) * k axis offsets and 4 k^2 ring cells. Every ring
    offset is a grid cell; the axis offsets of a leader at an angle are
    not, and the axis search has no index.
    """
    directions = points_array(admissible_directions(cfg))
    nd = len(directions)
    grid = cfg.d_min / 2.0
    end = _last_step(cfg, max_axis_retries)
    t = np.arange(nd * end)
    # The same floats as direction * (k * grid).
    axis = directions[t % nd] * ((t // nd + 1) * grid)[:, None]
    searches = [_Search(max_axis_retries, 1.0, axis, 1.0, [nd * k for k in range(end + 1)], None)]
    if diagonal and cfg.leader.kind is not LeaderType.FIXED_DIR_FIXED_CONN:
        rings = _last_step(cfg, MAX_RETRIES_DIAGONAL)
        searches.append(_Search(
            MAX_RETRIES_DIAGONAL, math.sqrt(2.0), _ring_lattice(rings), grid,
            [4 * k * k for k in range(rings + 1)], _lattice_index(rings),
        ))
    return searches


def _last_step(cfg: LayoutConfig, retries: int) -> int:
    """The step that retries 0..retries reach, as `_search` computes each
    retry's. A retry whose radius overflows sizes no table: `_search`
    fails there, as it always has."""
    grid = cfg.d_min / 2.0
    radii = (BASE_RADIUS_FACTOR * cfg.d_min * (2.0**retry) for retry in range(retries + 1))
    return max((int(radius / grid) for radius in radii if radius < math.inf), default=0)


def _search(
    idx: int,
    rects: np.ndarray,
    cfg: LayoutConfig,
    anchor: Vec2,
    arrays: SceneArrays,
    budget: _Budget,
    search: _Search,
) -> Vec2 | None:
    """Nearest clearing displacement for the label in slot idx of the
    (n, 4) rects, or None.

    The search's offsets are read in their number order, nearest first,
    and scaled.
    Steps run outward in retries whose radius doubles each time; an offset
    of step k lies at most k * grid * reach_scale from the label's center.
    Each retry's offsets are tested in blocks of at most budget.left
    candidates, and the first that passes is taken; the budget is charged
    up to and including it, as if candidates were tested one by one.

    With an index, a retry that the search's first block does not settle
    marks the cells `_blocked_cells` proves blocked, and tests only the
    others, in number order. A marked candidate would fail the test, so it
    is charged as if tested, and the choice and the charge stay those of
    testing every candidate.
    """
    box = rects[idx]
    x0, y0, x1, y1 = box.tolist()
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    own_half_diag = 0.5 * math.hypot(x1 - x0, y1 - y0)
    grid = cfg.d_min / 2.0
    others = rects[arrays.live[arrays.live != idx]]
    centers = rect_centers(others)
    label_dist = np.hypot(centers[:, 0] - cx, centers[:, 1] - cy)
    half_diag = 0.5 * np.hypot(others[:, 2] - others[:, 0], others[:, 3] - others[:, 1])
    symbols = arrays.symbols[arrays.ids != arrays.own[idx]]
    symbol_dist = np.hypot(symbols[:, 0] - cx, symbols[:, 1] - cy)
    start = 1
    for retry in range(search.retries + 1):
        radius = BASE_RADIUS_FACTOR * cfg.d_min * (2.0**retry)
        # Anything beyond this retry's reach cannot touch a candidate;
        # prefilter once per retry. The bound is grown so that np.hypot's
        # last bit never drops what the scalar norm would keep; an extra
        # rect or symbol never changes a decision.
        reach = radius * search.reach_scale + own_half_diag + cfg.d_min
        near_rects = others[label_dist <= (reach + half_diag) * (1.0 + HYPOT_RTOL)]
        near_symbols = symbols[symbol_dist <= (reach + symbols[:, 2]) * (1.0 + HYPOT_RTOL)]
        block = max(1, BLOCK_ELEMENTS // max(1, len(near_rects) + len(near_symbols)))
        end = int(radius / grid)
        t, t_end = search.counts[start - 1], search.counts[end]
        while t < t_end:
            if budget.left <= 0:
                return None
            stop = min(t_end, t + budget.left)
            if search.index is None or t == 0:
                stop = min(stop, t + block)
                numbers = np.arange(t, stop)
            else:
                # The rest of the retry within the budget, marked cells left out.
                blocked = _blocked_cells(box, end, grid, near_rects, near_symbols, cfg)
                c = len(search.index) // 2
                numbers = search.index[c - end : c + end + 1, c - end : c + end + 1][~blocked]
                numbers = np.sort(numbers[(t <= numbers) & (numbers < stop)])
            for lo in range(0, len(numbers), block):
                offsets = search.offsets[numbers[lo : lo + block]] * search.scale
                passed = np.flatnonzero(
                    _candidates_ok(box + np.tile(offsets, 2), near_rects, near_symbols, cfg, anchor)
                )
                if len(passed):
                    first = int(passed[0])
                    budget.left -= int(numbers[lo + first]) - t + 1
                    return Vec2(*offsets[first].tolist())
            budget.left -= stop - t
            t = stop
        start = end + 1
    return None


def _blocked_cells(
    box: np.ndarray,
    end: int,
    grid: float,
    near_rects: np.ndarray,
    near_symbols: np.ndarray,
    cfg: LayoutConfig,
) -> np.ndarray:
    """Grid cells where the box, moved by (ix, iy) * grid, fails
    `_candidates_ok` by a margin: a (2 end + 1, 2 end + 1) bool array
    holding cell (ix, iy) at [ix + end, iy + end].

    The candidate is closer than d_min to a near rect when both its signed
    axis gaps to the rect lie below d_min / sqrt(2), and to a near symbol
    when both lie below (radius + d_min) / sqrt(2); a label that fits the
    screen fails it when a margin lies below d_min, which is a gap below
    d_min to the half-plane beyond that edge. Each threshold is lowered by
    `_BROAD_PHASE_SLACK` and each range of cells shrunk by one cell, so a
    marked cell fails the exact test by far more than float rounding: one
    slice assignment marks each rect, symbol and screen edge.
    """
    d_min, s = cfg.d_min, cfg.screen
    x0, y0, x1, y1 = box.tolist()
    limit = np.concatenate((np.full(len(near_rects), d_min), near_symbols[:, 2] + d_min))
    limit = limit / math.sqrt(2.0) - _BROAD_PHASE_SLACK
    obstacles = np.concatenate((near_rects, near_symbols[:, [0, 1, 0, 1]]))
    room_x, room_y = screen_room(s, d_min)
    if x1 - x0 <= room_x - _BROAD_PHASE_SLACK and y1 - y0 <= room_y - _BROAD_PHASE_SLACK:
        inf = math.inf
        beyond = ((-inf, -inf, s.x_min, inf), (-inf, -inf, inf, s.y_min),
                  (s.x_max, -inf, inf, inf), (-inf, s.y_max, inf, inf))
        obstacles = np.concatenate((obstacles, beyond))
        limit = np.append(limit, [d_min - _BROAD_PHASE_SLACK] * 4)
    # Both gaps along x lie below the limit for the cells ix with
    # x0 + ix * grid - q_x1 < limit and q_x0 - (x1 + ix * grid) < limit,
    # an open range; likewise along y. The slices keep the cells one in
    # from each end.
    lo = np.floor((obstacles[:, 0:2] - box[2:4] - limit[:, None]) / grid) + 2
    hi = np.ceil((obstacles[:, 2:4] - box[0:2] + limit[:, None]) / grid) - 1
    lo, hi = (np.clip(v + end, 0, 2 * end + 1).astype(np.int64).tolist() for v in (lo, hi))
    blocked = np.zeros((2 * end + 1, 2 * end + 1), dtype=bool)
    for (ax, ay), (bx, by) in zip(lo, hi):
        blocked[ax:bx, ay:by] = True
    return blocked


@functools.cache
def _ring_lattice(rings: int) -> np.ndarray:
    """The grid cells (ix, iy) off the axes out to square ring `rings`, an
    (4 rings^2, 2) int32 array, ring by ring, each ring in
    (ix^2 + iy^2, ix, iy) order. Rings 1..k are its first 4 k^2 rows.
    Built once per ring count and read-only."""
    v = np.arange(-rings, rings + 1, dtype=np.int32)
    v = v[v != 0]
    ix, iy = np.repeat(v, len(v)), np.tile(v, len(v))
    order = np.lexsort((iy, ix, ix * ix + iy * iy, np.maximum(np.abs(ix), np.abs(iy))))
    cells = np.column_stack((ix[order], iy[order]))
    cells.flags.writeable = False
    return cells


@functools.cache
def _lattice_index(rings: int) -> np.ndarray:
    """The row numbers of `_ring_lattice(rings)`, inverted: a
    (2 rings + 1, 2 rings + 1) int32 array holding the number of cell
    (ix, iy) at [ix + rings, iy + rings], and -1 on the axes. Read-only."""
    cells = _ring_lattice(rings)
    index = np.full((2 * rings + 1, 2 * rings + 1), -1, dtype=np.int32)
    index[cells[:, 0] + rings, cells[:, 1] + rings] = np.arange(len(cells), dtype=np.int32)
    index.flags.writeable = False
    return index


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
    fixed-direction leader, `attachment_forces` gives it no pull and its
    attachment edge lies ahead of the anchor.

    The screen and attachment tests are column operations. The rects, then
    the symbols, are tested against the candidates still in, leaving out
    those whose box test fails against the candidates' bounding box.
    """
    d_min = cfg.d_min
    ok = (screen_margins(cands, cfg.screen) >= d_min).all(axis=1)
    # A candidate that fails `check_screen_fit`'s size test is exempt.
    ok |= (cands[:, 2:4] - cands[:, 0:2] > screen_room(cfg.screen, d_min)).any(axis=1)
    if cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN:
        # Keep the label attached, by the loop's rule: the leader ray still
        # meets the attachment edge, which lies ahead of the anchor along u.
        u = cfg.leader.unit()
        along, level = attachment_edge(cands, u)
        ok &= ~attachment_forces(cands, np.array([[anchor.x, anchor.y]]), cfg.leader).any(axis=1)
        ok &= (level - (anchor.x, anchor.y)[along]) * (u.x, u.y)[along] >= 0

    for near, box_test, closer in (
        (near_rects, rects_near, rects_closer), (near_symbols, symbols_near, symbols_closer)
    ):
        rows = np.flatnonzero(ok)
        if not len(rows):
            break
        c = cands[rows]
        bbox = np.concatenate((c[:, 0:2].min(axis=0), c[:, 2:4].max(axis=0)))[None]
        ok[rows[closer(c, near[box_test(bbox, near, d_min)[0]], d_min)[0]]] = False
    return ok
