"""Exact 2D primitives shared by every other module.

All coordinates are screen millimeters with y growing upward. Everything
here is a pure function on immutable values, so unrestricted concurrent
use is safe.

The array rules at the end of this module run these tests over numpy
arrays of rects for the placement loop's scans and forces and for repair.
Differences, maxima and comparisons come out the same in numpy as here,
but `np.hypot` can differ from `math.hypot` in the last bit. So an array
distance within a relative HYPOT_RTOL of a threshold is decided again by
the scalar function here, and every decision matches it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Far above the last-bit disagreement of np.hypot and math.hypot (a few
# 1e-16), far below any geometric tolerance.
HYPOT_RTOL = 1e-12

# The symbol box test widens its threshold by this margin (mm), far above
# float rounding at screen coordinates, so it never drops a pair the exact
# clearance test would keep; a carried candidate list (`NearList`) keeps
# it from its skin for the same reason.
_BROAD_PHASE_SLACK = 1e-6

# Elements per temporary of a blockwise (rows x columns) array scan, so
# memory stays linear in the column count however many rows there are.
BLOCK_ELEMENTS = 1 << 18


def row_blocks(n_rows: int, n_cols: int) -> Iterator[slice]:
    """Consecutive row slices covering range(n_rows), each of at most
    BLOCK_ELEMENTS elements at n_cols columns (at least one row)."""
    step = max(1, BLOCK_ELEMENTS // max(1, n_cols))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


# Elements of a grouped scan's block: consecutive groups share one block,
# and one pass of array operations, while it has at most this many.
GROUP_BLOCK_ELEMENTS = 1 << 14


def group_blocks(
    row_starts: np.ndarray | None, n_rows: int, col_starts: np.ndarray | None, n_cols: int
) -> Iterator[tuple[slice, slice, bool]]:
    """Blocks (rows, cols, mixed) of a scan that pairs only a row and a
    column of one group. Rows and columns each list one group after
    another, group k's from row_starts[k] and col_starts[k] on; None is
    one group. Every pair of one group lies in exactly one block.

    Each block spans whole groups: consecutive groups share a block while
    it has at most GROUP_BLOCK_ELEMENTS elements, so the work grows with
    the groups' sizes, not with the rows times the columns. mixed says that
    the block spans more than one group, so that the caller must drop its
    pairs across groups (`same_group`); a block that is not mixed holds
    one group. A block's rows are cut by `row_blocks`; one group gives
    `row_blocks(n_rows, n_cols)` over all columns.
    """
    r_lo = [0] if row_starts is None else row_starts.tolist()
    c_lo = [0] if col_starts is None else col_starts.tolist()
    r_hi, c_hi = r_lo[1:] + [n_rows], c_lo[1:] + [n_cols]
    k = 0
    while k < len(r_lo):
        end = k + 1
        while (
            end < len(r_lo)
            and (r_hi[end] - r_lo[k]) * (c_hi[end] - c_lo[k]) <= GROUP_BLOCK_ELEMENTS
        ):
            end += 1
        r0, r1, cols = r_lo[k], r_hi[end - 1], slice(c_lo[k], c_hi[end - 1])
        if cols.stop > cols.start:
            for rows in row_blocks(r1 - r0, cols.stop - cols.start):
                yield slice(r0 + rows.start, r0 + rows.stop), cols, end - k > 1
        k = end


def same_group(
    row_starts: np.ndarray, i: np.ndarray, col_starts: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Whether row i and column j, listed as for `group_blocks`, lie in
    the same group: each lies in the last group that starts at or before
    it."""
    return np.searchsorted(row_starts, i, "right") == np.searchsorted(col_starts, j, "right")


@dataclass(frozen=True, slots=True)
class Vec2:
    """A point or displacement on the screen plane, in millimeters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        fx, fy = float(self.x), float(self.y)
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise ValueError(f"non-finite vector component ({self.x!r}, {self.y!r})")
        object.__setattr__(self, "x", fx)
        object.__setattr__(self, "y", fy)

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Vec2":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return Vec2(self.x / n, self.y / n)

    def perp(self) -> "Vec2":
        """Counterclockwise perpendicular."""
        return Vec2(-self.y, self.x)


def unit_from_degrees(angle_deg: float) -> Vec2:
    """Unit vector for an angle measured counterclockwise from +x.

    Cardinal angles are snapped to exact components so that vertical and
    horizontal leaders stay bit-exact through the pipeline.
    """
    d = angle_deg % 360.0
    if d == 0.0:
        return Vec2(1.0, 0.0)
    if d == 90.0:
        return Vec2(0.0, 1.0)
    if d == 180.0:
        return Vec2(-1.0, 0.0)
    if d == 270.0:
        return Vec2(0.0, -1.0)
    r = math.radians(d)
    return Vec2(math.cos(r), math.sin(r))


def normalize_orientation_deg(angle_deg: float) -> float:
    """Fold an angle into the undirected-orientation range [0, 180)."""
    return angle_deg % 180.0


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle. Degenerate (zero width or height) is allowed."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        x0, y0 = float(self.x_min), float(self.y_min)
        x1, y1 = float(self.x_max), float(self.y_max)
        if not (math.isfinite(x0) and math.isfinite(y0) and math.isfinite(x1) and math.isfinite(y1)):
            raise ValueError(f"non-finite rect bounds {(x0, y0, x1, y1)!r}")
        if x0 > x1 or y0 > y1:
            raise ValueError(f"inverted rect bounds {(x0, y0, x1, y1)!r}")
        object.__setattr__(self, "x_min", x0)
        object.__setattr__(self, "y_min", y0)
        object.__setattr__(self, "x_max", x1)
        object.__setattr__(self, "y_max", y1)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def center(self) -> Vec2:
        return Vec2(0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def translated(self, d: Vec2) -> "Rect":
        return Rect(self.x_min + d.x, self.y_min + d.y, self.x_max + d.x, self.y_max + d.y)


def rect_centers(rects: np.ndarray) -> np.ndarray:
    """(n, 2) array of the (n, 4) rects' centres, as `Rect.center` gives them."""
    return 0.5 * (rects[:, 0:2] + rects[:, 2:4])


def points_array(points: Iterable[Vec2]) -> np.ndarray:
    """(n, 2) array of the points' x, y."""
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


def hypot_below(
    x: np.ndarray, y: np.ndarray, limit: np.ndarray | float, minus: np.ndarray | float = 0.0
) -> np.ndarray:
    """Whether math.hypot(x, y) - minus < limit, element by element.

    np.hypot decides each element, and math.hypot each one whose np.hypot
    lands within HYPOT_RTOL of the threshold, so every decision is the
    scalar one. The scalar rect distance and symbol clearance, which the
    tests' `conftest.rect_distance` and `point_rect_signed_clearance`
    define, end in this math.hypot of the same axis gaps.
    """
    gap = np.hypot(x, y) - minus
    below = gap < limit
    near = np.flatnonzero(np.abs(gap - limit) <= HYPOT_RTOL * (limit + minus))
    if len(near):
        minus = np.broadcast_to(minus, gap.shape)
        limit = np.broadcast_to(limit, gap.shape)
        for e in near.tolist():
            below[e] = math.hypot(x[e], y[e]) - minus[e] < limit[e]
    return below


def rects_near(a: np.ndarray, b: np.ndarray, limit: float) -> np.ndarray:
    """The box test, (len(a), len(b)), that every pair of a rect of a and a
    rect of b closer than limit > 0 passes: both axis gaps below limit.
    a and b are (k, 4) arrays of x_min, y_min, x_max, y_max."""
    return (
        (a[:, 0:1] - b[:, 2] < limit) & (b[:, 0] - a[:, 2:3] < limit)
        & (a[:, 1:2] - b[:, 3] < limit) & (b[:, 1] - a[:, 3:4] < limit)
    )


def symbols_near(rects: np.ndarray, symbols: np.ndarray, limit: float) -> np.ndarray:
    """The box test, (len(rects), len(symbols)), that every rect and symbol
    whose signed clearance (`symbol_rows_closer`) minus the radius is below
    limit pass: the clearance is at least the larger signed axis gap, so
    both gaps lie below radius + limit. symbols is (m, 3): x, y, radius."""
    px, py, radius = symbols.T
    reach = radius + (limit + _BROAD_PHASE_SLACK)
    return (
        (rects[:, 0:1] - px < reach) & (px - rects[:, 2:3] < reach)
        & (rects[:, 1:2] - py < reach) & (py - rects[:, 3:4] < reach)
    )


def rect_gaps(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and y gaps of the rows of the (k, 4) rects p and q, 0 on an
    axis where they overlap: the rects' distance is their `math.hypot`."""
    gx = np.maximum(np.maximum(p[:, 0] - q[:, 2], q[:, 0] - p[:, 2]), 0.0)
    gy = np.maximum(np.maximum(p[:, 1] - q[:, 3], q[:, 1] - p[:, 3]), 0.0)
    return gx, gy


def rects_closer(a: np.ndarray, b: np.ndarray, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), row-major, of the pairs a[i], b[j] whose
    distance, the `math.hypot` of their `rect_gaps`, is below limit > 0."""
    i, j = np.nonzero(rects_near(a, b, limit))
    close = hypot_below(*rect_gaps(a[i], b[j]), limit)
    return i[close], j[close]


def symbol_rows_closer(rects: np.ndarray, symbols: np.ndarray, limit: float) -> np.ndarray:
    """Whether the signed clearance of symbols[k]'s center from rects[k]
    (negative inside) minus the radius is below limit, row by row: from the
    signed axis gaps dx and dy, max(dx, dy) for a center inside the rect,
    else `hypot_below` of the gaps clipped at 0."""
    if not len(rects):
        return np.zeros(0, dtype=bool)
    px, py, radius = symbols.T
    dx = np.maximum(rects[:, 0] - px, px - rects[:, 2])
    dy = np.maximum(rects[:, 1] - py, py - rects[:, 3])
    inside = (dx <= 0.0) & (dy <= 0.0)
    outside = hypot_below(np.maximum(dx, 0.0), np.maximum(dy, 0.0), limit, radius)
    return np.where(inside, np.maximum(dx, dy) - radius < limit, outside)


def symbols_closer(rects: np.ndarray, symbols: np.ndarray, limit: float) -> tuple[np.ndarray, ...]:
    """Index arrays (i, k), row-major, of the pairs of a rect i and a
    symbol k that pass `symbol_rows_closer`."""
    i, k = np.nonzero(symbols_near(rects, symbols, limit))
    close = symbol_rows_closer(rects[i], symbols[k], limit)
    return i[close], k[close]


@dataclass(slots=True, eq=False)
class NearList:
    """The candidates of the two conflict scans' box tests that a placement
    loop carries from step to step (a Verlet list), on the rects base, one
    row per moving label: index arrays (i, j) of the label pairs the test
    passed at its limit widened by 2·skin, and (i, k) of the label and
    symbol hits at skin, each None until a scan builds it on base.

    A test widened by w·skin, where each pair's coordinates come from w of
    the objects (w = 2 for two moving rects, 1 for a rect and a fixed
    symbol), passes every pair the unwidened test would pass while no
    coordinate lies more than skin from base: a coordinate that moves by
    at most m changes each signed gap by at most w·m. `holds` asks for a
    largest move of skin - _BROAD_PHASE_SLACK at most, so the rounding of
    the moves, of the gaps and of the widened limit cannot break that.
    Until the first `rebase`, base is None and nothing holds.
    """

    skin: float
    base: np.ndarray | None = None
    labels: tuple[np.ndarray, np.ndarray] | None = None
    symbols: tuple[np.ndarray, np.ndarray] | None = None

    def holds(self, coords: np.ndarray) -> bool:
        """Whether the candidates still cover the pairs at coords, the rows
        of base moved."""
        if self.base is None:
            return False
        return float(np.abs(coords - self.base).max(initial=0.0)) + _BROAD_PHASE_SLACK <= self.skin

    def rebase(self, coords: np.ndarray) -> None:
        """Take coords as base, with no candidates built on it yet."""
        self.base, self.labels, self.symbols = coords, None, None


def stacked_pairs(found: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs of the parts found, one after another."""
    if len(found) == 1:
        return found[0]
    empty = [np.zeros(0, dtype=np.intp)]
    first = np.concatenate(empty + [i for i, _ in found])
    return first, np.concatenate(empty + [j for _, j in found])


def screen_room(screen: Rect, d_min: float) -> tuple[float, float]:
    """The largest width and height a label may have and still keep d_min
    from every screen edge."""
    return screen.width - 2.0 * d_min, screen.height - 2.0 * d_min


def screen_margins(rects: np.ndarray, screen: Rect) -> np.ndarray:
    """The (n, 4) clearances of the (n, 4) rects to the left, bottom, right
    and top screen edges, negative once a rect crosses the edge."""
    # x_min - left, y_min - bottom, right - x_max, top - y_max, each
    # subtraction rounded as written.
    return rects * (1.0, 1.0, -1.0, -1.0) + (-screen.x_min, -screen.y_min, screen.x_max, screen.y_max)


def segments_cross_interiors(p: np.ndarray, q: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Whether each open segment p q passes through the open interior of
    its rect. Grazing a corner, running along an edge, or merely touching
    the boundary does not count as crossing.

    p and q are (k, 2) segment ends and boxes (k, 4) rects as x_min, y_min,
    x_max, y_max. The segment is clipped to the closed rect on both axes at
    once and crosses when the clipped part is longer than a point and its
    midpoint lies inside. An axis the segment does not move along leaves
    the clip [0, 1]; if the segment lies outside the rect on that axis, so
    does the midpoint.
    """
    lo, hi = boxes[:, 0:2], boxes[:, 2:4]
    d = q - p
    flat = d == 0.0
    with np.errstate(all="ignore"):
        ta, tb = (lo - p) / d, (hi - p) / d
        t0 = np.where(flat, 0.0, np.minimum(ta, tb)).max(axis=1, initial=0.0)
        t1 = np.where(flat, 1.0, np.maximum(ta, tb)).min(axis=1, initial=1.0)
        m = p + (0.5 * (t0 + t1))[:, None] * d
    return (t0 < t1) & ((lo < m) & (m < hi)).all(axis=1)
