"""Proximity graphs over label centers: Delaunay, pruned Delaunay, and MST.

The graph encodes which labels should be treated as structural neighbors by
the beam solver. Its edges are an (m, 2) int array of slot pairs (i, j)
with i < j, and every builder returns its rows sorted; lengths and
orientations are taken from `positions` by whoever needs them.

Every builder takes the layout as arrays: `rects`, (n, 4) with one row per
label slot as `scene.label_rects` gives them, and `live`, the rising slots
of the labels not deleted, as `scene.live_slots` gives them. A subgroup's
Qhull build takes its rows of the run's arrays, and `partition_labels` the
run's.

A Delaunay build also returns its triangles (`Triangulation`), and the
placement loop hands them to the next step. A step moves each label by at
most 2·d_min, far less than the labels' spacing, so the triangles mostly
stay Delaunay. The loop keeps them, and skips Qhull, when `still_delaunay`
decides every orientation and in-circle test that proves this by a margin;
the Delaunay triangulation is then unique and Qhull would return the same
edges. One check covers the triangles of several groups at once. Qhull runs
on a loop's first step, when a test fails or cannot be decided, and on
every step while Qhull drops a point (nudged duplicate centres) or rejects
the set (collinear centres). Two or fewer live labels carry nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .geometry import (
    HYPOT_RTOL,
    group_blocks,
    rect_centers,
    rect_gaps,
    row_blocks,
    same_group,
    segments_cross_interiors,
)

# Deterministic nudge applied to duplicate centers so triangulation stays
# well defined; far below any geometric tolerance used elsewhere.
_DUPLICATE_JITTER = 1e-9

_NO_EDGES = np.empty((0, 2), dtype=np.int64)


def _find(parent: list[int] | dict[int, int], a: int) -> int:
    """Root of a in the union-find forest parent, halving the path walked."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


@dataclass(frozen=True, slots=True, eq=False)
class Triangulation:
    """The triangles of one Delaunay build, over live slots, in the form the
    next build's check reads them.

    `edges` is the build's unpruned (m, 2) edge array. `triangles` is
    (t, 3), each row counter-clockwise. `hull` is (h, 2), each hull edge
    directed so that the triangles lie on its left. `interior` is (k, 6),
    one row (d, a, b, c, a, b) per interior edge bc: abc is the
    counter-clockwise triangle on one side, d the far vertex of its
    neighbour on the other, and a, b repeat so that each rotation of abc is
    a slice.
    """

    edges: np.ndarray
    triangles: np.ndarray
    hull: np.ndarray
    interior: np.ndarray

    def renumbered(self, slots: np.ndarray) -> Triangulation:
        """These triangles with each slot k renamed slots[k], for rising
        slots: a group's build over its own rows, in the run's slots."""
        parts = (self.edges, self.triangles, self.hull, self.interior)
        return Triangulation(*(slots[a] for a in parts))


@dataclass(frozen=True, slots=True, eq=False)
class ProximityGraph:
    """Node positions, an (n, 2) array of rect centers with one row per
    label slot, and the edges, an (m, 2) int array of slot pairs i < j.

    Deleted labels keep their slot so indices line up with force and
    displacement arrays, but never carry edges. A Delaunay build, and its
    pruned graph, also hold the build's `triangulation` when Qhull kept
    every live center as a vertex; other graphs hold None.
    """

    positions: np.ndarray
    edges: np.ndarray
    triangulation: Triangulation | None = None


def _effective_xy(rects: np.ndarray, live: np.ndarray) -> np.ndarray:
    # Rect centers, (n, 2), with exact duplicates among live labels nudged
    # apart by an offset keyed to the slot index. When no two live centers
    # are equal (as complex numbers, so that -0.0 equals 0.0 as in the set)
    # nothing moves.
    xy = rect_centers(rects)
    if len(np.unique(xy[live].view(np.complex128))) == len(live):
        return xy
    seen: set[tuple[float, float]] = set()
    points = xy.tolist()
    for idx in live.tolist():
        x, y = points[idx]
        if (x, y) in seen:
            x += _DUPLICATE_JITTER * (idx + 1)
            y += _DUPLICATE_JITTER * (idx + 1)
            xy[idx] = (x, y)
        seen.add((x, y))
    return xy


def _collinear_chain(live: list[int], xy: np.ndarray) -> list[tuple[int, int]]:
    # Degenerate input for the triangulator: connect consecutive points along
    # the line. Lexicographic (x, y) order follows any straight line.
    order = sorted(live, key=lambda k: (xy[k, 0], xy[k, 1], k))
    return sorted((min(a, b), max(a, b)) for a, b in zip(order, order[1:]))


# The carried triangles are accepted only when every test clears M * S^2
# (orientation, hull side) or M * S^4 (in-circle), with M = _CARRY_MARGIN
# and S = 1 + the largest |coordinate| of a live center. Both bounds are
# global because Qhull's precision is: it lifts every point onto one
# paraboloid, scaled (option Qbb) to the largest coordinate, and the
# roundoff within which it merges facets scales with that coordinate, some
# ulps of S. The float error of the tests here is at most about 1e-14 S^2
# for an orientation and 1e-12 S^4 for an in-circle (Shewchuk 1997, with
# differences up to 2S), so each accepted sign is the exact one. An
# in-circle value of 1e-9 S^4 puts the lifted fourth point at least about
# 1e-10 S off the plane of the other three, thousands of times Qhull's
# merge range: Qhull then returns the triangulation the tests prove unique.
_CARRY_MARGIN = 1e-9

# The starts of one group.
_ONE_GROUP = np.zeros(1, dtype=np.intp)


def still_delaunay(
    tri: Triangulation, xy: np.ndarray, live: np.ndarray, starts: np.ndarray | None = None
) -> np.ndarray:
    """Whether the carried triangles are, by a margin, the Delaunay
    triangulation of the live centers xy[live]: every triangle is still
    counter-clockwise, every other live center lies strictly inside every
    hull edge, and every interior edge's far vertex lies strictly outside
    the circumcircle of the triangle across it. Returns one bool per group.

    With starts, live lists the live slots of several groups, one group
    after another, group k's from starts[k] on, and tri is `joined` of
    their triangulations in the same order: each group is tested only
    against its own centers and its own S, and accepted or refused on its
    own. None is one group. The tests of all groups run as one set of
    array operations, the hull test in the blocks of `group_blocks`.

    The first two make the triangles a triangulation of the live centers:
    they cover the convex hull once, so no two centers coincide. The third
    makes it the Delaunay one (Delaunay's lemma), and, being strict, the
    only one.
    """
    x, y = xy[:, 0], xy[:, 1]
    size = np.abs(xy[live])
    if starts is None:
        # One group: each bound is one number, and no row needs its group.
        group, starts, s = None, _ONE_GROUP, size.max()
    else:
        group = np.zeros(len(xy), dtype=np.intp)
        group[live] = np.repeat(np.arange(len(starts)), np.append(starts[1:], len(live)) - starts)
        # S of each group, from the x and y of its centers, two per center.
        s = np.maximum.reduceat(size.ravel(), 2 * starts)
    s2 = (1.0 + s) ** 2
    margin = _CARRY_MARGIN * s2
    ok = np.ones(len(starts), dtype=bool)

    def at(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
        # The value of the group of each of the slots.
        return values if group is None else values[group[slots]]

    def refused(passed: np.ndarray, slots: np.ndarray) -> bool:
        # Refuses the group of each of the slots whose test did not pass;
        # True once no group is left.
        if passed.all():
            return False
        ok[at(np.arange(len(ok)), slots[~passed])] = False
        return not ok.any()

    first = tri.triangles[:, 0]
    tx, ty = x[tri.triangles], y[tri.triangles]
    area = (tx[:, 1] - tx[:, 0]) * (ty[:, 2] - ty[:, 0]) - (ty[:, 1] - ty[:, 0]) * (
        tx[:, 2] - tx[:, 0]
    )
    if refused(area > at(margin, first), first):
        return ok
    # A hull edge's own two endpoints give exactly 0.0, so every other
    # center of its group is inside when all but those 2 clear the bound;
    # the centers of other groups count as clear.
    hull = tri.hull
    hull_starts = starts
    if group is not None:
        hull_starts = np.searchsorted(group[hull[:, 0]], np.arange(len(starts)))
    (px, qx), (py, qy) = x[hull.T], y[hull.T]
    pts = xy[live]
    for rows, cols, mixed in group_blocks(hull_starts, len(hull), starts, len(live)):
        side = (qx - px)[rows, None] * (pts[cols, 1] - py[rows, None]) - (qy - py)[
            rows, None
        ] * (pts[cols, 0] - px[rows, None])
        ends = hull[rows, 0]
        clear = side > at(margin, ends)[..., None]
        if mixed:
            clear |= group[live[cols]] != group[ends, None]
        if np.count_nonzero(clear) != clear.size - 2 * len(clear):
            refused(clear.sum(axis=1) == clear.shape[1] - 2, ends)
    if not ok.any():
        return ok
    # Shewchuk's incircle(a, b, c, d) over a, b, c relative to d, expanded
    # along its lifted column: positive when d lies inside the circumcircle
    # of abc.
    rx, ry = x[tri.interior], y[tri.interior]
    rx, ry = rx[:, 1:] - rx[:, :1], ry[:, 1:] - ry[:, :1]
    lift = rx[:, :3] ** 2 + ry[:, :3] ** 2
    cross = rx[:, 1:4] * ry[:, 2:] - ry[:, 1:4] * rx[:, 2:]
    far = tri.interior[:, 0]
    refused(np.einsum("ij,ij->i", lift, cross) < at(-margin * s2, far), far)
    return ok


def joined(carried: Sequence[Triangulation]) -> Triangulation:
    """The union of the triangulations of disjoint groups, for one
    `still_delaunay` of them all."""
    parts = zip(*((t.edges, t.triangles, t.hull, t.interior) for t in carried))
    return Triangulation(*(np.concatenate(p) for p in parts))


def _triangulation(live: np.ndarray, tri: Delaunay, n: int) -> Triangulation:
    """The Qhull triangles as slot triples, with their hull edges, interior-
    edge rows and edge array over n slots. SciPy returns 2-D simplices
    counter-clockwise; one that is not fails the check's orientation test."""
    s = live[tri.simplices]
    # Side k of triangle t, flat at 3t + k, runs from its vertex k + 1 to
    # vertex k + 2 (mod 3), with vertex k opposite and neighbour nb across.
    nb = tri.neighbors.ravel()
    a, b, c = s.ravel(), s[:, [1, 2, 0]].ravel(), s[:, [2, 0, 1]].ravel()
    own = np.arange(len(nb)) // 3
    hull = np.column_stack((b[nb < 0], c[nb < 0]))
    inner = np.flatnonzero(nb > own)
    ai, bi, ci = a[inner], b[inner], c[inner]
    far = s.sum(axis=1)[nb[inner]] - bi - ci
    # Each edge once: every hull side, and each interior side from the
    # triangle with the higher index.
    once = nb < own
    keys = np.sort(np.minimum(b, c)[once] * n + np.maximum(b, c)[once])
    edges = np.column_stack((keys // n, keys % n))
    return Triangulation(edges, s, hull, np.column_stack((far, ai, bi, ci, ai, bi)))


def delaunay_graph(rects: np.ndarray, live: np.ndarray) -> ProximityGraph:
    """Delaunay triangulation of the live label centers, by Qhull.

    One live label yields no edges, two yield a single edge, and collinear
    sets degrade to a path graph instead of crashing.
    """
    xy = _effective_xy(rects, live)
    edges = _NO_EDGES
    triangulation = None
    if len(live) == 2:
        edges = live.reshape(1, 2)
    elif len(live) >= 3:
        try:
            tri = Delaunay(xy[live])
        except QhullError:
            edges = np.array(_collinear_chain(live.tolist(), xy), dtype=np.int64)
        else:
            triangulation = _triangulation(live, tri, len(rects))
            edges = triangulation.edges
            # A point Qhull leaves out (a nudged duplicate center) is not a
            # vertex, so these triangles cannot be checked against it.
            if len(tri.coplanar):
                triangulation = None
    return ProximityGraph(xy, edges, triangulation)


def prune_graph(
    graph: ProximityGraph,
    rects: np.ndarray,
    live: np.ndarray,
    t_d: float | np.ndarray,
    starts: np.ndarray | None = None,
    edge_starts: np.ndarray | None = None,
) -> ProximityGraph:
    """Drop edges longer than t_d and edges blocked by a third label.

    An edge is blocked when its center-to-center segment passes through the
    open interior of any label rect other than its two endpoints'. Output
    edges are always a subset of the input edges, in their order. t_d is
    one distance or one per edge. With starts and edge_starts, live and the
    edges list the labels and edges of several groups, one group after
    another, group k's from starts[k] and edge_starts[k] on, and only a
    rect of an edge's own group can block it; None is one group.

    The lengths, a closed bounding-box test of every short edge against
    every live rect of its group, in one pass over the blocks of
    `group_blocks` (`same_group` drops the hits across groups in a mixed
    block), and the segment test of each box hit
    (`segments_cross_interiors`) run as array operations; `math.hypot`
    decides each length within HYPOT_RTOL of t_d.
    """
    edges = graph.edges
    if not len(live) or not len(edges):
        return ProximityGraph(graph.positions, _NO_EDGES, graph.triangulation)
    boxes = rects[live]
    xy = graph.positions
    p, q = xy[edges[:, 0]], xy[edges[:, 1]]
    dx, dy = q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]
    length = np.hypot(dx, dy)
    short = length <= t_d
    for k in np.flatnonzero(np.abs(length - t_d) <= HYPOT_RTOL * t_d).tolist():
        short[k] = not math.hypot(dx[k], dy[k]) > (t_d[k] if np.ndim(t_d) else t_d)
    cand = np.flatnonzero(short)
    cand_starts = None if edge_starts is None else np.searchsorted(cand, edge_starts)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    blocked = np.zeros(len(edges), dtype=bool)
    for rows, cols, mixed in group_blocks(cand_starts, len(cand), starts, len(live)):
        ks, b, others = cand[rows], boxes[cols], live[cols]
        hit = (
            (b[:, 0] <= hi[ks, 0:1])
            & (b[:, 2] >= lo[ks, 0:1])
            & (b[:, 1] <= hi[ks, 1:2])
            & (b[:, 3] >= lo[ks, 1:2])
            & (others != edges[ks, 0:1])
            & (others != edges[ks, 1:2])
        )
        if mixed:
            hit &= same_group(
                cand_starts, np.arange(rows.start, rows.stop)[:, None],
                starts, np.arange(cols.start, cols.stop),
            )
        r, c = np.nonzero(hit)
        if len(r):
            k = ks[r]
            blocked[k[segments_cross_interiors(p[k], q[k], b[c])]] = True
    return ProximityGraph(xy, edges[short & ~blocked], graph.triangulation)


WeightKind = Literal["rect", "center"]


def _mst_edge_list(
    xy: np.ndarray, rects: np.ndarray, live: np.ndarray, weight: WeightKind
) -> list[tuple[float, int, int]]:
    """Kruskal MST over the complete graph of live labels, as (weight, i, j)
    in the order Kruskal takes them.

    weight "rect" uses minimum rectangle distance (the clustering semantics),
    "center" uses center-to-center distance between the rows of xy (the
    graph-kind switch). Ties break on the (min index, max index) pair, so
    results are deterministic. `math.hypot` measures the axis gaps of every
    pair, so a weight is the float the scalar rect distance gives.
    """
    if len(live) < 2:
        return []
    a, b = np.triu_indices(len(live), 1)
    i, j = live[a], live[b]
    if weight == "rect":
        dx, dy = rect_gaps(rects[i], rects[j])
    else:
        dx, dy = xy[i, 0] - xy[j, 0], xy[i, 1] - xy[j, 1]
    w = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
    order = np.lexsort((j, i, w))
    parent = list(range(len(rects)))
    chosen: list[tuple[float, int, int]] = []
    for wk, ik, jk in zip(*(v[order].tolist() for v in (w, i, j))):
        ri, rj = _find(parent, ik), _find(parent, jk)
        if ri != rj:
            parent[rj] = ri
            chosen.append((wk, ik, jk))
            if len(chosen) == len(live) - 1:
                break
    return chosen


def mst_graph(rects: np.ndarray, live: np.ndarray, weight: WeightKind = "rect") -> ProximityGraph:
    """Minimum spanning tree over live labels as a proximity graph."""
    xy = _effective_xy(rects, live)
    chosen = _mst_edge_list(xy, rects, live, weight)
    edges = np.array(sorted((i, j) for _, i, j in chosen), dtype=np.int64).reshape(-1, 2)
    return ProximityGraph(positions=xy, edges=edges)


def partition_labels(rects: np.ndarray, live: np.ndarray, t_num: int) -> list[list[int]]:
    """Split live labels into spatial subgroups of at most t_num members.

    Builds the rect-distance MST, then cuts it top-down: the longest edge
    of every component larger than t_num goes, until every component fits.
    Returns sorted index groups covering every live label exactly once.

    One pass over the tree edges in rising (weight, i, j) order decides the
    same cuts: an edge is cut exactly when its component among itself and
    the edges before it has more than t_num members. The top-down cut
    reaches it with all those edges still in place, and any longer edge
    still joined to it was kept because its component already fitted.
    """
    if t_num < 1:
        raise ValueError("t_num must be at least 1")
    tree = _mst_edge_list(np.empty((0, 2)), rects, live, "rect")
    live = live.tolist()
    joined = {i: i for i in live}
    size = dict.fromkeys(live, 1)
    kept = {i: i for i in live}
    for _, i, j in tree:
        ri, rj = _find(joined, i), _find(joined, j)
        joined[rj] = ri
        size[ri] += size[rj]
        if size[ri] <= t_num:
            kept[_find(kept, j)] = _find(kept, i)
    groups: dict[int, list[int]] = {}
    for i in live:
        groups.setdefault(_find(kept, i), []).append(i)
    return [sorted(g) for g in sorted(groups.values(), key=lambda g: g[0])]


def mean_nn_distance(xy: np.ndarray) -> float:
    """Mean nearest-neighbor distance of the (n, 2) points xy; 0 for fewer
    than two points.

    Each point is measured against all others, in row blocks so memory
    stays linear in n: np.hypot picks its nearest and those within
    HYPOT_RTOL of it, and `math.hypot` measures only those. The smallest
    distances are added one by one in point order, so the mean is the same
    float as the all-pairs definition.
    """
    n = len(xy)
    if n < 2:
        return 0.0
    total = 0.0
    for rows in row_blocks(n, n):
        d = xy - xy[rows, None]
        h = np.hypot(d[..., 0], d[..., 1])
        h[np.arange(len(h)), np.arange(rows.start, rows.stop)] = np.inf
        r, c = np.nonzero(h <= h.min(axis=1, keepdims=True) * (1.0 + HYPOT_RTOL))
        exact = np.full(h.shape, np.inf)
        exact[r, c] = list(map(math.hypot, d[r, c, 0].tolist(), d[r, c, 1].tolist()))
        for best in exact.min(axis=1).tolist():
            total += best
    return total / n
