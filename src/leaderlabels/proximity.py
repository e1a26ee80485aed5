"""Proximity graphs over label centers: Delaunay, pruned Delaunay, and MST.

The graph encodes which labels should be treated as structural neighbors by
the beam solver. Its edges are an (m, 2) int array of slot pairs (i, j)
with i < j, and every builder returns its rows sorted; lengths and
orientations are taken from `positions` by whoever needs them.

Every builder takes the layout as arrays: `rects`, (n, 4) with one row per
label slot as `scene.label_rects` gives them, and `live`, the rising slots
of the labels not deleted, as `scene.live_slots` gives them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from .geometry import (
    HYPOT_RTOL,
    Rect,
    Vec2,
    points_array,
    rect_distance,
    row_blocks,
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
class ProximityGraph:
    """Node positions, an (n, 2) array of rect centers with one row per
    label slot, and the edges, an (m, 2) int array of slot pairs i < j.

    Deleted labels keep their slot so indices line up with force and
    displacement arrays, but never carry edges.
    """

    positions: np.ndarray
    edges: np.ndarray


def _effective_xy(rects: np.ndarray, live: np.ndarray) -> np.ndarray:
    # Rect centers, (n, 2), with exact duplicates among live labels nudged
    # apart by an offset keyed to the slot index. When no two live centers
    # are equal (as complex numbers, so that -0.0 equals 0.0 as in the set)
    # nothing moves.
    xy = 0.5 * (rects[:, 0:2] + rects[:, 2:4])
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


def delaunay_graph(rects: np.ndarray, live: np.ndarray) -> ProximityGraph:
    """Delaunay triangulation of the live label centers.

    One live label yields no edges, two yield a single edge, and collinear
    sets degrade to a path graph instead of crashing.
    """
    xy = _effective_xy(rects, live)
    edges = _NO_EDGES
    if len(live) == 2:
        edges = live.reshape(1, 2)
    elif len(live) >= 3:
        try:
            tri = Delaunay(xy[live])
        except QhullError:
            edges = np.array(_collinear_chain(live.tolist(), xy), dtype=np.int64)
        else:
            # Each triangle's three sides as slot pairs; a side shared by two
            # triangles is one edge. i * n + j orders them as sorted pairs.
            s = live[tri.simplices]
            a = np.concatenate((s[:, 0], s[:, 0], s[:, 1]))
            b = np.concatenate((s[:, 1], s[:, 2], s[:, 2]))
            n = len(rects)
            keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
            edges = np.column_stack((keys // n, keys % n))
    return ProximityGraph(positions=xy, edges=edges)


def prune_graph(
    graph: ProximityGraph, rects: np.ndarray, live: np.ndarray, t_d: float
) -> ProximityGraph:
    """Drop edges longer than t_d and edges blocked by a third label.

    An edge is blocked when its center-to-center segment passes through the
    open interior of any label rect other than its two endpoints'. Output
    edges are always a subset of the input edges.

    The lengths, a closed bounding-box test of every edge against every
    live rect and the segment test of each box hit
    (`segments_cross_interiors`) run as array operations; `math.hypot`
    decides each length within HYPOT_RTOL of t_d.
    """
    edges = graph.edges
    if not len(live) or not len(edges):
        return ProximityGraph(positions=graph.positions, edges=_NO_EDGES)
    boxes = rects[live]
    xy = graph.positions
    p, q = xy[edges[:, 0]], xy[edges[:, 1]]
    dx, dy = q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]
    length = np.hypot(dx, dy)
    short = length <= t_d
    for k in np.flatnonzero(np.abs(length - t_d) <= HYPOT_RTOL * t_d).tolist():
        short[k] = not math.hypot(dx[k], dy[k]) > t_d
    cand = np.flatnonzero(short)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    blocked = np.zeros(len(edges), dtype=bool)
    for rows in row_blocks(len(cand), len(live)):
        ks = cand[rows]
        hit = (
            (boxes[:, 0] <= hi[ks, 0:1])
            & (boxes[:, 2] >= lo[ks, 0:1])
            & (boxes[:, 1] <= hi[ks, 1:2])
            & (boxes[:, 3] >= lo[ks, 1:2])
            & (live != edges[ks, 0:1])
            & (live != edges[ks, 1:2])
        )
        r, c = np.nonzero(hit)
        if len(r):
            k = ks[r]
            blocked[k[segments_cross_interiors(p[k], q[k], boxes[c])]] = True
    return ProximityGraph(positions=xy, edges=edges[cand[~blocked[cand]]])


WeightKind = Literal["rect", "center"]


def _mst_edge_list(
    xy: np.ndarray, rects: np.ndarray, live: np.ndarray, weight: WeightKind
) -> list[tuple[float, int, int]]:
    """Kruskal MST over the complete graph of live labels.

    weight "rect" uses minimum rectangle distance (the clustering semantics),
    "center" uses center-to-center distance between the rows of xy (the
    graph-kind switch). Ties break on the (min index, max index) pair, so
    results are deterministic.
    """
    live = live.tolist()
    if len(live) < 2:
        return []
    if weight == "rect":
        boxes = [Rect(*r) for r in rects.tolist()]

        def dist(i: int, j: int) -> float:
            return rect_distance(boxes[i], boxes[j])
    else:
        points = xy.tolist()

        def dist(i: int, j: int) -> float:
            return math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])

    cand = sorted((dist(i, j), i, j) for a, i in enumerate(live) for j in live[a + 1:])
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


def mst_graph(rects: np.ndarray, live: np.ndarray, weight: WeightKind = "rect") -> ProximityGraph:
    """Minimum spanning tree over live labels as a proximity graph."""
    xy = _effective_xy(rects, live)
    chosen = _mst_edge_list(xy, rects, live, weight)
    edges = np.array(sorted((i, j) for _, i, j in chosen), dtype=np.int64).reshape(-1, 2)
    return ProximityGraph(positions=xy, edges=edges)


def partition_labels(rects: np.ndarray, live: np.ndarray, t_num: int) -> list[list[int]]:
    """Split live labels into spatial subgroups of at most t_num members.

    Builds the rect-distance MST, then repeatedly deletes the longest edge
    still inside an oversized component until every component fits. Returns
    sorted index groups covering every live label exactly once.
    """
    if t_num < 1:
        raise ValueError("t_num must be at least 1")
    active = _mst_edge_list(np.empty((0, 2)), rects, live, "rect")
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


def mean_nn_distance(points: Sequence[Vec2]) -> float:
    """Mean nearest-neighbor distance; 0 for fewer than two points.

    A k-d tree proposes each point's three nearest points (itself among
    them, unless duplicates crowd it out); `Vec2.norm` measures the others
    and the smallest is summed in point order, so the mean is the same float
    as the all-pairs definition. When the third tree distance comes within
    HYPOT_RTOL of that smallest one, a nearer point may have been cut off by
    rounding, and the point is measured against all others instead.
    """
    n = len(points)
    if n < 2:
        return 0.0
    k = min(3, n)
    xy = points_array(points)
    dist, near = cKDTree(xy).query(xy, k=k)
    total = 0.0
    for i, (cands, last) in enumerate(zip(near.tolist(), dist[:, -1].tolist())):
        p = points[i]
        best = min((p - points[j]).norm() for j in cands if j != i)
        if k < n and 0.0 < best and last <= best * (1.0 + HYPOT_RTOL):
            best = min((p - points[j]).norm() for j in range(n) if j != i)
        total += best
    return total / n
