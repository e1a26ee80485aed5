"""Proximity graphs over label centers: Delaunay, pruned Delaunay, and MST.

The graph encodes which labels should be treated as structural neighbors by
the beam solver. An edge is a sorted slot pair (i, j) with i < j, and every
builder returns its edges sorted; lengths and orientations are taken from
`positions` (or from label centers) by whoever needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from .geometry import (
    HYPOT_RTOL,
    Vec2,
    points_array,
    rect_distance,
    row_blocks,
    segment_crosses_interior,
)
from .scene import Label, label_rects, live_slots

# Deterministic nudge applied to duplicate centers so triangulation stays
# well defined; far below any geometric tolerance used elsewhere.
_DUPLICATE_JITTER = 1e-9


def _find(parent: list[int] | dict[int, int], a: int) -> int:
    """Root of a in the union-find forest parent, halving the path walked."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


class GraphEdge(NamedTuple):
    """Undirected edge between label slots i < j."""

    i: int
    j: int


@dataclass(frozen=True, slots=True)
class ProximityGraph:
    """Node positions (one per label slot, rect centers) plus an edge set.

    Deleted labels keep their slot so indices line up with force and
    displacement arrays, but never carry edges.
    """

    positions: tuple[Vec2, ...]
    edges: tuple[GraphEdge, ...]

    def edge_pairs(self) -> set[tuple[int, int]]:
        return set(self.edges)


def _effective_xy(labels: Sequence[Label], rects: np.ndarray) -> np.ndarray:
    # Rect centers, (n, 2), with exact duplicates among live labels nudged
    # apart by an offset keyed to the slot index.
    xy = 0.5 * (rects[:, 0:2] + rects[:, 2:4])
    seen: set[tuple[float, float]] = set()
    for idx, (x, y) in enumerate(xy.tolist()):
        if labels[idx].deleted:
            continue
        if (x, y) in seen:
            x += _DUPLICATE_JITTER * (idx + 1)
            y += _DUPLICATE_JITTER * (idx + 1)
            xy[idx] = (x, y)
        seen.add((x, y))
    return xy


def effective_centers(labels: Sequence[Label]) -> list[Vec2]:
    """Rect centers with exact duplicates among live labels nudged apart.

    The nudge is keyed by slot index, so rebuilding the same scene yields the
    same coordinates.
    """
    return [Vec2(x, y) for x, y in _effective_xy(labels, label_rects(labels)).tolist()]


def _collinear_chain(live: list[int], xy: np.ndarray) -> list[tuple[int, int]]:
    # Degenerate input for the triangulator: connect consecutive points along
    # the line. Lexicographic (x, y) order follows any straight line.
    order = sorted(live, key=lambda k: (xy[k, 0], xy[k, 1], k))
    return sorted((min(a, b), max(a, b)) for a, b in zip(order, order[1:]))


def delaunay_graph(labels: Sequence[Label], rects: np.ndarray | None = None) -> ProximityGraph:
    """Delaunay triangulation of the live label centers.

    One live label yields no edges, two yield a single edge, and collinear
    sets degrade to a path graph instead of crashing. rects, when given,
    must be `label_rects(labels)`.
    """
    if rects is None:
        rects = label_rects(labels)
    xy = _effective_xy(labels, rects)
    live = live_slots(labels)
    pairs: list[tuple[int, int]] = []
    if len(live) == 2:
        pairs = [(int(live[0]), int(live[1]))]
    elif len(live) >= 3:
        try:
            tri = Delaunay(xy[live])
        except QhullError:
            pairs = _collinear_chain(live.tolist(), xy)
        else:
            # Each triangle's three sides as slot pairs; a side shared by two
            # triangles is one edge. i * n + j orders them as sorted pairs.
            s = live[tri.simplices]
            a = np.concatenate((s[:, 0], s[:, 0], s[:, 1]))
            b = np.concatenate((s[:, 1], s[:, 2], s[:, 2]))
            n = len(labels)
            keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
            pairs = list(zip((keys // n).tolist(), (keys % n).tolist()))
    positions = tuple(Vec2(x, y) for x, y in xy.tolist())
    return ProximityGraph(positions=positions, edges=tuple(GraphEdge(i, j) for i, j in pairs))


def prune_graph(
    graph: ProximityGraph, labels: Sequence[Label], t_d: float, rects: np.ndarray | None = None
) -> ProximityGraph:
    """Drop edges longer than t_d and edges blocked by a third label.

    An edge is blocked when its center-to-center segment passes through the
    open interior of any label rect other than its two endpoints'. Output
    edges are always a subset of the input edges. rects, when given, must
    be `label_rects(labels)`.

    The lengths and a closed bounding-box test of every edge against every
    live rect run as array operations; `segment_crosses_interior` decides
    each box hit, and `Vec2.norm` each length within HYPOT_RTOL of t_d.
    """
    live = live_slots(labels)
    if not len(live) or not graph.edges:
        return ProximityGraph(positions=graph.positions, edges=())
    if rects is None:
        rects = label_rects(labels)
    boxes = rects[live]
    edges = np.array(graph.edges)
    xy = points_array(graph.positions)
    p, q = xy[edges[:, 0]], xy[edges[:, 1]]
    length = np.hypot(q[:, 0] - p[:, 0], q[:, 1] - p[:, 1])
    short = length <= t_d
    for k in np.flatnonzero(np.abs(length - t_d) <= HYPOT_RTOL * t_d).tolist():
        i, j = graph.edges[k]
        short[k] = not (graph.positions[j] - graph.positions[i]).norm() > t_d
    cand = np.flatnonzero(short)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    blocked: set[int] = set()
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
        for r, c in zip(*(idx.tolist() for idx in np.nonzero(hit))):
            k = int(ks[r])
            if k in blocked:
                continue
            e = graph.edges[k]
            if segment_crosses_interior(
                graph.positions[e.i], graph.positions[e.j], labels[live[c]].rect
            ):
                blocked.add(k)
    kept = tuple(graph.edges[k] for k in cand.tolist() if k not in blocked)
    return ProximityGraph(positions=graph.positions, edges=kept)


WeightKind = Literal["rect", "center"]


def _mst_edge_list(
    labels: Sequence[Label], positions: Sequence[Vec2], weight: WeightKind
) -> list[tuple[float, int, int]]:
    """Kruskal MST over the complete graph of live labels.

    weight "rect" uses minimum rectangle distance (the clustering semantics),
    "center" uses center-to-center distance (the graph-kind switch). Ties
    break on the (min index, max index) pair, so results are deterministic.
    """
    live = [i for i, l in enumerate(labels) if not l.deleted]
    if len(live) < 2:
        return []
    cand: list[tuple[float, int, int]] = []
    for a_pos in range(len(live)):
        for b_pos in range(a_pos + 1, len(live)):
            i, j = live[a_pos], live[b_pos]
            if weight == "rect":
                w = rect_distance(labels[i].rect, labels[j].rect)
            else:
                w = (positions[i] - positions[j]).norm()
            cand.append((w, i, j))
    cand.sort()
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


def mst_graph(labels: Sequence[Label], weight: WeightKind = "rect") -> ProximityGraph:
    """Minimum spanning tree over live labels as a proximity graph."""
    positions = effective_centers(labels)
    chosen = _mst_edge_list(labels, positions, weight)
    edges = tuple(GraphEdge(i, j) for i, j in sorted((i, j) for _, i, j in chosen))
    return ProximityGraph(positions=tuple(positions), edges=edges)


def partition_labels(labels: Sequence[Label], t_num: int) -> list[list[int]]:
    """Split live labels into spatial subgroups of at most t_num members.

    Builds the rect-distance MST, then repeatedly deletes the longest edge
    still inside an oversized component until every component fits. Returns
    sorted index groups covering every live label exactly once.
    """
    if t_num < 1:
        raise ValueError("t_num must be at least 1")
    positions = effective_centers(labels)
    live = [i for i, l in enumerate(labels) if not l.deleted]
    active = _mst_edge_list(labels, positions, "rect")

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
