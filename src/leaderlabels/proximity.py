"""Proximity graphs over label centers: Delaunay, pruned Delaunay, and MST.

The graph encodes which labels should be treated as structural neighbors by
the beam solver. An edge is a sorted slot pair (i, j) with i < j, and every
builder returns its edges sorted; lengths and orientations are taken from
`positions` (or from label centers) by whoever needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .geometry import Vec2, rect_distance, segment_crosses_interior
from .scene import Label

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


def effective_centers(labels: Sequence[Label]) -> list[Vec2]:
    """Rect centers with exact duplicates among live labels nudged apart.

    The nudge is keyed by slot index, so rebuilding the same scene yields the
    same coordinates.
    """
    seen: set[tuple[float, float]] = set()
    out: list[Vec2] = []
    for idx, lbl in enumerate(labels):
        c = lbl.rect.center()
        if not lbl.deleted:
            key = (c.x, c.y)
            if key in seen:
                c = Vec2(c.x + _DUPLICATE_JITTER * (idx + 1), c.y + _DUPLICATE_JITTER * (idx + 1))
            seen.add((c.x, c.y))
        out.append(c)
    return out


def _collinear_chain(live: list[int], positions: Sequence[Vec2]) -> set[tuple[int, int]]:
    # Degenerate input for the triangulator: connect consecutive points along
    # the line. Lexicographic (x, y) order follows any straight line.
    order = sorted(live, key=lambda k: (positions[k].x, positions[k].y, k))
    return {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}


def delaunay_graph(labels: Sequence[Label]) -> ProximityGraph:
    """Delaunay triangulation of the live label centers.

    One live label yields no edges, two yield a single edge, and collinear
    sets degrade to a path graph instead of crashing.
    """
    positions = effective_centers(labels)
    live = [i for i, l in enumerate(labels) if not l.deleted]
    pairs: set[tuple[int, int]] = set()
    if len(live) == 2:
        pairs.add((min(live), max(live)))
    elif len(live) >= 3:
        pts = np.array([[positions[i].x, positions[i].y] for i in live])
        try:
            tri = Delaunay(pts)
        except QhullError:
            pairs = _collinear_chain(live, positions)
        else:
            for simplex in tri.simplices:
                for a in range(3):
                    for b in range(a + 1, 3):
                        gi, gj = live[simplex[a]], live[simplex[b]]
                        pairs.add((min(gi, gj), max(gi, gj)))
    edges = tuple(GraphEdge(i, j) for i, j in sorted(pairs))
    return ProximityGraph(positions=tuple(positions), edges=edges)


def prune_graph(graph: ProximityGraph, labels: Sequence[Label], t_d: float) -> ProximityGraph:
    """Drop edges longer than t_d and edges blocked by a third label.

    An edge is blocked when its center-to-center segment passes through the
    open interior of any label rect other than its two endpoints'. Output
    edges are always a subset of the input edges.
    """
    live = [i for i, l in enumerate(labels) if not l.deleted]
    if not live:
        return ProximityGraph(positions=graph.positions, edges=())
    xs_min = np.array([labels[i].rect.x_min for i in live])
    ys_min = np.array([labels[i].rect.y_min for i in live])
    xs_max = np.array([labels[i].rect.x_max for i in live])
    ys_max = np.array([labels[i].rect.y_max for i in live])
    live_arr = np.array(live)

    kept = []
    for e in graph.edges:
        p, q = graph.positions[e.i], graph.positions[e.j]
        if (q - p).norm() > t_d:
            continue
        bx0, bx1 = min(p.x, q.x), max(p.x, q.x)
        by0, by1 = min(p.y, q.y), max(p.y, q.y)
        mask = (xs_min <= bx1) & (xs_max >= bx0) & (ys_min <= by1) & (ys_max >= by0)
        blocked = False
        for k in live_arr[mask]:
            if k == e.i or k == e.j:
                continue
            if segment_crosses_interior(p, q, labels[k].rect):
                blocked = True
                break
        if not blocked:
            kept.append(e)
    return ProximityGraph(positions=graph.positions, edges=tuple(kept))


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
    """Mean nearest-neighbor distance; 0 for fewer than two points."""
    n = len(points)
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(n):
        best = math.inf
        for j in range(n):
            if i != j:
                d = (points[i] - points[j]).norm()
                if d < best:
                    best = d
        total += best
    return total / n
