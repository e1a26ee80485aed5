import collections
import dataclasses
import itertools
import math
import random
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from leaderlabels import geometry, proximity
from leaderlabels.geometry import Rect, Vec2, points_array
from leaderlabels.proximity import (
    ProximityGraph,
    delaunay_graph,
    mean_nn_distance,
    mst_graph,
    partition_labels,
    prune_graph,
)
from leaderlabels.scene import Label

from conftest import (
    label_layout,
    labels_from_rects,
    random_labels,
    rect_distance,
    reference_partition_labels,
    segment_crosses_interior,
)


class Edge(NamedTuple):
    i: int
    j: int


def edge_pairs(g) -> list[Edge]:
    """The graph's edge rows as (i, j) tuples, in order."""
    return [Edge(i, j) for i, j in g.edges.tolist()]


def position(g, i: int) -> Vec2:
    return Vec2(*g.positions[i].tolist())


def edge_length(g, e) -> float:
    return (position(g, e.j) - position(g, e.i)).norm()


def point_labels(points: list[tuple[float, float]]) -> list[Label]:
    """Tiny square labels centered on the given points."""
    rects = [Rect(x - 0.05, y - 0.05, x + 0.05, y + 0.05) for x, y in points]
    return labels_from_rects(rects)


# --- independent Delaunay oracle -------------------------------------------

def _circumcircle(a, b, c):
    ax, ay, bx, by, cx, cy = a[0], a[1], b[0], b[1], c[0], c[1]
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-12:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    return (ux, uy), r


def brute_force_delaunay_edges(points: list[tuple[float, float]]) -> set[tuple[int, int]]:
    """An edge is Delaunay iff some circle through its endpoints is empty.

    Checked over all circumcircles with a third point plus the diametral
    circle; exact for point sets in general position.
    """
    n = len(points)
    if n == 2:
        return {(0, 1)}
    edges = set()
    for i, j in itertools.combinations(range(n), 2):
        pi, pj = points[i], points[j]
        # Diametral (Gabriel) circle first.
        cx, cy = 0.5 * (pi[0] + pj[0]), 0.5 * (pi[1] + pj[1])
        r = 0.5 * math.hypot(pi[0] - pj[0], pi[1] - pj[1])
        if all(
            math.hypot(points[k][0] - cx, points[k][1] - cy) >= r - 1e-9
            for k in range(n)
            if k not in (i, j)
        ):
            edges.add((i, j))
            continue
        for k in range(n):
            if k in (i, j):
                continue
            cc = _circumcircle(pi, pj, points[k])
            if cc is None:
                continue
            (ux, uy), r = cc
            if all(
                math.hypot(points[m][0] - ux, points[m][1] - uy) >= r - 1e-9
                for m in range(n)
                if m not in (i, j, k)
            ):
                edges.add((i, j))
                break
    return edges


# --- spanning tree enumeration oracle ---------------------------------------

def _tree_from_pruefer(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    import bisect

    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(i for i in range(n) if degree[i] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(leaves, v)
    u, w = [i for i in range(n) if degree[i] == 1]
    edges.append((min(u, w), max(u, w)))
    return edges


def brute_force_mst_weight(n: int, weight) -> float:
    """Minimum total weight over every spanning tree, via Pruefer sequences."""
    if n == 1:
        return 0.0
    if n == 2:
        return weight(0, 1)
    best = math.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        total = sum(weight(i, j) for i, j in _tree_from_pruefer(seq, n))
        best = min(best, total)
    return best


# --- tests -------------------------------------------------------------------

class TestDelaunay:
    def test_triangle(self):
        g = delaunay_graph(*label_layout(point_labels([(0, 0), (10, 0), (5, 8)])))
        assert set(edge_pairs(g)) == {(0, 1), (0, 2), (1, 2)}

    def test_interior_point_against_oracle(self):
        pts = [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0), (5.0, 3.0)]
        g = delaunay_graph(*label_layout(point_labels(pts)))
        assert set(edge_pairs(g)) == brute_force_delaunay_edges(pts)

    def test_two_nodes(self):
        g = delaunay_graph(*label_layout(point_labels([(0, 0), (3, 4)])))
        assert set(edge_pairs(g)) == {(0, 1)}
        assert edge_length(g, edge_pairs(g)[0]) == pytest.approx(5.0)

    def test_one_node(self):
        g = delaunay_graph(*label_layout(point_labels([(1, 1)])))
        assert edge_pairs(g) == []

    def test_collinear_becomes_path(self):
        # Along-the-line order is 0, 2, 1, 3.
        g = delaunay_graph(*label_layout(point_labels([(0, 0), (4, 0), (2, 0), (9, 0)])))
        assert set(edge_pairs(g)) == {(0, 2), (1, 2), (1, 3)}

    def test_duplicate_centers_do_not_crash(self):
        g = delaunay_graph(*label_layout(point_labels([(1, 1), (1, 1), (4, 5), (7, 2)])))
        assert all(edge_length(g, e) > 0 for e in edge_pairs(g))

    def test_random_against_oracle(self, rng):
        for _ in range(8):
            pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(12)]
            g = delaunay_graph(*label_layout(point_labels(pts)))
            assert set(edge_pairs(g)) == brute_force_delaunay_edges(pts)

    def test_deleted_labels_are_isolated(self):
        labels = point_labels([(0, 0), (10, 0), (5, 8)])
        labels[1] = Label(
            feature_id=labels[1].feature_id,
            rect=labels[1].rect,
            conn=labels[1].conn,
            font_size=10.0,
            deleted=True,
        )
        g = delaunay_graph(*label_layout(labels))
        assert set(edge_pairs(g)) == {(0, 2)}


# --- carried triangulations -----------------------------------------------

def point_rects(xy) -> tuple[np.ndarray, np.ndarray]:
    """Zero-size rects centred exactly on the rows of xy, all of them live."""
    xy = np.asarray(xy, dtype=float)
    return np.column_stack((xy, xy)), np.arange(len(xy))


def carried_build(xy0, xy1):
    """The graph of the centres xy1 that a loop carrying the triangles of
    xy0 keeps: their edges if `_delaunay_tests` accepts them, else a fresh
    Qhull build; with that fresh build and whether the carry was
    accepted."""
    tri = delaunay_graph(*point_rects(xy0)).triangulation
    assert tri is not None
    rects, live = point_rects(xy1)
    fresh = delaunay_graph(rects, live)
    xy = geometry.rect_centers(rects)
    if proximity._delaunay_tests(tri, xy, live, None)[0][0]:
        return ProximityGraph(xy, tri.edges, tri), fresh, True
    return fresh, fresh, False


@st.composite
def moved_point_sets(draw):
    """A random point set and a move of it that keeps, flips or breaks its
    Delaunay triangulation: a jitter, a far vertex pulled onto or inside
    the circumcircle across an interior edge, a point moved onto or across
    a hull edge, a hull vertex pulled inwards, or two points made equal."""
    n = draw(st.integers(3, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xy0 = rng.uniform(0.0, 100.0, (n, 2))
    tri = delaunay_graph(*point_rects(xy0)).triangulation
    assume(tri is not None)
    xy1 = xy0.copy()
    kind = draw(st.sampled_from(["jitter", "flip", "across hull", "into hull", "coincide"]))
    if kind == "jitter":
        scale = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0, 10.0]))
        xy1 += scale * rng.standard_normal((n, 2))
    elif kind == "flip" and len(tri.interior):
        d, a, b, c = tri.interior[draw(st.integers(0, len(tri.interior) - 1))][:4]
        centre, radius = _circumcircle(xy0[a], xy0[b], xy0[c])
        centre = np.array(centre)
        # Below 1 puts d inside the circle through a, b and c, 1 on it.
        f = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.1]))
        away = xy0[d] - centre
        xy1[d] = centre + f * radius * away / np.hypot(*away)
    elif kind == "across hull" and n > 3:
        p, q = tri.hull[draw(st.integers(0, len(tri.hull) - 1))]
        r = draw(st.sampled_from([k for k in range(n) if k not in (p, q)]))
        # Signed distance beyond the edge, in edge lengths; 0 is on it.
        f = draw(st.sampled_from([-0.1, -1e-9, 0.0, 1e-9, 0.1]))
        pq = xy0[q] - xy0[p]
        xy1[r] = 0.5 * (xy0[p] + xy0[q]) + f * np.array([pq[1], -pq[0]])
    elif kind == "into hull":
        k = draw(st.sampled_from(sorted(set(tri.hull[:, 0].tolist()))))
        f = draw(st.sampled_from([1e-9, 0.01, 0.1, 0.5, 1.0]))
        xy1[k] += f * (xy0.mean(axis=0) - xy0[k])
    elif kind == "coincide":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        xy1[j] = xy1[i]
    return xy0, xy1


def assert_triangulation_layout(tri, xy, live):
    """tri is a triangulation of the centres xy[live] laid out as
    `proximity.Triangulation` says: counter-clockwise triangles, hull
    edges with every other centre on their left, one interior row per
    interior edge naming its two triangles, each counter-clockwise as the
    row lists it, and the sorted edge array of the hull and interior
    edges."""
    x, y = np.asarray(xy, dtype=float).T
    live = np.asarray(live).tolist()

    def ccw(a, b, c):
        return (x[b] - x[a]) * (y[c] - y[a]) - (y[b] - y[a]) * (x[c] - x[a]) > 0

    for a, b, c in tri.triangles.tolist():
        assert ccw(a, b, c)
    for p, q in tri.hull.tolist():
        others = [r for r in live if r not in (p, q)]
        assert all(
            (x[q] - x[p]) * (y[r] - y[p]) - (y[q] - y[p]) * (x[r] - x[p]) > 0 for r in others
        )
    triangles = {frozenset(t) for t in tri.triangles.tolist()}
    assert len(triangles) == len(tri.triangles)
    sides = set()
    for d, a, b, c, a2, b2 in tri.interior.tolist():
        assert (a2, b2) == (a, b)
        assert frozenset((a, b, c)) in triangles and ccw(a, b, c)
        assert frozenset((d, b, c)) in triangles and ccw(d, c, b)
        sides.add((min(b, c), max(b, c)))
    sides.update((min(p, q), max(p, q)) for p, q in tri.hull.tolist())
    assert sorted(sides) == [tuple(e) for e in tri.edges.tolist()]
    assert len(tri.interior) + len(tri.hull) == len(tri.edges)


def carried_step(tri, rects, live, t_d):
    """The pruned graph that a loop carrying the triangles tri builds at
    rects: of the triangles `carried_delaunay` keeps or flips to, else of
    a fresh Qhull build; with the fresh Qhull build pruned, and what
    became of the carry ("carried", "flipped" or "refused") and of tri."""
    xy = geometry.rect_centers(rects)
    (kept,) = proximity.carried_delaunay([tri], xy, [live])
    fresh = delaunay_graph(rects, live)
    if kept is None:
        graph, outcome = fresh, "refused"
    else:
        graph = ProximityGraph(xy, kept.edges, kept)
        outcome = "carried" if kept is tri else "flipped"
    got = prune_graph(graph, rects, live, t_d)
    return got, prune_graph(fresh, rects, live, t_d), outcome, graph.triangulation


class TestCarriedTriangulation:
    def test_layout_of_the_stored_triangles(self, rng):
        for n in (3, 4, 12, 47):
            xy = np.array([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)])
            g = delaunay_graph(*point_rects(xy))
            tri = g.triangulation
            assert tri.edges is g.edges
            assert set(edge_pairs(g)) == brute_force_delaunay_edges(xy.tolist())
            assert_triangulation_layout(tri, xy, range(n))

    def test_unmoved_and_slightly_moved_sets_are_carried(self, rng):
        for n in (3, 4, 12, 47):
            for _ in range(5):
                xy = np.array([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)])
                for moved in (xy, xy + 1e-9):
                    got, fresh, carried = carried_build(xy, moved)
                    assert carried
                    assert np.array_equal(got.edges, fresh.edges)

    def test_a_flipped_edge_is_refused(self):
        # The diagonal (1, 3) of the quadrilateral is Delaunay until point 2
        # moves inside the circle through 0, 1 and 3.
        xy0 = [(0.0, 0.0), (10.0, -1.0), (14.0, 12.0), (-1.0, 10.0)]
        xy1 = [(0.0, 0.0), (10.0, -1.0), (7.0, 7.0), (-1.0, 10.0)]
        got, fresh, carried = carried_build(xy0, xy1)
        assert not carried
        assert set(edge_pairs(got)) == brute_force_delaunay_edges(xy1) != set(
            edge_pairs(delaunay_graph(*point_rects(xy0)))
        )

    @pytest.mark.parametrize(
        "moved",
        [
            [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],  # cocircular square
            [(0.0, 0.0), (10.0, -1.0), (4.5, 4.5), (-1.0, 10.0)],  # 2 onto the new hull edge 1-3
            [(0.0, 0.0), (10.0, -1.0), (4.0, 4.0), (-1.0, 10.0)],  # 2 inside the new hull
            [(0.0, 0.0), (10.0, -1.0), (0.0, 0.0), (-1.0, 10.0)],  # 2 on top of 0
        ],
    )
    def test_undecided_or_broken_checks_are_refused(self, moved):
        xy0 = [(0.0, 0.0), (10.0, -1.0), (14.0, 12.0), (-1.0, 10.0)]
        got, fresh, carried = carried_build(xy0, moved)
        assert not carried
        assert np.array_equal(got.edges, fresh.edges)
        # Flips neither decide a cocircular test nor mend a broken
        # triangle or hull.
        tri = delaunay_graph(*point_rects(xy0)).triangulation
        assert carried_step(tri, *point_rects(moved), 100.0)[2] == "refused"

    def test_a_refused_in_circle_test_is_flipped_to_qhulls_edges(self):
        # The move of test_a_flipped_edge_is_refused: one flip of the
        # diagonal (1, 3) to (0, 2) gives the Delaunay triangles.
        xy0 = [(0.0, 0.0), (10.0, -1.0), (14.0, 12.0), (-1.0, 10.0)]
        xy1 = [(0.0, 0.0), (10.0, -1.0), (7.0, 7.0), (-1.0, 10.0)]
        tri = delaunay_graph(*point_rects(xy0)).triangulation
        got, want, outcome, flipped = carried_step(tri, *point_rects(xy1), 100.0)
        assert outcome == "flipped"
        assert edge_pairs(got) == edge_pairs(want) == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        assert_triangulation_layout(flipped, xy1, range(4))

    def test_only_sets_qhull_triangulates_whole_are_carried(self):
        assert delaunay_graph(*point_rects([(0, 0), (5, 0), (9, 0)])).triangulation is None
        assert delaunay_graph(*point_rects([(0, 0), (5, 1)])).triangulation is None
        # Qhull leaves out one of two centres 1e-12 apart.
        near = [(0, 0), (100, 0), (50, 80), (50, 30), (50 + 1e-12, 30)]
        g = delaunay_graph(*point_rects(near))
        assert g.triangulation is None and len(g.edges) == 6
        # Nudged apart, equal centres are both vertices; carried to the
        # un-nudged centres, their triangles are refused.
        rects, live = label_layout(point_labels([(1, 1), (1, 1), (4, 5), (7, 2)]))
        g = delaunay_graph(rects, live)
        assert g.triangulation is not None
        xy = geometry.rect_centers(rects)
        assert not proximity._delaunay_tests(g.triangulation, xy, live, None)[0][0]

    def test_pruning_keeps_the_triangulation(self, rng):
        rects, live = label_layout(random_labels(rng, 25))
        g = delaunay_graph(rects, live)
        assert prune_graph(g, rects, live, t_d=1e-3).triangulation is g.triangulation
        assert prune_graph(g, rects, live, t_d=35.0).triangulation is g.triangulation

    @settings(max_examples=400, deadline=None)
    @given(case=moved_point_sets())
    def test_carry_is_refused_or_equals_qhull(self, case):
        # A refused carry returns Qhull's own build, so the edges can only
        # differ when a wrong carry was accepted.
        got, fresh, _ = carried_build(*case)
        assert np.array_equal(got.edges, fresh.edges)
        assert np.array_equal(got.positions, fresh.positions)

    @settings(max_examples=400, deadline=None)
    @given(case=moved_point_sets(), t_d=st.sampled_from([5.0, 40.0, 1e3]))
    def test_flipped_carry_is_refused_or_equals_qhull(self, case, t_d):
        xy0, xy1 = case
        tri = delaunay_graph(*point_rects(xy0)).triangulation
        got, want, outcome, kept = carried_step(tri, *point_rects(xy1), t_d)
        assert np.array_equal(got.edges, want.edges)
        assert got.positions.tobytes() == want.positions.tobytes()
        if outcome == "flipped":
            assert_triangulation_layout(kept, xy1, range(len(xy1)))

    @staticmethod
    def walk(xy, steps, step, seed, t_d=15.0, half=(2.0, 1.0)):
        """Carries the triangles of the centres xy through a random walk of
        the given steps, each centre moving up to step on each axis, as a
        loop carries them; every step's pruned graph must equal a fresh
        Qhull build's. Returns how many steps were carried, flipped and
        refused."""
        rng = np.random.default_rng(seed)
        xy = np.array(xy, dtype=float)
        half = np.array(half)
        live = np.arange(len(xy))
        tri = delaunay_graph(np.column_stack((xy - half, xy + half)), live).triangulation
        seen = collections.Counter()
        for _ in range(steps):
            xy = xy + rng.uniform(-step, step, xy.shape)
            rects = np.column_stack((xy - half, xy + half))
            got, want, outcome, tri = carried_step(tri, rects, live, t_d)
            seen[outcome] += 1
            assert np.array_equal(got.edges, want.edges)
            assert got.positions.tobytes() == want.positions.tobytes()
            if outcome == "flipped":
                assert_triangulation_layout(tri, geometry.rect_centers(rects), live)
            if tri is None:
                break
        return seen

    def test_random_walk_at_200_flips_and_refuses(self):
        # 200 uniform centres on a 250 x 150 mm screen, each moving up to
        # 0.03 mm per axis per step. Uniform centres form thin triangles,
        # which independent moves of a step cap (0.4 mm) invert on most
        # steps; at 0.03 mm steps are carried, flipped and refused.
        rng = np.random.default_rng(7)
        xy = np.column_stack((rng.uniform(4, 246, 200), rng.uniform(4, 128, 200)))
        seen = collections.Counter()
        for seed in range(4):
            seen += self.walk(xy, 30, 0.03, seed)
        assert seen["carried"] > 0 and seen["flipped"] > 0 and seen["refused"] > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_cocircular_grid_walk(self, seed):
        # A 6 x 5 grid: the four corners of every cell are cocircular, so
        # each cell's diagonal is undecided until the walk breaks the tie.
        xy = [(10.0 * i, 8.0 * j) for i in range(6) for j in range(5)]
        seen = self.walk(xy, 12, 0.05, seed)
        assert seen["refused"] > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_centres_walk(self, seed):
        # Pairs of centres that the walk makes, or keeps, equal: a carry
        # across them must be refused, and Qhull's nudged build taken.
        base = [(0, 0), (30, 2), (14, 25), (40, 30), (5, 40), (28, 14)]
        xy = np.array(base + base[:3], dtype=float)
        xy[6:] += 1e-3
        rng = np.random.default_rng(seed)
        half = np.array((1.0, 1.0))
        live = np.arange(len(xy))
        tri = delaunay_graph(np.column_stack((xy - half, xy + half)), live).triangulation
        moved = xy.copy()
        moved[6:] = moved[:3]
        moved += rng.uniform(-1e-6, 1e-6, moved.shape) * (np.arange(len(xy)) < 6)[:, None]
        moved[6:] = moved[:3]
        rects = np.column_stack((moved - half, moved + half))
        got, want, outcome, _ = carried_step(tri, rects, live, 50.0)
        assert outcome == "refused"
        assert np.array_equal(got.edges, want.edges)

    @pytest.mark.parametrize("seed", range(4))
    def test_collinear_rows_walk(self, seed):
        # Three rows of centres: collinear along each row until the walk
        # moves them off it, with hull edges through collinear centres.
        xy = [(12.0 * i, 9.0 * j) for j in range(3) for i in range(7)]
        seen = self.walk(xy, 12, 0.05, seed)
        assert sum(seen.values()) > 0


class TestEdgeOrder:
    """Every builder returns its edges sorted, with i < j and no duplicates.

    The beam assembly sums element blocks in edge order, so placements
    depend on this order, not only on the edge set.
    """

    @staticmethod
    def assert_sorted_unique(g):
        pairs = edge_pairs(g)
        assert all(i < j for i, j in pairs)
        assert pairs == sorted(set(pairs))

    def test_general_delaunay(self, rng):
        for _ in range(5):
            self.assert_sorted_unique(delaunay_graph(*label_layout(random_labels(rng, 25))))

    def test_two_labels(self):
        self.assert_sorted_unique(delaunay_graph(*label_layout(point_labels([(9, 9), (0, 0)]))))

    def test_collinear_fallback(self):
        g = delaunay_graph(*label_layout(point_labels([(9, 0), (4, 0), (0, 0), (2, 0), (7, 0)])))
        assert len(g.edges) == 4
        self.assert_sorted_unique(g)

    def test_duplicate_centers(self):
        g = delaunay_graph(*label_layout(point_labels([(4, 5), (1, 1), (1, 1), (7, 2), (1, 1)])))
        assert len(g.edges)
        self.assert_sorted_unique(g)

    def test_prune(self, rng):
        for _ in range(5):
            labels = random_labels(rng, 25)
            rects, live = label_layout(labels)
            pruned = prune_graph(delaunay_graph(rects, live), rects, live, t_d=35.0)
            self.assert_sorted_unique(pruned)

    @pytest.mark.parametrize("weight", ["rect", "center"])
    def test_mst(self, rng, weight):
        for _ in range(5):
            g = mst_graph(*label_layout(random_labels(rng, 15)), weight=weight)
            assert len(g.edges) == 14
            self.assert_sorted_unique(g)


class TestPrune:
    def test_long_edge_removed(self):
        g = delaunay_graph(*label_layout(point_labels([(0, 0), (30, 0), (15, 1)])))
        pruned = prune_graph(g, *label_layout(point_labels([(0, 0), (30, 0), (15, 1)])), t_d=25.0)
        assert (0, 1) not in set(edge_pairs(pruned))

    def test_blocking_label_removes_edge(self):
        # A, B, C in a row; B's rect blocks the A-C segment.
        rects = [
            Rect(0, 0, 2, 2),
            Rect(9, 0, 13, 2),
            Rect(20, 0, 22, 2),
        ]
        labels = labels_from_rects(rects)
        g = delaunay_graph(*label_layout(labels))
        pruned = prune_graph(g, *label_layout(labels), t_d=100.0)
        assert (0, 2) not in set(edge_pairs(pruned))
        assert (0, 1) in set(edge_pairs(pruned))
        assert (1, 2) in set(edge_pairs(pruned))

    def test_prune_is_subset(self, rng):
        labels = random_labels(rng, 20)
        g = delaunay_graph(*label_layout(labels))
        pruned = prune_graph(g, *label_layout(labels), t_d=40.0)
        assert set(edge_pairs(pruned)) <= set(edge_pairs(g))

    def test_matches_direct_refilter(self, rng):
        for _ in range(5):
            labels = random_labels(rng, 20)
            g = delaunay_graph(*label_layout(labels))
            t_d = 35.0
            pruned = prune_graph(g, *label_layout(labels), t_d)
            expected = set()
            for e in edge_pairs(g):
                if edge_length(g, e) > t_d:
                    continue
                p, q = position(g, e.i), position(g, e.j)
                if any(
                    k not in (e.i, e.j) and segment_crosses_interior(p, q, labels[k].rect)
                    for k in range(len(labels))
                ):
                    continue
                expected.add((e.i, e.j))
            assert set(edge_pairs(pruned)) == expected


class TestMst:
    def test_three_labels_takes_two_short_gaps(self):
        # Pairwise rect gaps: (0,1)=1, (1,2)=2, (0,2)=7.
        rects = [Rect(0, 0, 2, 2), Rect(3, 0, 5, 2), Rect(7, 0, 9, 2)]
        g = mst_graph(*label_layout(labels_from_rects(rects)), weight="rect")
        assert set(edge_pairs(g)) == {(0, 1), (1, 2)}

    def test_single_label(self):
        g = mst_graph(*label_layout(labels_from_rects([Rect(0, 0, 1, 1)])))
        assert edge_pairs(g) == []

    def test_weight_minimal_against_enumeration(self, rng):
        for _ in range(4):
            labels = random_labels(rng, 6)
            total = sum(
                rect_distance(labels[e.i].rect, labels[e.j].rect)
                for e in edge_pairs(mst_graph(*label_layout(labels), weight="rect"))
            )
            oracle = brute_force_mst_weight(
                6, lambda i, j: rect_distance(labels[i].rect, labels[j].rect)
            )
            assert total == pytest.approx(oracle, abs=1e-9)

    def test_center_mst_inside_delaunay(self, rng):
        # Classic inclusion: the center-distance MST is a subset of the
        # Delaunay triangulation over the same centers.
        for _ in range(10):
            labels = random_labels(rng, 15)
            dt_edges = set(edge_pairs(delaunay_graph(*label_layout(labels))))
            mst_edges = set(edge_pairs(mst_graph(*label_layout(labels), weight="center")))
            assert mst_edges <= dt_edges

    def test_spanning(self, rng):
        labels = random_labels(rng, 12)
        g = mst_graph(*label_layout(labels))
        assert len(g.edges) == 11
        root = list(range(12))

        def find(a: int) -> int:
            while root[a] != a:
                a = root[a]
            return a

        for i, j in g.edges:
            root[find(j)] = find(i)
        assert len({find(k) for k in range(12)}) == 1


class TestPartition:
    def test_forced_single_split(self):
        # Chain with one conspicuously long middle gap.
        rects = [
            Rect(0, 0, 1, 1),
            Rect(2, 0, 3, 1),
            Rect(4, 0, 5, 1),
            Rect(40, 0, 41, 1),
            Rect(42, 0, 43, 1),
        ]
        groups = partition_labels(*label_layout(labels_from_rects(rects)), t_num=3)
        assert sorted(map(sorted, groups)) == [[0, 1, 2], [3, 4]]

    def test_t_num_at_least_n_keeps_one_group(self, rng):
        labels = random_labels(rng, 8)
        groups = partition_labels(*label_layout(labels), t_num=8)
        assert len(groups) == 1
        assert sorted(groups[0]) == list(range(8))

    def test_partition_properties(self, rng):
        labels = random_labels(rng, 40, span=300.0)
        groups = partition_labels(*label_layout(labels), t_num=10)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(40))
        assert all(len(g) <= 10 for g in groups)

    def test_invalid_t_num(self):
        with pytest.raises(ValueError):
            partition_labels(*label_layout(labels_from_rects([Rect(0, 0, 1, 1)])), t_num=0)

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 3), st.booleans()),
            min_size=1,
            max_size=24,
        ),
        t_num=st.integers(1, 25),
    )
    def test_one_pass_equals_the_rebuilding_reference(self, cells, t_num):
        # Unit-spaced cells and whole-number sides: most rect distances tie.
        rects = [Rect(2 * x, 2 * y, 2 * x + w, 2 * y + 1) for x, y, w, _ in cells]
        labels = labels_from_rects(rects)
        labels = [dataclasses.replace(l, deleted=gone) for l, (*_, gone) in zip(labels, cells)]
        rects, live = label_layout(labels)
        assert partition_labels(rects, live, t_num) == reference_partition_labels(
            rects, live, t_num
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 240), t_num=st.integers(1, 25))
    def test_large_scenes_equal_the_rebuilding_reference(self, seed, n, t_num):
        # The same tied unit grid, 21 x 21 cells, at n >= 200.
        rng = random.Random(seed)
        labels = labels_from_rects([
            Rect(2 * x, 2 * y, 2 * x + rng.randint(1, 3), 2 * y + 1)
            for x, y in ((rng.randint(0, 20), rng.randint(0, 20)) for _ in range(n))
        ])
        labels = [dataclasses.replace(l, deleted=rng.random() < 0.1) for l in labels]
        rects, live = label_layout(labels)
        assert partition_labels(rects, live, t_num) == reference_partition_labels(
            rects, live, t_num
        )


class TestHelpers:
    def test_mean_nn_distance(self):
        pts = points_array([Vec2(0, 0), Vec2(3, 0), Vec2(10, 0)])
        # Nearest neighbors: 3, 3, 7.
        assert mean_nn_distance(pts) == pytest.approx((3 + 3 + 7) / 3)

    def test_mean_nn_degenerate(self):
        assert mean_nn_distance(np.empty((0, 2))) == 0.0
        assert mean_nn_distance(np.array([[1.0, 1.0]])) == 0.0

    def test_effective_centers_jitter_duplicates(self):
        labels = point_labels([(5, 5), (5, 5), (5, 5)])
        centers = [Vec2(x, y) for x, y in delaunay_graph(*label_layout(labels)).positions.tolist()]
        assert len({(c.x, c.y) for c in centers}) == 3


# --- array paths against their scalar definitions ----------------------------

def scalar_prune(graph, labels, t_d):
    """Per-edge definition: length by `Vec2.norm`, then every third live
    label tested with `segment_crosses_interior`."""
    kept = []
    for e in edge_pairs(graph):
        p, q = position(graph, e.i), position(graph, e.j)
        if (q - p).norm() > t_d:
            continue
        if any(
            segment_crosses_interior(p, q, l.rect)
            for k, l in enumerate(labels)
            if k not in (e.i, e.j) and not l.deleted
        ):
            continue
        kept.append(e)
    return kept


@st.composite
def grid_labels(draw):
    """Rects on a small integer grid, so that center-to-center segments
    often graze a third rect's corner or run along its edge; some zero-size
    and some deleted."""
    n = draw(st.integers(2, 10))
    rects = []
    for _ in range(n):
        x, y = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        rects.append(Rect(x, y, x + draw(st.integers(0, 3)), y + draw(st.integers(0, 3))))
    return [
        dataclasses.replace(l, deleted=draw(st.booleans()) and draw(st.booleans()))
        for l in labels_from_rects(rects)
    ]


class TestPruneArray:
    @settings(max_examples=300, deadline=None)
    @given(labels=grid_labels(), data=st.data())
    def test_equals_per_edge_definition(self, labels, data):
        graph = delaunay_graph(*label_layout(labels))
        lengths = [edge_length(graph, e) for e in edge_pairs(graph)]
        # Often exactly one of the edge lengths, so that some edge is at t_d.
        t_d = data.draw(st.sampled_from(lengths) | st.floats(0.0, 15.0) if lengths
                        else st.floats(0.0, 15.0))
        pruned = prune_graph(graph, *label_layout(labels), t_d)
        assert edge_pairs(pruned) == scalar_prune(graph, labels, t_d)

    def test_length_at_t_d_decided_by_norm(self):
        # np.hypot of this edge is one ulp below its `Vec2.norm`. At t_d
        # equal to the np.hypot value the edge is longer than t_d.
        x, y = 0.03546964032188504, 0.060851756668864554
        labels = labels_from_rects([Rect(0.0, 0.0, 0.0, 0.0), Rect(x, y, x, y)])
        graph = delaunay_graph(*label_layout(labels))
        short = float(np.hypot(x, y))
        (edge,) = edge_pairs(graph)
        assert short < edge_length(graph, edge)
        assert edge_pairs(prune_graph(graph, *label_layout(labels), short)) == []
        pruned = prune_graph(graph, *label_layout(labels), edge_length(graph, edge))
        assert edge_pairs(pruned) == [edge]

    def test_grazing_and_along_edges_keep_the_edge(self):
        # (0,0)-(4,4) grazes the corner (2,2) of label 2 and (10,0)-(16,0)
        # runs along the bottom edge of label 4: neither crosses an
        # interior. (20,0)-(26,0) runs through label 7.
        labels = labels_from_rects([
            Rect(0, 0, 0, 0), Rect(4, 4, 4, 4), Rect(0, 2, 2, 6),
            Rect(10, 0, 10, 0), Rect(12, 0, 14, 1), Rect(16, 0, 16, 0),
            Rect(20, 0, 20, 0), Rect(22, -1, 24, 1), Rect(26, 0, 26, 0),
        ])
        graph = ProximityGraph(
            positions=delaunay_graph(*label_layout(labels)).positions,
            edges=np.array([(0, 1), (3, 5), (6, 8)]),
        )
        pruned = prune_graph(graph, *label_layout(labels), 100.0)
        assert edge_pairs(pruned) == [(0, 1), (3, 5)]
        assert edge_pairs(pruned) == scalar_prune(graph, labels, 100.0)

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_row_blocks_change_nothing(self, rng, block):
        labels = random_labels(rng, 40, span=90.0)
        graph = delaunay_graph(*label_layout(labels))
        want = edge_pairs(prune_graph(graph, *label_layout(labels), 30.0))
        with mock.patch.object(geometry, "BLOCK_ELEMENTS", block):
            assert edge_pairs(prune_graph(graph, *label_layout(labels), 30.0)) == want
        assert want == scalar_prune(graph, labels, 30.0)


def brute_force_mean_nn(points):
    n = len(points)
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(n):
        total += min((points[i] - points[j]).norm() for j in range(n) if j != i)
    return total / n


_lattice = st.integers(-3, 3).map(float)
_free = st.floats(-100.0, 100.0)


class TestMeanNnDistance:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        # Free points, with some repeated exactly.
        st.lists(st.tuples(_free, _free), max_size=30).flatmap(
            lambda pts: st.lists(st.sampled_from(pts), max_size=10).map(lambda d: pts + d)
            if pts else st.just(pts)
        ),
        # Lattice points: many exact ties and duplicates.
        st.lists(st.tuples(_lattice, _lattice), max_size=30),
        # Collinear points on a line through the origin.
        st.tuples(_free, _free, st.lists(st.floats(-5.0, 5.0), max_size=30)).map(
            lambda t: [(t[0] * s, t[1] * s) for s in t[2]]
        ),
    ))
    def test_equals_all_pairs_definition(self, coords):
        points = [Vec2(x, y) for x, y in coords]
        assert mean_nn_distance(points_array(points)) == brute_force_mean_nn(points)


@st.composite
def grouped_point_sets(draw):
    """Two to four disjoint groups of random centres, their slots
    interleaved in one array with some slots in no group, the centres
    moved a little or much, and each centre given a rect around it."""
    sizes = draw(st.lists(st.integers(3, 12), min_size=2, max_size=4))
    n = sum(sizes) + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)
    groups = [np.sort(perm[a - s:a]) for a, s in zip(np.cumsum(sizes), sizes)]
    xy0 = rng.uniform(0.0, 100.0, (n, 2))
    xy1 = xy0 + draw(st.sampled_from([0.0, 1e-6, 0.5, 5.0])) * rng.standard_normal((n, 2))
    half = rng.uniform(0.5, 8.0, (n, 2))
    return groups, xy0, xy1, np.column_stack((xy0 - half, xy0 + half))


def _starts(parts):
    """Where each of the parts begins, listed one after another."""
    return np.cumsum([0] + [len(p) for p in parts[:-1]])


class TestGroupedBuilds:
    """One carried-triangle check or one prune over several groups gives
    each group what its own call gives."""

    @settings(max_examples=200, deadline=None)
    @given(grouped_point_sets(), st.sampled_from([1, 64, 1 << 14]))
    def test_one_check_equals_each_groups_own(self, case, block):
        groups, xy0, xy1, _ = case
        tris = [delaunay_graph(np.column_stack((xy0, xy0)), g).triangulation for g in groups]
        assume(all(t is not None for t in tris))
        want = [proximity._delaunay_tests(t, xy1, g, None)[0][0] for t, g in zip(tris, groups)]
        order = np.concatenate(groups)
        with mock.patch.object(geometry, "GROUP_BLOCK_ELEMENTS", block):
            got = proximity._delaunay_tests(proximity.joined(tris), xy1, order, _starts(groups))[0]
        assert got.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(
        grouped_point_sets(),
        st.lists(st.floats(5.0, 60.0), min_size=4, max_size=4),
        st.sampled_from([1, 64, 1 << 14]),
    )
    def test_one_prune_equals_each_groups_own(self, case, t_ds, block):
        groups, _, _, rects = case
        graphs = [delaunay_graph(rects, g) for g in groups]
        want = np.concatenate(
            [prune_graph(gr, rects, g, t).edges for gr, g, t in zip(graphs, groups, t_ds)]
        )
        edges = [gr.edges for gr in graphs]
        t_d = np.repeat(t_ds[: len(groups)], [len(e) for e in edges])
        graph = ProximityGraph(graphs[0].positions, np.concatenate(edges))
        with mock.patch.object(geometry, "GROUP_BLOCK_ELEMENTS", block):
            got = prune_graph(
                graph, rects, np.concatenate(groups), t_d, _starts(groups), _starts(edges)
            )
        assert np.array_equal(got.edges, want)

    @settings(max_examples=200, deadline=None)
    @given(grouped_point_sets(), st.sampled_from([1, 64, 1 << 14]))
    def test_one_carry_equals_each_groups_own(self, case, block):
        # Flips included: each group is kept, flipped or refused as alone.
        groups, xy0, xy1, _ = case
        tris = [delaunay_graph(np.column_stack((xy0, xy0)), g).triangulation for g in groups]
        assume(all(t is not None for t in tris))
        want = [proximity.carried_delaunay([t], xy1, [g])[0] for t, g in zip(tris, groups)]
        with mock.patch.object(geometry, "GROUP_BLOCK_ELEMENTS", block):
            got = proximity.carried_delaunay(tris, xy1, groups)
        for g, w, t in zip(got, want, tris):
            assert (g is None) == (w is None)
            assert (g is t) == (w is t)
            if g is not None:
                assert np.array_equal(g.edges, w.edges)

    @pytest.mark.parametrize("block", [1, 64, 1 << 14])
    def test_rects_of_other_groups_do_not_block(self, block):
        # Two groups over the same ground: a row of three labels each,
        # the other group's middle label lying across each group's edges.
        # Only a group's own rects prune its edges.
        rects = np.array([
            (0, 0, 2, 2), (20, 0, 22, 2), (40, 0, 42, 2),
            (0, 10, 2, 12), (20, 10, 22, 12), (40, 10, 42, 12),
            (9, -1, 11, 11), (29, -1, 31, 11), (8, 20, 12, 22),
        ], dtype=float)
        groups = [np.array([0, 1, 2, 6]), np.array([3, 4, 5, 7, 8])]
        graphs = [delaunay_graph(rects, g) for g in groups]
        want = np.concatenate(
            [prune_graph(gr, rects, g, 100.0).edges for gr, g in zip(graphs, groups)]
        )
        edges = [gr.edges for gr in graphs]
        graph = ProximityGraph(graphs[0].positions, np.concatenate(edges))
        with mock.patch.object(geometry, "GROUP_BLOCK_ELEMENTS", block):
            got = prune_graph(
                graph, rects, np.concatenate(groups), 100.0, _starts(groups), _starts(edges)
            )
        assert np.array_equal(got.edges, want)
        # One group over every label would lose edges to the other's rects.
        alone = prune_graph(graph, rects, np.arange(len(rects)), 100.0)
        assert len(alone.edges) < len(want)

    def test_each_group_is_checked_against_its_own_scale(self):
        # A square with one corner 1e-3 off its circle passes the in-circle
        # margin at its own scale, S = 11, but not at the S of a group 1e5
        # mm away: the joined check keeps the bound of each.
        small = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.001)]
        large = [(1e5, 1e5), (1e5 + 40.0, 1e5), (1e5, 1e5 + 30.0)]
        xy = np.array(small + large)
        groups = [np.arange(4), np.arange(4, 7)]
        tris = [delaunay_graph(np.column_stack((xy, xy)), g).triangulation for g in groups]
        want = [proximity._delaunay_tests(t, xy, g, None)[0][0] for t, g in zip(tris, groups)]
        assert want == [True, True]
        assert not proximity._delaunay_tests(proximity.joined(tris), xy, np.arange(7), None)[0][0]
        got = proximity._delaunay_tests(
            proximity.joined(tris), xy, np.concatenate(groups), _starts(groups)
        )[0]
        assert got.tolist() == want

