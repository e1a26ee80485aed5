import dataclasses
import itertools
import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leaderlabels import geometry
from leaderlabels.geometry import Rect, Vec2, rect_distance
from leaderlabels.proximity import (
    ProximityGraph,
    delaunay_graph,
    mean_nn_distance,
    mst_graph,
    partition_labels,
    prune_graph,
)
from leaderlabels.scene import Label

from conftest import label_layout, labels_from_rects, random_labels, segment_crosses_interior


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


class TestHelpers:
    def test_mean_nn_distance(self):
        pts = [Vec2(0, 0), Vec2(3, 0), Vec2(10, 0)]
        # Nearest neighbors: 3, 3, 7.
        assert mean_nn_distance(pts) == pytest.approx((3 + 3 + 7) / 3)

    def test_mean_nn_degenerate(self):
        assert mean_nn_distance([]) == 0.0
        assert mean_nn_distance([Vec2(1, 1)]) == 0.0

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
        assert mean_nn_distance(points) == brute_force_mean_nn(points)
