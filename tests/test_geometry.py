import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leaderlabels import geometry
from leaderlabels.forces import SceneArrays, conflict_pairs
from leaderlabels.geometry import (
    NearList,
    Rect,
    Vec2,
    group_blocks,
    same_group,
    segments_cross_interiors,
    unit_from_degrees,
)

from conftest import (
    AxisGaps,
    OverlapError,
    disjoint_rect_pair,
    interiors_overlap,
    point_axis_gaps,
    point_rect_distance,
    point_rect_signed_clearance,
    random_rect,
    rect_distance,
    rect_nearest_points,
    segment_crosses_interior,
)


coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def rect_strategy():
    return st.tuples(coords, coords, st.floats(0.0, 30.0), st.floats(0.0, 30.0)).map(
        lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3])
    )


class TestVec2:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Vec2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, float("inf"))

    def test_arithmetic(self):
        v = Vec2(3.0, 4.0)
        assert v.norm() == 5.0
        assert (v + Vec2(1, 1)) == Vec2(4.0, 5.0)
        assert (v - Vec2(1, 1)) == Vec2(2.0, 3.0)
        assert v * 2 == Vec2(6.0, 8.0)
        assert (-v) == Vec2(-3.0, -4.0)
        assert v.dot(Vec2(1, 0)) == 3.0
        assert v.perp() == Vec2(-4.0, 3.0)

    def test_unit_from_degrees_cardinals_exact(self):
        assert unit_from_degrees(90.0) == Vec2(0.0, 1.0)
        assert unit_from_degrees(0.0) == Vec2(1.0, 0.0)
        assert unit_from_degrees(180.0) == Vec2(-1.0, 0.0)
        assert unit_from_degrees(270.0) == Vec2(0.0, -1.0)
        assert unit_from_degrees(450.0) == Vec2(0.0, 1.0)


class TestRect:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)

    def test_degenerate_allowed(self):
        r = Rect(1.0, 2.0, 1.0, 5.0)
        assert r.width == 0.0
        assert r.center() == Vec2(1.0, 3.5)


class TestRectNearestPoints:
    def test_facing_parallel_edges(self):
        p, q = rect_nearest_points(Rect(0, 0, 4, 2), Rect(6, 0, 10, 2))
        assert p.x == 4.0 and q.x == 6.0
        assert 0.0 <= p.y <= 2.0 and p.y == q.y
        assert (p - q).norm() == 2.0

    def test_corner_to_corner(self):
        p, q = rect_nearest_points(Rect(0, 0, 2, 2), Rect(4, 4, 6, 6))
        assert p == Vec2(2.0, 2.0)
        assert q == Vec2(4.0, 4.0)
        assert (p - q).norm() == pytest.approx(2.0 * math.sqrt(2.0))

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            rect_nearest_points(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3))

    def test_points_on_boundary_and_distance_consistent(self, rng):
        for _ in range(300):
            a, b = disjoint_rect_pair(rng)
            p, q = rect_nearest_points(a, b)
            assert (p - q).norm() == pytest.approx(rect_distance(a, b), abs=1e-12)
            assert p.x in (a.x_min, a.x_max) or p.y in (a.y_min, a.y_max)
            assert q.x in (b.x_min, b.x_max) or q.y in (b.y_min, b.y_max)


class TestRectDistance:
    def test_examples(self):
        assert rect_distance(Rect(0, 0, 4, 2), Rect(6, 0, 10, 2)) == 2.0
        assert rect_distance(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)) == 0.0
        assert rect_distance(Rect(0, 0, 2, 2), Rect(4, 4, 6, 6)) == pytest.approx(2 * math.sqrt(2))

    @given(rect_strategy(), rect_strategy())
    def test_symmetry(self, a, b):
        assert rect_distance(a, b) == rect_distance(b, a)


class TestPointAxisGaps:
    def test_example_outside(self):
        g = point_axis_gaps(Rect(7, 2, 15, 6), Vec2(5, 5))
        assert g == AxisGaps(x_neg=10.0, x_pos=-2.0, y_neg=1.0, y_pos=3.0)

    def test_symmetric_center(self):
        g = point_axis_gaps(Rect(0, 0, 1, 1), Vec2(0.5, 0.5))
        assert g == AxisGaps(0.5, 0.5, 0.5, 0.5)

    def test_already_clear(self):
        g = point_axis_gaps(Rect(0, 0, 1, 1), Vec2(3, 0.5))
        assert g.x_neg == -2.0

    def test_moving_by_gap_puts_point_on_face(self, rng):
        # Moving the rect by -gap along each axis direction lands the point
        # exactly on the corresponding face.
        for _ in range(200):
            r = random_rect(rng)
            p = Vec2(rng.uniform(-20, 120), rng.uniform(-20, 120))
            g = point_axis_gaps(r, p)
            assert r.translated(Vec2(-g.x_neg, 0.0)).x_max == pytest.approx(p.x, abs=1e-9)
            assert r.translated(Vec2(g.x_pos, 0.0)).x_min == pytest.approx(p.x, abs=1e-9)
            assert r.translated(Vec2(0.0, -g.y_neg)).y_max == pytest.approx(p.y, abs=1e-9)
            assert r.translated(Vec2(0.0, g.y_pos)).y_min == pytest.approx(p.y, abs=1e-9)


class TestSignedClearance:
    def test_outside_matches_distance(self, rng):
        for _ in range(200):
            r = random_rect(rng)
            p = Vec2(rng.uniform(-30, 130), rng.uniform(-30, 130))
            d = point_rect_distance(p, r)
            if d > 0:
                assert point_rect_signed_clearance(p, r) == pytest.approx(d)

    def test_inside_is_negative_penetration(self):
        r = Rect(0, 0, 10, 4)
        assert point_rect_signed_clearance(Vec2(5, 2), r) == -2.0
        assert point_rect_signed_clearance(Vec2(1, 2), r) == -1.0
        assert point_rect_signed_clearance(Vec2(0, 2), r) == 0.0


def crosses(p: Vec2, q: Vec2, r: Rect) -> bool:
    """`segments_cross_interiors` on one segment."""
    box = np.array([(r.x_min, r.y_min, r.x_max, r.y_max)])
    return bool(segments_cross_interiors(np.array([(p.x, p.y)]), np.array([(q.x, q.y)]), box)[0])


class TestSegmentCrossesInterior:
    def test_through_middle(self):
        assert crosses(Vec2(-1, 1), Vec2(3, 1), Rect(0, 0, 2, 2))

    def test_touching_edge_does_not_count(self):
        # Runs exactly along the boundary.
        assert not crosses(Vec2(-1, 0), Vec2(3, 0), Rect(0, 0, 2, 2))

    def test_corner_graze_does_not_count(self):
        assert not crosses(Vec2(-1, 1), Vec2(1, -1), Rect(0, 0, 2, 2))

    def test_miss(self):
        assert not crosses(Vec2(-1, 5), Vec2(3, 5), Rect(0, 0, 2, 2))

    def test_fully_inside(self):
        assert crosses(Vec2(0.5, 0.5), Vec2(1.5, 1.5), Rect(0, 0, 2, 2))

    def test_endpoint_inside(self):
        assert crosses(Vec2(1, 1), Vec2(5, 5), Rect(0, 0, 2, 2))


_grid = st.integers(-4, 4).map(float)
_coord = st.one_of(_grid, st.floats(-4.0, 4.0))
_side = st.integers(0, 3)


class TestSegmentsCrossInteriors:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(
        st.tuples(_coord, _coord, _coord, _coord, _grid, _grid, _side, _side),
        min_size=1, max_size=20,
    ))
    def test_rows_equal_scalar_test(self, rows):
        # Small grids make grazed corners, segments along edges, points,
        # axis-parallel segments and zero-size rects common.
        p = np.array([(r[0], r[1]) for r in rows])
        q = np.array([(r[2], r[3]) for r in rows])
        boxes = np.array([(r[4], r[5], r[4] + r[6], r[5] + r[7]) for r in rows])
        want = [
            segment_crosses_interior(Vec2(*a), Vec2(*b), Rect(*c))
            for a, b, c in zip(p.tolist(), q.tolist(), boxes.tolist())
        ]
        assert segments_cross_interiors(p, q, boxes).tolist() == want


class TestInteriorsOverlap:
    @given(rect_strategy(), rect_strategy())
    def test_overlap_implies_zero_distance(self, a, b):
        if interiors_overlap(a, b):
            assert rect_distance(a, b) == 0.0


class TestGroupBlocks:
    """`group_blocks` covers every row and column pair of one group once,
    in blocks of whole groups no larger than its bounds allow, and
    `same_group` tells a block's pairs of one group from the others."""

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=8),
        group_elements=st.sampled_from([1, 20, 100, 1 << 14]),
        block_elements=st.sampled_from([1, 7, 1 << 18]),
    )
    def test_each_pair_of_a_group_once(self, sizes, group_elements, block_elements):
        row_sizes, col_sizes = zip(*sizes)
        row_starts = np.cumsum((0,) + row_sizes[:-1])
        col_starts = np.cumsum((0,) + col_sizes[:-1])
        row_group = np.repeat(np.arange(len(sizes)), row_sizes)
        col_group = np.repeat(np.arange(len(sizes)), col_sizes)
        n_rows, n_cols = len(row_group), len(col_group)
        with mock.patch.multiple(
            geometry, GROUP_BLOCK_ELEMENTS=group_elements, BLOCK_ELEMENTS=block_elements
        ):
            blocks = list(group_blocks(row_starts, n_rows, col_starts, n_cols))
        seen = np.zeros((n_rows, n_cols), dtype=int)
        for rows, cols, mixed in blocks:
            i, j = np.meshgrid(np.arange(rows.start, rows.stop), np.arange(cols.start, cols.stop))
            same = row_group[i] == col_group[j]
            assert np.array_equal(same_group(row_starts, i, col_starts, j), same)
            # Unmixed blocks hold one group, whose pairs need no check.
            assert mixed or same.all()
            seen[i[same], j[same]] += 1
            # A block spans whole groups, and more than one only while it
            # stays within its bound.
            groups = set(col_group[cols].tolist()) | set(row_group[rows].tolist())
            first, last = min(groups), max(groups)
            span = (row_starts[last] + row_sizes[last] - row_starts[first]) * (
                col_starts[last] + col_sizes[last] - col_starts[first]
            )
            assert first == last or span <= group_elements
        assert np.array_equal(seen, row_group[:, None] == col_group[None, :])

    @pytest.mark.parametrize("n_rows, n_cols", [(0, 5), (5, 0), (7, 9), (600, 700)])
    def test_one_group_is_row_blocks_over_all_columns(self, n_rows, n_cols):
        want = [(rows, slice(0, n_cols), False) for rows in geometry.row_blocks(n_rows, n_cols)]
        got = list(group_blocks(None, n_rows, None, n_cols))
        assert got == (want if n_cols else [])


def _ulps(x: float, k: int) -> float:
    """x moved by k floats, up for k > 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def carried_layouts(draw):
    """d_min, a skin, (n, 4) rects, (m, 3) symbols and (n, 4) per-coordinate
    moves. Each rect after the first, and each symbol, lies off a side of an earlier rect at a gap on
    or a few floats off the exact limit d_min or one of its widened limits
    (d_min plus one or two skins); each move is up to a skin, often on or a
    few floats off skin - _BROAD_PHASE_SLACK or skin itself."""
    d_min, skin = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 3.0))
    limits = [0.0, d_min, d_min + skin, d_min + 2.0 * skin]
    gaps = st.sampled_from(limits) | st.floats(0.0, d_min + 3.0 * skin)

    def off_side(r) -> tuple[int, int, float]:
        # An axis, a side of rect r on it (1 past its high side, -1 before
        # its low one) and a distance from that side.
        axis, side = draw(st.integers(0, 1)), draw(st.sampled_from([1, -1]))
        return axis, side, _ulps(draw(gaps), draw(st.integers(-4, 4)))

    x, y = draw(st.floats(-200.0, 200.0)), draw(st.floats(-200.0, 200.0))
    rects = [(x, y, x + draw(st.floats(0.5, 20.0)), y + draw(st.floats(0.5, 20.0)))]
    for k in range(1, draw(st.integers(2, 7))):
        r = rects[draw(st.integers(0, k - 1))]
        size = (draw(st.floats(0.5, 20.0)), draw(st.floats(0.5, 20.0)))
        axis, side, dist = off_side(r)
        low = [0.0, 0.0]
        low[axis] = r[axis + 2] + dist if side > 0 else r[axis] - dist - size[axis]
        low[1 - axis] = r[1 - axis] + draw(st.floats(-20.0, 20.0))
        rects.append((low[0], low[1], low[0] + size[0], low[1] + size[1]))
    symbols = []
    for _ in range(draw(st.integers(1, 4))):
        r = rects[draw(st.integers(0, len(rects) - 1))]
        radius = draw(st.floats(0.0, 3.0))
        axis, side, dist = off_side(r)
        centre = [0.0, 0.0]
        centre[axis] = r[axis + 2] + dist + radius if side > 0 else r[axis] - dist - radius
        centre[1 - axis] = draw(st.floats(r[1 - axis] - 5.0, r[3 - axis] + 5.0))
        symbols.append((centre[0], centre[1], radius))
    n = len(rects)
    reach = draw(st.sampled_from([skin - geometry._BROAD_PHASE_SLACK, skin]))
    edge_moves = st.sampled_from([reach, -reach]).flatmap(
        lambda v: st.integers(-4, 4).map(lambda k: _ulps(v, k))
    )
    moves = [draw(edge_moves | st.floats(-reach, reach)) for _ in range(4 * n)]
    return (
        d_min,
        skin,
        np.array(rects),
        np.array(symbols).reshape(-1, 3),
        np.array(moves).reshape(n, 4),
    )


class TestNearList:
    """The candidates a `NearList` keeps from the two scans' box tests,
    widened by the moves it allows, hold every pair the exact tests pass
    after those moves: the label pairs (widened by 2·skin) and the symbol
    hits (skin). One `holds` decides for both scans, so a rescan on the
    carried candidates returns what a fresh one returns."""

    @staticmethod
    def candidates(found) -> set:
        return set(zip(*(part.tolist() for part in found)))

    @settings(max_examples=300, deadline=None)
    @given(carried_layouts())
    def test_candidates_hold_every_pair_after_moves_within_the_skin(self, layout):
        d_min, skin, rects, symbols, moves = layout
        n, m = len(rects), len(symbols)
        arrays = SceneArrays(
            np.arange(n), np.full((n, 2), math.nan), np.full(n, -1), np.arange(m), np.arange(m),
            symbols,
        )
        near = NearList(skin)
        conflict_pairs(rects, arrays, d_min, near=near)
        base = near.base
        moved = rects + moves

        if near.holds(moved):
            want = conflict_pairs(moved, arrays, d_min)
            assert set(want.labels) <= self.candidates(near.labels)
            assert set(want.features) <= self.candidates(near.symbols)
            assert conflict_pairs(moved, arrays, d_min, near=near) == want
            assert near.base is base

    @settings(max_examples=400, deadline=None)
    @given(
        d_min=st.floats(0.05, 2.0),
        skin=st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]) | st.floats(0.05, 3.0),
        low=st.floats(-2.0, 2.0),
        off=st.integers(-2, 2),
        pushes=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        full=st.booleans(),
        share=st.sampled_from([1.0, 0.75]),
    )
    # The float sum 0.05 + 2.0 lies 1.8e-16 below the real one: a pair at
    # that widened limit, moved towards each other by a whole skin each,
    # ends 1.8e-16 inside d_min. Only the slack makes the list refuse
    # those moves.
    @example(d_min=0.05, skin=1.0, low=0.0, off=0, pushes=(0, 0), full=True, share=1.0)
    def test_pairs_just_past_the_widened_limits_moved_by_the_skin(
        self, d_min, skin, low, off, pushes, full, share
    ):
        # Near the origin, where the floats are finest: a label pair and a
        # label and a symbol, each the fewest floats (off) past where its
        # widened box test passes, or past where it would pass widened by a
        # share of 0.75 as much; then moved towards each other by the skin,
        # or by skin minus _BROAD_PHASE_SLACK, and a few floats (pushes).
        slack = geometry._BROAD_PHASE_SLACK
        reach = skin if full else skin - slack
        toward, back = (_ulps(reach, k) for k in pushes)

        def least_past(side: float, limit: float) -> float:
            # The least float b with b - side >= limit, moved by off.
            b = side + limit
            while b - side < limit:
                b = math.nextafter(b, math.inf)
            while math.nextafter(b, -math.inf) - side >= limit:
                b = math.nextafter(b, -math.inf)
            return _ulps(b, off)

        x = least_past(low + 1.0, d_min + 2.0 * skin * share)
        rects = np.array([(low, 0.0, low + 1.0, 1.0), (x, 0.0, x + 1.0, 1.0)])
        radius = 0.5
        px = least_past(low + 1.0, radius + ((d_min + skin * share) + slack))
        arrays = SceneArrays(
            np.arange(2), np.full((2, 2), math.nan), np.full(2, -1), np.arange(1), np.arange(1),
            np.array([(px, 0.5, radius)]),
        )
        near = NearList(skin)
        conflict_pairs(rects, arrays, d_min, near=near)
        moved = rects + [(toward, 0.0, toward, 0.0), (-back, 0.0, -back, 0.0)]
        if near.holds(moved):
            want = conflict_pairs(moved, arrays, d_min)
            assert set(want.labels) <= self.candidates(near.labels)
            assert set(want.features) <= self.candidates(near.symbols)

    def test_nothing_holds_before_the_first_build(self):
        near = NearList(1.0)
        assert not near.holds(np.zeros((2, 4)))
        near.labels = near.symbols = (np.array([0]), np.array([1]))
        near.rebase(np.zeros((2, 4)))
        assert near.labels is None and near.symbols is None
        slack = geometry._BROAD_PHASE_SLACK
        assert near.holds(np.full((2, 4), 1.0 - slack))
        assert not near.holds(np.full((2, 4), 1.0 - slack / 2))
        assert not near.holds(np.full((2, 4), -1.0))
