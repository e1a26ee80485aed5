import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leaderlabels import optimizer, repair
from leaderlabels.forces import scene_arrays
from leaderlabels.geometry import Rect, Vec2
from leaderlabels.metrics import count_conflicts
from leaderlabels.repair import _candidates_ok, admissible_directions
from leaderlabels.scene import (
    Label,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    initial_layout,
    label_rects,
)
from leaderlabels.scenefile import synthetic_scene

from conftest import (
    candidate_ok,
    reference_block_search,
    reference_repair,
    reference_search,
    repair_labels,
    ring_border_cells,
    scene_layout,
)


def ring_border_reference(r: int) -> list[tuple[int, int]]:
    """The whole (2r+1)^2 square, filtered to its off-axis border and sorted."""
    return [
        (ix, iy)
        for _, ix, iy in sorted(
            (ix * ix + iy * iy, ix, iy)
            for ix in range(-r, r + 1)
            for iy in range(-r, r + 1)
            if max(abs(ix), abs(iy)) == r and ix != 0 and iy != 0
        )
    ]


def test_ring_border_matches_square_filter():
    # The ring search numbers ring r's border cells 4 (r - 1)^2 .. 4 r^2 - 1.
    for r in range(1, 201):
        border = repair._ring_lattice(200)[4 * (r - 1) * (r - 1) : 4 * r * r]
        assert [tuple(c) for c in border.tolist()] == ring_border_reference(r), r


def wedged_scene() -> tuple[list[Label], list[PointFeature], LayoutConfig]:
    """A 4 x 2 mm label sitting on a foreign symbol, whose own label sits
    apart, boxed in from above and below by two wide labels 0.5 mm away.

    Clearing the symbol takes 2.65 mm to the left or 2.75 mm to the right,
    beyond a 2 mm axis search, and any vertical step over 0.3 mm runs into a
    neighbour. The nearest clearing grid offset is (-27, -1) steps of 0.1 mm:
    the first off-axis cell of ring 27.
    """
    cfg = LayoutConfig(
        screen=Rect(0.0, 0.0, 100.0, 100.0),
        leader=LeaderSpec(kind=LeaderType.FREE_DIR_FIXED_CONN),
    )
    features = [
        PointFeature(id="wedged", anchor=Vec2(20.0, 51.0), depth=100.0, text="W"),
        PointFeature(id="above", anchor=Vec2(10.0, 90.0), depth=100.0, text="A"),
        PointFeature(id="below", anchor=Vec2(90.0, 10.0), depth=100.0, text="B"),
        PointFeature(id="symbol", anchor=Vec2(52.05, 51.0), depth=100.0, text="S"),
    ]
    rects = [
        Rect(50.0, 50.0, 54.0, 52.0),
        Rect(48.0, 52.5, 56.0, 70.0),
        Rect(48.0, 30.0, 56.0, 49.5),
        Rect(80.0, 80.0, 84.0, 82.0),
    ]
    labels = [
        Label(feature_id=f.id, rect=r, conn=Vec2(r.center().x, r.y_min), font_size=10.0)
        for f, r in zip(features, rects)
    ]
    return labels, features, cfg


def test_wedged_label_takes_nearest_diagonal_offset():
    labels, features, cfg = wedged_scene()
    assert count_conflicts(*scene_layout(labels, features), cfg.d_min) == (0, 1)

    _, axis_moves = repair_labels(labels, features, cfg, max_axis_retries=0)
    assert axis_moves == 0

    repaired, moves = repair_labels(labels, features, cfg, diagonal=True, max_axis_retries=0)
    grid = cfg.d_min / 2.0
    d = Vec2(-27 * grid, -1 * grid)
    assert moves == 1
    assert repaired[0].rect == labels[0].rect.translated(d)
    assert repaired[0].conn == labels[0].conn + d
    assert repaired[1:] == labels[1:]
    assert count_conflicts(*scene_layout(repaired, features), cfg.d_min) == (0, 0)


def test_small_budget_leaves_conflicts_and_terminates(monkeypatch):
    budgets = []

    class RecordedBudget(repair._Budget):
        def __init__(self, amount: int) -> None:
            super().__init__(amount)
            budgets.append(self)

    monkeypatch.setattr(repair, "_Budget", RecordedBudget)
    monkeypatch.setattr(repair, "CANDIDATE_BUDGET", 200)
    # 60 labels on a 60 x 40 mm screen: far more label area than room.
    features, cfg = synthetic_scene(60, 0, screen=(60.0, 40.0))
    labels = initial_layout(features, cfg)
    before = count_conflicts(*scene_layout(labels, features), cfg.d_min)

    repaired, moves = repair_labels(labels, features, cfg, diagonal=True)
    after = count_conflicts(*scene_layout(repaired, features), cfg.d_min)
    assert [b.left for b in budgets] == [0]
    assert sum(after) > 0
    assert sum(after) <= sum(before) - moves


_DIRECTIONS = [0.0, 30.0, 90.0, 135.0, 270.0]
# Half-unit grid coordinates, so that gaps of exactly d_min and anchors
# exactly on a rect edge are common, plus free floats.
_half = st.integers(-4, 64).map(lambda v: v * 0.5)
_coord = _half | st.floats(-2.0, 32.0)
_side = st.integers(0, 12).map(lambda v: v * 0.5) | st.floats(0.0, 6.0)


def _rect_rows(rects) -> np.ndarray:
    return np.array([(r.x_min, r.y_min, r.x_max, r.y_max) for r in rects]).reshape(-1, 4)


def _layout_config(draw, d_min) -> LayoutConfig:
    # Screens 3 mm wide cannot fit most labels, so `fits` is often false.
    width = draw(st.sampled_from([3.0, 12.0, 30.0]))
    screen = Rect(0.0, 0.0, width, draw(st.sampled_from([3.0, 20.0])))
    leader = LeaderSpec(
        direction=draw(st.sampled_from(_DIRECTIONS)), kind=draw(st.sampled_from(list(LeaderType)))
    )
    return LayoutConfig(screen=screen, d_min=d_min, leader=leader)


@st.composite
def candidate_blocks(draw):
    """Candidate rects, near rects and near symbols, a config and an anchor."""
    rect = st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h), _coord, _coord, _side, _side)
    cands = draw(st.lists(rect, min_size=1, max_size=12))
    near = draw(st.lists(rect, max_size=6))
    symbols = draw(st.lists(
        st.tuples(_coord, _coord, st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)),
        max_size=6,
    ))
    d_min = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.05, 3.0))
    # Often exactly on a candidate's edge or centre line, where the
    # attachment test's closed comparisons decide.
    c = draw(st.sampled_from(cands))
    anchor = draw(
        st.builds(Vec2, _coord, _coord)
        | st.builds(Vec2, st.sampled_from([c.x_min, c.center().x, c.x_max]),
                    st.sampled_from([c.y_min, c.center().y, c.y_max]))
    )
    return cands, near, symbols, _layout_config(draw, d_min), anchor


class TestBlockTest:
    """`_candidates_ok` against the scalar `candidate_ok`, candidate by candidate."""

    @settings(max_examples=400, deadline=None)
    @given(candidate_blocks())
    def test_matches_scalar_oracle(self, block):
        cands, near, symbols, cfg, anchor = block
        features = [
            PointFeature(id=f"s{k}", anchor=Vec2(x, y), depth=100.0, text="S", symbol_radius=r)
            for k, (x, y, r) in enumerate(symbols)
        ]
        got = _candidates_ok(
            _rect_rows(cands), _rect_rows(near), np.array(symbols).reshape(-1, 3), cfg, anchor
        )
        assert got.tolist() == [candidate_ok(c, near, features, cfg, anchor) for c in cands]

    def test_attachment_is_the_loops_rule_off_the_axes(self):
        # At 60 degrees the ray from (0, 0) meets y = 8.66 at x = 5: the
        # first rect's bottom edge spans it, with no pull, though the
        # anchor's x lies outside the edge; the second's does not, and it
        # is pulled by (2.25, -1.30), though the anchor's x lies inside.
        cfg = LayoutConfig(screen=Rect(-50.0, -50.0, 50.0, 50.0), leader=LeaderSpec(direction=60.0))
        cands = [Rect(3.0, 8.66, 9.0, 11.0), Rect(-2.0, 8.66, 2.0, 11.0)]
        got = _candidates_ok(_rect_rows(cands), _rect_rows([]), np.zeros((0, 3)), cfg, Vec2(0.0, 0.0))
        assert got.tolist() == [True, False]
        assert [candidate_ok(c, [], [], cfg, Vec2(0.0, 0.0)) for c in cands] == [True, False]

    @pytest.mark.parametrize("symbol", [False, True])
    def test_hypot_last_bit_decides(self, symbol):
        # np.hypot and math.hypot differ in the last bit on these gaps: on
        # the first np.hypot is one ulp low, on the second one ulp high.
        # d_min is the exact distance, so the first candidate is clear, and
        # d_min is np.hypot's value, so the second is not. A symbol at the
        # gap's far corner, radius 0, has the same clearance.
        for gx, gy, d_min, want in (
            (0.03546964032188504, 0.060851756668864554, 0.07043459146080565, True),
            (0.1151024984279273, 0.8850600703796611, 0.8925132566661415, False),
        ):
            assert math.hypot(gx, gy) != float(np.hypot(gx, gy))
            cfg = LayoutConfig(
                screen=Rect(-50.0, -50.0, 50.0, 50.0), d_min=d_min,
                leader=LeaderSpec(kind=LeaderType.FREE_DIR_FIXED_CONN),
            )
            cand = Rect(-1.0, -1.0, 0.0, 0.0)
            near = [Rect(gx, gy, gx + 1, gy + 1)] if not symbol else []
            symbols = np.array([(gx, gy, 0.0)] if symbol else []).reshape(-1, 3)
            got = _candidates_ok(_rect_rows([cand]), _rect_rows(near), symbols, cfg, Vec2(0.0, 0.0))
            assert got.tolist() == [want]


@st.composite
def repair_scenes(draw):
    """A crowded small scene and a live label to search for."""
    d_min = draw(st.sampled_from([0.5, 1.0, 0.2]))
    cfg = _layout_config(draw, d_min)
    rows = draw(st.lists(
        st.tuples(_half, _half, st.integers(1, 12).map(lambda v: v * 0.5),
                  st.integers(1, 6).map(lambda v: v * 0.5), _half, _half,
                  st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([False, False, False, True])),
        min_size=1, max_size=8,
    ))
    labels, features = [], []
    for i, (x, y, w, h, ax, ay, radius, deleted) in enumerate(rows):
        rect = Rect(x, y, x + w, y + h)
        labels.append(Label(feature_id=f"f{i}", rect=rect, conn=Vec2(rect.center().x, y),
                            font_size=10.0, deleted=deleted and i > 0))
        features.append(PointFeature(id=f"f{i}", anchor=Vec2(ax, ay), depth=100.0, text="T",
                                     symbol_radius=radius))
    idx = draw(st.sampled_from([i for i, l in enumerate(labels) if not l.deleted]))
    return labels, features, cfg, idx


class TestSearch:
    """`_search` against a search that tests one candidate at a time."""

    @settings(max_examples=100, deadline=None)
    @given(
        scene=repair_scenes(),
        block=st.sampled_from([1, 3, 7, 64, repair.BLOCK_ELEMENTS]),
        budget=st.integers(1, 400),
        axis_retries=st.integers(0, 2),
        ring_retries=st.integers(0, 1),
    )
    def test_matches_scalar_reference(self, scene, block, budget, axis_retries, ring_retries):
        labels, features, cfg, idx = scene
        anchor = features[idx].anchor
        deleted_ids = {l.feature_id for l in labels if l.deleted}
        arrays = scene_arrays(labels, features)
        grid = cfg.d_min / 2.0
        scalar_steps = (
            lambda k: [d * (k * grid) for d in admissible_directions(cfg)],
            lambda k: [Vec2(ix * grid, iy * grid) for ix, iy in ring_border_cells(k)],
        )
        searches = repair._searches(cfg, True, axis_retries)
        # Rings out to their first retry (1600 cells) or their second (6400
        # cells), whose blocks after the search's first skip marked cells.
        for search, scalar, retries in zip(searches, scalar_steps, (axis_retries, ring_retries)):
            def reference(amount):
                return reference_search(
                    idx, labels, features, cfg, anchor, deleted_ids, amount, retries,
                    search.reach_scale, scalar,
                )

            _, left = reference(10**6)
            used = 10**6 - left
            # The drawn budget, one ending on the passing candidate (or on
            # the last one) and one a candidate short of it.
            for amount in {budget, used, max(0, used - 1)}:
                b = repair._Budget(amount)
                with mock.patch.object(repair, "BLOCK_ELEMENTS", block):
                    got = repair._search(
                        idx, label_rects(labels), cfg, anchor, arrays, b,
                        search._replace(retries=retries),
                    )
                assert (got, b.left) == reference(amount)

    def test_budget_ends_on_the_passing_candidate(self):
        labels, features, cfg = wedged_scene()
        arrays = scene_arrays(labels, features)
        _, ring = repair._searches(cfg, True, 0)
        # Ring cells are numbered from ring 1; (-27, -1) is the first cell
        # of ring 27, 4 * 26^2 + 1 candidates in, in the second retry.
        used = 4 * 26 * 26 + 1
        for amount, want in ((used, Vec2(-27 * 0.1, -0.1)), (used - 1, None)):
            for block in (1, used - 1, used, used + 1, repair.BLOCK_ELEMENTS):
                b = repair._Budget(amount)
                with mock.patch.object(repair, "BLOCK_ELEMENTS", block):
                    got = repair._search(
                        0, label_rects(labels), cfg, features[0].anchor, arrays, b,
                        ring._replace(retries=1),
                    )
                assert (got, b.left) == (want, 0)


def _nudged(v: float, ulps: int) -> float:
    """v moved ulps floats up (or down, for ulps < 0)."""
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


@st.composite
def mask_scenes(draw):
    """A label box, the end of a retry's cells, near rects, near symbols and
    a screen. Each is placed beside the box moved to a drawn cell, so that
    there an axis gap or a screen margin lies within a few ulps of a
    threshold: the exact test's (d_min, or d_min / sqrt(2) on the
    diagonal), the mask's (lowered by the slack), or the mask's one cell
    in; or the box overlaps it on that axis. The screen's room for the
    label lies near the fit threshold, with or without the slack, or well
    above it."""
    d_min = draw(st.sampled_from([0.5, 1.0, 0.2]) | st.floats(0.05, 3.0))
    grid, slack = d_min / 2.0, repair._BROAD_PHASE_SLACK
    end = draw(st.integers(1, 6))
    x0, y0, w, h = draw(_coord), draw(_coord), draw(_side), draw(_side)
    box = np.array([x0, y0, x0 + w, y0 + h])
    ulps = st.integers(-4, 4)

    def moved() -> np.ndarray:
        kx, ky = draw(st.integers(-end - 1, end + 1)), draw(st.integers(-end - 1, end + 1))
        return box + np.array([kx, ky, kx, ky]) * grid

    def gap(limits) -> float:
        # Near a threshold of one of the limits, or an overlap.
        limit = draw(st.sampled_from(limits))
        near = draw(st.sampled_from([limit, limit - slack, limit - slack - grid, None]))
        return -draw(_side) if near is None else _nudged(near, draw(ulps))

    def beside(m: np.ndarray, limits, size: tuple[float, float]) -> list[float]:
        # Low and high bound along x, then y, of a box at gap from m.
        out = []
        for axis in (0, 1):
            g, extent = gap(limits), size[axis]
            if draw(st.booleans()):
                out.append((m[axis + 2] + g, m[axis + 2] + g + extent))
            else:
                out.append((m[axis] - g - extent, m[axis] - g))
        (ax, bx), (ay, by) = out
        return [ax, ay, bx, by]

    diagonal = 1.0 / math.sqrt(2.0)
    rects = [
        beside(moved(), [d_min, d_min * diagonal], (draw(_side), draw(_side)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    symbols = []
    for _ in range(draw(st.integers(0, 3))):
        radius = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0))
        reach = radius + d_min
        px, py, _, _ = beside(moved(), [reach, reach * diagonal], (0.0, 0.0))
        symbols.append((px, py, radius))
    m, screen = moved(), []
    for axis, size in ((0, w), (1, h)):
        margin = _nudged(draw(st.sampled_from([d_min, d_min - slack, d_min - slack - grid])),
                         draw(ulps))
        room = size + 2.0 * d_min + draw(st.sampled_from([0.0, slack]) | st.floats(-1.0, 20.0))
        room = _nudged(room, draw(ulps))
        if draw(st.booleans()):
            lo = m[axis] - margin
            screen.append((lo, lo + room))
        else:
            hi = m[axis + 2] + margin
            screen.append((hi - room, hi))
    (sx0, sx1), (sy0, sy1) = screen
    cfg = LayoutConfig(
        screen=Rect(sx0, sy0, max(sx0, sx1), max(sy0, sy1)), d_min=d_min,
        leader=LeaderSpec(kind=draw(st.sampled_from(list(LeaderType)))),
    )
    anchor = Vec2(draw(_coord), draw(_coord))
    return box, end, np.array(rects).reshape(-1, 4), np.array(symbols).reshape(-1, 3), cfg, anchor


class TestBlockedCells:
    """`_blocked_cells` marks only cells whose candidates fail the test."""

    @settings(max_examples=400, deadline=None)
    @given(mask_scenes())
    def test_no_marked_cell_passes(self, case):
        box, end, rects, symbols, cfg, anchor = case
        grid = cfg.d_min / 2.0
        blocked = repair._blocked_cells(box, end, grid, rects, symbols, cfg)
        assert blocked.shape == (2 * end + 1, 2 * end + 1)
        cells = np.argwhere(blocked) - end
        cands = box + np.tile(cells * grid, 2)
        assert not _candidates_ok(cands, rects, symbols, cfg, anchor).any()
        features = [
            PointFeature(id=f"s{k}", anchor=Vec2(x, y), depth=100.0, text="S", symbol_radius=r)
            for k, (x, y, r) in enumerate(symbols.tolist())
        ]
        near = [Rect(*r) for r in rects.tolist()]
        for c in cands.tolist():
            assert not candidate_ok(Rect(*c), near, features, cfg, anchor)

    def test_marks_most_blocked_cells(self):
        # The wedged label's first retry: all but a rim of one or two cells
        # around each obstacle's blocked region is marked.
        labels, features, cfg = wedged_scene()
        rects = label_rects(labels)
        symbols = np.array([(f.anchor.x, f.anchor.y, f.symbol_radius) for f in features[1:]])
        grid, end = cfg.d_min / 2.0, 20
        blocked = repair._blocked_cells(rects[0], end, grid, rects[1:], symbols, cfg)
        cells = np.argwhere(np.ones_like(blocked)) - end
        ok = _candidates_ok(
            rects[0] + np.tile(cells * grid, 2), rects[1:], symbols, cfg, features[0].anchor
        )
        assert not (blocked.ravel() & ok).any()
        assert blocked.sum() >= 0.9 * (~ok).sum()


def test_ring_numbers_invert_ring_cells():
    # The index numbers every lattice cell by its row, and gives -1 to the
    # axes; both tables are int32, as the ring search holds them.
    for rings in (60, 160):
        cells, index = repair._ring_lattice(rings), repair._lattice_index(rings)
        assert cells.dtype == index.dtype == np.int32
        assert index.shape == (2 * rings + 1, 2 * rings + 1)
        assert index[cells[:, 0] + rings, cells[:, 1] + rings].tolist() == list(range(len(cells)))
        assert index[rings].tolist() == index[:, rings].tolist() == [-1] * (2 * rings + 1)


def test_run_matches_the_block_search_oracle(monkeypatch):
    # The scene whose repair spends the whole budget: the same labels to
    # the bit, the same moves and the same budget left with the block
    # search that tests every candidate.
    features, cfg = synthetic_scene(200, 0)
    cfg = replace(cfg, t_num=20)
    budgets = []

    class RecordedBudget(repair._Budget):
        def __init__(self, amount: int) -> None:
            super().__init__(amount)
            budgets.append(self)

    monkeypatch.setattr(repair, "_Budget", RecordedBudget)
    runs = []
    for search in (repair._search, reference_block_search):
        budgets.clear()
        monkeypatch.setattr(repair, "_search", search)
        labels, report = optimizer.run(features, cfg)
        runs.append((_bits(labels), report.repair_moves, [b.left for b in budgets]))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0 and runs[0][2] == [0]


def test_ring_cells_number_every_border_in_order():
    cells = repair._ring_lattice(60)
    want = [c for r in range(1, 61) for c in ring_border_cells(r)]
    assert [tuple(c) for c in cells.tolist()] == want


@st.composite
def crowded_scenes(draw):
    """3 to 10 labels crowded on a small screen, some deleted, with their
    symbols and a fixed-direction leader pointing at most of them."""
    d_min = draw(st.sampled_from([0.5, 1.0, 0.2]))
    screen = Rect(0.0, 0.0, draw(st.sampled_from([20.0, 30.0])), draw(st.sampled_from([12.0, 20.0])))
    leader = LeaderSpec(
        direction=draw(st.sampled_from(_DIRECTIONS)), kind=draw(st.sampled_from(list(LeaderType)))
    )
    u = leader.unit()
    rows = draw(st.lists(
        st.tuples(st.integers(0, 50).map(lambda v: v * 0.5), st.integers(0, 34).map(lambda v: v * 0.5),
                  st.integers(2, 12).map(lambda v: v * 0.5), st.integers(1, 5).map(lambda v: v * 0.5),
                  st.sampled_from([1.0, 2.0, 3.5]), st.sampled_from([0.0, 0.5, 1.0]),
                  st.sampled_from([False, False, False, False, True]), st.booleans()),
        min_size=3, max_size=10,
    ))
    labels, features = [], []
    for i, (x, y, w, h, length, radius, deleted, attached) in enumerate(rows):
        rect = Rect(x, y, x + w, y + h)
        # Where the leader meets the rect, so the attachment test can pass.
        if abs(u.y) >= abs(u.x):
            tip = Vec2(rect.center().x, rect.y_min if u.y > 0 else rect.y_max)
        else:
            tip = Vec2(rect.x_min if u.x > 0 else rect.x_max, rect.center().y)
        anchor = tip - u * length if attached else Vec2(x + 1.0, y - 1.5)
        labels.append(Label(feature_id=f"f{i}", rect=rect, conn=tip, font_size=10.0,
                            deleted=deleted and i > 0))
        features.append(PointFeature(id=f"f{i}", anchor=anchor, depth=100.0, text="T",
                                     symbol_radius=radius))
    return labels, features, LayoutConfig(screen=screen, d_min=d_min, leader=leader), 0


def unpark_scene(x0: float, y0: float):
    """A label stuck inside a 1279 mm symbol, and a 2 x 1 mm label at
    (x0, y0) that clears a symbol on its left edge by stepping 0.75 mm
    right. The two symbols' own labels sit far off, beyond the large one.
    Under the axis search to 8 retries at d_min 0.5 the stuck label's
    reach is 1280 + 4 * math.hypot(40, 2) mm; the coordinates below put
    the moving label's old center where math.hypot and np.hypot of the
    distance fall on either side of that reach."""
    cfg = LayoutConfig(
        screen=Rect(0.0, 0.0, 3000.0, 3000.0), d_min=0.5,
        leader=LeaderSpec(kind=LeaderType.FREE_DIR_FIXED_CONN),
    )
    stuck, mover = Rect(100.5, 100.0, 140.5, 102.0), Rect(x0, y0, x0 + 2.0, y0 + 1.0)
    far = Rect(2800.0, 2800.0, 2802.0, 2801.0)
    features = [
        PointFeature(id="s", anchor=stuck.center(), depth=100.0, text="S"),
        PointFeature(id="m", anchor=mover.center(), depth=100.0, text="M"),
        PointFeature(id="big", anchor=stuck.center(), depth=100.0, text="B", symbol_radius=1279.0),
        PointFeature(id="dot", anchor=Vec2(x0 + 0.1, mover.center().y), depth=100.0, text="D",
                     symbol_radius=0.0),
    ]
    labels = [
        Label(feature_id=f.id, rect=r, conn=Vec2(r.center().x, r.y_min), font_size=10.0)
        for f, r in zip(features, (stuck, mover, far, far.translated(Vec2(10.0, 0.0))))
    ]
    return labels, features, cfg, 0


# math.hypot of the distance is the reach and np.hypot one ulp above it,
# then the other way round.
_UNPARK_EXAMPLES = ((1100.44807, 1154.9745441985083), (1100.25258, 1155.1563692609645))


def _bits(labels) -> list:
    return [
        (l.feature_id, l.deleted,
         [v.hex() for v in (l.rect.x_min, l.rect.y_min, l.rect.x_max, l.rect.y_max, l.conn.x, l.conn.y)])
        for l in labels
    ]


def test_unpark_examples_sit_on_the_last_bit():
    reach = repair.BASE_RADIUS_FACTOR * 0.5 * 2.0**repair.MAX_RETRIES + 4.0 * math.hypot(40.0, 2.0)
    for x0, y0 in _UNPARK_EXAMPLES:
        labels = unpark_scene(x0, y0)[0]
        d = labels[0].rect.center() - labels[1].rect.center()
        assert (math.hypot(d.x, d.y) <= reach) != (float(np.hypot(d.x, d.y)) <= reach)


class TestGreedyRepair:
    """`greedy_repair` against `reference_repair`, a pass on `Label`s that
    tests one candidate at a time: the same labels to the bit, the same
    moves and the same budget left."""

    @pytest.mark.parametrize("diagonal, retries", [(False, repair.MAX_RETRIES), (True, 5)])
    @settings(max_examples=60, deadline=None)
    @given(scene=crowded_scenes(), amount=st.integers(1, 5000))
    @example(scene=unpark_scene(*_UNPARK_EXAMPLES[0]), amount=30_000)
    @example(scene=unpark_scene(*_UNPARK_EXAMPLES[1]), amount=30_000)
    def test_matches_reference_pass(self, diagonal, retries, scene, amount):
        labels, features, cfg, _ = scene
        budgets = []

        class RecordedBudget(repair._Budget):
            def __init__(self, amount: int) -> None:
                super().__init__(amount)
                budgets.append(self)

        with mock.patch.object(repair, "_Budget", RecordedBudget), \
                mock.patch.object(repair, "CANDIDATE_BUDGET", amount):
            got, moves = repair_labels(labels, features, cfg, diagonal, retries)
        want, want_moves, want_left = reference_repair(labels, features, cfg, amount, diagonal, retries)
        assert (_bits(got), moves, budgets[0].left) == (_bits(want), want_moves, want_left)
