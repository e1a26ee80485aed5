import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leaderlabels import repair
from leaderlabels.geometry import Rect, Vec2
from leaderlabels.metrics import count_conflicts
from leaderlabels.repair import _candidates_ok, _ring_border, admissible_directions, greedy_repair
from leaderlabels.scene import (
    Label,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    initial_layout,
)
from leaderlabels.scenefile import synthetic_scene

from conftest import candidate_ok, reference_search, ring_border_cells


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
    for r in range(1, 201):
        assert [tuple(c) for c in _ring_border(r).tolist()] == ring_border_reference(r), r


def wedged_scene() -> tuple[list[Label], list[PointFeature], LayoutConfig]:
    """A 4 x 2 mm label sitting on a foreign symbol, boxed in from above and
    below by two wide labels 0.5 mm away.

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
    ]
    labels = [
        Label(feature_id=f.id, rect=r, conn=Vec2(r.center().x, r.y_min), font_size=10.0)
        for f, r in zip(features, rects)
    ]
    return labels, features, cfg


def test_wedged_label_takes_nearest_diagonal_offset():
    labels, features, cfg = wedged_scene()
    assert count_conflicts(labels, features, cfg.d_min) == (0, 1)

    _, axis_moves = greedy_repair(labels, features, cfg, max_axis_retries=0)
    assert axis_moves == 0

    repaired, moves = greedy_repair(labels, features, cfg, diagonal=True, max_axis_retries=0)
    grid = cfg.d_min / 2.0
    d = Vec2(-27 * grid, -1 * grid)
    assert moves == 1
    assert repaired[0].rect == labels[0].rect.translated(d)
    assert repaired[0].conn == labels[0].conn + d
    assert repaired[1:] == labels[1:]
    assert count_conflicts(repaired, features, cfg.d_min) == (0, 0)


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
    before = count_conflicts(labels, features, cfg.d_min)

    repaired, moves = greedy_repair(labels, features, cfg, diagonal=True)
    after = count_conflicts(repaired, features, cfg.d_min)
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
    )
    def test_matches_scalar_reference(self, scene, block, budget, axis_retries):
        labels, features, cfg, idx = scene
        anchor = features[idx].anchor
        deleted_ids = {l.feature_id for l in labels if l.deleted}
        grid = cfg.d_min / 2.0
        scalar_steps = (
            lambda k: [d * (k * grid) for d in admissible_directions(cfg)],
            lambda k: [Vec2(ix * grid, iy * grid) for ix, iy in ring_border_cells(k)],
        )
        searches = repair._searches(cfg, True, axis_retries)
        # Rings only out to their first retry: 1600 cells.
        for (retries, reach_scale, step_count, step_offsets), scalar, retries in zip(
            searches, scalar_steps, (axis_retries, 0)
        ):
            def reference(amount):
                return reference_search(
                    idx, labels, features, cfg, anchor, deleted_ids, amount, retries,
                    reach_scale, scalar,
                )

            _, left = reference(10**6)
            used = 10**6 - left
            # The drawn budget, one ending on the passing candidate (or on
            # the last one) and one a candidate short of it.
            for amount in {budget, used, max(0, used - 1)}:
                b = repair._Budget(amount)
                with mock.patch.object(repair, "BLOCK_ELEMENTS", block):
                    got = repair._search(
                        idx, labels, features, cfg, anchor, deleted_ids, b, retries,
                        reach_scale, step_count, step_offsets,
                    )
                assert (got, b.left) == reference(amount)

    def test_budget_ends_on_the_passing_candidate(self):
        labels, features, cfg = wedged_scene()
        deleted_ids: set[str] = set()
        _, (_, reach_scale, step_count, step_offsets) = repair._searches(cfg, True, 0)
        # Ring cells are numbered from ring 1; (-27, -1) is the first cell
        # of ring 27, 4 * 26^2 + 1 candidates in, in the second retry.
        used = 4 * 26 * 26 + 1
        for amount, want in ((used, Vec2(-27 * 0.1, -0.1)), (used - 1, None)):
            for block in (1, used - 1, used, used + 1, repair.BLOCK_ELEMENTS):
                b = repair._Budget(amount)
                with mock.patch.object(repair, "BLOCK_ELEMENTS", block):
                    got = repair._search(
                        0, labels, features, cfg, features[0].anchor, deleted_ids, b,
                        1, reach_scale, step_count, step_offsets,
                    )
                assert (got, b.left) == (want, 0)


def test_ring_cells_number_every_border_in_order():
    cells = repair._ring_cells(np.arange(4 * 60 * 60))
    want = [c for r in range(1, 61) for c in ring_border_cells(r)]
    assert [tuple(c) for c in cells.tolist()] == want
