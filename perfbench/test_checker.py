"""Tests of the benchmark's output checker on hand-built layouts.

    python3 -m pytest perfbench/test_checker.py -q
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import checker

D_MIN = 0.25  # exactly representable, so gaps built from it are exact


def doc_for(anchors, texts=None, depths=None, d_min=D_MIN, radius=0.5) -> dict:
    texts = texts or ["ABCD"] * len(anchors)
    depths = depths or [100.0] * len(anchors)
    return {
        "schema_version": "1",
        "screen": {"width_mm": 250.0, "height_mm": 150.0},
        "features": [
            {"id": f"f{i}", "x_mm": x, "y_mm": y, "depth": d, "text": t, "symbol_radius_mm": radius}
            for i, ((x, y), t, d) in enumerate(zip(anchors, texts, depths))
        ],
        "config": {"d_min_mm": d_min},
    }


def far_anchors(n: int) -> list[tuple[float, float]]:
    # Symbols well away from every hand-built rect below.
    return [(200.0 + 10.0 * i, 10.0) for i in range(n)]


def live(n: int) -> np.ndarray:
    return np.zeros(n, dtype=bool)


class TestCountConflicts:
    def test_pair_exactly_at_d_min_is_undecided_within_the_band(self):
        spec = checker.scene_spec(doc_for(far_anchors(2)))
        rects = np.array([[0.0, 0.0, 1.0, 1.0], [1.0 + D_MIN, 0.0, 2.0 + D_MIN, 1.0]])
        assert checker.count_conflicts(rects, live(2), spec, D_MIN) == (0, 0)
        assert checker.count_conflicts(rects, live(2), spec, D_MIN - checker.D_MIN_EPS_MM) == (0, 0)
        assert checker.count_conflicts(rects, live(2), spec, D_MIN + checker.D_MIN_EPS_MM) == (1, 0)

    def test_touching_pair_conflicts(self):
        spec = checker.scene_spec(doc_for(far_anchors(2)))
        rects = np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 0.5, 2.0, 1.5]])
        assert checker.count_conflicts(rects, live(2), spec, D_MIN) == (1, 0)

    def test_diagonal_gap_is_euclidean(self):
        spec = checker.scene_spec(doc_for(far_anchors(2)))
        # Corner to corner 0.15 mm apart on each axis: gap 0.212 < 0.25.
        rects = np.array([[0.0, 0.0, 1.0, 1.0], [1.15, 1.15, 2.0, 2.0]])
        assert checker.count_conflicts(rects, live(2), spec, D_MIN) == (1, 0)
        rects[1] = [1.2, 1.2, 2.0, 2.0]  # gap 0.283
        assert checker.count_conflicts(rects, live(2), spec, D_MIN) == (0, 0)

    def test_symbol_inside_a_foreign_label_conflicts(self):
        spec = checker.scene_spec(doc_for([(50.0, 50.0), (5.0, 5.0)], radius=0.0))
        rects = np.array([[0.0, 0.0, 10.0, 10.0], [100.0, 100.0, 101.0, 101.0]])
        assert checker.count_conflicts(rects, live(2), spec, D_MIN) == (0, 1)

    def test_own_symbol_and_deleted_labels_do_not_count(self):
        spec = checker.scene_spec(doc_for([(5.0, 5.0), (6.0, 6.0)]))
        rects = np.array([[0.0, 0.0, 10.0, 10.0], [2.0, 2.0, 8.0, 8.0]])
        assert checker.count_conflicts(rects, live(2), spec, D_MIN) == (1, 2)
        assert checker.count_conflicts(rects, np.array([False, True]), spec, D_MIN) == (0, 0)

    def test_symbol_radius_widens_the_gap_test(self):
        spec = checker.scene_spec(doc_for([(50.0, 50.0), (10.6, 5.0)], radius=0.5))
        rects = np.array([[0.0, 0.0, 10.0, 10.0], [100.0, 100.0, 101.0, 101.0]])
        # Distance 0.6 minus radius 0.5 leaves 0.1 < 0.25.
        assert checker.count_conflicts(rects, live(2), spec, D_MIN) == (0, 1)


def placement_for(doc: dict):
    """The initial layout, with report fields matching it."""
    spec = checker.scene_spec(doc)
    rects = checker.initial_rects(spec)
    conns = np.stack([spec.anchors[:, 0], rects[:, 1]], axis=1)
    fonts, _, _ = checker.expected_boxes(spec)
    return spec, rects, conns, fonts


def report(rr=0, rp=0, infeasible=None, loops=((10, 40, 0.01),)) -> checker.ReportView:
    return checker.ReportView(
        label_conflicts=rr,
        feature_conflicts=rp,
        infeasible=(rr + rp > 0) if infeasible is None else infeasible,
        loops=tuple(checker.LoopRecord(*l) for l in loops),
    )


def check(doc, spec, rects, conns, fonts, rep, ids=None):
    feature_ids = [f["id"] for f in doc["features"]]
    return checker.check_placement(
        spec, feature_ids, ids or feature_ids, rects, conns, fonts, live(len(rects)), rep
    )


class TestCheckPlacement:
    def setup_method(self):
        self.doc = doc_for([(20.0, 20.0), (80.0, 20.0)], texts=["ABCD", "LONGERTEXT"],
                           depths=[100.0, 400.0])
        self.spec, self.rects, self.conns, self.fonts = placement_for(self.doc)

    def test_clean_initial_layout_passes(self):
        assert check(self.doc, self.spec, self.rects, self.conns, self.fonts, report()) == []

    def test_font_size_and_box_follow_the_documented_formulas(self):
        fonts, widths, heights = checker.expected_boxes(self.spec)
        # Nearest feature gets w_max; four times the depth gives a quarter,
        # clamped up to w_min.
        assert fonts.tolist() == [12.0, 4.0]
        assert widths[0] == pytest.approx(0.6 * 4 * 12.0 * 0.3528)
        assert heights[1] == pytest.approx(1.2 * 4.0 * 0.3528)

    def test_wrong_conflict_counts_and_flags_are_reported(self):
        assert check(self.doc, self.spec, self.rects, self.conns, self.fonts, report(rr=1))
        rep = report(infeasible=True)
        assert check(self.doc, self.spec, self.rects, self.conns, self.fonts, rep)
        overlapping = self.rects.copy()
        overlapping[1] = overlapping[0] + [1.0, 0.0, 1.0, 0.0]
        problems = check(self.doc, self.spec, overlapping, self.conns, self.fonts, report())
        assert any("label-label" in p for p in problems)
        assert any("feasible" in p for p in problems)

    def test_resized_label_is_reported(self):
        wider = self.rects.copy()
        wider[0, 2] += 1e-6
        assert check(self.doc, self.spec, wider, self.conns, self.fonts, report())
        fonts = self.fonts.copy()
        fonts[1] = 5.0
        assert check(self.doc, self.spec, self.rects, self.conns, fonts, report())

    def test_moved_label_keeps_its_box(self):
        moved = self.rects + [3.0, 7.0, 3.0, 7.0]
        conns = np.stack([self.spec.anchors[:, 0], moved[:, 1]], axis=1)
        assert check(self.doc, self.spec, moved, conns, self.fonts, report()) == []

    def test_detached_connection_point_is_reported(self):
        conns = self.conns.copy()
        conns[0, 0] += 1e-6
        assert check(self.doc, self.spec, self.rects, conns, self.fonts, report())
        conns = self.conns.copy()
        conns[1, 1] -= 1e-6
        assert check(self.doc, self.spec, self.rects, conns, self.fonts, report())

    def test_non_finite_coordinates_are_reported(self):
        rects = self.rects.copy()
        rects[0, 0] = math.nan
        assert check(self.doc, self.spec, rects, self.conns, self.fonts, report())

    def test_loop_termination(self):
        ok = report(loops=((40, 40, 5.0), (12, 40, 0.02)))
        assert check(self.doc, self.spec, self.rects, self.conns, self.fonts, ok) == []
        early = report(loops=((12, 40, 0.5),))
        assert check(self.doc, self.spec, self.rects, self.conns, self.fonts, early)
        past_cap = report(loops=((41, 40, 0.0),))
        assert check(self.doc, self.spec, self.rects, self.conns, self.fonts, past_cap)

    def test_labels_out_of_feature_order_are_reported(self):
        problems = check(self.doc, self.spec, self.rects, self.conns, self.fonts, report(),
                         ids=["f1", "f0"])
        assert problems


class TestDirectionDeviation:
    def test_unmoved_and_translated_layouts_have_no_drift(self):
        doc = doc_for([(10.0, 10.0), (30.0, 12.0), (20.0, 30.0), (40.0, 35.0)])
        spec = checker.scene_spec(doc)
        rects = checker.initial_rects(spec)
        assert checker.direction_deviation(spec, rects, rects, live(4)) == 0.0
        shifted = rects + 5.0
        assert checker.direction_deviation(spec, rects, shifted, live(4)) == pytest.approx(0.0, abs=1e-9)

    def test_lifting_one_label_drifts_its_edges(self):
        doc = doc_for([(10.0, 10.0), (20.0, 10.0), (15.0, 20.0)])
        spec = checker.scene_spec(doc)
        rects = checker.initial_rects(spec)
        moved = rects.copy()
        # Lift the third label straight up: the two slanted edges turn, the
        # horizontal one does not.
        moved[2] += [0.0, 10.0, 0.0, 10.0]
        dev = checker.direction_deviation(spec, rects, moved, live(3))
        assert 0.0 < dev <= 90.0

    def test_long_edges_are_left_out(self):
        # t_d is 3x the mean nearest-neighbour anchor distance; the far
        # point's edges exceed it and do not count.
        doc = doc_for([(10.0, 10.0), (11.0, 10.0), (10.5, 11.0), (200.0, 100.0)])
        spec = checker.scene_spec(doc)
        rects = checker.initial_rects(spec)
        moved = rects.copy()
        moved[3] += [0.0, 40.0, 0.0, 40.0]
        assert checker.direction_deviation(spec, rects, moved, live(4)) == pytest.approx(0.0, abs=1e-9)
