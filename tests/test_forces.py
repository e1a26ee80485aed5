import dataclasses
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leaderlabels import geometry
from leaderlabels.forces import (
    ConflictPairs,
    LabelLargerThanScreenError,
    NotInConflictError,
    NotOverlappingError,
    RESOLVE_TARGET_FACTOR,
    assemble_forces,
    attachment_force,
    attachment_forces,
    compose_point_forces,
    conflict_pairs,
    conflicting_feature_pairs,
    conflicting_label_pairs,
    overlap_force,
    point_repulsion_candidates,
    screen_force,
    screen_forces,
    separation_force,
)
from leaderlabels.geometry import (
    OverlapError,
    Rect,
    Vec2,
    interiors_overlap,
    point_rect_signed_clearance,
    rect_distance,
)
from leaderlabels.scene import Label, LayoutConfig, LeaderSpec, LeaderType, PointFeature

from conftest import (
    brute_force_feature_conflicts,
    brute_force_label_conflicts,
    disjoint_rect_pair,
    labels_from_rects,
    overlapping_rect_pair,
    random_labels,
)


class TestSeparationForce:
    def test_facing_edges(self):
        fa, fb = separation_force(Rect(0, 0, 4, 2), Rect(6, 0, 10, 2), d_min=3.0)
        assert fa == Vec2(-0.5, 0.0)
        assert fb == Vec2(0.5, 0.0)

    def test_gap_equal_d_min_not_in_conflict(self):
        with pytest.raises(NotInConflictError):
            separation_force(Rect(0, 0, 4, 2), Rect(6, 0, 10, 2), d_min=2.0)

    def test_corner_case(self):
        fa, fb = separation_force(Rect(0, 0, 2, 2), Rect(3, 3, 5, 5), d_min=2.0)
        gap = math.sqrt(2.0)
        expected = 0.5 * (2.0 - gap)
        assert fa.norm() == pytest.approx(expected)
        assert fa.x == pytest.approx(-expected / math.sqrt(2))
        assert fa.y == pytest.approx(-expected / math.sqrt(2))
        assert fb.x == -fa.x and fb.y == -fa.y

    def test_overlapping_rejected(self):
        with pytest.raises(OverlapError):
            separation_force(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), d_min=1.0)

    def test_newton_pair_on_random_conflicts(self, rng):
        count = 0
        while count < 2000:
            a, b = disjoint_rect_pair(rng)
            gap = rect_distance(a, b)
            if gap >= 5.0:
                continue
            fa, fb = separation_force(a, b, d_min=5.0)
            assert fa.x == -fb.x and fa.y == -fb.y
            assert fa.norm() == pytest.approx(0.5 * (5.0 - gap), rel=1e-12)
            count += 1


class TestOverlapForce:
    def test_worked_example(self):
        fa, fb = overlap_force(Rect(0, 0, 10, 4), Rect(8, 1, 20, 5), d_min=1.0)
        assert fa == Vec2(-1.5, 0.0)
        assert fb == Vec2(1.5, 0.0)

    def test_identical_rects_tie_break(self):
        fa, fb = overlap_force(Rect(0, 0, 2, 2), Rect(0, 0, 2, 2), d_min=0.0)
        assert fa == Vec2(-1.0, 0.0)
        assert fb == Vec2(1.0, 0.0)

    def test_disjoint_rejected(self):
        with pytest.raises(NotOverlappingError):
            overlap_force(Rect(0, 0, 1, 1), Rect(5, 5, 6, 6), d_min=1.0)

    def test_double_displacement_resolves(self, rng):
        # Moving each rect by twice its force separates them to exactly
        # d_min along the chosen axis.
        d_min = 0.7
        for _ in range(400):
            a, b = overlapping_rect_pair(rng)
            fa, fb = overlap_force(a, b, d_min)
            a2 = a.translated(fa * 2.0)
            b2 = b.translated(fb * 2.0)
            assert not interiors_overlap(a2, b2)
            assert rect_distance(a2, b2) >= d_min - 1e-9

    def test_newton_pairs(self, rng):
        for _ in range(400):
            a, b = overlapping_rect_pair(rng)
            fa, fb = overlap_force(a, b, 0.5)
            assert fa.x == -fb.x and fa.y == -fb.y


class TestPointRepulsionCandidates:
    def test_not_in_conflict(self):
        with pytest.raises(NotInConflictError):
            point_repulsion_candidates(Rect(7, 2, 15, 6), Vec2(5, 5), radius=0.0, d_min=1.0)

    def test_point_inside_rect(self):
        cands = point_repulsion_candidates(Rect(7, 2, 15, 6), Vec2(8, 4), radius=0.0, d_min=1.0)
        assert cands[0] == Vec2(-8.0, 0.0)
        assert cands[1] == Vec2(2.0, 0.0)
        assert cands[2] == Vec2(0.0, -3.0)
        assert cands[3] == Vec2(0.0, 3.0)

    def test_center_of_square_symmetric(self):
        cands = point_repulsion_candidates(Rect(0, 0, 4, 4), Vec2(2, 2), radius=0.0, d_min=0.5)
        mags = sorted(c.norm() for c in cands)
        assert mags[0] == pytest.approx(mags[-1])

    def test_applying_candidate_reaches_clearance(self, rng):
        # Each candidate moves the rect so the disk's axis clearance equals
        # d_min exactly, hence overall clearance is at least d_min.
        d_min = 0.8
        tried = 0
        while tried < 300:
            x = rng.uniform(0, 40)
            y = rng.uniform(0, 40)
            rect = Rect(x, y, x + rng.uniform(1, 15), y + rng.uniform(1, 8))
            p = Vec2(rng.uniform(-5, 45), rng.uniform(-5, 45))
            radius = rng.uniform(0.0, 1.0)
            if point_rect_signed_clearance(p, rect) - radius >= d_min:
                continue
            tried += 1
            for cand in point_repulsion_candidates(rect, p, radius, d_min):
                moved = rect.translated(cand)
                clearance = point_rect_signed_clearance(p, moved) - radius
                assert clearance >= d_min - 1e-9


class TestComposePointForces:
    def test_single_feature_min_candidate(self):
        result = compose_point_forces([[Vec2(-8, 0), Vec2(2, 0), Vec2(0, -3), Vec2(0, 3)]])
        assert result == Vec2(2.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose_point_forces([])

    def _oracle(self, candidate_sets):
        best_adm = None
        best_any = None
        for combo in itertools.product(*candidate_sets):
            sx = sum(v.x for v in combo)
            sy = sum(v.y for v in combo)
            mag2 = sx * sx + sy * sy
            admissible = all(
                a.dot(b) >= 0.0 for a, b in itertools.combinations(combo, 2)
            )
            if best_any is None or mag2 < best_any[0]:
                best_any = (mag2, Vec2(sx, sy))
            if admissible and (best_adm is None or mag2 < best_adm[0]):
                best_adm = (mag2, Vec2(sx, sy))
        return best_adm[1] if best_adm is not None else best_any[1]

    def test_two_features_against_enumeration(self):
        base = [Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1)]
        scaled = [v * 2.0 for v in base]
        result = compose_point_forces([base, scaled])
        assert result == self._oracle([base, scaled])

    def test_random_cases_against_enumeration(self, rng):
        for _ in range(500):
            k = rng.randint(2, 3)
            sets = []
            for _ in range(k):
                mx = rng.uniform(0.5, 4.0)
                my = rng.uniform(0.5, 4.0)
                sets.append([Vec2(-mx, 0), Vec2(mx * rng.uniform(0.5, 1.5), 0),
                             Vec2(0, -my), Vec2(0, my * rng.uniform(0.5, 1.5))])
            result = compose_point_forces(sets)
            expected = self._oracle(sets)
            assert result.norm() == pytest.approx(expected.norm(), rel=1e-12)

    def test_identical_sets_bounded_by_sum_of_minima(self):
        base = [Vec2(-3, 0), Vec2(1, 0), Vec2(0, -2), Vec2(0, 2)]
        result = compose_point_forces([base, base])
        min_mag = min(v.norm() for v in base)
        assert result.norm() <= 2 * min_mag + 1e-12

    def test_scaling_invariance_of_argmin(self):
        base = [Vec2(-8, 0), Vec2(2, 0), Vec2(0, -3), Vec2(0, 3)]
        scaled = [v * 7.5 for v in base]
        assert compose_point_forces([scaled]) == Vec2(15.0, 0.0)


def _label(rect: Rect, feature_id: str = "f0") -> Label:
    return Label(feature_id=feature_id, rect=rect, conn=Vec2(0, 0), font_size=10.0)


class TestAttachmentForce:
    leader = LeaderSpec(length=10.0, direction=90.0, kind=LeaderType.FIXED_DIR_FREE_CONN)

    def _feature(self, x: float, y: float) -> PointFeature:
        return PointFeature(id="f0", anchor=Vec2(x, y), depth=100.0, text="T")

    def test_missed_to_the_right(self):
        label = _label(Rect(12, 20, 20, 24))
        f = attachment_force(label, self._feature(10, 0), self.leader)
        assert f == Vec2(-2.0, 0.0)

    def test_missed_to_the_left(self):
        label = _label(Rect(2, 20, 8, 24))
        f = attachment_force(label, self._feature(10, 0), self.leader)
        assert f == Vec2(2.0, 0.0)

    def test_ray_hits_edge_no_force(self):
        label = _label(Rect(5, 20, 15, 24))
        f = attachment_force(label, self._feature(10, 0), self.leader)
        assert f == Vec2(0.0, 0.0)

    def test_applying_force_reattaches(self):
        label = _label(Rect(12, 20, 20, 24))
        f = attachment_force(label, self._feature(10, 0), self.leader)
        moved = _label(label.rect.translated(f))
        assert moved.rect.x_min <= 10.0 <= moved.rect.x_max

    def test_free_direction_type_gets_no_force(self):
        label = _label(Rect(12, 20, 20, 24))
        leader2 = LeaderSpec(kind=LeaderType.FREE_DIR_FIXED_CONN)
        assert attachment_force(label, self._feature(10, 0), leader2) == Vec2(0.0, 0.0)


class TestScreenForce:
    screen = Rect(0, 0, 100, 100)

    def test_near_left_edge(self):
        assert screen_force(Rect(1, 40, 5, 44), self.screen, d_min=2.0) == Vec2(1.0, 0.0)

    def test_fully_inside(self):
        assert screen_force(Rect(40, 40, 60, 60), self.screen, d_min=2.0) == Vec2(0.0, 0.0)

    def test_crossing_edge(self):
        assert screen_force(Rect(-3, 40, 2, 44), self.screen, d_min=2.0) == Vec2(5.0, 0.0)

    def test_corner_sums_both_axes(self):
        f = screen_force(Rect(1, 1, 5, 5), self.screen, d_min=2.0)
        assert f == Vec2(1.0, 1.0)

    def test_oversized_label_rejected(self):
        with pytest.raises(LabelLargerThanScreenError):
            screen_force(Rect(0, 40, 99, 44), self.screen, d_min=2.0)


class TestConflictScan:
    def test_matches_brute_force(self, rng):
        for _ in range(20):
            labels = random_labels(rng, 25, span=120.0)
            d_min = rng.uniform(0.1, 3.0)
            assert conflicting_label_pairs(labels, d_min) == brute_force_label_conflicts(labels, d_min)

    def test_feature_pairs_match_brute_force(self, rng):
        for _ in range(10):
            labels = random_labels(rng, 15, span=80.0)
            features = [
                PointFeature(
                    id=f"f{i}",
                    anchor=Vec2(rng.uniform(0, 100), rng.uniform(0, 100)),
                    depth=100.0,
                    text="T",
                )
                for i in range(15)
            ]
            got = conflicting_feature_pairs(labels, features, 0.5)
            assert sorted(got) == sorted(brute_force_feature_conflicts(labels, features, 0.5))


_unit = st.floats(0.0, 1.0)


@st.composite
def symbol_scenes(draw):
    """Labels and symbols with anchors on the scan's boundary cases.

    Each symbol sits near one label's rect: anywhere, inside it, exactly
    radius + d_min out from an edge, or that far out from a corner. Its id
    is a label's (so some symbols are a label's own) or one no label has.
    Some labels are deleted, which removes their symbols.
    """
    n = draw(st.integers(1, 6))
    labels = labels_from_rects([
        Rect(x, y, x + w, y + h)
        for x, y, w, h in draw(st.lists(
            st.tuples(st.floats(-50.0, 150.0), st.floats(-50.0, 150.0),
                      st.floats(0.0, 40.0), st.floats(0.0, 20.0)),
            min_size=n, max_size=n,
        ))
    ])
    labels = [dataclasses.replace(l, deleted=draw(st.booleans())) for l in labels]
    d_min = draw(st.sampled_from([0.0, 0.2, 0.5]) | st.floats(0.0, 5.0))
    features = []
    for k in range(draw(st.integers(0, 12))):
        r = labels[draw(st.integers(0, n - 1))].rect
        radius = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0))
        reach = radius + d_min
        where = draw(st.sampled_from(["free", "inside", "edge", "corner"]))
        if where == "free":
            x, y = draw(st.floats(-80.0, 200.0)), draw(st.floats(-80.0, 200.0))
        elif where == "inside":
            x, y = r.x_min + draw(_unit) * r.width, r.y_min + draw(_unit) * r.height
        elif where == "edge":
            t = draw(_unit)
            x, y = draw(st.sampled_from([
                (r.x_max + reach, r.y_min + t * r.height),
                (r.x_min - reach, r.y_min + t * r.height),
                (r.x_min + t * r.width, r.y_max + reach),
                (r.x_min + t * r.width, r.y_min - reach),
            ]))
        else:
            a = draw(st.sampled_from([0.0, math.pi / 4, math.pi / 2]) | st.floats(0.0, math.pi / 2))
            sx, sy = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
            cx = r.x_max if sx > 0 else r.x_min
            cy = r.y_max if sy > 0 else r.y_min
            x, y = cx + sx * reach * math.cos(a), cy + sy * reach * math.sin(a)
        fid = draw(st.sampled_from([f"f{i}" for i in range(n)] + [f"s{k}"]))
        features.append(
            PointFeature(id=fid, anchor=Vec2(x, y), depth=100.0, text="T", symbol_radius=radius)
        )
    return labels, features, d_min


class TestFeatureScanProperty:
    @settings(max_examples=300, deadline=None)
    @given(symbol_scenes())
    def test_equals_all_pairs_definition(self, scene):
        labels, features, d_min = scene
        assert conflicting_feature_pairs(labels, features, d_min) == (
            brute_force_feature_conflicts(labels, features, d_min)
        )

    def test_boundary_cases_by_hand(self):
        # s0's clearance is exactly radius + d_min, so no conflict; s1's is
        # 0.1 mm less. s2 lies inside label 0, f1 is label 1's symbol.
        labels = labels_from_rects([Rect(0, 0, 10, 4), Rect(40, 0, 50, 4)])
        features = [
            PointFeature(id="s0", anchor=Vec2(11.0, 2.0), depth=100, text="T", symbol_radius=0.5),
            PointFeature(id="s1", anchor=Vec2(2.0, 4.9), depth=100, text="T", symbol_radius=0.5),
            PointFeature(id="s2", anchor=Vec2(5.0, 2.0), depth=100, text="T", symbol_radius=0.5),
            PointFeature(id="f0", anchor=Vec2(5.0, 2.0), depth=100, text="T"),
            PointFeature(id="f1", anchor=Vec2(5.0, 3.0), depth=100, text="T"),
        ]
        assert conflicting_feature_pairs(labels, features, 0.5) == [(0, 1), (0, 2), (0, 4)]
        deleted = [labels[0], dataclasses.replace(labels[1], deleted=True)]
        assert conflicting_feature_pairs(deleted, features, 0.5) == [(0, 1), (0, 2)]


@st.composite
def gap_layouts(draw):
    """Labels placed against earlier ones at the label scan's boundaries.

    Each label after the first is free, or put next to an earlier one with
    an axis gap of d_min (or a hair either side), a diagonal gap of d_min
    along some angle, so that the hypot of its two axis gaps decides, or
    overlapping it. Some labels are deleted.
    """
    d_min = draw(st.sampled_from([0.2, 0.5, 1.0]) | st.floats(0.01, 5.0))
    size = st.floats(0.0, 15.0)
    rects = [Rect(0.0, 0.0, draw(size), draw(size))]
    for _ in range(draw(st.integers(1, 9))):
        a = rects[draw(st.integers(0, len(rects) - 1))]
        w, h = draw(size), draw(size)
        where = draw(st.sampled_from(["free", "axis", "diagonal", "overlap"]))
        if where == "free":
            x, y = draw(st.floats(-30.0, 60.0)), draw(st.floats(-30.0, 60.0))
        elif where == "axis":
            gap = d_min * draw(st.sampled_from([1.0, 1.0 - 1e-15, 1.0 + 1e-15]))
            x, y = a.x_max + gap, a.y_min + draw(st.floats(-h, a.height))
        elif where == "diagonal":
            t = draw(st.sampled_from([math.pi / 4, math.pi / 6]) | st.floats(0.0, math.pi / 2))
            x, y = a.x_max + d_min * math.cos(t), a.y_max + d_min * math.sin(t)
        else:
            x, y = a.x_min + draw(_unit) * a.width, a.y_min + draw(_unit) * a.height
        rects.append(Rect(x, y, x + w, y + h))
    labels = [
        dataclasses.replace(l, deleted=draw(st.booleans()) and draw(st.booleans()))
        for l in labels_from_rects(rects)
    ]
    return labels, d_min


def _all_label_pairs(labels, d_min):
    live = [i for i, l in enumerate(labels) if not l.deleted]
    return [
        (i, j) for i, j in itertools.combinations(live, 2)
        if rect_distance(labels[i].rect, labels[j].rect) < d_min
    ]


class TestLabelScanArray:
    """The array label scan against all-pairs `rect_distance < d_min`."""

    @settings(max_examples=300, deadline=None)
    @given(gap_layouts())
    def test_equals_all_pairs_definition(self, layout):
        labels, d_min = layout
        assert conflicting_label_pairs(labels, d_min) == _all_label_pairs(labels, d_min)

    def test_hypot_last_bit_decides(self):
        # np.hypot and math.hypot differ in the last bit on these gaps: on
        # the first np.hypot is one ulp low, on the second one ulp high.
        # d_min is the exact distance, so the first pair is not in conflict,
        # and d_min is np.hypot's value, so the second pair is.
        for gx, gy, d_min, want in (
            (0.03546964032188504, 0.060851756668864554, 0.07043459146080565, []),
            (0.1151024984279273, 0.8850600703796611, 0.8925132566661415, [(0, 1)]),
        ):
            labels = labels_from_rects([Rect(-1.0, -1.0, 0.0, 0.0), Rect(gx, gy, gx + 1, gy + 1)])
            assert math.hypot(gx, gy) != float(np.hypot(gx, gy))
            assert rect_distance(labels[0].rect, labels[1].rect) == math.hypot(gx, gy)
            assert conflicting_label_pairs(labels, d_min) == want

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_row_blocks_change_nothing(self, rng, block):
        labels = random_labels(rng, 40, span=90.0)
        features = [
            PointFeature(id=f"s{k}", anchor=Vec2(rng.uniform(0, 100), rng.uniform(0, 100)),
                         depth=100.0, text="T")
            for k in range(30)
        ]
        want = conflict_pairs(labels, features, 0.8)
        with mock.patch.object(geometry, "BLOCK_ELEMENTS", block):
            assert conflict_pairs(labels, features, 0.8) == want
        assert want.labels == _all_label_pairs(labels, 0.8)


_grid = st.integers(-2, 12).map(float) | st.floats(-20.0, 30.0)


@st.composite
def leader_rows(draw):
    """Rects and anchors on a small integer grid, so that a leader ray
    often meets an attachment-edge endpoint exactly, plus free floats."""
    rows = draw(st.lists(
        st.tuples(_grid, _grid, st.integers(0, 6).map(float), st.integers(0, 3).map(float),
                  _grid, _grid),
        min_size=1, max_size=10,
    ))
    rects = [Rect(x, y, x + w, y + h) for x, y, w, h, _, _ in rows]
    anchors = [Vec2(ax, ay) for *_, ax, ay in rows]
    return rects, anchors


def _rect_rows(rects) -> np.ndarray:
    return np.array([(r.x_min, r.y_min, r.x_max, r.y_max) for r in rects])


class TestForceArrays:
    """`attachment_forces` and `screen_forces` against the scalar forces,
    label by label."""

    @pytest.mark.parametrize("kind", list(LeaderType))
    @pytest.mark.parametrize("direction", [0.0, 30.0, 90.0, 135.0, 270.0])
    @settings(max_examples=40, deadline=None)
    @given(rows=leader_rows())
    def test_attachment_matches_scalar(self, kind, direction, rows):
        rects, anchors = rows
        leader = LeaderSpec(direction=direction, kind=kind)
        got = attachment_forces(_rect_rows(rects), np.array([(a.x, a.y) for a in anchors]), leader)
        for (fx, fy), r, a in zip(got.tolist(), rects, anchors):
            feature = PointFeature(id="f0", anchor=a, depth=100.0, text="T")
            assert Vec2(fx, fy) == attachment_force(_label(r), feature, leader)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(-3, 103).map(float) | st.floats(-10.0, 110.0),
                      st.integers(-3, 63).map(float) | st.floats(-10.0, 70.0),
                      st.floats(0.0, 30.0), st.floats(0.0, 10.0)),
            min_size=1, max_size=10,
        ),
        d_min=st.sampled_from([0.2, 1.0, 2.0]) | st.floats(0.01, 5.0),
    )
    def test_screen_matches_scalar(self, rows, d_min):
        screen = Rect(0.0, 0.0, 100.0, 60.0)
        rects = [Rect(x, y, x + w, y + h) for x, y, w, h in rows]
        try:
            want = [screen_force(r, screen, d_min) for r in rects]
        except LabelLargerThanScreenError as exc:
            with pytest.raises(LabelLargerThanScreenError, match=re.escape(str(exc))):
                screen_forces(_rect_rows(rects), screen, d_min)
            return
        got = screen_forces(_rect_rows(rects), screen, d_min)
        assert [Vec2(fx, fy) for fx, fy in got.tolist()] == want


def scene_config(**kw) -> LayoutConfig:
    kw.setdefault("screen", Rect(0, 0, 200, 150))
    return LayoutConfig(**kw)


class TestAssembleForces:
    def test_conflict_free_scene_all_zero(self):
        labels = labels_from_rects([Rect(10, 10, 20, 14), Rect(50, 50, 62, 54)])
        features = [
            PointFeature(id="f0", anchor=Vec2(15, 2), depth=100, text="A"),
            PointFeature(id="f1", anchor=Vec2(55, 40), depth=100, text="B"),
        ]
        fa = assemble_forces(labels, features, scene_config())
        assert all(f == Vec2(0.0, 0.0) for f in fa.totals)
        assert max(f.norm() for f in fa.totals) == 0.0

    def test_given_pairs_replace_the_scans(self, rng):
        labels = random_labels(rng, 20, span=60.0)
        features = [
            PointFeature(id=f"f{i}", anchor=lbl.rect.center(), depth=100.0, text="T")
            for i, lbl in enumerate(labels)
        ]
        cfg = scene_config()
        pairs = conflict_pairs(labels, features, cfg.d_min)
        assert pairs.labels and pairs.features
        assert assemble_forces(labels, features, cfg, pairs) == assemble_forces(labels, features, cfg)
        # The forces follow the pairs handed in, not a fresh scan.
        assert assemble_forces(labels, features, cfg, ConflictPairs([], [])) != assemble_forces(
            labels, features, cfg
        )

    def test_single_overlap_equals_overlap_force(self):
        r1, r2 = Rect(50, 50, 60, 54), Rect(58, 51, 70, 55)
        labels = labels_from_rects([r1, r2])
        features = [
            PointFeature(id="f0", anchor=Vec2(55, 30), depth=100, text="A"),
            PointFeature(id="f1", anchor=Vec2(64, 30), depth=100, text="B"),
        ]
        cfg = scene_config()
        fa = assemble_forces(labels, features, cfg)
        expected = overlap_force(r1, r2, RESOLVE_TARGET_FACTOR * cfg.d_min)
        assert fa.totals[0] == expected[0]
        assert fa.totals[1] == expected[1]

    def test_deleted_labels_get_zero(self):
        labels = labels_from_rects([Rect(50, 50, 60, 54), Rect(58, 51, 70, 55)])
        labels[1] = Label(
            feature_id="f1", rect=labels[1].rect, conn=labels[1].conn, font_size=10.0, deleted=True
        )
        features = [
            PointFeature(id="f0", anchor=Vec2(55, 30), depth=100, text="A"),
            PointFeature(id="f1", anchor=Vec2(64, 30), depth=100, text="B"),
        ]
        fa = assemble_forces(labels, features, scene_config())
        assert fa.totals[1] == Vec2(0.0, 0.0)
        assert fa.totals[0] == Vec2(0.0, 0.0)  # partner deleted, no pair conflict

    def test_total_equals_per_source_recomputation(self, rng):
        # Independent recomputation of every source for every label.
        cfg = scene_config()
        target = RESOLVE_TARGET_FACTOR * cfg.d_min
        for _ in range(6):
            labels = random_labels(rng, 10, span=60.0, max_side=14.0)
            features = [
                PointFeature(
                    id=f"f{i}",
                    anchor=Vec2(rng.uniform(0, 70), rng.uniform(0, 70)),
                    depth=100.0,
                    text="T",
                )
                for i in range(10)
            ]
            fa = assemble_forces(labels, features, cfg)
            for i, lbl in enumerate(labels):
                expected = Vec2(0.0, 0.0)
                for j, other in enumerate(labels):
                    if j == i:
                        continue
                    ri, rj = lbl.rect, other.rect
                    if interiors_overlap(ri, rj):
                        expected = expected + overlap_force(ri, rj, target)[0]
                    elif rect_distance(ri, rj) < cfg.d_min:
                        expected = expected + separation_force(ri, rj, target)[0]
                cand_sets = []
                hits = []
                for f in features:
                    if f.id == lbl.feature_id:
                        continue
                    gap = point_rect_signed_clearance(f.anchor, lbl.rect) - f.symbol_radius
                    if gap < cfg.d_min:
                        hits.append((gap, f))
                hits.sort(key=lambda t: t[0])
                for _, f in hits[:8]:
                    cand_sets.append(
                        point_repulsion_candidates(lbl.rect, f.anchor, f.symbol_radius, target)
                    )
                if cand_sets:
                    expected = expected + compose_point_forces(cand_sets)
                feature = next(f for f in features if f.id == lbl.feature_id)
                expected = expected + attachment_force(lbl, feature, cfg.leader)
                expected = expected + screen_force(lbl.rect, cfg.screen, cfg.d_min)
                assert fa.totals[i].x == pytest.approx(expected.x, abs=1e-9)
                assert fa.totals[i].y == pytest.approx(expected.y, abs=1e-9)

    def test_forces_zero_iff_no_conflicts(self, rng):
        # Gate semantics: forces appear exactly when the scene has a
        # conflict at d_min, never for merely-snug layouts above it.
        cfg = scene_config()
        for _ in range(10):
            labels = random_labels(rng, 12, span=80.0, max_side=12.0)
            features = [
                PointFeature(
                    id=f"f{i}",
                    anchor=Vec2(rng.uniform(0, 90), rng.uniform(0, 90)),
                    depth=100.0,
                    text="T",
                )
                for i in range(12)
            ]
            fa = assemble_forces(labels, features, cfg)
            has_conflict = bool(
                conflicting_label_pairs(labels, cfg.d_min)
                or conflicting_feature_pairs(labels, features, cfg.d_min)
            )
            has_screen_violation = any(
                screen_force(l.rect, cfg.screen, cfg.d_min).norm() > 0 for l in labels
            )
            anchors = {f.id: f for f in features}
            has_attachment_miss = any(
                attachment_force(l, anchors[l.feature_id], cfg.leader).norm() > 0
                for l in labels
            )
            expected_nonzero = has_conflict or has_screen_violation or has_attachment_miss
            assert (max(f.norm() for f in fa.totals) > 0) == expected_nonzero

    def test_totals_sum_sources_in_fixed_order(self):
        # Label 1, in the screen's top-right corner, meets label 0 across a
        # corner gap and overlaps label 2, covers a foreign symbol, and has
        # drifted off its leader. Its total is summed from 0.0 in the
        # documented order; these coordinates give a different last bit
        # if attachment comes last, the pairs swap, or screen precedes point.
        rects = [
            Rect(150, 130, 160.02, 140.86),
            Rect(160.1, 140.88, 199.86, 149.91),
            Rect(154.31, 141.5, 160.68, 149.26),
        ]
        labels = labels_from_rects(rects)
        features = [
            PointFeature(id="f0", anchor=Vec2(155, 100), depth=100, text="A"),
            PointFeature(id="f1", anchor=Vec2(127.67, 100), depth=100, text="B"),
            PointFeature(id="f2", anchor=Vec2(198.63, 146.8), depth=100, text="C", symbol_radius=0.45),
        ]
        cfg = scene_config()
        target = RESOLVE_TARGET_FACTOR * cfg.d_min
        fa = assemble_forces(labels, features, cfg)
        assert fa.sources == {"attachment", "pair", "point", "screen"}

        r0, r1, r2 = rects
        parts = [
            attachment_force(labels[1], features[1], cfg.leader),
            separation_force(r0, r1, target)[1],
            overlap_force(r1, r2, target)[0],
            compose_point_forces(
                [point_repulsion_candidates(r1, features[2].anchor, features[2].symbol_radius, target)]
            ),
            screen_force(r1, cfg.screen, cfg.d_min),
        ]
        assert all(p.norm() > 0 for p in parts)
        tx = ty = 0.0
        for p in parts:
            tx += p.x
            ty += p.y
        assert fa.totals[1] == Vec2(tx, ty)
