import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leaderlabels import geometry
from leaderlabels.forces import (
    ConflictPairs,
    MAX_COMPOSED_FEATURES,
    LabelLargerThanScreenError,
    RESOLVE_TARGET_FACTOR,
    _compose,
    _escapes,
    _overlap,
    _pair_force,
    _separation,
    assemble_forces,
    attachment_forces,
    check_screen_fit,
    conflict_pairs,
    conflicting_feature_pairs,
    conflicting_label_pairs,
    screen_forces,
)
from leaderlabels.geometry import (
    Rect,
    Vec2,
    point_rect_signed_clearance,
    points_array,
    rect_distance,
)
from leaderlabels.scene import Label, LayoutConfig, LeaderSpec, LeaderType, PointFeature

from conftest import (
    brute_force_feature_conflicts,
    brute_force_label_conflicts,
    disjoint_rect_pair,
    interiors_overlap,
    label_layout,
    labels_from_rects,
    overlapping_rect_pair,
    pair_totals,
    random_labels,
    reference_assemble_forces,
    reference_attachment_force,
    reference_compose_point_forces,
    reference_overlap_force,
    reference_point_repulsion_candidates,
    reference_screen_force,
    reference_separation_force,
    scene_layout,
)


def _row(r: Rect) -> tuple[float, float, float, float]:
    """A rect as the float rules take it."""
    return r.x_min, r.y_min, r.x_max, r.y_max


def _symbol_scene(rect: Rect, x: float, y: float) -> tuple[list[Label], list[PointFeature]]:
    """One label at rect, its own feature below it, and a foreign symbol of
    radius 0 at (x, y)."""
    labels = labels_from_rects([rect])
    features = [
        PointFeature(id="f0", anchor=Vec2(rect.x_min, rect.y_min - 20.0), depth=100.0, text="T"),
        PointFeature(id="s", anchor=Vec2(x, y), depth=100.0, text="T", symbol_radius=0.0),
    ]
    return labels, features


class TestSeparationForce:
    def test_facing_edges(self):
        assert _separation((0, 0, 4, 2), (6, 0, 10, 2), 3.0) == (-0.5, 0.0)

    def test_gap_equal_d_min_not_in_conflict(self):
        # The scan gates the rule: a gap of exactly d_min is no conflict.
        layout = label_layout(labels_from_rects([Rect(0, 0, 4, 2), Rect(6, 0, 10, 2)]))
        assert conflicting_label_pairs(*layout, 2.0) == []
        assert conflicting_label_pairs(*layout, 3.0) == [(0, 1)]

    def test_corner_case(self):
        fx, fy = _separation((0, 0, 2, 2), (3, 3, 5, 5), 2.0)
        gap = math.sqrt(2.0)
        expected = 0.5 * (2.0 - gap)
        assert math.hypot(fx, fy) == pytest.approx(expected)
        assert fx == pytest.approx(-expected / math.sqrt(2))
        assert fy == pytest.approx(-expected / math.sqrt(2))

    def test_overlapping_take_the_overlap_rule(self):
        # Overlapping rects are in conflict, and the pair force is the
        # overlap rule's, not the separation rule's.
        a, b = Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)
        assert conflicting_label_pairs(*label_layout(labels_from_rects([a, b])), 1.0) == [(0, 1)]
        assert _pair_force(_row(a), _row(b), 1.0) == _overlap(_row(a), _row(b), 1.0)

    def test_newton_pair_on_random_conflicts(self, rng):
        # The assembly gives the two labels of a pair opposite forces.
        count = 0
        while count < 2000:
            a, b = disjoint_rect_pair(rng)
            gap = rect_distance(a, b)
            if gap >= 5.0:
                continue
            fa, fb = pair_totals(a, b, 5.0)
            assert fa.x == -fb.x and fa.y == -fb.y
            assert fa.norm() == pytest.approx(0.5 * (RESOLVE_TARGET_FACTOR * 5.0 - gap), rel=1e-12)
            count += 1


class TestOverlapForce:
    def test_worked_example(self):
        assert _overlap((0, 0, 10, 4), (8, 1, 20, 5), 1.0) == (-1.5, 0.0)

    def test_identical_rects_tie_break(self):
        assert _overlap((0, 0, 2, 2), (0, 0, 2, 2), 0.0) == (-1.0, 0.0)

    def test_disjoint_not_in_conflict(self):
        layout = label_layout(labels_from_rects([Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)]))
        assert conflicting_label_pairs(*layout, 1.0) == []

    def test_double_displacement_resolves(self, rng):
        # Moving each rect by twice its force (b's is the negation of a's)
        # separates them to exactly d_min along the chosen axis.
        d_min = 0.7
        for _ in range(400):
            a, b = overlapping_rect_pair(rng)
            f = Vec2(*_overlap(_row(a), _row(b), d_min))
            a2 = a.translated(f * 2.0)
            b2 = b.translated(f * -2.0)
            assert not interiors_overlap(a2, b2)
            assert rect_distance(a2, b2) >= d_min - 1e-9

    def test_newton_pairs(self, rng):
        for _ in range(400):
            a, b = overlapping_rect_pair(rng)
            fa, fb = pair_totals(a, b, 0.5)
            assert fa.x == -fb.x and fa.y == -fb.y


class TestPointRepulsionCandidates:
    def test_not_in_conflict(self):
        # The scan gates the rule: the symbol lies 2 mm from the label.
        labels, features = _symbol_scene(Rect(7, 2, 15, 6), 5.0, 5.0)
        assert point_rect_signed_clearance(features[1].anchor, labels[0].rect) == 2.0
        assert conflicting_feature_pairs(*scene_layout(labels, features), 1.0) == []

    def test_point_inside_rect(self):
        cands = _escapes((7, 2, 15, 6), 8.0, 4.0, 0.0, 1.0)
        assert cands == [(-8.0, 0.0), (2.0, 0.0), (0.0, -3.0), (0.0, 3.0)]

    def test_center_of_square_symmetric(self):
        cands = _escapes((0, 0, 4, 4), 2.0, 2.0, 0.0, 0.5)
        mags = sorted(math.hypot(x, y) for x, y in cands)
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
            for cand in _escapes(_row(rect), p.x, p.y, radius, d_min):
                moved = rect.translated(Vec2(*cand))
                clearance = point_rect_signed_clearance(p, moved) - radius
                assert clearance >= d_min - 1e-9


class TestComposePointForces:
    def test_single_feature_min_candidate(self):
        assert _compose([[(-8.0, 0.0), (2.0, 0.0), (0.0, -3.0), (0.0, 3.0)]]) == (2.0, 0.0)

    def test_no_conflicting_symbol_no_point_force(self):
        # A label with no symbol in conflict composes nothing: the same
        # label and symbol as above, 2 mm apart at d_min 1.
        labels, features = _symbol_scene(Rect(7, 2, 15, 6), 5.0, 5.0)
        leader = LeaderSpec(kind=LeaderType.FIXED_DIR_FIXED_CONN)
        cfg = LayoutConfig(screen=Rect(-50, -50, 100, 100), d_min=1.0, leader=leader)
        rects, arrays = scene_layout(labels, features)
        fa = assemble_forces(features, cfg, conflict_pairs(rects, arrays, cfg.d_min), rects, arrays)
        assert fa.totals.tolist() == [[0.0, 0.0]]
        assert fa.group_sources == (frozenset(),)

    def _oracle(self, candidate_sets):
        best_adm = None
        best_any = None
        for combo in itertools.product(*candidate_sets):
            sx = sum(x for x, _ in combo)
            sy = sum(y for _, y in combo)
            mag2 = sx * sx + sy * sy
            admissible = all(
                ax * bx + ay * by >= 0.0 for (ax, ay), (bx, by) in itertools.combinations(combo, 2)
            )
            if best_any is None or mag2 < best_any[0]:
                best_any = (mag2, (sx, sy))
            if admissible and (best_adm is None or mag2 < best_adm[0]):
                best_adm = (mag2, (sx, sy))
        return best_adm[1] if best_adm is not None else best_any[1]

    def test_two_features_against_enumeration(self):
        base = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        scaled = [(2.0 * x, 2.0 * y) for x, y in base]
        assert _compose([base, scaled]) == self._oracle([base, scaled])

    def test_random_cases_against_enumeration(self, rng):
        for _ in range(500):
            k = rng.randint(2, 3)
            sets = []
            for _ in range(k):
                mx = rng.uniform(0.5, 4.0)
                my = rng.uniform(0.5, 4.0)
                sets.append([(-mx, 0.0), (mx * rng.uniform(0.5, 1.5), 0.0),
                             (0.0, -my), (0.0, my * rng.uniform(0.5, 1.5))])
            result = _compose(sets)
            expected = self._oracle(sets)
            assert math.hypot(*result) == pytest.approx(math.hypot(*expected), rel=1e-12)

    def test_identical_sets_bounded_by_sum_of_minima(self):
        base = [(-3.0, 0.0), (1.0, 0.0), (0.0, -2.0), (0.0, 2.0)]
        result = _compose([base, base])
        min_mag = min(math.hypot(x, y) for x, y in base)
        assert math.hypot(*result) <= 2 * min_mag + 1e-12

    def test_scaling_invariance_of_argmin(self):
        base = [(-8.0, 0.0), (2.0, 0.0), (0.0, -3.0), (0.0, 3.0)]
        scaled = [(7.5 * x, 7.5 * y) for x, y in base]
        assert _compose([scaled]) == (15.0, 0.0)


def _xy(vecs) -> list[tuple[float, float]]:
    """Vec2 candidates as the float rules take and give them."""
    return [(v.x, v.y) for v in vecs]


def _same_bits(got, oracle, *args) -> None:
    """A float rule's (x, y) equals, to the bit, the Vec2 the oracle gives
    for args (the first, for a pair); or, where the oracle's `Vec2` rejects
    a component that is not finite, has those components."""
    try:
        want = oracle(*args)
    except ValueError as exc:
        assert str(exc) == f"non-finite vector component ({got[0]!r}, {got[1]!r})"
        return
    want = want[0] if isinstance(want, tuple) else want
    assert np.array(got).tobytes() == np.array([want.x, want.y]).tobytes()


# Coordinates on a small integer grid make equal magnitudes and touching
# edges common; the floats in between cover the general case.
grid = st.integers(0, 6).map(float) | st.floats(-8.0, 8.0, allow_subnormal=False)


@st.composite
def grid_rects(draw) -> Rect:
    x0, y0 = draw(grid), draw(grid)
    return Rect(x0, y0, x0 + abs(draw(grid)), y0 + abs(draw(grid)))


def _ulps(x: float, k: int) -> float:
    """x moved by k units in the last place."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


class TestFloatRulesMatchOracles:
    """The float rules the assembly runs against the rules as they were
    written on `Rect`s and `Vec2`s (`conftest.reference_*`): the same
    bits. The scans decide which pairs the rules run on."""

    def test_overlap_every_tie_on_a_grid(self):
        # Every pair of rects with corners on a 4 x 4 grid: each order of
        # equal smallest magnitudes (-x, +x, -y, +y) occurs.
        spans = [(lo, hi) for lo in range(4) for hi in range(lo, 4)]
        rects = [Rect(x0, y0, x1, y1) for x0, x1 in spans for y0, y1 in spans]
        ties = set()
        for a, b in itertools.product(rects, repeat=2):
            if not interiors_overlap(a, b):
                continue
            for d_min in (0.0, 0.5, 1.0):
                _same_bits(_overlap(_row(a), _row(b), d_min), reference_overlap_force, a, b, d_min)
                mags = [abs(m) for m in (a.x_max - b.x_min, b.x_max - a.x_min,
                                         a.y_max - b.y_min, b.y_max - a.y_min)]
                ties.add(tuple(k for k in range(4) if mags[k] == min(mags)))
        assert {(0,), (1,), (2,), (3,), (0, 1), (2, 3), (0, 2), (1, 3), (0, 1, 2, 3)} <= ties

    @settings(max_examples=400, deadline=None)
    @given(grid_rects(), grid_rects(), st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 4.0))
    def test_pair_rules(self, a, b, d_min):
        oracle = reference_overlap_force if interiors_overlap(a, b) else reference_separation_force
        _same_bits(_pair_force(_row(a), _row(b), d_min), oracle, a, b, d_min)

    @settings(max_examples=300, deadline=None)
    @given(grid_rects(), st.floats(0.0, 5.0), st.floats(-3.0, 3.0), st.booleans(), st.floats(0.01, 3.0))
    def test_touching_rects_take_the_center_line(self, a, width, shift, vertical, d_min):
        # b shares an edge of a (gap 0), or, when both are degenerate at one
        # point, a's center (the +x fallback).
        if vertical:
            b = Rect(a.x_min + shift, a.y_max, a.x_min + shift + width, a.y_max + 1.0)
        else:
            b = Rect(a.x_max, a.y_min + shift, a.x_max + 1.0, a.y_min + shift + width)
        for p, q in ((a, b), (b, a), (Rect(a.x_min, a.y_min, a.x_min, a.y_min),) * 2):
            _same_bits(_separation(_row(p), _row(q), d_min), reference_separation_force, p, q, d_min)
        concentric = Rect(a.x_min, a.y_min, a.x_max, a.y_min)
        assert reference_separation_force(concentric, concentric, d_min)[0].y == 0.0
        got = _separation(_row(concentric), _row(concentric), d_min)
        _same_bits(got, reference_separation_force, concentric, concentric, d_min)

    @settings(max_examples=400, deadline=None)
    @given(
        grid_rects(),
        st.integers(-4, 4),
        st.booleans(),
        st.floats(0.0, 2.0),
        st.sampled_from([0.2, 1.0, 0.1 * 3]),
    )
    def test_separation_gaps_near_zero_and_the_target(self, a, ulps, near_target, across, d_min):
        # b lies right of a, across above its top edge, its gap a few ulps
        # from 0 or from d_min.
        edge = _ulps(a.x_max + (d_min if near_target else 0.0), ulps)
        b = Rect(max(edge, a.x_max), a.y_max + across, max(edge, a.x_max) + 2.0, a.y_max + across + 1.0)
        _same_bits(_separation(_row(a), _row(b), d_min), reference_separation_force, a, b, d_min)
        _same_bits(_separation(_row(b), _row(a), d_min), reference_separation_force, b, a, d_min)

    @settings(max_examples=400, deadline=None)
    @given(grid_rects(), grid, grid, st.sampled_from([0.0, 0.45, 1.0]), st.sampled_from([0.2, 1.0]) | st.floats(0.0, 3.0))
    def test_escapes(self, rect, x, y, radius, d_min):
        got = _escapes(_row(rect), x, y, radius, d_min)
        want = reference_point_repulsion_candidates(rect, Vec2(x, y), radius, d_min)
        assert np.array(got).tobytes() == np.array(_xy(want)).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from([1.0, 2.0, 0.5])] * 4), min_size=1, max_size=8))
    def test_compose_equal_magnitudes(self, mags):
        # Axis escapes as the symbols give them, their magnitudes often equal.
        sets = [[Vec2(-a, 0.0), Vec2(b, 0.0), Vec2(0.0, -c), Vec2(0.0, d)] for a, b, c, d in mags]
        _same_bits(_compose([_xy(c) for c in sets]), reference_compose_point_forces, sets)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from([Vec2(1.0, 0.0), Vec2(-1.0, 0.0), Vec2(-2.0, 0.5), Vec2(0.5, -3.0)]),
                     min_size=1, max_size=2),
            min_size=1, max_size=8,
        )
    )
    def test_compose_with_and_without_an_admissible_selection(self, sets):
        _same_bits(_compose([_xy(c) for c in sets]), reference_compose_point_forces, sets)

    def test_compose_falls_back_when_no_selection_is_admissible(self):
        sets = [[Vec2(1.0, 0.0)], [Vec2(-3.0, 0.0)], [Vec2(-1.0, 0.0), Vec2(0.5, 0.0)]]
        assert reference_compose_point_forces(sets) == Vec2(-1.5, 0.0)
        assert _compose([_xy(c) for c in sets]) == (-1.5, 0.0)

    @pytest.mark.parametrize("sets", [[[]], [[(1.0, 0.0)], []]], ids=["only", "second"])
    def test_compose_rejects_an_empty_candidate_set(self, sets):
        with pytest.raises(ValueError):
            _compose(sets)

    def test_compose_rejects_an_empty_candidate_set_under_optimize(self):
        # The check does not rest on an assert, so `python -O` keeps it.
        code = (
            "from leaderlabels.forces import _compose as c\n"
            "for sets in ([[]], [[(1.0, 0.0)], []]):\n"
            "    try:\n        c(sets)\n    except ValueError:\n        continue\n"
            "    raise SystemExit('no ValueError')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        subprocess.run([sys.executable, "-O", "-c", code], check=True, env=env)


def _label(rect: Rect, feature_id: str = "f0") -> Label:
    return Label(feature_id=feature_id, rect=rect, conn=Vec2(0, 0), font_size=10.0)


class TestAttachmentForce:
    leader = LeaderSpec(length=10.0, direction=90.0, kind=LeaderType.FIXED_DIR_FREE_CONN)

    def pull(self, rect: Rect, leader: LeaderSpec | None = None) -> list[float]:
        """`attachment_forces` of one label at rect, its anchor at (10, 0)."""
        rows = np.array([_row(rect)])
        return attachment_forces(rows, np.array([[10.0, 0.0]]), leader or self.leader)[0].tolist()

    def test_missed_to_the_right(self):
        assert self.pull(Rect(12, 20, 20, 24)) == [-2.0, 0.0]

    def test_missed_to_the_left(self):
        assert self.pull(Rect(2, 20, 8, 24)) == [2.0, 0.0]

    def test_ray_hits_edge_no_force(self):
        assert self.pull(Rect(5, 20, 15, 24)) == [0.0, 0.0]

    def test_applying_force_reattaches(self):
        rect = Rect(12, 20, 20, 24)
        moved = rect.translated(Vec2(*self.pull(rect)))
        assert moved.x_min <= 10.0 <= moved.x_max

    def test_free_direction_type_gets_no_force(self):
        leader2 = LeaderSpec(kind=LeaderType.FREE_DIR_FIXED_CONN)
        assert self.pull(Rect(12, 20, 20, 24), leader2) == [0.0, 0.0]


class TestScreenForce:
    screen = Rect(0, 0, 100, 100)

    def push(self, rect: Rect) -> list[float]:
        """`screen_forces` of one label at rect, at d_min 2."""
        return screen_forces(np.array([_row(rect)]), self.screen, 2.0)[0].tolist()

    def test_near_left_edge(self):
        assert self.push(Rect(1, 40, 5, 44)) == [1.0, 0.0]

    def test_fully_inside(self):
        assert self.push(Rect(40, 40, 60, 60)) == [0.0, 0.0]

    def test_crossing_edge(self):
        assert self.push(Rect(-3, 40, 2, 44)) == [5.0, 0.0]

    def test_corner_sums_both_axes(self):
        assert self.push(Rect(1, 1, 5, 5)) == [1.0, 1.0]

    def test_oversized_label_rejected(self):
        # The fit check rejects it; the push alone reads both edges.
        rect = Rect(0, 40, 99, 44)
        with pytest.raises(LabelLargerThanScreenError):
            check_screen_fit(np.array([_row(rect)]), self.screen, 2.0)
        assert self.push(rect) == [1.0, 0.0]


class TestConflictScan:
    def test_matches_brute_force(self, rng):
        for _ in range(20):
            labels = random_labels(rng, 25, span=120.0)
            d_min = rng.uniform(0.1, 3.0)
            got = conflicting_label_pairs(*label_layout(labels), d_min)
            assert got == brute_force_label_conflicts(labels, d_min)

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
            got = conflicting_feature_pairs(*scene_layout(labels, features), 0.5)
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
        assert conflicting_feature_pairs(*scene_layout(labels, features), d_min) == (
            brute_force_feature_conflicts(labels, features, d_min)
        )

    def test_hypot_last_bit_decides(self):
        # A radius-0 symbol off the label's top-right corner by (gx, gy):
        # the same gaps as the label scan's last-bit test, so np.hypot is
        # one ulp low on the first and one ulp high on the second.
        for gx, gy, d_min, want in (
            (0.03546964032188504, 0.060851756668864554, 0.07043459146080565, []),
            (0.1151024984279273, 0.8850600703796611, 0.8925132566661415, [(0, 1)]),
        ):
            labels = labels_from_rects([Rect(-1.0, -1.0, 0.0, 0.0)])
            features = [
                PointFeature(id="f0", anchor=Vec2(-0.5, -2.0), depth=100, text="T"),
                PointFeature(id="s", anchor=Vec2(gx, gy), depth=100, text="T", symbol_radius=0.0),
            ]
            clearance = point_rect_signed_clearance(features[1].anchor, labels[0].rect)
            assert clearance == math.hypot(gx, gy)
            assert conflicting_feature_pairs(*scene_layout(labels, features), d_min) == want

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
        got = conflicting_feature_pairs(*scene_layout(labels, features), 0.5)
        assert got == [(0, 1), (0, 2), (0, 4)]
        deleted = [labels[0], dataclasses.replace(labels[1], deleted=True)]
        assert conflicting_feature_pairs(*scene_layout(deleted, features), 0.5) == [(0, 1), (0, 2)]


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
        got = conflicting_label_pairs(*label_layout(labels), d_min)
        assert got == _all_label_pairs(labels, d_min)

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
            assert conflicting_label_pairs(*label_layout(labels), d_min) == want

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_row_blocks_change_nothing(self, rng, block):
        labels = random_labels(rng, 40, span=90.0)
        features = [
            PointFeature(id=f"s{k}", anchor=Vec2(rng.uniform(0, 100), rng.uniform(0, 100)),
                         depth=100.0, text="T")
            for k in range(30)
        ]
        want = conflict_pairs(*scene_layout(labels, features), 0.8)
        with mock.patch.object(geometry, "BLOCK_ELEMENTS", block):
            assert conflict_pairs(*scene_layout(labels, features), 0.8) == want
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
    """`attachment_forces` and `screen_forces` against the scalar reference
    forces, label by label, and `check_screen_fit` against the fit test
    written on `Rect`s."""

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
            assert Vec2(fx, fy) == reference_attachment_force(_label(r), feature, leader)

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
        got = screen_forces(_rect_rows(rects), screen, d_min)
        assert [Vec2(fx, fy) for fx, fy in got.tolist()] == [
            reference_screen_force(r, screen, d_min) for r in rects
        ]
        large = [
            r for r in rects
            if r.width > screen.width - 2.0 * d_min or r.height > screen.height - 2.0 * d_min
        ]
        if not large:
            check_screen_fit(_rect_rows(rects), screen, d_min)
            return
        message = (
            f"label {large[0].width:.3f}x{large[0].height:.3f} mm cannot keep {d_min} mm "
            f"clearance inside a {screen.width:.3f}x{screen.height:.3f} mm screen"
        )
        with pytest.raises(LabelLargerThanScreenError, match=re.escape(message)):
            check_screen_fit(_rect_rows(rects), screen, d_min)


def scene_config(**kw) -> LayoutConfig:
    kw.setdefault("screen", Rect(0, 0, 200, 150))
    return LayoutConfig(**kw)


def totals(fa) -> list[Vec2]:
    """The assignment's (n, 2) totals as one Vec2 per label."""
    return [Vec2(x, y) for x, y in fa.totals.tolist()]


def assemble(labels, features, cfg, pairs=None):
    """`assemble_forces` of the labels, with their own conflict pairs
    unless pairs is given."""
    rects, arrays = scene_layout(labels, features)
    if pairs is None:
        pairs = conflict_pairs(rects, arrays, cfg.d_min)
    return assemble_forces(features, cfg, pairs, rects, arrays)


def same_assignment(a, b) -> bool:
    return np.array_equal(a.totals, b.totals) and a.group_sources == b.group_sources


class TestAssembleForces:
    def test_conflict_free_scene_all_zero(self):
        labels = labels_from_rects([Rect(10, 10, 20, 14), Rect(50, 50, 62, 54)])
        features = [
            PointFeature(id="f0", anchor=Vec2(15, 2), depth=100, text="A"),
            PointFeature(id="f1", anchor=Vec2(55, 40), depth=100, text="B"),
        ]
        fa = assemble(labels, features, scene_config())
        assert all(f == Vec2(0.0, 0.0) for f in totals(fa))
        assert max(f.norm() for f in totals(fa)) == 0.0

    def test_given_pairs_replace_the_scans(self, rng):
        labels = random_labels(rng, 20, span=60.0)
        features = [
            PointFeature(id=f"f{i}", anchor=lbl.rect.center(), depth=100.0, text="T")
            for i, lbl in enumerate(labels)
        ]
        cfg = scene_config()
        pairs = conflict_pairs(*scene_layout(labels, features), cfg.d_min)
        assert pairs.labels and pairs.features
        assert same_assignment(
            assemble(labels, features, cfg, pairs), assemble(labels, features, cfg)
        )
        # The forces follow the pairs handed in, not a fresh scan.
        assert not same_assignment(
            assemble(labels, features, cfg, ConflictPairs([], [])),
            assemble(labels, features, cfg),
        )

    def test_single_overlap_equals_the_overlap_rule(self):
        r1, r2 = Rect(50, 50, 60, 54), Rect(58, 51, 70, 55)
        labels = labels_from_rects([r1, r2])
        features = [
            PointFeature(id="f0", anchor=Vec2(55, 30), depth=100, text="A"),
            PointFeature(id="f1", anchor=Vec2(64, 30), depth=100, text="B"),
        ]
        cfg = scene_config()
        fa = assemble(labels, features, cfg)
        fx, fy = _overlap(_row(r1), _row(r2), RESOLVE_TARGET_FACTOR * cfg.d_min)
        assert totals(fa)[0] == Vec2(fx, fy)
        assert totals(fa)[1] == Vec2(-fx, -fy)

    def test_deleted_labels_get_zero(self):
        labels = labels_from_rects([Rect(50, 50, 60, 54), Rect(58, 51, 70, 55)])
        labels[1] = Label(
            feature_id="f1", rect=labels[1].rect, conn=labels[1].conn, font_size=10.0, deleted=True
        )
        features = [
            PointFeature(id="f0", anchor=Vec2(55, 30), depth=100, text="A"),
            PointFeature(id="f1", anchor=Vec2(64, 30), depth=100, text="B"),
        ]
        fa = assemble(labels, features, scene_config())
        assert totals(fa)[1] == Vec2(0.0, 0.0)
        assert totals(fa)[0] == Vec2(0.0, 0.0)  # partner deleted, no pair conflict

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
            fa = assemble(labels, features, cfg)
            for i, lbl in enumerate(labels):
                expected = Vec2(0.0, 0.0)
                for j, other in enumerate(labels):
                    if j == i:
                        continue
                    ri, rj = lbl.rect, other.rect
                    if interiors_overlap(ri, rj):
                        expected = expected + reference_overlap_force(ri, rj, target)[0]
                    elif rect_distance(ri, rj) < cfg.d_min:
                        expected = expected + reference_separation_force(ri, rj, target)[0]
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
                        reference_point_repulsion_candidates(lbl.rect, f.anchor, f.symbol_radius, target)
                    )
                if cand_sets:
                    expected = expected + reference_compose_point_forces(cand_sets)
                feature = next(f for f in features if f.id == lbl.feature_id)
                expected = expected + reference_attachment_force(lbl, feature, cfg.leader)
                expected = expected + reference_screen_force(lbl.rect, cfg.screen, cfg.d_min)
                assert totals(fa)[i].x == pytest.approx(expected.x, abs=1e-9)
                assert totals(fa)[i].y == pytest.approx(expected.y, abs=1e-9)

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
            fa = assemble(labels, features, cfg)
            has_conflict = bool(
                conflicting_label_pairs(*label_layout(labels), cfg.d_min)
                or conflicting_feature_pairs(*scene_layout(labels, features), cfg.d_min)
            )
            # Label k's feature is features[k].
            rects, anchors = label_layout(labels)[0], points_array(f.anchor for f in features)
            has_screen_violation = screen_forces(rects, cfg.screen, cfg.d_min).any()
            has_attachment_miss = attachment_forces(rects, anchors, cfg.leader).any()
            expected_nonzero = has_conflict or has_screen_violation or has_attachment_miss
            assert (max(f.norm() for f in totals(fa)) > 0) == expected_nonzero

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
        fa = assemble(labels, features, cfg)
        assert fa.group_sources == ({"attachment", "pair", "point", "screen"},)

        r0, r1, r2 = (_row(r) for r in rects)
        anchor, symbol = features[1].anchor, features[2].anchor
        sx, sy = _separation(r0, r1, target)
        parts = [
            attachment_forces(np.array([r1]), np.array([[anchor.x, anchor.y]]), cfg.leader)[0].tolist(),
            (-sx, -sy),
            _overlap(r1, r2, target),
            _compose([_escapes(r1, symbol.x, symbol.y, features[2].symbol_radius, target)]),
            screen_forces(np.array([r1]), cfg.screen, cfg.d_min)[0].tolist(),
        ]
        assert all(math.hypot(*p) > 0 for p in parts)
        tx = ty = 0.0
        for px, py in parts:
            tx += px
            ty += py
        assert totals(fa)[1] == Vec2(tx, ty)


@st.composite
def grouped_scenes(draw):
    """A synthetic scene's starting labels, a few deleted, with each live
    slot given one of up to four groups; slot k holds feature k's label,
    as in `optimizer.run`."""
    from leaderlabels.scene import initial_layout
    from leaderlabels.scenefile import synthetic_scene

    n = draw(st.integers(2, 25))
    features, cfg = synthetic_scene(n, draw(st.integers(0, 10_000)), screen=(120.0, 80.0))
    kind = LeaderType(draw(st.integers(1, 4)))
    cfg = dataclasses.replace(cfg, leader=dataclasses.replace(cfg.leader, kind=kind))
    dead = draw(st.sets(st.integers(0, n - 1), max_size=n // 4))
    labels = [
        dataclasses.replace(l, deleted=True) if k in dead else l
        for k, l in enumerate(initial_layout(features, cfg))
    ]
    group = np.array([-1 if k in dead else draw(st.integers(0, 3)) for k in range(n)])
    return labels, features, cfg, group


class TestGroupedScansAndAssembly:
    """One scan or assembly over several groups' labels gives each group
    what its own labels alone give."""

    @staticmethod
    def grouped(arrays, group):
        """arrays with the live labels and their symbols listed group by
        group (groups 0-3, some of them empty), and where each group
        begins."""
        order = arrays.live[np.argsort(group[arrays.live], kind="stable")]
        starts = np.searchsorted(group[order], np.arange(4))
        symbols = np.searchsorted(arrays.index, order)
        grouped = arrays._replace(
            live=order, index=order, ids=arrays.ids[symbols], symbols=arrays.symbols[symbols]
        )
        return grouped, starts

    @settings(max_examples=150, deadline=None)
    @given(grouped_scenes(), st.sampled_from([1, 64, 1 << 14]))
    def test_scans_keep_each_pair_within_its_group(self, scene, block):
        labels, features, cfg, group = scene
        rects, arrays = scene_layout(labels, features)
        every = conflict_pairs(rects, arrays, cfg.d_min)
        grouped, starts = self.grouped(arrays, group)
        with mock.patch.object(geometry, "GROUP_BLOCK_ELEMENTS", block):
            got = conflict_pairs(rects, grouped, cfg.d_min, starts)
        assert got.labels == [(i, j) for i, j in every.labels if group[i] == group[j]]
        assert got.features == [(i, k) for i, k in every.features if group[i] == group[k]]

    @settings(max_examples=150, deadline=None)
    @given(grouped_scenes())
    def test_each_group_gets_its_own_forces_and_sources(self, scene):
        labels, features, cfg, group = scene
        rects, arrays = scene_layout(labels, features)
        grouped, starts = self.grouped(arrays, group)
        pairs = conflict_pairs(rects, grouped, cfg.d_min, starts)
        whole = assemble_forces(features, cfg, pairs, rects, grouped, group, 4)
        (every,) = assemble_forces(features, cfg, pairs, rects, arrays).group_sources
        assert frozenset().union(*whole.group_sources) == every
        for g, got in enumerate(whole.group_sources):
            mine = np.flatnonzero(group == g)
            own = set(mine.tolist())
            alone = assemble_forces(
                features,
                cfg,
                ConflictPairs(*([p for p in found if p[0] in own] for found in pairs)),
                rects,
                arrays._replace(live=mine),
            )
            assert whole.totals[mine].tobytes() == alone.totals[mine].tobytes()
            assert got is alone.group_sources[0]


class TestKernelMatchesReference:
    """`assemble_forces` gives, on every step of a run, the totals and the
    group sources of the assembly it replaced
    (`conftest.reference_assemble_forces`), to the bit."""

    @pytest.mark.parametrize("kind", list(LeaderType))
    @pytest.mark.parametrize("direction", [90.0, 30.0])
    @pytest.mark.parametrize("t_num", [None, 10])
    @pytest.mark.parametrize("n, seed", [(47, 0), (76, 1), (120, 2)])
    def test_every_step_of_a_run(self, monkeypatch, n, seed, t_num, direction, kind):
        from leaderlabels import optimizer
        from leaderlabels.scenefile import synthetic_scene

        features, cfg = synthetic_scene(n, seed)
        leader = dataclasses.replace(cfg.leader, kind=kind, direction=direction)
        cfg = dataclasses.replace(cfg, t_num=t_num, leader=leader)
        steps, sources = [], set()

        def checked(*args):
            got, want = assemble_forces(*args), reference_assemble_forces(*args)
            assert np.array_equal(got.totals.view(np.int64), want.totals.view(np.int64))
            assert got.group_sources == want.group_sources
            steps.append(bool(args[2].labels or args[2].features))
            sources.update(*got.group_sources)
            return got

        monkeypatch.setattr(optimizer, "assemble_forces", checked)
        optimizer.run(features, cfg)
        # Every run has steps with conflicting pairs; the drifting leaders
        # at 30 degrees also pull labels back.
        assert any(steps) and {"pair", "point"} <= sources
        if kind is LeaderType.FIXED_DIR_FREE_CONN and direction == 30.0:
            assert "attachment" in sources

    def test_a_label_with_more_symbols_than_it_composes(self, rng):
        # Label 0 covers up to 12 foreign symbols, more than
        # MAX_COMPOSED_FEATURES; the others' labels sit apart in a row.
        cfg = scene_config()
        for _ in range(20):
            k = rng.randint(9, 12)
            rects = [Rect(40, 40, 60, 52)] + [Rect(5 + 14 * j, 120, 15 + 14 * j, 124) for j in range(k)]
            anchors = [Vec2(50, 30)] + [
                Vec2(rng.choice([40.0, 50.0, 60.0, rng.uniform(40, 60)]), rng.uniform(40, 52))
                for _ in range(k)
            ]
            features = [
                PointFeature(id=f"f{j}", anchor=a, depth=100, text="T", symbol_radius=rng.choice([0.0, 0.45]))
                for j, a in enumerate(anchors)
            ]
            rects_array, arrays = scene_layout(labels_from_rects(rects), features)
            pairs = conflict_pairs(rects_array, arrays, cfg.d_min)
            assert len([p for p in pairs.features if p[0] == 0]) > MAX_COMPOSED_FEATURES
            got = assemble_forces(features, cfg, pairs, rects_array, arrays)
            want = reference_assemble_forces(features, cfg, pairs, rects_array, arrays)
            assert got.totals.tobytes() == want.totals.tobytes()
            assert got.group_sources == want.group_sources
