import math

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from leaderlabels.geometry import Rect, Vec2
from leaderlabels.metrics import (
    build_report,
    count_conflicts,
    direction_deviation,
    edge_direction_deviations,
    mean_direction_deviation,
    total_displacement_cm,
)
from leaderlabels.optimizer import reference_graph, run
from leaderlabels.proximity import ProximityGraph, delaunay_graph
from leaderlabels.scene import Label, PointFeature, initial_layout, label_rects, live_slots
from leaderlabels.scenefile import synthetic_scene

from conftest import (
    brute_force_feature_conflicts,
    brute_force_label_conflicts,
    label_layout,
    labels_from_rects,
    random_labels,
    reference_edge_direction_deviations,
    scene_layout,
)

angles = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)


class TestDirectionDeviation:
    def test_wraparound_branch(self):
        assert direction_deviation(170.0, 10.0) == pytest.approx(20.0)

    def test_identity(self):
        assert direction_deviation(42.0, 42.0) == 0.0

    def test_perpendicular_boundary(self):
        assert direction_deviation(0.0, 90.0) == pytest.approx(90.0)

    @given(angles, angles)
    def test_symmetric(self, a, b):
        assert direction_deviation(a, b) == pytest.approx(direction_deviation(b, a))

    @given(angles, angles)
    def test_invariant_under_half_turn(self, a, b):
        assert direction_deviation(a + 180.0, b) == pytest.approx(direction_deviation(a, b))

    @given(angles, angles)
    def test_range(self, a, b):
        d = direction_deviation(a, b)
        assert 0.0 <= d <= 90.0


class TestCountConflicts:
    def test_pair_below_threshold(self):
        labels = labels_from_rects([Rect(0, 0, 4, 2), Rect(6, 0, 10, 2)])
        features = [
            PointFeature(id="f0", anchor=Vec2(2, -20), depth=100, text="A"),
            PointFeature(id="f1", anchor=Vec2(8, -20), depth=100, text="B"),
        ]
        assert count_conflicts(*scene_layout(labels, features), d_min=3.0) == (1, 0)
        assert count_conflicts(*scene_layout(labels, features), d_min=2.0) == (0, 0)

    def test_foreign_feature_overlap(self):
        labels = labels_from_rects([Rect(0, 0, 4, 2)])
        features = [
            PointFeature(id="f0", anchor=Vec2(2, -20), depth=100, text="A"),
            PointFeature(id="fX", anchor=Vec2(2, 1), depth=100, text="B"),
        ]
        assert count_conflicts(*scene_layout(labels, features), d_min=0.2) == (0, 1)

    def test_own_feature_ignored(self):
        labels = labels_from_rects([Rect(0, 0, 4, 2)])
        features = [PointFeature(id="f0", anchor=Vec2(2, 1), depth=100, text="A")]
        assert count_conflicts(*scene_layout(labels, features), d_min=0.2) == (0, 0)

    def test_matches_brute_force_on_random_scenes(self, rng):
        for _ in range(15):
            labels = random_labels(rng, 20, span=100.0)
            features = [
                PointFeature(
                    id=f"f{i}",
                    anchor=Vec2(rng.uniform(0, 110), rng.uniform(0, 110)),
                    depth=100.0,
                    text="T",
                )
                for i in range(20)
            ]
            d_min = rng.uniform(0.1, 2.0)
            n_rr, n_rp = count_conflicts(*scene_layout(labels, features), d_min)
            assert n_rr == len(brute_force_label_conflicts(labels, d_min))
            assert n_rp == len(brute_force_feature_conflicts(labels, features, d_min))


def _move(labels, idx, d: Vec2):
    out = list(labels)
    lbl = labels[idx]
    out[idx] = Label(
        feature_id=lbl.feature_id,
        rect=lbl.rect.translated(d),
        conn=lbl.conn + d,
        font_size=lbl.font_size,
        deleted=lbl.deleted,
    )
    return out


class TestMeanDirectionDeviation:
    def test_identity_layout_zero(self, rng):
        labels = random_labels(rng, 10)
        g = delaunay_graph(*label_layout(labels))
        assert mean_direction_deviation(label_rects(labels), label_rects(labels), g) == 0.0

    def test_single_edge_rotation(self):
        labels = labels_from_rects([Rect(0, 0, 2, 2), Rect(10, 0, 12, 2)])
        g = delaunay_graph(*label_layout(labels))
        assert len(g.edges) == 1
        # Rotate the edge by 10 degrees around the first center.
        length = 10.0
        final = _move(
            labels,
            1,
            Vec2(length * (math.cos(math.radians(10)) - 1.0), length * math.sin(math.radians(10))),
        )
        got = mean_direction_deviation(label_rects(labels), label_rects(final), g)
        assert got == pytest.approx(10.0, abs=1e-9)

    def test_empty_graph_is_zero(self):
        labels = labels_from_rects([Rect(0, 0, 2, 2)])
        g = delaunay_graph(*label_layout(labels))
        assert mean_direction_deviation(label_rects(labels), label_rects(labels), g) == 0.0

    def test_matches_per_edge_recomputation(self, rng):
        labels = random_labels(rng, 15)
        g = delaunay_graph(*label_layout(labels))
        final = list(labels)
        for i in range(len(final)):
            final = _move(final, i, Vec2(rng.uniform(-4, 4), rng.uniform(-4, 4)))
        expected = []
        for i, j in g.edges.tolist():
            p0 = labels[i].rect.center()
            q0 = labels[j].rect.center()
            p1 = final[i].rect.center()
            q1 = final[j].rect.center()
            o0 = math.degrees(math.atan2(q0.y - p0.y, q0.x - p0.x)) % 180.0
            o1 = math.degrees(math.atan2(q1.y - p1.y, q1.x - p1.x)) % 180.0
            expected.append(direction_deviation(o0, o1))
        got = mean_direction_deviation(label_rects(labels), label_rects(final), g)
        assert got == pytest.approx(sum(expected) / len(expected), abs=1e-9)


# Centres on a coarse grid, so that endpoints often coincide in one or both
# layouts.
_corner = st.integers(-4, 4).map(float)


@st.composite
def two_layouts(draw):
    """Two layouts of the same labels, rects on a coarse grid, and a graph
    of any pairs of them, self-loops included."""
    n = draw(st.integers(1, 8))

    def rects():
        out = []
        for _ in range(n):
            x, y = draw(_corner), draw(_corner)
            w = draw(st.sampled_from([0.0, 1.0, 2.0, 0.5]))
            h = draw(st.sampled_from([0.0, 1.0, 3.0]))
            out.append(Rect(x, y, x + w, y + h))
        return out

    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    graph = ProximityGraph(np.zeros((n, 2)), np.array(edges, dtype=np.int64).reshape(-1, 2))
    return labels_from_rects(rects()), labels_from_rects(rects()), graph


class TestEdgeDeviationsPerLabelCentres:
    """Each label's centre is taken once per layout; the deviations equal
    the old per-edge `Rect.center` form to the bit
    (`conftest.reference_edge_direction_deviations`)."""

    @settings(max_examples=300, deadline=None)
    @given(two_layouts())
    def test_equals_the_per_edge_form(self, layouts):
        initial, final, graph = layouts
        got = edge_direction_deviations(label_rects(initial), label_rects(final), graph)
        want = reference_edge_direction_deviations(initial, final, graph)
        assert [(i, j, d.hex()) for i, j, d in got] == [(i, j, d.hex()) for i, j, d in want]

    def test_coincident_endpoints_give_zero(self):
        labels = labels_from_rects([Rect(0, 0, 2, 2), Rect(0, 0, 2, 2), Rect(5, 1, 7, 3)])
        moved = labels_from_rects([Rect(0, 0, 2, 2), Rect(3, 3, 5, 5), Rect(0, 0, 2, 2)])
        graph = ProximityGraph(np.zeros((3, 2)), np.array([[0, 1], [0, 2], [1, 2]]))
        got = edge_direction_deviations(label_rects(labels), label_rects(moved), graph)
        assert [d for _, _, d in got[:2]] == [0.0, 0.0]
        assert got == reference_edge_direction_deviations(labels, moved, graph)


def _displacement(initial, final) -> float:
    return total_displacement_cm(label_rects(initial), label_rects(final), live_slots(final))


class TestTotalDisplacement:
    def test_identity_zero(self, rng):
        labels = random_labels(rng, 5)
        assert _displacement(labels, labels) == 0.0

    def test_unit_conversion(self):
        labels = labels_from_rects([Rect(0, 0, 2, 2)])
        final = _move(labels, 0, Vec2(13.12, 0.0))
        assert _displacement(labels, final) == pytest.approx(1.312)

    def test_deleted_contributes_zero(self):
        labels = labels_from_rects([Rect(0, 0, 2, 2)])
        moved = _move(labels, 0, Vec2(5.0, 0.0))
        moved[0] = Label(
            feature_id=moved[0].feature_id,
            rect=moved[0].rect,
            conn=moved[0].conn,
            font_size=10.0,
            deleted=True,
        )
        assert _displacement(labels, moved) == 0.0

    def test_matches_brute_force_sum(self, rng):
        labels = random_labels(rng, 12)
        final = list(labels)
        total = 0.0
        for i in range(12):
            d = Vec2(rng.uniform(-6, 6), rng.uniform(-6, 6))
            total += d.norm()
            final = _move(final, i, d)
        assert _displacement(labels, final) == pytest.approx(total / 10.0, abs=1e-9)

    def test_length_mismatch_rejected(self, rng):
        labels = random_labels(rng, 3)
        with pytest.raises(ValueError):
            _displacement(labels, labels[:2])


class TestBuildReport:
    def test_report_fields(self, rng):
        labels = random_labels(rng, 8)
        features = [
            PointFeature(id=f"f{i}", anchor=Vec2(5 + 10 * i, -30), depth=100, text="T")
            for i in range(8)
        ]
        g = delaunay_graph(*label_layout(labels))
        rep = build_report(labels, labels, features, 0.2, g, elapsed_s=1.5)
        assert rep.total_displacement_cm == 0.0
        assert rep.mean_direction_deviation_deg == 0.0
        assert rep.elapsed_s == 1.5
        assert len(rep.edge_deviations) == len(g.edges)
        d = rep.as_dict()
        assert set(d) == {
            "label_conflicts",
            "feature_conflicts",
            "total_displacement_cm",
            "mean_direction_deviation_deg",
            "elapsed_s",
        }


    def test_report_equals_the_metrics_it_gathers(self):
        features, cfg = synthetic_scene(47, 3)
        initial = initial_layout(features, cfg)
        final, _ = run(features, cfg)
        before, after = label_rects(initial), label_rects(final)
        graph = reference_graph(before, live_slots(initial), features, cfg)
        rep = build_report(initial, final, features, cfg.d_min, graph)
        devs = edge_direction_deviations(before, after, graph)
        assert list(rep.edge_deviations) == devs and len(devs) > 0
        assert rep.mean_direction_deviation_deg == mean_direction_deviation(before, after, graph)
        assert rep.total_displacement_cm == total_displacement_cm(before, after, live_slots(final))
        counts = count_conflicts(*scene_layout(final, features), cfg.d_min)
        assert (rep.label_conflicts, rep.feature_conflicts) == counts


class TestSequentialDeviationSum:
    """The mean deviation adds its edges left to right, as sum() does up to
    Python 3.11; from 3.12 sum() compensates. On some of these scenes the
    two sums differ."""

    def test_mean_is_the_sequential_sum(self):
        compensated_differs = []
        for seed in range(6):
            features, cfg = synthetic_scene(47, seed)
            initial = label_rects(initial_layout(features, cfg))
            final = label_rects(run(features, cfg)[0])
            graph = reference_graph(initial, np.arange(len(initial)), features, cfg)
            devs = [d for _, _, d in edge_direction_deviations(initial, final, graph)]
            total = 0.0
            for d in devs:
                total += d
            assert mean_direction_deviation(initial, final, graph) == total / len(devs)
            compensated_differs.append(total != math.fsum(devs))
        assert any(compensated_differs)
