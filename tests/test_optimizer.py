import dataclasses

import math

import pytest
from hypothesis import given, settings, strategies as st

from leaderlabels import optimizer
from leaderlabels.forces import conflict_pairs
from leaderlabels.geometry import Rect, Vec2
from leaderlabels.metrics import count_conflicts
from leaderlabels.optimizer import (
    OptimizerState,
    effective_max_iterations,
    handle_offscreen_fixed,
    project_for_leader_type,
    run,
    step,
)
from leaderlabels.scene import (
    GraphKind,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    initial_layout,
)
from leaderlabels.scenefile import synthetic_scene

from conftest import brute_force_feature_conflicts, brute_force_label_conflicts, labels_from_rects


class TestEffectiveMaxIterations:
    def test_small_clamped_up(self):
        assert effective_max_iterations(10) == 20

    def test_midrange_passthrough(self):
        assert effective_max_iterations(60) == 60

    def test_large_clamped_down(self):
        assert effective_max_iterations(150) == 100

    def test_override_wins(self):
        assert effective_max_iterations(60, override=7) == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            effective_max_iterations(0)
        with pytest.raises(ValueError):
            effective_max_iterations(10, override=0)


class TestProjection:
    def test_projects_onto_vertical_leader(self):
        leader = LeaderSpec(direction=90.0, kind=LeaderType.FIXED_DIR_FIXED_CONN)
        assert project_for_leader_type(Vec2(3, 4), leader) == Vec2(0.0, 4.0)

    def test_orthogonal_becomes_zero(self):
        leader = LeaderSpec(direction=90.0, kind=LeaderType.FIXED_DIR_FIXED_CONN)
        assert project_for_leader_type(Vec2(3, 0), leader) == Vec2(0.0, 0.0)

    def test_other_types_identity(self):
        leader = LeaderSpec(direction=90.0, kind=LeaderType.FREE_DIR_FIXED_CONN)
        assert project_for_leader_type(Vec2(3, 4), leader) == Vec2(3.0, 4.0)


class TestOffscreenRule:
    screen = Rect(0, 0, 100, 100)
    leader = LeaderSpec(direction=90.0, kind=LeaderType.FIXED_DIR_FIXED_CONN)

    def test_horizontal_overhang_deleted(self):
        labels = labels_from_rects([Rect(-5, 40, 3, 44)])
        out = handle_offscreen_fixed(labels, self.screen, self.leader)
        assert out[0].deleted

    def test_inside_kept(self):
        labels = labels_from_rects([Rect(10, 40, 30, 44)])
        out = handle_offscreen_fixed(labels, self.screen, self.leader)
        assert not out[0].deleted

    def test_vertical_overhang_kept(self):
        # Exceeding along the leader axis is movable, so the label stays.
        labels = labels_from_rects([Rect(10, 95, 30, 105)])
        out = handle_offscreen_fixed(labels, self.screen, self.leader)
        assert not out[0].deleted


def tiny_cfg(**kw) -> LayoutConfig:
    kw.setdefault("screen", Rect(0, 0, 200, 150))
    return LayoutConfig(**kw)


class TestStep:
    def test_conflict_free_scene_is_fixed_point(self):
        features = [
            PointFeature(id="a", anchor=Vec2(40, 40), depth=100, text="AAA"),
            PointFeature(id="b", anchor=Vec2(140, 40), depth=100, text="BBB"),
        ]
        cfg = tiny_cfg()
        labels = initial_layout(features, cfg)
        state = OptimizerState(labels=list(labels))
        new = step(state, features, cfg)
        assert new.step_count == 1
        assert new.last_max_force == 0.0
        for before, after in zip(labels, new.labels):
            assert before.rect == after.rect
            assert before.conn == after.conn

    def test_overlapping_pair_moves_apart_symmetrically(self):
        # Two identical-depth features close together produce overlapping
        # labels that should move apart by equal amounts.
        features = [
            PointFeature(id="a", anchor=Vec2(95, 40), depth=100, text="AAAA"),
            PointFeature(id="b", anchor=Vec2(105, 40), depth=100, text="AAAA"),
        ]
        cfg = tiny_cfg()
        labels = initial_layout(features, cfg)
        rr0, _ = count_conflicts(labels, features, cfg.d_min)
        assert rr0 == 1
        state = OptimizerState(labels=list(labels))
        new = step(state, features, cfg)
        d0 = new.labels[0].rect.center() - labels[0].rect.center()
        d1 = new.labels[1].rect.center() - labels[1].rect.center()
        assert d0.norm() > 0
        assert d0.x == pytest.approx(-d1.x, abs=1e-9)
        assert d0.y == pytest.approx(-d1.y, abs=1e-9)

    def test_conflicts_usually_non_increasing(self):
        # Statistical property over 100 random 20-label scenes.
        improved = 0
        for seed in range(100):
            features, cfg = synthetic_scene(20, seed, screen=(160.0, 110.0))
            labels = initial_layout(features, cfg)
            before = sum(count_conflicts(labels, features, cfg.d_min))
            state = OptimizerState(labels=list(labels))
            new = step(state, features, cfg)
            after = sum(count_conflicts(new.labels, features, cfg.d_min))
            if after <= before:
                improved += 1
        assert improved >= 90

    def test_state_carries_the_new_layouts_pairs(self):
        features, cfg = synthetic_scene(20, 1, screen=(160.0, 110.0))
        state = OptimizerState(labels=initial_layout(features, cfg))
        for _ in range(3):
            state = step(state, features, cfg)
            assert state.pairs == conflict_pairs(state.labels, features, cfg.d_min)
            assert state.history[-1].label_conflicts == len(state.pairs.labels)
            assert state.history[-1].feature_conflicts == len(state.pairs.features)
        assert state.t_d == optimizer.pruning_distance(features, cfg)

    def test_deleted_labels_do_not_move(self):
        features = [
            PointFeature(id="a", anchor=Vec2(95, 40), depth=100, text="AAAA"),
            PointFeature(id="b", anchor=Vec2(105, 40), depth=100, text="AAAA"),
        ]
        cfg = tiny_cfg()
        labels = initial_layout(features, cfg)
        labels[0] = dataclasses.replace(labels[0], deleted=True)
        state = OptimizerState(labels=list(labels))
        new = step(state, features, cfg)
        assert new.labels[0].rect == labels[0].rect


class TestRun:
    def test_two_label_scene_resolves(self):
        features = [
            PointFeature(id="a", anchor=Vec2(95, 40), depth=100, text="AAAA"),
            PointFeature(id="b", anchor=Vec2(105, 40), depth=100, text="AAAA"),
        ]
        cfg = tiny_cfg()
        labels, report = run(features, cfg)
        assert report.label_conflicts == 0
        assert report.feature_conflicts == 0
        assert not report.infeasible
        assert report.iterations >= 1

    def test_feasible_scene_converges(self):
        features, cfg = synthetic_scene(60, 4)
        labels, report = run(features, cfg)
        assert report.label_conflicts == 0
        assert report.feature_conflicts == 0
        rr, rp = count_conflicts(labels, features, cfg.d_min)
        assert (rr, rp) == (0, 0)

    def test_overdense_scene_flagged_not_crashed(self):
        # 200 labels on a postcard cannot be conflict-free; the run must
        # terminate at the iteration cap and flag the scene, not raise.
        features, cfg = synthetic_scene(200, 0, screen=(100.0, 70.0))
        cfg = dataclasses.replace(cfg, t_s_override=12)
        labels, report = run(features, cfg)
        assert report.infeasible
        assert report.label_conflicts + report.feature_conflicts > 0
        assert report.exit_reason == "max_iterations"
        for loop in report.loops:
            assert loop.steps <= loop.max_iterations

    def test_termination_contract(self):
        for seed in (0, 1, 2):
            features, cfg = synthetic_scene(30, seed)
            _, report = run(features, cfg)
            for loop in report.loops:
                assert loop.steps <= loop.max_iterations
                if loop.steps < loop.max_iterations:
                    assert loop.final_max_force <= cfg.force_threshold

    def test_determinism(self):
        features, cfg = synthetic_scene(35, 9)
        labels1, rep1 = run(features, cfg)
        labels2, rep2 = run(features, cfg)
        for a, b in zip(labels1, labels2):
            assert a.rect == b.rect
            assert a.conn == b.conn
        assert rep1.total_steps == rep2.total_steps
        assert rep1.total_displacement_cm == rep2.total_displacement_cm

    def test_type1_zero_perpendicular_drift(self):
        features, cfg = synthetic_scene(30, 5)
        cfg = dataclasses.replace(
            cfg, leader=LeaderSpec(length=10.0, direction=90.0, kind=LeaderType.FIXED_DIR_FIXED_CONN)
        )
        initial = initial_layout(features, cfg)
        labels, report = run(features, cfg)
        for before, after in zip(initial, labels):
            if after.deleted:
                continue
            assert abs(after.rect.x_min - before.rect.x_min) <= 1e-9

    def test_type4_attachment_at_exit(self):
        features, cfg = synthetic_scene(40, 2)
        labels, report = run(features, cfg)
        anchors = {f.id: f.anchor for f in features}
        slack = cfg.resolved_beam().max_step + 1e-9
        for lbl in labels:
            if lbl.deleted:
                continue
            a = anchors[lbl.feature_id]
            assert lbl.rect.x_min - slack <= a.x <= lbl.rect.x_max + slack
            assert lbl.conn.y == pytest.approx(lbl.rect.y_min)

    def test_subgroup_run_covers_all_labels(self):
        features, cfg = synthetic_scene(60, 3)
        cfg = dataclasses.replace(cfg, t_num=10)
        labels, report = run(features, cfg)
        assert len(labels) == 60
        assert report.subgroup_sizes
        assert all(s <= 10 for s in report.subgroup_sizes)
        assert sum(report.subgroup_sizes) == 60

    def test_steps_with_equal_force_tags_share_one_set(self):
        features, cfg = synthetic_scene(47, 0)
        _, report = run(features, cfg)
        tags = [s.force_tags for loop in report.loops for s in loop.history]
        shared = {}
        for t in tags:
            assert shared.setdefault(t, t) is t
        assert len(shared) < len(tags)

    def test_mst_graph_kind_runs(self):
        features, cfg = synthetic_scene(30, 6)
        cfg = dataclasses.replace(cfg, graph_kind=GraphKind.MST)
        labels, report = run(features, cfg)
        assert report.graph_kind == "mst"
        assert report.label_conflicts == 0

    def test_single_feature(self):
        features = [PointFeature(id="only", anchor=Vec2(100, 60), depth=80, text="SOLO")]
        labels, report = run(features, tiny_cfg())
        assert len(labels) == 1
        assert not report.infeasible

    def test_type3_experimental_variant(self):
        features, cfg = synthetic_scene(25, 12)
        cfg = dataclasses.replace(
            cfg, leader=LeaderSpec(length=10.0, direction=90.0, kind=LeaderType.FREE_DIR_FREE_CONN)
        )
        labels, report = run(features, cfg)
        assert report.label_conflicts == 0
        anchors = {f.id: f.anchor for f in features}
        for lbl in labels:
            # Connection point is the rect point nearest the anchor.
            a = anchors[lbl.feature_id]
            assert lbl.conn.x == pytest.approx(min(max(a.x, lbl.rect.x_min), lbl.rect.x_max))
            assert lbl.conn.y == pytest.approx(min(max(a.y, lbl.rect.y_min), lbl.rect.y_max))


class TestPruningDistanceOncePerLoop:
    """t_d depends on the anchors alone, so each loop computes it once."""

    @pytest.fixture
    def nn_calls(self, monkeypatch):
        calls = []
        real = optimizer.mean_nn_distance

        def counted(points):
            calls.append(len(points))
            return real(points)

        monkeypatch.setattr(optimizer, "mean_nn_distance", counted)
        return calls

    def test_full_run_computes_it_once(self, nn_calls):
        features, cfg = synthetic_scene(30, 2)
        _, report = run(features, cfg)
        assert report.total_steps > 1
        assert nn_calls == [30]

    def test_subgroup_run_computes_it_once_per_group(self, nn_calls):
        features, cfg = synthetic_scene(40, 3)
        _, report = run(features, dataclasses.replace(cfg, t_num=10))
        assert len(report.subgroup_sizes) > 1
        assert report.total_steps > len(report.loops)
        assert nn_calls == [40] + list(report.subgroup_sizes)


@st.composite
def small_runs(draw):
    n = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 10_000))
    width = draw(st.floats(150.0, 300.0))
    height = draw(st.floats(100.0, 200.0))
    features, cfg = synthetic_scene(n, seed, screen=(width, height))
    kind = LeaderType(draw(st.integers(1, 4)))
    cfg = dataclasses.replace(
        cfg,
        leader=dataclasses.replace(cfg.leader, kind=kind),
        graph_kind=draw(st.sampled_from(list(GraphKind))),
        t_num=draw(st.one_of(st.none(), st.integers(2, 5))),
    )
    return features, cfg


class TestRunProperties:
    """The contract of `run` on random small scenes, every leader type and
    graph kind, with and without subgroups."""

    @settings(max_examples=30, deadline=None)
    @given(small_runs())
    def test_run_contract(self, scene):
        features, cfg = scene
        labels, report = run(features, cfg)

        for lbl in labels:
            r = lbl.rect
            assert all(math.isfinite(v) for v in (r.x_min, r.y_min, r.x_max, r.y_max))
            assert math.isfinite(lbl.conn.x) and math.isfinite(lbl.conn.y)

        n_rr = len(brute_force_label_conflicts(labels, cfg.d_min))
        n_rp = len(brute_force_feature_conflicts(labels, features, cfg.d_min))
        assert (report.label_conflicts, report.feature_conflicts) == (n_rr, n_rp)
        assert report.infeasible == (n_rr + n_rp > 0)

        initial = initial_layout(features, cfg)
        for before, after in zip(initial, labels):
            if after.deleted:
                assert after.rect == before.rect

        if cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN:
            anchors = {f.id: f.anchor for f in features}
            for lbl in labels:
                assert lbl.conn == Vec2(anchors[lbl.feature_id].x, lbl.rect.y_min)
