import collections
import dataclasses

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leaderlabels import optimizer, proximity
from leaderlabels.beams import solve_displacements
from leaderlabels.forces import conflict_pairs, scene_arrays
from leaderlabels.geometry import Rect, Vec2, points_array
from leaderlabels.metrics import count_conflicts
from leaderlabels.optimizer import (
    effective_max_iterations,
    handle_offscreen_fixed,
    project_for_leader_type,
    run,
)
from leaderlabels.scene import (
    GraphKind,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    initial_layout,
    label_rects,
    placed_labels,
)
from leaderlabels.scenefile import synthetic_scene

from conftest import (
    brute_force_feature_conflicts,
    brute_force_label_conflicts,
    labels_from_rects,
    reference_run,
    scene_layout,
)
from test_golden import _duplicated_scene


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
    @staticmethod
    def project(v: Vec2, leader: LeaderSpec) -> Vec2:
        return Vec2(*project_for_leader_type(np.array([(v.x, v.y)]), leader)[0].tolist())

    def test_projects_onto_vertical_leader(self):
        leader = LeaderSpec(direction=90.0, kind=LeaderType.FIXED_DIR_FIXED_CONN)
        assert self.project(Vec2(3, 4), leader) == Vec2(0.0, 4.0)

    def test_orthogonal_becomes_zero(self):
        leader = LeaderSpec(direction=90.0, kind=LeaderType.FIXED_DIR_FIXED_CONN)
        assert self.project(Vec2(3, 0), leader) == Vec2(0.0, 0.0)

    def test_other_types_identity(self):
        leader = LeaderSpec(direction=90.0, kind=LeaderType.FREE_DIR_FIXED_CONN)
        assert self.project(Vec2(3, 4), leader) == Vec2(3.0, 4.0)

    def test_rows_equal_the_vector_formula(self, rng):
        for direction in (90.0, 135.0, 30.0, 271.5):
            leader = LeaderSpec(direction=direction, kind=LeaderType.FIXED_DIR_FIXED_CONN)
            u = leader.unit()
            rows = [Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(20)]
            got = project_for_leader_type(np.array([(v.x, v.y) for v in rows]), leader)
            assert got.tolist() == [[w.x, w.y] for w in (u * v.dot(u) for v in rows)]


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


def one_step(labels, features, cfg):
    """The labels after the first step of a loop from labels, and that
    step's stats."""
    one = dataclasses.replace(cfg, t_s_override=1)
    rects, arrays = scene_layout(labels, features)
    conns = points_array(l.conn for l in labels)
    rects, conns, loop = optimizer._run_loop(
        optimizer._loop_of(features, one, arrays, None),
        rects,
        conns,
        conflict_pairs(rects, arrays, one.d_min),
    )
    return placed_labels(labels, arrays.live, rects, conns), loop.history[0]


class TestStep:
    def test_conflict_free_scene_is_fixed_point(self):
        features = [
            PointFeature(id="a", anchor=Vec2(40, 40), depth=100, text="AAA"),
            PointFeature(id="b", anchor=Vec2(140, 40), depth=100, text="BBB"),
        ]
        cfg = tiny_cfg()
        labels = initial_layout(features, cfg)
        placed, stats = one_step(labels, features, cfg)
        assert stats.step == 1
        assert stats.max_force == 0.0
        for before, after in zip(labels, placed):
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
        placed, _ = one_step(labels, features, cfg)
        d0 = placed[0].rect.center() - labels[0].rect.center()
        d1 = placed[1].rect.center() - labels[1].rect.center()
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
            placed, _ = one_step(labels, features, cfg)
            after = sum(count_conflicts(placed, features, cfg.d_min))
            if after <= before:
                improved += 1
        assert improved >= 90

    def test_advance_returns_the_new_layouts_pairs(self):
        features, cfg = synthetic_scene(20, 1, screen=(160.0, 110.0))
        labels = initial_layout(features, cfg)
        loop = optimizer._loop_of(features, cfg, scene_arrays(labels, features), None)
        rects, conns = label_rects(labels), points_array(l.conn for l in labels)
        pairs, triangles = conflict_pairs(rects, loop.arrays, cfg.d_min), None
        for step_no in range(1, 4):
            rects, conns, pairs, triangles, stats = optimizer._advance(
                loop, rects, conns, pairs, triangles, step_no
            )
            placed = placed_labels(labels, loop.arrays.live, rects, conns)
            assert pairs == conflict_pairs(*scene_layout(placed, features), cfg.d_min)
            assert stats.label_conflicts == len(pairs.labels)
            assert stats.feature_conflicts == len(pairs.features)
        assert loop.t_d == optimizer.pruning_distance(features, cfg)

    def test_capped_counts_labels_the_step_cap_shortened(self):
        # 4 mm apart, the two 10 mm labels overlap by about 6 mm: each gets
        # a push far above the 0.4 mm cap. A third label far away is clear.
        features = [
            PointFeature(id="a", anchor=Vec2(98, 40), depth=100, text="AAAA"),
            PointFeature(id="b", anchor=Vec2(102, 40), depth=100, text="AAAA"),
            PointFeature(id="c", anchor=Vec2(20, 100), depth=100, text="CC"),
        ]
        cfg = tiny_cfg()
        labels = initial_layout(features, cfg)
        placed, stats = one_step(labels, features, cfg)
        cap = cfg.resolved_beam().max_step
        assert stats.capped == 2
        for before, after in zip(labels[:2], placed[:2]):
            moved = after.rect.center() - before.rect.center()
            assert moved.norm() == pytest.approx(cap, rel=1e-12)
        labels[1] = dataclasses.replace(labels[1], deleted=True)
        _, stats = one_step(labels, features, cfg)
        assert stats.capped == 0
        _, report = run(features, cfg)
        assert report.loops[0].history[0].capped == 2
        assert "capped" not in report.as_dict()

    def test_max_force_is_the_largest_scalar_norm(self):
        # np.hypot is one ulp below math.hypot on the first row, one ulp
        # above on the second.
        rows = np.array([[0.03546964032188504, 0.060851756668864554],
                         [0.1151024984279273, 0.8850600703796611]])
        for v in (rows[:1], rows[1:], rows, rows * 1e-3):
            assert optimizer._max_norm(v) == max(math.hypot(x, y) for x, y in v.tolist())
        assert optimizer._max_norm(np.zeros((0, 2))) == 0.0

    def test_deleted_labels_do_not_move(self):
        features = [
            PointFeature(id="a", anchor=Vec2(95, 40), depth=100, text="AAAA"),
            PointFeature(id="b", anchor=Vec2(105, 40), depth=100, text="AAAA"),
        ]
        cfg = tiny_cfg()
        labels = initial_layout(features, cfg)
        labels[0] = dataclasses.replace(labels[0], deleted=True)
        placed, _ = one_step(labels, features, cfg)
        assert placed[0].rect == labels[0].rect


class TestForceFreeStep:
    """A step whose forces are all exactly zero moves nothing: it neither
    solves nor rescans, and reports what a solved step would."""

    # Scene 1 under the fully fixed leader ends on a force-free step that
    # still has a conflicting pair: its push is across the leader axis.
    @pytest.mark.parametrize(
        "kind, seed", [(LeaderType.FIXED_DIR_FIXED_CONN, 1), (LeaderType.FREE_DIR_FREE_CONN, 0)]
    )
    def test_skips_the_solve_and_the_rescan(self, monkeypatch, kind, seed):
        features, cfg = synthetic_scene(20, seed, screen=(160.0, 110.0))
        cfg = dataclasses.replace(cfg, leader=dataclasses.replace(cfg.leader, kind=kind))
        labels = initial_layout(features, cfg)
        if kind is LeaderType.FIXED_DIR_FIXED_CONN:
            labels = handle_offscreen_fixed(labels, cfg.screen, cfg.leader)
        loop = optimizer._loop_of(features, cfg, scene_arrays(labels, features), None)
        rects, conns = label_rects(labels), points_array(l.conn for l in labels)
        pairs, triangles = conflict_pairs(rects, loop.arrays, cfg.d_min), None
        for step_no in range(1, 100):
            totals = optimizer.assemble_forces(features, cfg, pairs, rects, loop.arrays).totals
            if not project_for_leader_type(totals, cfg.leader).any():
                break
            rects, conns, pairs, triangles, _ = optimizer._advance(
                loop, rects, conns, pairs, triangles, step_no
            )
        assert pairs.labels or kind is not LeaderType.FIXED_DIR_FIXED_CONN
        graph = optimizer.build_graph(rects, loop.arrays.live, cfg, loop.t_d, None)
        want = optimizer.StepStats(
            step=step_no,
            max_force=0.0,
            label_conflicts=len(pairs.labels),
            feature_conflicts=len(pairs.features),
            # A later step that moves nothing builds no graph.
            graph_edges=None,
            force_tags=optimizer.assemble_forces(features, cfg, pairs, rects, loop.arrays).sources,
            capped=solve_displacements(graph, np.zeros((len(labels), 2)), loop.beam).capped,
        )
        assert step_no > 1
        calls = []
        for name in ("solve_displacements", "conflict_pairs", "build_graph"):
            monkeypatch.setattr(optimizer, name, lambda *a, name=name: calls.append(name))
        got = optimizer._advance(loop, rects, conns, pairs, triangles, step_no)
        assert calls == []
        assert np.array_equal(got[0], rects) and np.array_equal(got[1], conns)
        assert got[2] is pairs
        assert got[4] == want


class TestGraphEdges:
    """Every step builds its graph and counts its edges, except a step
    after the loop's first that moves nothing: it builds none and reports
    None. Such a step is the loop's last."""

    @pytest.mark.parametrize("t_num", [None, 10])
    def test_only_later_force_free_steps_skip_the_graph(self, monkeypatch, t_num):
        build = optimizer.build_graph
        built = []

        def counted(*args):
            graph = build(*args)
            built.append(len(graph.edges))
            return graph

        monkeypatch.setattr(optimizer, "build_graph", counted)
        skipped = 0
        for seed in range(4):
            features, cfg = synthetic_scene(40, seed)
            _, report = run(features, dataclasses.replace(cfg, t_num=t_num))
            steps = [s for loop in report.loops for s in loop.history]
            assert built == [s.graph_edges for s in steps if s.graph_edges is not None]
            built.clear()
            for loop in report.loops:
                assert loop.history[0].graph_edges is not None
                for s in loop.history[1:]:
                    if s.graph_edges is None:
                        skipped += 1
                        assert s.max_force == 0.0 and s is loop.history[-1]
        assert skipped > 0

    def test_a_force_free_first_step_builds_its_graph(self):
        features = [
            PointFeature(id="a", anchor=Vec2(40, 40), depth=100, text="AAA"),
            PointFeature(id="b", anchor=Vec2(140, 40), depth=100, text="BBB"),
        ]
        _, report = run(features, tiny_cfg())
        (step,) = report.loops[0].history
        assert step.max_force == 0.0
        assert step.graph_edges == report.solver_graph_edges == 1


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

    def test_type3_variant(self):
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


def _orchestration_scene(name: str):
    if name == "duplicated":
        return _duplicated_scene()
    if name == "n200":
        return synthetic_scene(200, 0)
    if name == "type1-deletions":
        # Three labels stick out across the vertical leader and are deleted.
        features, cfg = synthetic_scene(40, 0, screen=(90.0, 60.0))
        return features, dataclasses.replace(
            cfg, leader=LeaderSpec(cfg.leader.length, 90.0, LeaderType.FIXED_DIR_FIXED_CONN)
        )
    kind, seed = name.split("-")[1:]
    features, cfg = synthetic_scene(40, int(seed))
    leader = LeaderSpec(cfg.leader.length, 60.0, LeaderType(int(kind)))
    return features, dataclasses.replace(cfg, leader=leader)


ORCHESTRATION_CASES = [
    (f"type-{kind}-{kind}", graph, t_num)
    for kind in (1, 2, 3, 4)
    for graph, t_num in ((GraphKind.DT, None), (GraphKind.DT, 3), (GraphKind.MST, 10))
] + [
    ("type1-deletions", graph, t_num)
    for graph in GraphKind
    for t_num in (None, 3, 10)
] + [
    ("type-4-5", GraphKind.DT, t_num) for t_num in (1, 10, 20)
] + [
    ("duplicated", GraphKind.DT, None),
    ("duplicated", GraphKind.DT, 10),
    ("duplicated", GraphKind.MST, 3),
    ("n200", GraphKind.DT, 20),
]


class TestRunEqualsTheOldOrchestration:
    """`run` reads the scene into arrays once and hands each subgroup loop
    its rows; the reference builds each loop's own labels, features and
    scene arrays and merges its labels back (`conftest.reference_run`).
    Both give the same labels, report and loops, to the bit."""

    @pytest.mark.parametrize(
        "name, graph, t_num", ORCHESTRATION_CASES, ids=lambda v: getattr(v, "value", str(v))
    )
    def test_equal_labels_report_and_loops(self, name, graph, t_num):
        features, cfg = _orchestration_scene(name)
        cfg = dataclasses.replace(cfg, graph_kind=graph, t_num=t_num)
        labels, report = run(features, cfg)
        want_labels, want = reference_run(features, cfg)
        assert labels == want_labels
        got_dict, want_dict = report.as_dict(), want.as_dict()
        del got_dict["elapsed_s"], want_dict["elapsed_s"]
        assert got_dict == want_dict
        assert report.loops == want.loops
        if name == "type1-deletions":
            assert report.deleted_count == 3

    def test_duplicate_feature_ids_are_rejected(self):
        features, cfg = synthetic_scene(5, 0)
        features[3] = dataclasses.replace(features[3], id=features[1].id)
        with pytest.raises(ValueError, match="unique"):
            run(features, cfg)


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


CARRY_SCENES = [f"synthetic-{n}-{seed}" for n in (47, 76) for seed in (0, 1, 2)] + [
    "duplicated",
    "grid",
    "collinear",
]


def _carry_scene(name: str):
    if name.startswith("synthetic"):
        _, n, seed = name.split("-")
        return synthetic_scene(int(n), int(seed))
    features, cfg = _duplicated_scene()
    if name == "grid":
        # 20 equal labels on a 20 x 15 mm grid: the four centres of every
        # grid cell are cocircular.
        features = [
            dataclasses.replace(
                f, anchor=Vec2(30.0 + 20.0 * (k % 5), 30.0 + 15.0 * (k // 5)), depth=100.0,
                text="ABCDEFG",
            )
            for k, f in enumerate(features[:20])
        ]
    elif name == "collinear":
        # 8 equal overlapping labels in a row; Qhull rejects their centres.
        features = [
            dataclasses.replace(f, anchor=Vec2(10.0 + 7.0 * k, 50.0), depth=100.0, text="ABCD")
            for k, f in enumerate(features[:8])
        ]
    return features, cfg


class TestCarriedTriangulation:
    """Every Delaunay step of a loop, carried or rebuilt, returns the graph
    a fresh Qhull build of the same rects returns."""

    @pytest.mark.parametrize("name", CARRY_SCENES)
    def test_each_step_equals_a_fresh_qhull_build(self, monkeypatch, name):
        build = proximity.delaunay_graph
        seen = collections.Counter()

        def checked(rects, live, carried=None):
            got = build(rects, live, carried)
            fresh = build(rects, live)
            assert np.array_equal(got.edges, fresh.edges)
            assert np.array_equal(got.positions, fresh.positions)
            if carried is not None:
                seen["carried" if got.triangulation is carried else "rebuilt"] += 1
            seen["builds"] += 1
            return got

        monkeypatch.setattr(optimizer, "delaunay_graph", checked)
        _, report = run(*_carry_scene(name))
        # One build for the reference graph, one per step that builds one.
        built = sum(s.graph_edges is not None for loop in report.loops for s in loop.history)
        assert seen["builds"] == built + 1
        if name.startswith("synthetic") or name == "duplicated":
            assert seen["carried"] > seen["rebuilt"] > 0
        elif name == "grid":
            assert seen["carried"] == 0 and seen["rebuilt"] > 0
        else:
            assert seen["carried"] == seen["rebuilt"] == 0

    def test_mst_runs_build_no_delaunay_graph_per_step(self, monkeypatch):
        features, cfg = synthetic_scene(20, 0)
        build = proximity.delaunay_graph
        calls = []

        def recorded(rects, live, carried=None):
            calls.append(carried)
            return build(rects, live, carried)

        monkeypatch.setattr(optimizer, "delaunay_graph", recorded)
        run(features, dataclasses.replace(cfg, graph_kind=GraphKind.MST))
        assert calls == [None]
