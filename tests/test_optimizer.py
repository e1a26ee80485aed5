import collections
import dataclasses

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leaderlabels import optimizer, proximity
from leaderlabels.beams import solve_displacements
from leaderlabels.forces import LabelLargerThanScreenError, conflict_pairs, scene_arrays
from leaderlabels.geometry import Rect, Vec2, points_array
from leaderlabels.metrics import count_conflicts
from leaderlabels.proximity import delaunay_graph, partition_labels, prune_graph
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
    live_slots,
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


CARRY_SCENES = [f"synthetic-{n}-{seed}" for n in (47, 76) for seed in (0, 1, 2)] + [
    "duplicated",
    "grid",
    "collinear",
]

# The carried scenes, a lockstep run whose subgroups exit at steps 1, 6,
# 15, 16, 17 and 20, and a scene under the free leader with labels deleted
# by hand (`run` deletes labels only under the fully fixed leader).
STEP_SCENES = CARRY_SCENES + ["lockstep", "type3-deletions"]


def tiny_cfg(**kw) -> LayoutConfig:
    kw.setdefault("screen", Rect(0, 0, 200, 150))
    return LayoutConfig(**kw)


def whole_scene_loop(labels, features, cfg):
    """The set-up of one loop over every slot of labels, as `run` makes it
    without t_num: the scene its steps read, its group, and the rects and
    conns it moves."""
    rects, arrays = scene_layout(labels, features)
    conns = points_array(l.conn for l in labels)
    group = optimizer._group(0, np.arange(len(labels)), arrays.live, arrays.anchors, cfg, None)
    return optimizer._scene(cfg, arrays, [group]), group, rects, conns


def one_step(labels, features, cfg):
    """The labels after the first step of a loop from labels, and that
    step's stats."""
    one = dataclasses.replace(cfg, t_s_override=1)
    scene, group, rects, conns = whole_scene_loop(labels, features, one)
    (loop,) = optimizer._run_loops(scene, [group], rects, conns)
    return placed_labels(labels, scene.arrays.live, rects, conns), loop.history[0]


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
        rr0, _ = count_conflicts(*scene_layout(labels, features), cfg.d_min)
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
            before = sum(count_conflicts(*scene_layout(labels, features), cfg.d_min))
            placed, _ = one_step(labels, features, cfg)
            after = sum(count_conflicts(*scene_layout(placed, features), cfg.d_min))
            if after <= before:
                improved += 1
        assert improved >= 90

    def test_advance_returns_the_new_layouts_pairs(self):
        features, cfg = synthetic_scene(20, 1, screen=(160.0, 110.0))
        labels = initial_layout(features, cfg)
        scene, group, rects, conns = whole_scene_loop(labels, features, cfg)
        batch = optimizer._Batch(scene, [group])
        pairs = conflict_pairs(rects, scene.arrays, cfg.d_min)
        for step_no in range(1, 4):
            pairs, (stats,) = optimizer._advance(scene, batch, rects, conns, pairs, step_no)
            placed = placed_labels(labels, scene.arrays.live, rects, conns)
            assert pairs == conflict_pairs(*scene_layout(placed, features), cfg.d_min)
            assert stats.label_conflicts == len(pairs.labels)
            assert stats.feature_conflicts == len(pairs.features)
        assert group.t_d == optimizer.pruning_distance(points_array(f.anchor for f in features), cfg)

    @pytest.mark.parametrize("name", STEP_SCENES)
    def test_advance_returns_the_new_layouts_pairs_on_every_step(self, monkeypatch, name):
        # Each step's pairs come from the candidate lists the batch carries;
        # the oracles scan and prune every step afresh.
        seen = collections.Counter()
        _checked_steps(monkeypatch, seen)
        _checked_carry(monkeypatch, seen)
        _run_step_scene(name)
        # The grid's loop takes 4 steps, fewer than the skin allows.
        assert seen["scan carried"] > 0 and (seen["scan rebuilt"] > 0 or name == "grid")

    # The lockstep scene of STEP_SCENES, and one whose loops that cap at
    # step 20 leave pairs while two others step on to 27 and 28.
    @pytest.mark.parametrize("n, t_num", [(76, 20), (120, 30)])
    def test_a_new_batch_starts_from_the_pairs_of_the_groups_still_stepping(
        self, monkeypatch, n, t_num
    ):
        # A new batch scans its layout once: at every batch change, its
        # first step's pairs are the previous step's pairs of the groups
        # still stepping.
        steps = []
        advance = optimizer._advance

        def recorded(scene, batch, rects, conns, pairs, step_no):
            found, stats = advance(scene, batch, rects, conns, pairs, step_no)
            steps.append((scene, batch, pairs, found))
            return found, stats

        monkeypatch.setattr(optimizer, "_advance", recorded)
        features, cfg = synthetic_scene(n, 0)
        run(features, dataclasses.replace(cfg, t_num=t_num))
        changes, dropped = 0, 0
        for (scene, before, _, found), (_, batch, pairs, _) in zip(steps, steps[1:]):
            if batch is before:
                continue
            changes += 1
            going = {g.index for g in batch.groups}
            assert going < {g.index for g in before.groups}
            assert pairs == tuple(
                [p for p in part if scene.gid[p[0]] in going] for part in found
            )
            dropped += sum(map(len, found)) - sum(map(len, pairs))
        # Five distinct exit steps before the last: at 1, 6, 15, 16 and 17
        # (n = 76), and at 1, 3, 12, 20 and 27 (n = 120).
        assert changes == 5
        assert (dropped > 0) == (n == 120)

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
        def largest(v):
            return max(math.hypot(x, y) for x, y in v.tolist())

        for v in (rows[:1], rows[1:], rows, rows * 1e-3):
            assert optimizer._max_norms(v, np.array([0]), np.zeros(len(v), int)) == [largest(v)]
        # Each group of rows on its own, whatever the others hold.
        stacked = np.vstack((rows, np.zeros((1, 2)), rows[::-1] * 1e-3, rows[1:]))
        group = np.repeat(np.arange(4), [2, 1, 2, 1])
        got = optimizer._max_norms(stacked, np.array([0, 2, 3, 5]), group)
        assert got == [largest(rows), 0.0, largest(rows * 1e-3), largest(rows[1:])]

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
        scene, group, rects, conns = whole_scene_loop(labels, features, cfg)
        batch = optimizer._Batch(scene, [group])
        pairs = conflict_pairs(rects, scene.arrays, cfg.d_min)
        for step_no in range(1, 100):
            totals = optimizer.assemble_forces(cfg, pairs, rects, scene.arrays).totals
            if not project_for_leader_type(totals, cfg.leader).any():
                break
            pairs, _ = optimizer._advance(scene, batch, rects, conns, pairs, step_no)
        assert pairs.labels or kind is not LeaderType.FIXED_DIR_FIXED_CONN
        live = scene.arrays.live
        graph = prune_graph(delaunay_graph(rects, live), rects, live, group.t_d)
        want = optimizer.StepStats(
            step=step_no,
            max_force=0.0,
            label_conflicts=len(pairs.labels),
            feature_conflicts=len(pairs.features),
            # A later step that moves nothing builds no graph.
            graph_edges=None,
            force_tags=optimizer.assemble_forces(cfg, pairs, rects, scene.arrays).group_sources[0],
            capped=len(
                solve_displacements(graph, np.zeros((len(labels), 2)), scene.beam).capped_nodes
            ),
        )
        assert step_no > 1
        calls = []
        for name in ("solve_displacements", "conflict_pairs", "_build_graphs"):
            monkeypatch.setattr(optimizer, name, lambda *a, name=name: calls.append(name))
        before = rects.copy(), conns.copy()
        _, (got,) = optimizer._advance(scene, batch, rects, conns, pairs, step_no)
        assert calls == []
        assert np.array_equal(rects, before[0]) and np.array_equal(conns, before[1])
        assert got == want


class TestGraphEdges:
    """Every step builds its graph and counts its edges, except a step
    after the loop's first that moves nothing: it builds none and reports
    None. Such a step is the loop's last."""

    @pytest.mark.parametrize("t_num", [None, 10])
    def test_only_later_force_free_steps_skip_the_graph(self, monkeypatch, t_num):
        build = optimizer._build_graphs
        built = collections.defaultdict(list)

        def counted(groups, *args):
            xy, edges = build(groups, *args)
            for g in groups:
                built[g.index].append(int(np.isin(edges[:, 0], g.slots).sum()))
            return xy, edges

        monkeypatch.setattr(optimizer, "_build_graphs", counted)
        skipped = 0
        for seed in range(4):
            features, cfg = synthetic_scene(40, seed)
            _, report = run(features, dataclasses.replace(cfg, t_num=t_num))
            for k, loop in enumerate(report.loops):
                edges = [s.graph_edges for s in loop.history if s.graph_edges is not None]
                assert built[k] == edges
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
        rr, rp = count_conflicts(*scene_layout(labels, features), cfg.d_min)
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


@st.composite
def lockstep_runs(draw):
    """Small scenes cut into subgroups of 2-5 labels, under every leader
    type at two directions and both graph kinds."""
    n = draw(st.integers(2, 30))
    screen = (draw(st.floats(120.0, 250.0)), draw(st.floats(80.0, 160.0)))
    features, cfg = synthetic_scene(n, draw(st.integers(0, 10_000)), screen=screen)
    leader = LeaderSpec(
        cfg.leader.length, draw(st.sampled_from([90.0, 60.0])), LeaderType(draw(st.integers(1, 4)))
    )
    return features, dataclasses.replace(
        cfg,
        leader=leader,
        graph_kind=draw(st.sampled_from(list(GraphKind))),
        t_num=draw(st.integers(2, 5)),
    )


class TestLockstepEqualsGroupByGroup:
    """All of a run's loops step in lockstep. The oracle runs each group's
    loop alone, one group after another (`conftest.reference_run`); both
    give the same labels, report and every `LoopStats` with its history,
    to the bit. `TestRunEqualsTheOldOrchestration` adds fixed cases,
    among them `synthetic_scene(200, 0)` at `t_num` 20."""

    @settings(max_examples=40, deadline=None)
    @given(lockstep_runs())
    def test_equal_to_each_group_alone(self, scene):
        features, cfg = scene
        labels, report = run(features, cfg)
        want_labels, want = reference_run(features, cfg)
        assert labels == want_labels
        assert report.loops == want.loops
        got_dict, want_dict = report.as_dict(), want.as_dict()
        del got_dict["elapsed_s"], want_dict["elapsed_s"]
        assert got_dict == want_dict

    def test_a_batch_pairs_only_its_groups_labels_and_symbols(self):
        # Label slots of subgroup 8 overlap symbols of subgroup 5 here.
        features, cfg = synthetic_scene(40, 0, screen=(120.0, 80.0))
        labels = initial_layout(features, cfg)
        rects, arrays = scene_layout(labels, features)
        slots = [np.array(g) for g in partition_labels(rects, arrays.live, 5)]
        groups = [
            optimizer._group(k, g, np.arange(len(g)), arrays.anchors, cfg, None)
            for k, g in enumerate(slots)
        ]
        scene = optimizer._scene(cfg, arrays, groups)
        gid = scene.gid
        every = conflict_pairs(rects, arrays, cfg.d_min)
        assert any(i in slots[8] and k in slots[5] for i, k in every.features)
        for picked in ([groups[8]], [groups[5], groups[8]], groups):
            batch = optimizer._Batch(scene, picked)
            mine = {i for g in picked for i in g.slots.tolist()}
            assert sorted(batch.arrays.live.tolist()) == sorted(mine)
            got = batch.conflict_pairs(rects, cfg.d_min)
            assert got == tuple(
                [p for p in found if p[0] in mine and gid[p[0]] == gid[p[1]]] for found in every
            )

    @pytest.mark.parametrize("n, t_num", [(60, 10), (40, 5), (200, 20), (47, None)])
    def test_one_force_assembly_per_lockstep_step(self, monkeypatch, n, t_num):
        calls = []
        real = optimizer.assemble_forces

        def counted(*args):
            calls.append(len(args[3].live))
            return real(*args)

        monkeypatch.setattr(optimizer, "assemble_forces", counted)
        features, cfg = synthetic_scene(n, 3)
        _, report = run(features, dataclasses.replace(cfg, t_num=t_num))
        assert len(report.loops) > 1 or t_num is None
        assert len(calls) == report.iterations == max(loop.steps for loop in report.loops)
        # Step k assembles the labels of every loop still stepping.
        assert calls == [
            sum(loop.size for loop in report.loops if loop.steps >= k)
            for k in range(1, report.iterations + 1)
        ]


def _oversize_scene():
    """30 labels in subgroups of at most 5, with two labels wider than the
    screen: slot 1, in the second subgroup, and slot 8, in the first."""
    features, cfg = synthetic_scene(30, 0, screen=(160.0, 110.0))
    features[1] = dataclasses.replace(features[1], text="W" * 200)
    features[8] = dataclasses.replace(features[8], text="M" * 230)
    return features, dataclasses.replace(cfg, t_num=5)


class TestScreenFitCheckedOnce:
    """`run` checks every live label against the screen once, in
    `starting_layout` before any loop, and names the lowest slot that
    cannot fit."""

    @staticmethod
    def width_message(labels, slot) -> str:
        return f"label {labels[slot].rect.width:.3f}x"

    def test_names_the_lowest_offending_slot(self, monkeypatch):
        features, cfg = _oversize_scene()
        labels = initial_layout(features, cfg)
        groups = partition_labels(label_rects(labels), live_slots(labels), cfg.t_num)
        group_of = {i: k for k, g in enumerate(groups) for i in g}
        assert group_of[8] < group_of[1]
        # Loop by loop, the first group's assembly meets slot 8 first.
        with pytest.raises(LabelLargerThanScreenError, match=self.width_message(labels, 8)):
            reference_run(features, cfg)
        calls = []
        monkeypatch.setattr(optimizer, "assemble_forces", lambda *a: calls.append(a))
        with pytest.raises(LabelLargerThanScreenError, match=self.width_message(labels, 1)):
            run(features, cfg)
        assert calls == []

    def test_whole_scene_message_is_unchanged(self):
        features, cfg = _oversize_scene()
        cfg = dataclasses.replace(cfg, t_num=None)
        with pytest.raises(LabelLargerThanScreenError) as want:
            reference_run(features, cfg)
        with pytest.raises(LabelLargerThanScreenError) as got:
            run(features, cfg)
        assert str(got.value) == str(want.value)

    def test_cli_exits_with_2(self, tmp_path, capsys):
        from leaderlabels.cli import main
        from leaderlabels.scenefile import save_scene

        features, cfg = _oversize_scene()
        path = tmp_path / "oversize.json"
        save_scene(features, cfg, str(path))
        labels = initial_layout(features, cfg)
        assert main(["place", str(path), "--tnum", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: " + self.width_message(labels, 1))


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


def _run_step_scene(name: str) -> None:
    """Steps the loops of a scene of STEP_SCENES to their exits."""
    if name == "lockstep":
        features, cfg = synthetic_scene(76, 0)
        run(features, dataclasses.replace(cfg, t_num=20))
    elif name == "type3-deletions":
        features, cfg = synthetic_scene(76, 2)
        cfg = dataclasses.replace(
            cfg, leader=dataclasses.replace(cfg.leader, kind=LeaderType.FREE_DIR_FREE_CONN)
        )
        labels = initial_layout(features, cfg)
        labels = [dataclasses.replace(l, deleted=k % 6 == 2) for k, l in enumerate(labels)]
        scene, group, rects, conns = whole_scene_loop(labels, features, cfg)
        (loop,) = optimizer._run_loops(scene, [group], rects, conns)
        assert loop.steps > 1 and len(scene.arrays.live) < len(labels)
    else:
        run(*_carry_scene(name))


def _checked_steps(monkeypatch, seen):
    """Wraps the optimizer's step. The pairs each step returns must equal
    both scans of the moved layout run afresh within the batch's groups,
    and each group's conflict counts must be its share of them. Counts in
    seen the rescans whose candidate lists held ("scan carried") and were
    built again ("scan rebuilt")."""
    advance = optimizer._advance

    def checked(scene, batch, rects, conns, pairs, step_no):
        scan_base = batch.near.base
        pairs, stats = advance(scene, batch, rects, conns, pairs, step_no)
        fresh = conflict_pairs(rects, batch.arrays, scene.cfg.d_min, batch.starts)
        assert pairs == fresh
        for g, st in zip(batch.groups, stats):
            mine = set(g.slots.tolist())
            assert st.label_conflicts == sum(i in mine for i, _ in pairs.labels)
            assert st.feature_conflicts == sum(i in mine for i, _ in pairs.features)
        if any(st.max_force > 0.0 for st in stats):
            seen["scan carried" if batch.near.base is scan_base else "scan rebuilt"] += 1
        return pairs, stats

    monkeypatch.setattr(optimizer, "_advance", checked)


def _checked_carry(monkeypatch, seen):
    """Wraps the optimizer's carried-triangle check and its graph builds.
    Each group the check accepts, with its carried triangles or flipped
    ones, must hold the edges a fresh Qhull build of its centres gives;
    and every Delaunay graph a step builds, carried, flipped or not, must
    give each group the positions and the pruned edges of a fresh Qhull
    build of the group's own rects. Counts the groups the check keeps,
    flips and refuses in seen."""
    check = proximity.carried_delaunay

    def checked(carried, xy, lives):
        out = check(carried, xy, lives)
        points = np.column_stack((xy, xy))
        for before, after, slots in zip(carried, out, lives):
            seen["rebuilt" if after is None else "carried" if after is before else "flipped"] += 1
            if after is not None:
                fresh = delaunay_graph(points, np.sort(slots)).edges
                assert np.array_equal(after.edges, fresh)
        return out

    build = optimizer._build_graphs

    def built(groups, rects, cfg):
        xy, edges = build(groups, rects, cfg)
        for g in groups:
            fresh = delaunay_graph(rects[g.rows], g.live)
            assert xy[g.slots].tobytes() == fresh.positions[g.live].tobytes()
            pruned = prune_graph(fresh, rects[g.rows], g.live, g.t_d)
            mine = edges[np.isin(edges[:, 0], g.slots)]
            assert np.array_equal(mine, g.rows[pruned.edges])
        return xy, edges

    monkeypatch.setattr(optimizer, "carried_delaunay", checked)
    monkeypatch.setattr(optimizer, "_build_graphs", built)


class TestCarriedTriangulation:
    """Every Delaunay step of a loop, carried, flipped or rebuilt, returns
    the graph a fresh Qhull build of the same rects returns."""

    @pytest.mark.parametrize("name", CARRY_SCENES)
    def test_each_step_equals_a_fresh_qhull_build(self, monkeypatch, name):
        build = proximity.delaunay_graph
        seen = collections.Counter()

        def counted(rects, live):
            seen["builds"] += 1
            return build(rects, live)

        monkeypatch.setattr(optimizer, "delaunay_graph", counted)
        _checked_carry(monkeypatch, seen)
        _, report = run(*_carry_scene(name))
        # One Qhull build for the reference graph, which the first step
        # takes as it is; each later step with a graph carries its
        # triangles, flips them or builds them again.
        built = sum(s.graph_edges is not None for loop in report.loops for s in loop.history)
        assert seen["builds"] + seen["carried"] + seen["flipped"] == built
        assert seen["builds"] == 1 + seen["rebuilt"] + (name == "collinear") * (built - 1)
        if name.startswith("synthetic") or name == "duplicated":
            assert seen["carried"] > seen["flipped"] + seen["rebuilt"]
            assert seen["flipped"] > 0
        elif name == "grid":
            assert seen["carried"] == 0 and seen["rebuilt"] > 0
        else:
            assert seen["carried"] == seen["rebuilt"] == 0

    @pytest.mark.parametrize("t_num", [5, 10, 20])
    def test_subgroup_steps_equal_fresh_qhull_builds(self, monkeypatch, t_num):
        seen = collections.Counter()
        _checked_carry(monkeypatch, seen)
        features, cfg = synthetic_scene(76, 0)
        _, report = run(features, dataclasses.replace(cfg, t_num=t_num))
        assert len(report.loops) > 1
        assert seen["carried"] > 0 and seen["flipped"] > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_first_step_takes_the_reference_graph(self, monkeypatch, seed):
        # A whole-scene Delaunay run triangulates its starting layout once:
        # Qhull builds the reference graph, and the first step takes it.
        features, cfg = synthetic_scene(47, seed)
        build = proximity.delaunay_graph
        calls = []

        def recorded(rects, live):
            calls.append(rects.copy())
            return build(rects, live)

        monkeypatch.setattr(optimizer, "delaunay_graph", recorded)
        seen = collections.Counter()
        _checked_carry(monkeypatch, seen)
        _, report = run(features, cfg)
        (loop,) = report.loops
        assert np.array_equal(calls[0], label_rects(initial_layout(features, cfg)))
        assert not any(np.array_equal(calls[0], later) for later in calls[1:])
        assert len(calls) == 1 + seen["rebuilt"]
        assert loop.history[0].graph_edges == report.initial_graph_edges

    def test_mst_runs_build_no_delaunay_graph_per_step(self, monkeypatch):
        features, cfg = synthetic_scene(20, 0)
        build = proximity.delaunay_graph
        calls = []

        def recorded(rects, live):
            calls.append(len(live))
            return build(rects, live)

        monkeypatch.setattr(optimizer, "delaunay_graph", recorded)
        run(features, dataclasses.replace(cfg, graph_kind=GraphKind.MST))
        assert calls == [len(features)]
