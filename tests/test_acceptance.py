"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line. Tolerances are pinned here and nowhere else.

Scene-level criteria run the real pipeline on seeded synthetic scenes; the
numeric criteria check the kernels against independent oracles at full
precision.
"""

import dataclasses
import itertools
import math
import random
import statistics
import time

import numpy as np

from leaderlabels import baselines
from leaderlabels.forces import (
    _compose,
    _escapes,
    _overlap,
    _separation,
    attachment_forces,
    screen_forces,
)
from leaderlabels.geometry import Rect, Vec2, points_array
from leaderlabels.metrics import (
    count_conflicts,
    direction_deviation,
    mean_direction_deviation,
    total_displacement_cm,
)
from leaderlabels.optimizer import run
from leaderlabels.proximity import delaunay_graph, mean_nn_distance, prune_graph
from leaderlabels.scene import (
    GraphKind,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    font_size_for,
    initial_layout,
    label_rects,
    measure_text,
)
from leaderlabels.scenefile import synthetic_scene

from conftest import (
    brute_force_feature_conflicts,
    brute_force_label_conflicts,
    disjoint_rect_pair,
    label_layout,
    overlapping_rect_pair,
    pair_totals,
    random_labels,
    rect_distance,
    scene_layout,
)
from test_beams import assemble_global, graph_of, load_vector, params, raw_translations, solve


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}", flush=True)
    assert ok, f"{criterion} failed{suffix}"


# Criterion 1 runs feed criterion 3, so cache the reports once per session.
_RUN_CACHE: list = []


def _criterion1_runs():
    if not _RUN_CACHE:
        for n in (47, 76):
            for seed in range(50):
                features, cfg = synthetic_scene(n, seed, screen=(250.0, 150.0))
                t0 = time.perf_counter()
                labels, rep = run(features, cfg)
                elapsed = time.perf_counter() - t0
                _RUN_CACHE.append((n, seed, cfg, rep, elapsed))
    return _RUN_CACHE


class TestCriterion01ConflictElimination:
    def test_conflict_elimination(self):
        runs = _criterion1_runs()
        clean = sum(
            1 for _, _, _, rep, _ in runs if rep.label_conflicts == 0 and rep.feature_conflicts == 0
        )
        flagged_ok = all(
            rep.infeasible == (rep.label_conflicts + rep.feature_conflicts > 0)
            for _, _, _, rep, _ in runs
        )
        slowest = max(elapsed for *_, elapsed in runs)
        ok = clean >= 95 and flagged_ok and slowest < 10.0
        report(
            "1 conflict-elimination",
            ok,
            f"clean={clean}/100, slowest={slowest:.2f}s",
        )


class TestCriterion02DirectionPreservation:
    def test_beams_beats_localp_on_mean_deviation(self):
        # Scenes sized so initial conflict counts sit in the regime the
        # comparison targets (about two dozen for fifty labels).
        beams_vals = []
        localp_vals = []
        for seed in range(20):
            features, cfg = synthetic_scene(50, seed, screen=(140.0, 90.0))
            _, rep = run(features, cfg)
            beams_vals.append(rep.mean_direction_deviation_deg)
            init = initial_layout(features, cfg)
            t_d = cfg.t_d_factor * mean_nn_distance(points_array(f.anchor for f in features))
            rects, live = label_layout(init)
            ref = prune_graph(delaunay_graph(rects, live), rects, live, t_d)
            final = label_rects(baselines.localp(features, cfg))
            localp_vals.append(mean_direction_deviation(rects, final, ref))
        mean_beams = statistics.mean(beams_vals)
        mean_localp = statistics.mean(localp_vals)
        report(
            "2 direction-preservation",
            mean_beams < mean_localp,
            f"beams={mean_beams:.2f} deg, localp={mean_localp:.2f} deg",
        )


class TestCriterion03TerminationContract:
    def test_termination(self):
        ok = True
        for n, seed, cfg, rep, _ in _criterion1_runs():
            for loop in rep.loops:
                if loop.steps > loop.max_iterations:
                    ok = False
                if loop.steps < loop.max_iterations:
                    if loop.final_max_force > 0.1 * cfg.d_min:
                        ok = False
        report("3 termination-contract", ok)


class TestCriterion04FontSizeExactness:
    def test_font_size_formula(self):
        rng = random.Random(404)
        worst = 0.0
        for _ in range(1000):
            w_max = rng.uniform(6.0, 24.0)
            w_min = rng.uniform(1.0, w_max)
            d_nearest = rng.uniform(1.0, 500.0)
            depth = rng.uniform(d_nearest, 5000.0)
            cfg = LayoutConfig(screen=Rect(0, 0, 100, 100), w_max_pt=w_max, w_min_pt=w_min)
            f = PointFeature(id="x", anchor=Vec2(0, 0), depth=depth, text="T")
            got = font_size_for(f, d_nearest, cfg)
            expected = min(w_max, max(w_min, w_max * d_nearest / depth))
            worst = max(worst, abs(got - expected))
        report("4 font-size-exactness", worst <= 1e-12, f"worst |err|={worst:.2e}")


class TestCriterion05ForceModelUnitSuite:
    def test_trivial_examples_and_symmetry(self):
        # The float and array rules the force assembly runs, on rects as
        # (x_min, y_min, x_max, y_max); each pair rule gives the force on
        # the first rect.
        ok = True
        # Separation: facing edges and corner case.
        ok &= _separation((0, 0, 4, 2), (6, 0, 10, 2), 3.0) == (-0.5, 0.0)
        fx, fy = _separation((0, 0, 2, 2), (3, 3, 5, 5), 2.0)
        ok &= abs(math.hypot(fx, fy) - 0.5 * (2 - math.sqrt(2))) < 1e-12
        # Overlap worked example and tie rule.
        ok &= _overlap((0, 0, 10, 4), (8, 1, 20, 5), 1.0) == (-1.5, 0.0)
        ok &= _overlap((0, 0, 2, 2), (0, 0, 2, 2), 0.0) == (-1.0, 0.0)
        # Point repulsion candidates for an interior point.
        cands = _escapes((7, 2, 15, 6), 8.0, 4.0, 0.0, 1.0)
        ok &= cands == [(-8, 0), (2, 0), (0, -3), (0, 3)]
        # Composition single-feature minimum.
        ok &= _compose([cands]) == (2.0, 0.0)
        # Attachment examples: labels right and left of the leader ray.
        leader = LeaderSpec(length=10.0, direction=90.0, kind=LeaderType.FIXED_DIR_FREE_CONN)
        rects = np.array([(12, 20, 20, 24), (2, 20, 8, 24)], dtype=float)
        pulls = attachment_forces(rects, np.array([(10.0, 0.0)] * 2), leader)
        ok &= pulls.tolist() == [[-2.0, 0.0], [2.0, 0.0]]
        # Screen force examples.
        screen = Rect(0, 0, 100, 100)
        rects = np.array([(1, 40, 5, 44), (40, 40, 60, 60), (-3, 40, 2, 44)], dtype=float)
        ok &= screen_forces(rects, screen, 2.0).tolist() == [[1.0, 0.0], [0.0, 0.0], [5.0, 0.0]]
        report("5a force-trivial-examples", ok)

    def test_newton_pairs_bulk(self):
        # The totals `assemble_forces` gives the two labels of one
        # conflicting pair, with no other source acting (`pair_totals`).
        rng = random.Random(505)
        bad = 0
        produced = 0
        while produced < 5000:
            a, b = disjoint_rect_pair(rng)
            gap = rect_distance(a, b)
            if gap >= 4.0:
                continue
            fa, fb = pair_totals(a, b, 4.0)
            if fa.x != -fb.x or fa.y != -fb.y or fa.norm() == 0.0:
                bad += 1
            produced += 1
        while produced < 10000:
            a, b = overlapping_rect_pair(rng)
            fa, fb = pair_totals(a, b, 0.5)
            if fa.x != -fb.x or fa.y != -fb.y or fa.norm() == 0.0:
                bad += 1
            produced += 1
        report("5b newton-pairs-10k", bad == 0, f"violations={bad}")

    def test_composition_against_enumeration(self):
        rng = random.Random(506)

        def oracle(sets):
            best_adm = None
            best_any = None
            for combo in itertools.product(*sets):
                sx = sum(x for x, _ in combo)
                sy = sum(y for _, y in combo)
                mag2 = sx * sx + sy * sy
                adm = all(px * qx + py * qy >= 0.0 for (px, py), (qx, qy) in itertools.combinations(combo, 2))
                if best_any is None or mag2 < best_any[0]:
                    best_any = (mag2, (sx, sy))
                if adm and (best_adm is None or mag2 < best_adm[0]):
                    best_adm = (mag2, (sx, sy))
            return (best_adm or best_any)[1]

        worst = 0.0
        for _ in range(500):
            k = rng.randint(2, 3)
            sets = []
            for _ in range(k):
                mx, my = rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0)
                sets.append(
                    [
                        (-mx, 0.0),
                        (rng.uniform(0.3, 5.0), 0.0),
                        (0.0, -my),
                        (0.0, rng.uniform(0.3, 5.0)),
                    ]
                )
            got = _compose(sets)
            want = oracle(sets)
            worst = max(worst, abs(math.hypot(*got) - math.hypot(*want)))
        report("5c composition-enumeration", worst <= 1e-12, f"worst |err|={worst:.2e}")


class TestCriterion06BeamNumerics:
    def test_residual_linearity_superposition(self):
        rng = random.Random(606)
        worst_residual = 0.0
        for _ in range(100):
            n = rng.randint(4, 60)
            labels = random_labels(rng, n, span=200.0)
            rects, live = label_layout(labels)
            graph = prune_graph(delaunay_graph(rects, live), rects, live, t_d=70.0)
            forces = [Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            p = params(ground_stiffness=rng.uniform(0.2, 2.0))
            field = solve(graph, forces, p)
            k = assemble_global(graph, p)
            d = field.solution
            f = load_vector(forces)
            fnorm = np.linalg.norm(f)
            if fnorm > 0:
                worst_residual = max(worst_residual, np.linalg.norm(k @ d - f) / fnorm)
        ok = worst_residual <= 1e-9
        # Linearity and superposition on a fixed system.
        labels = random_labels(rng, 20, span=150.0)
        rects, live = label_layout(labels)
        graph = prune_graph(delaunay_graph(rects, live), rects, live, t_d=60.0)
        f1 = [Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
        f2 = [Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
        p = params()
        d1 = raw_translations(solve(graph, f1, p))
        d2 = raw_translations(solve(graph, f2, p))
        ds = raw_translations(solve(graph, [a * 2.5 for a in f1], p))
        dsum = raw_translations(solve(graph, [a + b for a, b in zip(f1, f2)], p))
        worst_lin = 0.0
        for i in range(20):
            scale = max(1.0, abs(2.5 * d1[i].x), abs(2.5 * d1[i].y))
            worst_lin = max(
                worst_lin,
                abs(ds[i].x - 2.5 * d1[i].x) / scale,
                abs(ds[i].y - 2.5 * d1[i].y) / scale,
                abs(dsum[i].x - d1[i].x - d2[i].x) / scale,
                abs(dsum[i].y - d1[i].y - d2[i].y) / scale,
            )
        ok &= worst_lin <= 1e-9
        # Two-node axial case, exact.
        g2 = graph_of([Vec2(0, 0), Vec2(1, 0)], [(0, 1)])
        p2 = params(ground_stiffness=1.0)
        raw2 = raw_translations(solve(g2, [Vec2(-1.0, 0.0), Vec2(1.0, 0.0)], p2))
        u = 1.0 / (1.0 + 2.0)
        axial_err = max(abs(raw2[0].x + u), abs(raw2[1].x - u))
        ok &= axial_err <= 1e-12
        report(
            "6 beam-numerics",
            ok,
            f"residual={worst_residual:.2e}, lin={worst_lin:.2e}, axial={axial_err:.2e}",
        )


class TestCriterion07SubgroupAcceleration:
    def test_clustered_run_is_faster_and_clean(self):
        features, cfg = synthetic_scene(120, 0, screen=(250.0, 150.0))
        t0 = time.perf_counter()
        _, rep_full = run(features, cfg)
        t_full = time.perf_counter() - t0
        cfg10 = dataclasses.replace(cfg, t_num=10)
        t0 = time.perf_counter()
        _, rep_clustered = run(features, cfg10)
        t_clustered = time.perf_counter() - t0
        clean = (
            rep_clustered.label_conflicts == 0
            and rep_clustered.feature_conflicts == 0
        )
        degradation = (
            rep_clustered.mean_direction_deviation_deg - rep_full.mean_direction_deviation_deg
        )
        ok = t_clustered < t_full and clean and degradation <= 5.0
        report(
            "7 subgroup-acceleration",
            ok,
            f"t_full={t_full:.2f}s, t_clustered={t_clustered:.2f}s, "
            f"A_ms delta={degradation:+.2f} deg",
        )


class TestCriterion08GraphKindComparison:
    def test_mst_fewer_edges_similar_iterations(self):
        features, cfg = synthetic_scene(47, 0, screen=(250.0, 150.0))
        _, rep_dt = run(features, cfg)
        _, rep_mst = run(features, dataclasses.replace(cfg, graph_kind=GraphKind.MST))
        dt_edges = rep_dt.solver_graph_edges
        mst_edges = rep_mst.solver_graph_edges
        both_clean = (
            rep_dt.label_conflicts + rep_dt.feature_conflicts == 0
            and rep_mst.label_conflicts + rep_mst.feature_conflicts == 0
        )
        ok = (
            mst_edges < dt_edges
            and rep_mst.iterations <= rep_dt.iterations + 10
            and both_clean
        )
        report(
            "8 graph-kind",
            ok,
            f"edges mst={mst_edges} dt={dt_edges}, iters mst={rep_mst.iterations} dt={rep_dt.iterations}",
        )


class TestCriterion09LeaderTypeVariants:
    def test_type1_projection_and_deletion(self):
        # A wide label on a feature near the left edge cannot stay on screen
        # when it may only slide vertically; it must be deleted. The rest
        # must never drift sideways.
        features = [
            PointFeature(id="edge", anchor=Vec2(2.0, 40.0), depth=60.0, text="WIDE LABEL TEXT"),
            PointFeature(id="mid1", anchor=Vec2(100.0, 40.0), depth=80.0, text="ALPHA"),
            PointFeature(id="mid2", anchor=Vec2(104.0, 42.0), depth=90.0, text="BETA"),
            PointFeature(id="mid3", anchor=Vec2(160.0, 60.0), depth=120.0, text="GAMMA"),
        ]
        cfg = LayoutConfig(
            screen=Rect(0, 0, 200, 140),
            leader=LeaderSpec(length=10.0, direction=90.0, kind=LeaderType.FIXED_DIR_FIXED_CONN),
        )
        init = initial_layout(features, cfg)
        expected_deleted = {
            l.feature_id
            for l in init
            if l.rect.x_min < cfg.screen.x_min or l.rect.x_max > cfg.screen.x_max
        }
        labels, rep = run(features, cfg)
        deleted = {l.feature_id for l in labels if l.deleted}
        drift = max(
            (
                abs(after.rect.x_min - before.rect.x_min)
                for before, after in zip(init, labels)
                if not after.deleted
            ),
            default=0.0,
        )
        clean = rep.label_conflicts == 0 and rep.feature_conflicts == 0
        ok = deleted == expected_deleted == {"edge"} and drift <= 1e-9 and clean
        report(
            "9a leader-type-1",
            ok,
            f"deleted={sorted(deleted)}, max perpendicular drift={drift:.2e} mm",
        )

    def test_type2_no_attachment_force(self):
        features, cfg = synthetic_scene(40, 11, screen=(250.0, 150.0))
        cfg = dataclasses.replace(
            cfg, leader=LeaderSpec(length=10.0, direction=90.0, kind=LeaderType.FREE_DIR_FIXED_CONN)
        )
        labels, rep = run(features, cfg)
        clean = rep.label_conflicts == 0 and rep.feature_conflicts == 0
        ok = clean and "attachment" not in rep.force_tags
        report("9b leader-type-2", ok, f"force tags={list(rep.force_tags)}")

    def test_type3_connection_is_the_clamped_anchor(self):
        # The LEADER_DIGEST scenes, so the scenes are not picked for their
        # outcome. Each live label's leader ends at the rect point nearest
        # its anchor, min(max(anchor, low edge), high edge) on each axis.
        off_bits = tagged = miscounted = conflicts = 0
        for seed in (0, 1, 2):
            features, cfg = synthetic_scene(40, seed)
            leader = LeaderSpec(cfg.leader.length, 90.0, LeaderType.FREE_DIR_FREE_CONN)
            labels, rep = run(features, dataclasses.replace(cfg, leader=leader))
            anchors = {f.id: f.anchor for f in features}
            for lbl in labels:
                if lbl.deleted:
                    continue
                a, r = anchors[lbl.feature_id], lbl.rect
                want = (min(max(a.x, r.x_min), r.x_max), min(max(a.y, r.y_min), r.y_max))
                if [v.hex() for v in (lbl.conn.x, lbl.conn.y)] != [v.hex() for v in want]:
                    off_bits += 1
            tagged += "attachment" in rep.force_tags
            recount = (
                len(brute_force_label_conflicts(labels, cfg.d_min)),
                len(brute_force_feature_conflicts(labels, features, cfg.d_min)),
            )
            miscounted += (rep.label_conflicts, rep.feature_conflicts) != recount
            conflicts += sum(recount)
        ok = off_bits == 0 and tagged == 0 and miscounted == 0
        report(
            "9c leader-type-3",
            ok,
            f"conns off the clamped anchor={off_bits}, runs tagged attachment={tagged}, "
            f"miscounted runs={miscounted}, conflicts left={conflicts}",
        )


class TestCriterion10CjkSupport:
    def test_chinese_scene_resolves(self):
        features, cfg = synthetic_scene(88, 7, screen=(250.0, 150.0), charset="cjk")
        labels, rep = run(features, cfg)
        clean = rep.label_conflicts == 0 and rep.feature_conflicts == 0
        # Double-width measurement must be exercised: every CJK text is
        # wider than an ASCII string of the same length at the same size.
        sample = features[0]
        w_cjk, _ = measure_text(sample.text, 10.0)
        w_ascii, _ = measure_text("X" * len(sample.text), 10.0)
        ok = clean and w_cjk > w_ascii
        report(
            "10 cjk-support",
            ok,
            f"conflicts={rep.label_conflicts + rep.feature_conflicts}, "
            f"width {w_cjk:.1f} vs ascii {w_ascii:.1f} mm",
        )


class TestCriterion11MetricsOracle:
    def test_metrics_against_brute_force(self):
        rng = random.Random(1111)
        worst_sum_err = 0.0
        counts_ok = True
        for _ in range(50):
            n = rng.randint(5, 30)
            labels = random_labels(rng, n, span=120.0)
            features = [
                PointFeature(
                    id=f"f{i}",
                    anchor=Vec2(rng.uniform(0, 130), rng.uniform(0, 130)),
                    depth=100.0,
                    text="T",
                )
                for i in range(n)
            ]
            d_min = rng.uniform(0.1, 2.5)
            n_rr, n_rp = count_conflicts(*scene_layout(labels, features), d_min)
            if n_rr != len(brute_force_label_conflicts(labels, d_min)):
                counts_ok = False
            if n_rp != len(brute_force_feature_conflicts(labels, features, d_min)):
                counts_ok = False
            # Displace and compare displacement plus deviation sums.
            rects, live = label_layout(labels)
            graph = delaunay_graph(rects, live)
            final = []
            total = 0.0
            for lbl in labels:
                d = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
                total += d.norm()
                final.append(
                    dataclasses.replace(lbl, rect=lbl.rect.translated(d), conn=lbl.conn + d)
                )
            worst_sum_err = max(
                worst_sum_err,
                abs(total_displacement_cm(rects, label_rects(final), live) - total / 10.0),
            )
            devs = []
            for i, j in graph.edges.tolist():
                p0, q0 = labels[i].rect.center(), labels[j].rect.center()
                p1, q1 = final[i].rect.center(), final[j].rect.center()
                o0 = math.degrees(math.atan2(q0.y - p0.y, q0.x - p0.x)) % 180.0
                o1 = math.degrees(math.atan2(q1.y - p1.y, q1.x - p1.x)) % 180.0
                devs.append(direction_deviation(o0, o1))
            expected = sum(devs) / len(devs) if devs else 0.0
            worst_sum_err = max(
                worst_sum_err,
                abs(mean_direction_deviation(rects, label_rects(final), graph) - expected),
            )
        ok = counts_ok and worst_sum_err <= 1e-9
        report("11 metrics-oracle", ok, f"worst sum err={worst_sum_err:.2e}")
