"""The iterative placement loop.

Each pass rebuilds the proximity graph from current label centers, assembles
constraint forces, solves the beam network for displacements, and moves the
labels. The loop stops once the iteration cap is reached or the largest
nodal force falls below the force threshold. Large scenes can be partitioned
into spatial subgroups that iterate independently.

Work is done once at the level where its inputs change. The Delaunay pruning
distance t_d depends only on the anchors, which never move, so it is computed
once per loop (and for a loop over the whole scene, taken from the reference
graph's). Forces, graph, solve and move are per step; a step after a loop's
first that moves nothing builds no graph. `run` scans the starting layout
once for conflicting label-label and label-symbol pairs, and each step scans
the layout it produced once; those pairs give the step's conflict counts and
feed the next step's force assembly. Under the Delaunay graph, each step
also hands its triangles to the next step's `delaunay_graph`, which reuses
them instead of running Qhull while a margin proves them still Delaunay (see
`proximity`); a loop's first step, and any step whose check fails or cannot
decide, runs Qhull.

`run` builds the labels and reads them once into arrays: the (n, 4) rects,
the (n, 2) connection points and one `SceneArrays` for the anchors, the live
slots and the symbols. Each subgroup loop works on its group's rows of them
(`SceneArrays.group`) from the run's pairs within the group, and writes its
rows back; labels are built again once, after the last loop. The steps hand
each other arrays, the (n, 2) forces and translations too. Scalar `Rect`s
appear only for the labels in a conflicting pair.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .beams import solve_displacements
from .forces import ConflictPairs, SceneArrays, assemble_forces, conflict_pairs, scene_arrays
from .geometry import HYPOT_RTOL, Rect, Vec2, points_array
from .metrics import count_conflicts, mean_direction_deviation, total_displacement_cm
from .proximity import (
    ProximityGraph,
    Triangulation,
    delaunay_graph,
    mean_nn_distance,
    mst_graph,
    partition_labels,
    prune_graph,
)
from .repair import greedy_repair
from .scene import (
    BeamParams,
    GraphKind,
    Label,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    connection_points,
    initial_layout,
    label_rects,
    live_slots,
    placed_labels,
)

MIN_ITERATION_CAP = 20
MAX_ITERATION_CAP = 100


def effective_max_iterations(n_labels: int, override: int | None = None) -> int:
    """Iteration cap: the label count, clamped to [20, 100], unless overridden."""
    if n_labels < 1:
        raise ValueError("need at least one label")
    if override is not None:
        if override < 1:
            raise ValueError("iteration override must be at least 1")
        return override
    return min(MAX_ITERATION_CAP, max(MIN_ITERATION_CAP, n_labels))


def project_for_leader_type(v: np.ndarray, leader: LeaderSpec) -> np.ndarray:
    """Restrict motion for the fully fixed leader type: each row of the
    (n, 2) array v becomes u * (v . u).

    Fixed direction plus fixed connection means the label may only slide
    along the leader axis; every other type moves freely.
    """
    if leader.kind is not LeaderType.FIXED_DIR_FIXED_CONN:
        return v
    u = leader.unit()
    along = v[:, 0] * u.x + v[:, 1] * u.y
    return np.column_stack((u.x * along, u.y * along))


def handle_offscreen_fixed(
    labels: Sequence[Label], screen: Rect, leader: LeaderSpec
) -> list[Label]:
    """Delete labels that stick out of the screen across the leader axis.

    Applies to the fully fixed leader type: such labels can only slide along
    the leader, so an overhang perpendicular to it can never be resolved.
    The deleted labels' features drop out of all conflict checks.
    """
    n = leader.unit().perp()

    def supports(r: Rect) -> list[float]:
        return [n.dot(Vec2(x, y)) for x in (r.x_min, r.x_max) for y in (r.y_min, r.y_max)]

    lo, hi = min(supports(screen)), max(supports(screen))
    out = []
    for lbl in labels:
        s = supports(lbl.rect)
        overhang = not lbl.deleted and (min(s) < lo or max(s) > hi)
        out.append(replace(lbl, deleted=True) if overhang else lbl)
    return out


@dataclass(frozen=True, slots=True)
class StepStats:
    """One step's record. capped counts the live labels whose translation
    the step cap (`BeamParams.max_step`) shortened. graph_edges counts the
    edges of the step's graph, or is None on a step after the loop's first
    that moves nothing: such a step builds no graph, and is the loop's last."""

    step: int
    max_force: float
    label_conflicts: int
    feature_conflicts: int
    graph_edges: int | None
    force_tags: frozenset[str]
    capped: int


def pruning_distance(features: Sequence[PointFeature], cfg: LayoutConfig) -> float:
    """t_d: Delaunay edges longer than this are pruned."""
    return cfg.t_d_factor * mean_nn_distance(points_array(f.anchor for f in features))


def reference_graph(
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    t_d: float | None = None,
) -> ProximityGraph:
    """The pruned Delaunay graph that direction deviation is measured over."""
    if t_d is None:
        t_d = pruning_distance(features, cfg)
    rects, live = label_rects(labels), live_slots(labels)
    return prune_graph(delaunay_graph(rects, live), rects, live, t_d)


def build_graph(
    rects: np.ndarray,
    live: np.ndarray,
    cfg: LayoutConfig,
    t_d: float | None,
    carried: Triangulation | None,
) -> ProximityGraph:
    """The per-iteration proximity graph, pruned Delaunay or MST, of the
    live labels at the (n, 4) rects. carried is the previous step's
    Delaunay triangles, or None."""
    if cfg.graph_kind is GraphKind.MST:
        return mst_graph(rects, live, "center")
    return prune_graph(delaunay_graph(rects, live, carried), rects, live, t_d)


def _max_norm(v: np.ndarray) -> float:
    """The largest `math.hypot` of the rows of v, 0.0 for none. np.hypot
    picks the rows within HYPOT_RTOL of its largest; math.hypot measures
    only those."""
    if not len(v):
        return 0.0
    norms = np.hypot(v[:, 0], v[:, 1])
    top = v[norms >= norms.max() * (1.0 - HYPOT_RTOL)]
    return max(math.hypot(x, y) for x, y in top.tolist())


@dataclass(frozen=True, slots=True)
class _Loop:
    """What every step of one loop reads and none changes."""

    features: Sequence[PointFeature]
    cfg: LayoutConfig
    t_d: float | None
    arrays: SceneArrays
    beam: BeamParams


def _loop_of(
    features: Sequence[PointFeature], cfg: LayoutConfig, arrays: SceneArrays, t_d: float | None
) -> _Loop:
    """The loop over arrays, the scene of features; a Delaunay loop without
    t_d takes it from the features' anchors."""
    if t_d is None and cfg.graph_kind is GraphKind.DT:
        t_d = pruning_distance(features, cfg)
    return _Loop(features, cfg, t_d, arrays, cfg.resolved_beam())


def _advance(
    loop: _Loop,
    rects: np.ndarray,
    conns: np.ndarray,
    pairs: ConflictPairs,
    carried: Triangulation | None,
    step_no: int,
) -> tuple[np.ndarray, np.ndarray, ConflictPairs, Triangulation | None, StepStats]:
    """One pass on the (n, 4) rects and (n, 2) conns, whose conflict pairs
    are pairs and whose previous step's Delaunay triangles are carried:
    assemble forces, rebuild the graph, solve, move. Returns the moved rects
    and conns, their conflict pairs, this step's triangles, and the step's
    stats. A step whose forces are all exactly zero, whose solve gives +0.0
    translations, moves nothing: it skips the solve and the rescan, and,
    unless it is the loop's first step, the graph too."""
    cfg, live = loop.cfg, loop.arrays.live
    assignment = assemble_forces(loop.features, cfg, pairs, rects, loop.arrays)
    # Only the along-leader force component can produce motion under the
    # fully fixed leader, so the perpendicular remainder is dropped before
    # the solve as well as after it.
    totals = project_for_leader_type(assignment.totals, cfg.leader)
    max_force = _max_norm(totals[live])
    moves = totals.any()
    edges, triangles = None, carried
    if moves or step_no == 1:
        graph = build_graph(rects, live, cfg, loop.t_d, carried)
        edges, triangles = len(graph.edges), graph.triangulation
    if moves:
        disp = solve_displacements(graph, totals, loop.beam)
        translations, capped = disp.translations, disp.capped
    else:
        translations, capped = np.zeros_like(totals), 0

    d = project_for_leader_type(translations[live], cfg.leader)
    moved_rects = rects.copy()
    moved_rects[live] += d[:, [0, 1, 0, 1]]
    moved_conns = conns.copy()
    moved_conns[live] = connection_points(
        moved_rects[live], loop.arrays.anchors[live], cfg.leader, conns[live] + d
    )
    if moves:
        pairs = conflict_pairs(moved_rects, loop.arrays, cfg.d_min)
    stats = StepStats(
        step=step_no,
        max_force=max_force,
        label_conflicts=len(pairs.labels),
        feature_conflicts=len(pairs.features),
        graph_edges=edges,
        force_tags=assignment.sources,
        capped=capped,
    )
    return moved_rects, moved_conns, pairs, triangles, stats


@dataclass(frozen=True, slots=True)
class LoopStats:
    """Termination record of one optimization loop (one subgroup or the
    whole scene)."""

    size: int
    steps: int
    max_iterations: int
    final_max_force: float
    exit_reason: str  # "force" or "max_iterations"
    history: tuple[StepStats, ...]


@dataclass(frozen=True, slots=True)
class RunReport:
    method: str
    graph_kind: str
    leader_type: int
    iterations: int
    total_steps: int
    elapsed_s: float
    exit_reason: str
    infeasible: bool
    label_conflicts: int
    feature_conflicts: int
    total_displacement_cm: float
    mean_direction_deviation_deg: float
    initial_graph_edges: int
    solver_graph_edges: int
    force_tags: tuple[str, ...]
    subgroup_sizes: tuple[int, ...]
    loops: tuple[LoopStats, ...]
    deleted_count: int
    repair_moves: int

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "graph_kind": self.graph_kind,
            "leader_type": self.leader_type,
            "iterations": self.iterations,
            "total_steps": self.total_steps,
            "elapsed_s": self.elapsed_s,
            "exit_reason": self.exit_reason,
            "infeasible": self.infeasible,
            "label_conflicts": self.label_conflicts,
            "feature_conflicts": self.feature_conflicts,
            "total_displacement_cm": self.total_displacement_cm,
            "mean_direction_deviation_deg": self.mean_direction_deviation_deg,
            "initial_graph_edges": self.initial_graph_edges,
            "solver_graph_edges": self.solver_graph_edges,
            "force_tags": list(self.force_tags),
            "subgroup_sizes": list(self.subgroup_sizes),
            "deleted_count": self.deleted_count,
            "repair_moves": self.repair_moves,
        }


def _run_loop(
    loop: _Loop, rects: np.ndarray, conns: np.ndarray, pairs: ConflictPairs
) -> tuple[np.ndarray, np.ndarray, LoopStats]:
    """Step loop from the (n, 4) rects and (n, 2) conns, whose conflict pairs
    are pairs, to its exit; return the final rects and conns and its record."""
    n_live = len(loop.arrays.live)
    if n_live == 0:
        return rects, conns, LoopStats(0, 0, 0, 0.0, "force", ())
    cfg = loop.cfg
    t_s = effective_max_iterations(n_live, cfg.t_s_override)
    t_f = cfg.force_threshold
    triangles = None
    history: list[StepStats] = []
    while True:
        rects, conns, pairs, triangles, stats = _advance(
            loop, rects, conns, pairs, triangles, len(history) + 1
        )
        history.append(stats)
        if stats.step >= t_s or stats.max_force <= t_f:
            break
    reason = "force" if stats.max_force <= t_f else "max_iterations"
    return rects, conns, LoopStats(
        size=n_live,
        steps=stats.step,
        max_iterations=t_s,
        final_max_force=stats.max_force,
        exit_reason=reason,
        history=tuple(history),
    )


def _group_pairs(found: list[np.ndarray], group: np.ndarray, n: int) -> ConflictPairs:
    """The pairs of found, the run's label and feature pairs as (m, 2)
    arrays, within group, numbered by row in group as `SceneArrays.group`."""
    row = np.full(n, -1)
    row[group] = np.arange(len(group))
    within = [row[f] for f in found]
    return ConflictPairs(*(list(map(tuple, w[(w >= 0).all(axis=1)].tolist())) for w in within))


def run(
    features: Sequence[PointFeature], cfg: LayoutConfig
) -> tuple[list[Label], RunReport]:
    """Optimize a whole scene and report how it went.

    With t_num set, labels are partitioned once into spatial subgroups that
    iterate independently (no cross-group forces). After the loop (or loops)
    exit, any residual conflicts are handed to a bounded greedy repair pass:
    the iteration has a blind spot for labels wedged between opposing
    constraints whose forces cancel, and the local search resolves those
    without disturbing the rest of the layout. A scene that still has
    conflicts after repair is flagged infeasible rather than raising.
    Feature ids must be unique (ValueError): label slot k holds feature
    k's label. Each loop works on, and writes back, its rows of the run's
    arrays; labels are built again once, after the last loop.
    """
    t0 = time.perf_counter()
    features = list(features)
    if len({f.id for f in features}) < len(features):
        raise ValueError("feature ids must be unique")
    initial = initial_layout(features, cfg)
    labels = list(initial)
    if cfg.leader.kind is LeaderType.FIXED_DIR_FIXED_CONN:
        labels = handle_offscreen_fixed(labels, cfg.screen, cfg.leader)
    reference = list(labels)

    t_d = pruning_distance(features, cfg)
    ref_graph = reference_graph(reference, features, cfg, t_d)

    rects, conns = label_rects(labels), points_array(l.conn for l in labels)
    arrays = scene_arrays(labels, features)
    pairs = conflict_pairs(rects, arrays, cfg.d_min)
    loops: list[LoopStats] = []
    if cfg.t_num is None:
        rects, conns, stats = _run_loop(_loop_of(features, cfg, arrays, t_d), rects, conns, pairs)
        loops.append(stats)
        subgroup_sizes: tuple[int, ...] = ()
    else:
        groups = partition_labels(rects, arrays.live, cfg.t_num)
        found = [np.array(p, dtype=np.int64).reshape(-1, 2) for p in pairs]
        for group in groups:
            g = np.array(group)
            loop = _loop_of([features[i] for i in group], cfg, arrays.group(g), None)
            start = _group_pairs(found, g, len(labels))
            rects[g], conns[g], stats = _run_loop(loop, rects[g], conns[g], start)
            loops.append(stats)
        subgroup_sizes = tuple(len(g) for g in groups)
    labels = placed_labels(labels, arrays.live, rects, conns)

    repair_moves = 0
    n_rr, n_rp = count_conflicts(labels, features, cfg.d_min)
    if n_rr + n_rp > 0:
        # Finishing pass for force-cancellation deadlocks. Kept deliberately
        # short-ranged (64 mm at the default d_min): nudging preserves the
        # relative arrangement the iteration produced, relocating does not.
        labels, repair_moves = greedy_repair(
            labels, features, cfg, diagonal=True, max_axis_retries=5
        )
        n_rr, n_rp = count_conflicts(labels, features, cfg.d_min)

    elapsed = time.perf_counter() - t0
    tags: set[str] = set()
    for loop in loops:
        for s in loop.history:
            tags.update(s.force_tags)
    reasons = {loop.exit_reason for loop in loops}
    reason = reasons.pop() if len(reasons) == 1 else "mixed"
    report = RunReport(
        method="beams",
        graph_kind=cfg.graph_kind.value,
        leader_type=int(cfg.leader.kind),
        iterations=max((loop.steps for loop in loops), default=0),
        total_steps=sum(loop.steps for loop in loops),
        elapsed_s=elapsed,
        exit_reason=reason,
        infeasible=(n_rr + n_rp) > 0,
        label_conflicts=n_rr,
        feature_conflicts=n_rp,
        total_displacement_cm=total_displacement_cm(reference, labels),
        mean_direction_deviation_deg=mean_direction_deviation(reference, labels, ref_graph),
        initial_graph_edges=len(ref_graph.edges),
        solver_graph_edges=sum(
            loop.history[0].graph_edges for loop in loops if loop.history
        ),
        force_tags=tuple(sorted(tags)),
        subgroup_sizes=subgroup_sizes,
        loops=tuple(loops),
        deleted_count=sum(1 for l in labels if l.deleted),
        repair_moves=repair_moves,
    )
    return labels, report
