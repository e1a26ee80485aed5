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
hands its triangles to the next, which keeps them instead of running Qhull
while a margin proves them still Delaunay (`proximity.still_delaunay`); a
loop's first step, and any step whose check fails or cannot decide, runs
Qhull. A loop over the whole scene takes the reference graph as its first
step's graph: the same layout, live slots and t_d.

A step also carries the broad phase of its two conflict scans (the
label-pair scan and the label-symbol scan) in one `NearList` per batch:
the pairs each box test passed at a limit widened by twice the skin (once
for the fixed symbols), tested alone while no coordinate has moved more
than the skin since; one check decides for both scans, and then both box
tests run again. The skin is _SKIN_STEPS step caps. A new batch, once a
loop exits, starts an empty list and scans its layout once. The exact
tests run on every step as before, and the candidates hold every pair
they can pass, so every decision is the same. The prune carries nothing:
one blocked pass of `prune_graph` box-tests every loop's short edges
against the live rects of their loop on every step.

`run` builds the labels and reads them once into arrays: the (n, 4) rects,
the (n, 2) connection points and one `SceneArrays` for the anchors, the live
slots and the symbols. Its loops, one per subgroup or one over the whole
scene, step in lockstep on those arrays: each step advances every loop that
has not exited, over the rows of all of their labels, listed one loop after
another so that every pair test stays within a loop. The scans, the force
assembly, the carried-triangle check, the prune, the element blocks, the
move and the largest force run once per step for all of them; only Qhull
and the factor of each loop's own K run per loop, so each loop takes the
steps it would take alone, to the bit. A loop that exits drops out, and the
others step on. The repair pass and the metrics take the same arrays, and
`run` builds its labels once, at its return. Scalar `Rect`s appear only for
the labels in a conflicting pair.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Sequence

import numpy as np

from .beams import frames_of, solve_displacements
from .forces import (
    ConflictPairs,
    SceneArrays,
    assemble_forces,
    check_screen_fit,
    conflict_pairs,
    scene_arrays,
)
from .geometry import HYPOT_RTOL, NearList, Rect, Vec2, points_array, rect_centers
from .metrics import count_conflicts, mean_direction_deviation, total_displacement_cm
from .proximity import (
    ProximityGraph,
    Triangulation,
    delaunay_graph,
    mean_nn_distance,
    mst_graph,
    partition_labels,
    prune_graph,
    joined,
    still_delaunay,
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
    placed_labels,
)

MIN_ITERATION_CAP = 20
MAX_ITERATION_CAP = 100

# The skin of the scan candidate list a batch carries from step to step
# (`NearList`), in step caps (`BeamParams.max_step`): the list holds for at
# least this many steps after its build. Of 2, 4 and 8, 2 ran both
# workloads slowest, and 4 and 8 ran within noise of each other; 4 keeps
# the lists half as long.
_SKIN_STEPS = 4


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


def starting_layout(features: Sequence[PointFeature], cfg: LayoutConfig) -> list[Label]:
    """The layout a placement starts from and its metrics measure against:
    `initial_layout`, less the labels `handle_offscreen_fixed` deletes
    under the fully fixed leader."""
    labels = initial_layout(list(features), cfg)
    if cfg.leader.kind is LeaderType.FIXED_DIR_FIXED_CONN:
        labels = handle_offscreen_fixed(labels, cfg.screen, cfg.leader)
    return labels


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
    rects: np.ndarray,
    live: np.ndarray,
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    t_d: float | None = None,
) -> ProximityGraph:
    """The pruned Delaunay graph of the layout at the (n, 4) rects and live
    slots that direction deviation is measured over."""
    if t_d is None:
        t_d = pruning_distance(features, cfg)
    return prune_graph(delaunay_graph(rects, live), rects, live, t_d)


def _max_norms(v: np.ndarray, starts: np.ndarray, group: np.ndarray) -> list[float]:
    """The largest `math.hypot` of the rows of each group of v, whose rows
    hold one group after another, group k's from starts[k] on; group gives
    each row's group. np.hypot picks the rows within HYPOT_RTOL of their
    group's largest; math.hypot measures only those."""
    norms = np.hypot(v[:, 0], v[:, 1])
    top = np.maximum.reduceat(norms, starts) * (1.0 - HYPOT_RTOL)
    near = np.flatnonzero(norms >= top[group])
    best = [0.0] * len(starts)
    for k, (x, y) in zip(group[near].tolist(), v[near].tolist()):
        best[k] = max(best[k], math.hypot(x, y))
    return best


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


@dataclass(slots=True, eq=False)
class _Group:
    """One loop of a run: its labels, what its steps read and what they
    carry. The loop numbers its graph nodes and its K by frame, the slots
    in rows: every slot for a loop over the whole scene, its own labels'
    for a subgroup. live indexes its labels in rows, and slots = rows[live]
    are their slots in the run."""

    index: int
    rows: np.ndarray
    live: np.ndarray
    slots: np.ndarray
    t_d: float | None
    t_s: int
    # The previous step's Delaunay triangles, in run slots, or None; and
    # until the first step, the graph handed in for it, or None.
    triangles: Triangulation | None = None
    first_graph: ProximityGraph | None = None
    history: list[StepStats] = field(default_factory=list)

    def stats(self, t_f: float) -> LoopStats:
        """The loop's record once it has exited, at force threshold t_f."""
        if not self.history:
            return LoopStats(0, 0, 0, 0.0, "force", ())
        last = self.history[-1]
        return LoopStats(
            size=len(self.slots),
            steps=last.step,
            max_iterations=self.t_s,
            final_max_force=last.max_force,
            exit_reason="force" if last.max_force <= t_f else "max_iterations",
            history=tuple(self.history),
        )


def _group(
    index: int,
    rows: np.ndarray,
    live: np.ndarray,
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    t_d: float | None,
    first_graph: ProximityGraph | None = None,
) -> _Group:
    """The loop over the frame rows whose labels are rows[live], the scene
    of features; a Delaunay loop without t_d takes it from the features'
    anchors."""
    if t_d is None and cfg.graph_kind is GraphKind.DT:
        t_d = pruning_distance(features, cfg)
    t_s = effective_max_iterations(len(live), cfg.t_s_override) if len(live) else 0
    return _Group(index, rows, live, rows[live], t_d, t_s, first_graph=first_graph)


@dataclass(frozen=True, slots=True)
class _Scene:
    """What every step of a run reads and none changes: the features, the
    config and its beam parameters, the run's `SceneArrays`, and each
    slot's group, by its index (-1 for a deleted label)."""

    features: Sequence[PointFeature]
    cfg: LayoutConfig
    beam: BeamParams
    arrays: SceneArrays
    gid: np.ndarray
    n_groups: int


class _Batch:
    """Groups that step together, and what their steps read of them.

    order lists the groups' live slots one group after another, group k's
    from starts[k] on, each group's rising, and group gives the group of
    each; anchors are their anchors. arrays is the run's `SceneArrays` over
    the slots in order and over their own features' symbols in the same
    order (slot k holds feature k's label, so the symbols are the live
    slots' features), so that the scans pair only the labels and symbols
    of one group. frames lays out the groups' beam networks, one per group
    over its frame rows, for the solve. near holds both scans' candidates,
    over the slots in order, so a new batch starts it empty.
    """

    __slots__ = ("groups", "order", "starts", "group", "anchors", "arrays", "frames", "near")

    def __init__(self, scene: _Scene, groups: list[_Group]):
        self.groups = groups
        self.order = np.concatenate([g.slots for g in groups])
        sizes = [len(g.slots) for g in groups]
        self.starts = np.cumsum([0] + sizes[:-1])
        self.group = np.repeat(np.arange(len(groups)), sizes)
        arrays = scene.arrays
        self.anchors = arrays.anchors[self.order]
        symbols = np.searchsorted(arrays.index, self.order)
        self.arrays = arrays._replace(
            live=self.order,
            index=self.order,
            ids=arrays.ids[symbols],
            symbols=arrays.symbols[symbols],
        )
        self.frames = frames_of([g.rows for g in groups], len(scene.gid))
        self.near = NearList(_SKIN_STEPS * scene.beam.max_step)

    def conflict_pairs(self, rects: np.ndarray, d_min: float) -> ConflictPairs:
        """Both conflict scans of the groups' labels, each group's alone."""
        return conflict_pairs(rects, self.arrays, d_min, self.starts, self.near)


def _carried_still_delaunay(carried: list[_Group], xy: np.ndarray) -> np.ndarray:
    """`still_delaunay` of the carried triangles of each group, in one
    check."""
    if len(carried) == 1:
        # One group's triangles need no joining, and its check one bound.
        return still_delaunay(carried[0].triangles, xy, carried[0].slots)
    slots = np.concatenate([g.slots for g in carried])
    starts = np.cumsum([0] + [len(g.slots) for g in carried[:-1]])
    return still_delaunay(joined([g.triangles for g in carried]), xy, slots, starts)


def _build_graphs(
    groups: list[_Group], rects: np.ndarray, cfg: LayoutConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The graphs of the groups at the (n, 4) rects, as one graph: the
    positions of every slot, an (n, 2) array, and every group's edges in
    run slots, an (m, 2) array holding each group's edges in its order.

    Under the Delaunay graph a group keeps its carried triangles when
    `still_delaunay` accepts them (one check for all groups) and runs
    Qhull over its own frame otherwise; a graph handed in for a group's
    first step is taken as it is. One `prune_graph` over the groups'
    labels, each group's edges against its own labels and at its own t_d,
    then prunes the other groups' edges. Under the MST each group builds its
    tree over its frame.
    """
    xy = rect_centers(rects)
    if cfg.graph_kind is GraphKind.MST:
        parts = []
        for g in groups:
            graph = mst_graph(rects[g.rows], g.live, "center")
            xy[g.rows] = graph.positions
            parts.append(g.rows[graph.edges])
        return xy, np.concatenate(parts)
    carried = [g for g in groups if g.triangles is not None]
    if carried:
        for g in compress(carried, ~_carried_still_delaunay(carried, xy)):
            g.triangles = None
    built, raw = [], []
    for g in groups:
        if g.triangles is not None:
            raw.append((g, g.triangles.edges))
            continue
        if g.first_graph is not None:
            graph, g.first_graph = g.first_graph, None
            built.append(graph.edges)
        else:
            graph = delaunay_graph(rects[g.rows], g.live)
            raw.append((g, g.rows[graph.edges]))
        xy[g.rows] = graph.positions
        tri = graph.triangulation
        g.triangles = None if tri is None else tri.renumbered(g.rows)
    if len(raw) == 1:
        # One group's edges need no joining, and its prune one t_d.
        (g, edges), = raw
        built.append(prune_graph(ProximityGraph(xy, edges), rects, g.slots, g.t_d).edges)
    elif raw:
        sizes, counts = [len(g.slots) for g, _ in raw], [len(e) for _, e in raw]
        graph = ProximityGraph(xy, np.concatenate([e for _, e in raw]))
        t_d = np.repeat([g.t_d for g, _ in raw], counts)
        live = np.concatenate([g.slots for g, _ in raw])
        starts, edge_starts = np.cumsum([0] + sizes[:-1]), np.cumsum([0] + counts[:-1])
        built.append(prune_graph(graph, rects, live, t_d, starts, edge_starts).edges)
    return xy, built[0] if len(built) == 1 else np.concatenate(built)


def _group_counts(slots: np.ndarray | list[int], scene: _Scene) -> list[int]:
    """How many of the slots lie in each group."""
    if scene.n_groups == 1:
        return [len(slots)]
    slots = np.asarray(slots, dtype=np.intp)
    return np.bincount(scene.gid[slots], minlength=scene.n_groups).tolist()


def _advance(
    scene: _Scene,
    batch: _Batch,
    rects: np.ndarray,
    conns: np.ndarray,
    pairs: ConflictPairs,
    step_no: int,
) -> tuple[ConflictPairs, list[StepStats]]:
    """One step of every group of the batch, on the run's (n, 4) rects and
    (n, 2) conns, whose conflict pairs within the groups are pairs:
    assemble forces, rebuild the graphs, solve, move. Moves the groups'
    rows of rects and conns in place; returns the moved layout's pairs
    within the groups, and each group's stats.

    The forces, the graph check and prune, the element blocks, the move
    and the rescan each run once over all the groups' rows, with each pair
    test kept within a group; Qhull and the factor of K run per group. So
    each group takes the step it would take alone, to the bit. A group
    whose forces are all exactly zero, whose solve gives +0.0
    translations, moves nothing: it is not solved, and, unless on its
    first step, builds no graph. Its largest force is 0.0, so its loop
    ends with this step. A step in which no group moves rescans nothing.
    """
    cfg, groups, order = scene.cfg, batch.groups, batch.order
    assignment = assemble_forces(
        scene.features, cfg, pairs, rects, batch.arrays, scene.gid, scene.n_groups
    )
    # Only the along-leader force component can produce motion under the
    # fully fixed leader, so the perpendicular remainder is dropped before
    # the solve as well as after it.
    totals = project_for_leader_type(assignment.totals, cfg.leader)
    max_forces = _max_norms(totals[batch.order], batch.starts, batch.group)
    # A row is zero exactly when its norm is, so a group moves exactly when
    # its largest force is not zero.
    solved = [g for g, f in zip(groups, max_forces) if f > 0.0]
    built = groups if step_no == 1 else solved

    edge_counts, capped, translations = {}, [0] * scene.n_groups, None
    if built:
        xy, edges = _build_graphs(built, rects, cfg)
        counts = _group_counts(edges[:, 0], scene)
        edge_counts = {g.index: counts[g.index] for g in built}
        if solved:
            if len(solved) < len(built):
                moving = np.zeros(scene.n_groups, dtype=bool)
                moving[[g.index for g in solved]] = True
                edges = edges[moving[scene.gid[edges[:, 0]]]]
            graph = ProximityGraph(xy, edges)
            frames = batch.frames
            if len(solved) < len(groups):
                frames = frames_of([g.rows for g in solved], len(totals))
            disp = solve_displacements(graph, totals, scene.beam, frames)
            translations = disp.translations
            capped = _group_counts(disp.capped_nodes, scene)

    if translations is None:
        translations = np.zeros_like(totals)
    d = project_for_leader_type(translations[order], cfg.leader)
    boxes = rects[order] + d[:, [0, 1, 0, 1]]
    rects[order] = boxes
    conns[order] = connection_points(boxes, batch.anchors, cfg.leader, conns[order] + d)

    if solved:
        # A group that did not move keeps its pairs, which the rescan
        # finds again.
        pairs = batch.conflict_pairs(rects, cfg.d_min)
    labels, feats = (_group_counts([i for i, _ in p], scene) for p in pairs)
    stats = []
    for g, max_force in zip(groups, max_forces):
        stats.append(
            StepStats(
                step=step_no,
                max_force=max_force,
                label_conflicts=labels[g.index],
                feature_conflicts=feats[g.index],
                graph_edges=edge_counts.get(g.index),
                force_tags=assignment.group_sources[g.index],
                capped=capped[g.index],
            )
        )
    return pairs, stats


def _scene(
    features: Sequence[PointFeature], cfg: LayoutConfig, arrays: SceneArrays, groups: list[_Group]
) -> _Scene:
    """What the steps of these groups' loops read, the scene of features
    and its arrays."""
    gid = np.full(len(arrays.own), -1)
    for g in groups:
        gid[g.slots] = g.index
    return _Scene(features, cfg, cfg.resolved_beam(), arrays, gid, len(groups))


def _run_loops(
    scene: _Scene, groups: list[_Group], rects: np.ndarray, conns: np.ndarray
) -> list[LoopStats]:
    """Step every group's loop in lockstep, from the (n, 4) rects and
    (n, 2) conns, until each has exited: at its iteration cap, or once its
    largest force is at most the force threshold. A group that exits drops
    out of the batch, and the rest step on. Moves rects and conns in place
    and returns each group's record."""
    t_f = scene.cfg.force_threshold
    active = [g for g in groups if len(g.slots)]
    step_no = 0
    while active:
        batch = _Batch(scene, active)
        pairs = batch.conflict_pairs(rects, scene.cfg.d_min)
        while len(active) == len(batch.groups):
            step_no += 1
            pairs, stats = _advance(scene, batch, rects, conns, pairs, step_no)
            for g, st in zip(active, stats):
                g.history.append(st)
            active = [g for g, st in zip(active, stats) if st.step < g.t_s and st.max_force > t_f]
    return [g.stats(t_f) for g in groups]


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
    k's label. Each loop, the repair pass and the metrics work on the
    run's arrays; labels are built once, at the return.
    """
    t0 = time.perf_counter()
    features = list(features)
    if len({f.id for f in features}) < len(features):
        raise ValueError("feature ids must be unique")
    labels = starting_layout(features, cfg)
    rects, conns = label_rects(labels), points_array(l.conn for l in labels)
    arrays = scene_arrays(labels, features)
    initial_rects = rects.copy()
    check_screen_fit(rects[arrays.live], cfg.screen, cfg.d_min)
    t_d = pruning_distance(features, cfg)
    ref_graph = reference_graph(rects, arrays.live, features, cfg, t_d)

    if cfg.t_num is None:
        # The first step's Delaunay graph is the reference graph: the same
        # layout, live slots and t_d.
        first = ref_graph if cfg.graph_kind is GraphKind.DT else None
        groups = [_group(0, np.arange(len(labels)), arrays.live, features, cfg, t_d, first)]
        subgroup_sizes: tuple[int, ...] = ()
    else:
        slots = [np.array(g) for g in partition_labels(rects, arrays.live, cfg.t_num)]
        groups = [
            _group(k, g, np.arange(len(g)), [features[i] for i in g], cfg, None)
            for k, g in enumerate(slots)
        ]
        subgroup_sizes = tuple(len(g) for g in slots)
    loops = _run_loops(_scene(features, cfg, arrays, groups), groups, rects, conns)

    repair_moves = 0
    n_rr, n_rp = count_conflicts(rects, arrays, cfg.d_min)
    if n_rr + n_rp > 0:
        # Finishing pass for force-cancellation deadlocks. Kept deliberately
        # short-ranged (64 mm at the default d_min): nudging preserves the
        # relative arrangement the iteration produced, relocating does not.
        _, repair_moves = greedy_repair(
            rects, conns, arrays, cfg, diagonal=True, max_axis_retries=5
        )
        n_rr, n_rp = count_conflicts(rects, arrays, cfg.d_min)

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
        total_displacement_cm=total_displacement_cm(initial_rects, rects, arrays.live),
        mean_direction_deviation_deg=mean_direction_deviation(initial_rects, rects, ref_graph),
        initial_graph_edges=len(ref_graph.edges),
        solver_graph_edges=sum(
            loop.history[0].graph_edges for loop in loops if loop.history
        ),
        force_tags=tuple(sorted(tags)),
        subgroup_sizes=subgroup_sizes,
        loops=tuple(loops),
        deleted_count=len(labels) - len(arrays.live),
        repair_moves=repair_moves,
    )
    return placed_labels(labels, arrays.live, rects, conns), report
