"""Output checks that share no code with the program under test.

Everything here is recomputed from the scene document and the documented
formulas (README "How a run works" and "Design notes"): the 0.6 em text
measure, the perspective font size, the leader-tip initial layout and the
conflict rule. The program's own geometry, metrics and proximity code is not
imported, so a fault there cannot hide itself from these checks.

Layouts are plain arrays: `rects` is (n, 4) as x_min, y_min, x_max, y_max in
mm, `conns` is (n, 2), `font_sizes` is (n,) in points and `deleted` is (n,)
bool, all in the order of the scene's features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

PT_TO_MM = 0.3528
SINGLE_WIDTH_EM = 0.6
LINE_HEIGHT_EM = 1.2
# Half-width of the band around d_min inside which the report's conflict
# counts may fall either way; gaps that land within 1e-9 mm of d_min after
# floating-point motion are not decidable from outside.
D_MIN_EPS_MM = 1e-9
# Tolerances for quantities the program carries through repeated
# translations: widths, heights and the leader connection point.
LENGTH_TOL_MM = 1e-9
FONT_REL_TOL = 1e-12


@dataclass(frozen=True)
class SceneSpec:
    """The parts of a scene document the checks need, with defaults filled in."""

    anchors: np.ndarray  # (m, 2)
    depths: np.ndarray
    texts: tuple[str, ...]
    radii: np.ndarray
    d_min: float
    w_max_pt: float
    w_min_pt: float
    leader_length: float
    leader_direction: float
    leader_type: int
    t_d_factor: float
    t_f_factor: float
    padding: float


def scene_spec(doc: dict) -> SceneSpec:
    cfg = doc.get("config") or {}
    leader = cfg.get("leader") or {}
    feats = doc["features"]

    def opt(table: dict, key: str, default: float) -> float:
        value = table.get(key)
        return default if value is None else float(value)

    return SceneSpec(
        anchors=np.array([[f["x_mm"], f["y_mm"]] for f in feats], dtype=float),
        depths=np.array([f["depth"] for f in feats], dtype=float),
        texts=tuple(f["text"] for f in feats),
        radii=np.array([f.get("symbol_radius_mm", 0.5) for f in feats], dtype=float),
        d_min=opt(cfg, "d_min_mm", 0.2),
        w_max_pt=opt(cfg, "w_max_pt", 12.0),
        w_min_pt=opt(cfg, "w_min_pt", 4.0),
        leader_length=opt(leader, "length_mm", 10.0),
        leader_direction=opt(leader, "direction_deg", 90.0) % 360.0,
        leader_type=int(leader.get("type", 4)),
        t_d_factor=opt(cfg, "t_d_factor", 3.0),
        t_f_factor=opt(cfg, "t_f_factor", 0.1),
        padding=opt(cfg, "padding_mm", 0.0),
    )


def expected_boxes(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(font size pt, width mm, height mm) per feature.

    font = clamp(w_max * depth_nearest / depth, w_min, w_max); an ASCII
    character advances 0.6 em and a line is 1.2 em, 1 pt = 0.3528 mm.
    """
    if not all(t.isascii() for t in spec.texts):
        raise ValueError("the checker measures single-width (ASCII) text only")
    fonts = np.clip(spec.w_max_pt * spec.depths.min() / spec.depths, spec.w_min_pt, spec.w_max_pt)
    em = fonts * PT_TO_MM
    lengths = np.array([len(t) for t in spec.texts], dtype=float)
    widths = SINGLE_WIDTH_EM * lengths * em + 2.0 * spec.padding
    heights = LINE_HEIGHT_EM * em + 2.0 * spec.padding
    return fonts, widths, heights


def _leader_unit(direction_deg: float) -> tuple[float, float]:
    exact = {0.0: (1.0, 0.0), 90.0: (0.0, 1.0), 180.0: (-1.0, 0.0), 270.0: (0.0, -1.0)}
    if direction_deg in exact:
        return exact[direction_deg]
    r = math.radians(direction_deg)
    return math.cos(r), math.sin(r)


def initial_rects(spec: SceneSpec) -> np.ndarray:
    """Each label with its bottom-edge midpoint on the leader tip."""
    _, widths, heights = expected_boxes(spec)
    ux, uy = _leader_unit(spec.leader_direction)
    tip_x = spec.anchors[:, 0] + ux * spec.leader_length
    tip_y = spec.anchors[:, 1] + uy * spec.leader_length
    x_min = tip_x - 0.5 * widths
    return np.stack([x_min, tip_y, x_min + widths, tip_y + heights], axis=1)


def count_conflicts(
    rects: np.ndarray, deleted: np.ndarray, spec: SceneSpec, d: float
) -> tuple[int, int]:
    """Brute-force (label-label, label-symbol) conflicts at separation d.

    A pair conflicts when the Euclidean gap between the two rectangles is
    below d; overlapping and touching rectangles have gap 0. A label
    conflicts with a foreign symbol when the distance from the anchor to the
    closed rectangle, minus the symbol radius, is below d. Deleted labels and
    their symbols take no part.
    """
    live = ~np.asarray(deleted, dtype=bool)
    x0, y0, x1, y1 = (rects[:, k] for k in range(4))

    dx = np.maximum(0.0, np.maximum(x0[:, None] - x1[None, :], x0[None, :] - x1[:, None]))
    dy = np.maximum(0.0, np.maximum(y0[:, None] - y1[None, :], y0[None, :] - y1[:, None]))
    pair = (np.hypot(dx, dy) < d) & live[:, None] & live[None, :]
    n_rr = int(np.triu(pair, k=1).sum())

    ax = spec.anchors[:, 0][None, :]
    ay = spec.anchors[:, 1][None, :]
    px = np.maximum(0.0, np.maximum(x0[:, None] - ax, ax - x1[:, None]))
    py = np.maximum(0.0, np.maximum(y0[:, None] - ay, ay - y1[:, None]))
    sym = (np.hypot(px, py) - spec.radii[None, :] < d) & live[:, None] & live[None, :]
    np.fill_diagonal(sym, False)
    return n_rr, int(sym.sum())


def direction_deviation(
    spec: SceneSpec, initial: np.ndarray, final: np.ndarray, deleted: np.ndarray
) -> float:
    """Mean orientation drift in degrees, in [0, 90].

    Edges are those of the Delaunay triangulation of the live initial label
    centres no longer than t_d = t_d_factor * mean nearest-neighbour anchor
    distance. Each edge's undirected orientation is compared between the two
    layouts; an edge of zero length in either layout counts as no drift.
    """
    live = np.flatnonzero(~np.asarray(deleted, dtype=bool))
    if len(live) < 3 or len(spec.anchors) < 2:
        return 0.0
    nn, _ = cKDTree(spec.anchors).query(spec.anchors, k=2)
    t_d = spec.t_d_factor * float(nn[:, 1].mean())
    c0 = 0.5 * (initial[live, :2] + initial[live, 2:])
    c1 = 0.5 * (final[live, :2] + final[live, 2:])
    try:
        simplices = Delaunay(c0).simplices
    except QhullError:
        return 0.0
    edges = np.concatenate([simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]])
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    v0 = c0[edges[:, 1]] - c0[edges[:, 0]]
    v1 = c1[edges[:, 1]] - c1[edges[:, 0]]
    len0 = np.hypot(v0[:, 0], v0[:, 1])
    keep = len0 <= t_d
    v0, v1, len0 = v0[keep], v1[keep], len0[keep]
    if len(v0) == 0:
        return 0.0
    o0 = np.degrees(np.arctan2(v0[:, 1], v0[:, 0])) % 180.0
    o1 = np.degrees(np.arctan2(v1[:, 1], v1[:, 0])) % 180.0
    diff = np.abs(o0 - o1)
    drift = np.minimum(diff, 180.0 - diff)
    drift[(len0 == 0.0) | (np.hypot(v1[:, 0], v1[:, 1]) == 0.0)] = 0.0
    return float(drift.mean())


@dataclass(frozen=True)
class LoopRecord:
    steps: int
    max_iterations: int
    final_max_force: float


@dataclass(frozen=True)
class ReportView:
    """The report fields the checks read."""

    label_conflicts: int
    feature_conflicts: int
    infeasible: bool
    loops: tuple[LoopRecord, ...]


def check_placement(
    spec: SceneSpec,
    feature_ids: list[str],
    label_ids: list[str],
    rects: np.ndarray,
    conns: np.ndarray,
    font_sizes: np.ndarray,
    deleted: np.ndarray,
    report: ReportView,
) -> list[str]:
    """Every way the placement breaks the documented contract; empty if none."""
    problems: list[str] = []
    if label_ids != feature_ids:
        return ["labels are not one per feature in scene order"]
    if not (np.isfinite(rects).all() and np.isfinite(conns).all()):
        return ["non-finite coordinate in the placement"]

    lo = count_conflicts(rects, deleted, spec, spec.d_min - D_MIN_EPS_MM)
    hi = count_conflicts(rects, deleted, spec, spec.d_min + D_MIN_EPS_MM)
    for what, got, low, high in (
        ("label-label", report.label_conflicts, lo[0], hi[0]),
        ("label-symbol", report.feature_conflicts, lo[1], hi[1]),
    ):
        if not low <= got <= high:
            problems.append(f"report has {got} {what} conflicts, checker counts {low}..{high}")
    remaining_lo, remaining_hi = sum(lo), sum(hi)
    if report.infeasible and remaining_hi == 0:
        problems.append("report says infeasible but no conflicts remain")
    if not report.infeasible and remaining_lo > 0:
        problems.append(f"report says feasible but {remaining_lo} conflicts remain")

    fonts, widths, heights = expected_boxes(spec)
    live = ~np.asarray(deleted, dtype=bool)
    if np.any(np.abs(font_sizes - fonts) > FONT_REL_TOL * np.maximum(1.0, fonts)):
        problems.append("a label's font size differs from the perspective formula")
    if np.any(np.abs((rects[:, 2] - rects[:, 0]) - widths)[live] > LENGTH_TOL_MM):
        problems.append("a label's width differs from the 0.6 em text measure")
    if np.any(np.abs((rects[:, 3] - rects[:, 1]) - heights)[live] > LENGTH_TOL_MM):
        problems.append("a label's height differs from the 1.2 em line height")

    if spec.leader_type == 4:
        if spec.leader_direction != 90.0:
            problems.append("the connection check supports upward type-4 leaders only")
        else:
            off_x = np.abs(conns[:, 0] - spec.anchors[:, 0])[live]
            off_y = np.abs(conns[:, 1] - rects[:, 1])[live]
            if np.any(off_x > LENGTH_TOL_MM) or np.any(off_y > LENGTH_TOL_MM):
                problems.append("a type-4 connection point is off its anchor's x or the bottom edge")

    t_f = spec.t_f_factor * spec.d_min
    for k, loop in enumerate(report.loops):
        if loop.steps > loop.max_iterations:
            problems.append(f"loop {k} ran {loop.steps} steps past its cap {loop.max_iterations}")
        elif loop.steps != loop.max_iterations and not loop.final_max_force <= t_f:
            problems.append(
                f"loop {k} stopped at step {loop.steps} of {loop.max_iterations} "
                f"with max force {loop.final_max_force} > {t_f}"
            )
    return problems
