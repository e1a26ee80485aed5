"""Shared builders for randomized test scenes and geometry."""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Sequence

import pytest

from leaderlabels.geometry import Rect, Vec2
from leaderlabels.scene import Label, LayoutConfig, LeaderType, PointFeature


def random_rect(rng: random.Random, span: float = 100.0, max_side: float = 20.0) -> Rect:
    x = rng.uniform(0.0, span)
    y = rng.uniform(0.0, span)
    w = rng.uniform(0.5, max_side)
    h = rng.uniform(0.5, max_side)
    return Rect(x, y, x + w, y + h)


def disjoint_rect_pair(rng: random.Random) -> tuple[Rect, Rect]:
    """Two rects guaranteed not to overlap in their interiors."""
    while True:
        a = random_rect(rng)
        b = random_rect(rng)
        if not (a.x_min < b.x_max and b.x_min < a.x_max and a.y_min < b.y_max and b.y_min < a.y_max):
            return a, b


def overlapping_rect_pair(rng: random.Random) -> tuple[Rect, Rect]:
    while True:
        a = random_rect(rng)
        dx = rng.uniform(-0.8, 0.8) * a.width
        dy = rng.uniform(-0.8, 0.8) * a.height
        b = Rect(
            a.x_min + dx,
            a.y_min + dy,
            a.x_min + dx + rng.uniform(0.5, 20.0),
            a.y_min + dy + rng.uniform(0.5, 20.0),
        )
        if a.x_min < b.x_max and b.x_min < a.x_max and a.y_min < b.y_max and b.y_min < a.y_max:
            return a, b


def labels_from_rects(rects: list[Rect]) -> list[Label]:
    return [
        Label(
            feature_id=f"f{i}",
            rect=r,
            conn=Vec2(0.5 * (r.x_min + r.x_max), r.y_min),
            font_size=10.0,
        )
        for i, r in enumerate(rects)
    ]


def random_labels(rng: random.Random, n: int, span: float = 100.0, max_side: float = 20.0) -> list[Label]:
    return labels_from_rects([random_rect(rng, span, max_side) for _ in range(n)])


def brute_force_label_conflicts(labels, d_min: float) -> list[tuple[int, int]]:
    """O(n^2) reference for the label conflict scan."""
    from leaderlabels.geometry import interiors_overlap, rect_distance

    out = []
    for i in range(len(labels)):
        if labels[i].deleted:
            continue
        for j in range(i + 1, len(labels)):
            if labels[j].deleted:
                continue
            ri, rj = labels[i].rect, labels[j].rect
            if rect_distance(ri, rj) < d_min or interiors_overlap(ri, rj):
                out.append((i, j))
    return out


def brute_force_feature_conflicts(labels, features, d_min: float) -> list[tuple[int, int]]:
    from leaderlabels.geometry import point_rect_signed_clearance

    deleted_ids = {l.feature_id for l in labels if l.deleted}
    out = []
    for i, lbl in enumerate(labels):
        if lbl.deleted:
            continue
        for k, f in enumerate(features):
            if f.id == lbl.feature_id or f.id in deleted_ids:
                continue
            if point_rect_signed_clearance(f.anchor, lbl.rect) - f.symbol_radius < d_min:
                out.append((i, k))
    return out


def candidate_ok(
    candidate: Rect,
    near_labels: Sequence[Rect],
    near_features: Sequence[PointFeature],
    cfg: LayoutConfig,
    anchor: Vec2,
) -> bool:
    """Scalar reference for the repair search's candidate test."""
    from leaderlabels.geometry import point_rect_signed_clearance, rect_distance

    d_min = cfg.d_min
    for other in near_labels:
        if rect_distance(candidate, other) < d_min:
            return False
    for feat in near_features:
        if point_rect_signed_clearance(feat.anchor, candidate) - feat.symbol_radius < d_min:
            return False
    screen = cfg.screen
    fits = (
        candidate.width <= screen.width - 2 * d_min
        and candidate.height <= screen.height - 2 * d_min
    )
    if fits and not (
        candidate.x_min - screen.x_min >= d_min
        and screen.x_max - candidate.x_max >= d_min
        and candidate.y_min - screen.y_min >= d_min
        and screen.y_max - candidate.y_max >= d_min
    ):
        return False
    if cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN:
        u = cfg.leader.unit()
        if abs(u.y) >= abs(u.x):
            if not (candidate.x_min <= anchor.x <= candidate.x_max):
                return False
            level = candidate.y_min if u.y > 0 else candidate.y_max
            if (level - anchor.y) * u.y < 0:
                return False
        else:
            if not (candidate.y_min <= anchor.y <= candidate.y_max):
                return False
            level = candidate.x_min if u.x > 0 else candidate.x_max
            if (level - anchor.x) * u.x < 0:
                return False
    return True


def ring_border_cells(r: int) -> list[tuple[int, int]]:
    """The off-axis border cells of ring r in (ix^2 + iy^2, ix, iy) order."""
    cells = []
    for m in range(1, r):
        cells += [(-r, -m), (-r, m), (-m, -r), (-m, r), (m, -r), (m, r), (r, -m), (r, m)]
    return cells + [(-r, -r), (-r, r), (r, -r), (r, r)]


def reference_search(
    idx: int,
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    cfg: LayoutConfig,
    anchor: Vec2,
    deleted_ids: set[str],
    budget: int,
    retries: int,
    reach_scale: float,
    step_offsets: Callable[[int], Iterable[Vec2]],
) -> tuple[Vec2 | None, int]:
    """The repair search with one `candidate_ok` call per candidate, each
    costing one unit of budget: (displacement or None, budget left).

    step_offsets(k) yields the offsets of step k, nearest first.
    """
    from leaderlabels.repair import BASE_RADIUS_FACTOR

    rect = labels[idx].rect
    center = rect.center()
    own_half_diag = 0.5 * math.hypot(rect.width, rect.height)
    own_feature = labels[idx].feature_id
    grid = cfg.d_min / 2.0
    start = 1
    for retry in range(retries + 1):
        radius = BASE_RADIUS_FACTOR * cfg.d_min * (2.0**retry)
        reach = radius * reach_scale + own_half_diag + cfg.d_min
        near_labels = [
            other.rect
            for j, other in enumerate(labels)
            if j != idx
            and not other.deleted
            and (other.rect.center() - center).norm()
            <= reach + 0.5 * math.hypot(other.rect.width, other.rect.height)
        ]
        near_features = [
            f
            for f in features
            if f.id != own_feature
            and f.id not in deleted_ids
            and (f.anchor - center).norm() <= reach + f.symbol_radius
        ]
        end = int(radius / grid)
        for k in range(start, end + 1):
            for d in step_offsets(k):
                if budget <= 0:
                    return None, budget
                budget -= 1
                if candidate_ok(rect.translated(d), near_labels, near_features, cfg, anchor):
                    return d, budget
        start = end + 1
    return None, budget


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240818)


def small_scene(n: int = 6, seed: int = 0) -> tuple[list[PointFeature], LayoutConfig]:
    """Hand-rolled scene helper for unit tests that want direct control."""
    rng = random.Random(seed)
    features = []
    for i in range(n):
        features.append(
            PointFeature(
                id=f"p{i}",
                anchor=Vec2(rng.uniform(10, 190), rng.uniform(10, 110)),
                depth=rng.uniform(50, 500),
                text="".join(rng.choice("ABCDEFGH") for _ in range(rng.randint(4, 9))),
            )
        )
    cfg = LayoutConfig(screen=Rect(0, 0, 200, 140))
    return features, cfg
