"""Shared builders for randomized test scenes and geometry."""

from __future__ import annotations

import random

import pytest

from leaderlabels.geometry import Rect, Vec2
from leaderlabels.scene import Label, LayoutConfig, PointFeature


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
