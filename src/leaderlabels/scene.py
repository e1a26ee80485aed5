"""Domain entities, text measurement, and the initial leadered layout.

A scene is a set of point features on the screen plane. Every feature gets
one label connected by a straight leader line. Font size shrinks with the
feature's distance from the viewpoint, the usual perspective cue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from typing import Sequence

import numpy as np

from .geometry import Rect, Vec2, screen_room, unit_from_degrees

PT_TO_MM = 0.3528

# Monospace approximation: em fractions per character class. Deterministic
# across platforms, unlike real font metrics.
SINGLE_WIDTH_EM = 0.60
DOUBLE_WIDTH_EM = 1.00
LINE_HEIGHT_EM = 1.20

# Unicode blocks rendered double width: CJK Unified Ideographs, CJK Symbols
# and Punctuation, Halfwidth and Fullwidth Forms.
_DOUBLE_WIDTH_RANGES = (
    (0x3000, 0x303F),
    (0x4E00, 0x9FFF),
    (0xFF00, 0xFFEF),
)


class LeaderType(IntEnum):
    """The four straight-leader variants, by direction and connection freedom."""

    FIXED_DIR_FIXED_CONN = 1
    FREE_DIR_FIXED_CONN = 2
    FREE_DIR_FREE_CONN = 3
    FIXED_DIR_FREE_CONN = 4

    @property
    def fixed_direction(self) -> bool:
        return self in (LeaderType.FIXED_DIR_FIXED_CONN, LeaderType.FIXED_DIR_FREE_CONN)

    @property
    def fixed_connection(self) -> bool:
        return self in (LeaderType.FIXED_DIR_FIXED_CONN, LeaderType.FREE_DIR_FIXED_CONN)


class GraphKind(str, Enum):
    """Which proximity graph drives the beam network."""

    DT = "dt"
    MST = "mst"


@dataclass(frozen=True, slots=True)
class PointFeature:
    """An anchor on the screen plane with a label text.

    depth is the planar distance from the viewpoint in arbitrary positive
    units; it only enters font sizing as a ratio. symbol_radius is the drawn
    marker radius in mm, used for label-vs-feature conflict checks.
    """

    id: str
    anchor: Vec2
    depth: float
    text: str
    symbol_radius: float = 0.5

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError(f"feature {self.id!r} has empty text")
        if not self.depth > 0:
            raise ValueError(f"feature {self.id!r} has non-positive depth {self.depth!r}")
        if self.symbol_radius < 0:
            raise ValueError(f"feature {self.id!r} has negative symbol radius")


@dataclass(frozen=True, slots=True)
class LeaderSpec:
    length: float = 10.0
    direction: float = 90.0
    kind: LeaderType = LeaderType.FIXED_DIR_FREE_CONN

    def __post_init__(self) -> None:
        if not 0 < self.length < math.inf:
            raise ValueError("leader length must be positive and finite")
        if not math.isfinite(self.direction):
            raise ValueError("leader direction must be finite")
        object.__setattr__(self, "direction", float(self.direction) % 360.0)

    def unit(self) -> Vec2:
        return unit_from_degrees(self.direction)


@dataclass(frozen=True, slots=True)
class Label:
    """A placed label: bounding rectangle plus leader connection point."""

    feature_id: str
    rect: Rect
    conn: Vec2
    font_size: float
    deleted: bool = False


@dataclass(frozen=True, slots=True)
class BeamParams:
    """Stiffness parameters of the elastic network, in mm-based units.

    The defaults are tuned so that a node's displacement response is of the
    same order as the applied force (ground stiffness near 1) while beam
    coupling still drags neighbors along; much softer ground springs make
    the iteration overshoot and ping-pong, much stiffer coupling prevents
    conflicting pairs from separating at all. max_step caps per-iteration
    node translation; None means "resolve to 2 * d_min when the layout
    config is applied".
    """

    elastic_modulus: float = 1.0
    cross_section: float = 5.0
    moment_of_inertia: float = 100.0
    ground_stiffness: float = 1.0
    max_step: float | None = None

    def __post_init__(self) -> None:
        for name in ("elastic_modulus", "cross_section", "moment_of_inertia", "ground_stiffness"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError("max_step must be strictly positive")


class LabelLargerThanScreenError(ValueError):
    """No placement of this label can satisfy screen containment."""


@dataclass(frozen=True, slots=True)
class LayoutConfig:
    """All tunables of the placement pipeline."""

    screen: Rect
    d_min: float = 0.2
    w_max_pt: float = 12.0
    w_min_pt: float = 4.0
    leader: LeaderSpec = field(default_factory=LeaderSpec)
    t_d_factor: float = 3.0
    t_s_override: int | None = None
    t_f_factor: float = 0.1
    t_num: int | None = None
    graph_kind: GraphKind = GraphKind.DT
    padding: float = 0.0
    beam: BeamParams = field(default_factory=BeamParams)

    def __post_init__(self) -> None:
        if not self.d_min > 0:
            raise ValueError("d_min must be positive")
        if not (0 < self.w_min_pt <= self.w_max_pt):
            raise ValueError("font bounds must satisfy 0 < w_min_pt <= w_max_pt")
        if not self.t_d_factor > 0:
            raise ValueError("t_d_factor must be positive")
        if not self.t_f_factor > 0:
            raise ValueError("t_f_factor must be positive")
        if self.t_s_override is not None and self.t_s_override < 1:
            raise ValueError("t_s_override must be at least 1")
        if self.t_num is not None and self.t_num < 1:
            raise ValueError("t_num must be at least 1")
        if self.padding < 0:
            raise ValueError("padding must be non-negative")
        # With more padding than this no label fits inside the screen with
        # d_min to spare, and a padding near the float range overflows.
        room = min(screen_room(self.screen, self.d_min))
        if self.padding > 0 and 2.0 * self.padding > room:
            raise ValueError("padding leaves no room for a label inside the screen")

    @property
    def force_threshold(self) -> float:
        return self.t_f_factor * self.d_min

    def resolved_beam(self) -> BeamParams:
        """Beam parameters with the default step cap filled in."""
        if self.beam.max_step is not None:
            return self.beam
        return replace(self.beam, max_step=2.0 * self.d_min)


def is_double_width(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _DOUBLE_WIDTH_RANGES)


def measure_text(text: str, font_size_pt: float) -> tuple[float, float]:
    """Width and height in mm of a single-line string at the given size.

    Per-character advance is 0.6 em for single-width characters and 1.0 em
    for double-width (CJK) ones; line height is 1.2 em.
    """
    if not text:
        raise ValueError("cannot measure empty text")
    if not font_size_pt > 0:
        raise ValueError("font size must be positive")
    em = font_size_pt * PT_TO_MM
    # Added left to right: from Python 3.12, sum() compensates float sums.
    advance = 0.0
    for ch in text:
        advance += DOUBLE_WIDTH_EM if is_double_width(ch) else SINGLE_WIDTH_EM
    return advance * em, LINE_HEIGHT_EM * em


def font_size_for(feature: PointFeature, d_nearest: float, cfg: LayoutConfig) -> float:
    """Perspective font size: nearest feature gets w_max_pt, farther ones
    shrink proportionally, clamped to [w_min_pt, w_max_pt]."""
    if not d_nearest > 0:
        raise ValueError("d_nearest must be positive")
    size = cfg.w_max_pt * d_nearest / feature.depth
    return min(cfg.w_max_pt, max(cfg.w_min_pt, size))


def attachment_edge(rects: np.ndarray, u: Vec2) -> tuple[int, np.ndarray]:
    """Where a leader running along u meets each of the (n, 4) rects: the
    axis it mostly runs along, 0 for x and 1 for y, and the level on that
    axis of the rect edge that faces back toward the anchor."""
    along = 1 if abs(u.y) >= abs(u.x) else 0
    return along, rects[:, along] if (u.x, u.y)[along] > 0 else rects[:, along + 2]


def connection_points(
    rects: np.ndarray, anchors: np.ndarray, leader: LeaderSpec, translated_conns: np.ndarray
) -> np.ndarray:
    """Where the leaders attach after the labels moved to the (n, 4) rects,
    with (n, 2) anchors and translated_conns, as an (n, 2) array.

    Fixed-connection types carry the point rigidly with the rect. The free
    free-direction type snaps to the rect point nearest the anchor. The
    sliding fixed-direction type meets the attachment edge's line; the ray
    may miss the edge itself, which the attachment force corrects later.
    """
    kind = leader.kind
    if kind.fixed_connection:
        return translated_conns
    if kind is LeaderType.FREE_DIR_FREE_CONN:
        # min(max(a, lo), hi) as Python evaluates it: ties keep the anchor.
        p = np.where(rects[:, 0:2] > anchors, rects[:, 0:2], anchors)
        return np.where(rects[:, 2:4] < p, rects[:, 2:4], p)
    u = leader.unit()
    along, level = attachment_edge(rects, u)
    across = 1 - along
    uv = (u.x, u.y)
    conns = np.empty_like(anchors)
    conns[:, along] = level
    conns[:, across] = anchors[:, across] + (level - anchors[:, along]) / uv[along] * uv[across]
    return conns


def live_slots(labels: Sequence[Label]) -> np.ndarray:
    """Slot indices of the labels not deleted, rising."""
    return np.flatnonzero([not l.deleted for l in labels])


def label_rects(labels: Sequence[Label]) -> np.ndarray:
    """(n, 4) array of x_min, y_min, x_max, y_max, one row per label slot."""
    return np.array(
        [(l.rect.x_min, l.rect.y_min, l.rect.x_max, l.rect.y_max) for l in labels], dtype=float
    ).reshape(-1, 4)


def placed_labels(
    labels: Sequence[Label], live: np.ndarray, rects: np.ndarray, conns: np.ndarray
) -> list[Label]:
    """The labels at the (n, 4) rects and (n, 2) conns, one row per slot;
    the slots not in live as they were."""
    placed = list(labels)
    for i, (x0, y0, x1, y1), (cx, cy) in zip(live.tolist(), rects[live].tolist(), conns[live].tolist()):
        lbl = placed[i]
        placed[i] = Label(lbl.feature_id, Rect(x0, y0, x1, y1), Vec2(cx, cy), lbl.font_size)
    return placed


def initial_layout(features: list[PointFeature], cfg: LayoutConfig) -> list[Label]:
    """Place every label at its leader tip.

    The leader runs from the anchor along the configured direction for the
    configured length; the label rectangle is positioned so that its
    bottom-edge midpoint, its initial connection point, sits on the tip.
    """
    if not features:
        raise ValueError("at least one feature is required")
    d_nearest = min(f.depth for f in features)
    u = cfg.leader.unit()
    labels = []
    for f in features:
        size = font_size_for(f, d_nearest, cfg)
        w, h = measure_text(f.text, size)
        w += 2.0 * cfg.padding
        h += 2.0 * cfg.padding
        if not (math.isfinite(w) and math.isfinite(h)):
            raise LabelLargerThanScreenError(
                f"label of feature {f.id!r} measures {w!r}x{h!r} mm; lower "
                "config.w_max_pt or config.padding_mm"
            )
        tip = f.anchor + u * cfg.leader.length
        x_min = tip.x - 0.5 * w
        rect = Rect(x_min, tip.y, x_min + w, tip.y + h)
        labels.append(Label(feature_id=f.id, rect=rect, conn=tip, font_size=size))
    return labels
