"""Scene and placement file formats, plus the synthetic scene generator.

Scenes are JSON with explicit mm units in field names, so files stay
readable and diffable. The generator is fully seeded: the same (n, seed,
profile, charset) always produces byte-identical output, which makes the
generated scenes usable as canonical test fixtures.
"""

from __future__ import annotations

import json
import math
import random
from typing import Any, Sequence

from .geometry import Rect, Vec2
from .scene import (
    BeamParams,
    GraphKind,
    Label,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
)

SCHEMA_VERSION = "1"

_ASCII_POOL = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_CJK_POOL = "北京王府井大街东西南中山路口公园湖海学堂市场商城村镇桥站塔楼阁寺庙巷里坊区门外内新老长安"


class SceneValidationError(ValueError):
    """A scene or placement file violated the schema."""


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise SceneValidationError(f"{where}: missing required field {key!r}")
    value = data[key]
    if kind is float:
        return _number(value, f"{where}.{key}")
    if not isinstance(value, kind):
        raise SceneValidationError(f"{where}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _numbers(data: dict, key: str, count: int, where: str) -> list[float]:
    values = _require(data, key, list, where)
    if len(values) != count:
        raise SceneValidationError(f"{where}.{key}: expected {count} numbers, got {len(values)}")
    return [_number(v, f"{where}.{key}[{k}]") for k, v in enumerate(values)]


def _optional_numbers(data: dict, fields: dict[str, str], where: str) -> dict[str, float]:
    """The numbers data gives (not None) among the keys of fields, under
    the field names they map to, so a dataclass fills in the rest."""
    return {
        name: _number(data[key], f"{where}.{key}")
        for key, name in fields.items()
        if data.get(key) is not None
    }


def _number(value: Any, where: str) -> float:
    # JSON admits Infinity and NaN; no scene field may hold either.
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SceneValidationError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SceneValidationError(f"{where}: expected a finite number, got {value!r}")
    return number


def parse_scene(data: Any, source: str = "<scene>") -> tuple[list[PointFeature], LayoutConfig]:
    if not isinstance(data, dict):
        raise SceneValidationError(f"{source}: top level must be an object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SceneValidationError(f"{source}: unsupported schema_version {version!r}")

    screen_raw = _require(data, "screen", dict, source)
    width = _require(screen_raw, "width_mm", float, f"{source}.screen")
    height = _require(screen_raw, "height_mm", float, f"{source}.screen")
    if not (width > 0 and height > 0):
        raise SceneValidationError(f"{source}.screen: dimensions must be positive")
    screen = Rect(0.0, 0.0, width, height)

    raw_features = _require(data, "features", list, source)
    if not raw_features:
        raise SceneValidationError(f"{source}.features: at least one feature is required")
    features: list[PointFeature] = []
    seen_ids: set[str] = set()
    for pos, raw in enumerate(raw_features):
        where = f"{source}.features[{pos}]"
        if not isinstance(raw, dict):
            raise SceneValidationError(f"{where}: expected an object")
        fid = _require(raw, "id", str, where)
        if fid in seen_ids:
            raise SceneValidationError(f"{where}: duplicate feature id {fid!r}")
        seen_ids.add(fid)
        x = _require(raw, "x_mm", float, where)
        y = _require(raw, "y_mm", float, where)
        if not (0.0 <= x <= width and 0.0 <= y <= height):
            raise SceneValidationError(
                f"{where}: position ({x}, {y}) lies outside the {width}x{height} mm screen"
            )
        depth = _require(raw, "depth", float, where)
        text = _require(raw, "text", str, where)
        radius = _optional_numbers(raw, {"symbol_radius_mm": "symbol_radius"}, where)
        try:
            features.append(PointFeature(id=fid, anchor=Vec2(x, y), depth=depth, text=text, **radius))
        except ValueError as exc:
            raise SceneValidationError(f"{where}: {exc}") from exc

    cfg_raw = data.get("config", {})
    if cfg_raw is None:
        cfg_raw = {}
    if not isinstance(cfg_raw, dict):
        raise SceneValidationError(f"{source}.config: expected an object")
    cfg = _parse_config(cfg_raw, screen, f"{source}.config")
    return features, cfg


def _parse_config(raw: dict, screen: Rect, where: str) -> LayoutConfig:
    leader_raw = raw.get("leader", {}) or {}
    if not isinstance(leader_raw, dict):
        raise SceneValidationError(f"{where}.leader: expected an object")
    leader_args = _optional_numbers(
        leader_raw, {"length_mm": "length", "direction_deg": "direction"}, f"{where}.leader"
    )
    if "type" in leader_raw:
        try:
            leader_args["kind"] = LeaderType(int(leader_raw["type"]))
        except (ValueError, TypeError) as exc:
            raise SceneValidationError(f"{where}.leader.type: must be 1, 2, 3, or 4") from exc

    beam_raw = raw.get("beam", {}) or {}
    if not isinstance(beam_raw, dict):
        raise SceneValidationError(f"{where}.beam: expected an object")
    beam_names = ("elastic_modulus", "cross_section", "moment_of_inertia", "ground_stiffness")
    beam_args = _optional_numbers(
        beam_raw, {"max_step_mm": "max_step", **dict(zip(beam_names, beam_names))}, f"{where}.beam"
    )

    args = _optional_numbers(raw, {
        "d_min_mm": "d_min",
        "w_max_pt": "w_max_pt",
        "w_min_pt": "w_min_pt",
        "t_d_factor": "t_d_factor",
        "t_f_factor": "t_f_factor",
        "padding_mm": "padding",
    }, where)
    if "graph" in raw:
        try:
            args["graph_kind"] = GraphKind(raw["graph"])
        except ValueError as exc:
            raise SceneValidationError(f"{where}.graph: must be 'dt' or 'mst'") from exc
    for key in ("t_s_override", "t_num"):
        if raw.get(key) is not None:
            if not isinstance(raw[key], int):
                raise SceneValidationError(f"{where}.{key}: expected an integer")
            args[key] = raw[key]

    try:
        return LayoutConfig(
            screen=screen, leader=LeaderSpec(**leader_args), beam=BeamParams(**beam_args), **args
        )
    except ValueError as exc:
        raise SceneValidationError(f"{where}: {exc}") from exc


def scene_to_dict(features: Sequence[PointFeature], cfg: LayoutConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "screen": {"width_mm": cfg.screen.width, "height_mm": cfg.screen.height},
        "features": [
            {
                "id": f.id,
                "x_mm": f.anchor.x,
                "y_mm": f.anchor.y,
                "depth": f.depth,
                "text": f.text,
                "symbol_radius_mm": f.symbol_radius,
            }
            for f in features
        ],
        "config": {
            "d_min_mm": cfg.d_min,
            "w_max_pt": cfg.w_max_pt,
            "w_min_pt": cfg.w_min_pt,
            "leader": {
                "length_mm": cfg.leader.length,
                "direction_deg": cfg.leader.direction,
                "type": int(cfg.leader.kind),
            },
            "t_d_factor": cfg.t_d_factor,
            "t_s_override": cfg.t_s_override,
            "t_f_factor": cfg.t_f_factor,
            "t_num": cfg.t_num,
            "graph": cfg.graph_kind.value,
            "padding_mm": cfg.padding,
            "beam": {
                "elastic_modulus": cfg.beam.elastic_modulus,
                "cross_section": cfg.beam.cross_section,
                "moment_of_inertia": cfg.beam.moment_of_inertia,
                "ground_stiffness": cfg.beam.ground_stiffness,
                "max_step_mm": cfg.beam.max_step,
            },
        },
    }


def load_scene(path: str) -> tuple[list[PointFeature], LayoutConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, or an over-long integer
            raise SceneValidationError(f"{path}: not valid JSON ({exc})") from exc
    return parse_scene(data, source=path)


def save_scene(features: Sequence[PointFeature], cfg: LayoutConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_dict(features, cfg), fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def generate_synthetic(
    n: int,
    seed: int,
    screen: tuple[float, float] = (250.0, 150.0),
    profile: str = "uniform",
    charset: str = "ascii",
) -> dict:
    """Deterministic pseudo-random scene with n features.

    Profiles: "uniform" scatters anchors evenly, "clustered" draws them
    around a handful of cluster centers. Depths are log-uniform in [50, 500]
    so font sizes span the configured range; texts are 4 to 14 characters
    from the ASCII or CJK pool. Anchors keep 4 mm from the sides and bottom
    and 22 mm from the top, for upward leaders; a screen that is not finite
    or leaves them no room raises ValueError.
    """
    width, height = screen
    margin = 4.0
    top_margin = 22.0
    if n < 1:
        raise ValueError("n must be at least 1")
    if profile not in ("uniform", "clustered"):
        raise ValueError(f"unknown profile {profile!r}")
    if charset not in ("ascii", "cjk"):
        raise ValueError(f"unknown charset {charset!r}")
    # Written so that a NaN side fails too.
    if not (2.0 * margin < width < math.inf and margin + top_margin < height < math.inf):
        raise ValueError(f"screen {width} x {height} mm leaves no room inside the anchor margins")
    rng = random.Random(seed)
    pool = _ASCII_POOL if charset == "ascii" else _CJK_POOL

    if profile == "clustered":
        k = max(1, round(math.sqrt(n) / 1.5))
        centers = [
            (rng.uniform(margin, width - margin), rng.uniform(margin, height - top_margin))
            for _ in range(k)
        ]
        spread = min(width, height) / 10.0

    features = []
    for idx in range(n):
        if profile == "uniform":
            x = rng.uniform(margin, width - margin)
            y = rng.uniform(margin, height - top_margin)
        else:
            cx, cy = centers[rng.randrange(len(centers))]
            x = min(width - margin, max(margin, rng.gauss(cx, spread)))
            y = min(height - top_margin, max(margin, rng.gauss(cy, spread)))
        depth = math.exp(rng.uniform(math.log(50.0), math.log(500.0)))
        length = rng.randint(4, 14)
        text = "".join(rng.choice(pool) for _ in range(length))
        features.append(
            {
                "id": f"p{idx:04d}",
                "x_mm": round(x, 4),
                "y_mm": round(y, 4),
                "depth": round(depth, 4),
                "text": text,
                "symbol_radius_mm": 0.5,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "screen": {"width_mm": width, "height_mm": height},
        "features": features,
        "config": {},
    }


def synthetic_scene(
    n: int,
    seed: int,
    screen: tuple[float, float] = (250.0, 150.0),
    profile: str = "uniform",
    charset: str = "ascii",
) -> tuple[list[PointFeature], LayoutConfig]:
    """Generate and parse in one step; handy for tests and benchmarks."""
    return parse_scene(generate_synthetic(n, seed, screen, profile, charset))


def labels_to_dict(labels: Sequence[Label], report: dict | None = None) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "labels": [
            {
                "feature_id": l.feature_id,
                "rect_mm": [l.rect.x_min, l.rect.y_min, l.rect.x_max, l.rect.y_max],
                "conn_mm": [l.conn.x, l.conn.y],
                "font_size_pt": l.font_size,
                "deleted": l.deleted,
            }
            for l in labels
        ],
    }
    if report is not None:
        out["report"] = report
    return out


def parse_placement(data: Any, source: str = "<placement>") -> list[Label]:
    if not isinstance(data, dict):
        raise SceneValidationError(f"{source}: top level must be an object")
    raw_labels = _require(data, "labels", list, source)
    labels = []
    for pos, raw in enumerate(raw_labels):
        where = f"{source}.labels[{pos}]"
        if not isinstance(raw, dict):
            raise SceneValidationError(f"{where}: expected an object")
        fid = _require(raw, "feature_id", str, where)
        rect_vals = _numbers(raw, "rect_mm", 4, where)
        conn_vals = _numbers(raw, "conn_mm", 2, where)
        size = _require(raw, "font_size_pt", float, where)
        deleted = raw.get("deleted", False)
        if not isinstance(deleted, bool):
            raise SceneValidationError(f"{where}.deleted: expected a boolean")
        try:
            labels.append(
                Label(
                    feature_id=fid,
                    rect=Rect(*rect_vals),
                    conn=Vec2(*conn_vals),
                    font_size=size,
                    deleted=deleted,
                )
            )
        except ValueError as exc:
            raise SceneValidationError(f"{where}: {exc}") from exc
    return labels


def load_placement(path: str) -> list[Label]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, or an over-long integer
            raise SceneValidationError(f"{path}: not valid JSON ({exc})") from exc
    return parse_placement(data, source=path)


def save_placement(labels: Sequence[Label], path: str, report: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(labels_to_dict(labels, report), fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
