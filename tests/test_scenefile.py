import json
import math

import pytest

from leaderlabels.geometry import Rect
from leaderlabels.scene import GraphKind, LayoutConfig, LeaderType
from leaderlabels.scenefile import (
    SceneValidationError,
    generate_synthetic,
    labels_to_dict,
    load_placement,
    load_scene,
    parse_placement,
    parse_scene,
    save_scene,
    scene_to_dict,
    synthetic_scene,
)
from leaderlabels.scene import initial_layout


def minimal_scene() -> dict:
    return {
        "schema_version": "1",
        "screen": {"width_mm": 100.0, "height_mm": 80.0},
        "features": [{"id": "a", "x_mm": 50.0, "y_mm": 20.0, "depth": 100.0, "text": "HELLO"}],
    }


class TestParseScene:
    def test_minimal_with_defaults(self):
        features, cfg = parse_scene(minimal_scene())
        assert len(features) == 1
        assert features[0].symbol_radius == 0.5
        assert cfg.d_min == 0.2
        assert cfg.w_max_pt == 12.0
        assert cfg.leader.length == 10.0
        assert cfg.leader.direction == 90.0
        assert cfg.leader.kind is LeaderType.FIXED_DIR_FREE_CONN
        assert cfg.graph_kind is GraphKind.DT
        assert cfg.screen.width == 100.0

    def test_empty_config_takes_the_dataclass_defaults(self):
        data = minimal_scene()
        data["config"] = {}
        _, cfg = parse_scene(data)
        assert cfg == LayoutConfig(screen=Rect(0.0, 0.0, 100.0, 80.0))

    def test_duplicate_id_names_offender(self):
        data = minimal_scene()
        data["features"].append(dict(data["features"][0]))
        with pytest.raises(SceneValidationError, match="'a'"):
            parse_scene(data)

    def test_out_of_screen_feature_rejected(self):
        data = minimal_scene()
        data["features"][0]["x_mm"] = 150.0
        with pytest.raises(SceneValidationError, match="outside"):
            parse_scene(data)

    def test_missing_field_diagnostic(self):
        data = minimal_scene()
        del data["features"][0]["depth"]
        with pytest.raises(SceneValidationError, match=r"features\[0\]"):
            parse_scene(data)

    def test_bad_schema_version(self):
        data = minimal_scene()
        data["schema_version"] = "99"
        with pytest.raises(SceneValidationError, match="schema_version"):
            parse_scene(data)

    def test_bad_leader_type(self):
        data = minimal_scene()
        data["config"] = {"leader": {"type": 9}}
        with pytest.raises(SceneValidationError, match="leader.type"):
            parse_scene(data)

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_integer_beyond_float_range_rejected(self, value):
        data = minimal_scene()
        data["config"] = {"d_min_mm": value}
        with pytest.raises(SceneValidationError, match=r"config\.d_min_mm: expected a finite number"):
            parse_scene(json.loads(json.dumps(data)))

    def test_empty_features_rejected(self):
        data = minimal_scene()
        data["features"] = []
        with pytest.raises(SceneValidationError):
            parse_scene(data)

    def test_config_fields_parsed(self):
        data = minimal_scene()
        data["config"] = {
            "d_min_mm": 0.4,
            "t_num": 12,
            "graph": "mst",
            "leader": {"length_mm": 15.0, "direction_deg": 90.0, "type": 1},
            "beam": {"ground_stiffness": 0.7, "max_step_mm": 1.0},
        }
        _, cfg = parse_scene(data)
        assert cfg.d_min == 0.4
        assert cfg.t_num == 12
        assert cfg.graph_kind is GraphKind.MST
        assert cfg.leader.kind is LeaderType.FIXED_DIR_FIXED_CONN
        assert cfg.beam.ground_stiffness == 0.7
        assert cfg.beam.max_step == 1.0


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        features, cfg = synthetic_scene(12, 5)
        path = tmp_path / "scene.json"
        save_scene(features, cfg, str(path))
        features2, cfg2 = load_scene(str(path))
        assert features2 == features
        assert cfg2 == cfg

    def test_dict_round_trip(self):
        features, cfg = synthetic_scene(8, 2)
        data = scene_to_dict(features, cfg)
        features2, cfg2 = parse_scene(data)
        assert features2 == features
        assert cfg2 == cfg

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SceneValidationError, match="broken.json"):
            load_scene(str(path))


class TestGenerator:
    def test_deterministic_bytes(self):
        a = json.dumps(generate_synthetic(47, 1), sort_keys=True)
        b = json.dumps(generate_synthetic(47, 1), sort_keys=True)
        assert a == b

    def test_counts(self):
        assert len(generate_synthetic(47, 1)["features"]) == 47
        assert len(generate_synthetic(76, 2, profile="clustered")["features"]) == 76

    def test_seed_changes_content(self):
        a = generate_synthetic(10, 1)
        b = generate_synthetic(10, 2)
        assert a != b

    def test_generated_scene_parses(self):
        features, cfg = parse_scene(generate_synthetic(20, 3, profile="clustered"))
        assert len(features) == 20

    def test_depth_range(self):
        data = generate_synthetic(200, 4)
        depths = [f["depth"] for f in data["features"]]
        assert all(50.0 <= d <= 500.0 for d in depths)

    def test_cjk_charset(self):
        data = generate_synthetic(10, 5, charset="cjk")
        assert all(
            all(0x3000 <= ord(ch) <= 0x9FFF or 0xFF00 <= ord(ch) <= 0xFFEF for ch in f["text"])
            for f in data["features"]
        )

    def test_text_lengths(self):
        data = generate_synthetic(100, 6)
        assert all(4 <= len(f["text"]) <= 14 for f in data["features"])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 1)
        with pytest.raises(ValueError):
            generate_synthetic(5, 1, profile="weird")
        with pytest.raises(ValueError):
            generate_synthetic(5, 1, charset="latin9")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -3.0])
    def test_screen_not_finite_or_not_positive(self, bad):
        with pytest.raises(ValueError, match="screen"):
            generate_synthetic(5, 1, (bad, 150.0))
        with pytest.raises(ValueError, match="screen"):
            generate_synthetic(5, 1, (250.0, bad))

    @pytest.mark.parametrize("profile", ["uniform", "clustered"])
    def test_screen_within_the_margins(self, profile):
        # 4 mm side margins and a 22 mm top margin leave no room at 8 x 26.
        for screen in [(8.0, 150.0), (250.0, 26.0), (5.0, 20.0)]:
            with pytest.raises(ValueError, match="screen"):
                generate_synthetic(5, 1, screen, profile)
        data = generate_synthetic(20, 1, (8.5, 26.5), profile)
        features, cfg = parse_scene(data)
        assert all(4.0 <= f.anchor.x <= 4.5 and 4.0 <= f.anchor.y <= 4.5 for f in features)


class TestPlacement:
    def test_round_trip(self, tmp_path):
        features, cfg = synthetic_scene(6, 7)
        labels = initial_layout(features, cfg)
        data = labels_to_dict(labels, report={"method": "nop"})
        labels2 = parse_placement(data)
        assert labels2 == labels

    def test_placement_file(self, tmp_path):
        features, cfg = synthetic_scene(6, 7)
        labels = initial_layout(features, cfg)
        path = tmp_path / "placement.json"
        path.write_text(json.dumps(labels_to_dict(labels)))
        assert load_placement(str(path)) == labels

    def test_bad_rect_rejected(self):
        data = {"labels": [{"feature_id": "a", "rect_mm": [1, 2, 3], "conn_mm": [0, 0], "font_size_pt": 10}]}
        with pytest.raises(SceneValidationError, match="rect_mm"):
            parse_placement(data)
