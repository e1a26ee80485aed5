import dataclasses
import json
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from leaderlabels.cli import main
from leaderlabels.metrics import build_report
from leaderlabels.optimizer import reference_graph, starting_layout
from leaderlabels.scene import LeaderType, label_rects, live_slots
from leaderlabels.scenefile import generate_synthetic, load_placement, load_scene, save_scene

from test_golden import _duplicated_scene


@pytest.fixture
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(generate_synthetic(12, 3, (150.0, 100.0))), encoding="utf-8")
    return str(path)


@pytest.fixture
def deleting_scene_path(tmp_path):
    # Features 0 and 1 sit by the left and right screen edges with long
    # texts, so under leader type 1 their labels overhang across the
    # vertical leader and are deleted.
    data = generate_synthetic(40, 1, (250.0, 150.0))
    for feature, x in zip(data["features"], (4.0, 246.0)):
        feature.update(x_mm=x, text="ABCDEFGHIJKLMN")
    path = tmp_path / "deleting.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys, scene_path):
        code, _, err = run_cli(capsys, "place", scene_path, "--bogus-flag")
        assert code == 1
        assert "bogus" in err.lower() or "usage" in err.lower() or "no such option" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_validation_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"screen": {"width_mm": 10, "height_mm": 10}, "features": []}))
        code, _, err = run_cli(capsys, "place", str(bad))
        assert code == 2
        assert "validation" in err

    def test_label_wider_than_screen_is_validation_error(self, capsys, tmp_path):
        scene = tmp_path / "wide.json"
        scene.write_text(json.dumps({
            "screen": {"width_mm": 30, "height_mm": 30},
            "features": [{"id": "a", "x_mm": 15, "y_mm": 10, "depth": 100, "text": "W" * 36}],
        }))
        code, out, err = run_cli(capsys, "place", str(scene))
        assert code == 2
        assert err.startswith("validation error:")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("leader", "length_mm", -1),
            ("beam", "elastic_modulus", 0),
            ("beam", "max_step_mm", -1),
            (None, "t_s_override", 0),
            ("leader", "direction_deg", float("inf")),
            ("screen", "width_mm", float("inf")),
        ],
    )
    def test_invalid_config_is_validation_error(self, capsys, tmp_path, section, key, value):
        data = generate_synthetic(5, 0, (150.0, 100.0))
        if section == "screen":
            data["screen"][key] = value
        elif section is None:
            data["config"][key] = value
        else:
            data["config"][section] = {key: value}
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "place", str(scene))
        assert code == 2
        assert err.startswith("validation error:")
        assert out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "section, key, value, method",
        [
            (None, "padding_mm", 1e308, "beams"),
            (None, "w_max_pt", 1e308, "beams"),
            ("beam", "ground_stiffness", 1e-320, "beams"),
            ("beam", "elastic_modulus", 1e308, "beams"),
            ("beam", "moment_of_inertia", 1e308, "beams"),
            (None, "d_min_mm", 1e308, "localp"),
            ("leader", "length_mm", 1e308, "beams"),
            ("feature", "symbol_radius_mm", 1e308, "beams"),
        ],
    )
    def test_unusable_config_is_validation_error(
        self, capsys, tmp_path, section, key, value, method
    ):
        # Each value is finite and in its own range, but with that padding
        # or d_min no label fits inside the screen, with that font bound a
        # label's measured width overflows, that leader or symbol reaches
        # past the screen's diagonal, or the stiffness system K d = f
        # of the first step cannot be factored or has no finite stiffness
        # (this scene's first step has forces, so it solves). No numpy
        # warning is printed, and the error names the fields to change.
        data = generate_synthetic(40, 1, (250.0, 150.0))
        if section == "feature":
            data["features"][0][key] = value
        elif section is None:
            data["config"][key] = value
        else:
            data["config"][section] = {key: value}
        scene = tmp_path / "unusable.json"
        scene.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "place", str(scene), "--method", method)
        assert code == 2
        assert err.startswith("validation error:")
        assert "Traceback" not in err and "nan" not in err
        assert out == ""
        if section == "beam":
            assert f"beam.{key}" in err
        if key == "w_max_pt":
            assert "config.w_max_pt" in err and "config.padding_mm" in err
        if key in ("d_min_mm", "length_mm", "symbol_radius_mm"):
            assert f".{key}: " in err

    @pytest.mark.parametrize(
        "section, key",
        [
            (None, "d_min_mm"),
            (None, "padding_mm"),
            (None, "w_max_pt"),
            (None, "t_d_factor"),
            (None, "t_f_factor"),
            ("beam", "elastic_modulus"),
            ("feature", "symbol_radius_mm"),
            ("feature", "depth"),
        ],
    )
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_number_is_validation_error(self, capsys, tmp_path, section, key, value):
        data = generate_synthetic(5, 0, (150.0, 100.0))
        if section == "feature":
            data["features"][0][key] = value
        elif section is None:
            data["config"][key] = value
        else:
            data["config"][section] = {key: value}
        scene = tmp_path / "bad.json"
        scene.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "place", str(scene))
        assert code == 2
        assert err.startswith("validation error:")
        assert key in err and "finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "raw",
        [b'{"config": {"d_min_mm": ' + b"9" * 5000 + b"}}", b'{"screen": "\xff"}'],
        ids=["integer_too_long", "not_utf8"],
    )
    def test_undecodable_file_is_validation_error(self, capsys, tmp_path, raw):
        scene = tmp_path / "bad.json"
        scene.write_bytes(raw)
        code, out, err = run_cli(capsys, "place", str(scene))
        assert code == 2
        assert err.startswith("validation error:")
        assert "not valid JSON" in err
        assert out == ""

    def test_zero_seed_iterations_is_usage_error(self, capsys, scene_path):
        code, out, err = run_cli(capsys, "place", scene_path, "--seed-iterations", "0")
        assert code == 1
        assert "--seed-iterations" in err
        assert "Traceback" not in err
        assert out == ""

    def test_io_error_is_3(self, capsys, scene_path, tmp_path):
        code, _, err = run_cli(
            capsys, "place", scene_path, "--out-json", str(tmp_path / "nodir" / "x.json")
        )
        assert code == 3

    def test_help_is_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "place" in out


# The scene's 19 numbers, as paths into a generated scene document, and
# the values that probe their ranges.
_NUMBER_FIELDS = (
    *(("screen", key) for key in ("width_mm", "height_mm")),
    *(("features", 0, key) for key in ("x_mm", "y_mm", "depth", "symbol_radius_mm")),
    *(("config", key) for key in (
        "d_min_mm", "w_max_pt", "w_min_pt", "t_d_factor", "t_f_factor", "padding_mm"
    )),
    *(("config", "leader", key) for key in ("length_mm", "direction_deg")),
    *(("config", "beam", key) for key in (
        "elastic_modulus", "cross_section", "moment_of_inertia", "ground_stiffness", "max_step_mm"
    )),
)
_PROBE_VALUES = (0.0, -1.0, 5e-324, 1e-300, 1e-9, 1e9, 1e300, 1e308)


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


class TestContract:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(_NUMBER_FIELDS),
                st.sampled_from(_PROBE_VALUES) | st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=2, unique_by=lambda edit: edit[0],
        )
    )
    # The four contract breaks a probe of these fields found, the leader
    # length under both methods: a traceback (d_min under localp), NaN
    # written to the placement (the leader length) and numpy overflow
    # warnings (the symbol radius).
    @example(edits=[(("config", "d_min_mm"), 1e308)])
    @example(edits=[(("config", "leader", "length_mm"), 1e308)])
    @example(edits=[(("features", 0, "symbol_radius_mm"), 1e308)])
    # An overflow in repair's grid ranges under a 1e308 mm screen.
    @example(edits=[(("screen", "width_mm"), 1e308), (("features", 0, "symbol_radius_mm"), 1e9)])
    def test_any_finite_number_exits_0_or_2_with_strict_json(self, capsys, tmp_path, edits):
        data = generate_synthetic(12, 3)
        for path, value in edits:
            record = data
            for key in path[:-1]:
                record = record[key] if isinstance(key, int) else record.setdefault(key, {})
            record[path[-1]] = value
        scene, placement = tmp_path / "scene.json", tmp_path / "placement.json"
        scene.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in ("beams", "localp"):
                code, out, _ = run_cli(
                    capsys, "place", str(scene), "--method", method,
                    "--out-json", str(placement), "--metrics",
                )
                assert code in (0, 2)
                if code == 2:
                    assert out == ""
                    continue
                _strict_json(out)
                _strict_json(placement.read_text())
                code, out, _ = run_cli(capsys, "eval", str(scene), str(placement))
                assert code == 0
                _strict_json(out)


class TestPlace:
    def test_nop_reports_zero_displacement(self, capsys, scene_path):
        code, out, _ = run_cli(capsys, "place", scene_path, "--method", "nop")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "nop"
        assert payload["total_displacement_cm"] == 0.0
        assert payload["mean_direction_deviation_deg"] == 0.0

    def test_beams_resolves_and_writes_outputs(self, capsys, scene_path, tmp_path):
        out_json = tmp_path / "placement.json"
        out_svg = tmp_path / "placement.svg"
        code, out, _ = run_cli(
            capsys,
            "place",
            scene_path,
            "--method",
            "beams",
            "--out-json",
            str(out_json),
            "--out-svg",
            str(out_svg),
            "--metrics",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["infeasible"] is False
        assert payload["metrics"]["label_conflicts"] == 0
        data = json.loads(out_json.read_text())
        assert len(data["labels"]) == 12
        assert out_svg.read_text().startswith("<?xml")

    @pytest.mark.parametrize("leader_type, scene", [(1, "deleting"), (2, "plain"), (4, "plain")])
    def test_beams_metrics_match_recomputation(
        self, capsys, scene_path, deleting_scene_path, tmp_path, leader_type, scene
    ):
        # The metrics block comes from the run's own report; it must equal
        # what measuring the written placement against the scene gives,
        # from the starting layout `run` makes, by hand and by `eval`.
        path = deleting_scene_path if scene == "deleting" else scene_path
        out_json = tmp_path / "placement.json"
        code, out, _ = run_cli(
            capsys, "place", path, "--leader-type", str(leader_type),
            "--out-json", str(out_json), "--metrics",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["deleted_count"] > 0) == (scene == "deleting")
        features, cfg = load_scene(path)
        cfg = dataclasses.replace(
            cfg, leader=dataclasses.replace(cfg.leader, kind=LeaderType(leader_type))
        )
        initial = starting_layout(features, cfg)
        expected = build_report(
            initial, load_placement(str(out_json)), features, cfg.d_min,
            reference_graph(label_rects(initial), live_slots(initial), features, cfg),
            elapsed_s=payload["elapsed_s"],
        )
        assert payload["metrics"] == expected.as_dict()
        assert payload["infeasible"] == (expected.label_conflicts + expected.feature_conflicts > 0)
        # eval reads the leader type from the scene file.
        overridden = tmp_path / "overridden.json"
        save_scene(features, cfg, str(overridden))
        code, out, _ = run_cli(capsys, "eval", str(overridden), str(out_json))
        assert code == 0
        evaluated = json.loads(out)
        assert evaluated == {**expected.as_dict(), "elapsed_s": 0.0, "infeasible": payload["infeasible"]}

    def test_beams_metrics_block_matches_report(self, capsys, scene_path):
        code, out, _ = run_cli(capsys, "place", scene_path, "--leader-type", "1", "--metrics")
        assert code == 0
        payload = json.loads(out)
        for key, value in payload["metrics"].items():
            assert payload[key] == value

    def test_localp_runs(self, capsys, scene_path):
        code, out, _ = run_cli(capsys, "place", scene_path, "--method", "localp")
        assert code == 0
        payload = json.loads(out)
        assert payload["label_conflicts"] == 0

    def test_graph_choice_mst_fewer_edges(self, capsys, scene_path):
        code, out_mst, _ = run_cli(
            capsys, "place", scene_path, "--graph", "mst", "--metrics"
        )
        assert code == 0
        code, out_dt, _ = run_cli(
            capsys, "place", scene_path, "--graph", "dt", "--metrics"
        )
        assert code == 0
        mst = json.loads(out_mst)
        dt = json.loads(out_dt)
        assert mst["graph_kind"] == "mst"
        assert mst["solver_graph_edges"] <= dt["solver_graph_edges"]

    def test_graph_mst_places_labels_with_equal_centers(self, capsys, tmp_path):
        # Pairs of features share anchor, depth and text, so each pair's
        # labels start as one rect and the MST joins them by a nanometre beam.
        path = tmp_path / "twins.json"
        save_scene(*_duplicated_scene(), str(path))
        code, out, err = run_cli(capsys, "place", str(path), "--graph", "mst", "--metrics")
        assert code == 0, err
        assert json.loads(out)["graph_kind"] == "mst"

    def test_leader_type_override(self, capsys, scene_path):
        code, out, _ = run_cli(
            capsys, "place", scene_path, "--leader-type", "2", "--metrics"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["leader_type"] == 2
        assert "attachment" not in payload["force_tags"]

    def test_seed_iterations_override(self, capsys, scene_path):
        code, out, _ = run_cli(
            capsys, "place", scene_path, "--seed-iterations", "3", "--metrics"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] <= 3

    def test_tnum_clustering(self, capsys, scene_path):
        code, out, _ = run_cli(capsys, "place", scene_path, "--tnum", "4", "--metrics")
        assert code == 0
        payload = json.loads(out)
        assert payload["subgroup_sizes"]
        assert all(s <= 4 for s in payload["subgroup_sizes"])

    def test_deterministic_output_files(self, capsys, scene_path, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        for p in (p1, p2):
            code, _, _ = run_cli(capsys, "place", scene_path, "--out-json", str(p))
            assert code == 0
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        assert d1["labels"] == d2["labels"]


class TestGen:
    def test_gen_to_stdout_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "gen", "--n", "8", "--seed", "4")
        code2, out2, _ = run_cli(capsys, "gen", "--n", "8", "--seed", "4")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(json.loads(out1)["features"]) == 8

    def test_gen_to_file(self, capsys, tmp_path):
        out = tmp_path / "scene.json"
        code, _, _ = run_cli(capsys, "gen", "--n", "5", "--seed", "1", "--out", str(out))
        assert code == 0
        assert len(json.loads(out.read_text())["features"]) == 5

    def test_gen_cjk(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--n", "4", "--seed", "2", "--charset", "cjk")
        assert code == 0
        data = json.loads(out)
        assert any(ord(c) > 0x3000 for f in data["features"] for c in f["text"])

    @pytest.mark.parametrize(
        "side, value", [(s, v) for s in ("--width-mm", "--height-mm") for v in ("nan", "inf", "0", "-3")]
        + [("--width-mm", "8"), ("--height-mm", "26")],
    )
    def test_gen_bad_screen_usage_error(self, capsys, tmp_path, side, value):
        # A screen that is not finite, or leaves no room inside the
        # generator's 4 mm side and 22 mm top margins, and no scene file.
        out = tmp_path / "scene.json"
        code, _, err = run_cli(capsys, "gen", "--n", "5", side, value, "--out", str(out))
        assert code == 1
        assert "screen" in err and "Traceback" not in err
        assert not out.exists()


class TestEval:
    def test_eval_placement(self, capsys, scene_path, tmp_path):
        placement = tmp_path / "placement.json"
        code, _, _ = run_cli(capsys, "place", scene_path, "--out-json", str(placement))
        assert code == 0
        code, out, _ = run_cli(capsys, "eval", scene_path, str(placement))
        assert code == 0
        payload = json.loads(out)
        assert payload["label_conflicts"] == 0
        assert payload["infeasible"] is False

    def test_eval_nop_placement_zero_metrics(self, capsys, scene_path, tmp_path):
        placement = tmp_path / "nop.json"
        run_cli(capsys, "place", scene_path, "--method", "nop", "--out-json", str(placement))
        code, out, _ = run_cli(capsys, "eval", scene_path, str(placement))
        assert code == 0
        payload = json.loads(out)
        assert payload["total_displacement_cm"] == 0.0
        assert payload["mean_direction_deviation_deg"] == 0.0

    @pytest.mark.parametrize("field", ["rect_mm", "conn_mm"])
    def test_integer_beyond_float_range_is_validation_error(self, capsys, scene_path, tmp_path, field):
        placement = tmp_path / "placement.json"
        run_cli(capsys, "place", scene_path, "--method", "nop", "--out-json", str(placement))
        data = json.loads(placement.read_text())
        data["labels"][0][field][1] = 10**400
        placement.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "eval", scene_path, str(placement))
        assert code == 2
        assert err.startswith("validation error:")
        assert f"{field}[1]" in err and "finite" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("change", ["renamed", "duplicated"])
    def test_feature_ids_must_match_the_scenes_slot_by_slot(
        self, capsys, scene_path, tmp_path, change
    ):
        placement = tmp_path / "placement.json"
        run_cli(capsys, "place", scene_path, "--out-json", str(placement))
        data = json.loads(placement.read_text())
        labels = data["labels"]
        if change == "renamed":
            for k, label in enumerate(labels):
                label["feature_id"] = f"zz{k}"
            slot, bad = 0, "zz0"
        else:
            slot, bad = 1, labels[0]["feature_id"]
            labels[1]["feature_id"] = bad
        placement.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "eval", scene_path, str(placement))
        assert code == 2
        assert err.startswith("validation error:")
        assert f"labels[{slot}].feature_id" in err and repr(bad) in err
        assert "Traceback" not in err
        assert out == ""

    def test_eval_count_mismatch_is_validation_error(self, capsys, scene_path, tmp_path):
        placement = tmp_path / "short.json"
        placement.write_text(json.dumps({"labels": []}))
        code, _, err = run_cli(capsys, "eval", scene_path, str(placement))
        assert code == 2


class TestBench:
    def test_bench_rows_and_time_trend(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "10,60", "--seed", "0", "--width-mm", "250", "--height-mm", "150"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n"] for r in rows] == [10, 60]
        assert all(r["elapsed_s"] > 0 for r in rows)
        assert all(r["steps"] >= 1 for r in rows)
        # Coarse runtime monotonicity; the 6x size gap dwarfs timer noise.
        assert rows[1]["elapsed_s"] >= rows[0]["elapsed_s"]

    def test_bench_bad_sizes_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--sizes", "10,abc")
        assert code == 1

    @pytest.mark.parametrize(
        "argv", [("--sizes", "0"), ("--sizes", "-2"), ("--sizes", "10,0"), ("--width-mm", "nan")]
    )
    def test_bench_size_below_one_or_bad_screen_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "bench", *argv)
        assert code == 1
        assert "Traceback" not in err
        # Checked before the first run: no row is printed.
        assert out == ""
