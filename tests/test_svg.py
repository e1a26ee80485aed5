import xml.etree.ElementTree as ET

from leaderlabels.forces import conflicting_feature_pairs, conflicting_label_pairs
from leaderlabels.proximity import delaunay_graph
from leaderlabels.scene import initial_layout
from leaderlabels.scenefile import synthetic_scene
from leaderlabels.svgrender import render_svg, write_svg

from conftest import label_layout, scene_layout

SVG_NS = "{http://www.w3.org/2000/svg}"


def render_scene(n=10, seed=3, with_graph=False, conflicts=True):
    features, cfg = synthetic_scene(n, seed, screen=(120.0, 90.0))
    labels = initial_layout(features, cfg)
    lc = conflicting_label_pairs(*label_layout(labels), cfg.d_min) if conflicts else []
    fc = conflicting_feature_pairs(*scene_layout(labels, features), cfg.d_min) if conflicts else []
    g = delaunay_graph(*label_layout(labels)) if with_graph else None
    svg = render_svg(labels, features, cfg.screen, graph=g, label_conflicts=lc, feature_conflicts=fc)
    return svg, labels, features, lc, fc


class TestRenderSvg:
    def test_well_formed_xml(self):
        svg, *_ = render_scene(with_graph=True)
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"

    def test_one_mm_per_unit(self):
        svg, *_ = render_scene()
        root = ET.fromstring(svg)
        assert root.get("viewBox") == "0.0 0.0 120.0 90.0"
        assert root.get("width") == "120.0mm"

    def test_element_counts(self):
        svg, labels, features, lc, fc = render_scene()
        root = ET.fromstring(svg)
        live = [l for l in labels if not l.deleted]
        assert len(root.findall(f".//{SVG_NS}circle")) == len(features)
        # One rect per live label plus the screen frame.
        assert len(root.findall(f".//{SVG_NS}rect")) == len(live) + 1
        texts = root.findall(f".//{SVG_NS}text")
        assert len(texts) == len(live)

    def test_conflict_highlights_match_pairs(self):
        svg, labels, features, lc, fc = render_scene()
        root = ET.fromstring(svg)
        groups = [g for g in root.iter(f"{SVG_NS}g") if g.get("class") == "conflict-pair"]
        assert len(groups) == len(lc) + len(fc)

    def test_no_conflicts_no_highlights(self):
        svg, *_ = render_scene(conflicts=False)
        root = ET.fromstring(svg)
        groups = [g for g in root.iter(f"{SVG_NS}g") if g.get("class") == "conflict-pair"]
        assert groups == []

    def test_graph_overlay_optional(self):
        svg_with, *_ = render_scene(with_graph=True)
        svg_without, *_ = render_scene(with_graph=False)
        root_with = ET.fromstring(svg_with)
        root_without = ET.fromstring(svg_without)
        assert any(g.get("class") == "graph" for g in root_with.iter(f"{SVG_NS}g"))
        assert not any(g.get("class") == "graph" for g in root_without.iter(f"{SVG_NS}g"))

    def test_cjk_text_escaped_and_present(self):
        features, cfg = synthetic_scene(5, 1, charset="cjk")
        labels = initial_layout(features, cfg)
        svg = render_svg(labels, features, cfg.screen)
        root = ET.fromstring(svg)
        texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
        assert features[0].text in texts

    def test_write_svg(self, tmp_path):
        features, cfg = synthetic_scene(4, 2)
        labels = initial_layout(features, cfg)
        path = tmp_path / "out.svg"
        write_svg(str(path), labels, features, cfg.screen)
        content = path.read_text(encoding="utf-8")
        assert content.startswith("<?xml")
        ET.fromstring(content)

    def test_deterministic_output(self):
        a, *_ = render_scene(seed=9)
        b, *_ = render_scene(seed=9)
        assert a == b
