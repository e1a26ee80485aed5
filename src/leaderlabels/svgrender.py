"""SVG rendering of a placed scene. One SVG user unit equals one millimeter.

The scene's y axis points up while SVG's points down, so all y coordinates
are flipped against the screen box. Optional overlays show the proximity
graph and conflicting element pairs in distinct strokes.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Sequence

from .geometry import Rect
from .proximity import ProximityGraph
from .scene import LINE_HEIGHT_EM, Label, PointFeature

_SVG_NS = "http://www.w3.org/2000/svg"


def render_svg(
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    screen: Rect,
    graph: ProximityGraph | None = None,
    label_conflicts: Sequence[tuple[int, int]] | None = None,
    feature_conflicts: Sequence[tuple[int, int]] | None = None,
) -> str:
    """Produce the SVG document as a string.

    Label slot k holds feature k's label. label_conflicts holds label
    slot pairs, feature_conflicts (label slot, symbol slot) pairs; each
    becomes one highlight group. Deleted labels, their leaders and their
    symbols are not drawn.
    """

    def fy(y: float) -> float:
        return screen.y_min + screen.y_max - y

    def segment(parent: ET.Element, x1: float, y1: float, x2: float, y2: float) -> None:
        """Every line drawn, in screen coordinates: graph edges, leaders
        and the two kinds of conflict."""
        ET.SubElement(
            parent, "line", {"x1": str(x1), "y1": str(fy(y1)), "x2": str(x2), "y2": str(fy(y2))}
        )

    root = ET.Element(
        "svg",
        {
            "xmlns": _SVG_NS,
            "width": f"{screen.width}mm",
            "height": f"{screen.height}mm",
            "viewBox": f"{screen.x_min} {screen.y_min} {screen.width} {screen.height}",
        },
    )
    ET.SubElement(
        root,
        "rect",
        {
            "x": str(screen.x_min),
            "y": str(screen.y_min),
            "width": str(screen.width),
            "height": str(screen.height),
            "fill": "white",
            "stroke": "#888",
            "stroke-width": "0.2",
        },
    )

    if graph is not None:
        g_graph = ET.SubElement(root, "g", {"class": "graph", "stroke": "#9ecae1", "stroke-width": "0.15"})
        xy = graph.positions.tolist()
        for i, j in graph.edges.tolist():
            segment(g_graph, *xy[i], *xy[j])

    g_leaders = ET.SubElement(root, "g", {"class": "leaders", "stroke": "#555", "stroke-width": "0.2"})
    g_feat = ET.SubElement(root, "g", {"class": "features", "fill": "#d62728"})
    g_labels = ET.SubElement(root, "g", {"class": "labels"})
    for l, f in zip(labels, features):
        if l.deleted:
            continue
        ET.SubElement(
            g_feat,
            "circle",
            {"cx": str(f.anchor.x), "cy": str(fy(f.anchor.y)), "r": str(max(f.symbol_radius, 0.4))},
        )
        segment(g_leaders, f.anchor.x, f.anchor.y, l.conn.x, l.conn.y)
        r = l.rect
        ET.SubElement(
            g_labels,
            "rect",
            {
                "x": str(r.x_min),
                "y": str(fy(r.y_max)),
                "width": str(r.width),
                "height": str(r.height),
                "fill": "none",
                "stroke": "#333",
                "stroke-width": "0.15",
            },
        )
        em = r.height / LINE_HEIGHT_EM
        text = ET.SubElement(
            g_labels,
            "text",
            {
                "x": str(r.x_min),
                "y": str(fy(r.y_min + 0.25 * em)),
                "font-size": f"{em:.4f}",
                "font-family": "sans-serif",
            },
        )
        text.text = f.text

    g_conf = ET.SubElement(root, "g", {"class": "conflicts", "stroke": "#ff7f0e", "stroke-width": "0.4"})
    ends = [(labels[i].rect.center(), labels[j].rect.center()) for i, j in label_conflicts or ()]
    ends += [(labels[i].rect.center(), features[k].anchor) for i, k in feature_conflicts or ()]
    for p, q in ends:
        segment(ET.SubElement(g_conf, "g", {"class": "conflict-pair"}), p.x, p.y, q.x, q.y)

    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode")


def write_svg(
    path: str,
    labels: Sequence[Label],
    features: Sequence[PointFeature],
    screen: Rect,
    graph: ProximityGraph | None = None,
    label_conflicts: Sequence[tuple[int, int]] | None = None,
    feature_conflicts: Sequence[tuple[int, int]] | None = None,
) -> None:
    svg = render_svg(labels, features, screen, graph, label_conflicts, feature_conflicts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
