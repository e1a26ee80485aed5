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

    label_conflicts holds label index pairs, feature_conflicts holds
    (label index, feature index) pairs; each becomes one highlight group.
    Deleted labels and their leaders are not drawn.
    """

    def fy(y: float) -> float:
        return screen.y_min + screen.y_max - y

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
            (px, py), (qx, qy) = xy[i], xy[j]
            ET.SubElement(
                g_graph,
                "line",
                {"x1": str(px), "y1": str(fy(py)), "x2": str(qx), "y2": str(fy(qy))},
            )

    feature_by_id = {f.id: f for f in features}
    deleted_ids = {l.feature_id for l in labels if l.deleted}

    g_leaders = ET.SubElement(root, "g", {"class": "leaders", "stroke": "#555", "stroke-width": "0.2"})
    for l in labels:
        if l.deleted:
            continue
        anchor = feature_by_id[l.feature_id].anchor
        ET.SubElement(
            g_leaders,
            "line",
            {"x1": str(anchor.x), "y1": str(fy(anchor.y)), "x2": str(l.conn.x), "y2": str(fy(l.conn.y))},
        )

    g_feat = ET.SubElement(root, "g", {"class": "features", "fill": "#d62728"})
    for f in features:
        if f.id in deleted_ids:
            continue
        ET.SubElement(
            g_feat,
            "circle",
            {"cx": str(f.anchor.x), "cy": str(fy(f.anchor.y)), "r": str(max(f.symbol_radius, 0.4))},
        )

    g_labels = ET.SubElement(root, "g", {"class": "labels"})
    for l in labels:
        if l.deleted:
            continue
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
        text.text = feature_by_id[l.feature_id].text

    g_conf = ET.SubElement(root, "g", {"class": "conflicts", "stroke": "#ff7f0e", "stroke-width": "0.4"})
    for i, j in label_conflicts or ():
        pair = ET.SubElement(g_conf, "g", {"class": "conflict-pair"})
        ci, cj = labels[i].rect.center(), labels[j].rect.center()
        ET.SubElement(
            pair,
            "line",
            {"x1": str(ci.x), "y1": str(fy(ci.y)), "x2": str(cj.x), "y2": str(fy(cj.y))},
        )
    for i, k in feature_conflicts or ():
        pair = ET.SubElement(g_conf, "g", {"class": "conflict-pair"})
        c, a = labels[i].rect.center(), features[k].anchor
        ET.SubElement(
            pair,
            "line",
            {"x1": str(c.x), "y1": str(fy(c.y)), "x2": str(a.x), "y2": str(fy(a.y))},
        )

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
