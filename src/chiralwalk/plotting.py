"""SVG rendering of spectral sets.

Produces a self-contained SVG 1.1 document: the unit circle dashed, the
spectral arcs and segments as thick strokes (one colour per lattice
endpoint), and an optional overlay of truncated-spectrum eigenvalues as
points.  Coordinates live in the complex plane with the imaginary axis
pointing up.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

SVG_NS = "http://www.w3.org/2000/svg"
ENDPOINT_STYLE = {"-inf": "#000000", "+inf": "#8a8a8a"}
_ARC_POINTS = 97


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _path(points) -> str:
    # y is negated: SVG's y axis points down.
    steps = [f"{'M' if i == 0 else 'L'} {_fmt(p.real)} {_fmt(-p.imag)}" for i, p in enumerate(points)]
    return " ".join(steps)


def _arc_pieces(arc):
    u, v = arc
    alpha = math.acos(min(1.0, max(-1.0, v)))
    beta = math.acos(min(1.0, max(-1.0, u)))
    t = np.linspace(alpha, beta, _ARC_POINTS)
    return [np.exp(1j * t), np.exp(-1j * t)]


def render_spectral_svg(endpoint_sets: dict, overlay, title: str) -> str:
    """Serialise the figure; ``endpoint_sets`` maps endpoint tag -> SpectralSet.

    ``overlay`` holds the eigenvalues to draw as points, or is None.
    """
    half_width = 1.8
    for sset in endpoint_sets.values():
        for lo, hi in sset.segments:
            half_width = max(half_width, abs(lo) + 0.2, abs(hi) + 0.2)
    view = f"{_fmt(-half_width)} -1.35 {_fmt(2 * half_width)} 2.7"

    ET.register_namespace("", SVG_NS)
    svg = ET.Element(
        f"{{{SVG_NS}}}svg",
        {"version": "1.1", "viewBox": view, "width": "720", "height": "540"},
    )
    ET.SubElement(svg, f"{{{SVG_NS}}}circle", {
        "cx": "0", "cy": "0", "r": "1",
        "fill": "none", "stroke": "#555555",
        "stroke-width": "0.012", "stroke-dasharray": "0.06 0.045",
    })
    axis_style = {"stroke": "#bbbbbb", "stroke-width": "0.008"}
    ET.SubElement(svg, f"{{{SVG_NS}}}line", {
        "x1": _fmt(-half_width), "y1": "0", "x2": _fmt(half_width), "y2": "0", **axis_style,
    })
    ET.SubElement(svg, f"{{{SVG_NS}}}line", {
        "x1": "0", "y1": "-1.3", "x2": "0", "y2": "1.3", **axis_style,
    })

    for star, sset in endpoint_sets.items():
        colour = ENDPOINT_STYLE.get(star, "#d04040")
        stroke = {"fill": "none", "stroke": colour,
                  "stroke-width": "0.06", "stroke-linecap": "round"}
        for arc in sset.arcs:
            for piece in _arc_pieces(arc):
                ET.SubElement(svg, f"{{{SVG_NS}}}path", {"d": _path(piece), **stroke})
        for lo, hi in sset.segments:
            ET.SubElement(svg, f"{{{SVG_NS}}}path", {
                "d": f"M {_fmt(lo)} 0 L {_fmt(hi)} 0", **stroke,
            })

    if overlay is not None:
        for z in np.asarray(overlay, dtype=complex):
            ET.SubElement(svg, f"{{{SVG_NS}}}circle", {
                "cx": _fmt(z.real), "cy": _fmt(-z.imag), "r": "0.014",
                "fill": "#2060c0", "fill-opacity": "0.6", "stroke": "none",
            })

    if title:
        text = ET.SubElement(svg, f"{{{SVG_NS}}}text", {
            "x": _fmt(-half_width + 0.08), "y": "-1.2",
            "font-size": "0.11", "fill": "#333333",
        })
        text.text = title

    return ET.tostring(svg, encoding="unicode", xml_declaration=True)


def write_spectral_svg(path: str, endpoint_sets: dict, overlay, title: str):
    document = render_spectral_svg(endpoint_sets, overlay, title)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
        handle.write("\n")
