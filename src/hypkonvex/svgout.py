"""Minimal SVG output for body boundaries.

A fixed viewport [-4, 4]^2 maps to a 512x512 canvas so frames along a
geodesic stay visually comparable; bodies poking outside are scaled down
with a visible annotation.
"""

import xml.etree.ElementTree as ET

import numpy as np

VIEW_HALF = 4.0
CANVAS = 512.0


def _to_px(xy):
    x, y = xy
    px = (x + VIEW_HALF) / (2.0 * VIEW_HALF) * CANVAS
    py = (VIEW_HALF - y) / (2.0 * VIEW_HALF) * CANVAS
    return px, py


def render_boundary(points, title=None):
    """Closed-path SVG of a boundary polyline with the origin marked.

    ``points`` must be a finite (n, 2) array with n >= 3, else ValueError.
    Returns the XML element tree root.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3 or not np.all(np.isfinite(pts)):
        raise ValueError("a boundary must be a finite (n, 2) array with n >= 3, got shape %s" % (pts.shape,))
    top = float(np.abs(pts).max())
    scale_note = None
    if top > VIEW_HALF:
        factor = 0.95 * VIEW_HALF / top
        pts = pts * factor
        scale_note = "scaled by %.3g to fit viewport" % factor

    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width="%dpx" % int(CANVAS),
        height="%dpx" % int(CANVAS),
        viewBox="0 0 %d %d" % (int(CANVAS), int(CANVAS)),
    )
    if title:
        ET.SubElement(root, "title").text = title

    xy = np.stack(_to_px(pts.T), axis=1)
    path = ("L%.3f %.3f" * len(xy)) % tuple(xy.ravel().tolist())
    ET.SubElement(
        root,
        "path",
        d="M" + path[1:] + "z",
        fill="#c8d8f0",
        stroke="#203050",
        attrib={"stroke-width": "1.5", "fill-opacity": "0.7"},
    )

    ox, oy = _to_px((0.0, 0.0))
    for dx, dy in ((6.0, 0.0), (0.0, 6.0)):
        ET.SubElement(
            root,
            "line",
            x1="%.1f" % (ox - dx),
            y1="%.1f" % (oy - dy),
            x2="%.1f" % (ox + dx),
            y2="%.1f" % (oy + dy),
            stroke="#a03030",
            attrib={"stroke-width": "1"},
        )
    if scale_note:
        note = ET.SubElement(root, "text", x="8", y="20", attrib={"font-size": "12"})
        note.text = scale_note
    return root


def write_svg(points, path, title=None):
    root = render_boundary(points, title)
    ET.ElementTree(root).write(path, encoding="unicode", xml_declaration=False)
