"""Test oracles for svgout: the per-point SVG path text, and the frame
document as xml.etree built and serialized it."""

import xml.etree.ElementTree as ET

import numpy as np

VIEW_HALF = 4.0
CANVAS = 512.0


def path_d(points):
    """The 'd' attribute of a boundary frame, written one point at a time.

    The same scale-to-fit as the renderer, then each point mapped to pixels
    by scalar arithmetic and printed by its own '%.3f' format.
    """
    pts = np.asarray(points, dtype=float)
    top = float(np.abs(pts).max())
    if top > VIEW_HALF:
        pts = pts * (0.95 * VIEW_HALF / top)

    def to_px(p):
        x, y = float(p[0]), float(p[1])
        return (x + VIEW_HALF) / (2.0 * VIEW_HALF) * CANVAS, (VIEW_HALF - y) / (2.0 * VIEW_HALF) * CANVAS

    path = ["M%.3f %.3f" % to_px(pts[0])]
    path.extend("L%.3f %.3f" % to_px(p) for p in pts[1:])
    path.append("z")
    return "".join(path)


def _frame_root(points, title):
    """The frame svgout writes, built element by element with xml.etree, the path's 'd' from path_d."""
    pts = np.asarray(points, dtype=float)
    top = float(np.abs(pts).max())
    side = int(CANVAS)
    root = ET.Element("svg", xmlns="http://www.w3.org/2000/svg", width="%dpx" % side, height="%dpx" % side,
                      viewBox="0 0 %d %d" % (side, side))
    if title:
        ET.SubElement(root, "title").text = title
    ET.SubElement(root, "path", {"stroke-width": "1.5", "fill-opacity": "0.7", "d": path_d(pts)},
                  fill="#c8d8f0", stroke="#203050")
    ox = oy = 0.5 * CANVAS  # the origin's pixel
    for dx, dy in ((6.0, 0.0), (0.0, 6.0)):
        x1, y1, x2, y2 = ("%.1f" % v for v in (ox - dx, oy - dy, ox + dx, oy + dy))
        ET.SubElement(root, "line", {"stroke-width": "1"}, x1=x1, y1=y1, x2=x2, y2=y2, stroke="#a03030")
    if top > VIEW_HALF:
        note = "scaled by %.3g to fit viewport" % (0.95 * VIEW_HALF / top)
        ET.SubElement(root, "text", {"font-size": "12"}, x="8", y="20").text = note
    return root


def frame_document(points, title=None):
    """The frame's text as xml.etree serializes it."""
    return ET.tostring(_frame_root(points, title), encoding="unicode")


def write_frame(points, path, title=None):
    """The frame's file as xml.etree writes it."""
    ET.ElementTree(_frame_root(points, title)).write(path, encoding="unicode", xml_declaration=False)
