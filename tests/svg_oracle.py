"""The per-point SVG path text, a test oracle for svgout.render_boundary."""

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
