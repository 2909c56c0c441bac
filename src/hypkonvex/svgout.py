"""Minimal SVG output for body boundaries.

A fixed viewport [-4, 4]^2 maps to a 512x512 canvas so frames along a
geodesic stay visually comparable; bodies poking outside are scaled down
with a visible annotation.  Pixel coordinates therefore lie in [0, 512],
and each prints exactly as '%.3f' would print it.  A frame is one fixed template
(header, title, path, origin axes, scale note), the bytes xml.etree wrote for it.
"""

import functools

import numpy as np

VIEW_HALF = 4.0
CANVAS = 512.0


def _to_px(xy):
    x, y = xy
    px = (x + VIEW_HALF) / (2.0 * VIEW_HALF) * CANVAS
    py = (VIEW_HALF - y) / (2.0 * VIEW_HALF) * CANVAS
    return px, py


@functools.cache
def _digit_words():  # on first use, so that importing the CLI builds no table
    """Words INT[q] (bytes 1-3: q right-aligned, NUL-padded) and FRAC[r] (bytes 4-7: '.ddd'), q, r < 1000."""
    k = np.arange(1000, dtype=np.uint64)
    digits = np.stack([k // 100, k // 10 % 10, k % 10]) + np.uint64(ord("0"))
    shifts = np.arange(8, 64, 8, dtype=np.uint64)[:, None]
    int_words = (np.where(k >= np.array([[100], [10], [0]]), digits, 0) << shifts[:3]).sum(axis=0)
    return int_words, (digits << shifts[4:]).sum(axis=0) | np.uint64(ord(".")) << shifts[3]


def _path_d(px):
    """'Mx0 y0Lx1 y1...z' of pixels px = (x0, y0, x1, ...) below 999.9995, each as '%.3f' prints it.

    rint(1000 px) rounds the exact product correctly unless 1000 px is a half-integer, and then the
    exact product may lie on either side.
    """
    t = px * 1000.0
    if np.signbit(t).any() or t.max() >= 999999.5:
        raise ValueError("pixel coordinates must lie in [0, 999.9995), got %g to %g" % (px.min(), px.max()))
    n = np.rint(t)
    ties = np.flatnonzero(t - np.floor(t) == 0.5)
    n[ties] = [int(("%.3f" % v).replace(".", "")) for v in px[ties].tolist()]
    q, r = np.divmod(n.astype(np.int64), 1000)
    lead = np.tile(np.array([ord("L"), ord(" ")], dtype=np.uint64), n.size // 2)
    lead[0] = ord("M")
    int_words, frac_words = _digit_words()
    words = (int_words[q] | frac_words[r] | lead).astype("<u8", copy=False)
    return words.tobytes().replace(b"\0", b"").decode("ascii") + "z"


_ORIGIN = _to_px((0.0, 0.0))
_AXES = "".join(
    '<line stroke-width="1" x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#a03030" />'
    % (_ORIGIN[0] - dx, _ORIGIN[1] - dy, _ORIGIN[0] + dx, _ORIGIN[1] + dy)
    for dx, dy in ((6.0, 0.0), (0.0, 6.0))
)
_FRAME = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="%dpx" height="%dpx" viewBox="0 0 %d %d">' % ((CANVAS,) * 4)
    + '%s<path stroke-width="1.5" fill-opacity="0.7" d="%s" fill="#c8d8f0" stroke="#203050" />' + _AXES + "%s</svg>"
)


def render_boundary(points, title=None):
    """Closed-path SVG of a boundary polyline with the origin marked.

    ``points`` must be a finite (n, 2) array with n >= 3, else ValueError.
    Returns the SVG document text; a nonempty ``title`` becomes its <title>.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3 or not np.all(np.isfinite(pts)):
        raise ValueError("a boundary must be a finite (n, 2) array with n >= 3, got shape %s" % (pts.shape,))
    top = float(np.abs(pts).max())
    note = ""
    if top > VIEW_HALF:
        factor = 0.95 * VIEW_HALF / top
        pts = pts * factor
        note = '<text font-size="12" x="8" y="20">scaled by %.3g to fit viewport</text>' % factor
    if title:  # text escaped as the XML serializer escapes it
        title = "<title>%s</title>" % title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _FRAME % (title or "", _path_d(np.stack(_to_px(pts.T), axis=1).ravel()), note)


def write_svg(points, path, title=None):
    doc = render_boundary(points, title)
    # xml.etree's writer opened the file so, and any title keeps its bytes
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write(doc)
