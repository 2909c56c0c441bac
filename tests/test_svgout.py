"""SVG frames: the path text against the per-point oracle, and bad input."""

import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hypkonvex.cli import main
from hypkonvex.lorentz import geodesic_point, normalize
from hypkonvex.shapedoc import load_shapedoc, to_even_fn
from hypkonvex.supportfn import boundary_curve
from hypkonvex.svgout import _path_d, render_boundary, write_svg

from svg_oracle import frame_document, path_d, write_frame

SVG = "{http://www.w3.org/2000/svg}"


def _d(points):
    return ET.fromstring(render_boundary(points)).find(SVG + "path").get("d")


@pytest.mark.parametrize("n", [3, 4, 17, 256, 2048])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_path_matches_the_per_point_oracle_on_random_clouds(n, seed):
    rng = np.random.default_rng([seed, n])
    for spread in (0.3, 1.0, 3.9):
        pts = rng.uniform(-spread, spread, size=(n, 2))
        assert _d(pts) == path_d(pts)
        assert _d(pts.tolist()) == path_d(pts)


def test_scaled_frame_matches_the_oracle_and_carries_the_note():
    rng = np.random.default_rng(5)
    for top in (4.0 + 1e-12, 7.5, 1e6):
        pts = rng.normal(size=(300, 2))
        pts *= top / np.abs(pts).max()
        root = ET.fromstring(render_boundary(pts))
        assert root.find(SVG + "path").get("d") == path_d(pts)
        assert root.find(SVG + "text").text.startswith("scaled by ")
    # a body that reaches the viewport edge exactly is drawn unscaled
    edge = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, 0.0], [0.0, -4.0]])
    root = ET.fromstring(render_boundary(edge))
    assert root.find(SVG + "text") is None
    assert root.find(SVG + "path").get("d") == "M512.000 256.000L256.000 0.000L0.000 256.000L256.000 512.000z"


@pytest.mark.parametrize("title", [None, "", "t=0.2500", 'a & b < c > d "e"', "%s 100%", "\u00e9\udc80\n"])
@pytest.mark.parametrize("top", [0.5, 4.0, 4.0 + 1e-12, 7.5, 1e6])
def test_frames_are_the_bytes_xml_etree_wrote(tmp_path, top, title):
    # one document from the template against the element tree, in text and on disk
    rng = np.random.default_rng(int(top * 8))
    for n in (3, 300):
        pts = rng.normal(size=(n, 2))
        pts *= top / np.abs(pts).max()
        assert render_boundary(pts, title) == frame_document(pts, title)
        write_svg(pts, tmp_path / "new.svg", title)
        write_frame(pts, tmp_path / "old.svg", title)
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


def test_signed_zeros_and_ties_print_as_the_oracle_does():
    # Negative zeros and tiny negatives in the body map to the centre pixel;
    # a pixel itself cannot go below 0.000, since any point left of or above
    # the viewport triggers the scale-to-fit.
    pts = np.array([[-0.0, -0.0], [-1e-300, 1e-300], [-4e-4, 4e-4], [-4.0, 4.0], [0.0005, -0.0005]])
    assert _d(pts) == path_d(pts)
    assert "-0.000" not in _d(pts)


def _pixels_in_canvas(d):
    values = [float(v) for v in re.findall(r"[0-9.]+", d)]
    return "-" not in d and all(0.0 <= v <= 512.0 for v in values)


def test_pixels_lie_in_the_canvas_the_encoder_relies_on():
    rng = np.random.default_rng(9)
    corners = np.array([[4.0, -4.0], [-4.0, 4.0], [4.0, 4.0], [-4.0, -4.0]])
    for top in (4.0, 4.0 + 1e-12, 7.5, 1e6, 1e300):  # clouds that touch +-top on both axes
        pts = np.concatenate([corners * (top / 4.0), rng.uniform(-top, top, size=(200, 2))])
        d = _d(pts)
        assert _pixels_in_canvas(d) and d == path_d(pts)
    for pts in (1e-300 * rng.normal(size=(50, 2)), np.full((3, 2), -1e-300)):
        d = _d(pts)
        assert _pixels_in_canvas(d) and d == path_d(pts)


@pytest.mark.parametrize("px", [[1000.0, 0.0], [0.0, 999.9996], [-0.0, 1.0], [1.0, -1e-300], [1e6, 1.0]])
def test_encoder_refuses_pixels_outside_its_range(px):
    with pytest.raises(ValueError):
        _path_d(np.array(px))


def test_encoder_prints_every_thousandth_tie_and_its_neighbours_as_the_format_does():
    # every k/2000 in [0, 512], odd k a decimal tie, and both float neighbours
    # (none below 0); ties take the exact route, all else rint
    k = np.arange(1_024_001) / 2000.0
    vals = np.concatenate([k, np.nextafter(k[1:], -np.inf), np.nextafter(k, np.inf), [999.9994, 999.9994999]])
    for chunk in (vals[i : i + 65536] for i in range(0, vals.size, 65536)):
        expect = "M" + "L".join("%.3f %.3f" % (x, y) for x, y in chunk.reshape(-1, 2).tolist()) + "z"
        assert _path_d(chunk) == expect


@pytest.mark.parametrize(
    "bad",
    [
        np.empty((0, 2)),
        np.zeros((2, 2)),
        np.zeros(6),
        np.zeros((5, 3)),
        np.zeros((2, 5, 2)),
        np.array([[0.0, 0.0], [1.0, np.nan], [1.0, 1.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [np.inf, 1.0]]),
        [],
    ],
    ids=["empty", "two-points", "flat", "three-columns", "3-d", "nan", "inf", "empty-list"],
)
def test_render_boundary_refuses_bad_input(tmp_path, bad):
    with pytest.raises(ValueError):
        render_boundary(bad)
    with pytest.raises(ValueError):
        write_svg(bad, tmp_path / "bad.svg")
    assert not (tmp_path / "bad.svg").exists()


def test_every_geodesic_frame_matches_the_oracle(tmp_path, capsys):
    # polygon to a long ellipse: the late frames poke out of the viewport
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"type": "polygon", "vertices": [[1.2, 0.4], [-0.3, 1.1], [-1.2, -0.4], [0.3, -1.1]]}))
    b.write_text(json.dumps({"type": "ellipse", "matrix": [[6.0, 0.0], [0.0, 1.0 / 6.0]]}))
    out, steps = tmp_path / "geo", 6
    assert main(["geodesic", str(a), str(b), "--steps", str(steps), "--grid", "2048", "--out", str(out)]) == 0
    capsys.readouterr()
    pa, pb = (normalize(to_even_fn(load_shapedoc(p), 2048)) for p in (a, b))
    scaled = 0
    for k in range(steps + 1):
        root = ET.parse(out / ("frame_%03d.svg" % k)).getroot()
        frame = boundary_curve(geodesic_point(pa, pb, k / steps).fn, 2048)
        d = root.find(SVG + "path").get("d")
        assert d == path_d(frame)
        assert (out / ("frame_%03d.svg" % k)).read_text() == frame_document(frame, "t=%.4f" % (k / steps))
        assert d.startswith("M") and d.count("L") == 2047
        scaled += root.find(SVG + "text") is not None
    assert 0 < scaled < steps + 1
