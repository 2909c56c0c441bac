"""End-to-end command-line checks: exit codes, file outputs, determinism."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ellipe

import hypkonvex
from hypkonvex import cli
from hypkonvex.cli import main
from hypkonvex.lorentz import geodesic_point, normalize
from hypkonvex.mobius import Mobius
from hypkonvex.shapedoc import parse_shapedoc, to_even_fn
from hypkonvex.shapes import Polygon, Sum, convex_hull
from hypkonvex.supportfn import SpectralTailWarning, grid_angles
from hypkonvex.svgout import render_boundary
from hypkonvex.verify import random_polygon

SVG = "{http://www.w3.org/2000/svg}"
DISC = '{"type":"ellipse","matrix":[[1.0,0.0],[0.0,1.0]]}'
SQUARE = '{"type":"polygon","vertices":[[1,1],[-1,1],[-1,-1],[1,-1]]}'
SEGMENT = '{"type":"segment","endpoint":[1.0,0.0]}'
# ShapeDocs with a grid no integer equals, a NaN value, one value too few,
# finite values whose spectrum overflows, or nested past the JSON parser's depth
_SAMPLES_AT = '{"type":"samples","grid":%s,"values":[1,1,1,1,1,1,1,1]}'
MALFORMED = {
    "infinite_grid": _SAMPLES_AT % "Infinity",
    "overflowing_grid": _SAMPLES_AT % "1e400",
    "fractional_grid": _SAMPLES_AT % "8.9",
    "nan_value": '{"type":"samples","grid":8,"values":[1,1,1,NaN,1,1,1,1]}',
    "value_too_few": '{"type":"samples","grid":8,"values":[1,1,1,1,1,1,1]}',
    "spectrum_overflow": json.dumps({"type": "samples", "grid": 64, "values": [1.7e308] * 64}),
    "deep_nesting": "[" * 200000,
}
# Frozen: acosh((2/pi) e^{1/2} E(sqrt(1 - e^{-2}))), scipy oracle
DIST_DISC_ELLIPSE_S1 = 0.6050230853476971


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _ellipse_doc(s):
    return json.dumps(
        {"type": "ellipse", "matrix": [[math.exp(s / 2), 0.0], [0.0, math.exp(-s / 2)]]}
    )


def test_dist_disc_vs_disc(tmp_path, capsys):
    a = _write(tmp_path, "a.json", DISC)
    b = _write(tmp_path, "b.json", DISC)
    code = main(["dist", a, b, "--out", str(tmp_path / "out")])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == 0.0
    record = json.loads((tmp_path / "out" / "dist.json").read_text())
    assert record["area_a"] == pytest.approx(math.pi, rel=1e-12)


def test_dist_disc_vs_ellipse_closed_form(tmp_path, capsys):
    a = _write(tmp_path, "a.json", DISC)
    b = _write(tmp_path, "b.json", _ellipse_doc(1.0))
    assert main(["dist", a, b, "--out", str(tmp_path / "out")]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(DIST_DISC_ELLIPSE_S1, abs=1e-12)


def test_dist_disc_vs_square(tmp_path, capsys):
    a = _write(tmp_path, "a.json", DISC)
    b = _write(tmp_path, "b.json", SQUARE)
    assert main(["dist", a, b, "--out", str(tmp_path / "out")]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(math.acosh(2.0 / math.sqrt(math.pi)), abs=1e-13)


def _area_pi_square():
    h = 0.5 * math.sqrt(math.pi)
    return json.dumps({"type": "polygon", "vertices": [[h, h], [-h, h], [-h, -h], [h, -h]]})


def test_dist_polygon_vs_its_own_samples(tmp_path, capsys):
    # The samples mean their trigonometric interpolant t, a body other than
    # the square P.  The square's edge normals fall on grid angles, where t is
    # the sample h, so A(P, t) = (1/2pi) 4 sqrt(pi) h = 1 = A(P), and the
    # distance is acosh(1/sqrt(A(t))), A(t) the Parseval sum of t, its Nyquist
    # cosine at half the weight of the other harmonics.  Two copies of the
    # samples are at distance 0.
    sq = _area_pi_square()
    samples = to_even_fn(parse_shapedoc(sq), 2048).samples
    a = _write(tmp_path, "a.json", sq)
    b = _write(tmp_path, "b.json", json.dumps({"type": "samples", "grid": 2048, "values": samples.tolist()}))
    assert main(["dist", a, b, "--out", str(tmp_path / "out")]) == 0
    c, n = np.fft.rfft(samples) / 2048, np.arange(1025)
    weights = np.where(n == 0, 1.0, np.where(n == 1024, 0.5, 2.0)) * (1.0 - n**2)
    assert samples[::512] == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-15)
    oracle = math.acosh(1.0 / math.sqrt(float(weights @ np.abs(c) ** 2)))
    assert float(capsys.readouterr().out.strip()) == pytest.approx(oracle, rel=1e-10)
    assert oracle > 0.03
    assert main(["dist", b, b, "--out", str(tmp_path / "out")]) == 0
    assert 0.0 <= float(capsys.readouterr().out.strip()) <= 1e-12


def test_dist_square_to_an_ellipse_reads_the_same_from_its_samples(tmp_path, capsys):
    # The ellipse's 2048 samples interpolate it to about 1e-15, so the square
    # must read the matrix value against them, not that of its own aliased
    # grid spectrum.
    sq = _write(tmp_path, "sq.json", _area_pi_square())
    matrix = _write(tmp_path, "e.json", _ellipse_doc(0.8))
    samples = to_even_fn(parse_shapedoc(_ellipse_doc(0.8)), 2048).samples
    raw = _write(tmp_path, "r.json", json.dumps({"type": "samples", "grid": 2048, "values": samples.tolist()}))
    values = []
    for b in (matrix, raw):
        assert main(["dist", sq, b, "--out", str(tmp_path / "out")]) == 0
        values.append(float(capsys.readouterr().out.strip()))
    assert values[1] == pytest.approx(values[0], rel=1e-12)


def test_dist_of_a_far_stretched_ellipse_and_samples_follows_the_orbit_asymptotic(tmp_path, capsys):
    # E = R(a) diag(s0, 1/s0) R(b) at s0 = 1e20 (entries near 6e19) against
    # 64 raw samples t: dS_E puts mass 2 s0 at each end of the minor normal
    # J u1 = (cos(a + pi/2), sin(a + pi/2)), so A(E, t) = (2/pi) s0 t(J u1)
    # up to O(1/s0^2), and d = log s0 + log((4/pi) t(J u1) / sqrt(A(t))).
    s0, a = 1e20, 0.6
    matrix = Mobius.rotation(a).matrix @ np.diag([s0, 1.0 / s0]) @ Mobius.rotation(0.4).matrix
    values = random_polygon(np.random.default_rng(3)).support(grid_angles(64))
    e = _write(tmp_path, "e.json", json.dumps({"type": "ellipse", "matrix": matrix.tolist()}))
    r = _write(tmp_path, "r.json", json.dumps({"type": "samples", "grid": 64, "values": values.tolist()}))
    assert main(["dist", e, r, "--grid", "64", "--out", str(tmp_path / "out")]) == 0
    c, n = np.fft.rfft(values) / 64, np.arange(33)
    weights = np.where((n == 0) | (n == 32), 1.0, 2.0)
    area = float(np.where(n == 32, 0.5, weights) * (1.0 - n**2) @ np.abs(c) ** 2)
    minor = a + 0.5 * math.pi
    t = float(weights @ (c * np.exp(1j * n * minor)).real)  # the interpolant, its Nyquist mode a cosine
    oracle = math.log(s0) + math.log(4.0 / math.pi * t / math.sqrt(area))
    assert float(capsys.readouterr().out.strip()) == pytest.approx(oracle, rel=1e-9)


def test_geodesic_disc_to_square_closed_form(tmp_path, capsys):
    a = _write(tmp_path, "a.json", DISC)
    b = _write(tmp_path, "b.json", _area_pi_square())
    out = tmp_path / "geo"
    assert main(["geodesic", a, b, "--steps", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    c = 2.0 / math.sqrt(math.pi)  # A(disc, area-pi square)
    lines = (out / "geodesic.csv").read_text().strip().splitlines()[1:]
    assert len(lines) == 9
    for ln in lines:
        t, da, db, _ = map(float, ln.split(","))
        norm = math.sqrt((1 - t) ** 2 + 2 * t * (1 - t) * c + t * t)
        assert da == pytest.approx(math.acosh(((1 - t) + t * c) / norm), abs=1e-12)
        assert db == pytest.approx(math.acosh((t + (1 - t) * c) / norm), abs=1e-12)
    # frames are drawn from the closed-form boundary of the Minkowski combination
    pa, pb = (normalize(to_even_fn(parse_shapedoc(Path(p).read_text()), 2048)) for p in (a, b))
    mid = geodesic_point(pa, pb, 0.5).fn.shape_tag
    assert isinstance(mid, Sum)
    expect = ET.fromstring(render_boundary(mid.boundary(grid_angles(2048)))).find(SVG + "path").get("d")
    assert 'd="%s"' % expect in (out / "frame_004.svg").read_text()


def test_geodesic_frames_from_a_square_to_smooth_samples_have_the_reported_perimeters(tmp_path, capsys):
    # The inner frames draw K + t, the square's closed-form boundary plus
    # that of the samples' interpolant: each frame's polyline (64 pixels per
    # unit, no frame scaled to fit) measures the perimeter 2 pi pi0 that
    # geodesic.csv reports, to the 2048-gon's and the pixels' rounding.
    x = grid_angles(2048)
    smooth = {"type": "samples", "grid": 2048, "values": (1.0 + 0.1 * np.cos(2 * x) + 0.02 * np.sin(4 * x)).tolist()}
    a = _write(tmp_path, "a.json", _area_pi_square())
    b = _write(tmp_path, "b.json", json.dumps(smooth))
    out = tmp_path / "geo"
    assert main(["geodesic", a, b, "--steps", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "geodesic.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 5
    for k, row in enumerate(rows):
        d = re.search(r' d="M([^"]*)z"', (out / ("frame_%03d.svg" % k)).read_text()).group(1)
        px = np.array(re.split(r"[ L]", d), dtype=float).reshape(-1, 2)
        perimeter = float(np.hypot(*(np.roll(px, -1, axis=0) - px).T).sum()) / 64.0
        assert perimeter == pytest.approx(float(row.split(",")[3]), rel=1e-3)


@pytest.mark.parametrize(
    "argv",
    [
        ["hdim", "--empirical", "--samples", "0"],
        ["kernels", "--t-min", "400", "--t-max", "400"],
        ["kernels", "--t-min", "31", "--t-max", "31"],
        ["verify", "--suite", "extended", "--seed", "-1"],
        ["geodesic", "{square}", "{square}", "--steps", "0"],
        ["dist", "{infinite_grid}", "{disc}"],
        ["dist", "{disc}", "{overflowing_grid}"],
        ["geodesic", "{fractional_grid}", "{disc}"],
        ["dist", "{nan_value}", "{disc}"],
        ["geodesic", "{disc}", "{value_too_few}"],
        ["dist", "{spectrum_overflow}", "{disc}", "--grid", "64"],
        ["dist", "{deep_nesting}", "{disc}"],
    ],
    ids=[
        "hdim-no-samples",
        "kernels-overflow",
        "kernels-capped-grid",
        "verify-negative-seed",
        "geodesic-zero-steps",
        "shapedoc-infinite-grid",
        "shapedoc-overflowing-grid",
        "shapedoc-fractional-grid",
        "shapedoc-nan-value",
        "shapedoc-value-too-few",
        "shapedoc-spectrum-overflow",
        "shapedoc-deep-nesting",
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, argv):
    docs = {"disc": DISC, "square": SQUARE, **MALFORMED}
    paths = {name: _write(tmp_path, name + ".json", text) for name, text in docs.items()}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
    src = str(Path(hypkonvex.__file__).resolve().parents[1])
    full_env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "hypkonvex.cli", *argv], env=full_env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_samples_whose_spectrum_overflows_exit_2_naming_the_cause(tmp_path, capsys):
    # 64 finite samples of 1.7e308: their rfft overflows, and they are refused where they are read
    a, b = _write(tmp_path, "big.json", MALFORMED["spectrum_overflow"]), _write(tmp_path, "disc.json", DISC)
    assert main(["dist", a, b, "--grid", "64", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot read body from %s: invalid samples document: samples and their spectrum must be finite\n" % a


# documents refused inside the shape and samples constructors, each with its cause
_COUNT, _ARRAY = "a symmetric polygon needs an even vertex count >= 4", "polygon vertices must be a finite (n, 2) array"
_MATRIX = "ellipse matrix must be a finite 2x2 array"
REFUSED_BY_CONSTRUCTORS = {
    "polygon-3-vertices": ('{"type":"polygon","vertices":[[1,0],[0,1],[-1,0]]}', _COUNT),
    "polygon-5-vertices": ('{"type":"polygon","vertices":[[2,0],[1,1],[-1,1],[-2,0],[0,-1]]}', _COUNT),
    "polygon-nan-vertex": ('{"type":"polygon","vertices":[[1,1],[-1,1],[-1,-1],[NaN,-1]]}', _ARRAY),
    "polygon-flat-vertices": ('{"type":"polygon","vertices":[1,1,-1,1,-1,-1,1,-1]}', _ARRAY),
    "ellipse-3x3": ('{"type":"ellipse","matrix":[[1,0,0],[0,1,0],[0,0,1]]}', _MATRIX),
    "ellipse-overflowing-entry": ('{"type":"ellipse","matrix":[[1e309,0],[0,1]]}', _MATRIX),
    "samples-2d": ('{"type":"samples","grid":8,"values":[[1,1,1,1],[1,1,1,1]]}', "samples must be a 1-d array"),
    "samples-fractional-grid": (_SAMPLES_AT % "8.5", "expected 8.5 samples, got 8"),
    "samples-string-grid": (_SAMPLES_AT % '"8"', "expected '8' samples, got 8"),
}


@pytest.mark.parametrize("text, cause", REFUSED_BY_CONSTRUCTORS.values(), ids=REFUSED_BY_CONSTRUCTORS.keys())
def test_documents_a_constructor_refuses_exit_2_naming_the_file(tmp_path, capsys, text, cause):
    a, b = _write(tmp_path, "bad.json", text), _write(tmp_path, "disc.json", DISC)
    assert main(["dist", a, b, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read body from %s: " % a) and err.endswith(": %s\n" % cause)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: geodesic judges the lifted interpolant on the finer grid")
def test_dist_and_geodesic_agree_on_square_samples_read_at_a_finer_grid(tmp_path):
    # The area-pi square's exact samples at M = 256 pass the convexity verdict on their
    # own grid, so dist reads them; on the 512-point grid their interpolant has chord
    # defect -26.4, and geodesic refuses its frames.
    samples = to_even_fn(parse_shapedoc(_area_pi_square()), 256).samples
    a = _write(tmp_path, "a.json", json.dumps({"type": "samples", "grid": 256, "values": samples.tolist()}))
    b = _write(tmp_path, "disc.json", DISC)
    codes = [main(argv + ["--grid", "512", "--out", str(tmp_path / "out")])
             for argv in (["dist", a, b], ["geodesic", a, b, "--steps", "2"])]
    assert codes[0] == codes[1]


@pytest.mark.parametrize("cmd, most", [("geodesic", 10_000), ("kernels", 100_000)])
def test_steps_past_the_cap_exit_2_before_any_work(tmp_path, capsys, cmd, most):
    a = _write(tmp_path, "a.json", DISC)
    argv = [cmd, a, a] if cmd == "geodesic" else [cmd, "--t-min", "0.1", "--t-max", "1"]
    with mock.patch("hypkonvex.cli.load_shapedoc") as load, mock.patch("hypkonvex.cli.kernels_compare") as kernels:
        assert main(argv + ["--steps", str(most + 1), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: steps must be at most %d\n" % most
    assert not load.called and not kernels.called and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cmd, extra, flag, most",
    [
        ("dist", ["{a}", "{a}"], "--grid", 1 << 20),
        ("geodesic", ["{a}", "{a}"], "--grid", 1 << 20),
        ("verify", ["--suite", "kernels"], "--grid", 1 << 20),
        ("hdim", ["--empirical"], "--samples", 10_000_000),
    ],
    ids=["dist", "geodesic", "verify", "hdim"],
)
def test_grid_and_samples_past_the_cap_exit_2_before_any_work(tmp_path, capsys, cmd, extra, flag, most):
    # a samples document would be resampled to the grid, and hdim would draw
    # its samples: each allocating function raises if it is reached
    a = _write(tmp_path, "a.json", _SAMPLES_AT % "8")
    argv = [cmd] + [arg.format(a=a) for arg in extra] + [flag, str(most + 4), "--out", str(tmp_path / "out")]
    reached = AssertionError("reached past the cap")
    with mock.patch("hypkonvex.supportfn._spectrum_on", side_effect=reached), mock.patch(
        "hypkonvex.cli.run_suite", side_effect=reached
    ), mock.patch("hypkonvex.limits.sample_directions", side_effect=reached):
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s must be" % flag[2:]) and str(most) in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "{a}", "{a}", "--grid", "64", "--out", "{file}"],
        ["geodesic", "{a}", "{b}", "--grid", "64", "--steps", "1", "--out", "{file}/sub"],
        ["verify", "--suite", "kernels", "--out", "{file}"],
        ["kernels", "--t-min", "1", "--t-max", "1", "--out", "{file}/sub"],
        ["hdim", "--j-max", "6", "--out", "{file}"],
    ],
    ids=["dist", "geodesic", "verify", "kernels", "hdim"],
)
def test_an_out_that_is_not_a_directory_exits_2(tmp_path, capsys, argv):
    # --out names a file, or a directory below one: writing fails with an
    # OSError, which ends in an error line and not a traceback
    paths = {"a": _write(tmp_path, "a.json", DISC), "b": _write(tmp_path, "b.json", SQUARE)}
    paths["file"] = _write(tmp_path, "afile", "")
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert (tmp_path / "afile").read_text() == ""


def test_dist_zero_area_exits_3(tmp_path, capsys):
    a = _write(tmp_path, "a.json", DISC)
    # a segment has area 0; samples of 1e300 have an area that overflows
    for body in (SEGMENT, json.dumps({"type": "samples", "grid": 64, "values": [1e300] * 64})):
        b = _write(tmp_path, "b.json", body)
        for cmd in ("dist", "geodesic"):
            assert main([cmd, a, b, "--grid", "64", "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert "shape_b:" in err and "no finite positive area" in err


def test_overflowing_mixed_area_exits_3(tmp_path, capsys):
    # Two area-pi ellipses with entries near 1e169: the entries of adj(B)·A
    # overflow, and the distance refuses instead of reading 0 or inf.
    ma = [[-2.7612333583489972e169, 3.130451997749806e169], [6.011100620211319e169, -6.814875638206471e169]]
    mb = [[4.0315245448133136e169, -5.4920768612965484e169], [4.3316380345016496e169, -5.900916329879418e169]]
    a = _write(tmp_path, "a.json", json.dumps({"type": "ellipse", "matrix": ma}))
    b = _write(tmp_path, "b.json", json.dumps({"type": "ellipse", "matrix": mb}))
    for cmd in ("dist", "geodesic"):
        assert main([cmd, a, b, "--grid", "64", "--out", str(tmp_path / "out")]) == 3
        assert "overflowed" in capsys.readouterr().err


def test_dist_parse_error_exits_2(tmp_path):
    a = _write(tmp_path, "a.json", DISC)
    b = _write(tmp_path, "b.json", '{"type":"ellipse","matrix":[[2,0],[0,1]]}')
    assert main(["dist", a, b, "--out", str(tmp_path / "out")]) == 2
    # R diag(1e5, 5e-5) R^T at 45 degrees: determinant 5, far beyond rounding
    # at stretch 1e5, so it must not be read as an area-pi ellipse
    det5 = [[50000.000025, 49999.999975], [49999.999975, 50000.000025]]
    b = _write(tmp_path, "b.json", json.dumps({"type": "ellipse", "matrix": det5}))
    assert main(["dist", a, b, "--out", str(tmp_path / "out")]) == 2
    assert main(["dist", a, str(tmp_path / "missing.json")]) == 2


def test_grid_flag_and_env(tmp_path, capsys):
    a = _write(tmp_path, "a.json", DISC)
    b = _write(tmp_path, "b.json", DISC)
    assert main(["dist", a, b, "--grid", "90", "--out", str(tmp_path / "o1")]) == 2
    assert main(["dist", a, b, "--grid", "32", "--out", str(tmp_path / "o1")]) == 2
    assert main(["dist", a, b, "--grid", "256", "--out", str(tmp_path / "o2")]) == 0
    record = json.loads((tmp_path / "o2" / "dist.json").read_text())
    assert record["grid"] == 256
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, table",
    [
        (["kernels", "--t-min", "1", "--t-max", "2", "--steps", "3"], "kernels.csv"),
        (["hdim", "--j-max", "6"], "hdim.csv"),
    ],
)
def test_commands_off_the_grid_ignore_the_grid_variable(tmp_path, capsys, monkeypatch, argv, table):
    monkeypatch.delenv("HYPKONVEX_GRID", raising=False)
    assert main(argv + ["--out", str(tmp_path / "unset")]) == 0
    monkeypatch.setenv("HYPKONVEX_GRID", "abc")
    assert main(argv + ["--out", str(tmp_path / "abc")]) == 0
    assert (tmp_path / "abc" / table).read_bytes() == (tmp_path / "unset" / table).read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["hdim", "--seed", "1"], ["kernels", "--grid", "256"], ["dist", "a", "b", "--seed", "1"]]
)
def test_flags_a_command_does_not_read_are_refused(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "error: unrecognized arguments: " + " ".join(argv[-2:]) in err
    assert "Traceback" not in err and not any(tmp_path.iterdir())


def test_verify_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["verify", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


def test_geodesic_outputs(tmp_path, capsys):
    a = _write(tmp_path, "a.json", SQUARE)
    rect = json.dumps({"type": "polygon", "vertices": [[2.5, 0.3], [-2.5, 0.3], [-2.5, -0.3], [2.5, -0.3]]})
    b = _write(tmp_path, "b.json", rect)
    out = tmp_path / "geo"
    assert main(["geodesic", a, b, "--steps", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    frames = sorted(p.name for p in out.glob("frame_*.svg"))
    assert frames == ["frame_000.svg", "frame_001.svg", "frame_002.svg", "frame_003.svg", "frame_004.svg"]
    lines = (out / "geodesic.csv").read_text().strip().splitlines()
    assert lines[0] == "t,d_from_a,d_from_b,perimeter"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 5
    d_from_a = [r[1] for r in rows]
    assert all(b >= a for a, b in zip(d_from_a, d_from_a[1:]))  # monotone in t
    mid = rows[2]
    assert abs(mid[1] - mid[2]) < 1e-9
    svg = (out / "frame_000.svg").read_text()
    assert svg.startswith("<svg") and "path" in svg


@pytest.mark.xfail(strict=True, reason="a distance with a shape term has a sqrt(eps) floor (ROADMAP item 15), "
                   "so its geodesic misses the 1e-9 additivity check by 1.7e-8 and exits 3")
def test_geodesic_from_the_disc_to_a_nearby_ellipse_exits_0(tmp_path):
    # near = diag(e^{s/2}, e^{-s/2}) at s = 1e-7, distance about 6e-8 from the disc
    a = _write(tmp_path, "disc.json", DISC)
    b = _write(tmp_path, "near.json", _ellipse_doc(1e-7))
    assert main(["geodesic", a, b, "--out", str(tmp_path / "geo")]) == 0


def test_geodesic_identical_inputs_exit_3(tmp_path):
    a = _write(tmp_path, "a.json", SQUARE)
    b = _write(tmp_path, "b.json", SQUARE)
    assert main(["geodesic", a, b, "--out", str(tmp_path / "geo")]) == 3


def test_geodesic_of_a_random_polygon_with_itself_exits_3(tmp_path, capsys):
    # The same file read twice gives two equal polygons held apart, at
    # distance exactly 0: never a tiny geodesic or a failed additivity check.
    for seed in range(40):
        vertices = random_polygon(np.random.default_rng(seed)).vertices
        p = _write(tmp_path, "p.json", json.dumps({"type": "polygon", "vertices": vertices.tolist()}))
        assert main(["geodesic", p, p, "--grid", "256", "--out", str(tmp_path / "geo")]) == 3
        assert "identical" in capsys.readouterr().err


def test_geodesic_of_polygon_samples_at_a_large_grid(tmp_path, capsys):
    # the exact samples of a polygon pass the chord convexity gate at any grid
    M = 32768
    poly = random_polygon(np.random.default_rng(0))
    values = poly.support(grid_angles(M))
    a = _write(tmp_path, "a.json", json.dumps({"type": "samples", "grid": M, "values": values.tolist()}))
    b = _write(tmp_path, "b.json", _ellipse_doc(0.8))
    out = tmp_path / "geo"
    assert main(["geodesic", a, b, "--grid", str(M), "--steps", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(list(out.glob("frame_*.svg"))) == 3


def _rotation(a):
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def _hull(rng):
    """Vertices of a random symmetric convex polygon of 4 to 10 vertices."""
    pairs = int(rng.integers(2, 6))
    ang = rng.uniform(0.0, math.pi, pairs)
    pts = np.exp(rng.normal(0.0, 0.4, pairs))[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    hull = convex_hull(np.concatenate([pts, -pts]))
    return hull if hull.shape[0] >= 4 else np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


@st.composite
def _shapedoc_json(draw):
    """ShapeDoc JSON of every type, valid or flawed, at scales 10^-300 to 10^300."""
    kind = draw(st.sampled_from(["ellipse", "polygon", "segment", "samples"]))
    flawed = draw(st.sampled_from([False, False, True]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([0, 0, 0, -300, -200, -160, -30, 30, 150, 200, 300]))
    if kind == "ellipse":  # stretched up to 10^170, flawed: determinant 2 or -1
        s = 10.0 ** draw(st.sampled_from([0, 1, 20, 170]))
        m = _rotation(rng.uniform(0.0, math.pi)) @ np.diag([s, 1.0 / s]) @ _rotation(rng.uniform(0.0, math.pi))
        if flawed:
            m = m @ np.diag([2.0, draw(st.sampled_from([1.0, -0.5]))])
        return json.dumps({"type": "ellipse", "matrix": m.tolist()})
    if kind == "segment":  # flawed: the zero segment
        v = np.zeros(2) if flawed else scale * rng.normal(size=2)
        return json.dumps({"type": "segment", "endpoint": v.tolist()})
    v = _hull(rng)
    if kind == "polygon":  # flawed: asymmetric, non-convex or clockwise
        if flawed:
            i, half = int(rng.integers(len(v))), len(v) // 2
            asymmetric, nonconvex = v.copy(), v.copy()
            asymmetric[i] *= 1.1
            nonconvex[[i % half, i % half + half]] *= 0.2
            v = [asymmetric, nonconvex, v[::-1]][i % 3]
        return json.dumps({"type": "polygon", "vertices": (scale * v).tolist()})
    grid = draw(st.sampled_from([64, 64, 32, 60]))  # 32 is resampled, 60 is no grid
    values = scale * Polygon(v).support(2.0 * np.pi * np.arange(grid) / grid)
    if flawed:  # a NaN, one value too few, 10^300 everywhere, or an infinite or fractional grid
        flaw = rng.integers(5)
        if flaw < 3:
            values = [np.where(np.arange(grid) == 3, math.nan, values), values[1:], np.full(grid, 1e300)][flaw]
        else:
            grid = (math.inf, grid + 0.9)[flaw - 3]
    return json.dumps({"type": "samples", "grid": grid, "values": values.tolist()})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_shapedoc_json(), _shapedoc_json())
# the derandomized draws reach no infinite grid, NaN value, short value list or overflowing spectrum
@example(DISC, MALFORMED["infinite_grid"])
@example(MALFORMED["nan_value"], SQUARE)
@example(DISC, MALFORMED["value_too_few"])
@example(DISC, MALFORMED["spectrum_overflow"])
def test_dist_and_geodesic_end_in_a_documented_exit_code(tmp_path_factory, doc_a, doc_b):
    tmp = tmp_path_factory.mktemp("docs")
    a, b = _write(tmp, "a.json", doc_a), _write(tmp, "b.json", doc_b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTailWarning)  # resampling a grid-32 document
        for argv in (["dist", a, b], ["geodesic", a, b, "--steps", "2"]):
            assert main(argv + ["--grid", "64", "--out", str(tmp / "out")]) in (0, 2, 3)


def _band_limited_doc(grid, scale, coeffs):
    """A samples document of scale * (1 + sum over n = 2, 4, 6, 8 of (a_n cos nt + b_n sin nt) / (n^2 - 1))."""
    theta = grid_angles(grid)
    values = np.ones(grid)
    for n, (a, b) in zip((2, 4, 6, 8), zip(coeffs[::2], coeffs[1::2])):
        values += (a * np.cos(n * theta) + b * np.sin(n * theta)) / (n * n - 1)
    return json.dumps({"type": "samples", "grid": grid, "values": (scale * values).tolist()})


# 1 + 0.3 cos 4t: h'' + h = 1 - 4.5 cos 4t dips below 0, so it is no body
COS4 = [0.0, 0.0, 4.5, 0.0, 0.0, 0.0, 0.0, 0.0]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    grid=st.sampled_from([64, 256]),
    scale=st.integers(-12, 12).map(lambda k: 10.0**k),
    coeffs=st.lists(st.floats(-0.5, 0.5), min_size=8, max_size=8),
)
@example(grid=256, scale=1.0, coeffs=COS4)
@example(grid=256, scale=1e-9, coeffs=COS4)
def test_dist_and_geodesic_agree_on_band_limited_samples(tmp_path_factory, grid, scale, coeffs):
    # h'' + h = 1 - sum (a_n cos nt + b_n sin nt) takes either sign.  Every operand
    # is judged where it is read, so both commands accept the same documents.
    # The other operand is an ellipse: a constant document normalizes to the
    # disc, which geodesic refuses as an identical endpoint.
    tmp = tmp_path_factory.mktemp("docs")
    a = _write(tmp, "a.json", _band_limited_doc(grid, scale, coeffs))
    b = _write(tmp, "b.json", _ellipse_doc(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTailWarning)
        codes = [main(argv + ["--grid", str(grid), "--out", str(tmp / "out")])
                 for argv in (["dist", a, b], ["geodesic", a, b, "--steps", "1"])]
    assert codes[0] == codes[1]


def test_a_samples_document_that_is_no_body_exits_3_naming_the_file(tmp_path, capsys):
    disc = _write(tmp_path, "disc.json", DISC)
    for scale in (1.0, 1e-9):
        nc = _write(tmp_path, "nc.json", _band_limited_doc(256, scale, COS4))
        for cmd in ("dist", "geodesic"):
            assert main([cmd, nc, disc, "--grid", "256", "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: %s: samples are not a support function" % nc)
    assert not (tmp_path / "out").exists()


def _valid_or_not(valid, invalid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


_T_TEXT = st.one_of(
    st.floats(0.01, 30.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "30", "31", "1e308"]),
    st.floats().map(repr),
)
_BODIES = ("disc", "square", "ellipse", "segment", "missing")
_SUITES = ("ellipse-sum", "wirtinger", "curvature", "quasiiso", "kernels", "dimension", "bogus", "")


@st.composite
def _argv(draw, cmd):
    """Argv of a subcommand, each flag valid or not, kept cheap: grid <= 256,
    fast suites only, at most 2000 samples."""
    argv = [cmd]
    if cmd in ("dist", "geodesic"):
        argv += [draw(st.sampled_from(_BODIES)), draw(st.sampled_from(_BODIES[:3]))]
        argv += ["--steps=%d" % draw(st.integers(-1, 3))] if cmd == "geodesic" else []
    elif cmd == "verify":
        argv.append("--suite=" + draw(st.sampled_from(_SUITES)))
    elif cmd == "kernels":
        argv += ["--t-min=" + draw(_T_TEXT), "--t-max=" + draw(_T_TEXT)]
        argv += ["--steps=%d" % draw(st.integers(-1, 6))]
    else:
        j_min = draw(st.one_of(st.integers(2, 10), st.integers(-1, 18)))
        argv += ["--j-min=%d" % j_min, "--j-max=%d" % (j_min + draw(st.integers(-2, 8)))]
        argv += ["--samples=%d" % draw(st.one_of(st.integers(200, 2000), st.integers(-5, 200)))]
        argv += [flag for flag in ("--empirical", "--control") if draw(st.booleans())]
    if cmd in ("dist", "geodesic", "verify"):  # the commands that compute on a grid
        if draw(st.booleans()):
            argv.append("--grid=" + draw(_valid_or_not(["64", "128", "256"], ["-4", "0", "63", "abc", "1e3"])))
        argv += ["--strict"] if draw(st.booleans()) else []
    if cmd == "verify":  # the suites seed their generators
        argv.append("--seed=%d" % draw(st.one_of(st.integers(0, 2**64), st.integers(-(2**64), -1))))
    env = draw(_valid_or_not([None, "64", " 128 ", "256"], ["abc", "", "-64", "65", "1e3", "128.0"]))
    return argv, env


@pytest.mark.parametrize("cmd", ["dist", "geodesic", "verify", "kernels", "hdim"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_argv_ends_in_a_documented_exit_code(tmp_path_factory, cmd, data):
    argv, env = data.draw(_argv(cmd))
    tmp = tmp_path_factory.mktemp("argv")
    bodies = {"disc": DISC, "square": SQUARE, "ellipse": _ellipse_doc(3.0), "segment": SEGMENT}
    paths = {name: _write(tmp, name + ".json", text) for name, text in bodies.items()}
    paths["missing"] = str(tmp / "missing.json")
    argv = [paths.get(arg, arg) for arg in argv] + ["--out", str(tmp / "out")]
    grid_env = {} if env is None else {"HYPKONVEX_GRID": env}
    err = io.StringIO()
    with mock.patch.dict(os.environ, grid_env), contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        if env is None:
            os.environ.pop("HYPKONVEX_GRID", None)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, env, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["verify", "--suite", "curvature", "--out", str(out), "--grid", "512"]) == 0
    text = capsys.readouterr().out
    assert "curvature" in text and "PASS" in text
    payload = json.loads((out / "curvature.json").read_text())
    assert payload["pass"] is True


def test_verify_unknown_suite_exits_2(tmp_path):
    assert main(["verify", "--suite", "bogus", "--out", str(tmp_path / "rep")]) == 2


def test_verify_determinism_single_suite(tmp_path, capsys):
    o1, o2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["verify", "--suite", "wirtinger", "--seed", "1", "--grid", "512", "--out", str(o1)]) == 0
    assert main(["verify", "--suite", "wirtinger", "--seed", "1", "--grid", "512", "--out", str(o2)]) == 0
    capsys.readouterr()
    assert (o1 / "wirtinger.json").read_bytes() == (o2 / "wirtinger.json").read_bytes()


def test_kernels_table(tmp_path, capsys):
    out = tmp_path / "k"
    assert main(["kernels", "--t-min", "0.1", "--t-max", "2.0", "--steps", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "kernels.csv").read_text().strip().splitlines()
    assert lines[0] == "t,I1,I2,closed,kern2,gap"
    assert len(lines) == 6
    for ln in lines[1:]:
        t, i1, i2, closed, kern2, gap = map(float, ln.split(","))
        assert abs(i1 - closed) < 1e-10 and abs(i2 - closed) < 1e-10
        assert gap > 0.0


def test_kernels_at_large_t_match_the_closed_form(tmp_path):
    out = tmp_path / "k"
    assert main(["kernels", "--t-min", "8", "--t-max", "8", "--out", str(out)]) == 0
    (row,) = (out / "kernels.csv").read_text().strip().splitlines()[1:]
    t, i1 = (float(v) for v in row.split(",")[:2])
    oracle = 2.0 * math.exp(t) * ellipe(-math.expm1(-4.0 * t)) / math.pi
    assert t == 8.0 and i1 == pytest.approx(oracle, rel=1e-12)


def test_kernels_validation(tmp_path):
    assert main(["kernels", "--steps", "0", "--out", str(tmp_path)]) == 2
    assert main(["kernels", "--t-min", "2.0", "--t-max", "1.0", "--out", str(tmp_path)]) == 2
    assert main(["kernels", "--t-min", "-1.0", "--out", str(tmp_path)]) == 2


def test_kernels_single_row_when_equal_bounds(tmp_path, capsys):
    out = tmp_path / "k"
    assert main(["kernels", "--t-min", "1.5", "--t-max", "1.5", "--steps", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "kernels.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_hdim_analytic_and_control(tmp_path, capsys):
    out = tmp_path / "h"
    assert main(["hdim", "--j-min", "4", "--j-max", "12", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    slope = float(summary.split("slope=")[1].split()[0])
    assert 1.98 <= slope <= 2.02
    lines = (out / "hdim.csv").read_text().strip().splitlines()
    assert lines[0] == "j,eps,N_analytic"
    assert len(lines) == 10

    assert main(["hdim", "--control", "--out", str(out)]) == 0
    slope = float(capsys.readouterr().out.split("slope=")[1].split()[0])
    assert 0.99 <= slope <= 1.01


def test_hdim_empirical(tmp_path, capsys):
    out = tmp_path / "h"
    assert main(["hdim", "--empirical", "--samples", "20000", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    emp = float(summary.split("empirical_slope=")[1].split()[0])
    ana = float(summary.split("slope=")[1].split()[0])
    assert abs(emp - ana) < 0.1
    header = (out / "hdim.csv").read_text().splitlines()[0]
    assert header == "j,eps,N_analytic,N_empirical"


def test_hdim_bad_range(tmp_path):
    assert main(["hdim", "--j-min", "9", "--j-max", "4", "--out", str(tmp_path)]) == 2
    assert main(["hdim", "--j-min", "1", "--j-max", "5", "--out", str(tmp_path)]) == 2


def test_seventeen_digit_roundtrip(tmp_path, capsys):
    a = _write(tmp_path, "a.json", DISC)
    b = _write(tmp_path, "b.json", _ellipse_doc(0.7))
    assert main(["dist", a, b, "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == float("%.17g" % float(printed))


def test_strict_mode_escalates_spectral_warning(tmp_path):
    # a square's samples regridded from 256 to 64 fold the harmonics at and
    # above 32 into the coarser samples, which warns
    square = Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
    doc = json.dumps({"type": "samples", "grid": 256, "values": square.support(grid_angles(256)).tolist()})
    a = _write(tmp_path, "a.json", doc)
    b = _write(tmp_path, "b.json", DISC)
    with pytest.warns(SpectralTailWarning, match="resampling raw samples from grid 256 to 64 folds 7.6.e-06 of"):
        assert main(["dist", a, b, "--grid", "64", "--out", str(tmp_path / "o")]) == 0
    assert main(["dist", a, b, "--grid", "64", "--strict", "--out", str(tmp_path / "o")]) == 3


def test_verify_failure_exits_4(tmp_path, monkeypatch, capsys):
    from hypkonvex.verify import SUITES

    def failing(col, rng, grid):
        col.add("rigged", "0", 2.0, 1.0)

    monkeypatch.setitem(SUITES, "rigged", failing)
    assert main(["verify", "--suite", "rigged", "--out", str(tmp_path)]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_calls_in_one_process_read_only_their_own_flags(tmp_path, monkeypatch, capsys):
    # The parser is built once per process: each call in a sequence gives what
    # a call on a freshly built parser gives, flags of the call before it unread.
    from hypkonvex.verify import SUITES

    def warning(col, rng, grid):
        warnings.warn("rigged spectral tail", SpectralTailWarning)
        col.add("rigged", "0", 0.0, 1.0)

    monkeypatch.setitem(SUITES, "rigged", warning)
    a, b = _write(tmp_path, "a.json", DISC), _write(tmp_path, "b.json", SQUARE)
    sequence = [
        ["geodesic", a, b, "--grid", "256", "--steps", "2"],
        ["geodesic", a, b, "--grid", "256"],
        ["verify", "--suite", "rigged", "--strict"],
        ["verify", "--suite", "rigged"],
    ]
    seen = {}
    for fresh in (False, True):
        for i, argv in enumerate(sequence):
            out = tmp_path / ("%s-%d" % (fresh, i))
            if fresh:
                cli.build_parser.cache_clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SpectralTailWarning)
                code = main(argv + ["--out", str(out)])
            printed = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            seen[fresh, i] = code, printed.out.replace(str(out), "OUT"), printed.err, files
    assert all(seen[False, i] == seen[True, i] for i in range(len(sequence)))
    assert [seen[False, i][0] for i in range(len(sequence))] == [0, 0, 3, 0]
    assert [len(seen[False, i][3]) for i in range(len(sequence))] == [4, 10, 0, 1]


def test_a_command_patched_after_an_earlier_call_is_the_one_that_runs(tmp_path, capsys):
    assert main(["kernels", "--t-min", "0.5", "--t-max", "0.5", "--out", str(tmp_path / "first")]) == 0
    with mock.patch("hypkonvex.cli.cmd_kernels", return_value=0) as patched:
        assert main(["kernels", "--steps", "3", "--out", str(tmp_path / "second")]) == 0
    assert patched.call_count == 1 and patched.call_args.args[0].steps == 3
    assert not (tmp_path / "second").exists()


def test_a_traced_benchmark_run_records_the_geodesic_command(tmp_path):
    # The worker runs untraced rounds first, so the parser is built before the
    # tracer wraps cli.cmd_geodesic; the wrapped command must still be the one
    # that runs.  A copy of bench/ beside the sources keeps its work files in tmp_path.
    repo = Path(hypkonvex.__file__).resolve().parents[2]
    shutil.copytree(repo / "bench", tmp_path / "bench")
    (tmp_path / "src").symlink_to(repo / "src")
    argv = [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "geodesic", "--seed", "1",
            "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["correct"]
    trace = json.loads((tmp_path / ".bench_out" / "geodesic" / "trace.json").read_text())
    geodesic = trace["names"].index("cli.cmd_geodesic")
    assert any(span[0] == geodesic for span in trace["spans"])
