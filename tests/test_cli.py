"""End-to-end command-line checks: exit codes, file outputs, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ellipe

import hypkonvex
from hypkonvex.cli import main
from hypkonvex.lorentz import geodesic_point, normalize
from hypkonvex.shapedoc import parse_shapedoc, to_even_fn
from hypkonvex.shapes import Sum
from hypkonvex.supportfn import grid_angles
from hypkonvex.svgout import render_boundary

DISC = '{"type":"ellipse","matrix":[[1.0,0.0],[0.0,1.0]]}'
SQUARE = '{"type":"polygon","vertices":[[1,1],[-1,1],[-1,-1],[1,-1]]}'
SEGMENT = '{"type":"segment","endpoint":[1.0,0.0]}'
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
    # one operand tagged, one not: every form value must come from one route
    sq = _area_pi_square()
    samples = to_even_fn(parse_shapedoc(sq), 2048).samples
    a = _write(tmp_path, "a.json", sq)
    b = _write(tmp_path, "b.json", json.dumps({"type": "samples", "grid": 2048, "values": samples.tolist()}))
    assert main(["dist", a, b, "--out", str(tmp_path / "out")]) == 0
    assert 0.0 <= float(capsys.readouterr().out.strip()) <= 1e-12


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
    expect = render_boundary(mid.boundary(grid_angles(2048))).find("path").get("d")
    assert 'd="%s"' % expect in (out / "frame_004.svg").read_text()


@pytest.mark.parametrize(
    "argv, env",
    [
        (["dist", "{disc}", "{disc}"], {"HYPKONVEX_GRID": "abc"}),
        (["hdim", "--empirical", "--samples", "0"], {}),
        (["kernels", "--t-min", "400", "--t-max", "400"], {}),
        (["kernels", "--t-min", "31", "--t-max", "31"], {}),
    ],
    ids=["grid-env-not-int", "hdim-no-samples", "kernels-overflow", "kernels-capped-grid"],
)
def test_bad_input_exits_2_without_traceback(tmp_path, argv, env):
    disc = _write(tmp_path, "disc.json", DISC)
    argv = [arg.format(disc=disc) for arg in argv] + ["--out", str(tmp_path / "out")]
    src = str(Path(hypkonvex.__file__).resolve().parents[1])
    full_env = dict(os.environ, PYTHONPATH=src, **env)
    proc = subprocess.run(
        [sys.executable, "-m", "hypkonvex.cli", *argv], env=full_env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_dist_zero_area_exits_3(tmp_path):
    a = _write(tmp_path, "a.json", DISC)
    b = _write(tmp_path, "b.json", SEGMENT)
    assert main(["dist", a, b, "--out", str(tmp_path / "out")]) == 3


def test_dist_parse_error_exits_2(tmp_path):
    a = _write(tmp_path, "a.json", DISC)
    b = _write(tmp_path, "b.json", '{"type":"ellipse","matrix":[[2,0],[0,1]]}')
    assert main(["dist", a, b, "--out", str(tmp_path / "out")]) == 2
    assert main(["dist", a, str(tmp_path / "missing.json")]) == 2


def test_grid_flag_and_env(tmp_path, capsys, monkeypatch):
    a = _write(tmp_path, "a.json", DISC)
    b = _write(tmp_path, "b.json", DISC)
    assert main(["dist", a, b, "--grid", "90", "--out", str(tmp_path / "o1")]) == 2
    assert main(["dist", a, b, "--grid", "32", "--out", str(tmp_path / "o1")]) == 2
    monkeypatch.setenv("HYPKONVEX_GRID", "256")
    assert main(["dist", a, b, "--out", str(tmp_path / "o2")]) == 0
    record = json.loads((tmp_path / "o2" / "dist.json").read_text())
    assert record["grid"] == 256
    capsys.readouterr()


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


def test_geodesic_identical_inputs_exit_3(tmp_path):
    a = _write(tmp_path, "a.json", SQUARE)
    b = _write(tmp_path, "b.json", SQUARE)
    assert main(["geodesic", a, b, "--out", str(tmp_path / "geo")]) == 3


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
    # raw samples on a coarser grid force a resample, which warns
    import numpy as np
    from hypkonvex.supportfn import grid_angles

    samples = 2.0 + 0.1 * np.cos(2 * grid_angles(64))
    doc = json.dumps({"type": "samples", "grid": 64, "values": samples.tolist()})
    a = _write(tmp_path, "a.json", doc)
    b = _write(tmp_path, "b.json", DISC)
    assert main(["dist", a, b, "--grid", "256", "--out", str(tmp_path / "o")]) == 0
    assert main(["dist", a, b, "--grid", "256", "--strict", "--out", str(tmp_path / "o")]) == 3


def test_verify_failure_exits_4(tmp_path, monkeypatch, capsys):
    from hypkonvex.verify import SUITES, SuiteReport

    def failing(seed=0, grid=2048):
        return SuiteReport(
            suite="rigged", seed=seed, grid=grid, cases=1,
            max_violation=2.0, tolerance=1.0, passed=False,
            records=[{"check": "rigged", "digest": "0", "value": 2.0, "tol": 1.0}],
        )

    monkeypatch.setitem(SUITES, "rigged", failing)
    assert main(["verify", "--suite", "rigged", "--out", str(tmp_path)]) == 4
    assert "FAIL" in capsys.readouterr().out
