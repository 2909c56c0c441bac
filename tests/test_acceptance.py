"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line; run with ``pytest -s
tests/test_acceptance.py`` to see them all.
"""

import math
import time

import numpy as np

from hypkonvex.cli import main as cli_main
from hypkonvex.limits import (
    BoundaryDir,
    boundary_approach,
    empirical_dim_estimate,
    hausdorff_dim_estimate,
    project_disc_to_segment_geodesic,
    visual_dist,
    visual_dist_generic,
)
from hypkonvex.lorentz import form_A, form_A_spectral, normalize, pi0
from hypkonvex.shapes import Segment
from hypkonvex.supportfn import combine, from_ellipse, from_polygon, from_segment, scaled
from hypkonvex.verify import (
    HALF_CURVATURE_RATIO,
    SUITES,
    curvature_scale_estimate,
    kernels_compare,
    minkowski_extended_test,
    random_ellipse,
    random_polygon,
    random_tagged_body,
    run_suite,
)

from visual_oracle import visual_dist_isotropic

GRID = 2048


def _criterion(num, description, ok, detail=""):
    line = "[criterion %02d] %s: %s" % (num, "PASS" if ok else "FAIL", description)
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert ok, line


def test_criterion_01_area_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    polys = [random_polygon(rng) for _ in range(100)]
    errs = {}
    for M in (4096, 8192):
        errs[M] = [
            abs(math.pi * form_A_spectral(from_polygon(p, M)) - p.area) / p.area
            for p in polys
        ]
    worst = max(errs[4096])
    order = math.log2(np.mean(errs[4096]) / np.mean(errs[8192]))

    rng = np.random.default_rng(4)
    worst_e = max(
        abs(form_A_spectral(from_ellipse(random_ellipse(rng), 4096)) - 1.0)
        for _ in range(100)
    )
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        "area identity pi*A(supp P) = area(P)",
        worst < 1e-2 and order >= 1.0 and worst_e < 1e-10 and elapsed < 10.0,
        "polygon max rel %.2e, order %.2f, ellipse max %.1e, %.1fs" % (worst, order, worst_e, elapsed),
    )


def test_criterion_02_kernel_equality():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 51):
        kv = kernels_compare(0.1 * k)
        worst = max(worst, abs(kv.i1 - kv.closed), abs(kv.i2 - kv.closed))
    elapsed = time.perf_counter() - t0
    _criterion(
        2,
        "kernel equality I1 = I2 = 2 e^t E(k)/pi on t in {0.1..5}",
        worst < 1e-9 and elapsed < 1.0,
        "max |I - closed| %.2e, %.2fs" % (worst, elapsed),
    )


def test_criterion_03_curvature_scale():
    ratios, extrapolated = curvature_scale_estimate([5e-4, 1e-3, 1e-2])
    err_ratio = abs(ratios[-1] - HALF_CURVATURE_RATIO)
    err_rich = abs(extrapolated - HALF_CURVATURE_RATIO)
    _criterion(
        3,
        "curvature scale d(s)/s -> sqrt(3/8)",
        err_ratio < 1e-4 and err_rich < 1e-8,
        "at s=1e-2: %.2e, Richardson: %.2e" % (err_ratio, err_rich),
    )


def test_criterion_04_quasi_isometry():
    report = run_suite("quasiiso")
    _criterion(
        4,
        "quasi-isometry sandwich and |d - s/2| <= 1/2 on [0, 40]",
        report.passed,
        "max normalized violation %.3g" % report.max_violation,
    )


def test_criterion_05_minkowski_suite():
    rng = np.random.default_rng(11)
    worst_pair = 0.0
    for _ in range(1000):
        h1, h2 = random_tagged_body(rng, GRID), random_tagged_body(rng, GRID)
        a11, a22, a12 = form_A(h1), form_A(h2), form_A(h1, h2)
        resid = (a12 * a12 - a11 * a22) / max(a12 * a12, a11 * a22)
        worst_pair = min(worst_pair, resid)

    worst_ext = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 6))
        bodies = [random_tagged_body(rng, GRID) for _ in range(n + 1)]
        coeffs = rng.uniform(-2.0, 2.0, n)
        worst_ext = min(worst_ext, minkowski_extended_test(bodies, coeffs))

    worst_hom = 0.0
    for _ in range(50):
        h = random_tagged_body(rng, GRID)
        h2 = scaled(h, float(rng.uniform(0.2, 5.0)))
        a11, a22, a12 = form_A(h), form_A(h2), form_A(h, h2)
        worst_hom = max(worst_hom, abs(a12 * a12 - a11 * a22) / max(a12 * a12, a11 * a22))

    _criterion(
        5,
        "Minkowski inequality, signed extension, homothetic equality",
        worst_pair >= -1e-12 and worst_ext >= -1e-9 and worst_hom < 1e-9,
        "pair %.1e, extended %.1e, homothetic defect %.1e" % (worst_pair, worst_ext, worst_hom),
    )


def test_criterion_06_sobolev_inequalities():
    r1 = run_suite("wirtinger", seed=6, grid=GRID)
    r2 = run_suite("encadrement", seed=6, grid=GRID)
    _criterion(
        6,
        "Poincare-Wirtinger and H1 bracketing on 1000 random functions",
        r1.passed and r2.passed,
        "max normalized violations %.3g / %.3g" % (r1.max_violation, r2.max_violation),
    )


def test_criterion_07_visual_metric():
    perp = abs(visual_dist(BoundaryDir(0.0), BoundaryDir(math.pi / 2)) - 0.5 * math.sqrt(math.pi))

    rng = np.random.default_rng(7)
    worst_pair = max(
        abs(visual_dist(d1, d2) - visual_dist_isotropic(d1, d2))
        for d1, d2 in (tuple(rng.uniform(0.0, math.pi, 2)) for _ in range(50))
    )

    dirs = [BoundaryDir(0.25), BoundaryDir(1.2), BoundaryDir(2.3)]
    radii = [11.0, 13.0, 15.0]
    pairs = [(0, 1), (0, 2), (1, 2)]
    est = {}
    for i, j in pairs:
        p = [boundary_approach(dirs[i], r, GRID) for r in radii]
        q = [boundary_approach(dirs[j], r, GRID) for r in radii]
        est[(i, j)] = visual_dist_generic(p, q)
    worst_ratio = 0.0
    for i, j in pairs:
        for k, l in pairs:
            lhs = est[(i, j)] / est[(k, l)]
            rhs = visual_dist(dirs[i], dirs[j]) / visual_dist(dirs[k], dirs[l])
            worst_ratio = max(worst_ratio, abs(lhs / rhs - 1.0))

    _criterion(
        7,
        "visual metric closed form, isotropic quadrature, Gromov ratios",
        perp < 1e-12 and worst_pair < 1e-9 and worst_ratio < 0.02,
        "perp %.1e, quadrature %.1e, ratio %.3f%%" % (perp, worst_pair, 100 * worst_ratio),
    )


def test_criterion_08_hausdorff_dimension():
    t0 = time.perf_counter()
    slope, _ = hausdorff_dim_estimate(4, 12)
    emp, _, _ = empirical_dim_estimate(4, 12, 100_000)
    control, _ = hausdorff_dim_estimate(4, 12, metric="round")
    elapsed = time.perf_counter() - t0
    _criterion(
        8,
        "limit-set dimension: analytic 2, empirical within 0.1, control 1",
        1.98 <= slope <= 2.02 and abs(emp - slope) < 0.1 and 0.99 <= control <= 1.01 and elapsed < 30.0,
        "analytic %.4f, empirical %.4f, control %.4f, %.1fs" % (slope, emp, control, elapsed),
    )


def test_criterion_09_rhombus_projection():
    rng = np.random.default_rng(9)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    worst_par, worst_sup = 0.0, 0.0
    done = 0
    while done < 20:
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        delta = min(abs(t1 - t2) % math.pi, math.pi - abs(t1 - t2) % math.pi)
        if delta < 0.1:
            continue
        best = project_disc_to_segment_geodesic(t1, t2, GRID)
        amp = 0.5 * math.sqrt(math.pi / math.sin(delta))

        def point_at(tau):
            s1 = from_segment(
                Segment(amp * math.exp(tau / 2) * np.array([math.cos(t1), math.sin(t1)])), GRID
            )
            s2 = from_segment(
                Segment(amp * math.exp(-tau / 2) * np.array([math.cos(t2), math.sin(t2)])), GRID
            )
            return normalize(combine(1.0, s1, 1.0, s2))

        lo, hi = -1.5, 1.5
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc, fd = pi0(point_at(c).fn), pi0(point_at(d).fn)
        while hi - lo > 1e-7:
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = pi0(point_at(c).fn)
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = pi0(point_at(d).fn)
        tau_star = 0.5 * (lo + hi)
        # comparison search bottoms out near sqrt(eps); a parabolic fit of the
        # smooth perimeter profile polishes the minimizer to ~1e-12
        step = 1e-3
        f0 = pi0(point_at(tau_star - step).fn)
        f1 = pi0(point_at(tau_star).fn)
        f2 = pi0(point_at(tau_star + step).fn)
        tau_hat = tau_star + 0.5 * step * (f0 - f2) / (f0 - 2.0 * f1 + f2)
        worst_par = max(worst_par, abs(tau_hat))
        worst_sup = max(worst_sup, float(np.abs(point_at(tau_hat).fn.samples - best.fn.samples).max()))
        done += 1
    _criterion(
        9,
        "rhombus is the nearest point of segment geodesics to the disc",
        worst_par < 1e-6 and worst_sup < 1e-9,
        "parameter %.1e, sup-norm %.1e" % (worst_par, worst_sup),
    )


def test_criterion_10_equivariance():
    report = run_suite("equivariance", seed=10, grid=GRID)
    worst = {}
    for rec in report.records:
        if "tol" in rec:
            worst[rec["check"]] = max(worst.get(rec["check"], 0.0), abs(rec["value"]))
    _criterion(
        10,
        "form invariance 1e-8, iota equivariance 1e-10, group law 1e-9",
        report.passed,
        "A-inv %.1e, iota %.1e, group %.1e"
        % (worst["form-invariance"], worst["iota-equivariance"], worst["group-law"]),
    )


def test_criterion_11_span_dimension():
    gram = run_suite("gram-rank", seed=11, grid=GRID)
    esum = run_suite("ellipse-sum", seed=11, grid=GRID)
    margin = min(r["value"] / r["threshold"] for r in gram.records)
    hom = max(abs(r["value"]) for r in esum.records if r["check"] == "homothetic-energy")
    non = min(r["value"] for r in esum.records if r["check"] == "non-ellipse-energy")
    _criterion(
        11,
        "Gram signature (1, n) for n=2..6 and ellipse-sum harmonic energies",
        gram.passed and esum.passed,
        "eigenvalues >= %.1e x rounding floor, homothetic %.1e, non-homothetic %.1e" % (margin, hom, non),
    )


def test_criterion_12_determinism(tmp_path, capsys):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for out in dirs:
        code = cli_main(["verify", "--suite", "all", "--seed", "1", "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    names = sorted(p.name for p in dirs[0].glob("*.json"))
    expected = sorted("%s.json" % s for s in SUITES)
    same = names == expected and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
    )
    _criterion(
        12,
        "verify --suite all --seed 1 is byte-identical across runs",
        same,
        "%d reports compared" % len(names),
    )
