"""Verification operations and suite harness."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from hypkonvex.lorentz import form_A
from hypkonvex.mobius import Mobius, iota_dist_quadrature
from hypkonvex.shapes import Ellipse
from hypkonvex.supportfn import from_ellipse, grid_angles, unit_disc
from hypkonvex.verify import (
    HALF_CURVATURE_RATIO,
    KERNEL_T_MAX,
    SUITES,
    SuiteReport,
    _add_gram_signature,
    _jacobian_mean,
    curvature_scale_estimate,
    ellipse_sum_test,
    jacobian_circle,
    kernels_compare,
    minkowski_extended_test,
    random_band_limited,
    random_ellipse,
    random_mobius,
    run_suite,
)

M = 512


def test_jacobian_examples():
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    assert np.abs(jacobian_circle(0.0, theta) - 1.0).max() == 0.0
    for t in (0.3, 1.0, 2.5):
        assert jacobian_circle(t, 0.0) == pytest.approx(math.exp(2.0 * t), rel=1e-13)
        fine = np.linspace(0.0, 2.0 * math.pi, 1 << 16, endpoint=False)
        assert abs(np.mean(jacobian_circle(t, fine)) - 1.0) < 1e-12
    # literal expansion cross-check at moderate t
    t = 0.8
    th = 1.234
    literal = 1.0 / (math.cosh(t) ** 2 - 2.0 * math.sinh(t) * math.cosh(t) * math.cos(th) + math.sinh(t) ** 2)
    assert jacobian_circle(t, th) == pytest.approx(literal, rel=1e-12)


def test_jacobian_against_quadrature():
    t = 0.6
    oracle = quad(lambda x: 1.0 / (math.cosh(2 * t) - math.sinh(2 * t) * math.cos(x)),
                  0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13)[0] / (2.0 * math.pi)
    assert oracle == pytest.approx(1.0, abs=1e-12)


def test_kernels_compare():
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        kv = kernels_compare(t)
        assert abs(kv.i1 - kv.closed) < 1e-10
        assert abs(kv.i2 - kv.closed) < 1e-10
        assert kv.kern2 == pytest.approx(math.exp(t), rel=1e-13)
        assert kv.gap > 0.0
    with pytest.raises(ValueError):
        kernels_compare(0.0)


def test_kernels_scan_against_scipy_closed_form():
    # scipy's E(m) is independent of the AGM that kernels_compare reports
    ts = [1e-3, 1e-2] + [k / 10.0 for k in range(1, round(10 * KERNEL_T_MAX) + 1)]
    assert ts[-1] == KERNEL_T_MAX
    for t in ts:
        oracle = 2.0 * math.exp(t) * ellipe(-math.expm1(-4.0 * t)) / math.pi
        kv = kernels_compare(t)
        cosh_iota = math.cosh(iota_dist_quadrature(Mobius.axial(2.0 * t)))
        for value in (kv.i1, kv.i2, cosh_iota):
            assert value == pytest.approx(oracle, rel=1e-13), t
        assert abs(_jacobian_mean(t, 1.0) - 1.0) < 1e-14, t


def test_minkowski_extended_examples():
    disc = unit_disc(M)
    resid = minkowski_extended_test([disc, disc], [1.0])
    assert abs(resid) < 1e-14

    # n = 1 with positive coefficient reduces to the plain Minkowski inequality
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(0, 2 * math.pi)
        r = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        e = Ellipse(r @ np.diag([1.6, 1 / 1.6]) @ r.T)
        resid = minkowski_extended_test([disc, from_ellipse(e, M)], [float(rng.uniform(0.1, 2.0))])
        assert resid >= -1e-12

    with pytest.raises(ValueError):
        minkowski_extended_test([disc, disc, disc], [1.0])


def test_ellipse_sum_examples():
    e1 = Ellipse(np.diag([2.0, 0.5]))
    ident = Ellipse(np.eye(2))
    assert ellipse_sum_test(e1, e1, 1.7, M) < 1e-12  # homothetic
    assert ellipse_sum_test(e1, ident, 1.0, M) > 1e-6
    rng = np.random.default_rng(1)
    m = random_mobius(rng, 2.0)
    moved = ellipse_sum_test(e1.transform(m), ident.transform(m), 1.0, M)
    assert moved > 1e-6  # verdict survives the group action


def test_curvature_scale_estimate():
    ratios, extrapolated = curvature_scale_estimate([5e-4, 1e-3, 1e-2])
    assert abs(ratios[-1] - HALF_CURVATURE_RATIO) < 1e-4
    assert abs(extrapolated - HALF_CURVATURE_RATIO) < 1e-8
    for bad in ([0.0, 1.0], [1e-3], [1e-3, 1e-3]):
        with pytest.raises(ValueError):
            curvature_scale_estimate(bad)


def test_quasi_iso_suite():
    report = run_suite("quasiiso")
    assert report.passed
    smax_dev = max(abs(r["value"]) for r in report.records if r["check"] == "additive-band")
    assert smax_dev < 0.46


def test_suite_registry_runs_and_is_deterministic():
    r1 = run_suite("wirtinger", seed=3, grid=M)
    r2 = run_suite("wirtinger", seed=3, grid=M)
    assert r1.passed
    assert r1.to_json() == r2.to_json()
    with pytest.raises(KeyError):
        run_suite("nope")


REPORT_KEYS = {"suite", "seed", "grid", "cases", "max_violation", "tolerance", "pass", "records"}


def test_report_invariant():
    report = run_suite("curvature", seed=0, grid=M)
    payload = json.loads(report.to_json())
    assert payload["pass"] == report.passed == (report.max_violation <= payload["tolerance"])
    assert set(payload) == REPORT_KEYS


def test_report_harness(monkeypatch):
    empty = SuiteReport("probe", 5, M)
    assert (empty.cases, empty.max_violation, empty.passed) == (0, 0.0, True)
    # each check scores exactly 1 at its bound and fails just past it
    checks = [
        lambda r, step: r.add("bound", "0", -0.25 * step, 0.25),
        lambda r, step: r.add_lower("lower", "0", 0.25 / step, 0.25),
        lambda r, step: r.add_window("window", "0", 2.5 * step, 1.5, 2.5),
    ]
    for check in checks:
        at, past = SuiteReport("probe", 5, M), SuiteReport("probe", 5, M)
        check(at, 1.0)
        check(past, 1.0 + 1e-12)
        assert (at.cases, at.max_violation, at.passed) == (1, 1.0, True)
        assert past.max_violation > 1.0 and not past.passed
        payload = json.loads(at.to_json())
        assert set(payload) == REPORT_KEYS and payload["tolerance"] == 1.0

    def probe(col, rng, grid):
        col.add("draws", "0", 0.0, 1.0, draws=rng.uniform(size=3).tolist(), grid=grid)

    monkeypatch.setitem(SUITES, "probe", probe)
    report = run_suite("probe", seed=5, grid=M)
    assert (report.suite, report.seed, report.grid, report.cases) == ("probe", 5, M, 1)
    assert report.records[0]["draws"] == np.random.default_rng(5).uniform(size=3).tolist()
    assert report.records[0]["grid"] == M


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes(name):
    # suites are calibrated for the default 2048 grid (spectral headroom for
    # the sheared spectra in the equivariance checks)
    report = run_suite(name, seed=1, grid=2048)
    assert report.passed, "%s max violation %.3g" % (name, report.max_violation)


def test_random_band_limited_is_the_trig_sum_of_its_draws():
    theta = grid_angles(M)
    h = random_band_limited(np.random.default_rng(4), M, max_harmonic=24, mean=0.7)
    rng = np.random.default_rng(4)
    expect = np.full(M, 0.7)
    for n in range(2, 25, 2):
        an, bn = rng.normal(size=2) / n
        expect += an * np.cos(n * theta) + bn * np.sin(n * theta)
    assert np.abs(h.samples - expect).max() < 1e-13
    with pytest.raises(ValueError):
        random_band_limited(np.random.default_rng(4), 64, max_harmonic=32)


@pytest.mark.parametrize("seed", [1733, 1804, 1849])
def test_gram_rank_passes_where_a_determinant_floor_failed(seed):
    # n = 6 Gram matrices whose row-normalized determinant fell below 1e-10
    # (6.85e-11 at seed 1804) still have signature (1, 6) far above rounding
    report = run_suite("gram-rank", seed=seed, grid=2048)
    assert report.passed and {r["n"] for r in report.records} == {2, 3, 4, 5, 6}


def test_gram_signature_refuses_a_repeated_ellipse_and_the_l2_product():
    rng = np.random.default_rng(5)
    fns = [from_ellipse(random_ellipse(rng), 256) for _ in range(4)]

    def check(gram):
        report = SuiteReport("gram-rank", 5, 256)
        _add_gram_signature(report, "", np.array([[gram(a, b) for b in fns] for a in fns]))
        return report.passed

    assert check(form_A)
    fns[3] = fns[0]
    assert not check(form_A)
    fns[3] = from_ellipse(random_ellipse(rng), 256)
    assert check(form_A)
    assert not check(lambda a, b: float(np.mean(a.samples * b.samples)))  # positive definite


@pytest.mark.parametrize("grid", [256, 512])
def test_equivariance_passes_on_coarse_grids(grid):
    # pairs moved by one element pair through their bases, so the sheared
    # raw images that alias on these grids are never read by form-invariance
    assert run_suite("equivariance", seed=1, grid=grid).passed
