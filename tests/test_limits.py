"""Boundary directions, the visual metric, and dimension estimation."""

import math

import numpy as np
import pytest

from hypkonvex.limits import (
    BoundaryDir,
    boundary_approach,
    class_angle,
    covering_number,
    empirical_dim_estimate,
    greedy_cover_count,
    hausdorff_dim_estimate,
    sample_directions,
    visual_dist,
    visual_dist_generic,
)
from hypkonvex.lorentz import form_A, pi0
from hypkonvex.shapes import Segment
from hypkonvex.supportfn import from_segment, grid_angles

from visual_oracle import visual_dist_isotropic

M = 512


def test_boundary_dir_validation():
    with pytest.raises(ValueError):
        BoundaryDir(math.pi)
    with pytest.raises(ValueError):
        BoundaryDir(-0.1)


def test_boundary_rep_examples():
    # the normalized isotropic representative of a direction class: a
    # segment of length pi along it, with pi0 = 1 and form value 0
    v = from_segment(Segment(np.array([0.5 * math.pi, 0.0])), M)
    expect = 0.5 * math.pi * np.abs(np.cos(grid_angles(M)))
    assert np.abs(v.samples - expect).max() < 1e-14
    assert abs(form_A(v)) < 1e-10
    assert pi0(v) == pytest.approx(1.0, rel=1e-15)
    # the segment [-v, v] has length pi
    assert np.hypot(*v.shape_tag.generators[0]) == pytest.approx(math.pi, rel=1e-15)


def test_visual_dist_examples():
    d = BoundaryDir(0.7)
    assert visual_dist(d, d) == 0.0
    assert visual_dist(BoundaryDir(0.0), BoundaryDir(math.pi / 2)) == pytest.approx(
        0.5 * math.sqrt(math.pi), abs=1e-12
    )


def test_visual_dist_agrees_with_isotropic_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d1, d2 = (BoundaryDir(float(t)) for t in rng.uniform(0.0, math.pi, 2))
        assert abs(visual_dist(d1, d2) - visual_dist_isotropic(d1, d2)) < 1e-9


def test_visual_dist_rotation_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t1, t2, phi = rng.uniform(0.0, math.pi, 3)
        a = visual_dist(BoundaryDir(float(t1)), BoundaryDir(float(t2)))
        b = visual_dist(
            BoundaryDir(float((t1 + phi) % math.pi)), BoundaryDir(float((t2 + phi) % math.pi))
        )
        assert a == pytest.approx(b, abs=4e-15)  # exact up to angle-reduction ulps


def test_visual_dist_is_a_metric():
    rng = np.random.default_rng(2)
    ts = rng.uniform(0.0, math.pi, (10_000, 3))
    for t1, t2, t3 in ts:
        d12 = visual_dist(t1, t2)
        d23 = visual_dist(t2, t3)
        d13 = visual_dist(t1, t3)
        assert d12 == visual_dist(t2, t1)
        assert d12 + d23 - d13 >= -1e-12


def test_gromov_estimator_identical_sequences():
    seq = [boundary_approach(BoundaryDir(0.3), r, M) for r in (6.0, 8.0, 10.0)]
    assert visual_dist_generic(seq, seq) == 0.0


def test_gromov_estimator_requires_escape():
    seq = [boundary_approach(BoundaryDir(0.3), r, M) for r in (8.0, 6.0)]
    other = [boundary_approach(BoundaryDir(1.0), r, M) for r in (8.0, 6.0)]
    with pytest.raises(ValueError):
        visual_dist_generic(seq, other)


def test_gromov_estimator_ratio_agreement():
    dirs = [BoundaryDir(0.25), BoundaryDir(1.2), BoundaryDir(2.3)]
    radii = [10.0, 12.0, 15.0]
    pairs = [(0, 1), (0, 2), (1, 2)]
    estimates = {}
    for i, j in pairs:
        p = [boundary_approach(dirs[i], r, M) for r in radii]
        q = [boundary_approach(dirs[j], r, M) for r in radii]
        estimates[(i, j)] = visual_dist_generic(p, q)
    for i, j in pairs:
        for k, l in pairs:
            lhs = estimates[(i, j)] / estimates[(k, l)]
            rhs = visual_dist(dirs[i], dirs[j]) / visual_dist(dirs[k], dirs[l])
            assert abs(lhs / rhs - 1.0) < 0.02


def test_gromov_estimator_stabilizes():
    d1, d2 = BoundaryDir(0.4), BoundaryDir(1.9)
    vals = []
    for rmax in (10.0, 12.0, 15.0):
        radii = [rmax - 4.0, rmax - 2.0, rmax]
        p = [boundary_approach(d1, r, M) for r in radii]
        q = [boundary_approach(d2, r, M) for r in radii]
        vals.append(visual_dist_generic(p, q))
    assert abs(vals[1] / vals[0] - 1.0) < 0.01
    assert abs(vals[2] / vals[1] - 1.0) < 0.01


def test_covering_number_examples():
    assert covering_number(0.5 * math.sqrt(math.pi)) == 1
    assert covering_number(1.0) == 1
    # N(eps) * eps^2 -> pi^2/8
    vals = [covering_number(2.0**-j) * 4.0**-j for j in range(8, 14)]
    assert vals[-1] == pytest.approx(math.pi**2 / 8.0, rel=1e-3)
    # dyadic log-differences approach -2
    for j in range(6, 13):
        step = math.log2(covering_number(2.0**-j)) - math.log2(covering_number(2.0 ** -(j + 1)))
        assert abs(step + 2.0) < 0.01
    with pytest.raises(ValueError):
        covering_number(0.0)


def test_dim_estimate_windows():
    slope, resid = hausdorff_dim_estimate(4, 12)
    assert 1.98 <= slope <= 2.02
    assert resid < 0.05
    control, _ = hausdorff_dim_estimate(4, 12, metric="round")
    assert 0.99 <= control <= 1.01
    for lam in (0.25, 2.0, 7.0):
        s, _ = hausdorff_dim_estimate(4, 12, metric="visual", lam=lam)
        assert abs(s - slope) < 0.02
    with pytest.raises(ValueError):
        hausdorff_dim_estimate(5, 5)


def test_empirical_cover_matches_analytic_at_coarse_scale():
    pts = sample_directions(100_000)
    for j in (4, 5):
        w = math.asin(4.0 * (2.0**-j) ** 2 / math.pi)
        count = greedy_cover_count(pts, w)
        assert abs(count - covering_number(2.0**-j)) <= 0.02 * covering_number(2.0**-j) + 1


def test_empirical_dim_estimate():
    slope, js, counts = empirical_dim_estimate(4, 12, 100_000)
    analytic, _ = hausdorff_dim_estimate(4, 12)
    assert abs(slope - analytic) < 0.1
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_class_angle_folding():
    assert class_angle(BoundaryDir(0.1), BoundaryDir(3.0)) == pytest.approx(
        math.pi - 2.9, rel=1e-12
    )
