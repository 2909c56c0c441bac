"""Grid functions: constructors, Fourier machinery, convexity, boundaries."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypkonvex.mobius import rho_act
from hypkonvex.shapes import Ellipse, Polygon, Segment, Sum, minkowski_sum, shoelace_area
from hypkonvex.lorentz import form_A, pi0
from hypkonvex.supportfn import (
    EvenFn,
    GridMismatchError,
    NotSupportFunctionError,
    SpectralTailWarning,
    boundary_curve,
    chord_convexity_defect,
    combine,
    constant,
    eval_at,
    eval_deriv,
    fourier,
    from_ellipse,
    from_polygon,
    from_samples,
    from_segment,
    grid_angles,
    is_support_function,
    scaled,
    signed_diff,
    support_split,
    synthesize,
    unit_disc,
    _interp,
)
from hypkonvex.verify import random_band_limited, random_mobius, random_polygon

M = 512
THETA = grid_angles(M)
DIAG_2_HALF = Ellipse(np.diag([2.0, 0.5]))
SQUARE = Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))

# (1/2pi) int |2 cos|, |0.5 sin| quadrature of the diag(2, 1/2) support, frozen
# from scipy.quad at 1e-14 tolerance.
A0_DIAG_2_HALF = 1.3652982294433615


def test_evenfn_validation():
    with pytest.raises(ValueError):
        EvenFn(np.cos(THETA))  # 2pi-periodic only, not pi-periodic
    with pytest.raises(ValueError):
        EvenFn(np.full(M, np.nan))
    with pytest.raises(ValueError):
        from_samples(np.ones(102))  # not divisible by 4
    h = EvenFn(np.cos(2 * THETA))
    assert not h.samples.flags.writeable


def test_from_ellipse_identity_is_disc():
    h = from_ellipse(Ellipse(np.eye(2)), M)
    assert np.abs(h.samples - 1.0).max() < 1e-15  # hypot is exact to one ulp


def test_from_ellipse_axis_values():
    h = from_ellipse(DIAG_2_HALF, M)
    assert eval_at(h, 0.0) == pytest.approx(2.0, abs=0.0)
    assert eval_at(h, math.pi / 2) == pytest.approx(0.5, abs=1e-15)


def test_from_ellipse_area_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a1, a2, s = rng.uniform(0, 2 * np.pi, 2).tolist() + [rng.uniform(0, 2.5)]
        r = lambda a: np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        e = Ellipse(r(a1) @ np.diag([np.exp(s / 2), np.exp(-s / 2)]) @ r(a2))
        h = from_ellipse(e, 2048)
        assert abs(form_A(h) - 1.0) < 1e-12
        assert abs(form_A(h, method="spectral") - 1.0) < 1e-12


def test_from_segment_examples():
    h = from_segment(Segment(np.array([1.0, 0.0])), M)
    assert np.abs(h.samples - np.abs(np.cos(THETA))).max() < 1e-15
    assert abs(form_A(h)) < 1e-10
    assert abs(pi0(h) - 2.0 / math.pi) < 1e-10
    with pytest.raises(ValueError):
        from_segment(Segment(np.zeros(2)), M)


def test_from_polygon_square():
    h = from_polygon(SQUARE, 4096)
    expect = np.abs(np.cos(grid_angles(4096))) + np.abs(np.sin(grid_angles(4096)))
    assert np.abs(h.samples - expect).max() < 1e-14
    # spectral area converges at first order; exact tag value is exact
    assert abs(math.pi * form_A(h, method="spectral") - 4.0) < 1e-2 * 4.0
    assert math.pi * form_A(h) == pytest.approx(4.0, abs=0.0)
    assert abs(pi0(h) - 4.0 / math.pi) < 1e-12
    assert abs(pi0(h, method="spectral") - 4.0 / math.pi) < 1e-6


def test_combine_identity_and_sum_of_segments():
    h = from_ellipse(DIAG_2_HALF, M)
    same = combine(1.0, h, 0.0, unit_disc(M))
    assert np.array_equal(same.samples, h.samples)

    s1 = from_segment(Segment(np.array([1.0, 0.0])), M)
    s2 = from_segment(Segment(np.array([0.0, 1.0])), M)
    sq = combine(1.0, s1, 1.0, s2)
    direct = from_polygon(SQUARE, M)
    assert isinstance(sq.shape_tag, Polygon)
    assert np.abs(sq.samples - direct.samples).max() < 1e-14


def test_combine_disc_bilinearity():
    d = unit_disc(M)
    total = combine(1.0, d, 1.0, d)
    assert form_A(total, method="spectral") == pytest.approx(4.0, abs=1e-12)
    assert form_A(total) == pytest.approx(4.0, abs=1e-12)


def test_combine_validation():
    with pytest.raises(GridMismatchError):
        combine(1.0, unit_disc(M), 1.0, unit_disc(2 * M))
    with pytest.raises(ValueError):
        combine(-1.0, unit_disc(M), 1.0, unit_disc(M))


def test_signed_diff():
    h = from_ellipse(DIAG_2_HALF, M)
    z = signed_diff(h, h)
    assert np.abs(z.samples).max() == 0.0
    assert abs(form_A(signed_diff(constant(1.0, M), constant(1.0, M)))) == 0.0


def test_cos2theta_needs_constant_3():
    # h = cos(2t) + c is a support function iff h'' + h = -3 cos(2t) + c >= 0
    for c, ok in ((2.9, False), (3.0, True), (3.2, True)):
        h = EvenFn(np.cos(2 * THETA) + c)
        flag, _ = is_support_function(h)
        assert flag == ok


def test_eval_at_constant_and_trig_poly():
    assert eval_at(constant(1.0, M), 1.2345) == pytest.approx(1.0, abs=0.0)
    h = EvenFn(0.4 + 0.3 * np.cos(2 * grid_angles(16)) + 0.1 * np.sin(4 * grid_angles(16)))
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 2 * np.pi, 25):
        expect = 0.4 + 0.3 * math.cos(2 * t) + 0.1 * math.sin(4 * t)
        assert abs(eval_at(h, float(t)) - expect) < 1e-13


def test_eval_at_ellipse_closed_form():
    h = from_ellipse(DIAG_2_HALF, M)
    assert eval_at(h, math.pi / 4) == pytest.approx(math.sqrt(17.0) / (2.0 * math.sqrt(2.0)), rel=1e-15)


def test_eval_at_matches_grid_exactly_for_tags():
    for h in (from_ellipse(DIAG_2_HALF, M), from_segment(Segment(np.array([0.3, 0.7])), M),
              from_polygon(SQUARE, M)):
        assert np.array_equal(eval_at(h, THETA), h.samples)


def test_fourier_examples_and_roundtrip():
    t = fourier(constant(1.0, M))
    assert t.a0 == 1.0
    assert np.abs(t.a[1:]).max() == 0.0 and np.abs(t.b).max() == 0.0

    t = fourier(EvenFn(np.cos(2 * THETA)))
    assert t.a[2] == pytest.approx(1.0, abs=1e-14)
    mask = np.ones(M // 2 + 1, bool)
    mask[2] = False
    assert np.abs(t.a[mask]).max() < 1e-14 and np.abs(t.b).max() < 1e-14

    h = from_ellipse(DIAG_2_HALF, M)
    assert fourier(h).a0 == pytest.approx(A0_DIAG_2_HALF, abs=1e-12)

    rng = np.random.default_rng(5)
    raw = EvenFn(1.0 + 0.1 * np.cos(2 * THETA) + rng.normal(0, 0.02) * np.cos(8 * THETA))
    back = synthesize(fourier(raw), M)
    assert np.abs(back.samples - raw.samples).max() < 1e-12 * (1 + np.abs(raw.samples).max())


def test_is_support_function_examples():
    flag, mn = is_support_function(constant(1.0, M))
    assert flag and mn == pytest.approx(1.0, abs=1e-12)

    flag, mn = is_support_function(EvenFn(np.cos(2 * THETA)))
    assert not flag and mn == pytest.approx(-3.0, abs=1e-10)

    flag, _ = is_support_function(from_ellipse(DIAG_2_HALF, M))
    assert flag


def test_chord_defect_is_kink_proof():
    assert chord_convexity_defect(from_polygon(SQUARE, 2048)) > -1e-8
    assert chord_convexity_defect(EvenFn(np.cos(2 * THETA) + 1.0)) < -1.0


def test_support_split():
    c, s1, _ = support_split(from_ellipse(DIAG_2_HALF, M))
    assert c == 0.0
    assert np.array_equal(s1.samples, from_ellipse(DIAG_2_HALF, M).samples)

    c, s1, s2 = support_split(EvenFn(np.cos(2 * THETA)))
    assert c == pytest.approx(3.0, abs=1e-10)
    assert is_support_function(s1)[0] and is_support_function(s2)[0]
    assert np.abs((s1.samples - s2.samples) - np.cos(2 * THETA)).max() < 1e-12

    rng = np.random.default_rng(9)
    for _ in range(100):
        vals = np.zeros(M)
        for n in range(0, 12, 2):
            an, bn = rng.normal(size=2)
            vals += an * np.cos(n * THETA) + bn * np.sin(n * THETA)
        _, s1, _ = support_split(EvenFn(vals))
        assert is_support_function(s1)[0]


def test_support_split_tail_warning():
    spike = np.zeros(M)
    spike += np.cos((M // 2 - 2) * THETA)
    with pytest.warns(SpectralTailWarning):
        support_split(EvenFn(1.0 + 0.01 * spike))
    with pytest.raises(NotSupportFunctionError):
        support_split(EvenFn(1.0 + 0.01 * spike), strict=True)


def test_boundary_curve_disc_and_ellipse():
    pts = boundary_curve(unit_disc(M), 256)
    assert np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0).max() < 1e-14

    pts = boundary_curve(from_ellipse(DIAG_2_HALF, M), 256)
    resid = (pts[:, 0] / 2.0) ** 2 + (2.0 * pts[:, 1]) ** 2 - 1.0
    assert np.abs(resid).max() < 1e-10

    # untagged spectral route should land on the same ellipse
    pts2 = boundary_curve(EvenFn(from_ellipse(DIAG_2_HALF, 2048).samples), 256)
    resid2 = (pts2[:, 0] / 2.0) ** 2 + (2.0 * pts2[:, 1]) ** 2 - 1.0
    assert np.abs(resid2).max() < 1e-10


def test_boundary_curve_shoelace_matches_form():
    # inscribed-polyline shoelace converges at O(n^-2) with a curvature
    # constant ~ (2 pi/n)^2 R^2 pi/6, so a sub-unit body meets 1e-6 at 4096
    vals = 0.8 + 0.05 * np.cos(2 * grid_angles(2048)) + 0.02 * np.sin(4 * grid_angles(2048))
    h = EvenFn(vals)
    target = math.pi * form_A(h)
    assert abs(shoelace_area(boundary_curve(h, 4096)) - target) < 1e-6
    e1 = abs(shoelace_area(boundary_curve(h, 4096)) - target)
    e2 = abs(shoelace_area(boundary_curve(h, 8192)) - target)
    assert e1 / e2 > 3.5  # second order


def test_boundary_curve_rejects_nonconvex():
    with pytest.raises(NotSupportFunctionError):
        boundary_curve(EvenFn(np.cos(2 * THETA) + 1.0), 256)


def polygon_mixed_area_oracle(p, q):
    """Mixed area of two polygons by polarizing shoelace areas.

    Uses the exact Minkowski sum (edge merge), fully independent of both the
    spectral form and the surface-measure formula.
    """
    if not isinstance(p, Polygon) or not isinstance(q, Polygon):
        raise TypeError("the oracle takes two Polygon instances")
    total = minkowski_sum([(1.0, p), (1.0, q)])
    return 0.5 * (shoelace_area(total.vertices) - p.area() - q.area())


def test_polygon_oracle_examples():
    assert polygon_mixed_area_oracle(SQUARE, SQUARE) == pytest.approx(4.0, abs=1e-13)
    # homothetic polygons: a(K, lam K)^2 = a(K) a(lam K) exactly
    lam = 1.7
    scaled_sq = Polygon(lam * SQUARE.vertices)
    lhs = polygon_mixed_area_oracle(SQUARE, scaled_sq) ** 2
    rhs = SQUARE.area() * scaled_sq.area()
    assert lhs == pytest.approx(rhs, rel=1e-13)
    # oracle against the spectral form at M=4096
    h1 = from_polygon(SQUARE, 4096)
    rect = Polygon(np.array([[2.0, 0.2], [-2.0, 0.2], [-2.0, -0.2], [2.0, -0.2]]))
    h2 = from_polygon(rect, 4096)
    spectral = math.pi * form_A(h1, h2, method="spectral")
    assert abs(spectral - polygon_mixed_area_oracle(SQUARE, rect)) < 1e-2 * abs(spectral)


def test_segment_plus_segment_is_parallelogram_invariant():
    rng = np.random.default_rng(4)
    for _ in range(10):
        v, w = rng.normal(size=2), rng.normal(size=2)
        if abs(v[0] * w[1] - v[1] * w[0]) < 1e-2:
            continue
        sv = from_segment(Segment(v), M)
        sw = from_segment(Segment(w), M)
        para = Polygon(np.array([v + w, -v + w, -v - w, v - w])) if _ccw(v + w, -v + w, -v - w) \
            else Polygon(np.array([v + w, v - w, -v - w, -v + w]))
        assert np.abs(combine(1.0, sv, 1.0, sw).samples - from_polygon(para, M).samples).max() < 1e-12


def _ccw(p0, p1, p2):
    return (p1[0] - p0[0]) * (p2[1] - p1[1]) - (p1[1] - p0[1]) * (p2[0] - p1[0]) > 0


def test_evenness_preserved_by_ops():
    h1 = from_ellipse(DIAG_2_HALF, M)
    h2 = from_polygon(SQUARE, M)
    for out in (combine(0.3, h1, 0.7, h2), signed_diff(h1, h2)):
        s = out.samples
        assert np.abs(s - np.roll(s, M // 2)).max() < 1e-12 * (1 + np.abs(s).max())


def test_eval_deriv_finite_differences():
    fns = (
        from_ellipse(DIAG_2_HALF, M),
        from_segment(Segment(np.array([0.8, -0.3])), M),
        from_polygon(SQUARE, M),
        EvenFn(1.5 + 0.2 * np.cos(2 * THETA) + 0.1 * np.sin(4 * THETA)),
    )
    rng = np.random.default_rng(17)
    eps = 1e-6
    for h in fns:
        for t in rng.uniform(0.0, 2.0 * np.pi, 12):
            t = float(t)
            fd = (eval_at(h, t + eps) - eval_at(h, t - eps)) / (2.0 * eps)
            # kinked supports: skip angles too close to a corner of the cone
            if h.shape_tag is not None and abs(fd - eval_deriv(h, t)) > 1e-6:
                lo, hi = eval_deriv(h, t - 10 * eps), eval_deriv(h, t + 10 * eps)
                assert min(lo, hi) - 1e-6 <= fd <= max(lo, hi) + 1e-6
            else:
                assert abs(eval_deriv(h, t) - fd) < 1e-6 * (1.0 + abs(fd))


def test_eval_at_array_matches_scalars():
    h = from_ellipse(DIAG_2_HALF, M)
    g = EvenFn(1.2 + 0.3 * np.cos(2 * THETA))
    angles = np.array([0.1, 1.7, 4.4])
    for f in (h, g):
        batch = eval_at(f, angles)
        assert batch.shape == (3,)
        for a, v in zip(angles, batch):
            assert eval_at(f, float(a)) == pytest.approx(v, abs=0.0)


def test_combine_segment_with_polygon_tags():
    sq = from_polygon(SQUARE, M)
    seg = from_segment(Segment(np.array([0.0, 1.0])), M)
    out = combine(1.0, sq, 2.0, seg)
    assert isinstance(out.shape_tag, Polygon)
    expect = sq.samples + 2.0 * seg.samples
    assert np.abs(out.samples - expect).max() < 1e-13


def test_scaled_and_combine_keep_tags_of_every_kind():
    e = from_ellipse(DIAG_2_HALF, M)
    sq = from_polygon(SQUARE, M)
    assert scaled(sq, 2.0).shape_tag.terms == ((2.0, SQUARE),)
    big = scaled(e, 2.0)
    assert isinstance(big.shape_tag, Sum)
    assert form_A(big) == pytest.approx(4.0, rel=1e-14)
    mix = combine(0.3, e, 0.7, sq)
    assert isinstance(mix.shape_tag, Sum)
    assert np.abs(mix.samples - mix.shape_tag.support(THETA)).max() < 1e-14
    bilinear = 0.09 * form_A(e) + 0.42 * form_A(e, sq) + 0.49 * form_A(sq)
    assert form_A(mix) == pytest.approx(bilinear, rel=1e-14)
    assert pi0(mix) == pytest.approx(0.3 * pi0(e) + 0.7 * pi0(sq), rel=1e-14)
    assert signed_diff(mix, e).shape_tag is None
    assert combine(1.0, mix, 1.0, from_samples(sq.samples)).shape_tag is None


def _dense_interp(coeffs, M, theta):
    """The direct O(points * n_max) sum of the interpolant with rfft/M
    coefficients, with the same 1e-15 coefficient cut: the NUFFT's oracle."""
    theta = np.asarray(theta, dtype=float)
    flat = np.atleast_1d(theta).ravel()
    half = M // 2
    mags = np.abs(coeffs)
    out = np.full(flat.shape, coeffs[0].real)
    if mags.max() > 0.0:
        nmax = int(np.nonzero(mags > 1e-15 * mags.max())[0][-1])
        n = np.arange(1, min(nmax, half - 1) + 1)
        out += 2.0 * (np.exp(1j * np.outer(flat, n)) @ coeffs[n]).real
        if nmax == half:
            out += coeffs[half].real * np.cos(half * flat)
    return out.reshape(theta.shape) if theta.ndim else float(out[0])


def _offgrid_input(kind, M, seed):
    rng = np.random.default_rng(seed)
    if kind == "band-limited":
        return random_band_limited(rng, M, min(16, M // 2 - 1), mean=1.5)._coeffs
    if kind == "polygon-samples":
        return from_samples(from_polygon(random_polygon(rng), M).samples)._coeffs
    if kind == "sheared":
        h = random_band_limited(rng, M, min(16, M // 2 - 1), mean=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpectralTailWarning)
            return rho_act(random_mobius(rng), h)._coeffs
    return np.fft.rfft(rng.normal(size=M)) / M  # raw: odd harmonics and a full Nyquist mode


_ANGLE = st.one_of(
    st.floats(-20.0, 20.0),
    st.sampled_from([0.0, -1e-300, -2.0 * math.pi, 2.0 * math.pi, math.nextafter(2.0 * math.pi, 0.0), 1e3]),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([8, 12, 16, 64, 256, 2048]),
    st.sampled_from(["band-limited", "polygon-samples", "sheared", "raw"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.one_of(_ANGLE, _ANGLE.map(np.array), st.lists(_ANGLE, min_size=1, max_size=40).map(np.array)),
)
def test_interp_matches_dense_sum(grid, kind, deriv, seed, theta):
    c = _offgrid_input(kind, grid, seed)
    if deriv:
        c = 1j * np.arange(grid // 2 + 1) * c
        c[-1] = 0.0
    got, want = _interp(c, grid, theta), _dense_interp(c, grid, theta)
    assert np.shape(got) == np.shape(want) and type(got) is type(want)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(c).sum()


def test_interp_refuses_nonfinite_angles():
    bodies = [
        EvenFn(1.2 + 0.3 * np.cos(2 * THETA)),
        unit_disc(M),
        from_polygon(SQUARE, M),
        from_segment(Segment(np.array([1.0, 0.5])), M),
        combine(0.5, unit_disc(M), 0.5, from_polygon(SQUARE, M)),
    ]
    assert isinstance(bodies[-1].shape_tag, Sum)
    for h in bodies:
        for bad in (math.nan, np.array([0.5, math.inf])):
            for evaluate in (eval_at, eval_deriv):
                with pytest.raises(ValueError):
                    evaluate(h, bad)


def test_eval_deriv_of_band_limited_body_off_grid():
    # noise lifted by the factor n keeps every harmonic above the cut; the
    # derivative must stay accurate (and cheap) all the same
    grid = 8192
    rng = np.random.default_rng(21)
    n = np.arange(2, 17, 2)
    a, b = rng.normal(size=(2, n.size)) / n
    t = grid_angles(grid)
    h = EvenFn(1.5 + np.cos(np.outer(t, n)) @ a + np.sin(np.outer(t, n)) @ b)
    theta = rng.uniform(0.0, 2.0 * np.pi, grid)
    expect = n * np.cos(np.outer(theta, n)) @ b - n * np.sin(np.outer(theta, n)) @ a
    assert np.abs(eval_deriv(h, theta) - expect).max() < 1e-10
