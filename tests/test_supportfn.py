"""Grid functions: constructors, Fourier machinery, convexity, boundaries."""

import importlib
import math
import pkgutil
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hypkonvex
from hypkonvex.mobius import Mobius, rho_act
from hypkonvex.shapes import Ellipse, Polygon, Segment, Sum, _terms, minkowski_sum
from hypkonvex.lorentz import _cosh_between, form_A, form_A_spectral, hyper_dist, normalize, pi0
from hypkonvex.shapedoc import to_even_fn
from hypkonvex.supportfn import (
    EVEN_TOL,
    EvenFn,
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
    unit_disc,
    Raw,
    _grid_directions,
    _interp,
    _on_grid,
    _resample,
)
from hypkonvex.verify import random_band_limited, random_ellipse, random_mobius, random_polygon, random_support_fn

from shoelace import shoelace_area

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
        assert abs(form_A_spectral(h) - 1.0) < 1e-12


def test_from_segment_examples():
    h = from_segment(Segment(np.array([1.0, 0.0])), M)
    assert np.abs(h.samples - np.abs(np.cos(THETA))).max() < 1e-15
    assert abs(form_A(h)) < 1e-10
    assert abs(pi0(h) - 2.0 / math.pi) < 1e-10
    with pytest.raises(ValueError):
        from_segment(Segment(np.zeros(2)), M)
    with pytest.raises(TypeError):  # a square is a Polygon, but not a segment
        from_segment(Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])), M)


def test_from_polygon_square():
    h = from_polygon(SQUARE, 4096)
    expect = np.abs(np.cos(grid_angles(4096))) + np.abs(np.sin(grid_angles(4096)))
    assert np.abs(h.samples - expect).max() < 1e-14
    # spectral area converges at first order; exact tag value is exact
    assert abs(math.pi * form_A_spectral(h) - 4.0) < 1e-2 * 4.0
    assert math.pi * form_A(h) == pytest.approx(4.0, abs=0.0)
    assert abs(pi0(h) - 4.0 / math.pi) < 1e-12
    assert abs(h.samples.mean() - 4.0 / math.pi) < 1e-6


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
    assert form_A_spectral(total) == pytest.approx(4.0, abs=1e-12)
    assert form_A(total) == pytest.approx(4.0, abs=1e-12)


def test_combine_validation():
    with pytest.raises(ValueError):
        combine(-1.0, unit_disc(M), 1.0, unit_disc(M))


_TAGGED = unit_disc(M), from_ellipse(DIAG_2_HALF, 2 * M)
_RAW = constant(1.0, M), EvenFn(from_ellipse(DIAG_2_HALF, 2 * M).samples)


@pytest.mark.parametrize(
    "pair, call",
    [
        (_TAGGED, lambda a, b: combine(1.0, a, 1.0, b)),
        (_RAW, signed_diff),
        (_TAGGED, form_A),
        (_RAW, form_A),
        (_TAGGED, form_A_spectral),
        (_TAGGED, _cosh_between),
        (_RAW, _cosh_between),
        (_TAGGED, lambda a, b: hyper_dist(normalize(a), normalize(b))),
        (_RAW, lambda a, b: hyper_dist(normalize(a), normalize(b))),
        (_TAGGED, lambda a, b: hyper_dist(normalize(a), normalize(b), method="spectral")),
    ],
    ids=[
        "combine",
        "signed_diff",
        "form_A-tagged",
        "form_A-raw",
        "form_A_spectral",
        "cosh_between-tagged",
        "cosh_between-raw",
        "hyper_dist-exact",
        "hyper_dist-spectral",
        "hyper_dist-method-spectral",
    ],
)
def test_operands_on_different_grids_are_refused(pair, call):
    """Operands on grids M and 2M are not refused: they meet on 2M.  Bodies
    read no grid, so they give the bits of the same bodies on one grid; raw
    parts give their interpolants' values there to rounding."""
    got = call(*pair)
    want = call(*(_on_grid(h, 2 * M) for h in pair))
    if isinstance(got, EvenFn):
        assert got.grid == want.grid == 2 * M
        got, want = got.samples, want.samples
    if pair is _TAGGED:
        assert np.array_equal(got, want)
    else:
        assert np.abs(np.subtract(got, want)).max() <= 1e-14 * np.abs(want).max()


def test_from_samples_cross_checks_the_length():
    with pytest.raises(ValueError, match="expected %d samples, got %d" % (2 * M, M)):
        from_samples(THETA, 2 * M)


_MIXED_GRIDS = [64, 96, 256, 1536, 2048]
_OPERAND_KINDS = ["ellipse", "polygon", "sum", "band-limited", "polygon-samples"]


def _operand(kind, grid, seed):
    rng = np.random.default_rng(seed)
    if kind == "ellipse":
        return from_ellipse(random_ellipse(rng), grid)
    if kind == "polygon":
        return from_polygon(random_polygon(rng), grid)
    if kind == "sum":
        return combine(0.5, from_ellipse(random_ellipse(rng), grid), 1.5, from_polygon(random_polygon(rng), grid))
    return _raw_body(kind, grid, rng)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(_OPERAND_KINDS),
    st.sampled_from(_MIXED_GRIDS),
    st.sampled_from(_OPERAND_KINDS),
    st.sampled_from(_MIXED_GRIDS),
    st.integers(0, 1 << 16),
)
def test_the_form_is_symmetric_and_bilinear_across_grids(kind1, grid1, kind2, grid2, seed):
    # A(h1 + h2) reads raw parts on the finer grid, A(h1) and A(h2) each on
    # its own: they agree only if the form is the interpolants' on every grid,
    # the Nyquist mode of kinked samples included.
    h1, h2 = _operand(kind1, grid1, seed), _operand(kind2, grid2, seed + 1)
    a11, a12, a22 = form_A(h1), form_A(h1, h2), form_A(h2)
    scale = abs(a11) + 2.0 * abs(a12) + abs(a22)
    assert abs(form_A(h2, h1) - a12) <= 1e-13 * scale
    assert abs(form_A(combine(1.0, h1, 1.0, h2)) - (a11 + 2.0 * a12 + a22)) <= 1e-13 * scale


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
    a, b = fourier(constant(1.0, M))
    assert a[0] == 1.0
    assert np.abs(a[1:]).max() == 0.0 and np.abs(b).max() == 0.0

    a, b = fourier(EvenFn(np.cos(2 * THETA)))
    assert a[2] == pytest.approx(1.0, abs=1e-14)
    mask = np.ones(M // 2 + 1, bool)
    mask[2] = False
    assert np.abs(a[mask]).max() < 1e-14 and np.abs(b).max() < 1e-14

    h = from_ellipse(DIAG_2_HALF, M)
    assert fourier(h)[0][0] == pytest.approx(A0_DIAG_2_HALF, abs=1e-12)

    # the trigonometric series with these coefficients, summed directly,
    # gives back the samples (the Nyquist term a[M/2] cos(M/2 t) has no sine)
    rng = np.random.default_rng(5)
    raw = EvenFn(1.0 + 0.1 * np.cos(2 * THETA) + rng.normal(0, 0.02) * np.cos(8 * THETA))
    a, b = fourier(raw)
    n = np.arange(M // 2 + 1)[:, None]
    back = a @ np.cos(n * THETA) + b @ np.sin(n * THETA)
    assert np.abs(back - raw.samples).max() < 1e-12 * (1 + np.abs(raw.samples).max())


def test_fourier_odd_harmonics_stay_within_the_periodicity_tolerance():
    # EvenFn accepts halves that differ by up to EVEN_TOL (1 + max|h|);
    # no odd harmonic can then exceed that bound
    rng = np.random.default_rng(6)
    base = 1.0 + 0.1 * np.cos(2 * THETA)
    top = 1.0 + np.abs(base).max()
    odd = 0.9 * EVEN_TOL * top * rng.uniform(-1.0, 1.0, M // 2)
    h = EvenFn(base + np.r_[0.5 * odd, -0.5 * odd])
    a, b = fourier(h)
    assert 0.0 < np.hypot(a[1::2], b[1::2]).max() <= EVEN_TOL * (1.0 + np.abs(h.samples).max())


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
    with warnings.catch_warnings():
        warnings.simplefilter("error", SpectralTailWarning)
        with pytest.raises(SpectralTailWarning):
            support_split(EvenFn(1.0 + 0.01 * spike))


@pytest.mark.parametrize("scale", [1.0, 1e160])
def test_tail_warnings_are_scale_free(scale):
    # unresolved noise: about a quarter of its energy lies in the top quarter
    # of the spectrum, at any scale, and no square of a coefficient overflows
    h = EvenFn(scale * (3.0 + np.tile(np.random.default_rng(4).normal(size=M // 2), 2)))
    for act in (support_split, lambda h: rho_act(Mobius.axial(0.5), h), lambda h: to_even_fn(h, M // 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralTailWarning):
                act(h)


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


CHORD_GRIDS = [2048, 8192, 32768, 65536]


@pytest.mark.parametrize("grid", CHORD_GRIDS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3), pick=st.integers(0, 2**31))
def test_chord_gate_passes_polygon_samples_and_catches_a_dip(grid, seed, scale, pick):
    # The chord defect divides its numerator by 2 - 2cos(2 pi/M) ~ M^-2, and
    # the gate's rounding floor grows alike: the exact samples of a polygon
    # pass at every grid, and a dip of 1e-9 max|h| on a flat stretch fails.
    s = from_polygon(Polygon(scale * random_polygon(np.random.default_rng(seed)).vertices), grid).samples
    boundary_curve(EvenFn(s), 64)
    top = float(np.abs(s).max())
    num = np.roll(s, 1) + np.roll(s, -1) - 2.0 * math.cos(2.0 * math.pi / grid) * s
    flat = np.abs(num) < 1e3 * np.finfo(float).eps * top
    # lowering s[j] lowers the numerator at j - 1 and j + 1: both must be flat there
    stretch = np.nonzero(np.roll(flat, 1) & np.roll(flat, -1))[0]
    j = int(stretch[pick % stretch.size]) % (grid // 2)
    dipped = s.copy()
    dipped[[j, j + grid // 2]] -= 1e-9 * top  # one value of the pi-periodic function
    with pytest.raises(NotSupportFunctionError):
        boundary_curve(EvenFn(dipped), 64)


@pytest.mark.parametrize("grid", CHORD_GRIDS)
def test_chord_gate_refuses_a_nonconvex_function_at_every_grid(grid):
    # h'' + h = 2.9 - 3 cos 2t dips to -0.1
    with pytest.raises(NotSupportFunctionError):
        boundary_curve(EvenFn(np.cos(2 * grid_angles(grid)) + 2.9), 64)


def polygon_mixed_area_oracle(p, q):
    """Mixed area of two polygons by polarizing shoelace areas.

    Uses the exact Minkowski sum (edge merge), fully independent of both the
    spectral form and the surface-measure formula.
    """
    if not isinstance(p, Polygon) or not isinstance(q, Polygon):
        raise TypeError("the oracle takes two Polygon instances")
    total = minkowski_sum([(1.0, p), (1.0, q)])
    return 0.5 * (shoelace_area(total.vertices) - p.area - q.area)


def test_polygon_oracle_examples():
    assert polygon_mixed_area_oracle(SQUARE, SQUARE) == pytest.approx(4.0, abs=1e-13)
    # homothetic polygons: a(K, lam K)^2 = a(K) a(lam K) exactly
    lam = 1.7
    scaled_sq = Polygon(lam * SQUARE.vertices)
    lhs = polygon_mixed_area_oracle(SQUARE, scaled_sq) ** 2
    rhs = SQUARE.area * scaled_sq.area
    assert lhs == pytest.approx(rhs, rel=1e-13)
    # oracle against the spectral form at M=4096
    h1 = from_polygon(SQUARE, 4096)
    rect = Polygon(np.array([[2.0, 0.2], [-2.0, 0.2], [-2.0, -0.2], [2.0, -0.2]]))
    h2 = from_polygon(rect, 4096)
    spectral = math.pi * form_A_spectral(h1, h2)
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
    coefficients, with the same 1e-15 coefficient cut: the oracle of _interp."""
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


def _raw_body(kind, M, rng):
    """An untagged function: band-limited, polygon samples, or the sheared
    image of a band-limited one."""
    if kind == "band-limited":
        return random_band_limited(rng, M, min(16, M // 2 - 1), mean=1.5)
    if kind == "polygon-samples":
        return from_samples(from_polygon(random_polygon(rng), M).samples)
    h = random_band_limited(rng, M, min(16, M // 2 - 1), mean=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTailWarning)
        return rho_act(random_mobius(rng), h)


def _offgrid_input(kind, M, seed):
    rng = np.random.default_rng(seed)
    if kind == "raw":
        return np.fft.rfft(rng.normal(size=M)) / M  # odd harmonics and a full Nyquist mode
    return _raw_body(kind, M, rng)._coeffs


_ANGLE = st.one_of(
    st.floats(-20.0, 20.0),
    st.sampled_from([0.0, -1e-300, -2.0 * math.pi, 2.0 * math.pi, math.nextafter(2.0 * math.pi, 0.0), 1e3]),
)


# Both sides of _interp's size rule, points * band <= 2^14: noise at grid 2048
# has band 1024, so 16 angles take the direct sum and 17 the NUFFT; one angle
# at band 16384 (grid 32768) takes the direct sum.  Angles far outside
# [0, 2 pi) are reduced alike on both sides; they have few significant bits,
# so that the oracle's phases n*theta carry no rounding (angles further out
# are checked against an mpmath reduction below).
@example(2048, "raw", False, 0, np.linspace(0.1, 6.2, 16))
@example(2048, "raw", False, 0, np.linspace(0.1, 6.2, 17))
@example(32768, "raw", False, 0, 1.234)
@example(2048, "raw", False, 1, np.array([-200.0, 150.5, 96.125, -57.0]))
@example(2048, "raw", False, 1, np.arange(-200.0, 200.0, 10.0) + 0.125)
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


def test_interp_reduces_far_angles_in_two_parts():
    # 40 angles up to 160 turns out, on grid-2048 noise (the NUFFT side),
    # against the dense sum at the angles reduced in 40 digits.  Reducing by
    # the rounded 2 pi shifts an angle k turns out by about k * 2.4e-16 and
    # alone costs up to 1.4e-12 sum |c_n| here.
    rng = np.random.default_rng(3)
    c = np.fft.rfft(rng.normal(size=2048)) / 2048
    theta = rng.uniform(-1000.0, 1000.0, 40)
    with mpmath.workdps(40):
        reduced = np.array([float(mpmath.mpf(t) % (2 * mpmath.pi)) for t in theta])
    assert np.abs(_interp(c, 2048, theta) - _dense_interp(c, 2048, reduced)).max() <= 1e-12 * np.abs(c).sum()


def test_interp_is_the_only_reader_of_a_raw_part_off_the_grid(monkeypatch):
    """With _interp replaced, in every module namespace that holds it (as
    bench/tracer.py wraps it), by the constant 1, every off-grid reader of raw
    samples t sees the disc: A(K, t) becomes pi0(K) = per(K)/(2 pi) for a
    polygon and for an ellipse, and rho(m) t the support of the ellipse m."""
    rng = np.random.default_rng(8)
    t = random_band_limited(rng, M, 16, mean=1.5)
    reads = []

    def one(coeffs, grid, theta):
        reads.append(coeffs is t._coeffs and grid == t.grid)
        return np.ones(np.shape(theta)) if np.ndim(theta) else 1.0

    for info in pkgutil.iter_modules(hypkonvex.__path__):
        mod = importlib.import_module("hypkonvex." + info.name)
        for attr, obj in list(vars(mod).items()):
            if obj is _interp:
                monkeypatch.setattr(mod, attr, one)
    for k in (from_polygon(random_polygon(rng), M), from_ellipse(random_ellipse(rng), M)):
        reads.clear()
        assert form_A(k, t) == pytest.approx(pi0(k), rel=1e-14)
        assert reads and all(reads)
    reads.clear()
    m = random_mobius(rng)
    moved = rho_act(m, t)
    assert np.abs(moved.samples - from_ellipse(m.matrix, M).samples).max() < 1e-14
    assert reads == [True]  # the image's samples, on first read


def _dense_on_grid(coeffs, M, N):
    """The direct sum of the interpolant with rfft/M coefficients at the N
    grid angles, with no coefficient cut: _resample's oracle.  Each phase
    n*j is reduced mod N in integers before the exponential; the float phase
    n*theta of _dense_interp carries n*theta*eps of rounding, about 5e-14 of
    sum |c_n| on noise at M = 2048, above the bound checked here."""
    half = M // 2
    c = np.array(coeffs, dtype=complex)
    c[half] = c[half].real  # the Nyquist mode is a cosine
    w = np.r_[1.0, np.full(half - 1, 2.0), 1.0]
    phase = np.exp(2j * np.pi * (np.outer(np.arange(N), np.arange(half + 1)) % N) / N)
    return (phase @ (w * c)).real


_RESAMPLE_GRIDS = [8, 12, 16, 64, 2048]


@pytest.mark.parametrize("grid", _RESAMPLE_GRIDS)
@pytest.mark.parametrize("target", _RESAMPLE_GRIDS)
@pytest.mark.parametrize("kind", ["band-limited", "polygon-samples", "raw"])
def test_resample_matches_dense_sum(grid, target, kind):
    # finer, coarser (folded, also onto a grid that does not divide) and equal
    for seed in range(3):
        c = _offgrid_input(kind, grid, seed)
        got = _resample(c, grid, target)
        assert got.shape == (target,)
        assert np.abs(got - _dense_on_grid(c, grid, target)).max() <= 1e-14 * np.abs(c).sum()


@pytest.mark.parametrize("grid, target", [(256, 2048), (2048, 2048), (2048, 512), (64, 12)])
@pytest.mark.parametrize("kind", ["band-limited", "polygon-samples"])
def test_boundary_and_regrid_of_raw_samples_are_the_dense_interpolant(grid, target, kind):
    rng = np.random.default_rng(grid + target)
    h = random_support_fn(rng, grid) if kind == "band-limited" else _raw_body(kind, grid, rng)
    c = h._coeffs
    d = 1j * np.arange(grid // 2 + 1) * c
    d[-1] = 0.0
    vals, dvals = _dense_on_grid(c, grid, target), _dense_on_grid(d, grid, target)
    t = grid_angles(target)
    want = np.stack([vals * np.cos(t) - dvals * np.sin(t), vals * np.sin(t) + dvals * np.cos(t)], axis=1)
    got = boundary_curve(h, target)
    assert np.abs(got - want).max() <= 1e-14 * (np.abs(c).sum() + np.abs(d).sum())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTailWarning)
        regrid = to_even_fn(h, target)
    assert regrid.grid == target and regrid.shape_tag is None
    assert np.abs(regrid.samples - vals).max() <= 1e-14 * np.abs(c).sum()


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


@pytest.mark.parametrize("grid", [8, 12, 16, 64, 256, 2048])
@pytest.mark.parametrize("kind", ["band-limited", "polygon-samples", "twice-sheared"])
def test_rho_act_of_raw_input_is_the_sheared_interpolant(grid, kind):
    # r t(angle(g^T u)) at every grid angle, from half of them, for the
    # unmoved base t of h and the element g that h's body moved by and then
    # m: the two halves of the result are the same floats
    rng = np.random.default_rng(grid)
    h = _raw_body("sheared" if kind == "twice-sheared" else kind, grid, rng)
    m = random_mobius(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTailWarning)
        if kind == "twice-sheared":
            h = rho_act(random_mobius(rng), h)
        got = rho_act(m, h).samples
    base, g = (h.body.base, m @ h.body.g) if h.body.g else (h.body, m)
    t = grid_angles(grid)
    w = g.matrix.T @ np.stack([np.cos(t), np.sin(t)])
    r = np.hypot(w[0], w[1])
    want = r * _dense_interp(base._coeffs, grid, np.arctan2(w[1], w[0]))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(base._coeffs).sum() * r)
    assert got[: grid // 2].tobytes() == got[grid // 2 :].tobytes()


@pytest.mark.parametrize("kind", ["raw", "body-plus-raw", "moved-raw"])
def test_rho_act_of_a_raw_function_computes_no_sample(kind):
    # the image keeps its base and element and computes its samples on first
    # read, while the base's unresolved spectrum still warns at rho_act time
    spike = EvenFn(2.0 + 0.5 * np.cos((M // 2 - 2) * THETA))
    h = combine(1.0, from_polygon(SQUARE, M), 1.0, spike) if kind == "body-plus-raw" else spike
    if kind == "moved-raw":
        with pytest.warns(SpectralTailWarning):
            h = rho_act(Mobius.rotation(0.3), h)
    with pytest.warns(SpectralTailWarning):
        moved = rho_act(Mobius.axial(0.5), h)
    assert "samples" not in vars(moved)
    assert all("samples" not in vars(term) for _, term in _terms(moved.body) + _terms(h.body) if term.g)
    (raw_term,) = [term for _, term in _terms(moved.body) if isinstance(term, Raw)]
    assert raw_term.g == (Mobius.axial(0.5) @ h.body.g if kind == "moved-raw" else Mobius.axial(0.5))


@pytest.mark.parametrize("grid", [64, 256, 2048])
def test_a_moved_raw_term_lifted_is_the_lifted_term_moved(grid):
    # lifting a moved term lifts its base and keeps its element, so both
    # orders sample one lifted base at the same directions
    rng = np.random.default_rng(grid)
    t, g = random_support_fn(rng, grid), random_mobius(rng)
    lifted, moved = _on_grid(rho_act(g, t), 2 * grid), rho_act(g, _on_grid(t, 2 * grid))
    assert lifted.body.g == g and lifted.body.base.grid == 2 * grid
    assert lifted.samples.tobytes() == moved.samples.tobytes()


def test_a_sum_holding_a_raw_term_answers_hsupport_term_by_term():
    rng = np.random.default_rng(35)
    p, t = random_polygon(rng), random_support_fn(rng, 64)
    h = combine(0.6, EvenFn(p, 64), 1.4, t)
    w = rng.normal(size=(2, 33))
    (c, k), (one, r) = h.body.terms  # the raw term is folded into one of coefficient 1
    assert (c, k, one) == (0.6, p, 1.0) and np.array_equal(r._coeffs, 1.4 * t._coeffs)
    assert h.body.hsupport(w).tobytes() == (0.6 * p.hsupport(w) + r.hsupport(w)).tobytes()
    r = np.hypot(w[0], w[1])
    assert np.abs(h.body.hsupport(w) - r * eval_at(h, np.arctan2(w[1], w[0]))).max() <= 1e-13 * r.max() * np.abs(h.samples).max()


def test_tagged_samples_are_the_support_at_the_grid_angles():
    rng = np.random.default_rng(17)
    for grid in (8, 64, 2048):
        ell = from_ellipse(random_ellipse(rng), grid)
        poly = from_polygon(random_polygon(rng), grid)
        seg = from_segment(Segment(rng.normal(size=2)), grid)
        bodies = [ell, poly, seg, combine(0.5, ell, 1.5, poly), combine(1.0, seg, 1.0, poly), scaled(seg, 2.5)]
        bodies.append(rho_act(random_mobius(rng), bodies[3]))
        assert {type(h.shape_tag) for h in bodies} == {Ellipse, Polygon, Sum}  # a segment is a Polygon
        for h in bodies:
            assert h.samples.tobytes() == h.shape_tag.support(grid_angles(grid)).tobytes()
        u = _grid_directions(grid)
        assert u is _grid_directions(grid) and not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.0


def test_interp_working_memory_is_linear_in_the_targets():
    # 2*_SPREAD passes over length-n arrays: no (targets x stencil) array, so
    # the traced peak stays a few arrays per target on a smooth and a kinked body
    grid = 65536
    rng = np.random.default_rng(29)
    theta = grid_angles(grid) + 0.37 * (2.0 * np.pi / grid)
    for h in (random_band_limited(rng, grid, 16, mean=1.5), from_samples(from_polygon(random_polygon(rng), grid).samples)):
        c = h._coeffs
        tracemalloc.start()
        try:
            _interp(c, grid, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * theta.size


def _body(kind, grid, rng):
    ell, poly = from_ellipse(random_ellipse(rng), grid), from_polygon(random_polygon(rng), grid)
    if kind == "sum":
        return combine(0.6, ell, 1.4, poly)
    return {"ellipse": ell, "polygon": poly, "segment": from_segment(Segment(rng.normal(size=2)), grid)}[kind]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["ellipse", "polygon", "segment", "sum"]),
    st.sampled_from(["band-limited", "polygon-samples"]),
    st.sampled_from([64, 256, 2048, 8192]),
    st.floats(0.05, 3.0),
    st.floats(0.05, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_every_operation_on_body_plus_raw_is_the_sum_over_the_parts(body_kind, raw_kind, grid, a, b, seed):
    # h = a K + b t, K a body and t raw samples (convex, so that every
    # boundary passes the chord gate): evaluation, derivative, boundary, pi0
    # and the form read both parts, and rho_act moves both.
    rng = np.random.default_rng(seed)
    k = _body(body_kind, grid, rng)
    t = random_support_fn(rng, grid) if raw_kind == "band-limited" else _raw_body(raw_kind, grid, rng)
    h = combine(a, k, b, t)
    scale = a * float(np.abs(k.samples).max()) + b * float(np.abs(t._coeffs).sum())
    theta = rng.uniform(-10.0, 10.0, 257)
    for op in (eval_at, eval_deriv):
        assert np.abs(op(h, theta) - (a * op(k, theta) + b * op(t, theta))).max() <= 1e-9 * scale
    n = min(grid, 2048)
    want = a * boundary_curve(k, n) + b * boundary_curve(t, n)
    assert np.abs(boundary_curve(h, n) - want).max() <= 1e-9 * scale
    assert pi0(h) == pytest.approx(a * pi0(k) + b * pi0(t), rel=1e-12)
    g = combine(1.0, from_polygon(random_polygon(rng), grid), 1.0, random_support_fn(rng, grid))
    assert form_A(h, g) == pytest.approx(a * form_A(k, g) + b * form_A(t, g), rel=1e-10, abs=1e-10 * scale)
    m = random_mobius(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTailWarning)
        moved, mk, mt = rho_act(m, h), rho_act(m, k), rho_act(m, t)
    parts = combine(a, mk, b, mt)
    assert np.abs(moved.samples - parts.samples).max() <= 3e-9 * scale
    assert np.abs(eval_at(moved, theta) - eval_at(parts, theta)).max() <= 3e-9 * scale
    shape_terms = [(c, term) for c, term in moved.body.terms if not isinstance(term, Raw)]
    ((c, raw_term),) = [(c, term) for c, term in moved.body.terms if isinstance(term, Raw)]
    shape_part = sum(c * term.support(theta) for c, term in shape_terms)
    assert np.abs(shape_part - a * mk.body.support(theta)).max() <= 3e-14 * scale
    assert np.abs(c * raw_term.samples - b * mt.samples).max() <= 3e-9 * scale
    assert h.shape_tag is None and moved.shape_tag is None
    for tagged in (combine(a, k, 0.0, t), combine(0.0, t, b, k), scaled(k, a)):
        assert not any(isinstance(term, Raw) for _, term in _terms(tagged.body)) and tagged.shape_tag is tagged.body
