"""The area form, hyperboloid points, distances, geodesics, projections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypkonvex.lorentz import (
    HPoint,
    IsotropicVectorError,
    _cosh_between,
    acosh1p,
    form_A,
    form_A_spectral,
    geodesic_point,
    h1_seminorms,
    hyper_dist,
    normalize,
    pi0,
    project_disc_to_segment_geodesic,
)
from hypkonvex.mobius import Mobius, iota_dist_quadrature, rho_act
from hypkonvex.shapes import Ellipse, Polygon, Segment, Sum, shoelace_area
from hypkonvex.specfun import agm_KE_from_complement
from hypkonvex.supportfn import (
    EvenFn,
    combine,
    constant,
    eval_at,
    from_ellipse,
    from_polygon,
    from_samples,
    from_segment,
    grid_angles,
    scaled,
    unit_disc,
)
from hypkonvex.verify import random_body_fn, random_ellipse, random_mobius, random_polygon, random_support_fn

M = 1024
THETA = grid_angles(M)
SQUARE = Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))


def _random_ellipse_fn(rng, grid=M, s_max=2.5):
    a1, a2 = rng.uniform(0.0, 2.0 * np.pi, 2)
    s = rng.uniform(0.0, s_max)
    r = lambda a: np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return from_ellipse(Ellipse(r(a1) @ np.diag([np.exp(s / 2), np.exp(-s / 2)]) @ r(a2)), grid)


def test_form_of_one_is_one():
    assert form_A(constant(1.0, M)) == pytest.approx(1.0, abs=0.0)
    assert form_A_spectral(constant(1.0, M)) == pytest.approx(1.0, abs=1e-15)


def test_form_square_is_area_over_pi():
    h = from_polygon(SQUARE, 4096)
    assert abs(form_A(h, method="spectral") - 4.0 / math.pi) < 1e-2
    assert form_A(h) == pytest.approx(4.0 / math.pi, rel=1e-15)


def test_form_against_one_is_pi0():
    rng = np.random.default_rng(1)
    for _ in range(20):
        vals = 1.0 + 0.2 * rng.normal() * np.cos(2 * THETA) + 0.1 * rng.normal() * np.sin(6 * THETA)
        h = EvenFn(vals)
        assert form_A(h, constant(1.0, M)) == pytest.approx(pi0(h), abs=1e-14)


def test_pi0_examples():
    assert pi0(constant(1.0, M)) == 1.0
    assert pi0(from_polygon(SQUARE, M)) == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert pi0(from_segment(Segment(np.array([1.0, 0.0])), M)) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_seminorms():
    l2, dl2 = h1_seminorms(constant(1.0, M))
    assert l2 == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert dl2 == 0.0

    l2, dl2 = h1_seminorms(EvenFn(np.cos(2 * THETA)))
    assert l2 == pytest.approx(math.pi, rel=1e-13)
    assert dl2 == pytest.approx(4.0 * math.pi, rel=1e-13)

    rng = np.random.default_rng(3)
    for _ in range(10):
        vals = rng.normal() + 0.3 * rng.normal() * np.cos(4 * THETA) + 0.2 * np.sin(2 * THETA)
        h = EvenFn(vals)
        l2, dl2 = h1_seminorms(h)
        assert (l2 - dl2) / (2.0 * math.pi) == pytest.approx(form_A_spectral(h), abs=1e-12)


def test_normalize_examples():
    assert np.array_equal(normalize(constant(1.0, M)).fn.samples, constant(1.0, M).samples)
    assert np.abs(normalize(scaled(unit_disc(M), 2.0)).fn.samples - 1.0).max() < 1e-15

    sq = normalize(from_polygon(SQUARE, M))
    # body scaled by sqrt(pi)/2 has area pi; supports scale the same way
    assert np.abs(sq.fn.samples - 0.5 * math.sqrt(math.pi) * from_polygon(SQUARE, M).samples).max() < 1e-14

    with pytest.raises(IsotropicVectorError):
        normalize(from_segment(Segment(np.array([1.0, 0.0])), M))


def test_hpoint_invariants():
    with pytest.raises(ValueError):
        HPoint(scaled(unit_disc(M), 1.1))


def test_hyper_dist_self_and_lemma_dh():
    p = normalize(unit_disc(M))
    assert hyper_dist(p, p) == 0.0

    # distance disc -> T_1-ellipse equals the quadrature of the orbit integral
    m = Mobius.axial(1.0)
    q = normalize(from_ellipse(Ellipse(m.matrix), M))
    assert abs(hyper_dist(p, q) - iota_dist_quadrature(m)) < 1e-10


def test_triangle_inequality_on_ellipse_points():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b, c = (normalize(_random_ellipse_fn(rng)) for _ in range(3))
        dab, dbc, dac = hyper_dist(a, b), hyper_dist(b, c), hyper_dist(a, c)
        assert dab + dbc - dac >= -1e-10


def test_reversed_cauchy_schwarz_pairs():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = normalize(_random_ellipse_fn(rng))
        q = normalize(_random_ellipse_fn(rng))
        assert form_A(p.fn, q.fn, method="spectral") >= 1.0 - 1e-10


def test_minkowski_inequality_random_bodies():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h1, h2 = _random_ellipse_fn(rng), _random_ellipse_fn(rng)
        a11, a22, a12 = (form_A_spectral(h1), form_A_spectral(h2), form_A_spectral(h1, h2))
        assert a12 * a12 - a11 * a22 >= -1e-12 * max(a12 * a12, a11 * a22)


def test_sobolev_brackets_random_mean_zero():
    rng = np.random.default_rng(8)
    for _ in range(100):
        vals = np.zeros(M)
        for n in range(2, 18, 2):
            an, bn = rng.normal(size=2) / n
            vals += an * np.cos(n * THETA) + bn * np.sin(n * THETA)
        h = EvenFn(vals)
        l2, dl2 = h1_seminorms(h)
        h1sq = l2 + dl2
        neg_a = -form_A_spectral(h)
        assert l2 <= 0.25 * dl2 * (1.0 + 1e-12)
        assert 3.0 / (16.0 * math.pi) * h1sq <= neg_a * (1.0 + 1e-12)
        assert neg_a <= h1sq / (2.0 * math.pi) * (1.0 + 1e-12)


def test_geodesic_endpoints_and_midpoint():
    rng = np.random.default_rng(9)
    p = normalize(_random_ellipse_fn(rng))
    q = normalize(_random_ellipse_fn(rng))
    assert geodesic_point(p, q, 0.0) is p
    assert geodesic_point(p, q, 1.0) is q
    assert geodesic_point(p, p, 0.3) is p

    mid = geodesic_point(p, q, 0.5)
    # midpoint is the normalized Minkowski sum
    direct = normalize(combine(0.5, p.fn, 0.5, q.fn))
    assert np.abs(mid.fn.samples - direct.fn.samples).max() < 1e-14
    assert abs(hyper_dist(p, mid) - hyper_dist(q, mid)) < 1e-10


def test_geodesic_additivity_random_t():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = normalize(_random_ellipse_fn(rng))
        q = normalize(_random_ellipse_fn(rng))
        t = float(rng.uniform(0.05, 0.95))
        r = geodesic_point(p, q, t)
        total = hyper_dist(p, q, method="spectral")
        assert abs(hyper_dist(p, r, method="spectral") + hyper_dist(r, q, method="spectral") - total) < 1e-9


def test_geodesic_additivity_polygon_pairs_exact():
    p = normalize(from_polygon(SQUARE, M))
    rect = Polygon(np.array([[2.5, 0.3], [-2.5, 0.3], [-2.5, -0.3], [2.5, -0.3]]))
    q = normalize(from_polygon(rect, M))
    total = hyper_dist(p, q)
    for t in (0.25, 0.5, 0.75):
        r = geodesic_point(p, q, t)
        assert r.fn.shape_tag is not None
        assert abs(hyper_dist(p, r) + hyper_dist(r, q) - total) < 1e-12


def test_midpoint_additivity_across_tag_kinds():
    # the midpoint of an ellipse and a polygon is tagged with their Minkowski combination
    p = normalize(_random_ellipse_fn(np.random.default_rng(13)))
    q = normalize(from_polygon(SQUARE, M))
    mid = geodesic_point(p, q, 0.5)
    assert isinstance(mid.fn.shape_tag, Sum)
    total = hyper_dist(p, q)
    assert abs(hyper_dist(p, mid) - 0.5 * total) < 1e-12
    assert abs(hyper_dist(mid, q) - 0.5 * total) < 1e-12


def test_midpoint_matches_closed_formula():
    # d(h1, m) = acosh((A(h1,h2)+1)/sqrt(A(h1+h2))) for hyperboloid points
    rng = np.random.default_rng(11)
    p = normalize(_random_ellipse_fn(rng))
    q = normalize(_random_ellipse_fn(rng))
    mid = geodesic_point(p, q, 0.5)
    a12 = form_A(p.fn, q.fn)
    expect = math.acosh((a12 + 1.0) / math.sqrt(2.0 + 2.0 * a12))
    assert hyper_dist(p, mid) == pytest.approx(expect, abs=1e-12)


def test_gram_rank_small():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        fns = []
        while len(fns) < n + 1:
            f = _random_ellipse_fn(rng)
            if all(form_A(f, g) > math.cosh(0.5) for g in fns):
                fns.append(f)
        g = np.array([[form_A(a, b) for b in fns] for a in fns])
        gn = g / np.abs(g).max(axis=1, keepdims=True)
        assert abs(np.linalg.det(gn)) > 1e-10


def test_rhombus_projection_perpendicular():
    h = project_disc_to_segment_geodesic(0.0, math.pi / 2, M)
    assert isinstance(h.fn.shape_tag, Polygon)
    assert math.pi * form_A(h.fn) == pytest.approx(math.pi, rel=1e-12)  # area pi
    # support function is a(|cos| + |sin|) with a = sqrt(pi)/2
    a = 0.5 * math.sqrt(math.pi)
    expect = a * (np.abs(np.cos(THETA)) + np.abs(np.sin(THETA)))
    assert np.abs(h.fn.samples - expect).max() < 1e-13
    assert pi0(h.fn) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)


def test_rhombus_projection_is_pi0_minimizer():
    rng = np.random.default_rng(13)
    for _ in range(10):
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        delta = min(abs(t1 - t2) % math.pi, math.pi - abs(t1 - t2) % math.pi)
        if delta < 0.2:
            continue
        best = project_disc_to_segment_geodesic(t1, t2, M)

        def pi0_along(tau):
            aa = 0.5 * math.sqrt(math.pi / math.sin(delta))
            s1 = from_segment(Segment(aa * math.exp(tau / 2) * np.array([math.cos(t1), math.sin(t1)])), M)
            s2 = from_segment(Segment(aa * math.exp(-tau / 2) * np.array([math.cos(t2), math.sin(t2)])), M)
            return pi0(normalize(combine(1.0, s1, 1.0, s2)).fn)

        # golden-section search over the geodesic parameter
        lo, hi = -2.0, 2.0
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        while hi - lo > 1e-8:
            if pi0_along(c) < pi0_along(d):
                hi = d
            else:
                lo = c
            c = hi - invphi * (hi - lo)
            d = lo + invphi * (hi - lo)
        tau_star = 0.5 * (lo + hi)
        assert abs(tau_star) < 1e-6
        assert pi0(best.fn) <= pi0_along(tau_star) + 1e-12


def test_rhombus_rejects_equal_directions():
    with pytest.raises(ValueError):
        project_disc_to_segment_geodesic(0.3, 0.3 + math.pi, M)


def test_eval_on_geodesic_points_stays_even():
    p = normalize(from_polygon(SQUARE, M))
    q = normalize(unit_disc(M))
    r = geodesic_point(p, q, 0.4)
    assert abs(eval_at(r.fn, 0.1) - eval_at(r.fn, 0.1 + math.pi)) < 1e-12


PROPERTY_GRID = 256


def _body(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "ellipse":
        return from_ellipse(random_ellipse(rng), PROPERTY_GRID)
    if kind == "polygon":
        return from_polygon(random_polygon(rng), PROPERTY_GRID)
    if kind == "segments":
        h = None
        for a in rng.uniform(0.0, math.pi, 3):
            s = from_segment(Segment(rng.uniform(0.2, 2.0) * np.array([math.cos(a), math.sin(a)])), PROPERTY_GRID)
            h = s if h is None else combine(1.0, h, 1.0, s)
        return h
    if kind == "polygon-samples":
        return from_samples(from_polygon(random_polygon(rng), PROPERTY_GRID).samples)
    return random_support_fn(rng, PROPERTY_GRID)


_LEAVES = st.builds(
    _body,
    st.sampled_from(["ellipse", "polygon", "segments", "polygon-samples", "smooth"]),
    st.integers(0, 2**32 - 1),
)
_COEFF = st.floats(1e-3, 1e3)
_BODIES = st.recursive(_LEAVES, lambda kids: st.builds(combine, _COEFF, kids, _COEFF, kids), max_leaves=4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_BODIES, _BODIES)
def test_hyper_dist_never_raises_and_is_symmetric(h1, h2):
    p = normalize(h1)
    same = normalize(from_samples(h1.samples))  # the first body again, untagged
    for q in (normalize(h2), same):
        d, d_rev = hyper_dist(p, q), hyper_dist(q, p)
        assert math.isfinite(d) and d >= 0.0
        assert math.cosh(d_rev) == pytest.approx(math.cosh(d), rel=1e-12)
    assert hyper_dist(p, same) < 1e-6


def test_hyper_dist_resolves_zero_on_the_spectral_route():
    # x - 1 taken as -A(p/|p| - q/|q|)/2 has no sqrt(eps) floor; distances
    # between distinct bodies agree with acosh of the form ratio
    for seed in range(120):
        h = random_body_fn(np.random.default_rng(seed), PROPERTY_GRID)
        p = normalize(h)
        assert hyper_dist(p, normalize(from_samples(h.samples))) <= 1e-12
        q = normalize(from_samples(random_body_fn(np.random.default_rng(seed + 1000), PROPERTY_GRID).samples))
        assert hyper_dist(p, q) == pytest.approx(math.acosh(_cosh_between(p.fn, q.fn)), rel=1e-12)


def test_acosh1p_past_the_square_root_of_the_largest_double():
    for x in (1e100, 1e150, 2e150, 1e200, 1e308):
        assert acosh1p(x) == pytest.approx(math.acosh(x), rel=1e-15)


def test_tagged_bodies_never_sample_the_grid(monkeypatch):
    # Tagged operations read vertices and matrices only: at M = 65536 no
    # shape's support is evaluated at the M grid angles, until samples are read.
    big = 65536
    sizes = []
    for cls in (Ellipse, Segment, Polygon, Sum):

        def spy(self, theta, original=cls.support):
            sizes.append(np.size(theta))
            return original(self, theta)

        monkeypatch.setattr(cls, "support", spy)
    rng = np.random.default_rng(6)
    ell = from_ellipse(random_ellipse(rng), big)
    poly = from_polygon(random_polygon(rng), big)
    seg = from_segment(Segment(np.array([0.7, -0.3])), big)
    summed = combine(1.5, ell, 0.5, seg)
    assert isinstance(summed.shape_tag, Sum)
    m = random_mobius(rng)
    fns = [ell, poly, seg, summed]
    fns += [scaled(h, 2.5) for h in fns] + [rho_act(m, h) for h in fns] + [combine(0.3, h, 0.7, poly) for h in fns]
    for h in fns:
        assert pi0(h) > 0.0
        for g in fns:
            form_A(h, g)
    points = [normalize(h) for h in fns if h.shape_tag.area() > 0]  # a segment has no area
    for p in points:
        for q in points:
            assert hyper_dist(p, q) >= 0.0
            assert geodesic_point(p, q, 0.5).fn.shape_tag is not None
    assert sizes and big not in sizes
    assert ell.samples.size == big and sizes[-1] == big  # the spy sees a grid read


def _shape_terms(shape):
    return [k for _, k in shape.terms] if isinstance(shape, Sum) else [shape]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_BODIES, _BODIES, _COEFF, _COEFF, st.integers(0, 2**32 - 1))
def test_tagged_samples_are_the_support_of_the_tag(h1, h2, c1, c2, seed):
    # Samples of a tagged function are its tag's support at the grid angles,
    # equal to the sample arithmetic that built it, and every cached shape
    # invariant equals its uncached formula.
    built = [
        (scaled(h1, c1), c1 * h1.samples),
        (combine(c1, h1, c2, h2), c1 * h1.samples + c2 * h2.samples),
        (rho_act(random_mobius(np.random.default_rng(seed)), h1), None),
    ]
    for h, arithmetic in [(h1, None), (h2, None)] + built:
        if h.shape_tag is None:
            continue
        assert np.array_equal(h.samples, h.shape_tag.support(grid_angles(h.grid)))
        if arithmetic is not None:
            assert np.abs(h.samples - arithmetic).max() <= 1e-14 * (1.0 + np.abs(h.samples).max())
        for k in _shape_terms(h.shape_tag):
            if isinstance(k, Ellipse):
                s = np.linalg.svd(k.matrix, compute_uv=False)
                assert k.semi_axes() == (s[0], s[1])
                assert k.perimeter() == 4.0 * s[0] * agm_KE_from_complement(min(1.0, s[1] / s[0]))[1]
                continue
            if isinstance(k, Segment):
                v = k.endpoint
                n = np.array([v[1], -v[0]]) / np.hypot(v[0], v[1])
                lengths, normals = np.full(2, 2.0 * np.hypot(v[0], v[1])), np.stack([n, -n])
            else:
                e = np.roll(k.vertices, -1, axis=0) - k.vertices
                lengths = np.hypot(e[:, 0], e[:, 1])
                normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / lengths[:, None]
                assert k.area() == shoelace_area(k.vertices)
                assert k.perimeter() == float(lengths.sum())
            got_lengths, got_normals = k.edges()
            assert np.array_equal(got_lengths, lengths) and np.array_equal(got_normals, normals)
