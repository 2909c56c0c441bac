"""The area form, hyperboloid points, distances, geodesics, projections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ellipe

import hypkonvex.lorentz as lorentz
import hypkonvex.supportfn as supportfn

from hypkonvex.limits import project_disc_to_segment_geodesic
from hypkonvex.lorentz import (
    HPoint,
    HyperbolicInvariantError,
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
)
from hypkonvex.mobius import Mobius, iota_dist_closed, iota_dist_quadrature, rho_act
from hypkonvex.shapes import Ellipse, Polygon, Segment, Sum, _form_value, _stretch, minkowski_combination, mixed_area
from hypkonvex.supportfn import (
    EVEN_TOL,
    EvenFn,
    combine,
    constant,
    eval_at,
    from_ellipse,
    from_polygon,
    from_samples,
    from_segment,
    fourier,
    grid_angles,
    scaled,
    unit_disc,
    _on_grid,
)
from hypkonvex.verify import (
    SuiteReport,
    _add_gram_signature,
    random_body_fn,
    random_ellipse,
    random_mobius,
    random_polygon,
    random_support_fn,
)

from shoelace import shoelace_area

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
    assert abs(form_A_spectral(h) - 4.0 / math.pi) < 1e-2
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
        assert form_A_spectral(p.fn, q.fn) >= 1.0 - 1e-10


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
        report = SuiteReport("gram-rank", 12, M)
        _add_gram_signature(report, "", g)
        assert report.passed, report.records


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
    raw = normalize(from_samples(h1.samples))  # the first body's samples, untagged
    for q in (normalize(h2), raw):
        d, d_rev = hyper_dist(p, q), hyper_dist(q, p)
        assert math.isfinite(d) and d >= 0.0
        assert math.cosh(d_rev) == pytest.approx(math.cosh(d), rel=1e-12)
    assert hyper_dist(raw, normalize(from_samples(h1.samples.copy()))) < 1e-6


def test_hyper_dist_resolves_zero_on_the_spectral_route():
    # x - 1 taken as -A(p/|p| - q/|q|)/2 has no sqrt(eps) floor; distances
    # between distinct bodies agree with acosh of the form ratio
    for seed in range(120):
        h = random_body_fn(np.random.default_rng(seed), PROPERTY_GRID)
        p = normalize(from_samples(h.samples))
        assert hyper_dist(p, normalize(from_samples(h.samples.copy()))) <= 1e-12
        q = normalize(from_samples(random_body_fn(np.random.default_rng(seed + 1000), PROPERTY_GRID).samples))
        assert hyper_dist(p, q) == pytest.approx(math.acosh(_cosh_between(p.fn, q.fn)), rel=1e-12)


def test_acosh1p_past_the_square_root_of_the_largest_double():
    for x in (1e100, 1e150, 2e150, 1e200, 1e308):
        assert acosh1p(x) == pytest.approx(math.acosh(x), rel=1e-15)


def test_tagged_bodies_never_sample_the_grid(monkeypatch):
    # Tagged operations read vertices and matrices only: at M = 65536 no
    # shape's homogeneous support, which every support read goes through, is
    # evaluated at the M grid directions, until samples are read.
    big = 65536
    sizes = []
    for cls in (Ellipse, Segment, Polygon, Sum):

        def spy(self, w, original=cls.hsupport):
            sizes.append(np.shape(w)[-1])
            return original(self, w)

        monkeypatch.setattr(cls, "hsupport", spy)
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
    points = [normalize(h) for h in fns if h.shape_tag.area > 0]  # a segment has no area
    for p in points:
        for q in points:
            assert hyper_dist(p, q) >= 0.0
            assert geodesic_point(p, q, 0.5).fn.shape_tag is not None
    # a tagged body against raw samples pairs through its own closed form
    raw = random_support_fn(rng, big)
    for h in fns:
        form_A(h, raw)
    for p in points:
        assert hyper_dist(p, normalize(raw)) > 0.0
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
                s0 = _stretch(*k.matrix.ravel().tolist())
                assert s0 == pytest.approx(np.linalg.svd(k.matrix, compute_uv=False)[0], rel=1e-13)
                assert k.area == math.pi
                assert k.perimeter == 2.0 * math.pi * _form_value(s0)
                continue
            # a copy by the identity map holds the same generators e_i, and the
            # perimeter is the length of the edge fan +-e_i
            copy, e = k.transform(Mobius(1.0, 0.0, 0.0, 1.0)), k.generators
            if len(e) == 1:
                assert k.area == 0.0
            else:
                assert k.area == pytest.approx(shoelace_area(k.vertices), rel=1e-13, abs=0.0)
            assert k.area == mixed_area(k, copy)  # the cached area is the uncached pairing
            assert k.perimeter == 2.0 * float(np.hypot(e[:, 0], e[:, 1]).sum())


def _tagged_body(kind, ellipse, vertices, endpoint):
    if kind == "ellipse":
        return from_ellipse(Ellipse(ellipse), PROPERTY_GRID)
    poly = from_polygon(Polygon(vertices), PROPERTY_GRID)
    if kind == "polygon":
        return poly
    if kind == "segment+polygon":  # merged into one polygon
        return combine(1.0, from_segment(Segment(endpoint), PROPERTY_GRID), 1.0, poly)
    return combine(0.7, poly, 1.3, from_ellipse(Ellipse(ellipse), PROPERTY_GRID))  # a Sum


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["ellipse", "polygon", "segment+polygon", "polygon+ellipse"]),
    st.sampled_from(["bare", "scaled", "rho_act"]),
    _COEFF,
    st.integers(0, 2**32 - 1),
)
def test_equal_copies_read_distance_zero(kind, image, c, seed):
    # Two bodies built alike from copied arrays pair by the same float
    # operations as each body with itself, so x - 1 is exactly 0.
    rng = np.random.default_rng(seed)
    arrays = (random_ellipse(rng).matrix, random_polygon(rng).vertices, rng.normal(size=2))
    m = random_mobius(rng)
    p, q = (_tagged_body(kind, *(a.copy() for a in arrays)) for _ in range(2))
    if image == "scaled":
        p, q = scaled(p, c), scaled(q, c)
    elif image == "rho_act":
        p, q = rho_act(m, p), rho_act(m, q)
    assert p.shape_tag is not q.shape_tag
    assert hyper_dist(normalize(p), normalize(q)) == 0.0


def test_ellipse_invariants_hold_at_every_stretch():
    # rot·diag(s, 1/s)·rot up to s = 1e150, where ad - bc in floating point is
    # off by eps·s^2: the area is pi by contract, an equal copy is at distance
    # exactly 0 and the disc at the closed-form distance of the orbit.
    rng = np.random.default_rng(8)
    disc = normalize(unit_disc(64))
    for k in np.arange(0.0, 150.1, 2.5):
        s = 10.0**k
        for _ in range(5):
            m = Mobius.rotation(rng.uniform(0.0, math.pi)).matrix @ np.diag([s, 1.0 / s])
            m = m @ Mobius.rotation(rng.uniform(0.0, math.pi)).matrix
            e = Ellipse(m)
            assert e.area == math.pi
            p = normalize(from_ellipse(e, 64))
            assert hyper_dist(p, normalize(from_ellipse(Ellipse(m.copy()), 64))) == 0.0
            closed = iota_dist_closed(2.0 * math.log(s))
            assert hyper_dist(p, disc) == pytest.approx(closed, rel=1e-12, abs=0.0)
    for _ in range(50):
        a, b = random_ellipse(rng), random_ellipse(rng)
        s0, s1 = np.linalg.svd(np.linalg.solve(b.matrix, a.matrix), compute_uv=False)
        assert mixed_area(a, b) == pytest.approx(2.0 * s0 * ellipe(1.0 - (s1 / s0) ** 2), rel=1e-13)


def test_overflowed_mixed_area_refuses():
    # The entries of adj(B)·A overflow to inf - inf: the form value is NaN,
    # which must not read as distance 0 through max(0, x - 1).
    ma = [[-1.545923572999795e169, 1.3418074301417767e168], [9.841869249594742e169, -8.542397254454602e168]]
    mb = [[8.545827228419174e168, 7.097413217968438e169], [-8.359242515638486e168, -6.942452349773414e169]]
    p, q = (normalize(from_ellipse(Ellipse(np.array(m)), 64)) for m in (ma, mb))
    with pytest.raises(HyperbolicInvariantError, match="overflowed"):
        hyper_dist(p, q)


def test_each_part_pairing_calls_its_own_form(monkeypatch):
    # The benchmark counts the two routes by replacing these module attributes.
    calls = {"exact": 0, "spectral": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(lorentz, "_form_exact", counting("exact", lorentz._form_exact))
    monkeypatch.setattr(lorentz, "form_A_spectral", counting("spectral", lorentz.form_A_spectral))
    rng = np.random.default_rng(2)
    tagged, raw = from_polygon(random_polygon(rng), M), random_support_fn(rng, M)
    for a, b, want in [
        (tagged, from_ellipse(random_ellipse(rng), M), {"exact": 1, "spectral": 0}),
        (raw, random_support_fn(rng, M), {"exact": 1, "spectral": 0}),  # two raw terms pair by mixed_area too
        (tagged, raw, {"exact": 1, "spectral": 0}),  # a body pairs with raw samples by shapes.mixed_area
    ]:
        calls.update(exact=0, spectral=0)
        form_A(a, b)
        assert calls == want


def test_distance_of_points_with_a_body_evaluates_one_form(monkeypatch):
    # A body keeps its self-forms, so a distance pairs two different bodies
    # once, a pair moved by one element too, and gives the float of the form
    # ratio _cosh_between.
    rng = np.random.default_rng(3)
    tagged, raw = from_polygon(random_polygon(rng), M), random_support_fn(rng, M)
    m = random_mobius(rng)
    pairs = [
        (tagged, from_ellipse(random_ellipse(rng), M)),
        (tagged, raw),
        (combine(0.5, from_ellipse(random_ellipse(rng), M), 0.5, raw), tagged),
        (rho_act(m, tagged), rho_act(m, from_ellipse(random_ellipse(rng), M))),
    ]
    points = [(normalize(a), normalize(b)) for a, b in pairs]
    exact, pairings = lorentz._form_exact, []

    def counting(k1, k2):
        if k1 is not k2:
            pairings.append((k1, k2))
        return exact(k1, k2)

    monkeypatch.setattr(lorentz, "_form_exact", counting)
    for p, q in points:
        pairings.clear()
        d = hyper_dist(p, q)
        assert len(pairings) == 1
        assert d == acosh1p(max(0.0, _cosh_between(p.fn, q.fn) - 1.0))


def test_distance_of_two_raw_points_reads_their_self_forms(monkeypatch):
    # A raw point's self-form is its Parseval sum, computed once and kept by
    # its function, so three distances between the same two points evaluate
    # each self-sum once, and give the float of the formula with both.
    rng = np.random.default_rng(4)
    p = normalize(random_support_fn(rng, M))
    q = normalize(from_samples(from_polygon(random_polygon(rng), M).samples))
    parseval, self_sums = supportfn._parseval, []

    def counting(c1, c2, grid):
        if c1 is c2:
            self_sums.append(c1)
        return parseval(c1, c2, grid)

    monkeypatch.setattr(supportfn, "_parseval", counting)
    d = [hyper_dist(p, q), hyper_dist(q, p), hyper_dist(p, q, method="spectral")]
    assert [id(c) for c in self_sums] == [id(p.fn._coeffs), id(q.fn._coeffs)]
    u, v = p.fn._coeffs / math.sqrt(form_A_spectral(p.fn)), q.fn._coeffs / math.sqrt(form_A_spectral(q.fn))
    assert d[0] == d[2] == acosh1p(max(0.0, -0.5 * lorentz._parseval(u - v, u - v, M)))


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("s", [0.0, 1.0])
@pytest.mark.parametrize("t", [0.25, 0.5])
def test_a_geodesic_to_moved_samples_is_additive(grid, s, t):
    # Polygon samples P and their image gP, aliased on the grid, are raw
    # terms, each divided by its own Parseval form: points of one
    # hyperboloid, on whose chord the geodesic point r lies.
    p = normalize(from_samples(from_polygon(random_polygon(np.random.default_rng(5)), grid).samples))
    gp = normalize(rho_act(Mobius.rotation(0.3) @ Mobius.axial(s), p.fn))
    r = geodesic_point(p, gp, t)
    d = hyper_dist(p, gp)
    assert abs(hyper_dist(p, r) + hyper_dist(r, gp) - d) <= 1e-12 * (1.0 + d)
    assert abs(hyper_dist(gp, p) - d) <= 1e-12 * (1.0 + d)


def test_a_coefficient_product_that_underflows_drops_its_term():
    # The square with vertices (+-3, 0), (0, +-3), normalized, is the
    # one-term Sum with coefficient 0.418; times 5e-324 that underflows to 0,
    # a term every read would multiply by 0.
    p = normalize(from_polygon(np.array([[3.0, 0.0], [0.0, 3.0], [-3.0, 0.0], [0.0, -3.0]])))
    disc = normalize(unit_disc())
    assert isinstance(p.fn.body, Sum) and len(p.fn.body.terms) == 1
    assert combine(1.0, disc.fn, 5e-324, p.fn).body is disc.fn.body
    assert geodesic_point(disc, p, 5e-324).fn.body is disc.fn.body
    zero = scaled(p.fn, 5e-324)
    assert not np.any(zero.samples)
    with pytest.raises(IsotropicVectorError):
        normalize(zero)


@pytest.mark.parametrize("grid", [64, 256, 2048])
def test_spectral_form_is_the_interpolants_fourier_formula(grid):
    # a0 a0' + (1/2) sum (1 - n^2)(an an' + bn bn') over every harmonic of
    # fourier, whose Nyquist mode a_N cos(N x) is the interpolant's
    rng = np.random.default_rng(grid)
    t1, t2 = (from_samples(from_polygon(random_polygon(rng), grid).samples) for _ in range(2))
    (a1, b1), (a2, b2) = fourier(t1), fourier(t2)
    w = 0.5 * (1.0 - np.arange(grid // 2 + 1) ** 2)
    want = a1[0] * a2[0] + float(w[1:] @ (a1[1:] * a2[1:] + b1[1:] * b2[1:]))
    assert form_A_spectral(t1, t2) == pytest.approx(want, rel=1e-14)


def test_samples_and_their_interpolant_on_a_finer_grid_are_one_point():
    # The area-pi square's samples t on 2048 points and the same interpolant
    # on 4096 are one vector of the form, alone and added to an ellipse.
    r = 0.5 * math.sqrt(math.pi)
    t = from_samples(from_polygon(r * SQUARE.vertices, 2048).samples)
    lift = _on_grid(t, 4096)
    assert abs(_cosh_between(t, lift) - 1.0) <= 1e-15
    e = from_ellipse(random_ellipse(np.random.default_rng(1)))
    assert hyper_dist(normalize(combine(1.0, e, 1.0, t)), normalize(combine(1.0, e, 1.0, lift))) <= 1e-7


def _band_limited(rng, grid, top):
    """Raw samples of 1.5 + sum over even n <= top of a_n cos nx + b_n sin nx,
    with |a_n|, |b_n| ~ 0.2/n^3 (a smooth body), and that sum as an oracle."""
    n = np.arange(2, top + 1, 2)
    a, b = 0.2 * rng.normal(size=(2, n.size)) / n**3

    def t(x):
        x = np.asarray(x, dtype=float)[..., None]
        return 1.5 + (np.cos(n * x) @ a) + (np.sin(n * x) @ b)

    return from_samples(t(grid_angles(grid))), t


def _polygon_oracle(vertices, t):
    # (1/2pi) sum over edges e of |e| t(outward normal of e)
    e = np.roll(vertices, -1, axis=0) - vertices
    return sum(math.hypot(x, y) * float(t(math.atan2(-x, y))) for x, y in e) / (2.0 * math.pi)


def _ellipse_oracle(s, a, t, band=0):
    # (1/pi) int over a period of t H^-3 for R(a) diag(e^{s/2}, e^{-s/2}) R(b),
    # split at the minor normal a + pi/2 and taken in the offset d from it,
    # where H = hypot(s0 sin d, cos d / s0) is evaluated without cancellation;
    # each half is cut into 1 + band/8 panels, so that quad resolves a t of
    # band harmonics (polygon samples on grid 2048 reach 1024)
    s0, minor = math.exp(0.5 * s), a + 0.5 * math.pi
    f = lambda d: float(t(minor + d)) / math.hypot(s0 * math.sin(d), math.cos(d) / s0) ** 3  # noqa: E731
    kw = dict(epsabs=0.0, epsrel=2e-14, limit=2000)
    halves = [np.linspace(lo, lo + 0.5 * math.pi, 2 + band // 8) for lo in (-0.5 * math.pi, 0.0)]
    return sum(quad(f, e[0], e[-1], points=e[1:-1] if e.size > 2 else None, **kw)[0] for e in halves) / math.pi


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["polygon", "segment", "ellipse", "sum"]),
    st.sampled_from([64, 256, 2048, 8192]),
    st.floats(0.0, 10.0),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
)
def test_tagged_bodies_pair_with_raw_samples_by_their_own_closed_form(kind, grid, s, tau, seed):
    # Against independent oracles: the explicit edge sum for polygons and
    # segments, scipy quad of t H^-3 for ellipses of translation length s <= 10,
    # with t the dense trigonometric sum.  A combination of the body and the
    # raw samples is a point of one form: reversed Cauchy-Schwarz holds against
    # either part, and so does geodesic additivity.
    rng = np.random.default_rng(seed)
    raw, t = _band_limited(rng, grid, int(rng.integers(2, min(40, grid // 4) + 1)))
    a, b, poly = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi), random_polygon(rng)
    stretch = np.diag([math.exp(0.5 * s), math.exp(-0.5 * s)])
    matrix = Mobius.rotation(a).matrix @ stretch @ Mobius.rotation(b).matrix
    endpoint = rng.uniform(0.2, 2.0) * np.array([math.cos(a), math.sin(a)])
    if kind == "polygon":
        body, want = from_polygon(poly, grid), _polygon_oracle(poly.vertices, t)
    elif kind == "segment":
        body, want = from_segment(Segment(endpoint), grid), _polygon_oracle(np.stack([endpoint, -endpoint]), t)
    elif kind == "ellipse":
        body, want = from_ellipse(Ellipse(matrix), grid), _ellipse_oracle(s, a, t)
    else:
        body = combine(0.7, from_polygon(poly, grid), 1.3, from_ellipse(Ellipse(matrix), grid))
        want = 0.7 * _polygon_oracle(poly.vertices, t) + 1.3 * _ellipse_oracle(s, a, t)
    assert form_A(body, raw) == pytest.approx(want, rel=1e-12)
    assert form_A(raw, body) == pytest.approx(want, rel=1e-12)
    mixed = combine(1.0 - tau, body, tau, raw)
    assert mixed.shape_tag is None
    for part in (body, raw):
        assert form_A(mixed, part) ** 2 >= form_A(mixed) * form_A(part) * (1.0 - 1e-12)
    if kind != "segment":
        p, q = normalize(body), normalize(raw)
        r = geodesic_point(p, q, tau)
        assert hyper_dist(p, r) + hyper_dist(r, q) == pytest.approx(hyper_dist(p, q), abs=1e-9)


def _dense(raw):
    """The direct sum of raw's interpolant, the Nyquist mode a cosine: the oracle's t."""
    half = raw.grid // 2
    c = np.array(raw._coeffs)
    c[half] = c[half].real
    wc = np.r_[1.0, np.full(half - 1, 2.0), 1.0] * c
    n = np.arange(half + 1)
    return lambda x: (np.exp(1j * n * np.asarray(x, dtype=float)[..., None]) @ wc).real


def _body_oracle(k, t, band):
    """(1/2pi) int t dS_K term by term: the edge sum for a polygon, quad for an ellipse."""
    if isinstance(k, Sum):
        return sum(c * _body_oracle(term, t, band) for c, term in k.terms)
    if isinstance(k, Polygon):
        return _polygon_oracle(k.vertices, t)
    u, sv, _ = np.linalg.svd(k.matrix)
    return _ellipse_oracle(2.0 * math.log(sv[0]), math.atan2(u[1, 0], u[0, 0]), t, band)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["ellipse", "polygon", "sum", "moved"]),
    st.sampled_from(["band-limited", "polygon-samples"]),
    st.sampled_from([64, 128, 256, 512, 1024, 2048]),
    st.integers(0, 2**32 - 1),
)
def test_a_body_pairs_with_raw_samples_through_mixed_area(kind, raw_kind, grid, seed):
    # One dispatcher pairs a body with raw samples t, in either order to the
    # same float, and agrees with the edge-sum and quad oracles.  A polygon
    # reads t at its k turned generators J e_i, where the fan sum over +-J e_i
    # would read both normals: the two differ by half the sum of |e_i| times
    # t's odd residue, here raised to 0.4 of EVEN_TOL max|t|.
    rng = np.random.default_rng(seed)
    if raw_kind == "band-limited":
        raw, t = _band_limited(rng, grid, int(rng.integers(2, grid // 4 + 1)))
    else:
        raw = from_samples(from_polygon(random_polygon(rng), grid).samples)
        t = _dense(raw)
    raw = raw.body  # the raw term
    shapes = {"ellipse": lambda: random_ellipse(rng, 8.0), "polygon": lambda: random_polygon(rng)}
    shapes["sum"] = lambda: minkowski_combination([(0.7, shapes["polygon"]()), (1.3, shapes["ellipse"]())])
    body = shapes[rng.choice(["ellipse", "polygon", "sum"]) if kind == "moved" else kind]()
    if kind == "moved":
        body = body.transform(random_mobius(rng))
    assert mixed_area(body, raw) == mixed_area(raw, body)
    assert mixed_area(body, raw) / math.pi == pytest.approx(_body_oracle(body, t, raw.band), rel=1e-12)
    top = float(np.abs(raw.samples).max())
    odd = from_samples(raw.samples + 0.4 * EVEN_TOL * top * np.cos(grid_angles(grid))).body
    for _, p in body.terms if isinstance(body, Sum) else ((1.0, body),):
        if isinstance(p, Polygon):
            fan = np.concatenate([p._turned_fan, -p._turned_fan], axis=1)
            both = 0.5 * float(np.hypot(*fan) @ odd.support(np.arctan2(*fan[::-1])))
            bound = 0.5 * float(np.hypot(*p._turned_fan).sum()) * EVEN_TOL * float(np.abs(odd.samples).max())
            assert abs(mixed_area(p, odd) - both) <= bound
