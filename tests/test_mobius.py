"""Group elements, the circle and half-plane actions, and the embedding."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypkonvex.lorentz import form_A, form_A_spectral, hyper_dist, normalize
from hypkonvex.mobius import (
    BASEPOINT,
    HalfPlanePoint,
    Mobius,
    dist_h2,
    halfplane_apply,
    iota,
    iota_dist_closed,
    iota_dist_quadrature,
    mobius_from_halfplane,
    rho_act,
)
from hypkonvex.shapes import Ellipse, Polygon, Segment, mixed_area
from hypkonvex.supportfn import (
    EvenFn,
    SpectralTailWarning,
    combine,
    from_ellipse,
    from_polygon,
    from_segment,
    grid_angles,
    unit_disc,
)
from hypkonvex.verify import random_ellipse, random_polygon

M = 1024
THETA = grid_angles(M)
# Frozen oracle values (scipy): acosh((2/pi) e^{1/2} E(k)), k^2 = 1 - e^{-2}
DIST_DISC_T1 = 0.6050230853476971


def _random_mobius(rng, cap=3.0):
    s = rng.uniform(0.0, 2.0 * math.log(cap))
    return (
        Mobius.rotation(rng.uniform(0, 2 * math.pi))
        @ Mobius.axial(s)
        @ Mobius.rotation(rng.uniform(0, 2 * math.pi))
    )


def _random_blim(rng, K=12):
    vals = np.full(M, 1.5)
    for n in range(2, K + 1, 2):
        an, bn = rng.normal(size=2) / (n * n)
        vals += an * np.cos(n * THETA) + bn * np.sin(n * THETA)
    return EvenFn(vals)


def test_mobius_validation_and_sign():
    with pytest.raises(ValueError):
        Mobius(1.0, 0.0, 0.0, 2.0)
    m = Mobius(-1.0, 0.0, 0.0, -1.0)
    assert (m.a, m.d) == (1.0, 1.0)  # canonical sign
    n = Mobius.from_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert (n.a, n.d) == (1.0, 1.0)
    with pytest.raises(ValueError):
        Mobius.from_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_products_of_large_norm_keep_unit_determinant():
    # the determinant's rounding grows like |ad| + |bc| ~ e^s, for group
    # elements and for the ellipses they map the disc to alike
    disc = unit_disc(64)
    for k in range(1, 201):
        s = 0.1 * k
        m = Mobius.rotation(0.3) @ Mobius.axial(s) @ Mobius.rotation(1.1)
        assert m.a * m.d - m.b * m.c == pytest.approx(1.0, rel=1e-12 * math.exp(s))
        assert np.array_equal(rho_act(m, disc).shape_tag.matrix, m.matrix)


def test_group_ops():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = _random_mobius(rng)
        ident = m @ Mobius(m.d, -m.b, -m.c, m.a)  # the adjugate is the inverse
        assert abs(ident.a - 1) < 1e-12 and abs(ident.d - 1) < 1e-12
        assert abs(ident.b) < 1e-12 and abs(ident.c) < 1e-12


def test_rho_act_identity_and_disc_orbit():
    h = _random_blim(np.random.default_rng(1))
    same = rho_act(Mobius(1.0, 0.0, 0.0, 1.0), h)
    assert np.abs(same.samples - h.samples).max() < 1e-14

    m = _random_mobius(np.random.default_rng(2))
    moved = rho_act(m, unit_disc(M))
    expect = from_ellipse(Ellipse(m.matrix), M)
    assert np.abs(moved.samples - expect.samples).max() < 1e-13
    assert isinstance(moved.shape_tag, Ellipse)


def test_rho_act_transports_tags_exactly():
    m = _random_mobius(np.random.default_rng(3))
    seg = from_segment(Segment(np.array([0.4, -0.2])), M)
    out = rho_act(m, seg)
    moved, end = m.matrix @ np.array([0.4, -0.2]), 0.5 * out.shape_tag.generators[0]
    assert np.allclose(np.sign(end @ moved) * end, moved)
    sq = from_polygon(Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])), M)
    out = rho_act(m, sq)
    assert math.pi * form_A(out) == pytest.approx(4.0, rel=1e-12)  # areas preserved


def _sheared(rng, s):
    """g = R(phi) axial(s) R(psi), phi and psi uniform: a shear of translation length s."""
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, 2)
    return Mobius.rotation(phi) @ Mobius.axial(s) @ Mobius.rotation(psi)


def _folded(g):
    """Generators folded to angles in [0, pi), as a sorted list of tuples."""
    a = np.arctan2(g[:, 1], g[:, 0])
    return sorted(map(tuple, np.where(((a < 0.0) | (a == math.pi))[:, None], -g, g) + 0.0))


@pytest.mark.parametrize("s", [20.0, 25.5, 28.0, 33.0, 36.0])
def test_polygon_images_are_exact_or_refused(s):
    # A linear image of a convex body is convex, so no image is refused,
    # however far a shear squeezes its turns: its generators are the source's
    # mapped by g, folded to angles in [0, pi) and in angular order, and
    # rho_act moves a tag to the same bits.
    rng = np.random.default_rng(16)
    for _ in range(50):
        p, g = random_polygon(rng), _sheared(rng, s)
        image = p.transform(g.matrix)
        assert _folded(image.generators) == _folded(p.generators @ g.matrix.T)
        angle = np.arctan2(image.generators[:, 1], image.generators[:, 0])
        assert np.all((angle >= 0.0) & (angle < math.pi)) and np.all(np.diff(angle) >= 0.0)
        tag = rho_act(g, from_polygon(p, M)).shape_tag
        assert np.array_equal(tag.generators, image.generators)


@pytest.mark.parametrize("s", [20.0, 24.0, 28.0])
def test_combinations_of_moved_polygons_are_moved_combinations(s):
    # The sum of polygons moved by one g is g applied to the unmoved sum, and
    # bodies moved by equal elements pair as their bases: a(gK, gL) = a(K, L).
    rng = np.random.default_rng(16)
    for _ in range(50):
        p, q, g = random_polygon(rng), random_polygon(rng), _sheared(rng, s)
        body = combine(0.3, from_polygon(p, M), 0.7, from_polygon(q, M)).shape_tag
        gp = rho_act(g, from_polygon(p, M))
        moved = combine(0.3, gp, 0.7, rho_act(g, from_polygon(q, M))).shape_tag
        assert len(moved.vertices) == len(body.vertices)
        assert mixed_area(moved, moved) == body.transform(g.matrix).area == mixed_area(body, body)
        assert mixed_area(moved, gp.shape_tag) == mixed_area(body, p)


def test_polygon_images_are_validated_like_inputs():
    # polygons move by the group alone, as ellipses do: a scale or a
    # reflection is refused (scaled() scales), and so is an overflow
    square = Polygon(np.array([[2.0, 2.0], [-2.0, 2.0], [-2.0, -2.0], [2.0, -2.0]]))
    for m in (1e-7 * np.eye(2), np.diag([1.0, -1.0])):
        for body in (square, Ellipse(np.eye(2))):
            with pytest.raises(ValueError, match="determinant must be 1"):
                body.transform(m)
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        square.transform(np.diag([1e308, 1e-308]))


_TURN = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0), st.floats(0.01, 100.0), _TURN, st.floats(0.0, 36.0), _TURN)
def test_sums_of_moved_polygons_are_never_refused_and_keep_their_areas(seed, c1, c2, phi, s, psi):
    # c1 gP + c2 gQ for g = R(phi) axial(s) R(psi): the sum of two moved
    # polygons is built at every s, and its area and its mixed area with gP
    # are those of c1 P + c2 Q, bit for bit: a(gK, gL) = a(K, L).
    rng = np.random.default_rng(seed)
    p, q = random_polygon(rng), random_polygon(rng)
    g = Mobius.rotation(phi) @ Mobius.axial(s) @ Mobius.rotation(psi)
    gp = rho_act(g, from_polygon(p, M))
    moved = combine(c1, gp, c2, rho_act(g, from_polygon(q, M))).shape_tag
    body = combine(c1, from_polygon(p, M), c2, from_polygon(q, M)).shape_tag
    assert mixed_area(moved, moved) == mixed_area(body, body)
    assert mixed_area(moved, gp.shape_tag) == mixed_area(body, p)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_sums_in_either_order_read_distance_zero(seed, c1, c2):
    # the canonical order of the summed generators depends on the set alone
    rng = np.random.default_rng(seed)
    p, q = from_polygon(random_polygon(rng), M), from_polygon(random_polygon(rng), M)
    pq, qp = combine(c1, p, c2, q), combine(c2, q, c1, p)
    assert np.array_equal(pq.shape_tag.generators, qp.shape_tag.generators)
    assert hyper_dist(normalize(pq), normalize(qp)) == 0.0


_KINDS = ("ellipse", "polygon", "segment", "sum")


def _drawn_body(rng, kind):
    """The support function of a random body of one kind; a sum combines two of the other kinds."""
    if kind == "sum":
        c1, c2 = rng.uniform(0.1, 2.0, 2)
        return combine(c1, _drawn_body(rng, rng.choice(_KINDS[:3])), c2, _drawn_body(rng, rng.choice(_KINDS[:3])))
    if kind == "ellipse":
        return from_ellipse(random_ellipse(rng), M)
    if kind == "polygon":
        return from_polygon(random_polygon(rng), M)
    a = rng.uniform(0.0, 2.0 * math.pi)
    return from_segment(Segment(rng.uniform(0.2, 2.0) * np.array([math.cos(a), math.sin(a)])), M)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(_KINDS),
    st.sampled_from(_KINDS),
    st.integers(0, 2**32 - 1),
    _TURN,
    st.floats(0.0, 36.0),
    _TURN,
    st.none() | _TURN,
)
@example("ellipse", "polygon", 81, 1.0, 20.0, 2.0, None)  # m·A misses ELLIPSE_DET_TOL here: only m is checked
@example("sum", "segment", 28, 1.0, 28.0, 2.0, None)
@example("polygon", "sum", 36, 0.5, 36.0, 2.5, None)
@example("polygon", "polygon", 16, 0.3, 8.0, 2.9, 1.1)
@example("ellipse", "ellipse", 16, 0.3, 16.0, 2.9, 1.1)
@example("sum", "polygon", 16, 0.3, 24.0, 2.9, 1.1)
@example("ellipse", "sum", 16, 0.3, 32.0, 2.9, 1.1)
@example("sum", "sum", 16, 0.3, 36.0, 2.9, 1.1)
def test_equal_elements_cancel_in_every_mixed_area(kind_k, kind_l, seed, phi, s, psi, chi):
    # rho(g) is an isometry, and for tagged bodies an exact one at every s:
    # a moved body keeps its base and g, and a(gK, gL) = a(K, L) pairs the
    # bases, so areas and distances of a pair moved by one g are its own.
    # With chi, K moves by the product m1 m2 and L by m2 and then m1, each
    # factor R·axial(s/2)·R: both store the one element m1 @ m2, so
    # rho(m1 m2) = rho(m1) rho(m2) holds in bits.
    rng = np.random.default_rng(seed)
    k, l = _drawn_body(rng, kind_k), _drawn_body(rng, kind_l)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if chi is None:
            g = Mobius.rotation(phi) @ Mobius.axial(s) @ Mobius.rotation(psi)
            gk, gl = rho_act(g, k), rho_act(g, l)
        else:
            m1 = Mobius.rotation(phi) @ Mobius.axial(0.5 * s) @ Mobius.rotation(chi)
            m2 = Mobius.rotation(chi) @ Mobius.axial(0.5 * s) @ Mobius.rotation(psi)
            gk, gl = rho_act(m1 @ m2, k), rho_act(m1, rho_act(m2, l))
        # the identity keeps a moved body's element, and a raw matrix, here
        # of the other sign, moves a body to the element of the equal Mobius
        assert rho_act(Mobius(1.0, 0.0, 0.0, 1.0), gl).shape_tag.g == gl.shape_tag.g
        r = Mobius.rotation(phi + psi)
        assert gl.shape_tag.transform(-r.matrix).g == gl.shape_tag.transform(r).g
        assert mixed_area(gk.shape_tag, gl.shape_tag) == mixed_area(k.shape_tag, l.shape_tag)
        if k.shape_tag.area > 0.0 and l.shape_tag.area > 0.0:
            assert hyper_dist(normalize(gk), normalize(gl)) == hyper_dist(normalize(k), normalize(l))


def _disc_distances(s):
    """d(rho(g) disc, disc) for 100 draws g = R(phi)·axial(s)·R(psi), seed 3."""
    rng, disc = np.random.default_rng(3), unit_disc(M)
    return [hyper_dist(normalize(rho_act(_sheared(rng, s), disc)), normalize(disc)) for _ in range(100)]


@pytest.mark.xfail(strict=True, reason="Mobius @ rescales by the root of a determinant formed by cancellation")
def test_products_keep_their_translation_length_at_s30():
    # the rescale adds about eps e^s relative to every product: 3.2e-5 here
    want = iota_dist_closed(30.0)
    assert all(d == pytest.approx(want, rel=1e-12, abs=0.0) for d in _disc_distances(30.0))


@pytest.mark.xfail(strict=True, raises=ValueError, reason="the determinant of a product rounds to <= 0 past s = 37")
def test_products_are_never_refused_at_s40():
    # the same cancellation: ad - bc of the raw product has absolute error
    # eps e^s, so about 60 of 100 valid products are refused here
    _disc_distances(40.0)


def test_rho_act_form_invariance():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        m = _random_mobius(rng)
        h1, h2 = _random_blim(rng), _random_blim(rng)
        before = form_A_spectral(h1, h2)
        after = form_A_spectral(rho_act(m, h1), rho_act(m, h2))
        worst = max(worst, abs(after - before))
    assert worst < 1e-8


def test_rho_act_group_law():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m1, m2 = _random_mobius(rng), _random_mobius(rng)
        h = _random_blim(rng)
        lhs = rho_act(m1 @ m2, h)
        rhs = rho_act(m1, rho_act(m2, h))
        assert np.abs(lhs.samples - rhs.samples).max() < 1e-9


def test_rho_act_warns_on_unresolved_spectrum():
    spike = EvenFn(2.0 + 0.5 * np.cos((M // 2 - 2) * THETA))
    with pytest.warns(SpectralTailWarning):
        rho_act(Mobius.axial(0.5), spike)


def test_rotation_fixes_only_the_disc():
    rot = Mobius.rotation(math.pi * (math.sqrt(5.0) - 1.0))
    disc = unit_disc(M)
    assert np.abs(rho_act(rot, disc).samples - disc.samples).max() < 1e-12
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = normalize(from_ellipse(_nondisc_ellipse(rng), M))
        moved = rho_act(rot, p.fn)
        assert np.abs(moved.samples - p.fn.samples).max() > 1e-6


def _nondisc_ellipse(rng):
    s = rng.uniform(0.5, 2.0)
    a = rng.uniform(0, 2 * math.pi)
    r = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    return Ellipse(r @ np.diag([math.exp(s / 2), math.exp(-s / 2)]) @ r.T)


def test_halfplane_examples():
    ident = Mobius(1.0, 0.0, 0.0, 1.0)
    z = HalfPlanePoint(0.3, 2.0)
    w = halfplane_apply(ident, z)
    assert (w.x, w.y) == (0.3, 2.0)

    w = halfplane_apply(Mobius.axial(1.5), BASEPOINT)
    assert w.x == pytest.approx(0.0, abs=1e-15)
    assert w.y == pytest.approx(math.exp(1.5), rel=1e-14)

    rng = np.random.default_rng(7)
    for _ in range(20):
        m1, m2 = _random_mobius(rng), _random_mobius(rng)
        lhs = halfplane_apply(m1 @ m2, z)
        rhs = halfplane_apply(m1, halfplane_apply(m2, z))
        assert abs(lhs.x - rhs.x) < 1e-12 and abs(lhs.y - rhs.y) < 1e-12


def test_mobius_from_halfplane():
    assert mobius_from_halfplane(BASEPOINT) == Mobius(1.0, 0.0, 0.0, 1.0)
    s = 0.8
    m = mobius_from_halfplane(HalfPlanePoint(0.0, math.exp(s)))
    assert m.a == pytest.approx(math.exp(s / 2), rel=1e-15)
    assert m.d == pytest.approx(math.exp(-s / 2), rel=1e-15)
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = HalfPlanePoint(float(rng.uniform(-3, 3)), float(math.exp(rng.uniform(-2, 2))))
        w = halfplane_apply(mobius_from_halfplane(z), BASEPOINT)
        assert abs(w.x - z.x) < 1e-12 and abs(w.y - z.y) < 1e-12 * z.y


def test_dist_h2_examples():
    z = HalfPlanePoint(0.4, 1.7)
    assert dist_h2(z, z) == 0.0
    s = 1.3
    assert dist_h2(BASEPOINT, HalfPlanePoint(0.0, math.exp(s))) == pytest.approx(s, rel=1e-13)
    rng = np.random.default_rng(9)
    for _ in range(20):
        z1 = HalfPlanePoint(float(rng.uniform(-2, 2)), float(math.exp(rng.uniform(-1, 1))))
        z2 = HalfPlanePoint(float(rng.uniform(-2, 2)), float(math.exp(rng.uniform(-1, 1))))
        m = _random_mobius(rng)
        before = dist_h2(z1, z2)
        after = dist_h2(halfplane_apply(m, z1), halfplane_apply(m, z2))
        assert abs(before - after) < 1e-10


def test_iota_examples():
    p = iota(BASEPOINT, M)
    assert np.abs(p.fn.samples - 1.0).max() < 1e-14
    assert abs(form_A(p.fn) - 1.0) < 1e-12

    rng = np.random.default_rng(10)
    for _ in range(20):
        m = _random_mobius(rng)
        z = HalfPlanePoint(float(rng.uniform(-2, 2)), float(math.exp(rng.uniform(-1, 1))))
        lhs = rho_act(m, iota(z, M).fn)
        rhs = iota(halfplane_apply(m, z), M).fn
        assert np.abs(lhs.samples - rhs.samples).max() < 1e-10
        assert abs(form_A(iota(z, M).fn) - 1.0) < 1e-12


def test_iota_dist_quadrature_examples():
    assert iota_dist_quadrature(Mobius(1.0, 0.0, 0.0, 1.0)) == 0.0

    s = 1e-3
    m = Mobius.axial(s)
    cosh_val = math.cosh(iota_dist_quadrature(m))
    assert abs(cosh_val - (1.0 + 3.0 * s * s / 16.0)) < 1e-13

    rng = np.random.default_rng(11)
    for _ in range(10):
        mm = _random_mobius(rng)
        z = halfplane_apply(mm, BASEPOINT)
        d1 = iota_dist_quadrature(mm)
        d2 = hyper_dist(iota(BASEPOINT, M), iota(z, M))
        assert abs(d1 - d2) < 1e-10


def test_iota_dist_closed_examples():
    assert iota_dist_closed(0.0) == 0.0
    assert iota_dist_closed(1.0) == pytest.approx(DIST_DISC_T1, abs=1e-13)
    for s in (0.5, 1.0, 2.0, 5.0, 10.0):
        assert abs(iota_dist_closed(s) - iota_dist_quadrature(Mobius.axial(s))) < 1e-10
    with pytest.raises(ValueError):
        iota_dist_closed(-0.1)


def test_iota_dist_quadrature_over_the_double_range():
    # diag(a, 1/a) for a = 10^k: the peak width 1/a^2 underflows past k = 154;
    # every call matches the closed form or refuses, with no other exception
    # and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(301):
            a = 10.0**k
            try:
                got = iota_dist_quadrature(Mobius(a, 0.0, 0.0, 1.0 / a))
            except ValueError:
                continue
            assert got == pytest.approx(iota_dist_closed(2.0 * math.log(a)), rel=1e-12, abs=0.0)


def test_iota_dist_envelope_and_band():
    lo_start = 2.0 * math.log(math.pi / 2.0)
    for s in np.linspace(0.0, 40.0, 201):
        s = float(s)
        d = iota_dist_closed(s)
        assert d <= math.acosh(math.exp(s / 2)) + 1e-12 if s > 0 else d == 0.0
        if s > lo_start:
            assert d >= math.acosh(2.0 * math.exp(s / 2) / math.pi) - 1e-12
        assert abs(d - 0.5 * s) <= 0.5


def test_curvature_ratio_small_s():
    r = iota_dist_closed(1e-2) / 1e-2
    assert abs(r - math.sqrt(3.0 / 8.0)) < 1e-4


def _iota_dist_mp(q):
    """acosh C for a shear q = s0 - 1/s0, C = (2/pi) s0 E(m = 1 - s0^-4), with
    enough digits that C - 1 ~ 3q^2/16 survives the subtraction."""
    with mpmath.workdps(40 + max(0, int(-2 * mpmath.log10(q)))):
        s0 = q / 2 + mpmath.sqrt(q * q / 4 + 1)
        return float(mpmath.acosh(2 / mpmath.pi * s0 * mpmath.ellipe(1 - s0**-4)))


def test_iota_dist_at_small_shear_matches_mpmath():
    # C - 1 = q^2 r with no cancellation: a series in q^2 for the closed form,
    # an integrand free of 1 - 1 for the quadrature, down to q = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-300, 1):
            q = 10.0**k
            expect = _iota_dist_mp(mpmath.mpf(q))
            assert iota_dist_quadrature(Mobius(1.0, q, 0.0, 1.0)) == pytest.approx(expect, rel=1e-12, abs=0.0)
            s = 2.0 * math.asinh(0.5 * q)  # q = 2 sinh(s/2)
            with mpmath.workdps(700):
                q_of_s = 2 * mpmath.sinh(mpmath.mpf(s) / 2)
            assert iota_dist_closed(s) == pytest.approx(_iota_dist_mp(q_of_s), rel=1e-12, abs=0.0)
    for s in (1e-7, 1e-8, 1e-20):
        assert iota_dist_closed(s) / s == pytest.approx(math.sqrt(3.0 / 8.0), rel=1e-15)


def test_dist_h2_over_the_double_range():
    # 2 asinh(q/2) with q = hypot(a - d, b + c) of adj(B)·A: no square of an
    # entry is formed, so points 1e-300 to 1e300 high stay finite and exact
    def expect(z1, z2):
        with mpmath.workdps(30):
            x1, y1, x2, y2 = (mpmath.mpf(v) for v in (z1.x, z1.y, z2.x, z2.y))
            return float(2 * mpmath.asinh(mpmath.sqrt(((x1 - x2) ** 2 + (y1 - y2) ** 2) / (4 * y1 * y2))))

    far = dist_h2(HalfPlanePoint(0.0, 1e-160), HalfPlanePoint(0.0, 1e160))
    assert far == pytest.approx(320.0 * math.log(10.0), rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in range(-300, 301, 20):
            for b in range(-300, 301, 50):
                for x in (0.0, 1.0, -3.5):
                    z1, z2 = HalfPlanePoint(0.0, 10.0**a), HalfPlanePoint(x, 10.0**b)
                    d = dist_h2(z1, z2)
                    assert math.isfinite(d) and d == pytest.approx(expect(z1, z2), rel=1e-14, abs=0.0)


def test_rho_act_is_isometry_on_hyperboloid_points():
    rng = np.random.default_rng(12)
    for _ in range(15):
        m = _random_mobius(rng)
        p = normalize(from_ellipse(_nondisc_ellipse(rng), M))
        q = normalize(from_ellipse(_nondisc_ellipse(rng), M))
        mp = normalize(rho_act(m, p.fn))
        mq = normalize(rho_act(m, q.fn))
        assert abs(hyper_dist(mp, mq) - hyper_dist(p, q)) < 1e-12
