"""Shape primitives: validation, Minkowski sums, closed-form mixed areas."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hypkonvex.shapes import (
    Ellipse,
    Polygon,
    Segment,
    Sum,
    convex_hull,
    minkowski_combination,
    minkowski_sum,
    mixed_area,
)

from shoelace import shoelace_area

SQUARE = Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))


def test_ellipse_rejects_bad_determinant():
    with pytest.raises(ValueError):
        Ellipse(np.array([[2.0, 0.0], [0.0, 1.0]]))
    Ellipse(np.array([[2.0, 0.0], [0.0, 0.5]]))  # fine
    # at stretch 1e5 a determinant of 5 is no rounding error
    with pytest.raises(ValueError):
        Ellipse(np.array([[50000.000025, 49999.999975], [49999.999975, 50000.000025]]))
    Ellipse(np.array([[50000.000005, 49999.999995], [49999.999995, 50000.000005]]))  # det 1 to rounding


def test_segment_rejects_zero():
    with pytest.raises(ValueError):
        Segment(np.zeros(2))


def test_polygon_validation():
    with pytest.raises(ValueError):  # asymmetric
        Polygon(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.1], [0.0, -1.0]]))
    with pytest.raises(ValueError):  # collinear triple
        Polygon(np.array([[1.0, -1.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]]))
    Polygon(1e-7 * SQUARE.vertices)  # a scaled copy of a valid polygon stays valid


def test_polygon_check_is_scale_invariant():
    # Squares and segments 10^k, k = -300…300, build and pair with no warning:
    # the perimeter is the sum of the edge lengths, the area the shoelace area
    # wherever that is a normal double, and a segment's area is exactly 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-300, 301, 25):
            p = Polygon(10.0**k * SQUARE.vertices)
            e = np.roll(p.vertices, -1, axis=0) - p.vertices
            assert p.perimeter == float(np.hypot(e[:, 0], e[:, 1]).sum())
            if abs(k) <= 150:
                assert p.area == pytest.approx(shoelace_area(p.vertices), rel=1e-13, abs=0.0)
            for v in ([1.0, 0.0], [3.0, -4.0], [-1e-5, 2.0], [0.7, 0.3]):
                s = Segment(10.0**k * np.array(v))
                assert s.area == 0.0 and mixed_area(s, Segment(0.5 * s.generators[0])) == 0.0


def test_shapes_compare_by_identity():
    # == never compares array fields, so it never raises, and shapes hash
    v = SQUARE.vertices
    shapes = [Polygon(v), Polygon(v.copy()), Ellipse(np.eye(2)), Ellipse(np.eye(2))]
    shapes += [Segment(np.array([1.0, 0.0])), Segment(np.array([1.0, 0.0]))]
    for a in shapes:
        assert a == a
        assert [a == b for b in shapes].count(True) == 1
    assert len(set(shapes)) == len(shapes) and shapes[0] in set(shapes)


def test_square_support_and_area():
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    expect = np.abs(np.cos(theta)) + np.abs(np.sin(theta))
    assert np.abs(SQUARE.support(theta) - expect).max() < 1e-14
    assert SQUARE.area == pytest.approx(4.0, abs=0.0)
    assert SQUARE.perimeter == pytest.approx(8.0, abs=1e-14)


def test_ellipse_perimeter_against_quadrature():
    e = Ellipse(np.array([[2.0, 0.0], [0.0, 0.5]]))
    oracle = quad(lambda t: math.sqrt(4.0 * math.cos(t) ** 2 + 0.25 * math.sin(t) ** 2),
                  0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13)[0]
    assert e.perimeter == pytest.approx(oracle, rel=1e-12)


def test_minkowski_sum_of_segments_is_parallelogram():
    s1 = Segment(np.array([1.0, 0.0]))
    s2 = Segment(np.array([0.0, 1.0]))
    p = minkowski_sum([(1.0, s1), (1.0, s2)])
    assert isinstance(p, Polygon)
    got = {tuple(np.round(v, 12)) for v in p.vertices}
    assert got == {(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)}


def test_minkowski_sum_parallel_segments_degenerates():
    # parallel generators are kept side by side, not merged: the sum is the
    # segment [-3, 3] x {0}, held as its two generators, with no area
    s1 = Segment(np.array([2.0, 0.0]))
    s2 = Segment(np.array([-1.0, 0.0]))
    out = minkowski_sum([(1.0, s1), (1.0, s2)])
    assert isinstance(out, Polygon) and np.array_equal(out.generators, [[2.0, 0.0], [4.0, 0.0]])
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    assert np.abs(out.support(theta) - 3.0 * np.abs(np.cos(theta))).max() < 1e-15
    assert out.area == 0.0 and out.perimeter == 12.0


def test_minkowski_sum_supports_add():
    rng = np.random.default_rng(7)
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    for _ in range(20):
        a = _random_polygon(rng)
        b = _random_polygon(rng)
        total = minkowski_sum([(1.0, a), (1.0, b)])
        direct = a.support(theta) + b.support(theta)
        assert np.abs(total.support(theta) - direct).max() < 1e-11 * (1.0 + direct.max())


def _random_polygon(rng, pairs=5):
    while True:
        ang = rng.uniform(0.0, math.pi, pairs)
        rad = np.exp(rng.normal(0.0, 0.4, pairs))
        pts = rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        try:
            hull = convex_hull(np.concatenate([pts, -pts]))
            if hull.shape[0] >= 4:
                return Polygon(hull)
        except ValueError:
            continue


def test_mixed_area_square_with_itself():
    assert mixed_area(SQUARE, SQUARE) == pytest.approx(4.0, abs=0.0)


def test_mixed_area_polarization_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p, q = _random_polygon(rng), _random_polygon(rng)
        total = minkowski_sum([(1.0, p), (1.0, q)])
        oracle = 0.5 * (shoelace_area(total.vertices) - p.area - q.area)
        direct = mixed_area(p, q)
        assert direct == pytest.approx(oracle, rel=1e-10, abs=1e-12)
        assert mixed_area(q, p) == pytest.approx(direct, rel=1e-12)


def test_mixed_area_segment_slab():
    # a(K, [-v, v]) = 2|v| h_K(v_perp)
    s = Segment(np.array([2.0, 0.0]))
    assert mixed_area(SQUARE, s) == pytest.approx(2.0 * 2.0 * 1.0, abs=1e-14)
    assert mixed_area(s, SQUARE) == pytest.approx(4.0, abs=1e-14)
    s2 = Segment(np.array([0.0, 3.0]))
    # parallelogram of two segments: 2 |v x w|
    assert mixed_area(s, s2) == pytest.approx(2.0 * 6.0, abs=1e-13)


def test_mixed_area_ellipse_disc_is_half_perimeter():
    e = Ellipse(np.array([[2.0, 0.0], [0.0, 0.5]]))
    d = Ellipse(np.eye(2))
    assert mixed_area(e, d) == pytest.approx(e.perimeter / 2.0, rel=1e-13)
    assert mixed_area(d, e) == pytest.approx(e.perimeter / 2.0, rel=1e-13)


def test_mixed_area_ellipse_polygon_consistency():
    # surface-measure formula against a fine polygonal approximation of the ellipse
    raw = np.array([[1.5, 0.3], [0.1, 0.9]])
    e = Ellipse(raw / math.sqrt(np.linalg.det(raw)))
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    approx = Polygon(e.boundary(theta))
    direct = mixed_area(SQUARE, e)
    via_poly = mixed_area(SQUARE, approx)
    assert direct == pytest.approx(via_poly, rel=1e-5)


def test_transforms():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    sq2 = SQUARE.transform(m)
    assert shoelace_area(sq2.vertices) == pytest.approx(4.0, rel=1e-14)
    e = Ellipse(np.eye(2)).transform(m)
    assert np.allclose(e.matrix, m)


def test_convex_hull_drops_interior_and_collinear():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (1.0, 1.0), (0.0, 1.0), (0.2, 0.4)]
    hull = convex_hull(pts)
    assert hull.shape == (4, 2)
    assert shoelace_area(hull) == pytest.approx(1.0, abs=0.0)


def test_minkowski_sum_with_shared_edge_directions():
    # two axis-aligned boxes share all four edge normals: edges must merge
    a = Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
    b = Polygon(np.array([[2.0, 0.5], [-2.0, 0.5], [-2.0, -0.5], [2.0, -0.5]]))
    total = minkowski_sum([(1.0, a), (1.0, b)])
    got = {tuple(np.round(v, 12)) for v in total.vertices}
    assert got == {(3.0, 1.5), (-3.0, 1.5), (-3.0, -1.5), (3.0, -1.5)}
    assert total.area == pytest.approx(a.area + b.area + 2.0 * mixed_area(a, b), rel=1e-13)


def test_vertices_of_sums_with_parallel_generators_convert_back():
    # the walk takes each run of parallel generators as one edge, so the
    # vertices of a sum are strictly convex and Polygon() reads them back
    box = Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
    wide = Polygon(np.array([[2.0, 0.5], [-2.0, 0.5], [-2.0, -0.5], [2.0, -0.5]]))
    seg = Segment(np.array([1.0, 0.0]))
    for total in (minkowski_sum([(1.0, box), (1.0, wide)]), minkowski_sum([(1.0, box), (2.0, seg)])):
        assert len(total.generators) > 2 and len(total.vertices) == 4
        again = Polygon(total.vertices)
        assert len(again.generators) == 2
        assert again.area == total.area and again.perimeter == total.perimeter
    assert np.array_equal(Polygon(box.vertices).generators, box.generators)


@pytest.mark.parametrize("seed", [45, 99, 113, 268])
def test_sums_of_bodies_of_very_different_sizes_are_not_refused(seed):
    # (P + 1000 Q) + P: P's edges recur, 1000 times shorter than the sum, and
    # the walked vertices round their turns by a few eps of the sum's size;
    # turns within that are merged, so the sum is accepted and bilinear.
    from hypkonvex.verify import random_polygon

    rng = np.random.default_rng(seed)
    p, q = random_polygon(rng), random_polygon(rng)
    s = minkowski_combination([(1.0, p), (1000.0, q)])
    total = minkowski_combination([(1.0, s), (1.0, p)])
    assert total.area == pytest.approx(s.area + 2.0 * mixed_area(s, p) + p.area, rel=1e-12)
    assert total.perimeter == pytest.approx(s.perimeter + p.perimeter, rel=1e-12)


def test_minkowski_sum_segment_with_polygon():
    sq = Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
    s = Segment(np.array([0.0, 2.0]))
    total = minkowski_sum([(1.0, sq), (1.0, s)])
    got = {tuple(np.round(v, 12)) for v in total.vertices}
    assert got == {(1.0, 3.0), (-1.0, 3.0), (-1.0, -3.0), (1.0, -3.0)}
    # a horizontal segment's edge fan holds -0.0, which must not split the edge at angle pi
    total = minkowski_sum([(1.0, sq), (1.0, Segment(np.array([1.0, 0.0])))])
    got = {tuple(np.round(v, 12)) for v in total.vertices}
    assert got == {(2.0, 1.0), (-2.0, 1.0), (-2.0, -1.0), (2.0, -1.0)}


def _tilted_ellipse():
    raw = np.array([[1.5, 0.3], [0.1, 0.9]])
    return Ellipse(raw / math.sqrt(np.linalg.det(raw)))


def test_minkowski_combination_canonical_form():
    disc = Ellipse(np.eye(2))
    seg = Segment(np.array([0.0, 2.0]))
    assert minkowski_combination([(1.0, SQUARE)]) is SQUARE
    assert minkowski_combination([(1.0, disc)]) is disc
    # two or more polygonal terms merge into one polygon of coefficient 1
    poly = minkowski_combination([(2.0, SQUARE), (0.5, seg)])
    assert isinstance(poly, Polygon)
    got = {tuple(np.round(v, 12)) for v in poly.vertices}
    assert got == {(2.0, 3.0), (-2.0, 3.0), (-2.0, -3.0), (2.0, -3.0)}
    # every other term keeps its coefficient; a Sum operand expands
    body = minkowski_combination([(0.5, disc), (2.0, SQUARE)])
    assert isinstance(body, Sum)
    assert body.terms == ((0.5, disc), (2.0, SQUARE))
    nested = minkowski_combination([(2.0, body), (1.0, seg)])
    assert [c for c, _ in nested.terms] == [1.0, 1.0]
    assert isinstance(nested.terms[1][1], Polygon) and nested.terms[1][1].area == pytest.approx(96.0, rel=1e-14)
    assert minkowski_combination([(3.0, disc)]).terms == ((3.0, disc),)
    assert minkowski_combination([(3.0, SQUARE)]).terms == ((3.0, SQUARE),)
    with pytest.raises(ValueError):
        minkowski_combination([(0.0, disc)])


def test_sum_of_disc_and_polygon_obeys_steiner():
    # K + cD: area(K) + c per(K) + pi c^2 and perimeter per(K) + 2 pi c
    c = 0.7
    body = minkowski_combination([(c, Ellipse(np.eye(2))), (1.0, SQUARE)])
    assert body.area == pytest.approx(4.0 + 8.0 * c + math.pi * c * c, rel=1e-14)
    assert body.perimeter == pytest.approx(8.0 + 2.0 * math.pi * c, rel=1e-14)
    assert mixed_area(body, Ellipse(np.eye(2))) == pytest.approx(body.perimeter / 2.0, rel=1e-14)


def test_sum_boundary_support_and_derivative_agree():
    body = minkowski_combination(
        [(0.6, _tilted_ellipse()), (1.3, Segment(np.array([1.0, 0.5]))), (0.4, SQUARE), (0.2, Ellipse(np.eye(2)))]
    )
    theta = np.linspace(0.0, 2.0 * np.pi, 999, endpoint=False) + 1e-3
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    uperp = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    pts = body.boundary(theta)
    assert np.abs(np.sum(pts * u, axis=1) - body.support(theta)).max() < 1e-13
    assert np.abs(np.sum(pts * uperp, axis=1) - body.support_deriv(theta)).max() < 1e-13
    assert body.support_deriv(0.4) == pytest.approx(float(body.support_deriv(np.array([0.4]))[0]), abs=1e-15)
    dense = np.linspace(0.0, 2.0 * np.pi, 1 << 14, endpoint=False)
    assert body.area == pytest.approx(shoelace_area(body.boundary(dense)), rel=1e-6)


def test_sum_transform_keeps_mixed_areas():
    m = np.array([[1.2, 0.7], [0.1, 0.9]])
    m /= math.sqrt(np.linalg.det(m))
    body = minkowski_combination([(0.6, _tilted_ellipse()), (1.0, SQUARE)])
    moved = body.transform(m)
    assert isinstance(moved, Sum) and isinstance(moved.terms[1][1], Polygon)
    assert moved.area == pytest.approx(body.area, rel=1e-13)
    other = Ellipse(np.diag([2.0, 0.5]))
    assert mixed_area(moved, other.transform(m)) == pytest.approx(mixed_area(body, other), rel=1e-13)
