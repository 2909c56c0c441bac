"""Reference values computed apart from hypkonvex, with scipy and numpy only.

A body is described here as ("ellipse", A) for the image A·D of the unit
disc, ("polygon", points) for the convex hull of points, or ("smooth", c)
for the support function a0 + sum (a_n cos n theta + b_n sin n theta).
The area form is A(K, L) = V(K, L) / pi with V the mixed area, and the
hyperbolic distance of the normalized bodies is acosh A(K, L) / sqrt(A(K) A(L)).
"""

import math

import numpy as np
from scipy.spatial import ConvexHull
from scipy.special import ellipe


def closed_kernel(t):
    """2 e^t E(k) / pi with complementary modulus k' = e^{-2t}: cosh of the
    extrinsic distance between disc-orbit points 2t apart."""
    return 2.0 * math.exp(t) * float(ellipe(-math.expm1(-4.0 * t))) / math.pi


def hull(points):
    """Vertices of the convex hull, counterclockwise."""
    pts = np.asarray(points, dtype=float)
    return pts[ConvexHull(pts).vertices]


def minkowski(p, q):
    """Hull of all pairwise vertex sums: the Minkowski sum of two polygons."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return hull((p[:, None, :] + q[None, :, :]).reshape(-1, 2))


def _ellipse_perimeter(m):
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    return 4.0 * s[0] * float(ellipe(1.0 - (s[1] / s[0]) ** 2))


def area(body):
    kind, x = body
    if kind == "ellipse":
        return math.pi * abs(float(np.linalg.det(x)))
    if kind == "polygon":
        return float(ConvexHull(x).volume)
    return math.pi * _parseval(x, x)


def perimeter(body):
    kind, x = body
    if kind == "ellipse":
        return _ellipse_perimeter(x)
    if kind == "polygon":
        return float(ConvexHull(x).area)  # in the plane, scipy's "area" is the perimeter
    return 2.0 * math.pi * x["a0"]


def _parseval(c1, c2):
    """(1/2pi) int (h1 h2 - h1' h2') from the generator's own coefficients."""
    if c1["n"] != c2["n"]:
        raise ValueError("coefficient tables differ in their harmonics")
    n = np.asarray(c1["n"], dtype=float)
    cross = np.asarray(c1["a"]) * np.asarray(c2["a"]) + np.asarray(c1["b"]) * np.asarray(c2["b"])
    return c1["a0"] * c2["a0"] + 0.5 * float(np.dot(1.0 - n**2, cross))


def mixed_area(k, l):
    (kk, x), (lk, y) = k, l
    if kk == lk == "ellipse":
        # V(A D, B D) = det B * V(B^-1 A D, D) and V(K, D) = perimeter(K) / 2.
        return abs(float(np.linalg.det(y))) * 0.5 * _ellipse_perimeter(np.linalg.solve(y, x))
    if kk == lk == "polygon":
        return 0.5 * (float(ConvexHull(minkowski(x, y)).volume) - area(k) - area(l))
    if {kk, lk} == {"ellipse", "polygon"}:
        a, v = (x, hull(y)) if kk == "ellipse" else (y, hull(x))
        e = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(e[:, 0], e[:, 1])
        normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / lengths[:, None]
        # V(E, P) = (1/2) sum over edges of length * h_E(outer normal), h_E(n) = |A^T n|.
        return 0.5 * float(np.dot(lengths, np.linalg.norm(normals @ a, axis=1)))
    if kk == lk == "smooth":
        return math.pi * _parseval(x, y)
    raise ValueError("no oracle for %s against %s" % (kk, lk))


def cosh_dist(k, l):
    return mixed_area(k, l) / math.sqrt(area(k) * area(l))


def normalized_perimeter(body):
    """Perimeter of the body scaled to area pi."""
    return perimeter(body) / math.sqrt(area(body) / math.pi)


def geodesic_row(k, l, t):
    """(cosh d(a, r), cosh d(r, b), perimeter of r) at r = normalize((1-t) a + t b)."""
    c = cosh_dist(k, l)
    norm = math.sqrt((1.0 - t) ** 2 + 2.0 * t * (1.0 - t) * c + t * t)
    per = ((1.0 - t) * normalized_perimeter(k) + t * normalized_perimeter(l)) / norm
    return ((1.0 - t) + t * c) / norm, ((1.0 - t) * c + t) / norm, per


def covering_number(eps):
    """Balls of radius eps in the visual metric (sqrt(pi)/2) sqrt(sin angle)
    needed to cover the circle of directions."""
    x = 4.0 * eps * eps / math.pi
    if x >= 1.0:
        return 1
    return math.ceil(math.pi / (2.0 * math.asin(x)))


def covering_slope(j_min, j_max):
    js = np.arange(j_min, j_max + 1)
    counts = [covering_number(2.0 ** -int(j)) for j in js]
    return float(np.polyfit(js * math.log(2.0), np.log(counts), 1)[0])


def shoelace(points):
    p = np.asarray(points, dtype=float)
    return 0.5 * float(np.sum(p[:, 0] * np.roll(p[:, 1], -1) - p[:, 1] * np.roll(p[:, 0], -1)))


def hand_checks():
    """Each oracle against values known by hand; returns the failures."""
    root_pi = math.sqrt(math.pi)
    disc = ("ellipse", np.eye(2))
    square = ("polygon", [[x, y] for x in (-root_pi / 2, root_pi / 2) for y in (-root_pi / 2, root_pi / 2)])
    sq2 = ("polygon", [[x, y] for x in (-1.0, 1.0) for y in (-1.0, 1.0)])
    rect = ("polygon", [[x, y] for x in (-0.5, 0.5) for y in (-2.0, 2.0)])
    ripple = {"a0": 1.0, "n": [2], "a": [0.2], "b": [0.0]}  # A(h) = 1 - 1.5 * 0.2^2
    flat = {"a0": 1.0, "n": [2], "a": [0.0], "b": [0.0]}
    cases = [
        ("disc vs area-pi square", cosh_dist(disc, square), 2.0 / root_pi),
        ("2x2 square vs 1x4 rectangle", math.acosh(cosh_dist(sq2, rect)), math.log(2.0)),
        ("disc vs disc, as ellipses", cosh_dist(disc, ("ellipse", [[0.0, -1.0], [1.0, 0.0]])), 1.0),
        ("disc vs area-pi square, rows", geodesic_row(disc, square, 0.5)[0], math.sqrt((1.0 + 2.0 / root_pi) / 2.0)),
        ("disc vs 2-harmonic ripple", cosh_dist(("smooth", flat), ("smooth", ripple)), 1.0 / math.sqrt(0.94)),
        ("unit circle perimeter", perimeter(disc), 2.0 * math.pi),
        ("kernel at t -> 0", closed_kernel(1e-12), 1.0),
        ("visual metric dimension", covering_slope(4, 12), 2.0),
    ]
    tol = {"visual metric dimension": 0.02}
    return ["%s: %.17g, expected %.17g" % (name, got, want)
            for name, got, want in cases
            if abs(got - want) > tol.get(name, 1e-12) * max(1.0, abs(want))]
