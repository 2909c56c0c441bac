"""Exact primitives for plane symmetric convex bodies.

Three shape families carry closed forms: ellipses (linear images of the unit
disc), symmetric segments, and symmetric convex polygons.  A fourth, Sum, is
a positive Minkowski combination of them, so the closed forms survive every
nonnegative combination of bodies.  Each defines only its homogeneous
support, its support point and its image under a linear map; the support
function, its derivative, the boundary, and the area a(K, K) and perimeter
2 a(K, disc) as mixed areas derive from these.  Mixed areas between any two
shapes are available in closed form, which is what keeps segment and polygon
computations free of grid error.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .specfun import agm_KE_from_complement

DET_TOL = 1e-9
SYM_TOL = 1e-12


def _check_unit_det(a, b, c, d, tol):
    # |ad - bc - 1| <= tol plus rounding, 16 eps (|ad| + |bc|), checked on
    # entries divided by the largest above 1, so that no product overflows
    s = max(1.0, abs(float(a)), abs(float(b)), abs(float(c)), abs(float(d)))
    a, b, c, d = (float(x) / s for x in (a, b, c, d))
    det = a * d - b * c
    if abs(det - 1.0 / s / s) > tol / s / s + 16.0 * sys.float_info.epsilon * (abs(a * d) + abs(b * c)):
        raise ValueError("determinant must be 1, got %.17g" % (det * s * s))


def _shear(a, b, c, d):
    """q = hypot(a - d, b + c) = s0 - 1/s0 for the largest singular value s0
    of the unit-determinant [[a, b], [c, d]].

    s0^2 + s0^-2 = a^2 + b^2 + c^2 + d^2 = q^2 + 2(ad - bc): no product of
    entries is formed, and nothing overflows where the entries do not.
    """
    return math.hypot(a - d, b + c)


def _stretch(a, b, c, d):
    """The largest singular value s0 = q/2 + hypot(q/2, 1), q = _shear."""
    q = _shear(a, b, c, d)
    return 0.5 * q + math.hypot(0.5 * q, 1.0)


def _form_value(s0):
    """A(ellipse, disc) = perimeter / 2pi = (2/pi) s0 E(k' = 1/s0^2) for an
    area-pi ellipse of stretch s0; a NaN stretch (an overflowed product) is
    passed on for the caller to refuse."""
    if math.isnan(s0):
        return s0
    _, E = agm_KE_from_complement(1.0 / s0 / s0)
    return 2.0 / math.pi * s0 * E


def _adjugate_product(b, a):
    """The entries (p, q, r, s) of adj(B)·A = B^{-1}·A for unit-determinant
    2x2 arrays B and A, in float arithmetic: adj(A)·A is exactly δ·I."""
    (b11, b12), (b21, b22) = b.tolist()
    (a11, a12), (a21, a22) = a.tolist()
    return (b22 * a11 - b12 * a21, b22 * a12 - b12 * a22, b11 * a21 - b21 * a11, b11 * a22 - b21 * a12)


def _freeze(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _next(a):
    """a shifted one step back along axis 0: a[1], ..., a[n-1], a[0]."""
    return np.concatenate((a[1:], a[:1]))


def _turns(e):
    """The cross products e_i x e_(i+1) of consecutive (n, 2) edges, and the
    thresholds SYM_TOL |e_i| |e_(i+1)| at or below which a turn is flat."""
    f = _next(e)
    length = np.hypot(e[:, 0], e[:, 1])
    return e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0], SYM_TOL * length * _next(length)


def _unit_vectors(theta):
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)])


class _Body:
    """A body given by its homogeneous support ``hsupport(w)``, the largest
    <x, w> over the body, and its support point ``support_point(w)``, the
    maximizing x (the gradient of hsupport), both at (2, n) vectors w.

    Everything else derives from these two: the support function, its
    derivative u_perp·x(u), the boundary, the area a(K, K) and the perimeter
    2 a(K, disc), the last two once per body.
    """

    def support(self, theta):
        return self.hsupport(_unit_vectors(theta))

    def support_deriv(self, theta):
        u = _unit_vectors(theta)
        x = self.support_point(u)
        return u[0] * x[1] - u[1] * x[0]

    def boundary(self, theta):
        return self.support_point(_unit_vectors(theta)).T

    @cached_property
    def area(self):
        return _mixed_area(self, self)

    @cached_property
    def perimeter(self):
        return 2.0 * _mixed_area(self, _DISC)

    @cached_property
    def _turned_fan(self):
        # J e for the edge fan e, J the quarter turn (x, y) -> (y, -x): the
        # outward edge normals times the edge lengths, as (2, n) vectors
        e = _edge_fan(self)
        return _freeze(np.stack([e[:, 1], -e[:, 0]]))


@dataclass(frozen=True, eq=False)
class Ellipse(_Body):
    """The body A·D, the image of the closed unit disc under ``matrix``.

    ad - bc must be 1 to ``DET_TOL`` plus the rounding of the entries,
    16 eps (|ad| + |bc|), and the area is pi by that contract.  Every other
    invariant depends only on the largest singular value of the matrix, its
    stretch.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _freeze(self.matrix)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)):
            raise ValueError("ellipse matrix must be a finite 2x2 array")
        _check_unit_det(*m.ravel(), DET_TOL)
        object.__setattr__(self, "matrix", m)

    def hsupport(self, w):
        v = self.matrix.T @ w
        return np.hypot(v[0], v[1])

    def support_point(self, w):
        # A (A^T w / |A^T w|)
        v = self.matrix.T @ w
        return self.matrix @ (v / np.hypot(v[0], v[1]))

    area = math.pi

    def transform(self, m):
        return Ellipse(np.asarray(m, dtype=float) @ self.matrix)


_DISC = Ellipse(np.eye(2))


@dataclass(frozen=True, eq=False)
class Segment(_Body):
    """The degenerate body [-v, v] for a nonzero endpoint v."""

    endpoint: np.ndarray

    def __post_init__(self):
        v = _freeze(self.endpoint)
        if v.shape != (2,) or not np.all(np.isfinite(v)):
            raise ValueError("segment endpoint must be a finite 2-vector")
        if np.hypot(v[0], v[1]) == 0.0:
            raise ValueError("segment endpoint must be nonzero")
        object.__setattr__(self, "endpoint", v)

    def _dot(self, w):
        """<v, w>, each product a product of mantissas times a power of two:
        nothing overflows before the sum, and <v, J v> is exactly 0."""
        mv, ev = np.frexp(self.endpoint)
        mw, ew = np.frexp(w)
        e0, e1 = ev[0] + ew[0], ev[1] + ew[1]
        top = np.maximum(e0, e1)
        return np.ldexp(np.ldexp(mv[0] * mw[0], e0 - top) + np.ldexp(mv[1] * mw[1], e1 - top), top)

    def hsupport(self, w):
        return np.abs(self._dot(w))

    def support_point(self, w):
        return np.multiply.outer(self.endpoint, np.sign(self._dot(w)))

    def transform(self, m):
        return Segment(np.asarray(m, dtype=float) @ self.endpoint)


@dataclass(frozen=True, eq=False)
class Polygon(_Body):
    """A symmetric strictly convex polygon with counterclockwise vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = _freeze(self.vertices)
        if v.ndim != 2 or v.shape[1] != 2 or not np.isfinite(v).all():
            raise ValueError("polygon vertices must be a finite (n, 2) array")
        n = v.shape[0]
        if n < 4 or n % 2 != 0:
            raise ValueError("a symmetric polygon needs an even vertex count >= 4")
        # Tested on v / max|v|, so that the same thresholds hold at every
        # scale with no overflow or underflow, and Minkowski sums of bodies
        # of very different sizes stay valid: every turn must exceed an angle
        # of SYM_TOL, the threshold at which minkowski_sum merges.
        u = v / (np.abs(v).max() or 1.0)
        if np.abs(u[: n // 2] + u[n // 2 :]).max() > SYM_TOL:
            raise ValueError("polygon vertex set is not symmetric about the origin")
        cross, flat = _turns(_next(u) - u)
        if np.any(cross <= flat):
            raise ValueError("polygon must be strictly convex in counterclockwise order")
        object.__setattr__(self, "vertices", v)

    def hsupport(self, w):
        return np.max(self.vertices @ w, axis=0)

    def support_point(self, w):
        return self.vertices[np.argmax(self.vertices @ w, axis=0)].T

    def transform(self, m):
        return Polygon(self.vertices @ np.asarray(m, dtype=float).T)


@dataclass(frozen=True, eq=False)
class Sum(_Body):
    """The Minkowski combination sum c_i K_i of shapes, every c_i > 0.

    Build it with ``minkowski_combination``, which keeps it canonical: every
    term keeps its coefficient, and the segments and polygons of a
    combination of two or more of them are merged into one polygonal term of
    coefficient 1.  A scaled polygon P is the one-term Sum ((c, P),).
    Support values and support points add term by term.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(c), k) for c, k in self.terms)
        if not terms:
            raise ValueError("a Sum needs at least one term")
        for c, k in terms:
            if not (math.isfinite(c) and c > 0.0) or not isinstance(k, (Ellipse, Segment, Polygon)):
                raise ValueError("Sum terms are (c > 0, Ellipse | Segment | Polygon) pairs")
        object.__setattr__(self, "terms", terms)

    def hsupport(self, w):
        return sum(c * k.hsupport(w) for c, k in self.terms)

    def support_point(self, w):
        return sum(c * k.support_point(w) for c, k in self.terms)

    def transform(self, m):
        return minkowski_combination((c, k.transform(m)) for c, k in self.terms)


def minkowski_combination(terms):
    """The body sum c_i K_i of (c_i, K_i) pairs with c_i > 0, in canonical form.

    Sums among the K_i are expanded and every term keeps its coefficient;
    two or more segment and polygon terms merge into one by
    ``minkowski_sum``.  A lone term with coefficient 1 is returned bare;
    anything else is a Sum.
    """
    flat = []
    for c, k in terms:
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError("Minkowski coefficients must be positive, got %r" % (c,))
        if isinstance(k, Sum):
            flat.extend((c * ci, ki) for ci, ki in k.terms)
        else:
            flat.append((c, k))
    polygonal = [(c, k) for c, k in flat if not isinstance(k, Ellipse)]
    if len(polygonal) > 1:
        flat = [(c, k) for c, k in flat if isinstance(k, Ellipse)] + [(1.0, minkowski_sum(polygonal))]
    if len(flat) == 1 and flat[0][0] == 1.0:
        return flat[0][1]
    return Sum(flat)


def convex_hull(points):
    """Strict convex hull (collinear points dropped), counterclockwise."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) < 3:
        raise ValueError("need at least three distinct points")

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1], dtype=float)


def _edge_fan(shape):
    """Edge vectors traversed counterclockwise (a segment degenerates to two)."""
    if isinstance(shape, Segment):
        return 2.0 * np.stack([shape.endpoint, -shape.endpoint])
    return _next(shape.vertices) - shape.vertices


def minkowski_sum(terms):
    """The exact Minkowski sum of (c, K) pairs, K a Segment or Polygon.

    The coefficient-scaled edge fans are sorted once by angle, and runs of
    parallel same-direction neighbours merge into one edge.  Two merged
    edges give a Segment, more a Polygon.  A sum of symmetric bodies is
    symmetric, which pins the translation of the merged edge path exactly.
    """
    # + 0.0 clears -0.0, whose angle sorts as -pi
    e = np.concatenate([c * _edge_fan(k) for c, k in terms]) + 0.0
    e = e[np.argsort(np.arctan2(e[:, 1], e[:, 0]), kind="stable")]
    cross, flat = _turns(e)
    # also flat: a turn within the rounding of the walked vertices, a few eps of L/4 (L the fan length)
    length = np.hypot(e[:, 0], e[:, 1])
    flat += 4.0 * sys.float_info.epsilon * length.sum() * (length + _next(length))
    same = (np.abs(cross) <= flat) & (np.einsum("ij,ij->i", e, _next(e)) > 0.0)
    # a run starts after every edge that does not continue into the next,
    # and may wrap from the end of the sorted fan to its start
    starts = np.sort((np.flatnonzero(~same) + 1) % len(e))
    e = np.concatenate((e[starts[0] :], e[: starts[0]]))
    merged = np.add.reduceat(e, starts - starts[0])
    k = len(merged)
    if k % 2 != 0:
        raise ValueError("edge fan of a symmetric sum must be even")
    if k == 2:
        return Segment(0.5 * merged[0])
    # Walk half the fan; central symmetry fixes the translation (vertex i
    # and i + k/2 are antipodal) and the second half mirrors the first.
    path = np.cumsum(merged[: k // 2], axis=0)
    half = path - 0.5 * path[-1]
    return Polygon(np.concatenate([half, -half]))


def mixed_area(a, b):
    """Mixed area a(K, L) of two shapes, in closed form; a(K, K) is the area.

    A Sum expands by bilinearity.  Against a polygon or segment L with edge
    fan e_j it is (1/2) sum_j H_K(J e_j), for H_K the homogeneous support and
    J the quarter turn (x, y) -> (y, -x), so equal bodies pair by the same
    float operations as a body with itself.  Two ellipses A·D and B·D reduce
    to an ellipse against the disc, a(A·D, B·D) = a(B^{-1}A·D, D) = pi C(s0),
    with s0 the stretch of adj(B)·A and C the form value; it is NaN or inf
    when that product overflows.  Areas and perimeters (a(K, disc)) are read
    from each shape's cache.
    """
    if a is b:
        return a.area
    return 0.5 * a.perimeter if b is _DISC else _mixed_area(a, b)


def _terms(k):
    return k.terms if isinstance(k, Sum) else ((1.0, k),)


def _mixed_area(a, b):
    if isinstance(a, Sum) or isinstance(b, Sum):
        # term pairs go through mixed_area, so that a term's area is its
        # cached a(K, K), the same float as its pairing with an equal copy
        return sum(c * d * mixed_area(k, l) for c, k in _terms(a) for d, l in _terms(b))
    if isinstance(b, (Polygon, Segment)):
        return 0.5 * float(a.hsupport(b._turned_fan).sum())
    if isinstance(a, (Polygon, Segment)):
        return _mixed_area(b, a)
    return math.pi * _form_value(_stretch(*_adjugate_product(b.matrix, a.matrix)))
