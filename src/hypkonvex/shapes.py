"""Exact primitives for plane symmetric convex bodies.

Three shape families carry closed forms: ellipses (linear images of the unit
disc), symmetric segments, and symmetric convex polygons.  A fourth, Sum, is
a positive Minkowski combination of them, so the closed forms survive every
nonnegative combination of bodies.  Each knows its support function, support
derivative, boundary parametrization, perimeter, area, and how to transform
under a linear map.  Mixed areas between any two shapes are available in
closed form, which is what keeps segment and polygon computations free of
grid error.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import agm_KE_from_complement

DET_TOL = 1e-9
SYM_TOL = 1e-12


def _check_unit_det(a, b, c, d, tol):
    # relative to |ad| + |bc|, the scale of the rounding error of ad - bc,
    # on entries divided by the largest, so that no product overflows
    s = float(max(abs(a), abs(b), abs(c), abs(d))) or 1.0
    a, b, c, d = (float(x) / s for x in (a, b, c, d))
    det = a * d - b * c
    if abs(det - 1.0 / s / s) > tol * (abs(a * d) + abs(b * c)):
        raise ValueError("determinant must be 1, got %.17g" % (det * s * s))


def _freeze(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _once(method):
    """A method of no arguments whose value is computed on first call and kept
    on the (immutable) instance."""
    key = "_once_" + method.__name__

    @functools.wraps(method)
    def cached(self):
        if key not in self.__dict__:
            self.__dict__[key] = method(self)
        return self.__dict__[key]

    return cached


def _angles(normals):
    return _freeze(np.arctan2(normals[:, 1], normals[:, 0]))


def _next(a):
    """a shifted one step back along axis 0: a[1], ..., a[n-1], a[0]."""
    return np.concatenate((a[1:], a[:1]))


def _unit_vectors(theta):
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)])


@dataclass(frozen=True)
class Ellipse:
    """The body A·D, the image of the closed unit disc under ``matrix``.

    ad - bc must be 1 to ``DET_TOL`` relative to |ad| + |bc|, so the area is pi.
    Semi-axes, perimeter and area are computed once per ellipse.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _freeze(self.matrix)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)):
            raise ValueError("ellipse matrix must be a finite 2x2 array")
        _check_unit_det(*m.ravel(), DET_TOL)
        object.__setattr__(self, "matrix", m)

    def support(self, theta):
        v = self.matrix.T @ _unit_vectors(theta)
        return np.hypot(v[0], v[1])

    def support_deriv(self, theta):
        u = _unit_vectors(np.atleast_1d(theta))
        uperp = np.stack([-u[1], u[0]])
        w = self.matrix.T @ u
        out = np.einsum("ij,ij->j", self.matrix.T @ uperp, w) / np.hypot(w[0], w[1])
        return out if np.ndim(theta) else out[0]

    def boundary(self, theta):
        # The support point in direction u is A (A^T u / |A^T u|).
        w = self.matrix.T @ _unit_vectors(theta)
        return (self.matrix @ (w / np.hypot(w[0], w[1]))).T

    @_once
    def semi_axes(self):
        s = np.linalg.svd(self.matrix, compute_uv=False)
        return float(s[0]), float(s[1])

    @_once
    def perimeter(self):
        s1, s2 = self.semi_axes()
        _, E = agm_KE_from_complement(min(1.0, s2 / s1))
        return 4.0 * s1 * E

    @_once
    def area(self):
        return math.pi * float(np.linalg.det(self.matrix))

    def transform(self, m):
        return Ellipse(np.asarray(m, dtype=float) @ self.matrix)


@dataclass(frozen=True)
class Segment:
    """The degenerate body [-v, v] for a nonzero endpoint v."""

    endpoint: np.ndarray

    def __post_init__(self):
        v = _freeze(self.endpoint)
        if v.shape != (2,) or not np.all(np.isfinite(v)):
            raise ValueError("segment endpoint must be a finite 2-vector")
        if np.hypot(v[0], v[1]) == 0.0:
            raise ValueError("segment endpoint must be nonzero")
        object.__setattr__(self, "endpoint", v)

    def support(self, theta):
        u = _unit_vectors(theta)
        return np.abs(self.endpoint @ u)

    def support_deriv(self, theta):
        u = _unit_vectors(theta)
        uperp = np.stack([-u[1], u[0]])
        return np.sign(self.endpoint @ u) * (self.endpoint @ uperp)

    def boundary(self, theta):
        u = _unit_vectors(theta)
        return np.outer(np.sign(self.endpoint @ u), self.endpoint)

    def perimeter(self):
        # Degenerate convex body: the boundary runs down and back.
        return 4.0 * float(np.hypot(*self.endpoint))

    def area(self):
        return 0.0

    @_once
    def edges(self):
        """Surface measure as (lengths, outward unit normals) arrays."""
        v = self.endpoint
        length = float(np.hypot(v[0], v[1]))
        n = np.array([v[1], -v[0]]) / length
        return _freeze(np.full(2, 2.0 * length)), _freeze(np.stack([n, -n]))

    @_once
    def _normal_angles(self):
        return _angles(self.edges()[1])

    def transform(self, m):
        return Segment(np.asarray(m, dtype=float) @ self.endpoint)


@dataclass(frozen=True)
class Polygon:
    """A symmetric strictly convex polygon with counterclockwise vertices.

    Edge lengths, unit normals and their angles, area and perimeter are
    computed once per polygon, on first use.
    """

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
        e = _next(u) - u
        cross = e[:, 0] * _next(e[:, 1]) - e[:, 1] * _next(e[:, 0])
        length = np.hypot(e[:, 0], e[:, 1])
        if np.any(cross <= SYM_TOL * length * _next(length)):
            raise ValueError("polygon must be strictly convex in counterclockwise order")
        object.__setattr__(self, "vertices", v)

    def support(self, theta):
        u = _unit_vectors(theta)
        return np.max(self.vertices @ u, axis=0)

    def support_deriv(self, theta):
        u = _unit_vectors(np.atleast_1d(theta))
        uperp = np.stack([-u[1], u[0]])
        idx = np.argmax(self.vertices @ u, axis=0)
        out = np.einsum("ij,ij->i", uperp.T, self.vertices[idx])
        return out if np.ndim(theta) else out[0]

    def boundary(self, theta):
        u = _unit_vectors(theta)
        return self.vertices[np.argmax(self.vertices @ u, axis=0)]

    @_once
    def edges(self):
        """Surface measure as (lengths, outward unit normals) arrays."""
        e = _next(self.vertices) - self.vertices
        lengths = np.hypot(e[:, 0], e[:, 1])
        return _freeze(lengths), _freeze(np.stack([e[:, 1], -e[:, 0]], axis=1) / lengths[:, None])

    @_once
    def _normal_angles(self):
        return _angles(self.edges()[1])

    @_once
    def perimeter(self):
        return float(self.edges()[0].sum())

    @_once
    def area(self):
        return shoelace_area(self.vertices)

    def transform(self, m):
        return Polygon(self.vertices @ np.asarray(m, dtype=float).T)


@dataclass(frozen=True, eq=False)
class Sum:
    """The Minkowski combination sum c_i K_i of shapes, every c_i > 0.

    Build it with ``minkowski_combination``, which keeps it canonical: every
    term keeps its coefficient, and the segments and polygons of a
    combination of two or more of them are merged into one polygonal term of
    coefficient 1.  A scaled polygon P is the one-term Sum ((c, P),).
    Support values, derivatives, boundary points and perimeters add term by
    term; the area expands by bilinearity of the mixed area.  Perimeter and
    area are computed once per Sum.
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

    def support(self, theta):
        return sum(c * k.support(theta) for c, k in self.terms)

    def support_deriv(self, theta):
        return sum(c * k.support_deriv(theta) for c, k in self.terms)

    def boundary(self, theta):
        # The support point of a sum in direction u is the sum of support points.
        return sum(c * k.boundary(theta) for c, k in self.terms)

    @_once
    def perimeter(self):
        return sum(c * k.perimeter() for c, k in self.terms)

    @_once
    def area(self):
        total = 0.0
        for i, (ci, ki) in enumerate(self.terms):
            total += ci * ci * ki.area()
            for cj, kj in self.terms[i + 1 :]:
                total += 2.0 * ci * cj * mixed_area(ki, kj)
        return total

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


def shoelace_area(vertices):
    """Signed shoelace area; positive for counterclockwise order."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * _next(y) - y * _next(x)))


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
    f = _next(e)
    length = np.hypot(e[:, 0], e[:, 1])
    same = (np.abs(e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]) <= SYM_TOL * length * _next(length)) & (
        np.einsum("ij,ij->i", e, f) > 0.0
    )
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
    """Mixed area of two shapes, in closed form.

    Polarizes the planar area: a(K, L) = (area(K+L) - area(K) - area(L)) / 2.
    A Sum expands by bilinearity, polygonal operands contribute through their
    surface measure, ellipses through singular values and the elliptic
    perimeter formula.
    """
    if a is b:
        return a.area()
    if isinstance(a, Sum):
        return sum(c * mixed_area(k, b) for c, k in a.terms)
    if isinstance(b, Sum):
        return sum(c * mixed_area(a, k) for c, k in b.terms)
    if isinstance(b, (Polygon, Segment)):
        return 0.5 * float(b.edges()[0] @ a.support(b._normal_angles()))
    if isinstance(a, (Polygon, Segment)):
        return mixed_area(b, a)
    # Two ellipses: reduce to ellipse-against-disc through C = B^{-1} A,
    # using a(T K1, T K2) = det(T) a(K1, K2) and a(K, D) = per(K)/2.
    c = np.linalg.solve(b.matrix, a.matrix)
    s = np.linalg.svd(c, compute_uv=False)
    _, E = agm_KE_from_complement(min(1.0, s[1] / s[0]))
    return float(np.linalg.det(b.matrix)) * 2.0 * s[0] * E
