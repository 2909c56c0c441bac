"""Exact primitives for plane symmetric convex bodies.

Two shape families carry closed forms: ellipses (linear images of the unit
disc) and symmetric convex polygons, each held as the zonogon sum of the
segments [-e_i/2, e_i/2] over its generators, the half edge fan e_1 ... e_k
(Bolker 1969, Trans. AMS 145:323; Schneider, Convex Bodies, 3.5); a segment
has one.  A Sum is a positive Minkowski combination of bodies, so the closed
forms survive every nonnegative combination.  A raw term (supportfn.Raw,
the interpolant of grid samples) is the one more body kind, the only one
with a ``grid``.  Each defines only its homogeneous support, its support
point and its image under a group element, a ``Mobius``; the support
function, its derivative, the boundary, and the area a(K, K) and perimeter
2 a(K, disc) as mixed areas derive from these.  mixed_area, the one pairing,
is in closed form between shapes, free of grid error, and pairs bodies moved
by equal elements, raw terms too, as their bases.
"""

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .specfun import agm_KE_from_complement

MOBIUS_DET_TOL = 1e-12  # elements: their determinant error reaches raw terms through rho_act
ELLIPSE_DET_TOL = 1e-9  # ellipse documents: the closed forms only read them as unit-determinant
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


@dataclass(frozen=True)
class Mobius:
    """Element of PSL2(R): entries with ad - bc = 1, canonically signed.

    The stored representative makes the first nonzero of (a, b, c, d)
    positive, so equality of group elements is equality of fields.  Entries
    are checked where an element is built from them: finite, determinant 1
    to MOBIUS_DET_TOL plus rounding, 16 eps (|ad| + |bc|).  ``@`` composes
    elements, moved bodies' too, as the plain float product, signed and
    checked finite only: det(AB) = det A det B = 1, so it is not rescaled.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        self._signed((float(self.a), float(self.b), float(self.c), float(self.d)))
        _check_unit_det(self.a, self.b, self.c, self.d, MOBIUS_DET_TOL)

    def _signed(self, vals):
        """Set the fields to the finite vals, the first nonzero made positive."""
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("entries must be finite")
        sign = math.copysign(1.0, next((v for v in vals if v != 0.0), 1.0))
        for name, v in zip(("a", "b", "c", "d"), vals):
            object.__setattr__(self, name, sign * v)
        return self

    @property
    def matrix(self):
        return np.array([[self.a, self.b], [self.c, self.d]])

    @classmethod
    def rotation(cls, phi):
        return cls(math.cos(phi), -math.sin(phi), math.sin(phi), math.cos(phi))

    @classmethod
    def axial(cls, s):
        """diag(e^{s/2}, e^{-s/2}): translation length s along the imaginary axis; the stored
        shear a - d carries about eps/s relative error (iota_dist_closed takes s past it)."""
        return cls(math.exp(0.5 * s), 0.0, 0.0, math.exp(-0.5 * s))

    def __matmul__(self, other):
        return object.__new__(Mobius)._signed((self.matrix @ other.matrix).ravel().tolist())

    def adjugate(self):
        """adj(m) = m^{-1} in PSL2(R), exactly: m's entries swapped and negated."""
        return object.__new__(Mobius)._signed((self.d, -self.b, -self.c, self.a))


def _freeze(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _unit_vectors(theta):
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)])


class _Body:
    """A body given by its homogeneous support ``hsupport(w)``, the largest
    <x, w> over the body, and its support point ``support_point(w)``, the
    maximizing x (the gradient of hsupport), both at (2, n) vectors w.

    Everything else derives from these two: the support function, its
    derivative u_perp·x(u), the boundary, the area a(K, K) and the perimeter
    2 a(K, disc), the last two once per body.  ``transform(m)`` takes a
    ``Mobius`` alone and keeps the image's unmoved ``base`` and its element
    ``g``, the product m @ self.g, both None on an unmoved body.  ``grid``
    is None but on a raw term, the one body read through grid samples.
    """

    base = g = grid = None

    def transform(self, m):
        image = self._image(m)
        vars(image).update(base=self.base or self, g=m if self.g is None else m @ self.g)
        return image

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


@dataclass(frozen=True, eq=False)
class Ellipse(_Body):
    """The body A·D, the image of the closed unit disc under ``matrix``.

    ad - bc must be 1 to ``ELLIPSE_DET_TOL`` plus the rounding of the entries,
    16 eps (|ad| + |bc|), and the area is pi by that contract.  Every other
    invariant depends only on the largest singular value of the matrix, its
    stretch.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _freeze(self.matrix)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)):
            raise ValueError("ellipse matrix must be a finite 2x2 array")
        _check_unit_det(*m.ravel(), ELLIPSE_DET_TOL)
        object.__setattr__(self, "matrix", m)

    def hsupport(self, w):
        v = self.matrix.T @ w
        return np.hypot(v[0], v[1])

    def support_point(self, w):
        # A (A^T w / |A^T w|)
        v = self.matrix.T @ w
        return self.matrix @ (v / np.hypot(v[0], v[1]))

    area = math.pi

    def _image(self, m):
        image = object.__new__(Ellipse)
        object.__setattr__(image, "matrix", _freeze(m.matrix @ self.matrix))
        if not np.isfinite(image.matrix).all():
            raise ValueError("ellipse matrix must be finite")
        return image


_DISC = Ellipse(np.eye(2))


def _canonical(generators):
    """(k, 2) finite generators, each folded to an angle in [0, pi) and
    sorted by angle, then x, then y: the order depends on the set alone."""
    g = np.array(generators, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("polygon generators must be finite")
    g *= np.copysign(1.0, np.where(g[:, 1] != 0.0, g[:, 1], g[:, 0]))[:, None]
    g += 0.0  # clears -0.0, so that equal generator sets are equal bits
    g = g[np.lexsort((g[:, 1], g[:, 0], np.arctan2(g[:, 1], g[:, 0])))]
    g.setflags(write=False)
    return g


def _zonogon(generators):
    p = object.__new__(Polygon)
    object.__setattr__(p, "generators", _canonical(generators))
    return p


@dataclass(frozen=True, eq=False, init=False)
class Polygon(_Body):
    """A symmetric convex polygon, held as the zonogon sum [-e_i/2, e_i/2] of
    its generators: the (k, 2) half edge fan e_1 ... e_k, in canonical form.

    ``Polygon(vertices)`` converts counterclockwise vertices, checked once to
    ``SYM_TOL`` relative to the largest coordinate: finite, an even count of
    at least 4, symmetric about the origin, every turn positive.  Images and
    sums map and concatenate generators, convex by construction, so only an
    overflow is refused.
    """

    generators: np.ndarray

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or not np.isfinite(v).all():
            raise ValueError("polygon vertices must be a finite (n, 2) array")
        n = v.shape[0]
        if n < 4 or n % 2 != 0:
            raise ValueError("a symmetric polygon needs an even vertex count >= 4")
        # on v / max|v|, so that the thresholds hold at every scale: every turn must exceed SYM_TOL
        u = v / (np.abs(v).max() or 1.0)
        if np.abs(u[: n // 2] + u[n // 2 :]).max() > SYM_TOL:
            raise ValueError("polygon vertex set is not symmetric about the origin")
        e = np.diff(np.concatenate((u, u[:2])), axis=0)  # the n edges and the first again
        length = np.hypot(e[:, 0], e[:, 1])
        if np.any(e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0] <= SYM_TOL * length[:-1] * length[1:]):
            raise ValueError("polygon must be strictly convex in counterclockwise order")
        e = np.diff(np.concatenate((v, v[:1])), axis=0)  # each generator averages an edge and its antipode
        object.__setattr__(self, "generators", _canonical(0.5 * e[: n // 2] - 0.5 * e[n // 2 :]))

    @cached_property
    def _scaled(self):
        # the generator columns over 2^p, p the exponent of the largest entry, so that
        # products with them overflow only where the support does; and 2^(p - 1)
        p = math.frexp(np.abs(self.generators).max())[1]
        return np.ldexp(self.generators[:, :1], -p), np.ldexp(self.generators[:, 1:], -p), 2.0 ** (p - 1)

    def _dots(self, w):
        # <e_i, w> / 2^p: two rank-one products, each entry rounded once, and
        # one sum, with no fused multiply-add, so that <e, J e> is exactly 0
        gx, gy, _ = self._scaled
        d = np.dot(gx, w[:1])
        d += np.dot(gy, w[1:])
        return d

    def hsupport(self, w):
        # (1/2) sum |<e_i, w>|
        d = self._dots(w)
        return np.abs(d, out=d).sum(axis=0) * self._scaled[2]

    def support_point(self, w):
        # (1/2) sum sign<e_i, w> e_i
        return 0.5 * (self.generators.T @ np.sign(self._dots(w)))

    def _image(self, m):
        return _zonogon(self.generators @ m.matrix.T)

    @cached_property
    def _turned_fan(self):
        # J e_i, J the quarter turn (x, y) -> (y, -x): half the edge fan's outward normals times lengths
        return _freeze(np.stack([self.generators[:, 1], -self.generators[:, 0]]))

    @cached_property
    def vertices(self):
        """The counterclockwise vertices Polygon() converts: the walk of the generators, exact parallels merged."""
        x, y, _ = self._scaled  # scaled, so that no cross underflows
        path = np.cumsum(self.generators, axis=0)[np.append(x[:-1, 0] * y[1:, 0] != y[:-1, 0] * x[1:, 0], True)]
        half = path - 0.5 * path[-1]
        return _freeze(np.concatenate([half, -half]))


class Segment(Polygon):
    """``Segment(v)``: the segment [-v, v] for a finite nonzero v, the Polygon with one generator 2v."""

    def __new__(cls, endpoint):
        v = np.array(endpoint, dtype=float)
        if v.shape != (2,) or not np.isfinite(v).all() or not v.any():
            raise ValueError("segment endpoint must be a finite nonzero 2-vector")
        return _zonogon(2.0 * v[None, :])


@dataclass(frozen=True, eq=False)
class Sum(_Body):
    """The Minkowski combination sum c_i K_i of bodies other than sums, every c_i > 0.

    Build it with ``minkowski_combination``, which keeps it canonical: every
    term keeps its coefficient, and two or more polygons, or raw terms, are
    summed into one term of coefficient 1.  A scaled polygon P is the
    one-term Sum ((c, P),).  Support values (at angles too, which a raw term
    reads itself), support points and images go term by term.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(c), k) for c, k in self.terms)
        bodies = all(isinstance(k, _Body) and not isinstance(k, Sum) for _, k in terms)
        if not (terms and bodies and all(math.isfinite(c) and c > 0.0 for c, _ in terms)):
            raise ValueError("a Sum needs one or more (c > 0, body other than a Sum) terms")
        object.__setattr__(self, "terms", terms)

    def hsupport(self, w):
        return sum(c * k.hsupport(w) for c, k in self.terms)

    def support(self, theta):
        return sum(c * k.support(theta) for c, k in self.terms)

    def support_deriv(self, theta):
        return sum(c * k.support_deriv(theta) for c, k in self.terms)

    def support_point(self, w):
        return sum(c * k.support_point(w) for c, k in self.terms)

    def _image(self, m):
        return Sum(tuple((c, k.transform(m)) for c, k in self.terms))


def minkowski_combination(terms):
    """The body sum c_i K_i of (c_i, K_i) pairs with c_i > 0, in canonical form.

    Sums among the K_i are expanded, every term keeping its coefficient (or
    dropped if c c_i underflows to 0); two or more polygon terms are summed into
    one by ``minkowski_sum``, and raw terms into one last term by their own
    ``_fold``, which takes the coefficients into the spectrum.  A lone term with
    coefficient 1 is returned bare, an empty sum as None; anything else a Sum.
    """
    flat = []
    for c, k in terms:
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError("Minkowski coefficients must be positive, got %r" % (c,))
        if isinstance(k, Sum):
            flat.extend((c * ci, ki) for ci, ki in k.terms if c * ci > 0.0)
        else:
            flat.append((c, k))
    polygons = [(c, k) for c, k in flat if isinstance(k, Polygon)]
    if len(polygons) > 1:
        flat = [(c, k) for c, k in flat if not isinstance(k, Polygon)] + [(1.0, minkowski_sum(polygons))]
    raws = [(c, k) for c, k in flat if k.grid]
    if raws:
        flat = [(c, k) for c, k in flat if not k.grid] + [(1.0, raws[0][1]._fold(raws))]
    if len(flat) == 1 and flat[0][0] == 1.0:
        return flat[0][1]
    return Sum(flat) if flat else None


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


def minkowski_sum(terms):
    """The exact Minkowski sum of (c, P) pairs of polygons: their coefficient-scaled
    generators concatenated, in canonical order, or g applied to the sum of
    their bases where one element g moved them all."""
    g = terms[0][1].g
    if g is not None and all(p.g == g for _, p in terms):
        return minkowski_sum([(c, p.base) for c, p in terms]).transform(g)
    return _zonogon(np.concatenate([c * p.generators for c, p in terms]))


def _graded_edges(log2_width, end):
    """Panel edges 0, w, 2w, 4w, ... up to ``end``, graded toward a peak of
    width w = 2**log2_width at 0.

    The width comes as a logarithm, so that no ratio of scales is formed and
    any peak width works; edges that underflow to 0 are dropped.
    """
    grown = (2.0 ** (log2_width + k) for k in range(math.ceil(math.log2(end) - log2_width)))
    return [0.0] + [e for e in grown if e > 0.0] + [end]


@cache
def _gauss_legendre():  # on first use: numpy.polynomial costs every command 5 ms, 1 MB
    return np.polynomial.legendre.leggauss(20)


def _panel_mean(f, edges):
    """Mean of f over [edges[0], edges[-1]] by 20-point Gauss-Legendre on
    each panel between consecutive edges, on which f must be analytic.

    On graded edges a singularity at distance ~w from 0 stays a panel width
    or more from every panel, so all panels converge at one geometric rate.
    """
    nodes, weights = _gauss_legendre()
    e = np.asarray(edges, dtype=float)
    mid, rad = 0.5 * (e[1:] + e[:-1]), 0.5 * (e[1:] - e[:-1])
    return float(rad @ (f(mid[:, None] + rad[:, None] * nodes) @ weights) / (e[-1] - e[0]))


def _ellipse_pairing(e, t):
    """(1/2pi) int t dS_E for E = R(a) diag(s0, 1/s0) D: dS_E, of density H_E^-3 in the
    normal angle, is the arc length hypot(s0 sin p, cos p / s0) dp at normal angle
    a +- atan2(s0 sin p, cos p / s0), p in [0, pi/2], on panels graded toward p = 0 (the
    normal sweeps past the ends within 1/s0^2) and cut every 16/band of normal angle,
    band t's (t.band).  s0 and a come from _stretch and the singular vectors,
    not from |M^T u|, whose minimum rounds to eps s0."""
    s0 = _stretch(*e.matrix.ravel().tolist())
    a, end = math.atan2(*np.linalg.svd(e.matrix)[0][::-1, 0]), 0.5 * math.pi  # the major axis
    nu = np.arange(0.0, end, min(end, 16.0 / max(t.band, 1)))
    edges = np.union1d(_graded_edges(-2.0 * math.log2(s0), end), np.arctan2(np.sin(nu) / s0, s0 * np.cos(nu)))

    def f(p):
        nu = np.arctan2(s0 * np.sin(p), np.cos(p) / s0)
        v = t.support(a + np.stack([nu, -nu]))
        return (v[0] + v[1]) * np.hypot(s0 * np.sin(p), np.cos(p) / s0)

    return 0.5 * _panel_mean(f, edges)


def mixed_area(a, b):
    """Mixed area a(K, L) of two bodies, in closed form between shapes; for
    a shape K and a raw term t, (1/2) int t dS_K; a(K, K) is the area.

    Bodies moved by equal elements pair as their bases, a(gK, gL) = a(K, L)
    (m1 @ m2 moves a body to the same element as m2, then m1), and a Sum
    expands by bilinearity.  Two raw terms pair by their own Parseval sum; a
    raw term moved by g pairs with a body as a(t, adj(g) K).  Against a
    polygon L with generators e_j it is sum_j H_K(J e_j), half the sum over
    the edge fan +-e_j (H_K, the homogeneous support, is even; t's,
    |w| t(angle w), to EVEN_TOL max|t|), J the quarter turn (x, y) -> (y, -x), so
    two polygons pair as (1/2) sum_ij |e_i x f_j| and equal bodies pair by
    the same float operations as a body with itself.  Two ellipses A·D and
    B·D reduce to an ellipse against the disc, a(A·D, B·D) = a(B^{-1}A·D, D)
    = pi C(s0), with s0 the stretch of adj(B)·A and C the form value; it is
    NaN or inf when that product overflows.  An ellipse pairs with t by
    quadrature over half its normals (_ellipse_pairing).  Areas and
    perimeters are cached.
    """
    if a is b:
        return a.area
    return 0.5 * a.perimeter if b is _DISC else _mixed_area(a, b)


def _terms(k):
    return k.terms if isinstance(k, Sum) else ((1.0, k),)


def _mixed_area(a, b):
    if a.g is not None and a.g == b.g:
        return mixed_area(a.base, b.base)  # a(gK, gL) = a(K, L)
    if isinstance(a, Sum) or isinstance(b, Sum):
        # term pairs go through mixed_area, so that a term's area is its
        # cached a(K, K), the same float as its pairing with an equal copy
        return sum(c * d * mixed_area(k, l) for c, k in _terms(a) for d, l in _terms(b))
    if a.grid and b.grid:
        return a._paired(b)
    if b.grid and b.g:  # a body against a moved raw term: a(K, gt) = a(adj(g) K, t)
        return mixed_area(a.transform(b.g.adjugate()), b.base)
    if a.grid and a.g:
        return _mixed_area(b, a)
    if isinstance(b, Polygon):
        return float(a.hsupport(b._turned_fan).sum())
    if isinstance(a, Polygon):
        return _mixed_area(b, a)
    if a.grid or b.grid:  # an ellipse against a raw term
        return math.pi * (_ellipse_pairing(a, b) if isinstance(a, Ellipse) else _ellipse_pairing(b, a))
    return math.pi * _form_value(_stretch(*_adjugate_product(b.matrix, a.matrix)))
