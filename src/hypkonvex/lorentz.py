"""The Lorentzian area form and the hyperboloid of area-pi bodies.

form_A is the bilinear form (1/2pi) int (h1 h2 - h1' h2'); on support
functions it is the mixed area divided by pi.  Bodies of area pi sit on the
hyperboloid {A(h) = 1, pi0(h) > 0} and acosh of the form is their distance.
An operand is a body part K plus a raw part t (supportfn.EvenFn), either
absent, and form_A adds the exact pairings of the parts: mixed_area(K, L)/pi
(_form_exact), the Parseval sum (form_A_spectral) and (1/2pi) int t dS_K
over K's surface-area measure, t read at K's normals by supportfn._interp
like any off-grid read (_form_shape_raw); pi0 reads the parts too.  One
form of signature (1, -, -, ...) on one space holding every operand, it
keeps the reversed Cauchy-Schwarz inequality (the Minkowski inequality for
bodies) for every pair, with no route to pick.  Operands on different grids
are refused (supportfn._same_grid).
"""

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .shapes import Ellipse, _freeze, _stretch, _terms, mixed_area
from .supportfn import EvenFn, _bandwidth, _interp, _parseval_counts, _same_grid, combine, scaled

FORM_UNIT_TOL = 1e-10
INVARIANT_TOL = 1e-9


class IsotropicVectorError(ValueError):
    """Normalization of a vector with nonpositive form value (zero-area body)."""


class HyperbolicInvariantError(ValueError):
    """The form of two hyperboloid points fell materially below 1."""


def acosh1p(x):
    """acosh(1 + x) for x >= 0 without cancellation near 0."""
    if x < 0.0:
        raise ValueError("acosh1p needs a nonnegative argument, got %r" % (x,))
    if x > 1e150:  # x * x would overflow; log(2 + 2x) is then exact to 1/(4x^2)
        return math.log(2.0) + math.log1p(x)
    return math.log1p(x + math.sqrt(2.0 * x + x * x))


@functools.cache
def _spectral_weights(M):
    # once per grid, read-only: every spectral form value on that grid reads it
    n = np.arange(M // 2 + 1, dtype=float)
    return _freeze(_parseval_counts(M) * (1.0 - n**2))


def _parseval(c1, c2, M):
    return float(np.dot(_spectral_weights(M), (c1 * np.conj(c2)).real))


def form_A_spectral(h1, h2=None):
    """The Parseval form of the samples: a0 a0' + (1/2) sum (1-n^2)(an an' + bn bn')."""
    h2 = h1 if h2 is None else h2
    return _parseval(h1._coeffs, h2._coeffs, _same_grid(h1, h2))


def _form_exact(k1, k2):
    return mixed_area(k1, k2) / math.pi


def _graded_edges(log2_width, end):
    """Panel edges 0, w, 2w, 4w, ... up to ``end``, graded toward a peak of
    width w = 2**log2_width at 0.

    The width comes as a logarithm, so that no ratio of scales is formed and
    any peak width works; edges that underflow to 0 are dropped.
    """
    grown = (2.0 ** (log2_width + k) for k in range(math.ceil(math.log2(end) - log2_width)))
    return [0.0] + [e for e in grown if e > 0.0] + [end]


@functools.cache
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
    band t's (supportfn._bandwidth).  s0 and a come from _stretch and the singular
    vectors, not from |M^T u|, whose minimum rounds to eps s0."""
    s0 = _stretch(*e.matrix.ravel().tolist())
    a, end = math.atan2(*np.linalg.svd(e.matrix)[0][::-1, 0]), 0.5 * math.pi  # the major axis
    nu = np.arange(0.0, end, min(end, 16.0 / max(_bandwidth(t._coeffs), 1)))
    edges = np.union1d(_graded_edges(-2.0 * math.log2(s0), end), np.arctan2(np.sin(nu) / s0, s0 * np.cos(nu)))

    def f(p):
        nu = np.arctan2(s0 * np.sin(p), np.cos(p) / s0)
        v = _interp(t._coeffs, t.grid, a + np.stack([nu, -nu]))
        return (v[0] + v[1]) * np.hypot(s0 * np.sin(p), np.cos(p) / s0)

    return 0.5 * _panel_mean(f, edges)


def _form_shape_raw(k, t):
    """A(K, t) = (1/2pi) int t dS_K, term by term over a Sum; (1/2pi) sum l_i t(n_i)
    over the turned edge fan (+-J e_i) for a polygon.  t is read at the normal
    angles by supportfn._interp."""
    total = 0.0
    for w, shape in _terms(k):
        if isinstance(shape, Ellipse):
            total += w * _ellipse_pairing(shape, t)
        else:
            fan = np.concatenate([shape._turned_fan, -shape._turned_fan], axis=1)
            total += w * float(np.hypot(*fan) @ _interp(t._coeffs, t.grid, np.arctan2(*fan[::-1]))) / (2.0 * math.pi)
    return total


def form_A(h1, h2=None):
    """The Lorentzian area form A(h1, h2); A(h1) when h2 is omitted: the sum
    of the pairings of the operands' parts, each of its own closed form."""
    h2 = h1 if h2 is None else h2
    _same_grid(h1, h2)
    (k1, t1), (k2, t2) = (h1.body, h1.raw), (h2.body, h2.raw)
    pairs = (_form_exact, k1, k2), (form_A_spectral, t1, t2), (_form_shape_raw, k1, t2), (_form_shape_raw, k2, t1)
    return sum(form(a, b) for form, a, b in pairs if a is not None and b is not None)


def pi0(h):
    """Mean of h over the circle, A(h, 1): its body's perimeter/(2 pi) plus its raw samples' mean."""
    return (h.body.perimeter / (2.0 * math.pi) if h.body else 0.0) + (float(h.raw.samples.mean()) if h.raw else 0.0)


def h1_seminorms(h):
    """Full-period Parseval integrals (int h^2, int h'^2) over [0, 2pi).

    Unnormalized, so that (1/2pi)(L2sq - dL2sq) reproduces form_A exactly.
    """
    c = h._coeffs
    n = np.arange(h.grid // 2 + 1, dtype=float)
    p = _parseval_counts(h.grid) * (c * np.conj(c)).real
    l2 = 2.0 * math.pi * float(p.sum())
    dl2 = 2.0 * math.pi * float(np.dot(n**2, p))
    return l2, dl2


@dataclass(frozen=True)
class HPoint:
    """A point of the hyperboloid: A(fn) = 1 and pi0(fn) >= 1; ``a`` keeps A(fn) as computed."""

    fn: EvenFn
    a: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = form_A(self.fn)
        if abs(a - 1.0) > FORM_UNIT_TOL:
            raise ValueError("not normalized: A(fn) = %.17g" % a)
        object.__setattr__(self, "a", a)
        p = pi0(self.fn)
        if p < 1.0 - INVARIANT_TOL:
            raise ValueError("pi0(fn) = %.17g < 1 breaks the hyperboloid invariant" % p)


def normalize(h):
    """Project h onto the hyperboloid: h / sqrt(A(h)).

    Raises IsotropicVectorError unless A(h) and pi0(h) are positive and
    finite, with A(h) a normal double: the support function of a segment
    (zero area), say, or of a body too large or too small for its area to
    be represented.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        a = form_A(h)
        p = pi0(h)
    if not (sys.float_info.min <= a < math.inf and 0.0 < p < math.inf):
        raise IsotropicVectorError(
            "no finite positive area: A(h) = %.3g, pi0(h) = %.3g" % (a, p)
        )
    return HPoint(scaled(h, 1.0 / math.sqrt(a)))


def _cosh_between(h1, h2):
    """A(h1, h2) / sqrt(A(h1) A(h2))."""
    return form_A(h1, h2) / math.sqrt(form_A(h1) * form_A(h2))


def hyper_dist(p, q, method="auto"):
    """Hyperbolic distance acosh A(p, q) between hyperboloid points.

    x = A(p, q)/sqrt(A(p)A(q)) is taken with its normalization (unity within
    the HPoint tolerance), so x >= 1 holds to rounding for any operands.  For
    two raw operands x - 1 is -A(p/|p| - q/|q|)/2 on the coefficients, free of
    the cancellation that floors small distances at sqrt(machine epsilon)
    elsewhere (method="spectral" takes it on the grid samples of any operands).
    Values of x - 1 in [-INVARIANT_TOL, 0) are taken for round-off and give
    distance 0; anything below -INVARIANT_TOL (1e-9) is a real invariant
    violation and raises, and so does a NaN or infinite x, the trace of a
    mixed area that overflowed.
    """
    if method not in ("auto", "spectral"):
        raise ValueError("unknown method %r" % (method,))
    if method == "auto" and (p.fn.body is not None or q.fn.body is not None):
        xm1 = form_A(p.fn, q.fn) / math.sqrt(p.a * q.a) - 1.0  # _cosh_between, self-forms read off the points
    else:
        M = _same_grid(p.fn, q.fn)
        u = p.fn._coeffs / math.sqrt(form_A_spectral(p.fn))
        v = q.fn._coeffs / math.sqrt(form_A_spectral(q.fn))
        xm1 = -0.5 * _parseval(u - v, u - v, M)
    if not -INVARIANT_TOL <= xm1 < math.inf:
        why = "< 1: reversed Cauchy-Schwarz violated" if xm1 < 0.0 else "is not finite: a mixed area overflowed"
        raise HyperbolicInvariantError("A(p, q) = %.17g %s" % (1.0 + xm1, why))
    return acosh1p(max(0.0, xm1))


def geodesic_point(p, q, t):
    """The point (1-t)p + t q on the chord, renormalized to the hyperboloid.

    The affine parameter t is not arclength, but the image point lies on the
    metric geodesic: d(p, r) + d(r, q) = d(p, q).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1], got %r" % (t,))
    if t == 0.0 or p.fn is q.fn:  # the chord from a point to itself is that point
        return p
    if t == 1.0:
        return q
    return normalize(combine(1.0 - t, p.fn, t, q.fn))
