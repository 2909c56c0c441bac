"""The Lorentzian area form and the hyperboloid of area-pi bodies.

form_A is the bilinear form (1/2pi) int (h1 h2 - h1' h2'); on support
functions it is the mixed area divided by pi.  Bodies of area pi sit on the
hyperboloid {A(h) = 1, pi0(h) > 0} and acosh of the form is their distance.
The form has signature (1, -, -, ...) on pi-periodic functions, which makes
the reversed Cauchy-Schwarz inequality (the Minkowski inequality for bodies)
hold exactly -- also for the discretized form, provided all operands are
evaluated through the same route.  One rule, in _route, picks that route for
a set of operands: closed-form mixed areas when every operand carries a
shape tag, and the Parseval sum on coefficients for all of them otherwise.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .shapes import Segment, mixed_area
from .supportfn import (
    DEFAULT_GRID,
    EvenFn,
    GridMismatchError,
    combine,
    from_segment,
    scaled,
)

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
    w = 2.0 * (1.0 - n**2)
    w[0] = 1.0
    w[-1] = 1.0 - n[-1] ** 2
    w.setflags(write=False)
    return w


def _parseval(c1, c2, M):
    return float(np.dot(_spectral_weights(M), (c1 * np.conj(c2)).real))


def form_A_spectral(h1, h2=None):
    """The Parseval form of the samples: a0 a0' + (1/2) sum (1-n^2)(an an' + bn bn')."""
    h2 = h1 if h2 is None else h2
    if h1.grid != h2.grid:
        raise GridMismatchError("grids differ: %d vs %d" % (h1.grid, h2.grid))
    return _parseval(h1._coeffs, h2._coeffs, h1.grid)


def _form_exact(h1, h2):
    other = h1 if h2 is None else h2
    return mixed_area(h1.shape_tag, other.shape_tag) / math.pi


def _route(method, *fns):
    """The route ("exact" or "spectral") of every form value over ``fns``.

    "auto" is exact only when every operand carries a shape tag; "exact"
    requires tags, "spectral" always applies.
    """
    tagged = all(h.shape_tag is not None for h in fns if h is not None)
    if method == "auto":
        return "exact" if tagged else "spectral"
    if method == "exact" and not tagged:
        raise ValueError("exact form needs shape tags on every operand")
    if method not in ("exact", "spectral"):
        raise ValueError("unknown method %r" % (method,))
    return method


def form_A(h1, h2=None, method="auto"):
    """The Lorentzian area form A(h1, h2); A(h) when h2 is omitted.

    method: "auto" uses exact mixed areas when every operand carries a shape
    tag and the spectral sum otherwise; "spectral" and "exact" force a
    route ("exact" requires tags).
    """
    if _route(method, h1, h2) == "spectral":
        return form_A_spectral(h1, h2)
    if h2 is not None and h1.grid != h2.grid:
        raise GridMismatchError("grids differ: %d vs %d" % (h1.grid, h2.grid))
    return _form_exact(h1, h2)


def pi0(h, method="auto"):
    """Mean of h over the circle: A(h, 1), perimeter/(2 pi) for bodies."""
    if _route(method, h) == "exact":
        return h.shape_tag.perimeter() / (2.0 * math.pi)
    return float(h.samples.mean())


def h1_seminorms(h):
    """Full-period Parseval integrals (int h^2, int h'^2) over [0, 2pi).

    Unnormalized, so that (1/2pi)(L2sq - dL2sq) reproduces form_A exactly.
    """
    c = h._coeffs
    n = np.arange(h.grid // 2 + 1, dtype=float)
    p = 2.0 * (c * np.conj(c)).real
    p[0] *= 0.5
    p[-1] *= 0.5
    l2 = 2.0 * math.pi * float(p.sum())
    dl2 = 2.0 * math.pi * float(np.dot(n**2, p))
    return l2, dl2


@dataclass(frozen=True)
class HPoint:
    """A point of the hyperboloid: A(fn) = 1 and pi0(fn) >= 1."""

    fn: EvenFn

    def __post_init__(self):
        a = form_A(self.fn)
        if abs(a - 1.0) > FORM_UNIT_TOL:
            raise ValueError("not normalized: A(fn) = %.17g" % a)
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


def _cosh_between(h1, h2, method="auto"):
    """A(h1, h2) / sqrt(A(h1) A(h2)), all three values from one route."""
    method = _route(method, h1, h2)
    a12 = form_A(h1, h2, method=method)
    a11 = form_A(h1, method=method)
    a22 = form_A(h2, method=method)
    return a12 / math.sqrt(a11 * a22)


def hyper_dist(p, q, method="auto"):
    """Hyperbolic distance acosh A(p, q) between hyperboloid points.

    A(p, q) and its normalization sqrt(A(p)A(q)) (unity within the HPoint
    tolerance) come from one route, so the reversed Cauchy-Schwarz bound
    holds whatever mix of tagged and untagged operands is given.  On the
    spectral route x - 1 = A(p, q)/sqrt(A(p)A(q)) - 1 is computed as
    -A(p/|p| - q/|q|)/2, free of the cancellation that would floor small
    distances at sqrt(machine epsilon).  Values of x - 1 in [-INVARIANT_TOL, 0)
    are taken for round-off and give distance 0; anything below
    -INVARIANT_TOL (1e-9) is a real invariant violation and raises.
    """
    if _route(method, p.fn, q.fn) == "exact":
        xm1 = _cosh_between(p.fn, q.fn, method="exact") - 1.0
    else:
        if p.fn.grid != q.fn.grid:
            raise GridMismatchError("grids differ: %d vs %d" % (p.fn.grid, q.fn.grid))
        u = p.fn._coeffs / math.sqrt(form_A_spectral(p.fn))
        v = q.fn._coeffs / math.sqrt(form_A_spectral(q.fn))
        xm1 = -0.5 * _parseval(u - v, u - v, p.fn.grid)
    if xm1 < -INVARIANT_TOL:
        raise HyperbolicInvariantError(
            "A(p, q) = %.17g < 1: reversed Cauchy-Schwarz violated" % (1.0 + xm1)
        )
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


def _direction_angle(d):
    """The angle of a direction class (anything with ``theta``) or a bare angle."""
    return float(getattr(d, "theta", d))


def project_disc_to_segment_geodesic(nu, omega, M=DEFAULT_GRID):
    """Nearest point of the geodesic joining two boundary directions to the disc.

    The geodesic through two segment classes consists of area-pi
    parallelograms a*v + b*w; the perimeter 2(a+b) with ab pinned by the area
    is minimal exactly at a = b, so the projection is the rhombus homothetic
    to v + w, returned area-normalized.
    """
    t1, t2 = _direction_angle(nu), _direction_angle(omega)
    delta = abs(t1 - t2) % math.pi
    delta = min(delta, math.pi - delta)
    if delta < 1e-12:
        raise ValueError("equal directions span no geodesic")
    a = 0.5 * math.sqrt(math.pi / math.sin(delta))
    s1 = from_segment(Segment(a * np.array([math.cos(t1), math.sin(t1)])), M)
    s2 = from_segment(Segment(a * np.array([math.cos(t2), math.sin(t2)])), M)
    return normalize(combine(1.0, s1, 1.0, s2))
