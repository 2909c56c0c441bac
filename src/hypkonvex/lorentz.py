"""The Lorentzian area form and the hyperboloid of area-pi bodies.

form_A is the bilinear form (1/2pi) int (h1 h2 - h1' h2'); on support
functions it is the mixed area divided by pi.  Bodies of area pi sit on the
hyperboloid {A(h) = 1, pi0(h) > 0} and acosh of the form is their distance.
The form has signature (1, -, -, ...) on pi-periodic functions, which makes
the reversed Cauchy-Schwarz inequality (the Minkowski inequality for bodies)
hold exactly -- also for the discretized form, provided all operands are
evaluated through the same route.  One rule, in _exact, picks that route for
a set of operands: closed-form mixed areas when every operand carries a
shape tag, and the Parseval sum on coefficients for all of them otherwise.
Both routes refuse operands on different grids (supportfn._same_grid).
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .shapes import _freeze, mixed_area
from .supportfn import EvenFn, _parseval_counts, _same_grid, combine, scaled

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


def _form_exact(h1, h2=None):
    h2 = h1 if h2 is None else h2
    _same_grid(h1, h2)
    return mixed_area(h1.shape_tag, h2.shape_tag) / math.pi


def _exact(*fns):
    """Whether every form value over ``fns`` takes the exact route: only
    when every operand carries a shape tag, else all take the spectral one."""
    return all(h.shape_tag is not None for h in fns if h is not None)


def form_A(h1, h2=None):
    """The Lorentzian area form A(h1, h2); A(h) when h2 is omitted.

    Exact mixed areas when every operand carries a shape tag, the spectral
    sum (form_A_spectral) otherwise.
    """
    form = _form_exact if _exact(h1, h2) else form_A_spectral
    return form(h1, h2)


def pi0(h):
    """Mean of h over the circle: A(h, 1), perimeter/(2 pi) for bodies.

    The exact perimeter when h carries a shape tag, the mean of the samples
    otherwise.
    """
    if _exact(h):
        return h.shape_tag.perimeter / (2.0 * math.pi)
    return float(h.samples.mean())


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


def _cosh_between(h1, h2):
    """A(h1, h2) / sqrt(A(h1) A(h2)), all three values from one route."""
    form = _form_exact if _exact(h1, h2) else form_A_spectral
    return form(h1, h2) / math.sqrt(form(h1) * form(h2))


def hyper_dist(p, q, method="auto"):
    """Hyperbolic distance acosh A(p, q) between hyperboloid points.

    A(p, q) and its normalization sqrt(A(p)A(q)) (unity within the HPoint
    tolerance) come from one route, so the reversed Cauchy-Schwarz bound
    holds whatever mix of tagged and untagged operands is given.  On the
    spectral route x - 1 = A(p, q)/sqrt(A(p)A(q)) - 1 is computed as
    -A(p/|p| - q/|q|)/2, free of the cancellation that would floor small
    distances at sqrt(machine epsilon).  Values of x - 1 in [-INVARIANT_TOL, 0)
    are taken for round-off and give distance 0; anything below
    -INVARIANT_TOL (1e-9) is a real invariant violation and raises, and so
    does a NaN or infinite x, the trace of a mixed area that overflowed.
    method="spectral" takes the spectral route for tagged operands too.
    """
    if method not in ("auto", "spectral"):
        raise ValueError("unknown method %r" % (method,))
    if method == "auto" and _exact(p.fn, q.fn):
        xm1 = _cosh_between(p.fn, q.fn) - 1.0
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
