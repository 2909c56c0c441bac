"""The Lorentzian area form and the hyperboloid of area-pi bodies.

form_A is the bilinear form (1/2pi) int (h1 h2 - h1' h2'); on support
functions it is the mixed area divided by pi.  Bodies of area pi sit on the
hyperboloid {A(h) = 1, pi0(h) > 0} and acosh of the form is their distance.
An operand is one body (supportfn.EvenFn), and form_A is
shapes.mixed_area(K, L)/pi (_form_exact), the one pairing of any two bodies,
raw terms among them; pi0 is the perimeter over 2 pi.  This module knows no
body kind.  One form of signature (1, -, -, ...) on one space holding every
operand, it keeps the reversed Cauchy-Schwarz inequality (the Minkowski
inequality for bodies) for every pair, with no route to pick.
form_A_spectral is the Parseval form of two functions' samples on the finer
grid (supportfn._on_grid), which hyper_dist's method="spectral" reads.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .shapes import mixed_area
from .supportfn import EvenFn, _on_grid, _parseval, _spectral_weights, combine, scaled

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


def form_A_spectral(h1, h2=None):
    """The Parseval form of the interpolants on the finer grid: a0 a0' + (1/2) sum (1-n^2)(an an' + bn bn')."""
    h2 = h1 if h2 is None else h2
    M = max(h1.grid, h2.grid)
    return _parseval(_on_grid(h1, M)._coeffs, _on_grid(h2, M)._coeffs, M)


def _form_exact(k1, k2):
    return mixed_area(k1, k2) / math.pi


def form_A(h1, h2=None):
    """The Lorentzian area form A(h1, h2); A(h1) when h2 is omitted: the mixed area of the bodies over pi."""
    return _form_exact(h1.body, (h1 if h2 is None else h2).body)


def pi0(h):
    """Mean of h over the circle, A(h, 1): its body's perimeter/(2 pi)."""
    return h.body.perimeter / (2.0 * math.pi)


def h1_seminorms(h):
    """Full-period Parseval integrals (int h^2, int h'^2) over [0, 2pi).

    Unnormalized, so that (1/2pi)(L2sq - dL2sq) reproduces form_A exactly.
    """
    c = h._coeffs
    n = np.arange(h.grid // 2 + 1, dtype=float)
    p = _spectral_weights(h.grid)[0] * (c * np.conj(c)).real
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
    the HPoint tolerance), so x >= 1 holds to rounding for any operands.
    Operands moved by one element g are read as their bases,
    d(gK, gL) = d(K, L).  For two bare raw terms (bodies with a grid) x - 1
    is -A(p/|p| - q/|q|)/2 on the coefficients on the finer grid, free of the
    cancellation that floors small distances at sqrt(machine epsilon)
    elsewhere (method="spectral" takes it on the grid samples of any
    operands, and recomputes their self-forms there).
    Values of x - 1 in [-INVARIANT_TOL, 0) are taken for round-off and give
    distance 0; anything below -INVARIANT_TOL (1e-9) is a real invariant
    violation and raises, and so does a NaN or infinite x, the trace of a
    mixed area that overflowed.
    """
    if method not in ("auto", "spectral"):
        raise ValueError("unknown method %r" % (method,))
    f, g = p.fn, q.fn
    if f.body.g is not None and f.body.g == g.body.g:
        f, g = EvenFn(f.body.base, f.grid), EvenFn(g.body.base, g.grid)
    if method == "auto" and not (f.body.grid and g.body.grid):
        xm1 = form_A(f, g) / math.sqrt(p.a * q.a) - 1.0  # _cosh_between, self-forms read off the points
    else:
        M = max(f.grid, g.grid)
        f, g = _on_grid(f, M), _on_grid(g, M)
        a, b = (p.a, q.a) if method == "auto" else (form_A_spectral(f), form_A_spectral(g))
        u, v = f._coeffs / math.sqrt(a), g._coeffs / math.sqrt(b)
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
