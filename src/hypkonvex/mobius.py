"""PSL2(R): action on the circle, on support functions, and on the half-plane.

A Mobius element is a real 2x2 unit-determinant matrix up to sign.  It acts
on bodies by the linear map, on circle functions by the homogeneous
extension, rho(A)h(x) = |A^T x| h(A^T x / |A^T x|), as the body's transform,
which keeps the element (a raw term's image is sampled on first read), and
on the Poincare upper half-plane by homography.  The orbit of the unit disc
is the family of area-pi ellipses, giving an embedding iota of the hyperbolic
plane into the hyperboloid of bodies whose extrinsic distance comes out in
closed form through complete elliptic integrals.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .shapes import Ellipse, Mobius, _adjugate_product, _form_value, _graded_edges, _panel_mean, _shear, _stretch
from .supportfn import DEFAULT_GRID, EvenFn, from_ellipse
from .lorentz import acosh1p, normalize


@dataclass(frozen=True)
class HalfPlanePoint:
    """Point x + iy of the Poincare upper half-plane (y > 0)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)) or self.y <= 0.0:
            raise ValueError("need finite x and y > 0, got (%r, %r)" % (self.x, self.y))


BASEPOINT = HalfPlanePoint(0.0, 1.0)


def rho_act(m, h):
    """The isometric action on circle functions, |m^T u| h(angle(m^T u)): h's
    body moved by its transform, which keeps its base and the element m @ g."""
    return EvenFn(h.body.transform(m), h.grid)


def halfplane_apply(m, z):
    """Homographic image (az + b)/(cz + d) of a half-plane point."""
    w = complex(m.a * z.x + m.b, m.a * z.y) / complex(m.c * z.x + m.d, m.c * z.y)
    return HalfPlanePoint(w.real, w.imag)


def mobius_from_halfplane(z):
    """The upper-triangular section [[sqrt(y), x/sqrt(y)], [0, 1/sqrt(y)]] with m(i) = z."""
    r = math.sqrt(z.y)
    return Mobius(r, z.x / r, 0.0, 1.0 / r)


def _h2_between(a, b):
    """d(A i, B i) for unit-determinant 2x2 arrays A and B: the translation
    length acosh(||C||_F^2 / 2) = 2 asinh(q/2) of C = adj(B)·A = B^{-1}A, with
    q = _shear(C), neither squared nor overflowing."""
    return 2.0 * math.asinh(0.5 * _shear(*_adjugate_product(b, a)))


def dist_h2(z1, z2):
    """Hyperbolic-plane distance, _h2_between the sections of z1 and z2."""
    return _h2_between(*(mobius_from_halfplane(z).matrix for z in (z1, z2)))


def iota(z, M=DEFAULT_GRID):
    """Embed the hyperbolic plane: a half-plane point goes to its area-pi ellipse."""
    return normalize(from_ellipse(Ellipse(mobius_from_halfplane(z).matrix), M))


def _iota_dist(q, s0):
    """acosh C, C the mean of h = hypot(s0 sin x, s1 cos x) over [0, pi/2],
    for s0 >= s1 = 1/s0 and q = s0 - s1, by graded Gauss-Legendre.

    h peaks at 0 with width s1/s0.  For q <= 1, C - 1 = q^2 r is taken
    without cancellation: mean(h^2 - 1) = q^2/2 and h^2 - 1 =
    q (s0 sin^2 - s1 cos^2) give r = 1/4 - mean(((s0 sin^2 - s1 cos^2)/(h + 1))^2)/2,
    and the distance 2 asinh(q sqrt(r/2)) never forms q^2.
    """
    s1 = 1.0 / s0
    edges = _graded_edges(math.log2(s1) - math.log2(s0), 0.5 * math.pi)
    h = lambda x: np.hypot(s0 * np.sin(x), s1 * np.cos(x))  # noqa: E731
    if q > 1.0:
        return acosh1p(_panel_mean(h, edges) - 1.0)
    f = lambda x: ((s0 * np.sin(x) ** 2 - s1 * np.cos(x) ** 2) / (h(x) + 1.0)) ** 2  # noqa: E731
    return 2.0 * math.asinh(q * math.sqrt(0.125 - 0.25 * _panel_mean(f, edges)))


def iota_dist_quadrature(m):
    """Extrinsic distance acosh((1/2pi) int |m^T u|) by graded Gauss-Legendre:
    the mean of |m^T u| depends only on the singular values s0 >= 1/s0 of m."""
    return _iota_dist(_shear(m.a, m.b, m.c, m.d), _stretch(m.a, m.b, m.c, m.d))


_S_MAX = 2.0 * math.log(sys.float_info.max)  # where e^{s/2} overflows


def iota_dist_closed(s):
    """Extrinsic distance between embedded points at hyperbolic distance s.

    acosh C(e^{s/2}), with C the form value of an ellipse of stretch e^{s/2}
    against the disc, (2/pi) e^{s/2} E(k' = e^{-s}); the diagonal case
    extends to any pair by equivariance of the embedding.  For
    q = 2 sinh(s/2) < 1, where C - 1 would be formed by cancellation, it is
    the cancellation-free quadrature of iota_dist_quadrature at stretch
    e^{s/2}.  Refuses s outside [0, 2 log(largest double)), where e^{s/2}
    overflows.
    """
    if not 0.0 <= s < _S_MAX:
        raise ValueError("s must lie in [0, %.6g), got %r" % (_S_MAX, s))
    q = 2.0 * math.sinh(0.5 * s)
    if q >= 1.0:
        return acosh1p(_form_value(math.exp(0.5 * s)) - 1.0)
    return _iota_dist(q, math.exp(0.5 * s))
