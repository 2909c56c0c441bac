"""PSL2(R): action on the circle, on support functions, and on the half-plane.

A Mobius element is a real 2x2 unit-determinant matrix up to sign.  It acts
on bodies by the linear map, on circle functions by
rho(A)h(x) = |A^T x| h(A^T x / |A^T x|), and on the Poincare upper half-plane
by homography.  The orbit of the unit disc is the family of area-pi ellipses,
giving an embedding iota of the hyperbolic plane into the hyperboloid of
bodies whose extrinsic distance comes out in closed form through complete
elliptic integrals.
"""

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .shapes import Ellipse, _check_unit_det
from .specfun import agm_KE_from_complement
from .supportfn import (
    DEFAULT_GRID,
    EvenFn,
    SpectralTailWarning,
    _from_shape,
    _interp,
    _tail_energy_fraction,
    from_ellipse,
    grid_angles,
)
from .lorentz import acosh1p, normalize

DET_TOL = 1e-12


@dataclass(frozen=True)
class Mobius:
    """Element of PSL2(R): entries with ad - bc = 1, canonically signed.

    The stored representative makes the first nonzero of (a, b, c, d)
    positive, so equality of group elements is equality of fields.  The
    determinant is checked to DET_TOL relative to |ad| + |bc|.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        vals = (float(self.a), float(self.b), float(self.c), float(self.d))
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("entries must be finite")
        _check_unit_det(*vals, DET_TOL)
        for v in vals:
            if v != 0.0:
                if v < 0.0:
                    vals = tuple(-x for x in vals)
                break
        for name, v in zip(("a", "b", "c", "d"), vals):
            object.__setattr__(self, name, v)

    @property
    def matrix(self):
        return np.array([[self.a, self.b], [self.c, self.d]])

    @classmethod
    def from_matrix(cls, m):
        """Normalize a positive-determinant matrix into PSL2(R)."""
        m = np.asarray(m, dtype=float)
        det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        if det <= 0.0:
            raise ValueError("matrix must have positive determinant, got %.17g" % det)
        m = m / math.sqrt(det)
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @classmethod
    def rotation(cls, phi):
        return cls(math.cos(phi), -math.sin(phi), math.sin(phi), math.cos(phi))

    @classmethod
    def axial(cls, s):
        """diag(e^{s/2}, e^{-s/2}): translation length s along the imaginary axis."""
        return cls(math.exp(0.5 * s), 0.0, 0.0, math.exp(-0.5 * s))

    def inverse(self):
        return Mobius(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other):
        return Mobius.from_matrix(self.matrix @ other.matrix)


@dataclass(frozen=True)
class HalfPlanePoint:
    """Point x + iy of the Poincare upper half-plane (y > 0)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)) or self.y <= 0.0:
            raise ValueError("need finite x and y > 0, got (%r, %r)" % (self.x, self.y))


BASEPOINT = HalfPlanePoint(0.0, 1.0)


def act_circle(m, theta):
    """The projective action on the circle: the angle of M u / |M u|."""
    scalar = np.ndim(theta) == 0
    theta = np.asarray(theta, dtype=float)
    u = np.stack([np.cos(theta), np.sin(theta)])
    w = m.matrix @ u
    ang = np.arctan2(w[1], w[0]) % (2.0 * math.pi)
    return float(ang) if scalar else ang


def rho_act(m, h):
    """The isometric action on circle functions: |m^T u| h(angle(m^T u)).

    Shape tags transport exactly (ellipse matrix -> mA, segment -> mv,
    polygon -> m vertices, Sum -> each term).  Untagged functions are
    resampled at the sheared angles by trigonometric interpolation (the
    nonuniform FFT of supportfn._interp, O(M log M)); a warning fires when
    the input spectrum is not resolved, since the action shears spectra.
    """
    if h.shape_tag is not None:
        return _from_shape(h.shape_tag.transform(m.matrix), h.grid)
    frac = _tail_energy_fraction(h)
    if frac > 0.01:
        warnings.warn(
            "input spectrum unresolved (top quarter holds %.2f%% energy); "
            "the sheared result will alias" % (100.0 * frac),
            SpectralTailWarning,
        )
    theta = grid_angles(h.grid)
    u = np.stack([np.cos(theta), np.sin(theta)])
    w = m.matrix.T @ u
    r = np.hypot(w[0], w[1])
    ang = np.arctan2(w[1], w[0])
    return EvenFn(r * _interp(h._coeffs, h.grid, ang))


def halfplane_apply(m, z):
    """Homographic image (az + b)/(cz + d) of a half-plane point."""
    w = complex(m.a * z.x + m.b, m.a * z.y) / complex(m.c * z.x + m.d, m.c * z.y)
    return HalfPlanePoint(w.real, w.imag)


def mobius_from_halfplane(z):
    """The upper-triangular section [[sqrt(y), x/sqrt(y)], [0, 1/sqrt(y)]] with m(i) = z."""
    r = math.sqrt(z.y)
    return Mobius(r, z.x / r, 0.0, 1.0 / r)


def dist_h2(z1, z2):
    """Hyperbolic-plane distance acosh(||B^{-1}A||_F^2 / 2) via the sections.

    Evaluated through ||C||_F^2/2 - 1 = ((a-d)^2 + (b+c)^2)/2, which is exact
    for det C = 1 and keeps nearby points cancellation-free.
    """
    if z1 == z2:
        return 0.0
    c = mobius_from_halfplane(z2).inverse() @ mobius_from_halfplane(z1)
    x = 0.5 * ((c.a - c.d) ** 2 + (c.b + c.c) ** 2)
    return acosh1p(x)


def iota(z, M=DEFAULT_GRID):
    """Embed the hyperbolic plane: a half-plane point goes to its area-pi ellipse."""
    return normalize(from_ellipse(Ellipse(mobius_from_halfplane(z).matrix), M))


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


def iota_dist_quadrature(m):
    """Extrinsic distance acosh((1/2pi) int |m^T u|) by graded Gauss-Legendre.

    For singular values s0 >= s1 of m this is the mean of
    hypot(s0 sin x, s1 cos x) over [0, pi/2], which peaks at 0 with width s1/s0.
    """
    s0 = float(np.linalg.svd(m.matrix, compute_uv=False)[0])
    s1 = 1.0 / s0  # det m = 1; svd's own s1 errs by eps*s0 (it is 0 for diag(1e231, 1e-231))
    edges = _graded_edges(math.log2(s1) - math.log2(s0), 0.5 * math.pi)
    mean = _panel_mean(lambda x: np.hypot(s0 * np.sin(x), s1 * np.cos(x)), edges)
    return acosh1p(max(0.0, mean - 1.0))


_S_MAX = 2.0 * math.log(sys.float_info.max)  # where e^{s/2} overflows


def iota_dist_closed(s):
    """Extrinsic distance between embedded points at hyperbolic distance s.

    acosh((2/pi) e^{s/2} E(k)) with complementary modulus k' = e^{-s}; the
    diagonal case extends to any pair by equivariance of the embedding.
    Refuses s outside [0, 2 log(largest double)), where e^{s/2} overflows.
    """
    if not 0.0 <= s < _S_MAX:
        raise ValueError("s must lie in [0, %.6g), got %r" % (_S_MAX, s))
    if s == 0.0:
        return 0.0
    E = agm_KE_from_complement(math.exp(-s))[1]
    x = (2.0 / math.pi) * math.exp(0.5 * s) * E - 1.0
    return acosh1p(max(0.0, x))
