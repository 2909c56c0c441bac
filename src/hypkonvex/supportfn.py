"""Even circle functions on a uniform grid, with exact shape tags.

An EvenFn holds M samples of a pi-periodic function on [0, 2pi) -- the kind
of function a symmetric convex body produces as its support function.  A
function built from an ellipse, segment, polygon or Sum stores only that
shape, as its tag, and M: every operation that can use the closed form does,
so those bodies never suffer interpolation error and cost per vertex, not per
grid point; their samples are computed on first read.  Fourier coefficients
are derived on demand and cached.  Scaling and nonnegative combination keep
the tag (as a Sum whose terms keep their coefficients), so only functions built
from raw samples or signed differences go through the spectral machinery:
trigonometric interpolation for off-grid values, evaluated by a nonuniform
FFT in O(M log M) to 1e-12 of the coefficients' absolute sum, and rfft-based
differentiation.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .shapes import Ellipse, Polygon, Segment, Sum, minkowski_combination

DEFAULT_GRID = 2048
EVEN_TOL = 1e-12
CONVEXITY_TOL = 1e-8

_SPREAD = 16  # half-width of the Gaussian gathering stencil, in fine-grid points


class GridMismatchError(ValueError):
    """Two grid functions with different sample counts were combined."""


class NotSupportFunctionError(ValueError):
    """An operation that needs a support function got a non-convex input."""


class SpectralTailWarning(UserWarning):
    """The top of the spectrum carries enough energy to distrust derivatives."""


def _check_grid(M):
    if M < 8 or M % 4 != 0:
        raise ValueError("grid size must be a multiple of 4 and at least 8, got %r" % (M,))


def grid_angles(M):
    _check_grid(M)
    return 2.0 * np.pi * np.arange(M) / M


def _checked(s):
    """s, made read-only, once it is finite and pi-periodic within EVEN_TOL."""
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be a finite 1-d array")
    half = s.size // 2
    top = 1.0 + float(np.abs(s).max())
    if np.abs(s[:half] - s[half:]).max() > EVEN_TOL * top:
        raise ValueError("samples are not pi-periodic within tolerance")
    s.setflags(write=False)
    return s


class EvenFn:
    """Samples of a pi-periodic function at angles 2*pi*j/M, j = 0..M-1.

    ``EvenFn(samples)`` wraps raw samples; its ``shape_tag`` is None.  A
    function built from a shape (by ``from_ellipse``, ``from_segment``,
    ``from_polygon``, ``scaled``, ``combine`` or ``rho_act``) stores only that
    shape, as ``shape_tag``, and the grid size ``grid``: it is the shape's
    support function and closed forms take over.  Its ``samples``, the
    support at the grid angles, are computed on first read and pass the
    same finite and pi-periodic check as raw ones.  Instances are immutable.
    """

    def __init__(self, samples):
        s = np.array(samples, dtype=float)
        if s.ndim != 1:
            raise ValueError("samples must be a finite 1-d array")
        _check_grid(s.size)
        object.__setattr__(self, "grid", s.size)
        object.__setattr__(self, "shape_tag", None)
        object.__setattr__(self, "samples", _checked(s))

    def __setattr__(self, name, value):
        raise AttributeError("EvenFn is immutable")

    def __delattr__(self, name):
        raise AttributeError("EvenFn is immutable")

    @cached_property
    def samples(self):
        # reached only by tagged functions: raw ones hold their samples
        return _checked(self.shape_tag.support(grid_angles(self.grid)))

    @cached_property
    def _coeffs(self):
        # rfft/M; the cache is populated once, re-computation is idempotent.
        c = np.fft.rfft(self.samples) / self.grid
        c.setflags(write=False)
        return c


def _from_shape(shape, M):
    """The support function of ``shape`` on an M-point grid; no sample is computed."""
    if not isinstance(shape, (Ellipse, Segment, Polygon, Sum)):
        raise TypeError("shape tag must be an Ellipse, Segment, Polygon, or Sum")
    _check_grid(M)
    h = EvenFn.__new__(EvenFn)
    object.__setattr__(h, "grid", M)
    object.__setattr__(h, "shape_tag", shape)
    return h


def from_samples(values, M=None):
    """Wrap raw samples; M, when given, cross-checks the array length."""
    v = np.asarray(values, dtype=float)
    if M is not None and v.size != M:
        raise GridMismatchError("expected %d samples, got %d" % (M, v.size))
    return EvenFn(v)


def constant(value, M=DEFAULT_GRID):
    return EvenFn(np.full(M, float(value)))


def unit_disc(M=DEFAULT_GRID):
    """The constant function 1, tagged as the unit disc."""
    return from_ellipse(Ellipse(np.eye(2)), M)


def from_ellipse(e, M=DEFAULT_GRID):
    """Support samples |A^T u| of the ellipse e = A·D."""
    if not isinstance(e, Ellipse):
        e = Ellipse(e)
    return _from_shape(e, M)


def from_segment(s, M=DEFAULT_GRID):
    """Support samples |<u, v>| of the segment [-v, v]."""
    if not isinstance(s, Segment):
        s = Segment(s)
    return _from_shape(s, M)


def from_polygon(p, M=DEFAULT_GRID):
    """Support samples max_v <u, v> of a symmetric convex polygon."""
    if not isinstance(p, Polygon):
        p = Polygon(p)
    return _from_shape(p, M)


def scaled(h, c):
    """c*h; a tagged h (c > 0) stays tagged with the scaled body.

    The scaled body keeps c as a coefficient (a shape K becomes the one-term
    Sum ((c, K),), a Sum multiplies its coefficients), so no geometry is
    rebuilt and no grid arithmetic is done; its samples are that body's
    support, read on demand.
    """
    if c < 0.0:
        raise ValueError("scaling coefficient must be nonnegative")
    if h.shape_tag is None or c == 0.0:
        return EvenFn(c * h.samples)
    return _from_shape(minkowski_combination([(c, h.shape_tag)]), h.grid)


def combine(c1, h1, c2, h2):
    """The nonnegative combination c1*h1 + c2*h2.

    Adding support functions adds the bodies (Minkowski sum), so when both
    operands are tagged the result carries the body c1 K1 + c2 K2 as its
    tag, built from the two tags alone with no grid arithmetic; otherwise it
    is returned untagged, as the sum of the samples.
    """
    if h1.grid != h2.grid:
        raise GridMismatchError("grids differ: %d vs %d" % (h1.grid, h2.grid))
    if c1 < 0.0 or c2 < 0.0:
        raise ValueError("combination coefficients must be nonnegative")
    if c2 == 0.0:
        return scaled(h1, c1)
    if c1 == 0.0:
        return scaled(h2, c2)
    if h1.shape_tag is None or h2.shape_tag is None:
        return EvenFn(c1 * h1.samples + c2 * h2.samples)
    return _from_shape(minkowski_combination([(c1, h1.shape_tag), (c2, h2.shape_tag)]), h1.grid)


def signed_diff(h1, h2):
    """h1 - h2, a general even function (support-function tags cannot survive)."""
    if h1.grid != h2.grid:
        raise GridMismatchError("grids differ: %d vs %d" % (h1.grid, h2.grid))
    return EvenFn(h1.samples - h2.samples)


def _interp(coeffs, M, theta):
    """Evaluate the trigonometric interpolant with rfft/M coefficients
    ``coeffs`` at arbitrary angles.

    A type-2 nonuniform FFT by fast Gaussian gridding (Dutt & Rokhlin 1993,
    Greengard & Lee 2004): the coefficients are deconvolved by the Gaussian's
    spectrum, one irfft puts them on a twice-oversampled grid, and each angle
    gathers 2*_SPREAD fine-grid values under the Gaussian.  The coefficient
    tail below 1e-15 of the peak is dropped, which sets the bandwidth, so the
    cost is O(n_max log n_max + points) and the result matches the direct sum
    to about 1e-12 of the sum of |coeffs|; a constant is returned exactly.
    The angles must be finite (eval_at and eval_deriv check theirs).
    """
    theta = np.asarray(theta, dtype=float)
    flat = np.atleast_1d(theta).ravel()
    mags = np.abs(coeffs)
    sig = np.nonzero(mags > 1e-15 * mags.max())[0]
    nmax = int(sig[-1]) if sig.size else 0
    if nmax == 0:
        out = np.full(flat.shape, coeffs[0].real)
        return out.reshape(theta.shape) if theta.ndim else float(out[0])
    # Bandwidth N > 2 n_max, a fine grid of 2N points, and the Gaussian
    # exp(-x^2 / 4 tau) whose width suits a 2*msp-point stencil there.
    N = min(M, 1 << (2 * nmax + 1).bit_length())
    fine, msp = 2 * N, _SPREAD
    tau = math.pi * msp / (N * N * 2 * 1.5)
    k = np.arange(nmax + 1)
    spec = np.zeros(N + 1, dtype=complex)
    spec[: nmax + 1] = coeffs[: nmax + 1] * (math.sqrt(math.pi / tau) * np.exp(k * k * tau))
    if nmax == M // 2:
        spec[nmax] = 0.5 * spec[nmax].real  # an ordinary mode on the fine grid
    f = np.fft.irfft(spec, n=fine)
    f = f[np.arange(-msp, fine + msp) % fine]  # padded: the gather needs no modulo
    h = 2.0 * math.pi / fine
    u = np.mod(flat, 2.0 * math.pi) / h
    m0 = np.minimum(np.floor(u), fine - 1)
    xi = (u - m0) * h
    # exp(-(xi - l h)^2 / 4 tau) = e1 * a**l * e3(l) for l = 1 - msp .. msp,
    # built by one cumprod of e1 * e3(1 - msp), then a * e3(l) / e3(l - 1).
    l = np.arange(1 - msp, msp + 1)
    log_e3 = -((l * h) ** 2) / (4.0 * tau)
    steps = np.empty((flat.size, 2 * msp))
    steps[:, 0] = np.exp(log_e3[0] - xi * (xi + (msp - 1) * 2.0 * h) / (4.0 * tau))
    steps[:, 1:] = np.exp(xi * h / (2.0 * tau))[:, None] * np.exp(np.diff(log_e3))
    windows = np.lib.stride_tricks.sliding_window_view(f, 2 * msp)
    out = np.einsum("ij,ij->i", np.cumprod(steps, axis=1), windows[m0.astype(np.intp) + 1])
    return out.reshape(theta.shape) if theta.ndim else float(out[0])


def eval_at(h, theta):
    """Value of h at arbitrary angles: closed form when tagged, else
    trigonometric interpolation through the samples."""
    if not np.all(np.isfinite(theta)):
        raise ValueError("angles must be finite")
    if h.shape_tag is not None:
        v = h.shape_tag.support(theta)
        return float(v) if np.ndim(theta) == 0 else v
    return _interp(h._coeffs, h.grid, theta)


def eval_deriv(h, theta):
    """dh/dtheta at arbitrary angles (closed form when tagged)."""
    if not np.all(np.isfinite(theta)):
        raise ValueError("angles must be finite")
    if h.shape_tag is not None:
        v = h.shape_tag.support_deriv(theta)
        return float(v) if np.ndim(theta) == 0 else v
    d = 1j * np.arange(h.grid // 2 + 1) * h._coeffs
    d[-1] = 0.0  # the sawtooth mode has no consistent odd derivative
    return _interp(d, h.grid, theta)


@dataclass(frozen=True)
class FourierTable:
    """Real trigonometric coefficients, indexed by harmonic; a[0] is the mean."""

    a: np.ndarray
    b: np.ndarray

    @property
    def a0(self):
        return float(self.a[0])


def fourier(h):
    """Coefficient table of h; odd harmonics must vanish (pi-periodicity)."""
    c = h._coeffs
    half = h.grid // 2
    a = np.empty(half + 1)
    b = np.zeros(half + 1)
    a[0] = c[0].real
    a[1:half] = 2.0 * c[1:half].real
    b[1:half] = -2.0 * c[1:half].imag
    a[half] = c[half].real
    odd = np.hypot(a[1::2], b[1::2]).max() if half >= 1 else 0.0
    top = float(np.abs(h.samples).max())
    if odd > 1e-10 * max(1.0, top):
        raise ValueError("odd harmonics present: the function is not pi-periodic")
    a.setflags(write=False)
    b.setflags(write=False)
    return FourierTable(a=a, b=b)


def synthesize(table, M):
    """Inverse of fourier(): rebuild grid samples from a coefficient table."""
    half = M // 2
    if table.a.size != half + 1:
        raise GridMismatchError("table has %d harmonics, grid wants %d" % (table.a.size - 1, half))
    c = np.empty(half + 1, dtype=complex)
    c[0] = table.a[0]
    c[1:half] = 0.5 * (table.a[1:half] - 1j * table.b[1:half])
    c[half] = table.a[half]
    return EvenFn(np.fft.irfft(c * M, n=M))


def _curvature_density(h):
    """Grid values of h'' + h via the spectral multiplier (1 - n^2).

    Machine-accurate for band-limited input; oscillatory on kinked input,
    where the distributional h''+h has point masses.
    """
    n = np.arange(h.grid // 2 + 1, dtype=float)
    return np.fft.irfft((1.0 - n**2) * h._coeffs * h.grid, n=h.grid)


def is_support_function(h):
    """Convexity check: h is a support function iff h'' + h >= 0.

    Returns (flag, min of the spectrally computed h''+h over the grid).  The
    spectral density is only meaningful for spectrally resolved functions;
    kinked bodies (polygons, segments) should be judged by their tags or by
    chord_convexity_defect.
    """
    g = _curvature_density(h)
    gmin = float(g.min())
    tol = CONVEXITY_TOL * (1.0 + float(np.abs(h.samples).max()))
    return gmin >= -tol, gmin


def chord_convexity_defect(h):
    """Minimum of (h(t-d) + h(t+d) - 2cos(d)h(t)) / (2 - 2cos(d)) on the grid.

    Every support function satisfies the chord inequality exactly at any
    grid spacing (sublinearity of the homogeneous extension), so this is a
    kink-proof convexity gate; for smooth h it approximates min(h''+h).
    """
    s = h.samples
    d = 2.0 * np.pi / h.grid
    defect = np.roll(s, 1) + np.roll(s, -1) - 2.0 * math.cos(d) * s
    return float(defect.min() / (2.0 - 2.0 * math.cos(d)))


def _tail_energy_fraction(h):
    c = h._coeffs
    p = 2.0 * np.abs(c) ** 2
    p[0] = 0.0
    p[-1] = np.abs(c[-1]) ** 2
    total = p.sum()
    if total == 0.0:
        return 0.0
    cut = int(round(0.75 * (h.grid // 2)))
    return float(p[cut:].sum() / total)


def support_split(h, strict=False):
    """Write h as a difference of support functions, h = s1 - s2.

    Takes c = max(0, -min(h''+h)) so that s1 = h + c and s2 = c are both
    convex.  Warns (or raises under strict) when the top quarter of the
    spectrum carries more than 1% of the energy, because the spectral h''
    is then untrustworthy.
    """
    frac = _tail_energy_fraction(h)
    if frac > 0.01:
        msg = "top-quarter spectrum carries %.2f%% of the energy" % (100.0 * frac)
        if strict:
            raise NotSupportFunctionError(msg)
        warnings.warn(msg, SpectralTailWarning)
    c = max(0.0, -float(_curvature_density(h).min()))
    s1 = EvenFn(h.samples + c)
    s2 = constant(c, h.grid)
    return c, s1, s2


def boundary_curve(h, n_points=DEFAULT_GRID):
    """Boundary of the body with support function h as an (n, 2) polyline.

    Points are c(t) = h(t) u(t) + h'(t) u_perp(t); tagged shapes use their
    closed-form boundary.  Raises NotSupportFunctionError when h fails the
    convexity gate.
    """
    _check_grid(n_points)
    theta = grid_angles(n_points)
    if h.shape_tag is not None:
        return h.shape_tag.boundary(theta)
    tol = CONVEXITY_TOL * (1.0 + float(np.abs(h.samples).max()))
    if chord_convexity_defect(h) < -tol:
        raise NotSupportFunctionError("input is not a support function (h''+h < 0 somewhere)")
    vals = _interp(h._coeffs, h.grid, theta)
    dvals = eval_deriv(h, theta)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    uperp = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    return vals[:, None] * u + dvals[:, None] * uperp
