"""Even circle functions on a uniform grid: a body part plus a raw part.

An EvenFn on M grid angles is the support function of a body K (an ellipse,
polygon or Sum, kept as its shape) plus the trigonometric interpolant t of
raw samples, either part absent; raw samples are their own raw part.  Every
operation adds K's closed form to t's spectral form, so a body suffers no
interpolation error and costs per generator, not per grid point; scaling
and nonnegative combination act part by part.  The samples (K's support
plus t's samples, computed on first read) serve the operations on samples
alone.  The spectral form is trigonometric interpolation (one
irfft onto another uniform grid; at scattered angles _interp, the one off-grid
evaluator: the direct sum for few angles times band, else a nonuniform FFT in
O(M log M)) and rfft-based differentiation (_deriv_coeffs, the one place the
Nyquist bin of a derivative is dropped).  A raw function answers the reads
shapes.mixed_area makes of a body (support, hsupport, band, g), which pair it
with a body.  A body reads no grid; a read of the samples of two functions
puts both on the finer grid (_on_grid), exactly.
"""

import math
import sys
import warnings
from functools import cache, cached_property

import numpy as np

from .shapes import Ellipse, Polygon, Segment, Sum, _freeze, _unit_vectors, minkowski_combination

DEFAULT_GRID = 2048
EVEN_TOL = 1e-12
CONVEXITY_TOL = 1e-8
# Rounding of the chord numerator of computed support samples, in units of
# eps * max|h| (derived in boundary_curve).
_CHORD_ROUNDING = 4.0 * (math.pi + math.sqrt(2.0) + 1.0) + 3.0

_SPREAD = 16  # half-width of the Gaussian gathering stencil, in fine-grid points


class SpectralTailWarning(UserWarning):
    """A raw spectrum's top holds enough energy to distrust its derivatives, shear or coarser resampling."""


class NotSupportFunctionError(ValueError):
    """An operation that needs a support function got a non-convex input."""


def _check_grid(M):
    if M < 8 or M % 4 != 0:
        raise ValueError("grid size must be a multiple of 4 and at least 8, got %r" % (M,))


def grid_angles(M):
    _check_grid(M)
    return 2.0 * np.pi * np.arange(M) / M


@cache
def _parseval_counts(M):
    # once per grid, read-only: the times each rfft bin counts in the
    # two-sided spectrum -- DC and Nyquist once, every other harmonic twice
    counts = np.full(M // 2 + 1, 2.0)
    counts[[0, -1]] = 1.0
    return _freeze(counts)


@cache
def _grid_directions(M):
    # once per grid, read-only: (cos, sin) at the grid angles, as (2, M) vectors
    return _freeze(_unit_vectors(grid_angles(M)))


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


class _Itself:
    """A raw function's raw part, itself; a non-data descriptor, so functions with a body keep theirs."""

    def __get__(self, h, owner=None):
        return h


class EvenFn:
    """A pi-periodic function at angles 2*pi*j/M, j = 0..M-1: body + raw.

    ``body`` is a shape or None, ``raw`` a function of raw samples or None;
    ``EvenFn(samples)`` wraps raw samples and is its own raw part.  A function
    with a body stores only its parts and ``grid``; its ``samples`` are
    computed on first read and pass the same finite and pi-periodic check as
    raw ones.  ``shape_tag`` is the body when there is no raw part, else None.
    Instances are immutable.
    """

    raw = _Itself()

    def __init__(self, samples):
        s = np.array(samples, dtype=float)
        if s.ndim != 1:
            raise ValueError("samples must be a finite 1-d array")
        _check_grid(s.size)
        object.__setattr__(self, "grid", s.size)
        object.__setattr__(self, "body", None)
        object.__setattr__(self, "samples", _checked(s))

    def __setattr__(self, name, value):
        raise AttributeError("EvenFn is immutable")

    def __delattr__(self, name):
        raise AttributeError("EvenFn is immutable")

    @property
    def shape_tag(self):
        return self.body if self.raw is None else None

    @cached_property
    def samples(self):
        # reached only by functions with a body: raw ones hold their samples
        s = self.body.hsupport(_grid_directions(self.grid))
        return _checked(s if self.raw is None else s + self.raw.samples)

    @cached_property
    def _coeffs(self):
        # rfft/M; the cache is populated once, re-computation is idempotent.
        c = np.fft.rfft(self.samples) / self.grid
        c.setflags(write=False)
        return c

    # What shapes.mixed_area reads of a body, for a raw function only: where
    # there is a body, the interpolant of the grid samples is not the function.
    g = None  # rho_act moves a raw part by resampling, never by a stored element

    @property
    def _raw_coeffs(self):
        if self.body is not None:
            raise TypeError("a function with a body is read part by part, not as one interpolant")
        return self._coeffs

    def support(self, theta):  # the interpolant at finite angles
        return _interp(self._raw_coeffs, self.grid, theta)

    def hsupport(self, w):  # the homogeneous extension |w| t(angle w) at (2, n) vectors w
        return np.hypot(w[0], w[1]) * self.support(np.arctan2(w[1], w[0]))

    @cached_property
    def band(self):  # the highest harmonic _interp keeps
        return _bandwidth(self._raw_coeffs)


def _from_shape(shape, M, raw=None):
    """The support function of ``shape`` plus ``raw`` (or ``raw`` alone) on an M-point grid; no sample is computed."""
    if shape is None:
        return raw
    if not isinstance(shape, (Ellipse, Polygon, Sum)):
        raise TypeError("shape tag must be an Ellipse, Polygon, or Sum")
    _check_grid(M)
    h = EvenFn.__new__(EvenFn)
    object.__setattr__(h, "grid", M)
    object.__setattr__(h, "body", shape)
    object.__setattr__(h, "raw", raw)
    return h


def _partwise(h, theta, closed, spectral):
    """closed(h.body) + spectral(h.raw) at the finite angles theta, over the parts h has."""
    if not np.all(np.isfinite(theta)):
        raise ValueError("angles must be finite")
    terms = [form(part) for form, part in ((closed, h.body), (spectral, h.raw)) if part is not None]
    v = terms[0] + terms[1] if len(terms) == 2 else terms[0]
    return float(v) if np.ndim(theta) == 0 else v


def from_samples(values, M=None):
    """Wrap raw samples; M, when given, cross-checks the array length."""
    v = np.asarray(values, dtype=float)
    if M is not None and v.size != M:
        raise ValueError("expected %d samples, got %d" % (M, v.size))
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
    """Support samples |<u, v>| of the segment [-v, v] (endpoint v, or its one-generator Polygon)."""
    return _from_shape(s if isinstance(s, Polygon) and len(s.generators) == 1 else Segment(s), M)


def from_polygon(p, M=DEFAULT_GRID):
    """Support samples of a symmetric convex polygon (its vertices, or a Polygon)."""
    return _from_shape(p if isinstance(p, Polygon) else Polygon(p), M)


def _combination(pairs):
    """The sum of c h over the (c, h) pairs, part by part: the bodies' Minkowski
    combination (a Sum keeps each coefficient, so no geometry is rebuilt) and
    the raw parts' sum on the finest grid.  A zero coefficient drops its operand."""
    M = max(h.grid for _, h in pairs)
    bodies = [(c, h.body) for c, h in pairs if c != 0.0 and h.body is not None]
    raws = [c * _on_grid(h.raw, M).samples for c, h in pairs if c != 0.0 and h.raw is not None]
    if not (bodies or raws):
        return constant(0.0, M)
    raw = EvenFn(sum(raws[1:], raws[0])) if raws else None
    return _from_shape(minkowski_combination(bodies) if bodies else None, M, raw)


def scaled(h, c):
    """c*h for c >= 0, part by part (_combination): a body K becomes the
    one-term Sum ((c, K),), a Sum multiplies its coefficients."""
    if c < 0.0:
        raise ValueError("scaling coefficient must be nonnegative")
    return _combination([(c, h)])


def combine(c1, h1, c2, h2):
    """The nonnegative combination c1*h1 + c2*h2, part by part (_combination).

    Adding support functions adds the bodies (Minkowski sum), so the body part
    is c1 K1 + c2 K2, built from the two bodies alone, and the raw part is the
    sum of the raw samples, on the finer grid.
    """
    if c1 < 0.0 or c2 < 0.0:
        raise ValueError("combination coefficients must be nonnegative")
    return _combination([(c1, h1), (c2, h2)])


def signed_diff(h1, h2):
    """h1 - h2 on the finer grid, a general even function (support-function tags cannot survive)."""
    M = max(h1.grid, h2.grid)
    return EvenFn(_on_grid(h1, M).samples - _on_grid(h2, M).samples)


def _resample(coeffs, M, N):
    """The trigonometric interpolant with rfft/M coefficients ``coeffs``
    (harmonics 0.. up to M/2, the Nyquist mode M/2 a cosine) at the N grid
    angles 2*pi*j/N, by one irfft: harmonic n lands in bin n mod N, so a
    finer grid is zero-padded and a coarser one folded, exactly.
    """
    c = np.array(coeffs, dtype=complex)
    if c.size > M // 2:
        c[M // 2] = 0.5 * c[M // 2].real  # split between +-M/2
    n = np.arange(c.size)
    bins, both = np.r_[n, -n[1:]] % N, np.r_[c, np.conj(c[1:])]
    folded = np.bincount(bins, both.real, N) + 1j * np.bincount(bins, both.imag, N)
    return np.fft.irfft(folded[: N // 2 + 1] * N, n=N)


def _on_grid(h, N):
    """h read on an N-point grid: the body re-tagged, the raw part's
    interpolant moved by _resample, exactly onto a finer grid."""
    if h.grid == N:
        return h
    return _from_shape(h.body, N, None if h.raw is None else EvenFn(_resample(h.raw._coeffs, h.grid, N)))


def _bandwidth(coeffs):
    """The highest harmonic whose coefficient exceeds 1e-15 of the largest (0 if none)."""
    mags = np.abs(coeffs)
    sig = np.nonzero(mags > 1e-15 * mags.max())[0]
    return int(sig[-1]) if sig.size else 0


# 2 pi as a 31-bit head, exact times any |k| < 2^22 turns, and its tail (Cody & Waite 1980)
_TWO_PI_HI, _TWO_PI_LO = float.fromhex("0x1.921fb544p+2"), float.fromhex("0x1.0b4611a626331p-32")


def _interp(coeffs, M, theta):
    """The trigonometric interpolant with rfft/M coefficients ``coeffs`` at
    finite angles, reduced mod 2 pi: the one off-grid evaluator (uniform grids
    take _resample).  Coefficients below 1e-15 of the peak are dropped, which
    sets the band n_max.  While points times n_max stay within 2^14, the direct
    sum (the Nyquist mode a cosine; a constant exactly) costs less than the
    set-up of the type-2 nonuniform FFT by fast Gaussian gridding (Dutt &
    Rokhlin 1993, Greengard & Lee 2004) taken past that: the coefficients are
    deconvolved by the Gaussian's spectrum, one irfft puts them on a
    twice-oversampled grid, and each angle gathers 2*_SPREAD fine-grid values
    under the Gaussian, one multiply-add each, in O(n_max log n_max + points)
    time and O(points) memory, to about 1e-12 of sum |coeffs| from the direct sum.
    """
    theta = np.asarray(theta, dtype=float)
    flat = np.atleast_1d(theta).ravel()
    turns = np.floor(flat / (2.0 * math.pi))
    flat = np.mod((flat - turns * _TWO_PI_HI) - turns * _TWO_PI_LO, 2.0 * math.pi)  # in range past 2^22 turns too
    nmax = _bandwidth(coeffs)
    if flat.size * nmax <= 1 << 14:
        c = 2.0 * coeffs[1 : nmax + 1]
        if nmax == M // 2:
            c[-1] = coeffs[nmax].real
        powers = np.cumprod(np.broadcast_to(np.exp(1j * flat)[:, None], (flat.size, nmax)), axis=1)
        out = (powers @ c).real + coeffs[0].real
        return out.reshape(theta.shape) if theta.ndim else float(out[0])
    # Bandwidth N > 2 n_max, a fine grid of 2N points, and the Gaussian
    # exp(-x^2 / 4 tau) whose width suits a 2*msp-point stencil there.
    N = min(M, 1 << (2 * nmax + 1).bit_length())
    fine, msp = 2 * N, _SPREAD
    tau = math.pi * msp / (N * N * 2 * 1.5)
    k = np.arange(nmax + 1)
    f = _resample(coeffs[: nmax + 1] * (math.sqrt(math.pi / tau) * np.exp(k * k * tau)) / fine, M, fine)
    f = f[np.arange(-msp, fine + msp) % fine]  # padded: the gather needs no modulo
    h = 2.0 * math.pi / fine
    u = flat / h
    m0 = np.minimum(np.floor(u), fine - 1)
    xi = (u - m0) * h
    # exp(-(xi - l h)^2 / 4 tau) = e1 * a**l * e3(l) for l = 1 - msp .. msp:
    # one pass per offset l takes the weight w from l - 1 to l by the factor
    # a * e3(l) / e3(l - 1) and adds w * f there; only length-n arrays live.
    l = np.arange(1 - msp, msp + 1)
    log_e3 = -((l * h) ** 2) / (4.0 * tau)
    a = np.exp(xi * h / (2.0 * tau))
    w = np.exp(log_e3[0] - xi * (xi + (msp - 1) * 2.0 * h) / (4.0 * tau))
    idx = m0.astype(np.intp) + 1
    out = w * f[idx]
    for j, ratio in enumerate(np.exp(np.diff(log_e3)), 1):
        w *= a * ratio
        out += w * f[j:][idx]
    return out.reshape(theta.shape) if theta.ndim else float(out[0])


def eval_at(h, theta):
    """Value of h at arbitrary angles: the body's closed form plus the
    trigonometric interpolant of the raw part."""
    return _partwise(h, theta, lambda k: k.support(theta), lambda t: _interp(t._coeffs, h.grid, theta))


def eval_deriv(h, theta):
    """dh/dtheta at arbitrary angles, by parts as in eval_at."""
    return _partwise(h, theta, lambda k: k.support_deriv(theta), lambda t: _interp(_deriv_coeffs(t), h.grid, theta))


def _deriv_coeffs(h):
    """The rfft/M coefficients i n c_n of h', the Nyquist bin zeroed: the
    sawtooth mode has no consistent odd derivative."""
    return np.append(1j * np.arange(h.grid // 2) * h._coeffs[:-1], 0.0)


def fourier(h):
    """Real trigonometric coefficients (a, b) of h, indexed by harmonic; a[0]
    is the mean.  Odd harmonics are at most EVEN_TOL (1 + max|h|), the
    pi-periodicity every EvenFn is checked to."""
    c = h._coeffs
    half = h.grid // 2
    a = np.empty(half + 1)
    b = np.zeros(half + 1)
    a[0] = c[0].real
    a[1:half] = 2.0 * c[1:half].real
    b[1:half] = -2.0 * c[1:half].imag
    a[half] = c[half].real
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


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
    kink-proof convexity gate; for smooth h it approximates min(h''+h).  The
    division by 2 - 2cos(d), about d^2, magnifies the numerator's rounding
    by M^2/(4 pi^2).
    """
    s = h.samples
    d = 2.0 * np.pi / h.grid
    defect = np.roll(s, 1) + np.roll(s, -1) - 2.0 * math.cos(d) * s
    return float(defect.min() / (2.0 - 2.0 * math.cos(d)))


def _tail_share(h, n, first=0):
    """The share of h's energy in harmonics >= first that lies in harmonics >= n (0 if
    none), normalized by the largest coefficient: no square overflows at any scale."""
    mags = np.abs(h._coeffs[first:])
    energy = _parseval_counts(h.grid)[first:] * (mags / (mags.max() or 1.0)) ** 2
    return float(energy[n - first :].sum() / energy.sum()) if energy.any() else 0.0


def _warn_spectral_tail(h, message):
    """Warn with a SpectralTailWarning, ``message % percent``, when the top
    quarter of h's spectrum carries more than 1% of its non-constant energy."""
    frac = _tail_share(h, int(round(0.75 * (h.grid // 2))), first=1)
    if frac > 0.01:
        warnings.warn(message % (100.0 * frac), SpectralTailWarning)


def support_split(h):
    """Write h as a difference of support functions, h = s1 - s2.

    Takes c = max(0, -min(h''+h)) so that s1 = h + c and s2 = c are both
    convex.  Warns with a SpectralTailWarning when the top quarter of the
    spectrum carries more than 1% of the energy, because the spectral h''
    is then untrustworthy; a warnings filter (the CLI's --strict) turns it
    into an error.
    """
    _warn_spectral_tail(h, "top-quarter spectrum carries %.2f%% of the energy")
    c = max(0.0, -float(_curvature_density(h).min()))
    s1 = EvenFn(h.samples + c)
    s2 = constant(c, h.grid)
    return c, s1, s2


def boundary_curve(h, n_points=DEFAULT_GRID):
    """Boundary of the body with support function h as an (n, 2) polyline.

    Points are c(t) = h(t) u(t) + h'(t) u_perp(t), linear in h: the body's
    closed-form boundary plus that map of the raw part's interpolant.  With a
    raw part, the whole function's samples must pass the chord convexity gate
    (a body alone is convex), else NotSupportFunctionError is raised: a
    chord convexity defect below
    -(CONVEXITY_TOL (1 + max|h|) + c eps max|h| / (2 - 2cos d)), d = 2 pi/M.

    The second term is the rounding floor of the defect's numerator, with
    c = 4 (pi + sqrt 2 + 1) + 3, about 25.2.  A sample computed in double
    precision as a polygon's support max_v <u, v> at a grid direction u is
    off by at most (pi + sqrt 2 + 1) eps max|h|: the angle 2 pi j/M carries
    pi eps, its cosine and sine sqrt 2 eps together, and the dot product
    eps, each times the support's Lipschitz constant max|v| = max|h|
    (ellipses and sums are alike).  The numerator weighs three samples by
    1, 1 and 2cos d, at most 4 in all, and its own evaluation adds
    3 eps max|h|.
    """
    _check_grid(n_points)
    if h.raw is not None:
        top = float(np.abs(h.samples).max())
        floor = _CHORD_ROUNDING * sys.float_info.epsilon * top / (2.0 - 2.0 * math.cos(2.0 * math.pi / h.grid))
        if chord_convexity_defect(h) < -(CONVEXITY_TOL * (1.0 + top) + floor):
            raise NotSupportFunctionError("input is not a support function (h''+h < 0 somewhere)")

    def spectral(t):
        vals = _resample(t._coeffs, t.grid, n_points)
        dvals = _resample(_deriv_coeffs(t), t.grid, n_points)
        c, s = _grid_directions(n_points)
        return np.stack([vals * c - dvals * s, vals * s + dvals * c], axis=1)

    theta = grid_angles(n_points)
    return _partwise(h, theta, lambda k: k.boundary(theta), spectral)
