"""Even circle functions on a uniform grid: one body on a grid.

An EvenFn on M grid angles is the support function of one body: a shape (an
ellipse, polygon or Sum), a raw term (Raw, the trigonometric interpolant t
of raw samples) or a Sum of both, read through the body protocol, so a shape
suffers no interpolation error and costs per generator, not per grid point.
Scaling and nonnegative combination are the bodies' Minkowski combination,
which folds raw terms into one; a raw term moves as every body does, keeping
its base and element.  Raw samples are checked once, where they enter, and
keep their rfft/M coefficients; a linear image of raw terms (a fold, a lift,
h + c, h1 - h2) is the same map of those alone, its samples one irfft on first
read.  Every array kept is computed and refused in _finite, so an overflow is
refused, not warned of.  The spectral form is trigonometric interpolation (one
irfft onto another uniform grid; _interp, the one off-grid evaluator, at
scattered angles) and rfft-based differentiation (_deriv_coeffs, the one place
the Nyquist bin of a derivative is dropped).  A shape reads no grid; a read of
the samples of two functions puts both on the finer grid (_on_grid), exactly.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .shapes import Ellipse, Polygon, Segment, Sum, _Body, _freeze, _terms, _unit_vectors, minkowski_combination

DEFAULT_GRID = 2048
EVEN_TOL = 1e-12
CONVEXITY_TOL = 1e-8
# Rounding of the chord numerator of computed support samples, in units of
# eps * max|h| (derived in is_support_function).
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
def _spectral_weights(M):
    # once per grid, read-only: the weights of the rfft bins' c c' in the
    # interpolant's mean square (its Nyquist mode a_N cos(N x) has a_N^2 / 2),
    # and those times 1 - n^2, the form's; every spectral value reads them
    w = np.array(_parseval_counts(M))
    w[-1] *= 0.5
    return _freeze(w), _freeze(w * (1.0 - np.arange(M // 2 + 1, dtype=float) ** 2))


def _parseval(c1, c2, M):
    return float(np.dot(_spectral_weights(M)[1], (c1 * np.conj(c2)).real))


@cache
def _grid_directions(M):
    # once per grid, read-only: (cos, sin) at the grid angles, as (2, M) vectors
    return _freeze(_unit_vectors(grid_angles(M)))


def _finite(compute):
    """The array compute() returns, made read-only once every entry is finite; run without numpy's warnings, an overflow is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = compute()
    if not np.isfinite(a).all():
        raise ValueError("samples and their spectrum must be finite")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False, init=False)
class Raw(_Body):
    """A raw term: the trigonometric interpolant t at the M grid angles, rfft/M coefficients c,
    perimeter 2 pi c_0.  Outside samples are checked once, their halves equal within EVEN_TOL max|s|
    (exactly below the normal range), then kept with c, taken then and refused with them unless finite
    (_finite); a linear image of raw terms (_spectral) is c alone.  A move keeps base and element,
    warning when the base's spectrum, which it shears, is unresolved; the image and its c are computed
    on first read, |g^T u| t(angle g^T u) at the first M/2 grid angles written twice (t's odd residue dropped).
    """

    def __init__(self, samples):
        s = np.array(samples, dtype=float)
        if s.ndim != 1:
            raise ValueError("samples must be a 1-d array")
        _check_grid(s.size)
        s.setflags(write=False)

        def spectrum():  # a NaN or inf sample passes here (a NaN difference, or an inf bound), and c is refused
            top = np.abs(s).max()
            bound = EVEN_TOL * top if top >= sys.float_info.min else 0.0  # below the normal range: exact
            if np.abs(s[: s.size // 2] - s[s.size // 2 :]).max() > bound:
                raise ValueError("samples are not pi-periodic within tolerance")
            return np.fft.rfft(s, norm="forward")
        vars(self).update(grid=s.size, samples=s, _coeffs=_finite(spectrum))

    @cached_property
    def samples(self):  # reached only by an image: samples from outside are held
        M = self.grid
        if not self.g:  # a linear image: one irfft
            return _finite(lambda: np.fft.irfft(self._coeffs, n=M, norm="forward"))
        return _finite(lambda: np.tile(self.base.hsupport(self.g.matrix.T @ _grid_directions(M)[:, : M // 2]), 2))

    @cached_property
    def _coeffs(self):  # reached only by a moved term: every other holds its own
        return _finite(lambda: np.fft.rfft(self.samples, norm="forward"))

    def support(self, theta):  # the interpolant at finite angles
        return _interp(self._coeffs, self.grid, theta)

    def support_deriv(self, theta):  # the interpolant's derivative at finite angles
        return _interp(_deriv_coeffs(self._coeffs), self.grid, theta)

    def hsupport(self, w):  # the homogeneous extension at (2, n) vectors w
        return np.hypot(w[0], w[1]) * self.support(np.arctan2(w[1], w[0]))

    @cached_property
    def band(self):  # the highest harmonic _interp keeps
        return _bandwidth(self._coeffs)

    @cached_property
    def perimeter(self):  # a moved term pairs the disc through its base, never reading its image
        return super().perimeter if self.g else 2.0 * math.pi * float(self._coeffs[0].real)

    def _paired(self, other):  # the mixed area with a raw term: pi times the Parseval form on the finer grid
        M = max(self.grid, other.grid)
        return math.pi * _parseval(_lift(self, M)._coeffs, _lift(other, M)._coeffs, M)

    def _image(self, m):
        why = "input spectrum unresolved (top quarter holds %.2f%% energy); the sheared result will alias"
        _warn_spectral_tail(self.base or self, why)
        return _raw(grid=self.grid)  # transform sets its base and element

    @staticmethod
    def _fold(terms):  # sum c t as one raw term on one grid, an element all share kept: c g t = g (c t)
        g = terms[0][1].g
        if g is not None and all(t.g == g for _, t in terms):
            return _raw(grid=terms[0][1].grid, base=Raw._fold([(c, t.base) for c, t in terms]), g=g)
        return _spectral(lambda: sum(c * t._coeffs for c, t in terms))


def _raw(**state):  # a raw term from its state alone, unchecked: a moved term's base and element, or an image's c
    term = object.__new__(Raw)
    vars(term).update(state)
    return term


def _spectral(compute):  # the raw term with rfft/M coefficients compute(), a linear image of raw terms (_finite)
    c = _finite(compute)
    return _raw(grid=2 * c.size - 2, _coeffs=c)


def _lift(k, N):
    """The body k on an N-point grid: a raw term's interpolant, its spectrum put there by
    _spectrum_on (a moved term's base's, moved again), a Sum's raw term lifted; a shape reads no grid."""
    if isinstance(k, Sum) and _holds_raw(k):
        return Sum(tuple((c, _lift(t, N)) for c, t in k.terms))
    if not k.grid or k.grid == N:
        return k
    if k.g:
        return _raw(grid=N, base=_lift(k.base, N), g=k.g)
    return _spectral(lambda: _spectrum_on(k._coeffs, k.grid, N))


def _holds_raw(body):
    return any(k.grid for _, k in _terms(body))


@dataclass(frozen=True, eq=False, init=False)
class EvenFn:
    """A pi-periodic function at angles 2*pi*j/M, j = 0..M-1: one body on a grid.

    ``EvenFn(samples)`` wraps raw samples as a bare raw term on their grid;
    ``EvenFn(body, M)`` puts a body (a shape, a raw term on the M-point grid,
    or a Sum of them) on the M-point grid.  ``samples`` are computed on first
    read (a bare raw term's are its own) and must be finite; raw samples were
    checked where they entered.  ``shape_tag`` is the body when it holds no
    raw term, else None.  Instances are immutable.
    """

    def __init__(self, samples, grid=None):
        body = samples if isinstance(samples, _Body) else Raw(samples)
        grid = body.grid if grid is None else grid
        _check_grid(grid)
        vars(self).update(body=body, grid=grid)

    @property
    def shape_tag(self):
        return None if _holds_raw(self.body) else self.body

    @cached_property
    def samples(self):  # a bare raw term's own, else the body's support at the grid angles, term by term
        if self.body.grid == self.grid:
            return self.body.samples
        u = _grid_directions(self.grid)
        return _finite(lambda: sum(c * (k.samples if k.grid else k.hsupport(u)) for c, k in _terms(_lift(self.body, self.grid))))

    @cached_property
    def _coeffs(self):
        return self.body._coeffs if self.body.grid == self.grid else _finite(lambda: np.fft.rfft(self.samples, norm="forward"))

    @cached_property
    def _self_form(self):  # the Parseval self-form on the grid, kept for lorentz.form_A_spectral
        return _parseval(self._coeffs, self._coeffs, self.grid)


def from_samples(values, M=None):
    """Wrap raw samples (Raw); M, when given, must be an integer equal to their count."""
    v = np.asarray(values, dtype=float)
    if M is not None and (int(M) != M or v.size != M):
        raise ValueError("expected %r samples, got %d" % (M, v.size))
    return EvenFn(v)


def constant(value, M=DEFAULT_GRID):
    """The constant value on the M-point grid, from its exact spectrum (value, then zeros): no rfft."""
    _check_grid(M)
    return EvenFn(_spectral(lambda: np.r_[complex(value), np.zeros(M // 2, complex)]))


def unit_disc(M=DEFAULT_GRID):
    """The constant function 1, tagged as the unit disc."""
    return from_ellipse(Ellipse(np.eye(2)), M)


def from_ellipse(e, M=DEFAULT_GRID):
    """Support samples |A^T u| of the ellipse e = A·D."""
    return EvenFn(e if isinstance(e, Ellipse) else Ellipse(e), M)


def from_segment(s, M=DEFAULT_GRID):
    """Support samples |<u, v>| of the segment [-v, v] (endpoint v, or its one-generator Polygon)."""
    return EvenFn(s if isinstance(s, Polygon) and len(s.generators) == 1 else Segment(s), M)


def from_polygon(p, M=DEFAULT_GRID):
    """Support samples of a symmetric convex polygon (its vertices, or a Polygon)."""
    return EvenFn(p if isinstance(p, Polygon) else Polygon(p), M)


def _combination(pairs):
    """The sum of c h over the (c, h) pairs, on the finest grid: the bodies'
    Minkowski combination (a Sum keeps each coefficient, so no geometry is
    rebuilt; raw terms fold into one).  A zero coefficient drops its operand; with none left, h is 0."""
    M = max(h.grid for _, h in pairs)
    body = minkowski_combination([(c, _on_grid(h, M).body) for c, h in pairs if c != 0.0])
    return constant(0.0, M) if body is None else EvenFn(body, M)


def scaled(h, c):
    """c*h for c >= 0 (_combination): a shape K becomes the one-term Sum
    ((c, K),), a Sum multiplies its coefficients, a raw term its spectrum."""
    if c < 0.0:
        raise ValueError("scaling coefficient must be nonnegative")
    return _combination([(c, h)])


def combine(c1, h1, c2, h2):
    """The nonnegative combination c1*h1 + c2*h2 (_combination).

    Adding support functions adds the bodies (Minkowski sum), so the result
    is the body c1 K1 + c2 K2, built from the two bodies alone, its raw term
    the sum of the raw terms' spectra, on the finer grid.
    """
    if c1 < 0.0 or c2 < 0.0:
        raise ValueError("combination coefficients must be nonnegative")
    return _combination([(c1, h1), (c2, h2)])


def signed_diff(h1, h2):
    """h1 - h2 on the finer grid, a general even function (support-function tags cannot survive)."""
    f, g = (_on_grid(h, max(h1.grid, h2.grid)) for h in (h1, h2))
    return EvenFn(_spectral(lambda: f._coeffs - g._coeffs))


def _spectrum_on(coeffs, M, N):
    """The rfft/N coefficients of the trigonometric interpolant with rfft/M
    coefficients ``coeffs`` (harmonics 0.. up to M/2, the Nyquist mode M/2 a
    cosine) on the N-point grid: harmonic n lands in bin n mod N, so a finer
    grid is zero-padded and a coarser one folded, exactly.
    """
    c = np.array(coeffs, dtype=complex)
    if c.size > M // 2:
        c[M // 2] = 0.5 * c[M // 2].real  # split between +-M/2
    n = np.arange(c.size)
    bins, both = np.r_[n, -n[1:]] % N, np.r_[c, np.conj(c[1:])]
    folded = np.bincount(bins, both.real, N)[: N // 2 + 1] + 1j * np.bincount(bins, both.imag, N)[: N // 2 + 1]
    folded[[0, -1]] = folded[[0, -1]].real  # DC and Nyquist: irfft reads only their real parts
    return folded


def _resample(coeffs, M, N):  # that interpolant at the N grid angles 2*pi*j/N, by one irfft
    return np.fft.irfft(_spectrum_on(coeffs, M, N), n=N, norm="forward")


def _on_grid(h, N):
    """h read on an N-point grid: its raw term lifted (_lift), exactly onto a finer grid."""
    return h if h.grid == N else EvenFn(_lift(h.body, N), N)


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


def _at(read, theta):
    if not np.all(np.isfinite(theta)):
        raise ValueError("angles must be finite")
    v = read(theta)
    return float(v) if np.ndim(theta) == 0 else v


def eval_at(h, theta):
    """Value of h at finite angles: its body's support (a Sum's term by term, a raw term's interpolant)."""
    return _at(h.body.support, theta)


def eval_deriv(h, theta):
    """dh/dtheta at finite angles, from the body as in eval_at."""
    return _at(h.body.support_deriv, theta)


def _deriv_coeffs(coeffs):
    """The rfft/M coefficients i n c_n of h', from h's c_n, the Nyquist bin
    zeroed: the sawtooth mode has no consistent odd derivative."""
    return np.append(1j * np.arange(coeffs.size - 1) * coeffs[:-1], 0.0)


def fourier(h):
    """Real trigonometric coefficients (a, b) of h, indexed by harmonic; a[0]
    is the mean.  Raw samples s have odd harmonics of at most EVEN_TOL max|s|,
    the pi-periodicity they are checked to where they enter (Raw)."""
    c = h._coeffs
    a, b = 2.0 * c.real, -2.0 * c.imag
    a[[0, -1]], b[[0, -1]] = c[[0, -1]].real, 0.0  # DC and Nyquist count once and are cosines
    return _freeze(a), _freeze(b)


def is_support_function(h):
    """The one convexity verdict: (flag, defect), defect = chord_convexity_defect(h).

    The flag is set iff defect >= -(CONVEXITY_TOL + c eps / (2 - 2cos d)) max|h|,
    d = 2 pi/M: the bound scales with h, so every positive multiple of h gets h's verdict.
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
    defect = chord_convexity_defect(h)
    floor = _CHORD_ROUNDING * sys.float_info.epsilon / (2.0 - 2.0 * math.cos(2.0 * math.pi / h.grid))
    return defect >= -(CONVEXITY_TOL + floor) * float(np.abs(h.samples).max()), defect


def chord_convexity_defect(h):
    """Minimum of (h(t-d) + h(t+d) - 2cos(d)h(t)) / (2 - 2cos(d)) on the grid.

    Every support function satisfies the chord inequality exactly at any
    grid spacing (sublinearity of the homogeneous extension), so this is the
    kink-proof measure is_support_function judges; for smooth h it
    approximates min(h''+h).  The division by 2 - 2cos(d), about d^2,
    magnifies the numerator's rounding by M^2/(4 pi^2).
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

    Takes c = max(0, -min(h''+h)), h''+h at the grid angles through the
    spectral multiplier 1 - n^2, so that s1 = h + c and s2 = c are both
    convex.  Warns with a SpectralTailWarning when the top quarter of the
    spectrum carries more than 1% of the energy, because the spectral h''
    is then untrustworthy; a warnings filter (the CLI's --strict) turns it
    into an error.
    """
    _warn_spectral_tail(h, "top-quarter spectrum carries %.2f%% of the energy")
    n = np.arange(h.grid // 2 + 1, dtype=float)
    c = max(0.0, -float(np.fft.irfft((1.0 - n**2) * h._coeffs, n=h.grid, norm="forward").min()))
    s1 = EvenFn(_spectral(lambda: np.r_[h._coeffs[0] + c, h._coeffs[1:]])) if c else h
    return c, s1, constant(c, h.grid)


def boundary_curve(h, n_points=DEFAULT_GRID):
    """Boundary of the body with support function h as an (n, 2) polyline.

    Points are c(t) = h(t) u(t) + h'(t) u_perp(t), linear in h: term by
    term, a shape's closed-form boundary or that map of a raw term's
    interpolant.  With a raw term, the whole function (shape terms included)
    must pass is_support_function, else NotSupportFunctionError is raised.
    """
    _check_grid(n_points)
    if _holds_raw(h.body) and not is_support_function(h)[0]:
        raise NotSupportFunctionError("input is not a support function (h''+h < 0 somewhere)")

    def spectral(t):
        vals = _resample(t._coeffs, t.grid, n_points)
        dvals = _resample(_deriv_coeffs(t._coeffs), t.grid, n_points)
        c, s = _grid_directions(n_points)
        return np.stack([vals * c - dvals * s, vals * s + dvals * c], axis=1)

    theta = grid_angles(n_points)
    return sum(c * (spectral(k) if k.grid else k.boundary(theta)) for c, k in _terms(h.body))
