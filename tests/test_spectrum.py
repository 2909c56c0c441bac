"""A raw term is its spectrum: a linear image of raw terms holds the same map of
their rfft coefficients alone, samples are checked once, where they enter, and
every array a raw term or function keeps is refused, not warned of, when it
overflows."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypkonvex.lorentz import IsotropicVectorError, form_A, h1_seminorms, hyper_dist, normalize, pi0
from hypkonvex.mobius import Mobius, rho_act
from hypkonvex.shapes import _terms
from hypkonvex.supportfn import (
    EVEN_TOL,
    EvenFn,
    _on_grid,
    _spectral_weights,
    combine,
    from_ellipse,
    from_polygon,
    from_samples,
    grid_angles,
    scaled,
    signed_diff,
    support_split,
    unit_disc,
)
from hypkonvex.verify import random_band_limited, random_ellipse, random_polygon, random_support_fn

EPS = sys.float_info.epsilon
FINITE = "samples and their spectrum must be finite"
PERIODIC = "samples are not pi-periodic within tolerance"


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of np.fft.rfft and np.fft.irfft calls, from the moment the fixture is set up."""
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_a_dist_query_on_two_sample_bodies_takes_two_rffts(fft_calls):
    rng = np.random.default_rng(33)
    s1, s2 = (np.array(random_support_fn(rng, 2048).samples) for _ in range(2))
    fft_calls.update(rfft=0, irfft=0)
    pa, pb = normalize(from_samples(s1, 2048)), normalize(from_samples(s2, 2048))
    d, d_rev = hyper_dist(pa, pb), hyper_dist(pb, pa)
    pi0(pa.fn), pi0(pb.fn)
    mid = normalize(combine(0.5, pa.fn, 0.5, pb.fn))
    spectral = [hyper_dist(x, y, method="spectral") for x, y in ((pa, pb), (pa, mid), (mid, pb))]
    # one rfft per body given as samples; every other raw term is a linear image
    assert fft_calls == {"rfft": 2, "irfft": 0}
    assert d == pytest.approx(d_rev, rel=1e-12) and d > 0.01
    assert spectral[0] == pytest.approx(d, rel=1e-12)
    assert spectral[1] + spectral[2] == pytest.approx(d, rel=1e-9)


def test_the_seminorms_of_a_band_limited_draw_take_no_rfft(fft_calls):
    h = random_band_limited(np.random.default_rng(33), 2048, max_harmonic=24)
    l2, dl2 = h1_seminorms(h)
    assert fft_calls == {"rfft": 0, "irfft": 0}  # nothing reads the samples of the coefficients it drew
    assert 0.0 < 4.0 * l2 <= dl2


# -- the carried spectrum against the samples' own ------------------------------

GRIDS = [8, 12, 16, 40, 64, 100, 256, 1000, 2048, 4096, 8192]
KINDS = ["band-limited", "support-fn", "scaled", "combine", "lift-2", "lift-4", "split", "diff", "normalize"]
# |form_A(carried) - form_A(fresh copy)| over the form's absolute Parseval sum,
# sum_n w_n |1 - n^2| |c_n| |c'_n|, the scale of its rounding
FORM_REL = 1e-13
PI0_REL = 8.0 * EPS  # of 1 + max|h|: pi0 reads c_0, which meets the coefficient bound
# |cosh d - cosh d'| over cosh d: x - 1 is a Parseval sum of coefficient differences
COSH_REL = 1e-13


def _base(rng, grid, positive):
    """A band-limited draw; with ``positive``, a support function of positive area.  Its top
    harmonic stays below the top quarter of the spectrum, so that no SpectralTailWarning is due."""
    if positive and grid >= 64:
        return random_support_fn(rng, grid)
    h = random_band_limited(rng, grid, min(16, 3 * grid // 8 - 1), mean=1.5 if positive else 0.0)
    return support_split(h)[1] if positive else h


def _shape(rng, grid):
    return from_ellipse(random_ellipse(rng), grid) if rng.integers(0, 2) else from_polygon(random_polygon(rng), grid)


def _built(kind, grid, rng):
    """A function whose raw term ``kind`` builds as a linear image of raw terms."""
    h = _base(rng, grid, kind in ("support-fn", "normalize"))
    if kind == "scaled":
        return scaled(h, float(10.0 ** rng.uniform(-3.0, 3.0)))
    if kind == "combine":
        for _ in range(int(rng.integers(1, 4))):  # 2 to 4 operands, each a raw term or a shape
            k = _shape(rng, grid) if rng.integers(0, 2) else _base(rng, grid, True)
            h = combine(float(rng.uniform(0.1, 3.0)), h, float(rng.uniform(0.1, 3.0)), k)
        return h
    if kind in ("lift-2", "lift-4"):  # of a kinked body's samples too, whose Nyquist bin is split
        h = from_samples(_shape(rng, grid).samples) if rng.integers(0, 2) else h
        return _on_grid(h, int(kind[-1]) * grid)
    if kind == "split":
        return support_split(h)[1]
    if kind == "diff":
        return signed_diff(h, _base(rng, 2 * grid if rng.integers(0, 2) else grid, False))
    if kind == "normalize":
        return normalize(h).fn
    return h


def _raw_term(h):
    return next(k for _, k in _terms(h.body) if k.grid)


def _form_scale(c1, c2, M):
    return float(np.dot(np.abs(_spectral_weights(M)[1]), np.abs(c1) * np.abs(c2)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(KINDS), st.sampled_from(GRIDS), st.integers(0, 2**32 - 1))
def test_a_carried_spectrum_is_the_samples_rfft_and_reads_as_a_fresh_copy(kind, grid, seed):
    rng = np.random.default_rng(seed)
    t = _raw_term(_built(kind, grid, rng))
    assert "_coeffs" in vars(t) and not t._coeffs.flags.writeable  # carried in, not taken from the samples
    M, top = t.grid, float(np.abs(t.samples).max())
    assert np.abs(t._coeffs - np.fft.rfft(t.samples) / M).max() <= 8.0 * EPS * (1.0 + top)

    carried, fresh = EvenFn(t), from_samples(t.samples)
    ref = _base(rng, M, True)
    for other in (carried, ref):
        scale = _form_scale(t._coeffs, _raw_term(other)._coeffs, M)
        assert abs(form_A(carried, other) - form_A(fresh, other)) <= FORM_REL * scale
    assert abs(pi0(carried) - pi0(fresh)) <= PI0_REL * (1.0 + top)
    try:
        p_fresh = normalize(fresh)
    except IsotropicVectorError:
        return  # no hyperboloid point: the carried copy is read through the form alone
    p, q = normalize(carried), normalize(ref)
    x, x_fresh = math.cosh(hyper_dist(p, q)), math.cosh(hyper_dist(p_fresh, q))
    assert abs(x - x_fresh) <= COSH_REL * x


# -- the one-pass check refuses what the three-pass one did ------------------------


def _three_pass_check(s):
    """The check as three passes (finite, then the scale, then pi-periodicity): the oracle."""
    if not np.all(np.isfinite(s)):
        raise ValueError(FINITE)
    half = s.size // 2
    top = 1.0 + float(np.abs(s).max())
    if np.abs(s[:half] - s[half:]).max() > EVEN_TOL * top:
        raise ValueError(PERIODIC)


def _spectrum_check(s):
    """The three passes, then the spectrum: samples whose rfft overflows are refused too."""
    _three_pass_check(s)
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.rfft(s, norm="forward")
    if not np.isfinite(spectrum).all():
        raise ValueError(FINITE)


def _verdict(check, s):
    try:
        check(s)
    except ValueError as exc:
        return str(exc)
    return None


def _sample_sets():
    M = 16
    theta = 2.0 * np.pi * np.arange(M) / M
    smooth = 1.5 + 0.25 * np.cos(2.0 * theta)
    for bad in (np.nan, np.inf, -np.inf):
        for at in (0, M // 2 - 1, M // 2, M - 1):  # first, the middle two, last
            s = smooth.copy()
            s[at] = bad
            yield s
    yield np.cos(theta)  # 2 pi-periodic only
    for scale in (0.0, 1.0, 1e300):
        for delta in (0.5, 0.999, 1.001, 2.0):  # in units of the tolerance
            s = np.full(M, scale)
            s[M // 2 + 3] += delta * EVEN_TOL * (1.0 + scale) if scale < 1e300 else delta * EVEN_TOL * scale
            yield s
    yield np.full(M, 1.7e308)  # finite, but its rfft overflows
    yield smooth


def test_the_one_pass_check_refuses_exactly_what_the_three_passes_did():
    # and, where they enter, samples whose spectrum overflows
    verdicts = []
    for s in _sample_sets():
        want = _verdict(_spectrum_check, s)
        assert _verdict(lambda v: from_samples(v), s) == want
        verdicts.append(want)
    # every refusal and acceptance above is reached
    assert verdicts.count(FINITE) == 13 and PERIODIC in verdicts and None in verdicts


@pytest.mark.parametrize("build", [
    lambda h: combine(1e10, h, 1.0, h),
    lambda h: combine(1e10, h, 1.0, from_ellipse(np.eye(2), 16)),
    lambda h: scaled(h, 1e10),
], ids=["raw-raw", "raw-shape", "scaled"])
def test_a_combination_whose_samples_overflow_is_refused_without_a_warning(build):
    # pytest turns a RuntimeWarning into an error: the overflow must reach the check
    h = from_samples(np.full(16, 1e300))
    with pytest.raises(ValueError) as exc:
        build(h).samples
    assert str(exc.value) == FINITE


def test_a_combination_whose_spectrum_overflows_is_refused_as_it_is_built():
    # refused by its coefficients, before anything reads its samples
    h = from_samples(np.full(16, 1e300))
    for build in (lambda: combine(1e10, h, 1.0, h), lambda: scaled(h, 1e10)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == FINITE


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_halves_a_double_range_apart_are_refused_without_a_warning():
    # their difference overflows to inf, which the periodicity check refuses
    with pytest.raises(ValueError) as exc:
        from_samples([1.7e308] * 8 + [-1.7e308] * 8)
    assert str(exc.value) == PERIODIC


def test_images_of_accepted_samples_are_not_checked_again():
    # t is s at scale 1e6 with a periodicity defect of 0.9 tolerances: both are
    # accepted, and so are their sum with 1 - s and their difference, whose
    # scale, about 1, makes the same defect about 5e5 tolerances
    M = 16
    s = 1e6 * (1.5 + 0.25 * np.cos(2.0 * grid_angles(M)))
    t = s.copy()
    t[11] += 0.9 * EVEN_TOL * (1.0 + 1e6)
    a, b, c = from_samples(t), from_samples(1.0 - s), from_samples(s)
    total, diff = combine(1.0, a, 1.0, b), signed_diff(a, c)
    assert np.array_equal(total._coeffs, a._coeffs + b._coeffs)
    assert np.array_equal(diff._coeffs, a._coeffs - c._coeffs)
    # the samples are one irfft of those coefficients, within the operands' rounding
    top = float(np.abs(t).max())
    assert np.abs(total.samples - (t + (1.0 - s))).max() <= EPS * top
    assert np.abs(diff.samples - (t - s)).max() <= EPS * top
    # a shape beside the image: the sum's samples are not checked for periodicity either
    with_disc = combine(1.0, total, 1.0, unit_disc(M))
    assert np.abs(with_disc.samples - (total.samples + 1.0)).max() <= EPS * top


_SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("read", [
    lambda: pi0(from_samples(np.full(16, 1.7e308))),
    lambda: scaled(from_ellipse(np.diag([1e300, 1e-300]), 16), 1e10).samples,
    lambda: signed_diff(from_samples(np.full(16, 1e308)), from_samples(np.full(16, -1e308))),
    lambda: from_polygon(1e307 * _SQUARE, 64)._coeffs,
    lambda: rho_act(Mobius.axial(40.0), from_samples(np.full(16, 1e300))).samples,
], ids=["outside-spectrum", "sum-samples", "diff-operands", "shape-spectrum", "moved-samples"])
def test_every_kept_array_that_overflows_is_refused_without_a_warning(read):
    # each array is computed with numpy's warnings off and refused once it is not finite
    with pytest.raises(ValueError) as exc:
        read()
    assert str(exc.value) == FINITE
