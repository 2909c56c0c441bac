"""Layer sweep: t(8192) / t(2048) for each public function that takes a body.

Two fixed untagged bodies, so every call goes through the spectral grid
machinery: a kinked one (the samples of a hexagon, whose spectrum never
decays) and a smooth one (a 16-harmonic support function).  Work that is
O(M log M) gives ratios near 4-5; a quadratic path gives about 16, on any
machine.  Each call gets a fresh EvenFn, so cached spectra do not hide the
rfft, and the median of several calls is kept.
"""

import time
import warnings

import numpy as np

import gen
from hypkonvex import lorentz, mobius, shapedoc, supportfn, svgout

GRIDS = (2048, 8192)
HEXAGON = [[1.0, 0.0], [0.5, 0.9], [-0.6, 0.8], [-1.0, 0.0], [-0.5, -0.9], [0.6, -0.8]]
SMOOTH = {
    "a0": 1.0,
    "n": [2, 4, 6, 8, 10, 12, 14, 16],
    "a": [0.05, -0.01, 0.004, 0.0, 0.001, 0.0, 0.0, 0.0002],
    "b": [0.02, 0.008, 0.0, -0.002, 0.0, 0.0005, 0.0, 0.0],
}
BUDGET_S = 0.15  # timing budget per (function, body, grid) after the first call
MAX_REPS = 15


def body_samples(kind, M):
    if kind == "kinked":
        return gen.polygon_support(HEXAGON, M)
    return np.asarray(gen.smooth_samples(SMOOTH, M))


def _unit_circle(M):
    theta = 2.0 * np.pi * np.arange(M) / M
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _cases(out):
    """name -> (prepare(h, M) -> args, call(*args)); prepare runs untimed."""
    disc = lambda M: lorentz.normalize(supportfn.unit_disc(M))  # noqa: E731
    off = lambda M: (np.arange(M) + 0.5) * (2.0 * np.pi / M)  # noqa: E731
    rot = mobius.Mobius.rotation(0.3) @ mobius.Mobius.axial(1.0)
    return {
        "supportfn.eval_at": (lambda h, M: (h, off(M)), supportfn.eval_at),
        "supportfn.eval_deriv": (lambda h, M: (h, off(M)), supportfn.eval_deriv),
        "supportfn.boundary_curve": (lambda h, M: (h, M), supportfn.boundary_curve),
        "supportfn.fourier": (lambda h, M: (h,), supportfn.fourier),
        "supportfn.is_support_function": (lambda h, M: (h,), supportfn.is_support_function),
        "supportfn.chord_convexity_defect": (lambda h, M: (h,), supportfn.chord_convexity_defect),
        "supportfn.support_split": (lambda h, M: (h,), supportfn.support_split),
        "supportfn.scaled": (lambda h, M: (h, 2.0), supportfn.scaled),
        "supportfn.combine": (lambda h, M: (0.5, h, 0.5, supportfn.unit_disc(M)), supportfn.combine),
        "supportfn.signed_diff": (lambda h, M: (h, supportfn.unit_disc(M)), supportfn.signed_diff),
        "lorentz.form_A": (lambda h, M: (h,), lorentz.form_A),
        "lorentz.normalize": (lambda h, M: (h,), lorentz.normalize),
        "lorentz.pi0": (lambda h, M: (h,), lorentz.pi0),
        "lorentz.h1_seminorms": (lambda h, M: (h,), lorentz.h1_seminorms),
        "lorentz.hyper_dist": (lambda h, M: (lorentz.normalize(h), disc(M)), lorentz.hyper_dist),
        "lorentz.geodesic_point": (lambda h, M: (lorentz.normalize(h), disc(M), 0.5), lorentz.geodesic_point),
        "mobius.rho_act": (lambda h, M: (rot, h), mobius.rho_act),
        "shapedoc.to_even_fn": (
            lambda h, M: (supportfn.EvenFn(h.samples[::2]), M),
            shapedoc.to_even_fn,
        ),
        "svgout.write_svg": (
            lambda h, M: (h.samples[:, None] * _unit_circle(M), out / "sweep.svg"),
            svgout.write_svg,
        ),
    }


def _median_time(prepare, call, kind, M):
    def once():
        args = prepare(supportfn.EvenFn(body_samples(kind, M)), M)
        t0 = time.perf_counter()
        call(*args)
        return time.perf_counter() - t0

    first = once()
    if first >= BUDGET_S:
        return first  # slow enough that first-call costs do not matter
    reps = int(min(MAX_REPS, max(1, BUDGET_S // max(first, 1e-9))))
    return float(np.median([once() for _ in range(reps)]))


def scale_ratios(out):
    out.mkdir(parents=True, exist_ok=True)
    ratios = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # spectral-tail warnings are expected on the kinked body
        for name, (prepare, call) in _cases(out).items():
            for kind in ("kinked", "smooth"):
                lo, hi = (_median_time(prepare, call, kind, M) for M in GRIDS)
                ratios["%s.scale_ratio.%s" % (name, kind)] = hi / lo
    return ratios
