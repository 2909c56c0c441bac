"""Verification suites: inequalities, kernel identities, and asymptotics.

A suite is a function of ``(report, rng, grid)`` listed in ``SUITES``: it
draws its cases from ``rng`` (or from nothing) and adds one record per check
to ``report``.  ``run_suite`` seeds the rng from ``--seed`` and names the
report by the suite's key.  Violations are normalized per case by the check's
own absolute tolerance or window, so a suite passes iff its max normalized
violation is at most 1; reports are byte-stable for a fixed (seed, grid).
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .limits import empirical_dim_estimate, hausdorff_dim_estimate
from .lorentz import _cosh_between, form_A, h1_seminorms, normalize
from .mobius import (
    BASEPOINT,
    HalfPlanePoint,
    Mobius,
    _h2_between,
    dist_h2,
    halfplane_apply,
    iota,
    iota_dist_closed,
    iota_dist_quadrature,
    rho_act,
)
from .shapes import Ellipse, Polygon, _form_value, _graded_edges, _panel_mean, convex_hull
from .supportfn import (
    DEFAULT_GRID,
    EvenFn,
    Raw,
    _parseval_counts,
    from_ellipse,
    from_polygon,
    scaled,
    support_split,
    unit_disc,
)

HALF_CURVATURE_RATIO = math.sqrt(3.0 / 8.0)


# ---------------------------------------------------------------------------
# reports

class SuiteReport:
    """The records of one suite run; passes iff max_violation <= 1.

    Each record stores its own absolute tolerance, threshold or window, and
    its violation is normalized by it, so a case at its bound scores 1.
    """

    def __init__(self, suite, seed, grid):
        self.suite, self.seed, self.grid = suite, seed, grid
        self.records = []
        self.max_violation = 0.0

    @property
    def cases(self):
        return len(self.records)

    @property
    def passed(self):
        return self.max_violation <= 1.0

    def _push(self, ratio, rec, extra):
        rec.update(extra)
        self.records.append(rec)
        self.max_violation = max(self.max_violation, ratio)

    def add(self, check, digest, value, tol, **extra):
        """A bound check: |value| must stay within tol."""
        self._push(abs(value) / tol, {"check": check, "digest": digest, "value": value, "tol": tol}, extra)

    def add_lower(self, check, digest, value, threshold, **extra):
        """value must exceed threshold; normalized so value == threshold -> 1."""
        rec = {"check": check, "digest": digest, "value": value, "threshold": threshold}
        self._push(2.0 - value / threshold, rec, extra)

    def add_window(self, check, digest, value, lo, hi, **extra):
        """value must lie in [lo, hi]; normalized so either end -> 1."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        rec = {"check": check, "digest": digest, "value": value, "window": [lo, hi]}
        self._push(abs(value - mid) / half, rec, extra)

    def to_json(self):
        doc = {"suite": self.suite, "seed": self.seed, "grid": self.grid, "cases": self.cases,
               "max_violation": self.max_violation, "tolerance": 1.0, "pass": self.passed, "records": self.records}
        return json.dumps(doc, sort_keys=True, indent=1)


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(np.asarray(p, dtype=float)).tobytes())
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# seeded generators

def random_ellipse(rng, s_max=3.0):
    """Unit-determinant matrix R1 diag(e^{s/2}, e^{-s/2}) R2, condition <= e^{s_max}."""
    r1 = Mobius.rotation(rng.uniform(0.0, 2.0 * math.pi)).matrix
    r2 = Mobius.rotation(rng.uniform(0.0, 2.0 * math.pi)).matrix
    s = rng.uniform(0.0, s_max)
    return Ellipse(r1 @ np.diag([math.exp(0.5 * s), math.exp(-0.5 * s)]) @ r2)


def random_polygon(rng):
    """Symmetric convex polygon: hull of 3 to 8 +-(lognormal radius) vertex pairs.

    Slivers are rejected (support ratio above 6); they carry slowly decaying
    spectra that drown the grid's resolution.
    """
    probe = np.linspace(0.0, math.pi, 32, endpoint=False)
    while True:
        pairs = int(rng.integers(3, 9))
        ang = rng.uniform(0.0, math.pi, pairs)
        rad = np.exp(rng.normal(0.0, 0.35, pairs))
        pts = rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pts = np.concatenate([pts, -pts])
        try:
            hull = convex_hull(pts)
            if hull.shape[0] < 4:
                continue
            poly = Polygon(hull)
        except ValueError:
            continue
        sup = poly.support(probe)
        if sup.max() / sup.min() <= 6.0:
            return poly


def random_mobius(rng, norm_bound=3.0):
    """Unit-determinant matrix with spectral norm at most norm_bound."""
    s_cap = 2.0 * math.log(norm_bound)
    r1 = rng.uniform(0.0, 2.0 * math.pi)
    r2 = rng.uniform(0.0, 2.0 * math.pi)
    s = rng.uniform(0.0, s_cap)
    return Mobius.rotation(r1) @ Mobius.axial(s) @ Mobius.rotation(r2)


def random_band_limited(rng, grid=DEFAULT_GRID, max_harmonic=16, mean=0.0):
    """Even band-limited function with 1/n-damped Gaussian coefficients:
    mean + sum over even n <= max_harmonic of a_n cos(n t) + b_n sin(n t)."""
    if max_harmonic >= grid // 2:
        raise ValueError("harmonic %d is not resolved by a %d-point grid" % (max_harmonic, grid))
    n = np.arange(2, max_harmonic + 1, 2)
    ab = rng.normal(size=(n.size, 2)) / n[:, None]
    c = np.zeros(grid // 2 + 1, dtype=complex)
    c[0] = mean
    c[n] = 0.5 * (ab[:, 0] - 1j * ab[:, 1])
    return EvenFn(Raw(np.fft.irfft(c * grid, n=grid), c))


def random_support_fn(rng, grid=DEFAULT_GRID):
    """Random smooth support function via the convexifying split, harmonics up to 16."""
    h = random_band_limited(rng, grid, 16, mean=rng.uniform(1.0, 2.0))
    _, s1, _ = support_split(h)
    k = 0.05 * (1.0 + float(np.abs(s1.samples).max()))
    return EvenFn(Raw(s1.samples + k, np.r_[s1._coeffs[0] + k, s1._coeffs[1:]]))


def random_tagged_body(rng, grid=DEFAULT_GRID):
    """Support function of a random ellipse or polygon (always tagged)."""
    if int(rng.integers(0, 2)) == 0:
        return from_ellipse(random_ellipse(rng), grid)
    return from_polygon(random_polygon(rng), grid)


def random_body_fn(rng, grid=DEFAULT_GRID):
    """Support function of a random body: ellipse, polygon, or smooth blob."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return from_ellipse(random_ellipse(rng), grid)
    if kind == 1:
        return from_polygon(random_polygon(rng), grid)
    return random_support_fn(rng, grid)


# ---------------------------------------------------------------------------
# single-shot operations

def jacobian_circle(t, theta):
    """Jacobian of the circle action of diag(e^-t, e^t): 1/|cosh t - sinh t e^{i theta}|^2.

    The squared norm expands to cosh^2 t - 2 sinh t cosh t cos(theta) + sinh^2 t
    = cosh(2t) - sinh(2t) cos(theta), evaluated as
    e^{-2t} + 2 sinh(2t) sin^2(theta/2) to stay cancellation-free.
    """
    theta = np.asarray(theta, dtype=float)
    den = math.exp(-2.0 * t) + 2.0 * math.sinh(2.0 * t) * np.sin(0.5 * theta) ** 2
    out = 1.0 / den
    return float(out) if out.ndim == 0 else out


# The end of the t range over which the tests validate kernels_compare.
KERNEL_T_MAX = 30.0


def _jacobian_mean(t, power):
    # the Jacobian is even about pi and peaks at 0 with width e^{-2t}
    return _panel_mean(lambda x: jacobian_circle(t, x) ** power, _graded_edges(-2.0 * t / math.log(2.0), math.pi))


@dataclass(frozen=True)
class KernelValues:
    """The four kernels at parameter t, all in the cosh domain."""

    i1: float
    i2: float
    closed: float
    kern2: float

    @property
    def gap(self):
        return self.kern2 - self.closed


def kernels_compare(t):
    """Evaluate the boundary-kernel integral, the ellipse-orbit integral, the
    elliptic closed form C(e^t) = (2/pi) e^t E(k' = e^{-2t}), the form value of
    an ellipse of stretch e^t against the disc, and the exponential kernel e^t.

    The first three agree (the embeddings are isometric to each other); the
    fourth comes from a reducible construction and stays strictly above.
    I1 (the Jacobian to the power 3/2) and I2 (iota_dist_quadrature) are good
    to about 1e-15 relative.  Refuses t outside (0, KERNEL_T_MAX].
    """
    if not 0.0 < t <= KERNEL_T_MAX:
        raise ValueError("t must lie in (0, %.4g], got %r" % (KERNEL_T_MAX, t))
    i1 = _jacobian_mean(t, 1.5)
    i2 = math.cosh(iota_dist_quadrature(Mobius.axial(2.0 * t)))
    closed = _form_value(math.exp(t))
    kern2 = math.exp(0.5 * dist_h2(halfplane_apply(Mobius.axial(2.0 * t), BASEPOINT), BASEPOINT))
    return KernelValues(i1=i1, i2=i2, closed=closed, kern2=kern2)


def minkowski_extended_test(bodies, coeffs):
    """Signed-coefficient extension of the Minkowski inequality.

    For bodies K_0..K_n of positive area and reals c_1..c_n the quantity
    (sum_k c_k A(h_k, h_0))^2 - A(h_0) sum_ij c_i c_j A(h_i, h_j) is
    nonnegative.  Returns the residual scaled by the square of the largest
    term, so tolerances are dimensionless.
    """
    bodies = list(bodies)
    coeffs = np.asarray(coeffs, dtype=float)
    if len(bodies) != coeffs.size + 1:
        raise ValueError("need n+1 bodies for n coefficients")
    areas = [form_A(b) for b in bodies]
    if min(areas) <= 0.0:
        raise ValueError("every body must have positive area")
    h0, rest = bodies[0], bodies[1:]
    cross = np.array([form_A(h, h0) for h in rest])
    gram = np.array([[form_A(hi, hj) for hj in rest] for hi in rest])
    lhs = float(coeffs @ cross) ** 2
    rhs = areas[0] * float(coeffs @ gram @ coeffs)
    scale = max(lhs, areas[0] * float(np.abs(coeffs) @ np.abs(gram) @ np.abs(coeffs)), 1e-300)
    return (lhs - rhs) / scale


def ellipse_sum_test(e1, e2, c2=1.0, grid=DEFAULT_GRID):
    """Fourth-harmonic-and-up energy fraction of (supp(e1) + c2 supp(e2))^2.

    The squared support of an ellipse is a quadratic form in (cos, sin), all
    of whose energy sits in harmonics 0 and 2; energy at 4 and beyond
    certifies that the Minkowski sum is not an ellipse.
    """
    h = from_ellipse(e1, grid).samples + c2 * from_ellipse(e2, grid).samples
    c = np.fft.rfft(h * h) / grid
    power = _parseval_counts(grid) * np.abs(c) ** 2
    return float(power[4:].sum() / power.sum())


def curvature_scale_estimate(s_values):
    """Ratios iota_dist_closed(s)/s and their two-point Richardson limit.

    The ratios approach sqrt(3/8) with O(s^2) error; eliminating the s^2
    term from the two smallest s gives the reported extrapolation.
    """
    s = sorted(float(v) for v in s_values)
    if len(s) < 2 or s[0] <= 0.0 or s[1] == s[0]:
        raise ValueError("need at least two distinct positive s values")
    ratios = [iota_dist_closed(v) / v for v in s]
    (sb, rb), (sa, ra) = (s[0], ratios[0]), (s[1], ratios[1])
    return ratios, (rb * sa**2 - ra * sb**2) / (sa**2 - sb**2)


# ---------------------------------------------------------------------------
# suites

def _quasiiso_suite(col, rng, grid):
    """Sandwich acosh(2e^{s/2}/pi) <= d(s) <= acosh(e^{s/2}) and |d - s/2| <= 1/2
    at 400 points of [0, 40]."""
    prev = -1.0
    for s in np.linspace(0.0, 40.0, 400):
        s = float(s)
        d = iota_dist_closed(s)
        dig = _digest([s])
        upper = math.acosh(math.exp(0.5 * s)) if s > 0 else 0.0
        col.add("upper-envelope", dig, max(0.0, d - upper), 1e-12, s=s, d=d)
        low_arg = 2.0 * math.exp(0.5 * s) / math.pi
        if low_arg >= 1.0:
            col.add("lower-envelope", dig, max(0.0, math.acosh(low_arg) - d), 1e-12, s=s, d=d)
        col.add("additive-band", dig, d - 0.5 * s, 0.5, s=s)
        col.add("monotone", dig, max(0.0, prev - d), 1e-12)
        prev = d


def _kernels_suite(col, rng, grid):
    for k in range(1, 51):
        t = 0.1 * k
        kv = kernels_compare(t)
        dig = _digest([t])
        col.add("kern1-vs-closed", dig, kv.i1 - kv.closed, 1e-9, t=t)
        col.add("kern3-vs-closed", dig, kv.i2 - kv.closed, 1e-9, t=t)
        col.add("kern2-identity", dig, kv.kern2 - math.exp(t), 1e-12, t=t)
        ref_gap = math.exp(t) - kv.closed
        # record both cosh-domain and distance-domain values: acosh is badly
        # conditioned at large t, so the gap is judged in the cosh domain
        col.add_lower(
            "kern2-above-closed",
            dig,
            kv.gap,
            0.01 * ref_gap,
            t=t,
            cosh_closed=kv.closed,
            cosh_kern2=kv.kern2,
            dist_closed=math.acosh(kv.closed),
            dist_kern2=math.acosh(kv.kern2),
        )
    for t in (0.25, 0.5, 1.0, 2.0, 5.0):
        col.add("jacobian-unit-mass", _digest([t]), _jacobian_mean(t, 1.0) - 1.0, 1e-12, t=t)


def _curvature_suite(col, rng, grid):
    ratios, extrapolated = curvature_scale_estimate([5e-4, 1e-3, 1e-2])
    col.add("ratio-at-1e-2", _digest([1e-2]), ratios[2] - HALF_CURVATURE_RATIO, 1e-4)
    col.add("richardson", _digest([5e-4, 1e-3]), extrapolated - HALF_CURVATURE_RATIO, 1e-8)
    s = 1e-3
    cosh_val = math.cosh(iota_dist_quadrature(Mobius.axial(s)))
    col.add("small-s-expansion", _digest([s]), cosh_val - (1.0 + 3.0 * s * s / 16.0), 1e-13)


def _minkowski_suite(col, rng, grid):
    for _ in range(1000):
        h1 = random_body_fn(rng, grid)
        h2 = random_body_fn(rng, grid)
        x = _cosh_between(h1, h2)
        resid = (x * x - 1.0) / max(x * x, 1.0)
        col.add("reversed-cs", _digest(h1.samples, h2.samples), min(0.0, resid), 1e-12)
    for _ in range(50):
        h = random_body_fn(rng, grid)
        lam = float(rng.uniform(0.2, 5.0))
        x = _cosh_between(h, scaled(h, lam))
        defect = (x * x - 1.0) / max(x * x, 1.0)
        col.add("homothetic-equality", _digest(h.samples, [lam]), defect, 1e-12)


def _extended_suite(col, rng, grid):
    for _ in range(500):
        n = int(rng.integers(1, 6))
        bodies = [random_tagged_body(rng, grid) for _ in range(n + 1)]
        coeffs = rng.uniform(-2.0, 2.0, n)
        resid = minkowski_extended_test(bodies, coeffs)
        dig = _digest(coeffs, *[b.samples for b in bodies])
        col.add("signed-minkowski", dig, min(0.0, resid), 1e-9, n=n)


def _wirtinger_suite(col, rng, grid):
    for _ in range(1000):
        h = random_band_limited(rng, grid, max_harmonic=24, mean=0.0)
        l2, dl2 = h1_seminorms(h)
        viol = max(0.0, l2 - 0.25 * dl2) / (0.25 * dl2)
        col.add("poincare-wirtinger", _digest(h.samples), viol, 1e-12)


def _encadrement_suite(col, rng, grid):
    for _ in range(1000):
        h = random_band_limited(rng, grid, max_harmonic=24, mean=0.0)
        l2, dl2 = h1_seminorms(h)
        h1sq = l2 + dl2
        neg_a = -form_A(h)
        scale = h1sq / (2.0 * math.pi)
        dig = _digest(h.samples)
        col.add("lower-bracket", dig, max(0.0, 3.0 / (16.0 * math.pi) * h1sq - neg_a) / scale, 1e-12)
        col.add("upper-bracket", dig, max(0.0, neg_a - h1sq / (2.0 * math.pi)) / scale, 1e-12)


def _equivariance_suite(col, rng, grid):
    for _ in range(200):
        m = random_mobius(rng)
        h1 = random_band_limited(rng, grid, mean=1.5)
        h2 = random_band_limited(rng, grid, mean=1.5)
        before = form_A(h1, h2)
        after = form_A(rho_act(m, h1), rho_act(m, h2))
        col.add("form-invariance", _digest(m.matrix, h1.samples, h2.samples), after - before, 1e-8)
    for _ in range(200):
        m = random_mobius(rng)
        z = HalfPlanePoint(float(rng.uniform(-2.0, 2.0)), float(math.exp(rng.uniform(-1.5, 1.5))))
        lhs = rho_act(m, iota(z, grid).fn)
        rhs = iota(halfplane_apply(m, z), grid).fn
        diff = float(np.abs(lhs.samples - rhs.samples).max())
        col.add("iota-equivariance", _digest(m.matrix, [z.x, z.y]), diff, 1e-10)
    for _ in range(100):
        # Each factor bounded by sqrt(3) keeps the composition within norm 3, which grids of
        # 256 and more resolve; the inner image is sampled, so that rhs shears twice.
        m1, m2 = random_mobius(rng, math.sqrt(3.0)), random_mobius(rng, math.sqrt(3.0))
        h = random_band_limited(rng, grid, mean=1.5)
        lhs = rho_act(m1 @ m2, h)
        rhs = rho_act(m1, EvenFn(rho_act(m2, h).samples))
        diff = float(np.abs(lhs.samples - rhs.samples).max())
        col.add("group-law", _digest(m1.matrix, m2.matrix, h.samples), diff, 1e-9)
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    moved = rho_act(Mobius.rotation(phi), unit_disc(grid))
    col.add("disc-fixed", _digest([phi]), float(np.abs(moved.samples - 1.0).max()), 1e-12)
    rot = Mobius.rotation(math.pi * (math.sqrt(5.0) - 1.0))
    done = 0
    while done < 100:
        p = normalize(random_body_fn(rng, grid))
        if float(np.ptp(p.fn.samples)) < 1e-2:
            continue
        move = float(np.abs(rho_act(rot, p.fn).samples - p.fn.samples).max())
        col.add_lower("nonconstant-moves", _digest(p.fn.samples), move, 1e-6)
        done += 1
    for _ in range(100):  # two elements: the sampled images pair
        m = random_mobius(rng, math.sqrt(3.0))
        h1, h2 = random_band_limited(rng, grid, mean=1.5), random_band_limited(rng, grid, mean=1.5)
        diff = form_A(rho_act(m, h1), h2) - form_A(h1, rho_act(m.adjugate(), h2))
        col.add("cross-element", _digest(m.matrix, h1.samples, h2.samples), diff, 1e-10)


def _add_gram_signature(col, digest, g):
    """Record that the Gram matrix g of n+1 bodies has the form's signature (1, n): its eigenvalues
    l0 >= l1 >= ... have min(l0, -l1) above (n+1) 1e-12 max|g|.  That floor is the most by which
    a relative rounding of 1e-12 in each form value (the closed forms reach a few eps) moves any
    eigenvalue of an (n+1)-square matrix (Weyl's inequality, the error's norm below (n+1) its entries)."""
    lam = np.linalg.eigvalsh(g)[::-1] / np.abs(g).max()
    col.add_lower("gram-signature", digest, float(min(lam[0], -lam[1])), len(g) * 1e-12, n=len(g) - 1)


def _gram_rank_suite(col, rng, grid):
    for n in range(2, 7):
        for _ in range(50):
            mats = []
            while len(mats) < n + 1:
                e = random_ellipse(rng)
                if all(_h2_between(e.matrix, o.matrix) > 0.7 for o in mats):
                    mats.append(e)
            fns = [from_ellipse(e, grid) for e in mats]
            g = np.array([[form_A(a, b) for b in fns] for a in fns])
            _add_gram_signature(col, _digest(*[e.matrix for e in mats]), g)


def _ellipse_sum_suite(col, rng, grid):
    # Moderate elongations and a separation floor: near-aligned slivers are
    # genuinely non-homothetic yet their relative fourth-harmonic energy is
    # suppressed like aspect^-4, below any fixed detection threshold.
    for _ in range(20):
        e1 = random_ellipse(rng, 1.2)
        rot = Mobius.rotation(rng.uniform(0.0, 2.0 * math.pi)).matrix
        e2 = Ellipse(e1.matrix @ rot)  # same body, different representative
        lam = float(rng.uniform(0.5, 2.0))
        energy = ellipse_sum_test(e1, e2, lam, grid)
        col.add("homothetic-energy", _digest(e1.matrix, rot, [lam]), energy, 1e-12)
    done = 0
    while done < 20:
        e1, e2 = random_ellipse(rng, 1.2), random_ellipse(rng, 1.2)
        if _h2_between(e1.matrix, e2.matrix) < 0.6:
            continue
        energy = ellipse_sum_test(e1, e2, 1.0, grid)
        dig = _digest(e1.matrix, e2.matrix)
        col.add_lower("non-ellipse-energy", dig, energy, 1e-6)
        m = random_mobius(rng, 1.3)
        moved = ellipse_sum_test(e1.transform(m), e2.transform(m), 1.0, grid)
        col.add_lower("verdict-invariance", dig, moved, 1e-6)
        done += 1


def _dimension_suite(col, rng, grid):
    slope, resid = hausdorff_dim_estimate(4, 12)
    col.add_window("analytic-slope", _digest([4, 12]), slope, 1.98, 2.02, residual=resid)
    emp_slope, js, counts = empirical_dim_estimate(4, 12, 100_000)
    col.add("empirical-vs-analytic", _digest(js), emp_slope - slope, 0.1, counts=counts)
    control, _ = hausdorff_dim_estimate(4, 12, metric="round")
    col.add_window("control-slope", _digest([0]), control, 0.99, 1.01)
    for lam in (0.5, 3.0):
        scaled_slope, _ = hausdorff_dim_estimate(4, 12, metric="visual", lam=lam)
        col.add("scale-invariance", _digest([lam]), scaled_slope - slope, 0.02, lam=lam)


SUITES = {
    "minkowski": _minkowski_suite,
    "extended": _extended_suite,
    "wirtinger": _wirtinger_suite,
    "encadrement": _encadrement_suite,
    "curvature": _curvature_suite,
    "quasiiso": _quasiiso_suite,
    "kernels": _kernels_suite,
    "dimension": _dimension_suite,
    "ellipse-sum": _ellipse_sum_suite,
    "gram-rank": _gram_rank_suite,
    "equivariance": _equivariance_suite,
}


def run_suite(name, seed=0, grid=DEFAULT_GRID):
    """Run ``SUITES[name]`` on an rng seeded by ``seed``; the report is named ``name``."""
    if name not in SUITES:
        raise KeyError("unknown suite %r (have: %s)" % (name, ", ".join(sorted(SUITES))))
    report = SuiteReport(name, seed, grid)
    SUITES[name](report, np.random.default_rng(seed), grid)
    return report
