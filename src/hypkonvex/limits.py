"""The limit set of segment directions, its visual metric, and its dimension.

Segments have zero area, so their support functions are isotropic for the
area form and sit on the boundary at infinity of the hyperboloid of bodies.
The boundary point of a direction class is reached by ellipses elongating
along it, and the visual distance based at the disc has the closed form
(sqrt(pi)/2) sqrt(sin of the angle between the classes).  The geodesic
joining two classes is a family of parallelograms, and its point nearest the
disc is the rhombus (project_disc_to_segment_geodesic).  Scaling ranges of
covering numbers in that metric exhibit Hausdorff dimension 2 (a square-root
metric on a circle), which this module measures both analytically and by
greedy covering of sampled directions.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .lorentz import HPoint, form_A, hyper_dist, normalize
from .mobius import BASEPOINT, Mobius, halfplane_apply, iota
from .shapes import Segment
from .supportfn import DEFAULT_GRID, combine, from_segment, unit_disc

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class BoundaryDir:
    """A direction class in the projective line, represented in [0, pi)."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta) or not 0.0 <= self.theta < math.pi:
            raise ValueError("direction angle must lie in [0, pi), got %r" % (self.theta,))


def _direction_angle(d):
    """The angle of a direction class (anything with ``theta``) or a bare angle."""
    return float(getattr(d, "theta", d))


def class_angle(d1, d2):
    """Angle between direction classes, folded into [0, pi/2]."""
    delta = abs(_direction_angle(d1) - _direction_angle(d2)) % math.pi
    return min(delta, math.pi - delta)


def project_disc_to_segment_geodesic(nu, omega, M=DEFAULT_GRID):
    """Nearest point of the geodesic joining two boundary directions to the disc.

    The geodesic through two segment classes consists of area-pi
    parallelograms a*v + b*w; the perimeter 2(a+b) with ab pinned by the area
    is minimal exactly at a = b, so the projection is the rhombus homothetic
    to v + w, returned area-normalized as one polygon (sides scaled, then summed).
    """
    t1, t2 = _direction_angle(nu), _direction_angle(omega)
    delta = class_angle(t1, t2)
    if delta < 1e-12:
        raise ValueError("equal directions span no geodesic")
    a = 0.5 * math.sqrt(math.pi / math.sin(delta))
    s1 = from_segment(Segment(a * np.array([math.cos(t1), math.sin(t1)])), M)
    s2 = from_segment(Segment(a * np.array([math.cos(t2), math.sin(t2)])), M)
    c = 1.0 / math.sqrt(form_A(combine(1.0, s1, 1.0, s2)))
    return HPoint(combine(c, s1, c, s2))


def visual_dist(d1, d2):
    """Visual distance between two limit directions based at the disc:
    (sqrt(pi)/2) sqrt(sin angle)."""
    return 0.5 * math.sqrt(math.pi) * math.sqrt(math.sin(class_angle(d1, d2)))


def boundary_approach(d, radius, M=DEFAULT_GRID):
    """Hyperboloid point escaping toward a direction class: the embedded
    ellipse elongated along it at the given hyperbolic-plane radius.

    The radius is capped at 15, past which the Gromov products the caller
    will form leave the well-conditioned range of acosh.
    """
    if not 0.0 <= radius <= 15.0:
        raise ValueError("radius must lie in [0, 15], got %r" % (radius,))
    t = _direction_angle(d)
    m = Mobius.rotation(t) @ Mobius.axial(radius)
    return iota(halfplane_apply(m, BASEPOINT), M)


def visual_dist_generic(p_seq, q_seq):
    """Gromov-product estimate of the boundary distance from escaping sequences.

    Returns exp(-(d(p,1) + d(q,1) - d(p,q))/2) evaluated at the deepest pair;
    coincident sequences give 0 exactly.  Raises when the sequences do not
    escape (base distances must be strictly increasing).
    """
    p_seq, q_seq = list(p_seq), list(q_seq)
    if len(p_seq) != len(q_seq) or not p_seq:
        raise ValueError("need two nonempty sequences of equal length")
    base = normalize(unit_disc())
    dp = [hyper_dist(p, base) for p in p_seq]
    dq = [hyper_dist(q, base) for q in q_seq]
    for seq in (dp, dq):
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise ValueError("sequences do not escape: base distances must increase")
    cross = [hyper_dist(p, q) for p, q in zip(p_seq, q_seq)]
    if max(cross) < 1e-12:
        return 0.0
    return math.exp(-0.5 * (dp[-1] + dq[-1] - cross[-1]))


def _ball_halfwidth(eps, metric="visual", lam=1.0):
    """Angular half-width of an eps-ball of the (scaled) metric profile."""
    if metric == "visual":
        x = 4.0 * eps * eps / (math.pi * lam * lam)
        # closed balls: at the diameter (x rounds to 1) one ball covers
        return 0.5 * math.pi if x >= 1.0 - 1e-12 else math.asin(x)
    if metric == "round":
        return min(eps / lam, 0.5 * math.pi)
    raise ValueError("unknown metric %r" % (metric,))


def covering_number(eps, metric="visual", lam=1.0):
    """Minimal number of metric eps-balls covering the direction circle.

    For the visual metric this is ceil(pi / (2 arcsin(min(1, 4 eps^2/pi)))),
    monotone in the small-angle profile; one ball suffices past the diameter.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive, got %r" % (eps,))
    w = _ball_halfwidth(eps, metric, lam)
    if w >= 0.5 * math.pi:
        return 1
    return int(math.ceil(math.pi / (2.0 * w)))


def hausdorff_dim_estimate(j_min, j_max, metric="visual", lam=1.0):
    """Least-squares slope of log N(2^-j) against j log 2, with RMS residual.

    The slope of the analytic covering profile is the box dimension: 2 for
    the visual metric, 1 for the round metric, unchanged under scaling.
    """
    if not (j_max > j_min >= 2):
        raise ValueError("need j_max > j_min >= 2, got (%r, %r)" % (j_min, j_max))
    js = np.arange(j_min, j_max + 1)
    logn = np.log([covering_number(2.0**-j, metric, lam) for j in js])
    x = js * math.log(2.0)
    slope, intercept = np.polyfit(x, logn, 1)
    resid = float(np.sqrt(np.mean((np.polyval([slope, intercept], x) - logn) ** 2)))
    return float(slope), resid


def sample_directions(n):
    """Low-discrepancy directions on [0, pi) (golden rotation), sorted, built in one buffer."""
    pts = np.arange(n, dtype=float)
    pts /= GOLDEN
    pts %= 1.0
    pts *= math.pi
    pts.sort()
    return pts


def greedy_cover_count(points, halfwidth):
    """Arcs of angular width 2*halfwidth needed to cover sorted directions.

    One sweep from the first point, within one arc of the optimal circular covering;
    each arc is one bisect of a zero-copy view of the points, O(N log n) for N arcs.
    """
    if not (math.isfinite(halfwidth) and halfwidth >= 0.0):
        raise ValueError("halfwidth must be finite and nonnegative, got %r" % (halfwidth,))
    arr = np.ascontiguousarray(points, dtype=float)
    if arr.size == 0:
        return 0
    # NaN fails >= too, so sorted with finite ends means finite throughout
    if arr.ndim != 1 or not (np.isfinite(arr[[0, -1]]).all() and (arr[1:] >= arr[:-1]).all()):
        raise ValueError("points must be a finite sorted 1-D array")
    pts, step = memoryview(arr), 2.0 * float(halfwidth)
    stop = bisect_left(pts, pts[0] + math.pi)
    i, count = 0, 0
    while i < stop:
        count += 1
        i = bisect_right(pts, pts[i] + step, i)
    return count


def empirical_dim_estimate(j_min, j_max, n_samples=100_000, metric="visual"):
    """Greedy-cover slope on sampled directions, over scales the sample resolves.

    Scales with analytic covering number above n_samples/5 would saturate at
    the sample count, so the fit keeps only the coarser ones.  Returns
    (slope, used_js, counts).
    """
    pts = sample_directions(n_samples)
    js = [j for j in range(j_min, j_max + 1) if covering_number(2.0**-j, metric) <= n_samples / 5]
    if len(js) < 2:
        raise ValueError("sample too small to resolve at least two scales")
    counts = [greedy_cover_count(pts, _ball_halfwidth(2.0**-j, metric)) for j in js]
    slope, _ = np.polyfit(np.asarray(js, dtype=float) * math.log(2.0), np.log(counts), 1)
    return float(slope), js, counts
