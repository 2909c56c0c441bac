"""The visual distance through the isotropic representatives, a test oracle
for limits.visual_dist."""

import math

import numpy as np

from hypkonvex.limits import _direction_angle
from hypkonvex.mobius import _panel_mean


def visual_dist_isotropic(d1, d2):
    """The same distance through (1/2) sqrt(A(v1 + v2)) on the normalized
    isotropic representatives, with the form integral done by quadrature.

    The integrand of (1/2pi) int ((v1+v2)^2 - (v1'+v2')^2) is piecewise trig
    with kinks where either segment support crosses zero, so 20-point
    Gauss-Legendre panels between consecutive kinks (mobius._panel_mean)
    integrate it to machine precision.
    """
    t1, t2 = _direction_angle(d1), _direction_angle(d2)
    amp = 0.5 * math.pi

    kinks = sorted({(t + 0.5 * math.pi * k) % (2.0 * math.pi) for t in (t1, t2) for k in (1, 3)})
    kinks.append(kinks[0] + 2.0 * math.pi)

    def integrand(theta):
        f = amp * (np.abs(np.cos(theta - t1)) + np.abs(np.cos(theta - t2)))
        df = -amp * (
            np.sign(np.cos(theta - t1)) * np.sin(theta - t1)
            + np.sign(np.cos(theta - t2)) * np.sin(theta - t2)
        )
        return f * f - df * df

    return 0.5 * math.sqrt(max(0.0, _panel_mean(integrand, kinks)))
