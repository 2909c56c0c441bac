"""Complete elliptic integrals via the arithmetic-geometric mean.

Provides K and E, parameterized by the complementary modulus k', for the
closed-form distance kernels.  The AGM iteration converges quadratically, so
machine precision is reached in at most a dozen steps.
"""

import math
import sys

_EPS = sys.float_info.epsilon
_MAX_ITER = 64


class EllipticDomainError(ValueError):
    """Modulus outside the supported range."""


def _agm_with_sum(k_prime, k_sq):
    """AGM of (1, k') together with the weighted gap sum needed for E.

    Returns (agm, s) where s = sum_{n>=0} 2^{n-1} c_n^2 with c_0 = k and
    c_{n+1} = (a_n - b_n)/2.  Stops once the gap falls to a few ulps; the
    nominal 1e-16 relative criterion is below double eps and can stall.
    """
    a, b = 1.0, float(k_prime)
    s = 0.5 * k_sq
    p = 0.5
    for _ in range(_MAX_ITER):
        c = 0.5 * (a - b)
        if abs(c) <= 4.0 * _EPS * a:
            return a, s
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        p *= 2.0
        s += p * c * c
    raise EllipticDomainError(
        "AGM did not converge in %d iterations (k'=%g)" % (_MAX_ITER, k_prime)
    )


def agm_KE_from_complement(k_prime):
    """(K, E) parameterized by the complementary modulus k' = sqrt(1-k^2).

    Accepts any k' in [0, 1], so k may lie so close to 1 that 1-k^2 would
    be lost to rounding: k' is formed directly by the caller, e.g.
    k' = e^{-s}.  At k' = 0, where k' underflowed, K is
    infinite and E = 1 + O(k'^2 log(1/k')) is 1 to double precision.
    """
    if not 0.0 <= k_prime <= 1.0:
        raise EllipticDomainError("complementary modulus must lie in [0, 1], got %r" % (k_prime,))
    if k_prime == 0.0:
        return math.inf, 1.0
    agm, s = _agm_with_sum(k_prime, (1.0 - k_prime) * (1.0 + k_prime))
    K = math.pi / (2.0 * agm)
    return K, K * (1.0 - s)

