"""Complete elliptic integrals via the arithmetic-geometric mean.

Provides K(k), E(k) and the weighted integral I(k) = E(k)/(1-k^2) that shows
up in the closed-form distance kernels.  The AGM iteration converges
quadratically, so machine precision is reached in at most a dozen steps.
"""

import math
import sys

_EPS = sys.float_info.epsilon
_MAX_ITER = 64

# Hard ceiling on the modulus: K(k) diverges as k -> 1, and above this point
# double precision cannot separate k from 1 meaningfully.
K_MAX = 1.0 - 1e-12


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


def agm_KE_from_complement(k_prime, k_sq=None):
    """(K, E) parameterized by the complementary modulus k' = sqrt(1-k^2).

    Accepts any k' in [0, 1]; this is the entry point to use when k is so
    close to 1 that 1-k^2 would be lost to rounding (k' can then be formed
    directly, e.g. k' = e^{-s}).  At k' = 0, where k' underflowed, K is
    infinite and E = 1 + O(k'^2 log(1/k')) is 1 to double precision.
    """
    if not 0.0 <= k_prime <= 1.0:
        raise EllipticDomainError("complementary modulus must lie in [0, 1], got %r" % (k_prime,))
    if k_prime == 0.0:
        return math.inf, 1.0
    if k_sq is None:
        k_sq = (1.0 - k_prime) * (1.0 + k_prime)
    agm, s = _agm_with_sum(k_prime, k_sq)
    K = math.pi / (2.0 * agm)
    return K, K * (1.0 - s)


def agm_KE(k):
    """Complete elliptic integrals (K(k), E(k)) for modulus 0 <= k <= 1-1e-12.

    K(k) = int_0^{pi/2} (1 - k^2 sin^2 u)^{-1/2} du and E(k) the companion
    with the square root upstairs; both evaluated by the AGM iteration to
    within a few ulps.
    """
    if not (0.0 <= k < 1.0) or k > K_MAX:
        raise EllipticDomainError("modulus must lie in [0, 1-1e-12], got %r" % (k,))
    k_prime = math.sqrt((1.0 - k) * (1.0 + k))
    return agm_KE_from_complement(k_prime, k * k)


def ellip_I(k):
    """The weighted integral I(k) = int_0^{pi/2} (1-k^2 sin^2 u)^{-3/2} du.

    Computed through the identity I(k) = E(k)/(1-k^2).
    """
    if not (0.0 <= k < 1.0) or k > K_MAX:
        raise EllipticDomainError("modulus must lie in [0, 1-1e-12], got %r" % (k,))
    _, E = agm_KE(k)
    return E / ((1.0 - k) * (1.0 + k))
