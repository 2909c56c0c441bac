"""Elliptic integral checks against direct quadrature of the defining integrals."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from hypkonvex.specfun import EllipticDomainError, agm_KE_from_complement

# Frozen from adaptive quadrature of the defining integrals (scipy.quad,
# epsabs=epsrel=1e-15).
K_HALF = 1.6857503548125963
E_HALF = 1.4674622093394272
I_09 = 6.166826593587444


def quad_K(k):
    return quad(lambda u: 1.0 / math.sqrt(1.0 - k * k * math.sin(u) ** 2), 0.0, math.pi / 2,
                epsabs=1e-13, epsrel=1e-13)[0]


def quad_E(k):
    return quad(lambda u: math.sqrt(1.0 - k * k * math.sin(u) ** 2), 0.0, math.pi / 2,
                epsabs=1e-13, epsrel=1e-13)[0]


def quad_I(k):
    return quad(lambda u: (1.0 - k * k * math.sin(u) ** 2) ** -1.5, 0.0, math.pi / 2,
                epsabs=1e-13, epsrel=1e-13)[0]


def agm_KE(k):
    """(K(k), E(k)) through the complementary modulus k' = sqrt((1-k)(1+k))."""
    return agm_KE_from_complement(math.sqrt((1.0 - k) * (1.0 + k)))


def test_zero_modulus_exact():
    K, E = agm_KE(0.0)
    assert K == pytest.approx(math.pi / 2, abs=0.0)
    assert E == pytest.approx(math.pi / 2, abs=0.0)


def test_half_modulus_matches_quadrature():
    K, E = agm_KE(0.5)
    assert abs(K - K_HALF) < 1e-14 * K_HALF
    assert abs(E - E_HALF) < 1e-14 * E_HALF
    assert abs(K - quad_K(0.5)) < 1e-12
    assert abs(E - quad_E(0.5)) < 1e-12


def test_near_one_E_tends_to_one():
    k = 1.0 - 1e-8
    _, E = agm_KE(k)
    assert abs(E - 1.0) < 1e-3
    assert abs(E - quad_E(k)) < 1e-9


@pytest.mark.parametrize("k", [0.1, 0.3, 0.7, 0.95])
def test_agm_vs_quadrature_grid(k):
    K, E = agm_KE(k)
    assert abs(K - quad_K(k)) < 1e-12 * max(1.0, K)
    assert abs(E - quad_E(k)) < 1e-12


def test_monotonicity_and_ordering():
    ks = np.linspace(0.0, 0.99, 34)
    Ks, Es = zip(*(agm_KE(float(k)) for k in ks))
    assert all(b > a for a, b in zip(Ks, Ks[1:]))
    assert all(b < a for a, b in zip(Es, Es[1:]))
    assert all(K >= E for K, E in zip(Ks, Es))


def test_E_against_scipy():
    # scipy's ellipe takes the parameter m = k^2
    for k in np.arange(0.0, 0.995, 0.05):
        k = float(k)
        _, E = agm_KE(k)
        assert abs(E - ellipe(k * k)) < 1e-14 * E


def test_I_at_zero():
    # I(0) = E(0)/(1 - 0) = pi/2, which is also the integral at k = 0
    _, E = agm_KE(0.0)
    assert E == pytest.approx(math.pi / 2, abs=0.0)
    assert quad_I(0.0) == pytest.approx(E, abs=1e-15)


def test_I_against_quadrature():
    # the weighted integral I(k) = E(k)/(1-k^2) of the distance kernels
    _, E = agm_KE(0.9)
    val = E / ((1.0 - 0.9) * (1.0 + 0.9))
    assert abs(val - I_09) < 1e-10 * I_09
    assert abs(val - quad_I(0.9)) < 1e-10 * val


def test_identity_residual_on_grid():
    for k in np.arange(0.1, 0.995, 0.05):
        k = float(k)
        _, E = agm_KE(k)
        assert abs(quad_I(k) * (1.0 - k * k) - E) < 1e-12


@pytest.mark.parametrize("bad", [-0.1, 1.5, 1.0 + 2.3e-16, math.nan])
def test_domain_errors(bad):
    with pytest.raises(EllipticDomainError):
        agm_KE_from_complement(bad)


def test_zero_complement_is_the_limit_k_to_1():
    assert agm_KE_from_complement(0.0) == (math.inf, 1.0)


@dataclass(frozen=True)
class EllipticTriple:
    """Value bundle (k, K(k), E(k), I(k)) with the defining identities checked."""

    k: float
    K: float
    E: float
    I: float

    def __post_init__(self):
        if not (0.0 <= self.k < 1.0):
            raise EllipticDomainError("modulus must lie in [0, 1), got %r" % (self.k,))
        if self.K < math.pi / 2 - 1e-15 or self.E > math.pi / 2 + 1e-15:
            raise ValueError("K must be >= pi/2 and E <= pi/2")
        if self.K <= 0.0 or self.E <= 0.0:
            raise ValueError("K and E must be positive")
        resid = abs(self.I * (1.0 - self.k**2) - self.E)
        if resid > 1e-13 * max(1.0, abs(self.E)):
            raise ValueError("I != E/(1-k^2): residual %g" % resid)

    @classmethod
    def from_modulus(cls, k):
        K, E = agm_KE(k)
        return cls(k=k, K=K, E=E, I=E / ((1.0 - k) * (1.0 + k)))


def test_elliptic_triple():
    t = EllipticTriple.from_modulus(0.5)
    assert t.K >= math.pi / 2 and 0 < t.E <= math.pi / 2
    assert abs(t.I * (1.0 - t.k**2) - t.E) < 1e-13
    with pytest.raises(ValueError):
        EllipticTriple(k=0.5, K=t.K, E=t.E, I=t.I * 1.01)
