"""Elliptic integral and Jacobi function checks.

Reference values were produced by an independent quadrature oracle
(adaptive Gauss-Kronrod on the defining integrals at abs tol 1e-15,
amplitude values by bisection inversion) and are frozen here.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from sphericurve.specfun import (
    EllipticModulus,
    complete_K,
    incomplete_E,
    incomplete_F,
    jacobi,
)


def _F_quad(phi, p):
    v, _ = scipy.integrate.quad(
        lambda t: 1.0 / math.sqrt(1.0 - (p * math.sin(t)) ** 2),
        0.0, phi, epsabs=1e-15, epsrel=1e-13, limit=400,
    )
    return v


def _E_quad(phi, p):
    v, _ = scipy.integrate.quad(
        lambda t: math.sqrt(1.0 - (p * math.sin(t)) ** 2),
        0.0, phi, epsabs=1e-15, epsrel=1e-13, limit=400,
    )
    return v


class TestFrozenReferenceValues:
    def test_complete_K(self):
        assert complete_K(0.5) == pytest.approx(1.6857503548125963, rel=1e-14)
        assert complete_K(0.6) == pytest.approx(1.7507538029157526, rel=1e-14)

    def test_incomplete_F(self):
        assert incomplete_F(0.7, 0.8) == pytest.approx(0.7380585207507772, rel=1e-14)
        assert incomplete_F(2.9, 0.55) == pytest.approx(3.1884081121811594, rel=1e-14)

    def test_incomplete_E(self):
        assert incomplete_E(0.9, 0.5) == pytest.approx(0.8735177009706117, rel=1e-14)
        assert incomplete_E(-1.2, 0.95) == pytest.approx(-0.9662063308333324, rel=1e-14)

    def test_jacobi(self):
        j = jacobi(1.3, 0.6)
        assert j.am == pytest.approx(1.2058962114431395, rel=1e-13)
        assert j.sn == pytest.approx(0.9341594102594835, rel=1e-13)
        assert j.cn == pytest.approx(0.3568559880731359, rel=1e-13)
        assert j.dn == pytest.approx(0.8281573706974511, rel=1e-13)


class TestSpecialArguments:
    def test_complete_K_at_zero(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_complete_K_small_p_series(self):
        p = 1e-4
        series = (math.pi / 2.0) * (1.0 + p * p / 4.0)
        assert abs(complete_K(p) - series) < 1e-10

    def test_complete_K_domain(self):
        with pytest.raises(ValueError):
            complete_K(1.0)
        with pytest.raises(ValueError):
            complete_K(1.2)
        with pytest.raises(ValueError):
            complete_K(-0.1)

    def test_F_reduces_to_identity_at_p0(self):
        for phi in (-2.0, -0.3, 0.0, 1.1, 4.0):
            assert incomplete_F(phi, 0.0) == phi
            assert incomplete_E(phi, 0.0) == phi

    def test_F_at_quarter_period_is_complete(self):
        for p in (0.1, 0.5, 0.9, 0.99):
            assert incomplete_F(math.pi / 2.0, p) == pytest.approx(
                complete_K(p), rel=1e-13
            )

    def test_E_at_p1(self):
        assert incomplete_E(math.pi / 2.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_F_diverges_at_p1(self):
        with pytest.raises(ValueError):
            incomplete_F(math.pi / 2.0, 1.0)
        with pytest.raises(ValueError):
            incomplete_F(2.0, 1.0)
        # strictly inside the branch it is artanh(sin phi)
        assert incomplete_F(0.6, 1.0) == pytest.approx(
            math.atanh(math.sin(0.6)), rel=1e-14
        )

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 0.999, 1.0])
    def test_jacobi_on_arrays_matches_scalar_calls(self, p):
        # the AGM chain is shared, the recursion runs elementwise; the
        # scalar loop is the reference, to 2 ulps
        u = np.linspace(-30.0, 30.0, 400).reshape(20, 20)
        arr = jacobi(u, p)
        for name in ("sn", "cn", "dn", "am"):
            got = getattr(arr, name)
            want = np.vectorize(lambda x: getattr(jacobi(float(x), p), name))(u)
            assert got.shape == u.shape
            assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.maximum(np.abs(want), 1.0)))
        assert all(type(v) is float for v in vars(jacobi(0.4, p)).values())

    def test_jacobi_degenerate_moduli(self):
        for u in (-1.7, 0.0, 0.4, 2.2):
            j0 = jacobi(u, 0.0)
            assert j0.sn == pytest.approx(math.sin(u), abs=1e-15)
            assert j0.cn == pytest.approx(math.cos(u), abs=1e-15)
            assert j0.dn == 1.0
            j1 = jacobi(u, 1.0)
            assert j1.sn == pytest.approx(math.tanh(u), abs=1e-15)
            assert j1.cn == pytest.approx(1.0 / math.cosh(u), abs=1e-15)
            assert j1.dn == pytest.approx(1.0 / math.cosh(u), abs=1e-15)

    def test_jacobi_at_quarter_period(self):
        for p in (0.3, 0.6, 0.95):
            mod = EllipticModulus.of(p)
            j = jacobi(complete_K(p), p)
            assert j.sn == pytest.approx(1.0, rel=1e-12)
            assert abs(j.cn) < 1e-12
            assert j.dn == pytest.approx(mod.p_prime, rel=1e-12)

    def test_nan_propagation(self):
        assert math.isnan(complete_K(float("nan")))
        assert math.isnan(incomplete_F(float("nan"), 0.5))
        assert math.isnan(incomplete_F(0.5, float("nan")))
        assert math.isnan(incomplete_E(float("nan"), 0.5))
        j = jacobi(float("nan"), 0.5)
        assert math.isnan(j.sn) and math.isnan(j.am)

    def test_modulus_dataclass(self):
        m = EllipticModulus.of(0.6)
        assert m.p_prime == pytest.approx(0.8, rel=1e-15)
        with pytest.raises(ValueError):
            EllipticModulus.of(1.5)
        f = incomplete_F(0.7, m)
        assert f == incomplete_F(0.7, 0.6)


class TestIdentities:
    def test_oddness(self):
        rng = np.random.default_rng(20250811)
        for _ in range(50):
            phi = float(rng.uniform(-3.0, 3.0))
            p = float(rng.uniform(0.0, 0.999))
            assert incomplete_F(-phi, p) == pytest.approx(
                -incomplete_F(phi, p), rel=1e-13, abs=1e-13
            )
            assert incomplete_E(-phi, p) == pytest.approx(
                -incomplete_E(phi, p), rel=1e-13, abs=1e-13
            )

    def test_quasi_periodicity(self):
        rng = np.random.default_rng(20250812)
        for _ in range(50):
            phi = float(rng.uniform(-1.5, 1.5))
            p = float(rng.uniform(0.0, 0.999))
            lhs = incomplete_F(phi + math.pi, p)
            rhs = incomplete_F(phi, p) + 2.0 * complete_K(p)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_pythagorean_invariants(self):
        rng = np.random.default_rng(20250813)
        for _ in range(100):
            p = float(rng.uniform(0.0, 0.9999))
            u = float(rng.uniform(-1.0, 1.0)) * 4.0 * complete_K(min(p, 0.999))
            j = jacobi(u, p)
            assert abs(j.sn**2 + j.cn**2 - 1.0) <= 1e-12
            assert abs(j.dn**2 + (p * j.sn) ** 2 - 1.0) <= 1e-12

    def test_amplitude_inverts_F(self):
        rng = np.random.default_rng(20250814)
        for _ in range(100):
            phi = float(rng.uniform(-math.pi / 2.0, math.pi / 2.0))
            p = float(rng.uniform(0.0, 0.999))
            u = incomplete_F(phi, p)
            assert jacobi(u, p).am == pytest.approx(phi, abs=1e-11)

    def test_sn_cn_match_amplitude(self):
        rng = np.random.default_rng(20250815)
        for _ in range(60):
            u = float(rng.uniform(-8.0, 8.0))
            p = float(rng.uniform(0.05, 0.99))
            j = jacobi(u, p)
            assert j.sn == pytest.approx(math.sin(j.am), abs=1e-12)
            assert j.cn == pytest.approx(math.cos(j.am), abs=1e-12)

    def test_periodicity_4K(self):
        rng = np.random.default_rng(20250816)
        for _ in range(40):
            p = float(rng.uniform(0.05, 0.98))
            u = float(rng.uniform(-2.0, 2.0))
            K = complete_K(p)
            j0 = jacobi(u, p)
            j1 = jacobi(u + 4.0 * K, p)
            assert j1.sn == pytest.approx(j0.sn, abs=1e-10)
            assert j1.cn == pytest.approx(j0.cn, abs=1e-10)
            assert j1.dn == pytest.approx(j0.dn, abs=1e-10)
            # the amplitude is not 4K-periodic: it advances by 2 pi
            assert j1.am - j0.am == pytest.approx(2.0 * math.pi, abs=1e-10)

    def test_amplitude_derivative_is_dn(self):
        rng = np.random.default_rng(20250817)
        h = 1e-5
        for _ in range(40):
            p = float(rng.uniform(0.05, 0.95))
            u = float(rng.uniform(-5.0, 5.0))
            d = (jacobi(u + h, p).am - jacobi(u - h, p).am) / (2.0 * h)
            assert d == pytest.approx(jacobi(u, p).dn, abs=1e-8)


class TestAgainstQuadrature:
    def test_F_and_E_match_integral_oracle(self):
        rng = np.random.default_rng(20250818)
        for _ in range(100):
            phi = float(rng.uniform(-3.0, 3.0))
            p = float(rng.uniform(0.0, 0.95))
            assert incomplete_F(phi, p) == pytest.approx(
                _F_quad(phi, p), abs=1e-12, rel=1e-12
            )
            assert incomplete_E(phi, p) == pytest.approx(
                _E_quad(phi, p), abs=1e-12, rel=1e-12
            )

    def test_complete_K_matches_integral_oracle(self):
        rng = np.random.default_rng(20250819)
        for _ in range(25):
            p = float(rng.uniform(0.0, 0.995))
            assert complete_K(p) == pytest.approx(
                _F_quad(math.pi / 2.0, p), rel=1e-13
            )
