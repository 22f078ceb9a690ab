import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from ibstokes import bessel
from ibstokes.bessel import SsdSymbolParams
from ibstokes.errors import ParameterError


class TestK0ConvolutionSymbol:
    def test_values(self):
        assert bessel.k0_convolution_symbol(1.0, 0) == 1.0
        assert abs(bessel.k0_convolution_symbol(3.0, 4) - 0.2) <= 1e-15

    def test_monotone(self):
        ks = np.arange(0, 20)
        vals = bessel.k0_convolution_symbol(2.0, ks)
        assert np.all(np.diff(vals) < 0)
        assert bessel.k0_convolution_symbol(5.0, 3) < bessel.k0_convolution_symbol(2.0, 3)

    def test_domain(self):
        with pytest.raises(ParameterError, match="beta must be positive, got 0.0"):
            bessel.k0_convolution_symbol(0.0, 1)

    def test_identity_against_quadrature(self):
        # (1/pi) int K0(beta|a-a'|) cos(k a') da' = cos(k a)/sqrt(beta^2+k^2)
        beta, k = 2.0, 2
        for a in (0.0, 0.7):
            tail = 40.0 / beta
            val, _ = quad(lambda u: special.k0(beta * abs(u)) * np.cos(k * (a - u)),
                          -tail, tail, points=[0.0], limit=400)
            val /= np.pi
            expect = np.cos(k * a) * bessel.k0_convolution_symbol(beta, k)
            assert abs(val - expect) <= 1e-6


def params(mu, dt=0.1, elastic=1.0, rho=1.0, s_min=1.0, s_exc=0.0):
    lam = 1.0 / np.sqrt(mu * dt / rho)
    return SsdSymbolParams(elastic=elastic, rho=rho, dt=dt, lam=lam,
                           s_min=s_min, s_max_excess=s_exc)


class TestSsdSymbols:
    def test_zero_mode(self):
        p = params(1.0, s_exc=0.3)
        assert bessel.ssd_symbol_t(0, p) == 0.0
        assert bessel.ssd_symbol_s(0, p) == 0.0
        t2, s2 = bessel.ssd_symbol_second_order(0, p)
        assert t2 == 0.0 and s2 == 0.0

    def test_high_viscosity_limit_matches_steady_flow(self):
        # mu >> 1: T -> -(S_b/4mu)|k|, S -> -(S_b/4mu) s_exc |k|
        mu = 1e4
        p = params(mu, s_exc=0.4)
        for k in range(1, 9):
            t = bessel.ssd_symbol_t(k, p)
            s = bessel.ssd_symbol_s(k, p)
            assert abs(t - (-(1.0 / (4 * mu)) * k)) <= 0.01 * abs(t)
            assert abs(s - (-(0.4 / (4 * mu)) * k)) <= 0.01 * abs(s)

    def test_low_viscosity_limit(self):
        # mu << 1: T -> -(S_b sqrt(dt) / (2 s_min sqrt(rho mu))) k^2
        mu, dt = 1e-6, 0.1
        p = params(mu, dt=dt, s_exc=0.4)
        for k in range(1, 9):
            t = bessel.ssd_symbol_t(k, p)
            expect = -(np.sqrt(dt) / (2.0 * np.sqrt(mu))) * k**2
            assert abs(t - expect) <= 0.01 * abs(expect)
            # S: evaluate the bracket form directly as a cross-check
            beta = p.lam * p.s_min
            expect_s = -(0.4 * dt / 2.0) * (k**3 - k**4 / np.sqrt(beta**2 + k**2))
            assert abs(bessel.ssd_symbol_s(k, p) - expect_s) <= 1e-12 * abs(expect_s)

    def test_t_strictly_negative_off_zero(self):
        p = params(0.05, s_min=1.3, s_exc=0.5)
        ks = np.arange(1, 65)
        assert np.all(bessel.ssd_symbol_t(ks, p) < 0)

    def test_even_in_k(self):
        p = params(0.01, s_min=1.2, s_exc=0.3)
        ks = np.arange(1, 33)
        assert np.max(np.abs(bessel.ssd_symbol_t(ks, p) - bessel.ssd_symbol_t(-ks, p))) == 0.0
        assert np.max(np.abs(bessel.ssd_symbol_s(ks, p) - bessel.ssd_symbol_s(-ks, p))) == 0.0

    def test_second_order_equals_first_order_structure(self):
        # same brackets with lam -> lam_bar, prefactors halved, and the S
        # denominator picking up one extra power of s_min
        mu, dt, s_min, s_exc = 0.02, 0.25, 1.25, 0.45
        lam_bar = np.sqrt(2.0 / (mu * dt))
        p2 = SsdSymbolParams(elastic=1.0, rho=1.0, dt=dt, lam=lam_bar,
                             s_min=s_min, s_max_excess=s_exc)
        k = 4
        t2, s2 = bessel.ssd_symbol_second_order(k, p2)
        beta = lam_bar * s_min
        t_direct = -(dt / (4 * s_min**2)) * ((beta**2 * k**2 + k**4) / np.sqrt(beta**2 + k**2) - k**3)
        s_direct = -(dt * s_exc / (4 * s_min**3)) * (k**3 - k**4 / np.sqrt(beta**2 + k**2))
        assert abs(t2 - t_direct) <= 1e-14 * abs(t_direct)
        assert abs(s2 - s_direct) <= 1e-14 * abs(s_direct)

    def test_second_order_s_prefactor_scales_cubed(self):
        mu, dt = 0.02, 0.25
        lam_bar = np.sqrt(2.0 / (mu * dt))
        base = dict(elastic=1.0, rho=1.0, dt=dt, lam=lam_bar,
                    s_max_excess=0.45)
        k = 4.0
        p_a = SsdSymbolParams(s_min=1.0, **base)
        p_b = SsdSymbolParams(s_min=2.0, **base)
        # with the bracket frozen (same beta), prefactor alone scales 1/8;
        # compare prefactors by dividing out each bracket at the shared k
        beta_a, beta_b = p_a.lam * 1.0, p_b.lam * 2.0
        br_a = k**3 - k**4 / np.sqrt(beta_a**2 + k**2)
        br_b = k**3 - k**4 / np.sqrt(beta_b**2 + k**2)
        _, s_a = bessel.ssd_symbol_second_order(k, p_a)
        _, s_b = bessel.ssd_symbol_second_order(k, p_b)
        assert abs((s_b / br_b) / (s_a / br_a) - 0.125) <= 1e-12

    def test_invalid_params(self):
        with pytest.raises(ParameterError, match="need lam > 0 and s_min > 0"):
            SsdSymbolParams(elastic=1, rho=1, dt=0.1, lam=-1.0,
                            s_min=1.0, s_max_excess=0.0)
