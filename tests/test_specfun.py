"""Special functions against oracles: scipy/mpmath values and identities."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from steinprod.specfun import (MeijerGParams, _meijer_g_contour_batch,
                               _meijer_g_series, asymptotic_g, bessel_i,
                               bessel_k, digamma, log_gamma_complex,
                               meijer_g, meijer_g_batch, reduce_params,
                               shift_params)


class TestLogGamma:
    def test_exact_values(self):
        assert log_gamma_complex(1.0) == pytest.approx(0.0, abs=1e-14)
        assert complex(log_gamma_complex(0.5)).real == pytest.approx(
            math.log(math.sqrt(math.pi)), rel=1e-14)
        assert complex(log_gamma_complex(5.0)).real == pytest.approx(
            math.log(24.0), rel=1e-14)

    @pytest.mark.parametrize("z", [2.5 + 3j, 1.5 + 30j, 10 - 2j, 0.2 + 0.7j,
                                   -1.5 + 0.5j, -3.2 - 1.1j, 0.5])
    def test_against_scipy(self, z):
        assert abs(log_gamma_complex(z) - sp.loggamma(z)) < 5e-14 * max(
            1.0, abs(sp.loggamma(z)))

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            log_gamma_complex(-2.0)

    def test_vectorised_strip(self):
        s = 1.5 + 1j * np.linspace(0, 40, 64)
        np.testing.assert_allclose(log_gamma_complex(s), sp.loggamma(s),
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("x", [0.1, 0.7, 3.3, 12.0, -0.4, -5.7])
    def test_digamma(self, x):
        assert digamma(x) == pytest.approx(sp.digamma(x), rel=1e-12, abs=1e-12)


class TestBessel:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 1.0, 1.7, 2.0, 3.0, -0.5, -1.3])
    def test_against_scipy(self, nu):
        xs = np.array([1e-3, 0.1, 1.0, 2.0, 7.7, 20.0, 40.0, 100.0, 150.0])
        np.testing.assert_allclose(bessel_k(nu, xs), sp.kv(nu, xs), rtol=2e-12)
        np.testing.assert_allclose(bessel_i(nu, xs), sp.iv(nu, xs), rtol=2e-12)

    def test_half_integer_closed_form(self):
        x = 1.0
        assert bessel_k(0.5, x) == pytest.approx(
            math.sqrt(math.pi / (2 * x)) * math.exp(-x), rel=1e-13)

    def test_i_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.3, 0.0) == 0.0

    def test_k_domain(self):
        with pytest.raises(ValueError):
            bessel_k(0.5, -1.0)

    def test_wronskian(self):
        nu, x = 0.7, 2.0
        ip = 0.5 * (bessel_i(nu - 1, x) + bessel_i(nu + 1, x))
        kp = -0.5 * (bessel_k(nu - 1, x) + bessel_k(nu + 1, x))
        assert bessel_k(nu, x) * ip - bessel_i(nu, x) * kp == pytest.approx(
            1.0 / x, rel=1e-13)

    def test_small_x_growth_matches_leading_term(self):
        nu, x = 1.4, 1e-4
        lead = 2 ** (nu - 1) * math.gamma(nu) * x ** (-nu)
        assert bessel_k(nu, x) == pytest.approx(lead, rel=1e-3)

    def test_switchover_consistency(self):
        # series/quadrature vs asymptotic on both sides of the switch
        for nu in (0.0, 1.1, 2.5):
            edge = 30.0 * (1.0 + abs(nu))
            for x in (edge * 0.999, edge * 1.001):
                assert bessel_k(nu, x) == pytest.approx(sp.kv(nu, x), rel=1e-12)
                assert bessel_i(nu, x) == pytest.approx(sp.iv(nu, x), rel=1e-12)

    def test_k_symmetric_in_order(self):
        assert bessel_k(-1.7, 2.0) == bessel_k(1.7, 2.0)


EXP = MeijerGParams.upper_zero([], [0.0])


class TestMeijerG:
    def test_exponential_identity(self):
        for x in [0.1, 0.3, 1.0, 2.0, 5.0, 10.0]:
            assert meijer_g(EXP, x, 1e-12) == pytest.approx(
                math.exp(-x), abs=1e-12, rel=1e-12)

    def test_series_region(self):
        for x in [1e-9, 1e-5, 0.01, 0.039]:
            assert meijer_g(EXP, x) == pytest.approx(math.exp(-x), rel=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.0, 3.0])
    def test_bessel_representation(self, nu):
        params = MeijerGParams.upper_zero([], [nu / 2, -nu / 2])
        for x in (0.7, 1.7, 4.0):
            assert meijer_g(params, x * x / 4, 1e-11) == pytest.approx(
                2 * sp.kv(nu, x), rel=1e-9)

    def test_series_contour_overlap(self):
        params = MeijerGParams.upper_zero([], [0.35, 0.0, -0.2, 0.6])
        for z in (0.01, 0.02, 0.04, 0.08):
            vs = _meijer_g_series(params, z)
            vc = _meijer_g_contour_batch(params, [z], 1e-12)[0]
            assert vs == pytest.approx(vc, rel=1e-9, abs=1e-12)

    def test_double_pole_series(self):
        for z in (1e-6, 1e-3, 0.03):
            v = _meijer_g_series(MeijerGParams.upper_zero([], [0.0, 0.0]), z)
            assert v == pytest.approx(2 * sp.kv(0, 2 * math.sqrt(z)), rel=1e-12)
            v = _meijer_g_series(MeijerGParams.upper_zero([], [0.5, -0.5]), z)
            assert v == pytest.approx(2 * sp.kv(1, 2 * math.sqrt(z)), rel=1e-11)

    def test_denominator_collision_series(self):
        # upper parameter one above a double-zero ladder: net simple poles
        params = MeijerGParams.upper_zero([1.0], [0.0, 0.0, 0.3])
        for z in (1e-6, 1e-3, 0.02):
            ref = float(mp.meijerg([[], [1.0]], [[0.0, 0.0, 0.3], []], z))
            assert _meijer_g_series(params, z) == pytest.approx(ref, rel=1e-10)

    def test_beta_kernel_q_equals_p(self):
        a, b = 1.3, 0.7
        params = MeijerGParams.upper_zero([a + b - 1], [a - 1])
        for x in (0.1, 0.4, 0.8):
            ref = x ** (a - 1) * (1 - x) ** (b - 1) / math.gamma(b)
            assert meijer_g(params, x) == pytest.approx(ref, rel=1e-10)

    def test_against_mpmath_high_order(self):
        params = MeijerGParams.upper_zero([1.0, 0.65],
                                          [0.65, 0.15, 0.7, 0.2, 0.0])
        for z in (0.08, 0.5, 2.0, 9.0):
            ref = float(mp.meijerg([[], list(params.a)], [list(params.b), []], z))
            assert meijer_g(params, z, 1e-11) == pytest.approx(ref, rel=1e-9)

    def test_derivatives(self):
        for z in (0.02, 0.5, 2.0):
            assert meijer_g(EXP, z, 1e-12, deriv=1) == pytest.approx(-math.exp(-z), rel=1e-9)
            assert meijer_g(EXP, z, 1e-12, deriv=2) == pytest.approx(math.exp(-z), rel=1e-9)

    def test_batch_derivatives_against_mpmath(self):
        params = MeijerGParams.upper_zero([1.0], [0.65, 0.15, 0.0])
        zs = np.array([0.02, 0.3, 0.9, 2.5, 7.0])
        g = lambda z: mp.meijerg([[], list(params.a)], [list(params.b), []], z)
        for deriv in (1, 2):
            got = meijer_g_batch(params, zs, 1e-11, deriv)
            ref = [float(mp.diff(g, float(z), deriv)) for z in zs]
            np.testing.assert_allclose(got, ref, rtol=1e-9)

    def test_batch_matches_scalar(self):
        params = MeijerGParams.upper_zero([], [0.7, 0.2, 0.0])
        zs = np.geomspace(1e-5, 50.0, 40)
        batch = meijer_g_batch(params, zs, 1e-11)
        single = np.array([meijer_g(params, float(z), 1e-11) for z in zs])
        np.testing.assert_allclose(batch, single, rtol=1e-9, atol=1e-300)

    def test_invalid_argument(self):
        with pytest.raises(ValueError):
            meijer_g(EXP, -1.0)


class TestParameterIdentities:
    def test_shift_identity(self):
        params = MeijerGParams.upper_zero([], [0.3, -0.1])
        for c in (0.5, 1.0, -0.7, 3.0, -3.0):
            for z in (0.4, 2.0):
                lhs = z**c * meijer_g(params, z, 1e-11)
                rhs = meijer_g(shift_params(params, c), z, 1e-11)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_shift_zero_is_identity(self):
        params = MeijerGParams.upper_zero([0.4], [0.1, 0.9])
        assert shift_params(params, 0.0) == params

    def test_shifted_bessel_matches_weighted(self):
        nu = 0.8
        base = MeijerGParams.upper_zero([], [nu / 2, -nu / 2])
        shifted = shift_params(base, nu / 2)
        for x in (0.9, 2.4):
            z = x * x / 4
            assert meijer_g(shifted, z, 1e-11) == pytest.approx(
                z ** (nu / 2) * 2 * sp.kv(nu, x), rel=1e-9)

    def test_exponential_shift_by_one(self):
        shifted = shift_params(EXP, 1.0)
        for x in (0.5, 1.5):
            assert meijer_g(shifted, x, 1e-11) == pytest.approx(
                x * math.exp(-x), rel=1e-10)

    def test_reduction(self):
        params = MeijerGParams.upper_zero([0.8], [0.8, 0.0])
        red = reduce_params(params)
        assert (red.p, red.q) == (0, 1)
        for z in (0.3, 1.0, 3.0):
            assert meijer_g(params, z, 1e-11) == pytest.approx(
                meijer_g(red, z, 1e-11), abs=1e-9)

    def test_no_coincidence_unchanged(self):
        params = MeijerGParams.upper_zero([0.8], [0.3, 0.0])
        assert reduce_params(params) == params

    def test_double_reduction(self):
        params = MeijerGParams.upper_zero([0.8, 0.1], [0.8, 0.1, 0.0])
        red = reduce_params(params)
        assert (red.p, red.q) == (0, 1)
        for z in (0.5, 2.0):
            assert meijer_g(params, z, 1e-11) == pytest.approx(
                meijer_g(red, z, 1e-11), rel=1e-9)


class TestAsymptotics:
    def test_exponential_case_exact_shape(self):
        # sigma = 1: the asymptote is x^{b1} e^{-x} with unit prefactor
        for x in (5.0, 9.0):
            assert asymptotic_g(EXP, x) == pytest.approx(math.exp(-x), rel=1e-13)

    def test_bessel_case(self):
        nu = 0.8
        params = MeijerGParams.upper_zero([], [nu / 2, -nu / 2])
        x = 30.0
        z = x * x / 4
        assert asymptotic_g(params, z) == pytest.approx(2 * sp.kv(nu, x), rel=2e-2)

    def test_ratio_tends_to_one(self):
        params = MeijerGParams.upper_zero([], [0.35, -0.2])
        for z in (150.0, 400.0, 2000.0):
            ratio = meijer_g(params, z, 1e-11) / asymptotic_g(params, z)
            assert abs(ratio - 1) < 0.05

    def test_deep_tail_before_underflow(self):
        params = MeijerGParams.upper_zero([], [0.2, -0.2])
        z = (600.0) ** 2 / 4  # value around 1e-262
        v = meijer_g(params, z, 1e-10)
        assert v == pytest.approx(2 * sp.kv(0.4, 600.0), rel=1e-8)
        assert v == pytest.approx(asymptotic_g(params, z), rel=1e-3)

    def test_requires_decay(self):
        with pytest.raises(ValueError):
            asymptotic_g(MeijerGParams.upper_zero([0.5], [0.5]), 10.0)

