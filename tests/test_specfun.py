"""Special functions against oracles: scipy/mpmath values and identities."""

import math
import warnings

import hypothesis.strategies as st
import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings

from steinprod import dist, specfun
from steinprod.specfun import (MeijerGParams, NumericalError, _log_asymptotic_g,
                               _meijer_g_contour_batch, _meijer_g_limit,
                               _meijer_g_series,
                               bessel_i, bessel_k,
                               log_gamma_complex, meijer_g, meijer_g_batch,
                               polygamma, reduce_params)
from steinprod.steinops import ProductSpec

from oracles import shift_params


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

    def test_any_shape(self):
        # a 2-D argument whose left half-plane entries take the shifted branch
        z = np.array([[2.5 + 3j, -1.5 + 0.5j, -3.2 - 1.1j, -2.5],
                      [0.2 + 0.7j, -0.5 + 0.1j, -7.3, 0.3 - 20j]])
        got = log_gamma_complex(z)
        assert got.shape == z.shape
        np.testing.assert_allclose(got, sp.loggamma(z), rtol=5e-14, atol=5e-14)

    def test_values_do_not_depend_on_batch(self):
        # every point alone equals its entry in the batch, bit for bit, the
        # left half-plane (shifted by the recurrence) and the real axis included
        rng = np.random.default_rng(37)
        for size in (1, 2, 7, 64, 1000, 9000):
            z = rng.uniform(-20.0, 200.0, size) + 1j * rng.uniform(-1e4, 1e4, size)
            z.imag[::3] *= np.exp(rng.uniform(-25.0, 0.0, len(z[::3])))
            z.imag[1::5] = 0.0
            batch = log_gamma_complex(z)
            for i in range(size):
                assert log_gamma_complex(z[i:i + 1])[0] == batch[i], z[i]

    def test_rational_form_over_the_whole_range(self):
        # Re z in [0.5, 1e3] and |Im z| up to 1e12, both log-uniform, against 30 digits
        rng = np.random.default_rng(41)
        z = np.exp(rng.uniform(math.log(0.5), math.log(1e3), 600)) + 1j * np.where(
            rng.random(600) < 0.1, 0.0,
            np.exp(rng.uniform(math.log(1e-6), math.log(1e12), 600)) * rng.choice([-1.0, 1.0], 600))
        got = log_gamma_complex(z)
        with mp.workdps(30):
            ref = np.array([complex(mp.loggamma(mp.mpc(v.real, v.imag))) for v in z])
        assert np.all(np.abs(got - ref) <= 5e-14 * np.maximum(1.0, np.abs(ref)))
        # far out, where z^14 and |z|^2 leave the float range, and where Gamma nears the
        # largest double
        for v in (1e20 * (1 + 1j), 1e300, 171.5):
            with mp.workdps(30):
                want = complex(mp.loggamma(mp.mpc(v)))
            assert np.isfinite(log_gamma_complex(v))
            assert abs(log_gamma_complex(v) - want) <= 5e-14 * abs(want)

    @pytest.mark.parametrize("x", [0.1, 0.7, 3.3, 12.0, -0.4, -5.7])
    def test_digamma(self, x):
        assert polygamma(0, x) == pytest.approx(sp.digamma(x), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 13.0, -0.5, -2.7])
    def test_polygamma(self, m, x):
        assert polygamma(m, x) == pytest.approx(sp.polygamma(m, x), rel=1e-12, abs=1e-12)

    def test_polygamma_pole_rejected(self):
        with pytest.raises(ValueError):
            polygamma(1, -3.0)


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

    def test_k_large_order_against_mpmath(self):
        # the trapezoid step set by x alone ignored the order: K_300 was 1.6e-11 off at 24.49
        xs = np.array([20.9, 22.9, 24.49, 28.28, 40.0, 100.0, 300.0])
        with mp.workdps(40):
            ref = [float(mp.besselk(300, x)) for x in xs]
        np.testing.assert_allclose(bessel_k(300.0, xs), ref, rtol=2e-13, atol=0)

    def test_k_symmetric_in_order(self):
        assert bessel_k(-1.7, 2.0) == bessel_k(1.7, 2.0)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.5, 2.5, 3.5, -0.5, -1.3])
    def test_values_do_not_depend_on_batch(self, nu):
        # one batch mixing both routes and many octaves, octave edges 2^e
        # and both sides of the switch; each value against the point alone
        rng = np.random.default_rng(13)
        switch = specfun._bessel_switch(nu)
        xs = np.concatenate([
            np.exp(rng.uniform(math.log(1e-4), math.log(1.5 * switch), 300)),
            2.0 ** np.arange(-13, math.floor(math.log2(1.5 * switch)) + 1),
            switch * np.array([1 - 1e-12, 1.0, 1 + 1e-12])])
        rng.shuffle(xs)
        for f, ref in ((bessel_i, sp.iv), (bessel_k, sp.kv)):
            batch = f(nu, xs)
            alone = np.array([f(nu, x) for x in xs])
            np.testing.assert_array_equal(batch, alone)
            np.testing.assert_allclose(batch, ref(nu, xs), rtol=2e-12)

    @pytest.mark.parametrize("nu", [0.0, 1.5, -1.3])
    def test_infinity_and_nan(self, nu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_i(nu, math.inf) == math.inf
            assert bessel_k(nu, math.inf) == 0.0
            assert math.isnan(bessel_i(nu, math.nan))
            assert math.isnan(bessel_k(nu, math.nan))
            # a NaN inside a batch stays NaN and leaves the other points alone
            xs = np.array([1e-3, math.nan, 0.7, 3.0, 200.0])
            finite = [0, 2, 3, 4]
            for f in (bessel_i, bessel_k):
                out = f(nu, xs)
                assert math.isnan(out[1])
                np.testing.assert_array_equal(out[finite], [f(nu, x) for x in xs[finite]])

    @pytest.mark.parametrize("x", [1e-310, 5e-324])
    def test_k_subnormal_arguments(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_k(0.0, x) == pytest.approx(float(mp.besselk(0, x)), rel=1e-12)
            assert bessel_k(0.5, x) == pytest.approx(
                math.sqrt(math.pi / 2) / math.sqrt(x) * math.exp(-x), rel=1e-12)
            assert bessel_k(1.5, x) == math.inf  # K_1.5 itself is beyond the float range

    def test_array_shapes(self):
        assert bessel_i(1.0, []).shape == bessel_k(1.0, []).shape == (0,)
        xs = np.array([[0.5, 2.0, 90.0], [1e-3, 7.0, 300.0]])
        for f in (bessel_i, bessel_k):
            out = f(1.0, xs)
            assert out.shape == xs.shape
            np.testing.assert_array_equal(out.ravel(), f(1.0, xs.ravel()))

    @pytest.mark.parametrize("d", [0.0, 0.5, 1.5, 2.7])
    def test_array_orders_match_scalar_calls(self, d):
        # orders d..d+2 in one call, arguments on both sides of octave edges and of each
        # order's switch 30 (1 + nu), NaN and inf: in runs of one order, shuffled, broadcast
        orders = d + np.arange(3.0)
        edges, switches = 2.0 ** np.arange(-6, 8), [specfun._bessel_switch(nu) for nu in orders]
        row = np.concatenate([np.outer([1 - 1e-12, 1.0, 1 + 1e-12], np.r_[edges, switches]).ravel(),
                              [math.nan, math.inf, 1e-3, 0.7, 5.5]])
        nus, xs = np.repeat(orders, row.size), np.tile(row, 3)
        shuffled = np.random.default_rng(7).permutation(xs.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (bessel_i, bessel_k):
                alone = np.array([f(nu, x) for nu, x in zip(nus, xs)])
                np.testing.assert_array_equal(f(nus, xs), alone)
                np.testing.assert_array_equal(f(nus[shuffled], xs[shuffled]), alone[shuffled])
                np.testing.assert_array_equal(f(orders[:, None], row), alone.reshape(3, -1))
                assert f(orders, 2.0).shape == (3,) and isinstance(f(orders[0], 2.0), float)

    def test_array_orders_match_mpmath(self):
        nus = np.array([0.0, 1.0, 2.0, 0.5, 1.5, 2.5, 2.7, 3.7, 4.7])
        xs = np.array([1e-3, 0.3, 2.0, 7.7, 31.0, 60.0, 90.0, 150.0, 190.0])
        with mp.workdps(30):
            ref_i = [float(mp.besseli(nu, x)) for nu, x in zip(nus, xs)]
            ref_k = [float(mp.besselk(nu, x)) for nu, x in zip(nus, xs)]
        np.testing.assert_allclose(bessel_i(nus, xs), ref_i, rtol=1e-12)
        np.testing.assert_allclose(bessel_k(nus, xs), ref_k, rtol=1e-12)

    def test_array_order_domain(self):
        with pytest.raises(ValueError, match="negative order"):
            bessel_i([1.0, -0.5], 0.0)
        assert bessel_i([-2.0, 2.0], 0.0).tolist() == [0.0, 0.0]  # -2 folds to 2
        with pytest.raises(ValueError):
            bessel_k([0.5, 1.5], [1.0, -1.0])

    def test_seeded_sweep_against_mpmath(self):
        # 48 orders: 40 log-uniform in [0.05, 250] and 0, 1, 2, 10, 60, -0.5, -1.3, -7.7; each
        # at 25 log-uniform x in [1e-12, min(700, 30 (1 + |nu|))].  Against 40 digits, every
        # value inside the doubles is finite and nonzero, I within 2e-13 and K within 1e-13.
        # The lead exp(-ln Gamma(nu + 1)) (x/2)^nu gave 0, inf or NaN at 18 I values
        rng = np.random.default_rng(4)
        orders = np.r_[np.exp(rng.uniform(math.log(0.05), math.log(250.0), 40)),
                       0.0, 1.0, 2.0, 10.0, 60.0, -0.5, -1.3, -7.7]
        xs = np.concatenate([np.exp(rng.uniform(math.log(1e-12), math.log(min(
            700.0, float(specfun._bessel_switch(nu)))), 25)) for nu in orders])
        nus = np.repeat(orders, 25)
        for f, ref_f, rtol in ((bessel_i, mp.besseli, 2e-13), (bessel_k, mp.besselk, 1e-13)):
            with mp.workdps(40):
                ref = np.array([float(ref_f(nu, x)) for nu, x in zip(nus, xs)])
            inside = (np.abs(ref) >= np.finfo(float).tiny) & (np.abs(ref) <= np.finfo(float).max)
            got = f(nus, xs)[inside]
            assert np.isfinite(got).all() and (got != 0.0).all()
            np.testing.assert_allclose(got, ref[inside], rtol=rtol, atol=0)

    @pytest.mark.parametrize("nu, x, ref", [(200.0, 30.0, 6.39994862872884e-140),
                                            (150.0, 230.6, 1.0210490790527e78)])
    def test_large_order_series_lead(self, nu, x, ref):
        # (x/2)^nu and 1 / Gamma(nu + 1) leave the doubles apart: these read 0.0 and inf
        assert bessel_i(nu, x) == pytest.approx(ref, rel=2e-13, abs=0.0)

    def test_large_order_series_runs_past_the_peak(self):
        # 400 seeded (nu, x): nu log-uniform in [20, 400], x uniform in [1, min(709,
        # 30 (1 + nu))].  The series' terms peak near k = x/2, and a cap of 399 terms cut
        # them short: 22 of the 397 values inside the doubles were more than 1e-13 off 40-digit
        # mpmath, the worst 4.0e-7 at nu = 36.5, x = 700.7.  The octave's own 1e-18 test
        # ends the series: within 9.4e-14, with at most 654 terms
        rng = np.random.default_rng(1)
        draws = []
        for _ in range(400):
            nu = math.exp(rng.uniform(math.log(20.0), math.log(400.0)))
            draws.append((nu, rng.uniform(1.0, min(709.0, float(specfun._bessel_switch(nu))))))
        nus, xs = np.array(draws).T
        with mp.workdps(40):
            ref = np.array([float(mp.besseli(nu, x)) for nu, x in draws])
        inside = (ref >= np.finfo(float).tiny) & (ref <= np.finfo(float).max)
        np.testing.assert_allclose(bessel_i(nus, xs)[inside], ref[inside], rtol=2e-13, atol=0)
        assert bessel_i(60.0, 700.0) == pytest.approx(float(mp.besseli(60, 700)), rel=2e-13)
        # I_2000 on [1100, 1700] takes rows of about 600 terms, summed in passes of fewer than
        # 256 points: each value has the bits of its scalar call
        xs = np.linspace(1100.0, 1700.0, 256)
        assert specfun._i_ratios(2000.0, 10)[2].size > 400
        np.testing.assert_array_equal(bessel_i(2000.0, xs), [bessel_i(2000.0, x) for x in xs])
        with mp.workdps(40):
            ref = [float(mp.besseli(2000, x)) for x in xs[::51]]
        np.testing.assert_allclose(bessel_i(2000.0, xs[::51]), ref, rtol=2e-13, atol=0)


EXP = MeijerGParams([], [0.0])


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
        params = MeijerGParams([], [nu / 2, -nu / 2])
        for x in (0.7, 1.7, 4.0):
            assert meijer_g(params, x * x / 4, 1e-11) == pytest.approx(
                2 * sp.kv(nu, x), rel=1e-9)

    def test_series_contour_overlap(self):
        params = MeijerGParams([], [0.35, 0.0, -0.2, 0.6])
        zs = np.array([0.01, 0.02, 0.04, 0.08])
        vs = _meijer_g_series(params, np.log(zs))
        vc = _meijer_g_contour_batch(params, zs, 1e-12)
        np.testing.assert_allclose(vs, vc, rtol=1e-9, atol=1e-12)

    def test_double_pole_series(self):
        zs = np.array([1e-6, 1e-3, 0.03])
        v = _meijer_g_series(MeijerGParams([], [0.0, 0.0]), np.log(zs))
        np.testing.assert_allclose(v, 2 * sp.kv(0, 2 * np.sqrt(zs)), rtol=1e-12)
        v = _meijer_g_series(MeijerGParams([], [0.5, -0.5]), np.log(zs))
        np.testing.assert_allclose(v, 2 * sp.kv(1, 2 * np.sqrt(zs)), rtol=1e-11)
        # pole orders 1 to 4: the b-row's largest integer-spaced group sets it
        for b in ([0.3], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 1.0, 0.5, 1.0]):
            ref = [float(mp.meijerg([[], []], [b, []], z)) for z in zs]
            v = _meijer_g_series(MeijerGParams([], b), np.log(zs))
            np.testing.assert_allclose(v, ref, rtol=1e-12)

    def test_denominator_collision_series(self):
        # upper parameters an integer above a multiple-zero ladder lower the
        # net pole order (2 to 1, 4 to 3, 5 to 3); 0.9 leaves order 3 alone
        zs = np.array([1e-6, 1e-3, 0.02])
        for a, b in (([1.0], [0.0, 0.0, 0.3]), ([0.9], [0.0, 0.0, 0.0, 0.25]),
                     ([1.0], [0.0, 0.0, 0.0, 0.0, 0.3]),
                     ([2.0, 1.0], [0.0, 0.0, 0.0, 1.0, 0.0, 0.5])):
            ref = [float(mp.meijerg([[], a], [b, []], z)) for z in zs]
            np.testing.assert_allclose(_meijer_g_series(MeijerGParams(a, b), np.log(zs)),
                                       ref, rtol=1e-10)

    @pytest.mark.parametrize("a, b, limit", [
        ([], [1.0, 1.0], (1.0, -math.inf)),              # 2z K_0(2 sqrt z): z ln z -> 0
        ([], [2.0, 2.5, 2.0, 3.0], (1.0, -math.inf)),
        ([], [0.0, 0.0], (1.0, math.inf)),               # -ln z
        ([], [0.0, 0.0, 0.0], (1.0, math.inf)),          # (ln z)^2 / 2
        ([], [-0.5, 0.5], (1.0, math.inf)),              # z^-1/2
        ([], [0.0, 0.5], (1.0, math.lgamma(0.5))),
        ([-0.5], [0.0, 0.3], (-1.0, math.lgamma(0.3) - math.log(2 * math.sqrt(math.pi)))),
        ([], [0.0, 250.0], (1.0, math.lgamma(250.0))),  # Gamma(250) is past the doubles
    ])
    def test_series_limit(self, a, b, limit):
        sign, log_g = _meijer_g_limit(MeijerGParams(a, b))
        assert sign == limit[0]
        assert log_g == pytest.approx(limit[1], rel=1e-14)

    @staticmethod
    def draw_density_params(data, counts):
        """Reduced rows of a spec with (m, n, N) drawn from ``counts``; integer
        and half-integer shapes give poles of order up to 4 and denominator
        collisions."""
        shape = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]), st.floats(0.3, 3.0))
        m, n, N = data.draw(counts)
        spec = ProductSpec(beta_pairs=[data.draw(st.tuples(shape, shape)) for _ in range(m)],
                           gamma_shapes=[data.draw(shape) for _ in range(n)],
                           lam=1.0 if n else None, normal_count=N, sigma=1.0 if N else None)
        return dist.density(spec).reduced

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data())
    def test_series_domain_against_mpmath(self, data):
        # reduced rows of specs with m, n, N <= 3
        counts = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda c: sum(c) > 0)
        params = self.draw_density_params(data, counts)
        z = math.exp(data.draw(st.floats(math.log(1e-10), math.log(0.04))))
        deriv = data.draw(st.sampled_from([0, 1, 2]))
        try:
            value = meijer_g_batch(params, [z], deriv=deriv)[0]
        except NumericalError:
            # allowed only where two b-parameters nearly, but not exactly,
            # differ by an integer: there the residues cancel
            gaps = [abs(d - round(d)) for d in np.subtract.outer(params.b, params.b).ravel()]
            assert any(1e-9 < gap < 1e-2 for gap in gaps)
            return
        g = lambda v: mp.meijerg([[], list(params.a)], [list(params.b), []], v)
        with mp.workdps(20):
            ref = float(mp.diff(g, z, deriv))
        assert value == pytest.approx(ref, rel=1e-9)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_contour_domain_against_mpmath(self, data):
        # whole batches in the contour region (q > p): every value within
        # 1e-9 relative of mpmath, or the batch raises a typed error
        counts = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda c: c[1] + c[2] > 0)
        params = self.draw_density_params(data, counts)
        lnz = st.floats(math.log(0.04), math.log(1e2))
        zs = np.exp(data.draw(st.lists(lnz, min_size=1, max_size=12)))
        try:
            values = meijer_g_batch(params, zs)
        except NumericalError:
            return
        with mp.workdps(20):
            ref = [float(mp.meijerg([[], list(params.a)], [list(params.b), []], z)) for z in zs]
        np.testing.assert_allclose(values, ref, rtol=1e-9, atol=0)

    @staticmethod
    def generic_contour_rows(count: int, seed: int) -> list:
        """(params, z): p <= 2, sigma = q - p from 2 to 6, no two parameters within 0.05 of
        an integer spacing, and z^{1/sigma} log-uniform on [0.6, 144], so the abscissa
        cells run from c = 1.5625 to about 150.  Rows whose G is below e^{-400} by its
        leading asymptote are drawn again: mpmath's series then cancel by more than 170
        digits and take seconds."""
        rng, rows = np.random.default_rng(seed), []
        while len(rows) < count:
            p, sigma = int(rng.integers(0, 3)), int(rng.integers(2, 7))
            params = MeijerGParams(rng.uniform(0.5, 4.0, p), rng.uniform(0.0, 3.0, p + sigma))
            gaps = np.subtract.outer(params.a + params.b, params.a + params.b)[
                np.triu_indices(len(params.a + params.b), 1)]
            z = math.exp(sigma * rng.uniform(math.log(0.6), math.log(144.0)))
            if np.all(np.abs(gaps - np.round(gaps)) >= 0.05) and _log_asymptotic_g(params, z) > -400:
                rows.append((params, z))
        return rows

    def test_high_abscissa_cells_against_mpmath(self):
        # the first tested trapezoid level comes from the integrand's pole-free strip, so
        # high cells test fewer levels; every value stays within 1e-11 of 30-digit mpmath
        rows = self.generic_contour_rows(120, 37)
        roots = [z ** (1.0 / (params.q - params.p)) for params, z in rows]
        assert min(roots) < 1.0 and max(roots) > 100.0
        with mp.workdps(30):
            ref = [float(mp.meijerg([[], list(params.a)], [list(params.b), []], z, maxterms=10**5))
                   for params, z in rows]
        for tol in (1e-11, 1e-12):
            values = [meijer_g_batch(params, [z], tol)[0] for params, z in rows]
            np.testing.assert_allclose(values, ref, rtol=1e-11, atol=0)

    def test_beta_kernel_q_equals_p(self):
        a, b = 1.3, 0.7
        params = MeijerGParams([a + b - 1], [a - 1])
        for x in (0.1, 0.4, 0.8):
            ref = x ** (a - 1) * (1 - x) ** (b - 1) / math.gamma(b)
            assert meijer_g(params, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("params, w_min", [
        (dist.density(ProductSpec(beta_pairs=((1.3, 0.7), (0.6, 1.1)))).reduced, 1e-6),
        # mpmath takes 5 s for its 3F2 sums from z = 0.999 on
        (dist.density(ProductSpec(beta_pairs=((1.3, 0.6), (0.8, 1.15), (2.2, 0.9)))).reduced, 1e-2),
        (MeijerGParams([3.0, 2.0], [1.0, 0.0]), 1e-6),  # integer spacings, psi = 4
    ])
    def test_norlund_against_mpmath(self, params, w_min):
        # q = p rows from 0.5 to 1 - w_min take Norlund's expansion in 1 - z
        zs = np.array([0.5, 0.8, 0.95, 1.0 - w_min])
        ref = [float(mp.meijerg([[], list(params.a)], [list(params.b), []], z)) for z in zs]
        np.testing.assert_allclose(meijer_g_batch(params, zs, 1e-12), ref, rtol=1e-12, atol=0)
        for deriv in (1, 2):  # (d/dz)^d G = (-z)^-d G(z | a, 0; b, d)
            ref = [float(mp.meijerg([[], [*params.a, 0]], [[*params.b, deriv], []], z) / (-z) ** deriv)
                   for z in zs[:3]]
            np.testing.assert_allclose(meijer_g_batch(params, zs[:3], 1e-12, deriv), ref,
                                       rtol=1e-9, atol=0)

    def test_norlund_takes_cancelled_series_points(self):
        # betas (30, 40) (50, 60): psi = 100, and the residues cancel beyond 1e6 from
        # z ~ 0.05 on; Norlund's expansion takes those points where 96 terms converge
        params = dist.density(ProductSpec(beta_pairs=((30.0, 40.0), (50.0, 60.0)))).reduced
        assert np.isnan(_meijer_g_series(params, np.log([0.3]))[0])
        with mp.workdps(30):
            ref = float(mp.meijerg([[], list(params.a)], [list(params.b), []], 0.3))
        assert meijer_g_batch(params, [0.3], 1e-11)[0] == pytest.approx(ref, rel=1e-10)
        with pytest.raises(NumericalError, match=r"neither residue nor Norlund series converges: "
                                                 r"a = \(69.0, 109.0\), .* z in \[0.05, 0.05\]"):
            meijer_g_batch(params, [0.05, 0.3, 0.6], 1e-11)

    def test_against_mpmath_high_order(self):
        params = MeijerGParams([1.0, 0.65],
                               [0.65, 0.15, 0.7, 0.2, 0.0])
        for z in (0.08, 0.5, 2.0, 9.0):
            ref = float(mp.meijerg([[], list(params.a)], [list(params.b), []], z))
            assert meijer_g(params, z, 1e-11) == pytest.approx(ref, rel=1e-9)

    def test_derivatives(self):
        for z in (0.02, 0.5, 2.0):
            assert meijer_g(EXP, z, 1e-12, deriv=1) == pytest.approx(-math.exp(-z), rel=1e-9)
            assert meijer_g(EXP, z, 1e-12, deriv=2) == pytest.approx(math.exp(-z), rel=1e-9)

    def test_batch_derivatives_against_mpmath(self):
        params = MeijerGParams([1.0], [0.65, 0.15, 0.0])
        zs = np.array([0.02, 0.3, 0.9, 2.5, 7.0])
        g = lambda z: mp.meijerg([[], list(params.a)], [list(params.b), []], z)
        for deriv in (1, 2):
            got = meijer_g_batch(params, zs, 1e-11, deriv)
            ref = [float(mp.diff(g, float(z), deriv)) for z in zs]
            np.testing.assert_allclose(got, ref, rtol=1e-9)

    def test_batch_matches_scalar(self):
        params = MeijerGParams([], [0.7, 0.2, 0.0])
        zs = np.geomspace(1e-5, 50.0, 40)
        batch = meijer_g_batch(params, zs, 1e-11)
        single = np.array([meijer_g(params, float(z), 1e-11) for z in zs])
        np.testing.assert_allclose(batch, single, rtol=1e-9, atol=1e-300)

    def test_batch_keeps_relative_accuracy(self):
        # each argument's abscissa sits next to its own saddle: an abscissa
        # shared at the batch's largest saddle lost 1.5e-3 at z = 30.7
        zs = np.array([30.7, 47.6, 80.0])
        np.testing.assert_allclose(meijer_g_batch(EXP, zs), np.exp(-zs), rtol=1e-12)

    def test_invalid_argument(self):
        with pytest.raises(ValueError):
            meijer_g(EXP, -1.0)

    def test_nan_gives_nan(self):
        # q > p took the contour and raised "contour tail does not decay ... c = nan"
        for params in (MeijerGParams([1.0], [0.65, 0.15, 0.0]),
                       MeijerGParams([1.5], [0.5])):
            out = meijer_g_batch(params, [math.nan, 0.02, 0.5])
            assert math.isnan(out[0])
            np.testing.assert_array_equal(out[1:], meijer_g_batch(params, [0.02, 0.5]))

    def test_past_the_float_range_raises(self):
        # G(1 | ; 0, 199) ~ Gamma(199) = e^852 gave inf with RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"not a finite double.*z in \[1, 1\]"):
                meijer_g_batch(MeijerGParams([], [0.0, 199.0]), [1.0])

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            meijer_g_batch(EXP, [1.0], tol)

    @pytest.mark.parametrize("deriv", [-1, 0.5, 1.0, "1", None])
    def test_deriv_must_be_a_non_negative_integer(self, deriv):
        # -1 gave G(z | a, 0; b, -1) times -z, which is no derivative, with no error
        with pytest.raises(ValueError, match="deriv must be a non-negative integer"):
            meijer_g_batch(EXP, [1.0], 1e-10, deriv)
        with pytest.raises(ValueError, match="deriv must be a non-negative integer"):
            meijer_g(EXP, 1.0, 1e-10, deriv)
        # an integer of numpy's own type is an order like any other
        assert meijer_g(EXP, 1.0, 1e-10, np.int64(1)) == meijer_g(EXP, 1.0, 1e-10, 1)

    def test_underflowing_arguments_give_zero(self):
        # a leading asymptote below e^-760 gives 0 without the contour, z = inf included;
        # just inside the range the contour still runs
        params = MeijerGParams([0.95, 0.45], [0.65, 0.15, 0.7, 0.2, 0.0])
        assert meijer_g(params, 1e7, 1e-11) == pytest.approx(
            float(mp.meijerg([[], list(params.a)], [list(params.b), []], 1e7)), rel=1e-8)
        np.testing.assert_array_equal(meijer_g_batch(params, [1e9, 1e300, math.inf]), 0.0)
        assert np.exp(_log_asymptotic_g(params, math.inf)) == 0.0


class TestCaches:
    @pytest.fixture(autouse=True)
    def cold_caches(self):
        specfun._ContourGrid.cache_clear()
        specfun._residue_table.cache_clear()
        specfun._k_nodes.cache_clear()
        specfun._i_ratios.cache_clear()

    @pytest.fixture
    def lg_points(self, monkeypatch):
        """Sizes of the log-gamma calls made."""
        points = []
        real = specfun.log_gamma_complex
        monkeypatch.setattr(specfun, "log_gamma_complex",
                            lambda z: points.append(np.size(z)) or real(z))
        return points

    def test_contour_grid_reused(self, lg_points):
        zs = [1.0, 1.3]
        first = meijer_g_batch(EXP, zs)
        assert sum(lg_points) > 0
        lg_points.clear()
        np.testing.assert_array_equal(meijer_g_batch(EXP, zs), first)
        assert sum(lg_points) == 0
        # an argument of the same abscissa cell that needs one more halving
        # (a series point handed over when residues cancel) evaluates only
        # the odd nodes of the new level: 12 * 2^level nodes for one factor
        grid = specfun._ContourGrid(EXP, 1.5625, 1e-10)
        built = len(grid.levels)
        value = _meijer_g_contour_batch(EXP, [1.5e-4], 1e-10)
        assert len(grid.levels) == built + 1
        assert sum(lg_points) == 12 * 2**built
        assert value[0] == pytest.approx(math.exp(-1.5e-4), abs=1e-10)  # the default tol

    def test_residue_table_reused(self):
        # one table per parameter set, cut at the series' top argument 0.04: every series
        # point of every later call, direct or through meijer_g_batch, reads it
        params = MeijerGParams([0.9], [0.0, 0.0, 0.0, 0.25])
        small = _meijer_g_series(params, np.log([1e-6, 1e-3]))
        np.testing.assert_array_equal(_meijer_g_series(params, np.log([1e-6, 1e-3])), small)
        _meijer_g_series(params, np.log([0.02, 0.04]))
        meijer_g_batch(params, [1e-5, 0.03, 0.5])
        assert specfun._residue_table.cache_info().misses == 1
        _meijer_g_series(MeijerGParams([], [0.0, 0.0]), np.log([0.01]))
        assert specfun._residue_table.cache_info().misses == 2

    def test_contour_errors_name_the_evaluation(self):
        with pytest.raises(NumericalError, match=r"did not converge: a = \(\), b = \(0.0,\), "
                                                 r"c = 1.5625, z in \[1e-06, 1e-06\]"):
            _meijer_g_contour_batch(EXP, [1e-6], 1e-10)

    def test_contour_errors_name_only_the_failing_arguments(self):
        # 0.5 shares the failing argument's cell and 2.0 has its own; both converge
        with pytest.raises(NumericalError, match=r"c = 1.5625, z in \[1e-06, 1e-06\]"):
            _meijer_g_contour_batch(EXP, [1e-6, 0.5, 2.0], 1e-10)

    def test_contour_work_is_per_level(self, lg_points):
        # one log-gamma call for every grid's tail search, then one per level
        zs = np.array([1.0, 2.5, 4.0, 6.0, 9.0, 12.0])
        cs = {float(k / 4.0) ** 2 for k in np.ceil(4.0 * np.sqrt(np.maximum(1.5, zs)))}
        assert len(cs) >= 5
        np.testing.assert_allclose(meijer_g_batch(EXP, zs), np.exp(-zs), rtol=1e-12)
        deepest = max(len(specfun._ContourGrid(EXP, c, 1e-10).levels) for c in cs) - 1
        assert len(lg_points) <= deepest + 2

    @pytest.mark.parametrize("params,z,points", [
        (MeijerGParams([0.9], [0.0, 0.35, 1.3]), 4.5**2, 424),  # c = 5.0625
        (MeijerGParams([], [0.2, 0.7, 1.1]), 4.5**3, 318),  # c = 5.0625
        (EXP, 100.0, 778),  # c = 100
        (MeijerGParams([0.9], [0.0, 0.35, 1.3]), 9.0**2, 808),  # c = 9
    ])
    def test_contour_work_on_high_cells(self, lg_points, params, z, points):
        # the first tested level comes from the pole-free strip, not a step cap of 0.25:
        # a fixed cap built 808, 606 and 1546 points on the first three rows; at c = 9
        # the |ln z| term binds and the count is unchanged
        _meijer_g_contour_batch(params, [z], 1e-11)
        assert sum(lg_points) <= points

    def test_contour_levels_on_a_low_cell(self):
        # at c = 1.5625 with |ln z| = 8.8 the strip bound (0.19) is stricter than the
        # |ln z| term (0.245); the grid stops at the same level as with a 0.25 cap
        value = _meijer_g_contour_batch(EXP, [1.5e-4], 1e-10)
        assert len(specfun._ContourGrid(EXP, 1.5625, 1e-10).levels) == 6
        assert value[0] == pytest.approx(math.exp(-1.5e-4), abs=1e-10)

    def test_contour_values_do_not_depend_on_batch(self):
        # each argument stops at its own level, whatever its cellmates need
        rng = np.random.default_rng(29)
        rows = [dist.density(ProductSpec(beta_pairs=((1.3, 0.6),), gamma_shapes=(1.4,), lam=1.0,
                                         normal_count=1, sigma=1.0)).reduced,
                MeijerGParams([0.9], [0.0, 0.35, 1.3])]
        for params in rows:
            zs = np.exp(rng.uniform(math.log(0.05), math.log(60.0), 200))
            batch = meijer_g_batch(params, zs, 1e-11)
            alone = []
            for z in zs:
                specfun._ContourGrid.cache_clear()
                alone.append(meijer_g(params, z, 1e-11))
            np.testing.assert_array_equal(batch, alone)

    def test_series_and_norlund_values_do_not_depend_on_batch(self):
        # each argument is summed on its own: a matrix product per chunk of
        # arguments made 175 of the first row's 300 series values move with their batch
        rng = np.random.default_rng(31)
        three_beta = dist.density(ProductSpec(beta_pairs=((1.3, 0.6), (2.0, 1.5),
                                                          (0.8, 1.1)))).reduced
        for params, zs in [(MeijerGParams([0.9], [0.0, 0.35, 1.3]),
                            np.exp(rng.uniform(math.log(1e-6), math.log(0.04), 300))),
                           (three_beta, rng.uniform(0.0, 1.0, 300))]:
            batch = meijer_g_batch(params, zs, 1e-11)
            alone = [meijer_g(params, z, 1e-11) for z in zs]
            np.testing.assert_array_equal(batch, alone)

    @pytest.mark.parametrize("table, f", [("_k_nodes", bessel_k), ("_i_ratios", bessel_i)])
    def test_bessel_tables_reused_per_octave(self, table, f):
        cache = getattr(specfun, table)
        first = f(1.5, 2.5)
        assert cache.cache_info().misses == 1
        # new points in the octave [2, 4) build no table; 4.0 opens the next one
        f(1.5, [2.0, 3.9])
        assert cache.cache_info().misses == 1
        f(1.5, 4.0)
        assert cache.cache_info().misses == 2
        assert f(1.5, 2.5) == first

    @pytest.mark.parametrize("table, f", [("_k_nodes", bessel_k), ("_i_ratios", bessel_i)])
    def test_bessel_tables_bounded(self, table, f):
        cache = getattr(specfun, table)
        xs = 1.5 * 2.0 ** np.arange(-20, 5)  # 25 octaves, all below the switch
        for nu in np.linspace(0.1, 3.0, 12):  # 300 tables
            f(nu, xs)
        info = cache.cache_info()
        assert info.misses == 300
        assert info.currsize == info.maxsize == 256


class TestParameterIdentities:
    def test_shift_identity(self):
        params = MeijerGParams([], [0.3, -0.1])
        for c in (0.5, 1.0, -0.7, 3.0, -3.0):
            for z in (0.4, 2.0):
                lhs = z**c * meijer_g(params, z, 1e-11)
                rhs = meijer_g(shift_params(params, c), z, 1e-11)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_shift_zero_is_identity(self):
        params = MeijerGParams([0.4], [0.1, 0.9])
        assert shift_params(params, 0.0) == params

    def test_shifted_bessel_matches_weighted(self):
        nu = 0.8
        base = MeijerGParams([], [nu / 2, -nu / 2])
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
        params = MeijerGParams([0.8], [0.8, 0.0])
        red = reduce_params(params)
        assert (red.p, red.q) == (0, 1)
        for z in (0.3, 1.0, 3.0):
            assert meijer_g(params, z, 1e-11) == pytest.approx(
                meijer_g(red, z, 1e-11), abs=1e-9)

    def test_no_coincidence_unchanged(self):
        params = MeijerGParams([0.8], [0.3, 0.0])
        assert reduce_params(params) == params

    def test_double_reduction(self):
        params = MeijerGParams([0.8, 0.1], [0.8, 0.1, 0.0])
        red = reduce_params(params)
        assert (red.p, red.q) == (0, 1)
        for z in (0.5, 2.0):
            assert meijer_g(params, z, 1e-11) == pytest.approx(
                meijer_g(red, z, 1e-11), rel=1e-9)


class TestAsymptotics:
    def test_exponential_case_exact_shape(self):
        # sigma = 1: the asymptote is x^{b1} e^{-x} with unit prefactor
        for x in (5.0, 9.0):
            assert np.exp(_log_asymptotic_g(EXP, x)) == pytest.approx(math.exp(-x), rel=1e-13)

    def test_bessel_case(self):
        nu = 0.8
        params = MeijerGParams([], [nu / 2, -nu / 2])
        x = 30.0
        z = x * x / 4
        assert np.exp(_log_asymptotic_g(params, z)) == pytest.approx(2 * sp.kv(nu, x), rel=2e-2)

    def test_ratio_tends_to_one(self):
        params = MeijerGParams([], [0.35, -0.2])
        for z in (150.0, 400.0, 2000.0):
            ratio = meijer_g(params, z, 1e-11) / np.exp(_log_asymptotic_g(params, z))
            assert abs(ratio - 1) < 0.05

    def test_deep_tail_before_underflow(self):
        params = MeijerGParams([], [0.2, -0.2])
        z = (600.0) ** 2 / 4  # value around 1e-262
        v = meijer_g(params, z, 1e-10)
        assert v == pytest.approx(2 * sp.kv(0.4, 600.0), rel=1e-8)
        assert v == pytest.approx(np.exp(_log_asymptotic_g(params, z)), rel=1e-3)

    def test_requires_decay(self):
        with pytest.raises(ValueError):
            np.exp(_log_asymptotic_g(MeijerGParams([0.5], [0.5]), 10.0))

