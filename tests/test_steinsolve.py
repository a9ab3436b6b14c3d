"""Two-gamma Stein equation: solution, residuals, boundedness, derivative bounds."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as integrate
import scipy.special as sp
import scipy.stats as st

from steinprod import cli, dist, funcs, quad, specfun, steinsolve
from steinprod.steinops import ProductSpec

from oracles import (derivative_sups, homogeneous_residual, origin_series, stage_mean_zero_gap,
                     two_sided_reference, two_sided_sups)

CASES = [(1.0, 1.0, 1.0), (2.0, 0.5, 1.0), (1.5, 1.5, 2.0)]


def bounded_test_functions():
    return {
        "const": funcs.constant(1.0),
        "exp": funcs.exp_decay(1.0),
        "sin": funcs.Sinusoid(),
        "rational": funcs.BoundedRational(1.0),
        "gauss": funcs.gaussian_bump(1.0),
    }


class TestHomogeneousSystem:
    @pytest.mark.parametrize("r1,r2,lam", CASES)
    def test_fundamental_solutions_annihilated(self, r1, r2, lam):
        s, d = 0.5 * (r1 + r2), abs(r1 - r2)
        for x in (0.05, 0.5, 2.0, 10.0, 40.0):
            rk, ri = homogeneous_residual(r1, r2, lam, x)
            wk = funcs.BesselPowerComb([(1.0, -s, d, "k")], 2 * lam, 0.5).deriv(x, 0)
            wi = funcs.BesselPowerComb([(1.0, -s, d, "i")], 2 * lam, 0.5).deriv(x, 0)
            scale = (1.0 + x * lam**2)
            assert abs(rk) < 1e-8 * max(1.0, abs(wk) * scale)
            assert abs(ri) < 1e-8 * max(1.0, abs(wi) * scale)

    @pytest.mark.parametrize("r1,r2,lam", CASES + [
        (0.676, 0.824, 3.819), (2.9, 0.6, 0.7),
        # shapes that are not short decimals: terms merged at 12 decimals read 2e-12 and 3e-12
        (0.821425506922999, 1.7481946561002875, 3.819),
        (2.003745894058394, 0.5717225209298613, 2.8199503338087974)])
    def test_prefactor_derivatives_match_mpmath(self, r1, r2, lam):
        s, d = 0.5 * (r1 + r2), abs(r1 - r2)
        refs = {"i": lambda t: t ** -s * mp.besseli(d, 2 * lam * mp.sqrt(t)),
                "k": lambda t: t ** -s * mp.besselk(d, 2 * lam * mp.sqrt(t))}
        xs = (0.01, 0.1, 1.0, 7.0, 30.0)
        for m, kind in enumerate("ik"):
            comb = funcs.BesselPowerComb([(1.0, -s, d, kind)], 2 * lam, 0.5)
            for k in range(3):
                with mp.workdps(30):
                    ref = np.array([float(mp.diff(refs[kind], mp.mpf(x), k)) for x in xs])
                np.testing.assert_allclose(comb.deriv(np.array(xs), k), ref, rtol=1e-13, atol=0)
                # the solver's coefficient table gives the same derivatives
                z = 2 * lam * np.sqrt(xs)
                rows = [np.stack([specfun.bessel_i(d + j, z), specfun.bessel_k(d + j, z)])
                        for j in range(k + 1)]
                table = funcs.ladder_sum(steinsolve._ladder(s, d, lam), -s, 0.5, np.array(xs), rows)
                np.testing.assert_allclose(table[m, k], ref, rtol=1e-13, atol=0)


class TestSolveSteinPG:
    def test_constant_test_function_gives_zero(self):
        sol = steinsolve.solve_stein_pg(1.0, 1.0, 1.0, funcs.constant(5.0))
        for x in (0.1, 1.0, 10.0):
            assert abs(sol.value(x)) < 1e-10

    def test_expectation_matches_density_quadrature(self):
        # E h for h(x) = x is the product of the gamma means
        e_h = steinsolve.expect_pg(1.4, 2.2, 1.5, funcs.monomial(1))
        assert e_h == pytest.approx(1.4 * 2.2 / 1.5**2, rel=1e-9)

    def test_unbounded_test_function_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            steinsolve.solve_stein_pg(1.0, 1.0, 1.0, funcs.monomial(2))

    def test_representations_agree(self):
        sol = steinsolve.solve_stein_pg(1.0, 1.0, 1.0, funcs.exp_decay(1.0))
        for x in (0.1, 1.0, 10.0):
            a, b = sol.value(x), sol.value_tail_form(x)
            assert a == pytest.approx(b, abs=1e-8, rel=1e-8)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            steinsolve.solve_stein_pg(-1.0, 1.0, 1.0, funcs.constant(1.0))
        with pytest.raises(ValueError, match="deriv"):
            steinsolve.SteinSolution(1.0, 1.0, 1.0, object())

    def test_bounded_solution(self):
        sol = steinsolve.solve_stein_pg(2.0, 0.5, 1.0, funcs.Sinusoid())
        grid = np.geomspace(1e-3, 1e2, 120)
        vals = np.array([sol.value(float(x)) for x in grid])
        assert np.all(np.isfinite(vals))
        # grid refinement changes the supremum estimate by < 1%
        fine = np.geomspace(1e-3, 1e2, 240)
        vals_fine = np.array([sol.value(float(x)) for x in fine])
        sup, sup_fine = np.max(np.abs(vals)), np.max(np.abs(vals_fine))
        assert abs(sup - sup_fine) < 0.01 * sup_fine

    def test_expectation_meets_its_tolerance_for_oscillating_h(self):
        # mpmath at 25 digits, with breakpoints at sqrt(k pi)
        ref = 0.0058615133760466950397
        sol = steinsolve.solve_stein_pg(2.383, 2.738, 0.5, funcs.Sinusoid())
        assert abs(sol.e_h - ref) <= 1e-12
        # value_tail_form amplifies an e_h error by about 1.4e4 at x = 0.1
        for x in (0.1, 1.0, 10.0):
            assert abs(sol.value(x) - sol.value_tail_form(x)) <= 1e-8

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_value_and_tail_form_agree_on_random_parameters(self, seed):
        # ROADMAP item 1's gate: 60 draws at lam = 2; the anchor-interval
        # quadrature broke 1e-8 on 5, 8 and 3 of them (up to 3.9e-8)
        rng = np.random.default_rng(seed)
        makers = list(cli.BUILTIN_TEST_FUNCTIONS.values())
        for i in range(60):
            r1, r2 = rng.uniform(0.5, 3.0, 2)
            sol = steinsolve.solve_stein_pg(r1, r2, 2.0, makers[i % len(makers)]())
            for x in (0.1, 1.0, 10.0):
                assert abs(sol.value(x) - sol.value_tail_form(x)) <= 1e-8, (r1, r2, i, x)

    def test_values_match_mpmath(self):
        # mpmath at 30 digits: the J integrals in u with breakpoints at sqrt(k pi),
        # E sin(Y) = int_0^inf e^-g g / (1 + g^2) dg
        sol = steinsolve.solve_stein_pg(1.0, 1.0, 1.0, funcs.Sinusoid())
        for x, ref in ((0.01, -0.34173459179059773), (20.0, 0.015040962920789757),
                       (50.0, 0.006977492182869094)):
            assert abs(sol.value(x) - ref) <= 1e-9

    def test_equal_shapes_small_x_bound(self):
        r = 1.5
        h = funcs.Sinusoid()
        sol = steinsolve.solve_stein_pg(r, r, 1.0, h)
        h_tilde_sup = 1.0 + abs(sol.e_h)  # |sin| <= 1
        bound = 4.0 * h_tilde_sup / (2 * r) ** 2
        assert abs(sol.value(1e-3)) <= bound + 1e-6


# E h(Y) for h = const, exp, sin, rational, gauss on criterion 8's shape pairs, as the
# fixed tail of 125 + 10 (r1 + r2) e-folds past the peak computed it
EXPECT_PG_FIXED_TAIL = {
    (1.0, 1.0, 0.5): [1.0, 0.3352213612078483, 0.2815027209529543, 0.5577635479414002,
                      0.4223237926714801],
    (1.0, 1.0, 1.0): [1.0, 0.5963473623231941, 0.34337796155642697, 0.3319086736222222,
                      0.7260131687162548],
    (1.0, 1.0, 3.3): [1.0000000000000002, 0.9215825235336774, 0.08778195216314377,
                      0.07120863117975669, 0.986036860345439],
    (2.0, 0.5, 0.5): [0.9999999999999994, 0.38641034019126147, 0.2515372964477276,
                      0.5175862071038796, 0.46804993428432945],
    (2.0, 0.5, 1.0): [0.9999999999999994, 0.6210639219293437, 0.3065742132802233,
                      0.31188840533115114, 0.7362851577554322],
    (2.0, 0.5, 3.3): [0.9999999999999998, 0.9229279804806063, 0.08688063418119422,
                      0.06952052563497181, 0.984770179683514],
    (1.5, 1.5, 0.5): [1.0000000000000004, 0.12819084164067437, 0.15680856253257963,
                      0.7546100257709725, 0.16720733802035043],
    (1.5, 1.5, 1.0): [1.0000000000000002, 0.3579320986822611, 0.38389623850771326,
                      0.5246555514948861, 0.46960479825743245],
    (1.5, 1.5, 3.3): [1.0000000000000004, 0.8372219337842519, 0.18845847693262646,
                      0.14293411767692735, 0.9557469497705244],
}


class TestExpectation:
    @pytest.mark.parametrize("r1,r2,lam", list(EXPECT_PG_FIXED_TAIL))
    def test_mass_cut_keeps_the_fixed_tail_values(self, r1, r2, lam):
        for h, ref in zip(bounded_test_functions().values(), EXPECT_PG_FIXED_TAIL[r1, r2, lam]):
            assert abs(steinsolve.expect_pg(r1, r2, lam, h) - ref) <= 1e-14

    @pytest.mark.parametrize("r1,r2,lam", list(EXPECT_PG_FIXED_TAIL) + [(1.4, 2.45, 0.5)])
    def test_mass_beyond_the_cut_is_negligible(self, r1, r2, lam):
        tol = 1e-11  # expect_pg's default
        spec = ProductSpec(gamma_shapes=(r1, r2), lam=lam)
        cut = dist.density(spec).mass_cut(tol)
        assert 1.0 - dist.NumericCdf(spec)(cut) < 1e-3 * tol
        # the same mass without the cancellation in 1 - F: P(G1 G2 > lam^2 cut) for
        # unit-rate gammas, conditioning on G2
        t = lam * lam * cut

        def beyond(g):
            return sp.gammaincc(r1, t / g) * st.gamma.pdf(g, r2)

        mass = sum(integrate.quad(beyond, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0]
                   for a, b in ((0.0, math.sqrt(t)), (math.sqrt(t), 4.0 * math.sqrt(t) + 100.0)))
        assert mass < 1e-3 * tol


class TestBatchedSweep:
    @pytest.mark.parametrize("r1,r2,lam", CASES)
    def test_values_match_ascending_value_calls(self, r1, r2, lam):
        xs = np.geomspace(0.01, 50.0, 25)
        shuffled = np.random.default_rng(1).permutation(xs)
        h = funcs.Sinusoid()
        batch = steinsolve.solve_stein_pg(r1, r2, lam, h).values(shuffled)
        sweep_sol = steinsolve.solve_stein_pg(r1, r2, lam, h)
        sweep = np.array([sweep_sol.value(x) for x in xs])
        np.testing.assert_allclose(batch[np.argsort(shuffled)], sweep, rtol=1e-13, atol=0)
        # anchored points are looked up, not integrated again
        np.testing.assert_array_equal(sweep_sol.values(shuffled), batch)
        assert sweep_sol(xs[3]) == sweep[3]

    @pytest.mark.parametrize("r1,r2,lam,h,x_top", [
        (1.0, 1.0, 1.0, "sin", 50.0),
        # 2 lam = 6.6: octaves of u alone would split the Bessel octaves
        (0.6, 0.9, 3.3, "rational", 5.0),
    ])
    def test_value_bits_do_not_depend_on_earlier_calls(self, r1, r2, lam, h, x_top):
        for x_lo in (0.01, 1e-6):  # 1e-6: the origin series too
            xs = np.geomspace(x_lo, x_top, 13)

            def after(history):
                sol = steinsolve.solve_stein_pg(r1, r2, lam, cli.BUILTIN_TEST_FUNCTIONS[h]())
                history(sol)
                return [sol.value(x) for x in xs]

            ref = after(lambda sol: None)
            for history in (lambda sol: [sol.value(x) for x in xs],
                            lambda sol: [sol.value(x) for x in xs[::-1]],
                            lambda sol: sol.values(np.random.default_rng(2).permutation(xs)),
                            lambda sol: sol.value(8.0 * x_top),
                            lambda sol: [steinsolve.stein_residual(sol, x) for x in xs],
                            lambda sol: [sol.derivative(x, 2) for x in xs]):
                assert after(history) == ref, x_lo

    @pytest.mark.parametrize("r1,r2,lam", CASES + [(0.6, 0.9, 3.3)])
    def test_batched_residuals_match_single_points(self, r1, r2, lam):
        for x_lo in (0.01, 1e-6):  # 1e-6: the origin series too
            xs = np.random.default_rng(4).permutation(np.geomspace(x_lo, 50.0, 300))
            sol = steinsolve.solve_stein_pg(r1, r2, lam, funcs.Sinusoid())
            batch = steinsolve.stein_residuals(sol, xs)
            assert np.max(np.abs(batch)) < 1e-6
            single = [steinsolve.stein_residual(sol, x) for x in xs]
            np.testing.assert_array_equal(batch, single)
            np.testing.assert_array_equal(sol.values(xs), [sol.value(x) for x in xs])

    def test_points_inside_the_table_need_no_adaptive_call(self, monkeypatch):
        sol = steinsolve.solve_stein_pg(1.0, 1.0, 1.0, funcs.Sinusoid())
        sol.value(50.0)
        calls, adaptive = [], quad.adaptive
        monkeypatch.setattr(quad, "adaptive", lambda *a, **k: calls.append(a) or adaptive(*a, **k))
        for x in np.geomspace(0.01, 49.0, 39):
            sol.value(x)
        assert not calls

    def test_table_stays_small_for_oscillating_h(self):
        # up to x = 50000 sin(x) turns about 8000 times, in 4092 cells of 32 nodes; a cell is
        # resolved at the rounding of x = u^2 itself (eps x), since halving towards a fixed
        # 1e-12 of the largest coefficient, below that rounding, never ends
        sol = steinsolve.solve_stein_pg(1.0, 1.0, 1.0, funcs.Sinusoid())
        sol.value(5e4)
        assert sol._lo.size < 5_000

    def test_call_shapes(self):
        sol = steinsolve.solve_stein_pg(1.0, 1.0, 1.0, funcs.exp_decay(1.0))
        xs = np.array([0.5, 40.0, 2.0])
        vals = sol(xs)
        assert vals.shape == (3,)
        assert vals[1] == sol.value(40.0)
        assert isinstance(sol(2.0), float) and sol(2.0) == vals[2]
        # a scalar is shape () on both sides of the switch, with the one-point call's bits
        for x in (0.05, 0.0, np.float64(0.05), 2.0):
            one = np.array([float(x)])
            assert np.shape(sol.values(x)) == () and sol.values(x) == sol.values(one)[0]
            res = steinsolve.stein_residuals(sol, x)
            assert np.shape(res) == () and res == steinsolve.stein_residuals(sol, one)[0]

    def test_points_inside_built_cells_make_no_bessel_call(self, monkeypatch):
        sol = steinsolve.solve_stein_pg(2.0, 0.5, 1.0, funcs.exp_decay(1.0))
        sol.value(2.0)  # builds the cells past x
        x = 1.7
        calls = []
        for name in ("bessel_i", "bessel_k"):
            fn = getattr(specfun, name)
            monkeypatch.setattr(specfun, name, lambda nu, z, _fn=fn, _n=name:
                                calls.append((_n, np.size(z))) or _fn(nu, z))
        f = sol.value(x)
        res = steinsolve.stein_residual(sol, x)
        assert abs(res) < 1e-8
        assert calls == [] and f == sol.value(x)  # a Chebyshev sum of the cell's f, f', f''

    def test_value_is_the_f_the_residual_reads(self):
        # value and the residual took x^{-s} through two numpy paths, whose bits differed
        # at integer s: 13 of these 201 values were off the residual's f in the last bit
        sol = steinsolve.solve_stein_pg(1.0, 1.0, 1.0, funcs.Sinusoid())
        for x in np.linspace(30.0, 50.0, 201):
            f = sol.value(x)
            rows = sol._derivatives(np.array([x]), 2)
            assert f == rows[0, 0]
            rows[:] = 0.0  # a copy: the kept rows do not change
            assert sol.value(x) == f

    def test_bessel_rows_take_one_call_per_kind(self, monkeypatch):
        calls = []
        for name in ("bessel_i", "bessel_k"):
            fn = getattr(specfun, name)
            monkeypatch.setattr(specfun, name, lambda nu, z, _fn=fn, _n=name:
                                calls.append((_n, np.unique(nu).tolist())) or _fn(nu, z))
        comb = funcs.BesselPowerComb([(1.0, -1.25, 1.5, "k"), (0.3, -1.25, 1.5, "i")], 2.0, 0.5)
        xs = (0.03, 0.7, 4.0)
        got = comb.deriv(np.array(xs), 3)
        assert calls == [("bessel_i", [1.5, 2.5, 3.5, 4.5]), ("bessel_k", [1.5, 2.5, 3.5, 4.5])]

        def ref(t):
            z = 2 * mp.sqrt(t)
            return t ** mp.mpf(-1.25) * (mp.besselk(1.5, z) + mp.mpf(0.3) * mp.besseli(1.5, z))

        with mp.workdps(30):
            want = [float(mp.diff(ref, mp.mpf(x), 3)) for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        calls.clear()
        homogeneous_residual(2.0, 0.5, 1.0, 1.7)
        assert calls == [("bessel_i", [1.5, 2.5, 3.5]), ("bessel_k", [1.5, 2.5, 3.5])]


LAM = 2.0  # the domain's edge 2 lam sqrt(x) = 600 is at x = (300 / lam)^2 = 22500
DOMAIN_ROUTES = {
    "values": lambda sol, x: sol.values(np.array([1.0, x])),
    "value": lambda sol, x: sol.value(x),
    "call": lambda sol, x: sol(np.array([x, 1.0])),
    "f": lambda sol, x: sol.derivative(x, 0),
    "f'": lambda sol, x: sol.derivative(x, 1),
    "f''": lambda sol, x: sol.derivative(x, 2),
    "value_tail_form": lambda sol, x: sol.value_tail_form(x),
    "stein_residual": lambda sol, x: steinsolve.stein_residual(sol, x),
    "stein_residuals": lambda sol, x: steinsolve.stein_residuals(sol, [x, 1.0]),
    "bounds": lambda sol, x: steinsolve.estimate_derivative_bounds(
        sol.r1, sol.r2, sol.lam, sol.h, 2, grid=np.array([1.0, x])),
}


class TestDomain:
    """One domain, x >= 0 with 2 lam sqrt(x) <= 600, for every route."""

    @pytest.fixture(scope="class")
    def sol(self):
        return steinsolve.solve_stein_pg(1.4, 2.45, LAM, funcs.Sinusoid())

    @pytest.mark.parametrize("x", [1e6, (300.0 / LAM) ** 2 * (1 + 1e-12)])
    @pytest.mark.parametrize("route", sorted(DOMAIN_ROUTES))
    def test_points_past_the_cap_raise(self, sol, route, x):
        # on (1.4, 2.45, lam = 1) the asymptote -h_tilde / (lam^2 x) that values took past the
        # cap was 6.4e-6 relative off for exp and 0.44-4.2 times the true value for h = sin;
        # value_tail_form gave NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(specfun.NumericalError, match="x = "):
                DOMAIN_ROUTES[route](sol, x)

    def test_the_cap_itself_is_inside(self, sol):
        x = (300.0 / LAM) ** 2
        assert math.isfinite(sol.value_tail_form(x))
        assert np.isfinite(sol.values(np.array([1.0, x]))).all()

    def test_nan_passes_and_negative_x_is_rejected(self, sol):
        assert np.isnan(sol.values([np.nan])).all()
        assert np.isnan(steinsolve.stein_residuals(sol, [np.nan])).all()
        for route in ("values", "value_tail_form", "stein_residuals", "f''"):
            with pytest.raises(ValueError, match="nonnegative"):
                DOMAIN_ROUTES[route](sol, -1.0)


class TestResidual:
    @pytest.mark.parametrize("r1,r2,lam", CASES)
    def test_residual_small_for_exp(self, r1, r2, lam):
        sol = steinsolve.solve_stein_pg(r1, r2, lam, funcs.exp_decay(1.0))
        xs = np.geomspace(0.01, 50.0, 20)
        res = [steinsolve.stein_residual(sol, float(x)) for x in xs]
        assert np.max(np.abs(res)) < 1e-6

    @pytest.mark.parametrize("r1,r2,lam", CASES)
    @pytest.mark.parametrize("name", sorted(bounded_test_functions()))
    def test_origin_takes_the_bounded_limit(self, r1, r2, lam, name):
        # at x = 0 the equation reads r1 r2 f(0) = h(0) - E h; the Bessel form needs K_d(0).
        # f(1e-8) - f(0) is about 1e-8 f'(0): at most 6.6e-9 of max(|f(0)|, 1e-3) here (the
        # Bessel form read 1.4e-5 on (1, 1, 1) with h = exp)
        h = bounded_test_functions()[name]
        sol = steinsolve.solve_stein_pg(r1, r2, lam, h)
        h0 = float(h.deriv(0.0, 0)) - sol.e_h
        f0, f_near = sol.values(np.array([0.0, 1e-8]))
        assert f0 == pytest.approx(h0 / (r1 * r2), rel=1e-15, abs=1e-300)
        assert abs(f_near - f0) <= 1e-7 * max(abs(f0), 1e-3)
        res = steinsolve.stein_residuals(sol, np.array([0.0, 1.0, 0.0]))
        assert np.all(np.isfinite(res))
        assert abs(res[0]) <= 4 * np.finfo(float).eps * max(abs(h0), 1e-300)
        assert res[2] == res[0]
        assert res[1] == steinsolve.stein_residual(sol, 1.0)

    def test_residual_zero_for_constant(self):
        sol = steinsolve.solve_stein_pg(1.0, 2.0, 1.0, funcs.constant(1.0))
        for x in (0.05, 1.0, 20.0):
            assert abs(steinsolve.stein_residual(sol, x)) < 1e-10

    @pytest.mark.parametrize("perturb", [lambda j: 1.5 * j + 0.3,
                                         lambda j: j * np.array([[1.0], [1.0 + 1e-6]])])
    def test_residual_cannot_see_j_but_the_tail_form_gap_can(self, perturb):
        # the J-derivative terms cancel through the Wronskian, so wrong integrals J_I or
        # T_K in the cells leave the residual at rounding level; the tail form, which
        # integrates both at the point, takes them apart
        sol = steinsolve.solve_stein_pg(2.0, 0.5, 1.0, funcs.Sinusoid())
        level = sol._level

        def perturbed(lo, hi, last):
            ok, h, pair, integrals = level(lo, hi, last)
            return ok, h, pair, perturb(integrals)

        sol._level = perturbed
        for x in (0.05, 0.1, 0.7, 1.0, 3.0, 10.0, 20.0):
            assert abs(steinsolve.stein_residual(sol, x)) <= 1e-10
        gaps = [abs(sol.value(x) - sol.value_tail_form(x)) for x in (0.1, 1.0, 10.0)]
        assert max(gaps) > 1e-8


class TestTwoSidedReference:
    """The cells against the scaled two-sided form integrated at each point by scipy."""

    @pytest.mark.parametrize("r1,r2,lam,name,refs", [
        # the forward form read f(700) = 1.5e5 and f(1000) = 3.0e9 with exit 0
        (1.0, 1.0, 1.0, "exp", {100.0: 5.963473592019336e-03, 400.0: 1.490868405807985e-03,
                                700.0: 8.519248033188487e-04, 1000.0: 5.963473623231941e-04}),
        # the forward form was 3.4e-6 and 0.25 off, the tail form's panels 0.47 and 0.18
        (1.5, 1.5, 2.0, "sin", {50.0: 1.925791127367697e-03, 100.0: 9.628425297792012e-04}),
    ])
    def test_far_points_and_the_tail_form(self, r1, r2, lam, name, refs):
        sol = steinsolve.solve_stein_pg(r1, r2, lam, cli.BUILTIN_TEST_FUNCTIONS[name]())
        xs = np.array(list(refs))
        want = np.array(list(refs.values()))
        np.testing.assert_allclose(sol.values(xs), want, rtol=1e-8, atol=0)
        np.testing.assert_allclose([sol.value_tail_form(x) for x in xs], want, rtol=1e-8, atol=0)
        for x, ref in refs.items():
            assert two_sided_reference(r1, r2, lam, sol.h, sol.e_h, x)[0] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("r1,r2,name", [(1.0, 1.0, "sin"), (1.4, 2.45, "exp")])
    def test_points_just_past_the_switch_at_small_lam(self, r1, r2, name):
        # lam = 0.05: the switch is x = 0.1, 2 lam sqrt(x) = 0.032, inside the octave cells
        # near 0; a first cell reaching 2 lam sqrt(x) = 1/16 read f' 19 and f'' 9e9 times off
        sol = steinsolve.solve_stein_pg(r1, r2, 0.05, cli.BUILTIN_TEST_FUNCTIONS[name]())
        xs = np.array([0.12, 0.2, 0.38])
        ref = np.array([two_sided_reference(r1, r2, 0.05, sol.h, sol.e_h, x) for x in xs]).T
        np.testing.assert_allclose(sol._derivatives(xs, 2), ref, rtol=1e-8, atol=0)

    def test_seeded_draws_up_to_the_domain_edge(self):
        # 60 draws, h cycling through the five built-ins, at the points 2 lam sqrt(x) = 0.5
        # (where not below the series switch), 3, 20, 120 and 600, the domain's edge
        rng = np.random.default_rng(47)
        makers = list(cli.BUILTIN_TEST_FUNCTIONS.values())
        for i in range(60):
            r1, r2 = rng.uniform(0.5, 3.0, 2)
            lam = rng.uniform(0.5, 4.0)
            sol = steinsolve.solve_stein_pg(r1, r2, lam, makers[i % len(makers)]())
            xs = (np.array([0.5, 3.0, 20.0, 120.0, 600.0]) / (2.0 * lam)) ** 2
            xs = xs[xs > min(0.1, 0.25 / lam**2)]
            got = sol.values(xs)
            for x, f in zip(xs, got):
                ref = two_sided_reference(r1, r2, lam, sol.h, sol.e_h, x)[0]
                if i % len(makers) == 0:  # h constant: f is 0
                    assert abs(f) <= 1e-12, (i, x)
                else:
                    assert abs(f - ref) <= 1e-8 * abs(ref), (r1, r2, lam, i, x, f, ref)


class TestDerivativeBounds:
    # Pins re-based on one solution's derivatives (they moved by up to 1.8e-5 from the
    # interpolated stage recursion); each sup agrees with Richardson differences of
    # ``values`` (f') or ``derivative(x, 1)`` (f'') at its argmax grid point.
    def test_pinned_sine_estimates(self):
        sups = steinsolve.estimate_derivative_bounds(
            1.0, 1.0, 1.0, funcs.Sinusoid(), 2,
            grid=np.geomspace(1e-3, 1e2, 50))
        assert len(sups) == 3
        np.testing.assert_allclose(sups, [0.34321378781659223, 0.17574508536276479,
                                          0.06886407468430032], rtol=1e-6)

    @pytest.mark.parametrize("k,h,lam,expected", [
        (0, funcs.gaussian_bump(1.0), 2.0, [0.09738339245469389]),
        (1, funcs.BoundedRational(1.0), 1.0, [0.18142182045074365, 0.09756386384607976]),
        (2, funcs.exp_decay(1.0), 1.0,
         [0.22042365874048728, 0.09350359640871153, 0.053314474213209714]),
    ])
    def test_pinned_estimates(self, k, h, lam, expected):
        sups = steinsolve.estimate_derivative_bounds(
            1.4, 2.45, lam, h, k, grid=np.geomspace(1e-2, 50.0, 20))
        np.testing.assert_allclose(sups, expected, rtol=1e-6)

    @pytest.mark.parametrize("r1,r2,lam", [(1.0, 1.0, 1.0), (1.4, 2.45, 1.0), (0.55, 2.9, 0.7)])
    @pytest.mark.parametrize("name", ["exp", "sin"])
    def test_default_grid_matches_the_oracle(self, r1, r2, lam, name):
        # the analytic f'' read 0.5% high near the origin on (0.55, 2.9, 0.7) with h = exp,
        # and the stage recursion was off by up to 1.3e-5
        h = cli.BUILTIN_TEST_FUNCTIONS[name]()
        grid = np.geomspace(1e-3, 1e2, 400)
        ref, series_gap = derivative_sups(r1, r2, lam, h, grid)
        sups = steinsolve.estimate_derivative_bounds(r1, r2, lam, h, 2, grid)
        np.testing.assert_allclose(sups, ref, rtol=1e-9, atol=0)
        assert series_gap <= 5e-13  # values read the same series

    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0, 4.0])
    def test_default_grid_matches_the_two_sided_scan(self, lam):
        # the forward form read sup|f| = 3.0e7 at lam = 3 and 4.6e15 at lam = 4 (0.40 and
        # 0.34 at lam = 1 and 2): the default grid ends at x = 100, 2 lam sqrt(x) = 80
        h = funcs.exp_decay(1.0)
        ref = two_sided_sups(1.0, 1.0, lam, h, np.geomspace(1e-3, 1e2, 400))
        sups = steinsolve.estimate_derivative_bounds(1.0, 1.0, lam, h, 2)
        np.testing.assert_allclose(sups, ref, rtol=1e-8, atol=0)

    def test_origin_takes_the_recurrence_values(self):
        # (r1 + j)(r2 + j) f^{(j)}(0) = h^{(j)}(0) - [j = 0] E h + j lam^2 f^{(j-1)}(0)
        r1, r2, lam, h = 1.4, 2.45, 1.0, funcs.exp_decay(1.0)
        sups = steinsolve.estimate_derivative_bounds(r1, r2, lam, h, 2, grid=np.array([0.0]))
        f0 = (1.0 - steinsolve.expect_pg(r1, r2, lam, h)) / (r1 * r2)
        f1 = (-1.0 + lam**2 * f0) / ((r1 + 1) * (r2 + 1))
        f2 = (1.0 + 2 * lam**2 * f1) / ((r1 + 2) * (r2 + 2))
        np.testing.assert_allclose(sups, np.abs([f0, f1, f2]), rtol=1e-9)

    def test_points_past_the_far_tail_switch_raise(self):
        # 2 lam sqrt(x) > 600: the Bessel pair overflows (derivative gave nan or 1e235)
        with pytest.raises(specfun.NumericalError, match="x = 1e"):
            steinsolve.estimate_derivative_bounds(1.0, 1.0, 1.0, funcs.exp_decay(1.0), 2,
                                                  grid=np.array([1.0, 1e6]))
        sol = steinsolve.solve_stein_pg(1.0, 1.0, 1.0, funcs.exp_decay(1.0))
        for k in range(3):
            with pytest.raises(specfun.NumericalError, match="x = 1e"):
                sol.derivative(1e6, k)

    @pytest.mark.parametrize("r1,r2,lam,name", [(1.0, 1.0, 1.0, "exp"), (0.55, 2.9, 0.7, "exp"),
                                                (1.4, 2.45, 1.0, "sin")])
    def test_derivative_near_the_origin_takes_the_series(self, r1, r2, lam, name):
        # the Bessel form loses about 1/x^2 to I/K cancellation: on (1, 1, 1) with h = exp
        # it read f''(1e-6) = 4.1e4 and f'(1e-6) = -0.1696 against 0.0780 and -0.1491
        sol = steinsolve.solve_stein_pg(r1, r2, lam, cli.BUILTIN_TEST_FUNCTIONS[name]())
        xs = np.array([1e-6, 1e-4])
        ref = origin_series(r1, r2, lam, sol.h, sol.e_h, xs, 2)[1:]
        got = [[sol.derivative(x, k) for x in xs] for k in (1, 2)]
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0)

    def test_orders_above_two_rejected(self):
        with pytest.raises(ValueError, match="orders above two"):
            steinsolve.estimate_derivative_bounds(1.0, 1.0, 1.0, funcs.exp_decay(1.0), 3)

    def test_requires_smooth_enough_h(self):
        class Rough:
            max_order = 1

            def deriv(self, x, k=0):
                return 0.0 * np.asarray(x)

        with pytest.raises(ValueError, match="derivatives"):
            steinsolve.estimate_derivative_bounds(1.0, 1.0, 1.0, Rough(), 3)
        # enough for f' itself, but not for the origin series the default grid reaches
        with pytest.raises(ValueError, match="derivatives"):
            steinsolve.estimate_derivative_bounds(1.0, 1.0, 1.0, Rough(), 1)
        with pytest.raises(ValueError, match="derivatives"):  # and so does f'(x) near 0
            steinsolve.solve_stein_pg(1.0, 1.0, 1.0, Rough()).derivative(1e-4, 1)

    @pytest.mark.parametrize("r1,r2,lam,h", [(1.0, 1.0, 1.0, funcs.exp_decay(1.0)),
                                             (1.4, 2.45, 1.0, funcs.Sinusoid())])
    def test_stage_function_mean_zero(self, r1, r2, lam, h):
        # the once differentiated equation has no constant term, so its solution f'
        # needs none: E[h'(Y') + lam^2 f(Y')] = 0 for the shapes shifted by one
        assert stage_mean_zero_gap(r1, r2, lam, h) < 1e-11


class TestOriginRoute:
    """f, f' and f'' come from one routine: the Taylor series at 0 up to the switch
    min(0.1, 1/(4 lam^2)) wherever its last term is below rounding, the Bessel form
    elsewhere."""

    def test_values_and_derivatives_read_the_origin_series(self):
        # values took the Bessel form here, 1.3e-4 off the series at worst (seed 40)
        rng = np.random.default_rng(40)
        makers = list(cli.BUILTIN_TEST_FUNCTIONS.values())
        xs = np.array([0.0, 1e-12, 1e-8, 1e-4, 0.01])
        for i in range(30):
            r1, r2 = rng.uniform(0.5, 3.0, 2)
            lam = rng.uniform(0.5, 4.0)
            sol = steinsolve.solve_stein_pg(r1, r2, lam, makers[i % len(makers)]())
            near = xs[xs <= min(0.1, 0.25 / lam**2)]
            ref = origin_series(r1, r2, lam, sol.h, sol.e_h, near, 2)
            got = [sol.values(near)] + [[sol.derivative(x, k) for x in near] for k in (1, 2)]
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0, err_msg=f"{i}")

    def test_equal_shapes_value_meets_the_origin_limit(self):
        # d = 0: the Bessel form divides J's first-leaf error by x^s, 1.4e-5 off at 1e-12
        sol = steinsolve.solve_stein_pg(1.0, 1.0, 1.0, funcs.exp_decay(1.0))
        f0, f = sol.values(np.array([0.0, 1e-12]))
        assert abs(f - f0) <= 1e-8 * abs(f0)

    @pytest.mark.parametrize("r1,r2,lam,h", [
        (1.4, 2.45, 1.0, funcs.exp_decay(1.0)),
        (2.9, 0.6, 0.7, funcs.gaussian_bump(1.0)),
        (1.0, 1.0, 1.0, funcs.BoundedRational(1.0)),
        # poles at -0.1 and -0.01: points past the series' radius take the Bessel form
        (1.4, 2.45, 1.0, funcs.BoundedRational(0.1)),
        (1.4, 2.45, 1.0, funcs.BoundedRational(0.01)),
        # the forward form's f'' carried the table's J error over x^2: 2.9e-9 off the series
        # at the switch 0.1 here, and 1.5e-6 at lam = 3.819, where the switch is 0.0171; the
        # cells' two-sided form meets it within 6e-12 on both
        (0.55, 2.9, 1.0, funcs.Sinusoid()),
        (0.676, 0.824, 3.819, funcs.Sinusoid()),
        # E h reads 0.947749 against the Tricomi-U value 0.970836, and the series'
        # f(0) = (h(0) - E h) / (r1 r2) carries that error over r1 = 0.05
        pytest.param(0.05, 1.0, 1.0, funcs.exp_decay(1.0), marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 2: E h misses mass at the density's singular end")),
    ])
    def test_series_and_bessel_forms_meet_at_the_switch(self, r1, r2, lam, h):
        sol = steinsolve.solve_stein_pg(r1, r2, lam, h)
        switch = min(0.1, 0.25 / lam**2)
        below, above = (sol._derivatives(np.array([x]), 2)[:, 0]
                        for x in (switch, switch * (1.0 + 1e-12)))
        np.testing.assert_allclose(below, above, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("pole,ref", [(0.1, 0.5493073903667778), (0.15, 0.44583105976788406)])
    def test_points_past_the_series_radius_take_the_bessel_form(self, pole, ref):
        # derivative(0.09, 1) raised "origin series does not converge" here
        sol = steinsolve.solve_stein_pg(1.4, 2.45, 1.0, funcs.BoundedRational(pole))
        assert sol.derivative(0.09, 1) == sol._read(np.array([0.09]))[1, 0]
        assert sol.derivative(0.09, 1) == pytest.approx(ref, rel=1e-9)
