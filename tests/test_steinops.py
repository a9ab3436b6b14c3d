"""Stein operator construction, order reduction and the density ODE."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction as F
from numbers import Rational

import numpy as np
import pytest

from steinprod import dist, funcs, verify
from steinprod.opalg import PolyDiffOp, ThetaOp, compose_chain, make_an
from steinprod.steinops import (ProductSpec, adjoint_ode, adjoint_sides, build_stein,
                                reduce_order)

from oracles import isclose


class TestProductSpec:
    def test_requires_a_factor(self):
        with pytest.raises(ValueError, match="at least one factor"):
            ProductSpec()

    def test_negative_normal_count_names_itself(self):
        # the sign of N is checked before the factor count, which a gamma already meets
        with pytest.raises(ValueError, match="nonnegative"):
            ProductSpec(gamma_shapes=(1.4,), lam=1.0, normal_count=-1, sigma=1.0)

    def test_positivity(self):
        with pytest.raises(ValueError):
            ProductSpec(beta_pairs=((0.0, 1.0),))
        with pytest.raises(ValueError):
            ProductSpec(gamma_shapes=(1.0,), lam=-1.0)
        inf = math.inf
        for kwargs in (dict(beta_pairs=((inf, 1.0),)), dict(beta_pairs=((1.0, inf),)),
                       dict(gamma_shapes=(inf,), lam=1.0), dict(gamma_shapes=(1.0,), lam=inf),
                       dict(normal_count=1, sigma=inf), dict(gamma_shapes=(1.0,), lam=1.0, q=inf)):
            with pytest.raises(ValueError, match="finite"):
                ProductSpec(**kwargs)

    def test_lam_requires_gammas(self):
        with pytest.raises(ValueError):
            ProductSpec(normal_count=1, sigma=1.0, lam=2.0)

    def test_q_only_for_pure_gamma(self):
        with pytest.raises(ValueError, match="pure gamma"):
            ProductSpec(beta_pairs=((1.0, 1.0),), gamma_shapes=(1.0,),
                        lam=1.0, q=2.0)
        ProductSpec(gamma_shapes=(1.0,), lam=1.0, q=2.0)  # fine

    def test_row_labels(self):
        assert ProductSpec(normal_count=2, sigma=1.0).row() == "Z"
        assert ProductSpec(beta_pairs=((1.0, 2.0),), gamma_shapes=(1.0,),
                           lam=1.0).row() == "XY"
        assert ProductSpec(gamma_shapes=(1.4, 2.45), lam=1.3, q=2.0).row() == "PGG"


class TestClassicalRecovery:
    def test_gamma(self):
        b = build_stein(ProductSpec(gamma_shapes=(F(2),), lam=F(3, 2)))
        assert b.operator == PolyDiffOp({(1, 1): 1, (0, 0): F(2), (0, 1): -F(3, 2)})

    def test_beta(self):
        a, bb = F(13, 10), F(7, 10)
        b = build_stein(ProductSpec(beta_pairs=((a, bb),)))
        assert b.operator == PolyDiffOp(
            {(1, 1): 1, (1, 2): -1, (0, 0): a, (0, 1): -(a + bb)})

    def test_beta_exact_multiplier(self):
        # a + b = 19/10 is not an integer, so a float anywhere in the
        # construction would show up in the x term
        a, bb = F(13, 10), F(6, 10)
        op = build_stein(ProductSpec(beta_pairs=((a, bb),))).operator
        assert op == PolyDiffOp(
            {(1, 1): 1, (1, 2): -1, (0, 0): a, (0, 1): -(a + bb)})
        assert all(isinstance(c, Rational) for c in op.terms.values())

    def test_exact_xz_operator_and_adjoint(self):
        spec = ProductSpec(beta_pairs=((F(13, 10), F(6, 10)),), normal_count=1,
                           sigma=F(3, 2))
        for op in (build_stein(spec).operator, adjoint_ode(spec)):
            assert all(isinstance(c, Rational) for c in op.terms.values())

    def test_normal(self):
        b = build_stein(ProductSpec(normal_count=1, sigma=F(1)))
        assert b.operator == PolyDiffOp({(1, 0): 1, (0, 1): -1})

    def test_product_gamma_two(self):
        r1, r2, lam = F(1), F(2), F(1)
        b = build_stein(ProductSpec(gamma_shapes=(r1, r2), lam=lam))
        assert b.operator == PolyDiffOp(
            {(2, 2): 1, (1, 1): 1 + r1 + r2, (0, 0): r1 * r2, (0, 1): -1})

    def test_product_normal_two(self):
        b = build_stein(ProductSpec(normal_count=2, sigma=F(1)))
        assert b.operator == PolyDiffOp({(2, 1): 1, (1, 0): 1, (0, 1): -1})


class TestOrders:
    @pytest.mark.parametrize("spec,expected", [
        (ProductSpec(beta_pairs=((1.2, 0.8), (0.5, 0.9))), 2),
        (ProductSpec(gamma_shapes=(1.0, 2.0, 0.7), lam=1.0), 3),
        (ProductSpec(normal_count=3, sigma=2.0), 3),
        (ProductSpec(beta_pairs=((1.2, 0.8),), gamma_shapes=(1.5,), lam=1.0), 2),
        (ProductSpec(beta_pairs=((1.2, 0.8),), normal_count=2, sigma=1.0), 4),
        (ProductSpec(gamma_shapes=(1.5, 0.9), lam=2.0, normal_count=1, sigma=1.0), 5),
        (ProductSpec(beta_pairs=((1.2, 0.8),), gamma_shapes=(1.5,), lam=1.0,
                     normal_count=1, sigma=1.0), 5),
    ])
    def test_table_order(self, spec, expected):
        b = build_stein(spec)
        assert b.expected_order == expected
        assert b.operator.order == expected

    def test_pgg_operator(self):
        spec = ProductSpec(gamma_shapes=(1.0, 1.0), lam=1.0 / math.sqrt(2.0), q=2.0)
        b = build_stein(spec)
        # half-normal product: s^2 T_1^N f - x^2 f with lam = 1/(sqrt 2 s)
        assert b.rhs.xpow == 2.0
        assert b.operator is not None  # integer power embeds as polynomial
        expect = compose_chain([1.0, 1.0]) + PolyDiffOp({(0, 2): -(2.0 * 0.5) ** 2})
        assert isclose(b.operator, expect)

    def test_pgg_non_integer_power(self):
        b = build_stein(ProductSpec(gamma_shapes=(2.0,), lam=1.0, q=1.5))
        assert b.operator is None
        xs = np.array([0.5, 1.0, 2.0])
        f = funcs.exponential_damped(1, 1.0)
        vals = b.apply(f, xs)
        direct = (xs * f.deriv(xs, 1) + 2.0 * f.deriv(xs, 0)
                  - (1.5 ** 1) * xs ** 1.5 * f.deriv(xs, 0))
        np.testing.assert_allclose(vals, direct, rtol=1e-13)


def _spec(m, n, N, lam=1.0, sigma=1.0):
    return ProductSpec(beta_pairs=((1.3, 0.6), (0.8, 1.15))[:m],
                       gamma_shapes=(1.4, 2.45)[:n], lam=lam if n else None,
                       normal_count=N, sigma=sigma if N else None)


TABLE_ROW_SPECS = [_spec(2, 0, 0), _spec(0, 2, 0, lam=1.5), _spec(0, 0, 2),
                   _spec(1, 1, 0), _spec(1, 0, 1), _spec(0, 1, 1), _spec(1, 1, 1)]
PGG_SPECS = [ProductSpec(gamma_shapes=(1.4, 2.45), lam=1.3, q=q) for q in (0.5, 2.0, 3.0)]
REDUCTION_SPECS = [ProductSpec(beta_pairs=(ab,), gamma_shapes=(r,), lam=1.0,
                               normal_count=1, sigma=1.0)
                   for ab, r in (((1.3, 1.0), 1.4), ((0.4, 0.6), 1.3),
                                 ((0.4, 0.6), 1.0), ((0.4, 0.6), 2.0))]


def _termwise(side, f, x):
    """x^xpow times the side expanded without its x-power, applied term by term."""
    return x**side.xpow * replace(side, xpow=0).expand().apply(f, x)


def _assert_sides_match(bundle, f, w):
    closed = bundle.apply_terms(f, w)
    termwise = [_termwise(side, f, w) for side in (bundle.lhs, bundle.rhs)]
    for c, t in zip(closed, termwise):
        assert np.max(np.abs(c - t)) <= 1e-10 * np.max(np.abs(t))
    scale = np.mean(np.abs(termwise[0])) + np.mean(np.abs(termwise[1]))
    gap = np.mean(closed[0] - closed[1]) - np.mean(termwise[0] - termwise[1])
    assert abs(gap) <= 1e-10 * scale


class TestClosedFormSides:
    """apply_terms (theta images of PolyExp) against the expanded sides."""

    @pytest.mark.parametrize("spec", TABLE_ROW_SPECS + PGG_SPECS, ids=lambda s: s.describe())
    def test_matches_termwise_route(self, spec):
        bundle = build_stein(spec)
        w = dist.sample(spec, 50_000, seed=5)
        for f in verify.default_family(spec).members():
            _assert_sides_match(bundle, f, w)

    @pytest.mark.parametrize("spec", REDUCTION_SPECS, ids=lambda s: s.describe())
    def test_reduced_matches_termwise_route(self, spec):
        red = reduce_order(spec)
        chain = ThetaOp(1, 0, red.transform_chain).expand()
        w = dist.sample(spec, 50_000, seed=5)
        for f in verify.default_family(spec).members():
            g = red.transformed_function(f)
            expect = chain.apply(f, w)
            assert np.max(np.abs(g(w) - expect)) <= 1e-10 * np.max(np.abs(expect))
            _assert_sides_match(red, g, w)
            _assert_sides_match(build_stein(spec), f, w)

    def test_other_handles_rejected(self):
        bundle = build_stein(_spec(1, 1, 1))
        with pytest.raises(TypeError, match="operator.apply"):
            bundle.apply_terms(funcs.Sinusoid(), np.array([0.5, 1.0]))
        with pytest.raises(TypeError, match="operator.apply"):
            reduce_order(REDUCTION_SPECS[0]).transformed_function(funcs.Sinusoid())


class TestStackedSides:
    """apply_terms on a list of PolyExp: one exp and one stacked Horner pass."""

    @pytest.mark.parametrize("spec", TABLE_ROW_SPECS + PGG_SPECS, ids=lambda s: s.describe())
    def test_list_equals_single_calls_bit_for_bit(self, spec):
        bundle = build_stein(spec)
        w = dist.sample(spec, 20_000, seed=5)
        members = verify.default_family(spec).members()
        lhs, rhs = bundle.apply_terms(members, w)
        assert lhs.shape == rhs.shape == (len(members),) + w.shape
        for i, f in enumerate(members):
            single = bundle.apply_terms(f, w)
            np.testing.assert_array_equal(lhs[i], single[0])
            np.testing.assert_array_equal(rhs[i], single[1])

    @pytest.mark.parametrize("spec", REDUCTION_SPECS, ids=lambda s: s.describe())
    def test_reduced_list_equals_single_calls(self, spec):
        red = reduce_order(spec)
        w = dist.sample(spec, 20_000, seed=5)
        gs = [red.transformed_function(f) for f in verify.default_family(spec).members()]
        stacked = red.apply_terms(gs, w)
        for i, g in enumerate(gs):
            for side, single in zip(stacked, red.apply_terms(g, w)):
                np.testing.assert_array_equal(side[i], single)

    @pytest.mark.parametrize("spec", TABLE_ROW_SPECS[4:] + PGG_SPECS[:1], ids=lambda s: s.describe())
    def test_single_handle_is_coeff_power_times_image(self, spec):
        # the one-handle result is coeff x^xpow times the image's own call, bit for bit
        bundle = build_stein(spec)
        w = dist.sample(spec, 5_000, seed=6)
        f = verify.default_family(spec).members()[2]
        for x in (w, float(w[1])):
            got = bundle.apply_terms(f, x)
            for side, value in zip((bundle.lhs, bundle.rhs), got):
                expect = float(side.coeff) * x**side.xpow * f.theta_image(side.roots)(x)
                assert np.shape(value) == np.shape(x)
                np.testing.assert_array_equal(value, expect)

    def test_members_need_one_q(self):
        bundle = build_stein(_spec(1, 1, 1))
        mixed = [funcs.gaussian_damped(1, 1.0), funcs.gaussian_damped(1, 2.0)]
        with pytest.raises(ValueError, match="shared q"):
            bundle.apply_terms(mixed, np.array([0.5, 1.0]))
        with pytest.raises(TypeError, match="operator.apply"):
            bundle.apply_terms([funcs.gaussian_damped(1), funcs.Sinusoid()], np.array([0.5]))


class TestSmallXExponents:
    """The density's small-x powers solve the adjoint lhs indicial equation.

    theta x^s = s x^s, so x^s is annihilated by the adjoint lhs prod (theta + r)
    exactly when P(s) = prod (s + r) vanishes; the powers are the reduced G
    b-parameters, doubled when the G argument is x^2 (a normal factor).
    """

    @pytest.mark.parametrize("spec", TABLE_ROW_SPECS + REDUCTION_SPECS,
                             ids=lambda s: s.describe())
    def test_reduced_b_parameters_are_roots(self, spec):
        ev = dist.density(spec)
        poly = np.array(adjoint_sides(spec)[0].theta_coeffs(), dtype=float)
        powers = [(2.0 if spec.N else 1.0) * b for b in ev.reduced.b]
        for s in powers:
            terms = poly * s ** np.arange(len(poly))
            assert abs(terms.sum()) <= 1e-12 * np.abs(terms).sum()
        assert ev.small_x_exponent()[0] in powers


class TestMonomialSteinIdentities:
    def test_product_gamma_moment_recursion(self):
        spec = ProductSpec(gamma_shapes=(1.4, 2.6), lam=1.5)
        mel = dist.mellin(spec)
        for k in range(7):
            lhs = math.log((k + 1.4) * (k + 2.6)) + mel.log_value(k + 1)
            rhs = 2 * math.log(1.5) + mel.log_value(k + 2)
            assert abs(lhs - rhs) < 1e-12

    def test_product_normal_odd_monomials(self):
        spec = ProductSpec(normal_count=2, sigma=1.3)
        for m in (1, 3, 5):
            lhs = 1.3**2 * m**2 * dist.moment(spec, m - 1)
            rhs = dist.moment(spec, m + 1)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestReduceOrder:
    def test_uniform_factor_case(self):
        spec = ProductSpec(beta_pairs=((1.3, 1.0),), gamma_shapes=(1.4,),
                           lam=1.0, normal_count=1, sigma=1.0)
        red = reduce_order(spec)
        assert red.expected_order == 5
        assert red.reduced_order == 4  # m + 2n + N
        assert red.transform_chain == (1.3,)

    def test_arcsine_type_case(self):
        spec = ProductSpec(beta_pairs=((0.4, 0.6),), gamma_shapes=(1.3,),
                           lam=1.0, normal_count=1, sigma=1.0)
        assert reduce_order(spec).reduced_order == 4  # m + 2n + N

    @pytest.mark.parametrize("r,order", [(1.0, 3), (2.0, 3)])
    def test_triple_coincidence_cases(self, r, order):
        spec = ProductSpec(beta_pairs=((0.4, 0.6),), gamma_shapes=(r,),
                           lam=1.0, normal_count=1, sigma=1.0)
        assert reduce_order(spec).reduced_order == order  # 3m

    def test_disjoint_sets_keep_full_operator(self):
        spec = ProductSpec(beta_pairs=((1.3, 0.45),), gamma_shapes=(2.6,),
                           lam=1.0, normal_count=1, sigma=1.0)
        red = reduce_order(spec)
        assert red.reduced_order == red.expected_order
        assert isclose(red.operator, build_stein(spec).operator, 1e-11)

    def test_reduction_counts_match_g_function_cancellations(self):
        # the Stein-operator order drop equals the number of parameter
        # cancellations in the density's G-function
        spec = ProductSpec(beta_pairs=((1.3, 1.0),), gamma_shapes=(1.4,),
                           lam=1.0, normal_count=1, sigma=1.0)
        red = reduce_order(spec)
        t = red.expected_order - red.reduced_order
        ev = dist.density(spec)
        cancelled = ev.g_params.q - ev.reduced.q
        assert cancelled == t == 1

    def test_requires_normal_factor(self):
        with pytest.raises(ValueError):
            reduce_order(ProductSpec(beta_pairs=((1.0, 2.0),)))


class TestAdjointOde:
    def test_normal_annihilates_gaussian(self):
        ode = adjoint_ode(ProductSpec(normal_count=1, sigma=1.0))
        p = funcs.gaussian_bump(1.0)
        xs = np.linspace(-3, 3, 13)
        assert np.max(np.abs(ode.apply(p, xs))) < 1e-12

    def test_two_gamma_form(self):
        ode = adjoint_ode(ProductSpec(gamma_shapes=(1.0, 2.0), lam=1.5))
        expect = compose_chain([0.0, -1.0]) + PolyDiffOp({(0, 1): -(1.5**2)})
        assert isclose(ode, expect)

    def test_xyz_multisets_match_g_equation(self):
        # rescaled by y = c x^2, the ODE's T-parameters halve and must
        # reproduce the G-function differential-equation parameter rows
        spec = ProductSpec(beta_pairs=((1.3, 0.6),), gamma_shapes=(1.4,),
                           lam=1.0, normal_count=1, sigma=1.0)
        lhs, rhs = adjoint_sides(spec)
        assert (lhs.xpow, rhs.xpow) == (0, 2)
        ev = dist.density(spec)
        assert np.allclose(sorted(-0.5 * np.array(lhs.roots)), sorted(ev.g_params.b))
        assert np.allclose(sorted(1.0 - 0.5 * np.array(rhs.roots)), sorted(ev.g_params.a))

    def test_polynomial_and_order(self):
        spec = ProductSpec(beta_pairs=((1.3, 0.6),), gamma_shapes=(1.4,),
                           lam=1.0, normal_count=1, sigma=1.0)
        ode = adjoint_ode(spec)
        assert ode.is_polynomial
        assert ode.order == 5


def _chain_or_identity(rs):
    return compose_chain(rs) if rs else PolyDiffOp({(0, 0): 1})


@pytest.mark.parametrize("m,n,N", [c for c in itertools.product(range(3), repeat=3)
                                   if sum(c) > 0])
def test_operator_matches_paper_formula(m, n, N):
    """build_stein against the table built literally from T_r and A_N compositions."""
    betas = ((F(13, 10), F(6, 10)), (F(4, 5), F(23, 20)))[:m]
    shapes = (F(7, 5), F(49, 20))[:n]
    lam, sigma = (F(3, 2) if n else None), (F(5, 4) if N else None)
    spec = ProductSpec(beta_pairs=betas, gamma_shapes=shapes, lam=lam,
                       normal_count=N, sigma=sigma)
    b_a = _chain_or_identity([a for a, _ in betas])
    b_r = _chain_or_identity(list(shapes))
    ab = [a + b for a, b in betas]
    if N:
        lhs = b_a.compose(b_r).compose(make_an(N)).compose(b_r).compose(b_a).scale(sigma**2)
        rhs = PolyDiffOp({(0, 1): lam ** (2 * n) if n else 1}).compose(
            _chain_or_identity(ab).compose(_chain_or_identity([v - 1 for v in ab])))
    else:
        lhs = b_a.compose(b_r)
        rhs = PolyDiffOp({(0, 1): lam**n if n else 1}).compose(_chain_or_identity(ab))
    assert build_stein(spec).operator == lhs - rhs
