"""Operator algebra: exact construction, composition, disentangling, theta-form adjoints."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from steinprod import funcs
from steinprod.opalg import (PolyDiffOp, ThetaOp, compose_chain, disentangle_b, make_an,
                             make_t, stirling2)

from oracles import adjoint_expanded, apply_to_monomial, shift_past_an

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
chains = st.lists(rationals, min_size=1, max_size=6)


def stirling2_recurrence(n, k):
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    return k * stirling2_recurrence(n - 1, k) + stirling2_recurrence(n - 1, k - 1)


class TestMakeT:
    def test_t_zero_is_euler_operator(self):
        assert make_t(0) == PolyDiffOp({(1, 1): 1})

    def test_t_two(self):
        assert make_t(2) == PolyDiffOp({(1, 1): 1, (0, 0): 2})

    def test_second_order_composition(self):
        r, s = F(2), F(5, 2)
        op = make_t(r).compose(make_t(s))
        assert op == PolyDiffOp({(2, 2): 1, (1, 1): 1 + r + s, (0, 0): r * s})


class TestComposeChain:
    def test_single_factor(self):
        assert compose_chain([F(3, 2)]) == make_t(F(3, 2))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="empty chain"):
            compose_chain([])

    def test_two_factor_coefficients(self):
        r1, r2 = F(1, 3), F(7, 2)
        op = compose_chain([r1, r2])
        assert op.coeff(0, 0) == r1 * r2
        assert op.coeff(1, 1) == 1 + r1 + r2
        assert op.coeff(2, 2) == 1

    @given(r=rationals, s=rationals)
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, r, s):
        assert compose_chain([r, s]) == compose_chain([s, r])

    def test_associative(self):
        a, b, c = make_t(F(1)), make_t(F(-2, 3)), make_an(2)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


class TestStirlingAndAn:
    def test_diagonal(self):
        for n in range(7):
            assert stirling2(n, n) == 1

    def test_known_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(4, 3) == 6

    def test_against_recurrence(self):
        for n in range(9):
            for k in range(n + 1):
                assert stirling2(n, k) == stirling2_recurrence(n, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            stirling2(2, 3)
        with pytest.raises(ValueError):
            make_an(0)

    def test_a1_is_derivative(self):
        assert make_an(1) == PolyDiffOp({(1, 0): 1})

    def test_a2(self):
        assert make_an(2) == PolyDiffOp({(2, 1): 1, (1, 0): 1})

    def test_a4_stirling_coefficient(self):
        assert make_an(4).coeff(3, 2) == 6


class TestDisentangle:
    def test_single(self):
        assert disentangle_b([F(5, 4)]) == make_t(F(5, 4))

    def test_ones(self):
        assert disentangle_b([F(1), F(1)]) == PolyDiffOp(
            {(2, 2): 1, (1, 1): 3, (0, 0): 1})

    @given(rs=chains)
    @settings(max_examples=60, deadline=None)
    def test_matches_composition(self, rs):
        assert disentangle_b(rs) == compose_chain(rs)

    def test_float_order_ten_accuracy(self):
        # XYZ chains with m = n = N = 2: roots a, a-1, r, r-1 and 0, 0
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            a, r = rng.uniform(0.3, 3.0, 2), rng.uniform(0.3, 3.0, 2)
            rs = [*a, *(a - 1), *r, *(r - 1), 0.0, 0.0]
            exact = disentangle_b([F(v) for v in rs]).terms
            got = disentangle_b(rs).terms
            assert got.keys() == exact.keys()
            worst = max(worst, max(abs(got[k] - float(c)) / abs(float(c))
                                   for k, c in exact.items()))
        assert worst <= 1e-14, worst


class TestShiftPastAn:
    def test_base_case(self):
        left, right = shift_past_an([F(0)], 1)
        assert left == right == PolyDiffOp({(2, 1): 1, (1, 0): 1})

    def test_general_first_order(self):
        r = F(7, 3)
        left, right = shift_past_an([r], 1)
        assert left == right == PolyDiffOp({(2, 1): 1, (1, 0): r + 1})

    @given(rs=st.lists(rationals, min_size=1, max_size=4),
           n=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_identity(self, rs, n):
        left, right = shift_past_an(rs, n)
        assert left == right


class TestMonomialAction:
    @given(m=st.integers(min_value=0, max_value=10),
           n=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_an_eigenrelation(self, m, n):
        out = apply_to_monomial(make_an(n), m)
        if m == 0:
            assert out == {}
        else:
            assert out == {m - 1: m**n}

    @given(rs=st.lists(rationals, min_size=1, max_size=4),
           m=st.integers(min_value=0, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_chain_eigenrelation(self, rs, m):
        out = apply_to_monomial(compose_chain(rs), m)
        eig = math.prod([m + r for r in rs], start=F(1))
        if eig == 0:
            assert out == {}
        else:
            assert out == {m: eig}


class TestApply:
    def test_euler_on_identity_function(self):
        assert make_t(0).apply(funcs.monomial(1), 3.0) == pytest.approx(3.0)

    def test_an_on_square(self):
        assert make_an(2).apply(funcs.monomial(2), 1.0) == pytest.approx(4.0)

    def test_chain_on_constant(self):
        op = compose_chain([1.0, 2.0])
        assert op.apply(funcs.constant(1.0), 7.7) == pytest.approx(2.0)

    def test_zero_operator(self):
        xs = np.linspace(0.5, 2.0, 5)
        out = PolyDiffOp.zero().apply(funcs.gaussian_bump(), xs)
        assert np.all(out == 0.0)

    def test_array_evaluation(self):
        xs = np.linspace(0.2, 3.0, 11)
        op = make_an(3)
        f = funcs.monomial(4)
        np.testing.assert_allclose(op.apply(f, xs), 64.0 * xs**3, rtol=1e-13)


class TestAdjoint:
    def test_single_t(self):
        adj = ThetaOp(1, 0, (F(1, 2),)).adjoint()
        assert adj.expand() == make_t(F(1, 2)).scale(-1)

    def test_two_factor_signs_cancel(self):
        r, s = F(2), F(5, 2)
        adj = ThetaOp(1, 0, (r, s)).adjoint()
        assert adj.expand() == compose_chain([1 - r, 1 - s])

    @given(rs=st.lists(rationals, min_size=1, max_size=4),
           gamma=rationals)
    @settings(max_examples=40, deadline=None)
    def test_double_adjoint_restores_chain(self, rs, gamma):
        op = ThetaOp(F(1), gamma, tuple(rs))
        assert op.adjoint().adjoint() == op

    @given(rs=st.lists(rationals, min_size=1, max_size=3),
           gamma=st.integers(min_value=-1, max_value=2),
           xpow=st.integers(min_value=-1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_matches_expanded_leibniz_oracle(self, rs, gamma, xpow):
        # the adjoint under the weight x^gamma is x^{-gamma} L* x^gamma
        op = ThetaOp(F(1), xpow, tuple(rs))
        lhs = (PolyDiffOp({(0, -gamma): 1}).compose(op.adjoint().expand())
               .compose(PolyDiffOp({(0, gamma): 1})))
        assert lhs == adjoint_expanded(op.expand(), gamma)

    def test_weight_one_indices(self):
        # with an x prefactor: T_r adjoint index is 2 - r, the x prefactor kept
        r = F(3)
        adj = ThetaOp(1, 1, (r,)).adjoint()
        assert adj.expand() == ThetaOp(-1, 1, (2 - r,)).expand()


class TestThetaOp:
    @given(rs=st.lists(rationals, max_size=6), coeff=rationals,
           xpow=st.integers(min_value=-1, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_expand_is_stirling_map_of_theta_coeffs(self, rs, coeff, xpow):
        op = ThetaOp(coeff, xpow, tuple(rs))
        terms = {}
        for k, c in enumerate(op.theta_coeffs()):
            for j in range(k + 1):
                terms[(j, j + xpow)] = terms.get((j, j + xpow), 0) + c * stirling2(k, j)
        assert op.expand() == PolyDiffOp(terms)

    def test_theta_coeffs(self):
        assert ThetaOp(2, 0, (1, 3)).theta_coeffs() == [6, 8, 2]

    def test_non_integer_power_has_no_expansion(self):
        with pytest.raises(ValueError, match="not an integer"):
            ThetaOp(1, 1.5, (1.0,)).expand()


class TestPresentation:
    def test_json_terms(self):
        # (theta - 0.5)(theta + 1.5) + 2x = x^2 D^2 + 2x D - 0.75 + 2x
        op = compose_chain([1.5, -0.5]) + PolyDiffOp({(0, 1): 2.0})
        assert json.loads(op.to_json()) == {
            "terms": [{"k": 0, "j": 0, "coeff": -0.75}, {"k": 0, "j": 1, "coeff": 2.0},
                      {"k": 1, "j": 1, "coeff": 2.0}, {"k": 2, "j": 2, "coeff": 1.0}],
            "order": 2}

    def test_pretty_zero(self):
        assert PolyDiffOp.zero().pretty() == "0"

    def test_no_zero_coefficients_stored(self):
        op = make_t(F(1)) - make_t(F(1))
        assert op.terms == {}


class TestThetaImage:
    """PolyExp.theta_image against the expanded chain applied term by term."""

    @pytest.mark.parametrize("roots", [(), (F(3, 2),), (-2, -2, F(-1, 3)),
                                       (0, 0, F(5, 4), -1, 3)])
    @pytest.mark.parametrize("p,q", [([1.0], [0.0, 0.0, -0.5]),
                                     ([0.5, -1.0, 0.0, 2.0], [0.1, -0.7]),
                                     ([0.0, 0.0, 1.0], [0.0])])
    def test_matches_expanded_chain(self, roots, p, q):
        f = funcs.PolyExp(p, q)
        xs = np.linspace(-2.5, 2.5, 11)
        expect = ThetaOp(1, 0, roots).expand().apply(f, xs)
        got = f.theta_image(roots)(xs)
        # (theta - 2) x^2 = 0: that image is exactly zero, the expanded one rounds
        np.testing.assert_allclose(got, expect, rtol=1e-12,
                                   atol=1e-12 * (1.0 + np.max(np.abs(expect))))
