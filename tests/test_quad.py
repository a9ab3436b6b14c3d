"""Level-wise adaptive Gauss-Legendre against the recursive halving rule, and tanh-sinh
from a power-law end against closed forms."""

import math
import time

import numpy as np
import pytest

from steinprod import quad
from steinprod.specfun import NumericalError


def recursive_adaptive(f, a, b, tol=1e-10, rtol=1e-12, max_depth=24):
    """Reference: the depth-first form of the same halving rule."""

    def recurse(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left = quad.gl_panel(f, lo, mid)
        right = quad.gl_panel(f, mid, hi)
        if depth <= 0:
            return left + right
        if abs(left + right - whole) <= max(tol, rtol * abs(whole)):
            return left + right
        return (recurse(lo, mid, left, depth - 1)
                + recurse(mid, hi, right, depth - 1))

    return recurse(a, b, quad.gl_panel(f, a, b), max_depth)


CASES = {
    "smooth": (lambda u: np.exp(-u) * np.cos(3.0 * u) + 1.0 / (1.0 + u * u), -2.0, 5.0),
    "oscillating": (lambda u: np.exp(-u) * np.sin(u * u), 0.0, 60.0),
    "endpoint_singular": (lambda u: u ** -0.5, 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_recursive_rule(name):
    f, a, b = CASES[name]
    ref = recursive_adaptive(f, a, b)
    assert quad.adaptive(f, a, b) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_tolerances_reach_the_accept_test():
    f, a, b = CASES["oscillating"]
    for tol, rtol in ((1e-6, 1e-8), (1e-13, 1e-14)):
        ref = recursive_adaptive(f, a, b, tol=tol, rtol=rtol)
        got = quad.adaptive(f, a, b, tol=tol, rtol=rtol)
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_integrand_calls_are_chunked():
    # sin(50 u) on [0, 1000] halves to well over 256 pending panels on one level,
    # which reach the integrand 256 panels (4096 nodes) at a time
    sizes = []

    def f(u):
        sizes.append(u.size)
        return np.sin(50.0 * u)

    got = quad.adaptive(f, 0.0, 1000.0)
    assert max(sizes) == 4096 and sizes.count(4096) > 1
    assert sum(sizes) % 16 == 0
    assert got == pytest.approx((1.0 - math.cos(50_000.0)) / 50.0, abs=1e-9)


def test_scalar_and_degenerate_intervals():
    assert isinstance(quad.adaptive(np.cos, 0.0, 1.0), float)
    assert quad.adaptive(np.cos, 1.0, 1.0) == 0.0
    assert quad.adaptive(lambda u: 2.0, 0.0, 3.0) == pytest.approx(6.0, rel=1e-15)


def test_non_finite_panels_raise_instead_of_halving():
    # NaN on half of [0, 1]: such a panel never passes the accept test, and halving
    # it to the default depth would ask for about 2^24 panels
    calls = []

    def f(u):
        calls.append(u.size)
        return np.where(u < 0.5, np.nan, u)

    start = time.perf_counter()
    with pytest.raises(NumericalError, match=r"non-finite integrand on \[0, 1\]"):
        quad.adaptive(f, 0.0, 1.0)
    assert time.perf_counter() - start < 1.0
    assert sum(calls) == 3 * 16  # the panel and its two halves


@pytest.mark.parametrize("e", [-0.95, -0.9, -0.5, 0.0, 2.3])
def test_tanh_sinh_power_and_log_ends(e):
    # int_0^1 x^e = 1 / (1 + e) and int_0^1 x^e ln x = -1 / (1 + e)^2; tanh-sinh in x itself,
    # with no node nearer 0 than about eps, read x^-0.95 15% low, x^-0.9 2.2% and x^-0.5 5.6e-9
    power = quad.tanh_sinh(lambda x: x**e, 0.0, 1.0, e, 1e-14)
    log = quad.tanh_sinh(lambda x: x**e * np.log(x), 0.0, 1.0, e, 1e-14)
    assert power == pytest.approx(1.0 / (1.0 + e), rel=1e-13, abs=0.0)
    assert log == pytest.approx(-1.0 / (1.0 + e) ** 2, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("e", [-0.5, 2.3])
def test_tanh_sinh_reversed_interval(e):
    # the power-law end is a = 0 > b = -2: int_0^-2 |x|^e = -2^(1 + e) / (1 + e)
    got = quad.tanh_sinh(lambda x: np.abs(x) ** e, 0.0, -2.0, e, 1e-14)
    assert got == pytest.approx(-(2.0 ** (1.0 + e)) / (1.0 + e), rel=1e-13, abs=0.0)


def test_tanh_sinh_drops_nodes_that_round_onto_the_end():
    # e = -0.95 maps x = v^40, which underflows to 0 at the nodes nearest the end, where
    # x^e is inf and the weight v^39 is 0: those nodes never reach f, and the sum is finite
    seen = []

    def f(x):
        seen.append(x.min())
        return x**-0.95

    got = quad.tanh_sinh(f, 0.0, 1.0, -0.95, 1e-14)
    assert min(seen) > 0.0
    assert got == pytest.approx(20.0, rel=1e-13, abs=0.0)
