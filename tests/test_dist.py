"""Distribution machinery: samplers, Mellin transforms, densities, CF, tails."""

import itertools
import math
import sys
import threading
import time
import warnings
from contextlib import closing
from fractions import Fraction as F
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as integrate
import scipy.special as sp
import scipy.stats as st

from steinprod import dist, verify
from steinprod.specfun import NumericalError, meijer_g_batch
from steinprod.steinops import ProductSpec

from oracles import duplication_gap, tail_alpha, tail_constant

PN1 = ProductSpec(normal_count=1, sigma=1.0)
PN2 = ProductSpec(normal_count=2, sigma=1.0)
PG2 = ProductSpec(gamma_shapes=(1.4, 2.2), lam=1.0)
XYZ = ProductSpec(beta_pairs=((1.3, 0.6),), gamma_shapes=(1.4,), lam=1.0,
                  normal_count=1, sigma=1.0)


def _seeded_specs():
    """Every (m, n, N <= 2) combination, seeded shapes in [0.3, 30], (lam, sigma) != 1."""
    rng = np.random.default_rng(1507)
    for (m, n, N), (lam, sigma) in itertools.product(
            itertools.product(range(3), repeat=3), [(0.7, 1.9), (2.3, 0.45)]):
        if m + n + N:
            yield ProductSpec(
                beta_pairs=[tuple(map(float, p)) for p in rng.uniform(0.3, 30.0, (m, 2))],
                gamma_shapes=tuple(map(float, rng.uniform(0.3, 30.0, n))),
                lam=lam if n else None, normal_count=N, sigma=sigma if N else None)


SEEDED = list(_seeded_specs())


class TestSampler:
    def test_normal_moments(self):
        spec = ProductSpec(normal_count=1, sigma=2.0)
        w = dist.sample(spec, 200_000, seed=42)
        assert abs(np.mean(w)) < 4 * 2.0 / math.sqrt(len(w))
        assert np.var(w) == pytest.approx(4.0, rel=0.02)

    def test_product_gamma_mean(self):
        spec = ProductSpec(gamma_shapes=(1.5, 2.0), lam=1.3)
        w = dist.sample(spec, 400_000, seed=7)
        assert np.mean(w) == pytest.approx(1.5 * 2.0 / 1.3**2, rel=0.02)

    def test_generalised_gamma_power_moment(self):
        r, lam, q = 2.0, 1.5, 2.0
        w = dist.sample(ProductSpec(gamma_shapes=(r,), lam=lam, q=q), 400_000, seed=9)
        assert np.mean(w**q) == pytest.approx(r / (q * lam**q), rel=0.02)

    def test_deterministic(self):
        w1 = dist.sample(XYZ, 1000, seed=5)
        w2 = dist.sample(XYZ, 1000, seed=5)
        assert np.array_equal(w1, w2)

    def test_draws_independent_of_walk(self):
        n = 2 * dist.SAMPLE_BLOCK + 1001
        w = dist.sample(XYZ, n, seed=5)
        blocks = list(dist.sample_blocks(XYZ, n, seed=5))
        assert [len(b) for b in blocks] == [dist.SAMPLE_BLOCK, dist.SAMPLE_BLOCK, 1001]
        assert np.array_equal(np.concatenate(blocks), w)
        # a block is a function of its index: a longer sample starts with the same blocks
        assert np.array_equal(dist.sample(XYZ, 3 * dist.SAMPLE_BLOCK, seed=5)[:n - 1001],
                              w[:n - 1001])

    def test_concurrent_walks_under_fast_switching(self):
        # four callers on two cores, thread switches every microsecond, walks left
        # early or run out: each sees the blocks of dist.sample and no helper survives
        n = 5 * dist.SAMPLE_BLOCK + 7
        ref = dist.sample(XYZ, n, seed=8)
        seen = []

        def walk(last):
            with closing(dist.sample_blocks(XYZ, n, seed=8)) as blocks:
                got = []
                for k, block in enumerate(blocks):
                    got.append(block)
                    if k == last:
                        break
            seen.append((last, np.concatenate(got)))

        baseline = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=walk, args=(last,)) for last in (0, 2, 9, 9)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert threading.active_count() == baseline
        assert sorted(len(w) for _, w in seen) == [dist.SAMPLE_BLOCK, 3 * dist.SAMPLE_BLOCK, n, n]
        for _, w in seen:
            assert np.array_equal(w, ref[:len(w)])

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        draw = dist._draw

        def fail_second(spec, seq, size):
            if seq.spawn_key == (1,):
                raise MemoryError("block 1")
            return draw(spec, seq, size)

        monkeypatch.setattr(dist, "_draw", fail_second)
        baseline = threading.active_count()
        got = []
        with pytest.raises(MemoryError, match="block 1"):
            for block in dist.sample_blocks(XYZ, 4 * dist.SAMPLE_BLOCK, seed=3):
                got.append(block)
        assert len(got) == 1 and threading.active_count() == baseline

    @pytest.mark.parametrize("shapes, lam, message", [
        ((1.4, 2.0), 1e-200, "coefficient underflows"),  # lam^4 underflows to 0
        ((1.4, 2.0), 1e200, "coefficient underflows"),   # lam^4 overflows
        ((1.4, 2.0, 1.1), 1e-110, "coefficient underflows"),  # lam^3 is below the subnormals
        # lam^3 = 1e-321 is a subnormal, but the draws, about 1e321, are past the doubles
        ((1.4, 2.0, 1.1), 1e-107, "a draw is past the double range"),
    ])
    def test_rate_past_the_double_range_raises(self, shapes, lam, message):
        # the parent printed inf (with an overflow warning) or 0 draws
        spec = ProductSpec(gamma_shapes=shapes, lam=lam)
        baseline = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for draw in (dist.sample, lambda *a: list(dist.sample_blocks(*a))):
                with pytest.raises(NumericalError, match=message):
                    draw(spec, 3, 1)
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("exact,floats", [
        (ProductSpec(beta_pairs=((F(13, 10), F(6, 10)),), normal_count=1, sigma=F(3, 2)),
         ProductSpec(beta_pairs=((1.3, 0.6),), normal_count=1, sigma=1.5)),
        (ProductSpec(gamma_shapes=(F(2),), lam=F(3, 2)), ProductSpec(gamma_shapes=(2.0,), lam=1.5)),
    ])
    def test_exact_rational_spec_draws_the_float_specs_bits(self, exact, floats):
        # the rate and the scale multiplied the float block as Fractions: numpy's
        # UFuncTypeError from sample, mc_stein_identity and sampler_density_ks
        n = dist.SAMPLE_BLOCK + 5
        assert dist.sample(exact, n, seed=4).tobytes() == dist.sample(floats, n, seed=4).tobytes()
        report = verify.mc_stein_identity(exact, verify.default_family(exact), 2000, 1)
        assert math.isfinite(report.estimate)
        assert verify.sampler_density_ks(exact, 2000, 1).passed

    def test_two_beta_mean(self):
        pairs = ((1.3, 0.6), (0.8, 1.15))
        w = dist.sample(ProductSpec(beta_pairs=pairs), 400_000, seed=19)
        mean = math.prod(a / (a + b) for a, b in pairs)
        second = math.prod(a * (a + 1) / ((a + b) * (a + b + 1)) for a, b in pairs)
        assert abs(np.mean(w) - mean) <= 4 * math.sqrt((second - mean**2) / len(w))

    def test_half_normal_product_is_generalised_gamma(self):
        # |Z_1 Z_2| for centred normals has the q=2 generalised-gamma
        # product law with r=1 and rate 1/(sqrt(2) sigma): two-sample KS
        sigma = 1.0
        n = 200_000
        z = np.abs(dist.sample(ProductSpec(normal_count=2, sigma=sigma), n, seed=41))
        g = dist.sample(ProductSpec(gamma_shapes=(1.0, 1.0),
                                    lam=1.0 / (math.sqrt(2.0) * sigma), q=2.0),
                        n, seed=42)
        both = np.sort(np.concatenate([z, g]))
        fz = np.searchsorted(np.sort(z), both, side="right") / n
        fg = np.searchsorted(np.sort(g), both, side="right") / n
        d = np.max(np.abs(fz - fg))
        assert d < 1.63 * math.sqrt(2.0 / n)  # 1% two-sample critical value


class TestMellin:
    @pytest.mark.parametrize("spec", [PN1, PN2, PG2, XYZ,
                                      ProductSpec(beta_pairs=((1.3, 0.7),))])
    def test_total_probability(self, spec):
        assert dist.mellin(spec)(1.0) == pytest.approx(1.0, abs=1e-13)

    def test_normal_second_moment(self):
        assert dist.mellin(PN1)(3.0) == pytest.approx(1.0, rel=1e-13)

    def test_odd_moment_with_a_normal_factor_is_zero(self):
        assert dist.moment(XYZ, 1) == 0.0

    def test_beta_mean(self):
        a, b = 1.3, 0.7
        spec = ProductSpec(beta_pairs=((a, b),))
        assert dist.mellin(spec)(2.0) == pytest.approx(a / (a + b), rel=1e-13)

    def test_strip_enforced(self):
        mel = dist.mellin(PG2)
        with pytest.raises(ValueError, match="strip"):
            mel(-1.0)

    @pytest.mark.parametrize("spec", SEEDED, ids=ProductSpec.describe)
    def test_factorised_equals_g_form(self, spec):
        # K, kappa and both rows, read off the Stein sides, against the factorised transform
        mel = dist.mellin(spec)
        lo, _ = mel.strip
        for s in np.linspace(max(lo + 0.1, 0.2), max(lo + 0.1, 0.2) + 6, 20):
            assert mel.log_value(float(s)) == pytest.approx(
                dist.mellin_gform_log(spec, float(s)), rel=1e-12, abs=1e-11)

    def test_duplication_identity(self):
        for s in (2.0, 3.7, 10.0):
            assert duplication_gap(s) < 1e-13

    def test_multiplicative_under_products_vs_monte_carlo(self):
        mel = dist.mellin(XYZ)
        w = np.abs(dist.sample(XYZ, 400_000, seed=31))
        for s in (1.5, 2.0, 3.0):
            vals = w ** (s - 1.0)
            est = np.mean(vals)
            se = np.std(vals, ddof=1) / math.sqrt(len(w))
            assert abs(mel(s) - est) < 4 * se


class TestDensities:
    def test_single_normal_reduces_to_gaussian(self):
        ev = dist.density(PN1)
        for x in (0.0, 0.7, -1.3, 2.0):
            assert ev(x) == pytest.approx(st.norm.pdf(x), rel=1e-12)

    def test_two_normal_bessel_form(self):
        ev = dist.density(PN2)
        xs = np.array([0.2, 0.9, 3.0])
        gvals = ev.const * meijer_g_batch(ev.reduced, ev.argument(xs), ev.tol)
        for x, g in zip(xs, gvals):
            ref = sp.kv(0, abs(x)) / math.pi
            assert ev(x) == pytest.approx(ref, rel=1e-12)
            assert g == pytest.approx(ref, rel=1e-8)

    def test_two_normal_diverges_at_zero(self):
        assert dist.density(PN2)(0.0) == math.inf

    @pytest.mark.parametrize("spec", [
        ProductSpec(gamma_shapes=(2.0, 2.0), lam=1.0),  # 2x K_0(2 sqrt x): x ln x at 0
        ProductSpec(gamma_shapes=(3.0, 3.0), lam=1.0),
        ProductSpec(beta_pairs=((2.0, 1.0), (2.0, 1.0))),  # -4x ln x
    ], ids=ProductSpec.describe)
    def test_repeated_positive_exponent_vanishes_at_zero(self, spec):
        # a repeated smallest b > 0 leaves z^b (ln z)^j, j > 0, as the leading residue row:
        # its limit is 0, not the +-inf of a (ln z)^j at z^0
        assert dist.density(spec)(0.0) == 0.0
        assert dist.density(spec).batch([0.0, 1e-300])[0] == 0.0

    def test_single_gamma(self):
        ev = dist.density(ProductSpec(gamma_shapes=(2.0,), lam=1.5))
        for x in (0.1, 1.0, 4.0):
            assert ev(x) == pytest.approx(st.gamma.pdf(x, 2.0, scale=1 / 1.5),
                                          rel=1e-12)

    def test_two_gamma_bessel_form(self):
        r1, r2, lam = 1.4, 2.2, 1.0
        ev = dist.density(ProductSpec(gamma_shapes=(r1, r2), lam=lam))
        xs = np.array([0.05, 0.5, 2.0, 8.0])
        gvals = ev.const * meijer_g_batch(ev.reduced, ev.argument(xs), ev.tol)
        for x, g in zip(xs, gvals):
            ref = (2 * lam ** (r1 + r2) / (math.gamma(r1) * math.gamma(r2))
                   * x ** ((r1 + r2) / 2 - 1) * sp.kv(r1 - r2, 2 * lam * math.sqrt(x)))
            assert ev(x) == pytest.approx(ref, rel=1e-11)
            assert g == pytest.approx(ref, rel=1e-8)

    def test_single_beta(self):
        a, b = 1.3, 0.7
        ev = dist.density(ProductSpec(beta_pairs=((a, b),)))
        for x in (0.1, 0.5, 0.9):
            assert ev(x) == pytest.approx(st.beta.pdf(x, a, b), rel=1e-10)
        assert ev(-0.5) == 0.0
        assert ev(1.5) == 0.0

    def test_two_beta_convolution_vs_series(self):
        # oracle: p(x) = int_x^1 f1(x/u) f2(u) du/u by QUADPACK's algebraic-weight rule,
        # (u - x)^(b1-1) (1 - u)^(b2-1) times the smooth rest
        (a1, b1), (a2, b2) = pairs = ((1.3, 0.7), (0.6, 1.1))
        ev = dist.density(ProductSpec(beta_pairs=pairs))
        xs = np.array([0.1, 0.4, 0.8, 0.97, 0.999])
        c = 1.0 / (sp.beta(a1, b1) * sp.beta(a2, b2))
        ref = [integrate.quad(lambda u: c * (x / u) ** (a1 - 1) * u ** (a2 - b1 - 1), x, 1.0,
                              weight="alg", wvar=(b1 - 1, b2 - 1), epsabs=0, epsrel=1e-13)[0]
               for x in xs]
        np.testing.assert_allclose(ev.batch(xs), ref, rtol=1e-12)

    def test_three_beta_near_one(self):
        # q = p: the series takes x <= 0.3 and Norlund's expansion the rest
        pairs = ((1.3, 0.6), (2.0, 1.5), (0.8, 1.1))
        ev = dist.density(ProductSpec(beta_pairs=pairs))
        values = ev.batch([1e-3, 0.5, 0.97])
        assert values.shape == (3,) and np.all(np.isfinite(values) & (values > 0))
        # 1 - W is near 0 a sum of three small terms, each with density
        # Gamma(a + b) / (Gamma(a) Gamma(b)) t^(b-1) + ...: their convolution gives
        # p(x) (1 - x)^(1 - sum b) -> prod Gamma(a + b) / Gamma(a) / Gamma(sum b)
        sum_b = sum(b for _, b in pairs)
        limit = math.prod(math.gamma(a + b) / math.gamma(a) for a, b in pairs) / math.gamma(sum_b)
        for x in (1.0 - 1e-9, 1.0 - 1e-12):  # the next term is 0.55 (1 - x) relative
            assert ev(x) * (1.0 - x) ** (1.0 - sum_b) == pytest.approx(limit, rel=1.0 - x)
        x = 1.0 - 1e-12
        assert ev(x) * (1.0 - x) ** (1.0 - sum_b) == pytest.approx(limit, rel=1e-10)

    def test_three_beta_zero_beyond_support(self):
        ev = dist.density(ProductSpec(beta_pairs=((1.3, 0.6), (2.0, 1.5), (0.8, 1.1))))
        np.testing.assert_array_equal(ev.batch([1.5, 3.0]), [0.0, 0.0])

    @pytest.mark.parametrize("spec", [
        ProductSpec(normal_count=3, sigma=1.0),
        ProductSpec(gamma_shapes=(1.0, 2.0), lam=1.0, normal_count=1, sigma=1.0),
        ProductSpec(beta_pairs=((2.0, 1.0),), gamma_shapes=(1.0,), lam=3.0,
                    normal_count=2, sigma=1.0),
        ProductSpec(gamma_shapes=(2.0, 3.0, 4.0, 5.0), lam=1.0),
        ProductSpec(gamma_shapes=(1.0, 1.0, 1.0), lam=1.0),
        ProductSpec(gamma_shapes=(0.5, 1.5, 2.5), lam=1.0),
    ])
    def test_coincident_shapes_near_origin(self, spec):
        # b-rows with poles of order 3 and more: N normals put 0 in N times
        ev = dist.density(spec)
        a, b = list(ev.reduced.a), list(ev.reduced.b)
        for x in (1e-8, 1e-6, 1e-4):
            ref = float(mp.exp(ev.log_const) * mp.meijerg([[], a], [b, []], ev.argument(x)))
            value = ev(x)
            assert value >= 0.0
            assert value == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        ProductSpec(gamma_shapes=(1.1,), lam=1.0, normal_count=1, sigma=1.0),
        XYZ,
    ])
    def test_finite_value_at_zero_is_exact(self, spec):
        # N = 1: p(0) = phi(0) / sigma * E[1 / (betas * gammas)]
        ref = 1.0 / (math.sqrt(2 * math.pi) * spec.sigma)
        for a, b in spec.beta_pairs:
            ref *= (a + b - 1) / (a - 1)
        for r in spec.gamma_shapes:
            ref *= spec.lam / (r - 1)
        ev = dist.density(spec)
        assert ev(0.0) == pytest.approx(ref, rel=1e-12)
        assert ev.batch([0.0])[0] == pytest.approx(ref, rel=1e-12)

    def test_underflowed_argument_takes_the_series(self):
        # kappa x^2 is 0 at x = 1e-170: the residue series at ln kappa + 2 ln|x| gives the
        # x = 0 limit within 1e-12, where the G route raised
        ev = dist.density(XYZ)
        assert ev.closed is None
        at_zero = ev(0.0)
        for x in (1e-150, 1e-170, -1e-170, 2e-170, 1e-300, 5e-324):
            assert ev(x) == pytest.approx(at_zero, rel=1e-12)
        values = ev.batch([-1e-170, 0.0, 2e-170, 0.5])
        np.testing.assert_allclose(values[:3], at_zero, rtol=1e-12)
        assert values[3] == ev(0.5)

    @pytest.mark.parametrize("spec", [
        XYZ,
        ProductSpec(gamma_shapes=(0.3,), lam=1.0, normal_count=1, sigma=1.0),  # x^-0.7 at 0
        ProductSpec(gamma_shapes=(2.5,), lam=1.0, normal_count=1, sigma=1.0),
        PN2,  # a closed form with K_0 at argument 0: -ln x at 0
    ], ids=ProductSpec.describe)
    @pytest.mark.parametrize("x", [1e-170, 1e-300])
    def test_argument_below_the_doubles_against_mpmath(self, spec, x):
        # 30-digit mpmath G at the exact argument kappa x^2, which a double holds as 0
        ev = dist.density(spec)
        assert ev.argument(x) == 0.0
        with mp.workdps(30):
            y = mp.mpf(ev.arg_coeff) * mp.mpf(x) ** 2
            ref = mp.exp(ev.log_const) * mp.meijerg([[], list(ev.reduced.a)],
                                                    [list(ev.reduced.b), []], y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ev(x) == pytest.approx(float(ref), rel=1e-13)

    def test_positive_support_is_zero_left_of_origin(self):
        lam = 1.5
        ev = dist.density(ProductSpec(gamma_shapes=(1.0,), lam=lam))
        np.testing.assert_array_equal(ev.batch([-1.0, -1e-9, 0.0]), [0.0, 0.0, lam])

    @pytest.mark.parametrize("spec, kind", [
        (PN1, "exp"),
        (PN2, "bessel"),
        (ProductSpec(beta_pairs=((1.3, 0.7),)), "general"),
        (ProductSpec(beta_pairs=((1.3, 0.7), (0.6, 1.1))), "general"),
        (XYZ, "general"),
    ])
    def test_scalar_is_batch_of_one(self, spec, kind):
        ev = dist.density(spec)
        assert kind == ("general" if ev.closed is None else
                        "exp" if ev.closed.phi == "e" else "bessel")
        for x in (0.0, 1e-9, 1e-7, 1e-3, 1.0, 10.0):
            assert ev(x) == ev.batch([x])[0]

    @pytest.mark.parametrize("shapes", [(1.0, 1.0, 1.0), (0.5, 1.5, 2.5)])
    def test_small_x_never_silently_infinite(self, shapes):
        ev = dist.density(ProductSpec(gamma_shapes=shapes, lam=1.0))
        try:
            value = ev(1e-8)
        except NumericalError:
            return
        assert math.isfinite(value)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: G's error target is absolute in G "
                                           "units, and K = e^497 scales its error: reads 1.0e-7 "
                                           "relative off")
    def test_large_constant_beta_normal(self):
        # beta(0.5, 150) x N(0, 1) at x = 0.6: 40-digit mpmath quadrature over the beta mixing
        ev = dist.density(ProductSpec(beta_pairs=((0.5, 150.0),), normal_count=1, sigma=1.0))
        assert ev(0.6) == pytest.approx(5.3634213272020805e-14, rel=1e-9, abs=0)

    def test_symmetry_bit_exact(self):
        ev = dist.density(XYZ)
        for x in (0.37, 1.9):
            assert ev(x) == ev(-x)

    def test_xyz_against_monte_carlo_kde(self):
        ev = dist.density(XYZ)
        w = dist.sample(XYZ, 1_000_000, seed=17)
        # histogram density estimate with analytic-error bars
        edges = np.array([0.3, 0.5, 0.8, 1.2, 1.7])
        counts, _ = np.histogram(w, bins=edges)
        for i in range(len(edges) - 1):
            width = edges[i + 1] - edges[i]
            est = counts[i] / len(w) / width
            mid_mass = dist.quad.adaptive(lambda u: ev.batch(u), edges[i],
                                          edges[i + 1], tol=1e-10) / width
            se = math.sqrt(counts[i]) / len(w) / width
            assert abs(est - mid_mass) < 4 * se + 1e-4

    @pytest.mark.parametrize("spec", [
        PN1, PN2, PG2, XYZ,
        ProductSpec(beta_pairs=((1.3, 0.7),)),
        ProductSpec(beta_pairs=((1.3, 0.6), (0.8, 1.15)), gamma_shapes=(1.4,),
                    lam=2.0, normal_count=2, sigma=0.5),
        ProductSpec(gamma_shapes=(200.0,), lam=1.0),  # tail cut past the peak at x = 199
    ])
    def test_normalisation(self, spec):
        assert dist.normalization(spec) == pytest.approx(1.0, abs=1e-6)


class TestTypedFailures:
    """Values beyond the float range give NumericalError, not bare Python errors."""

    @pytest.mark.parametrize("pair", [(200.0, 150.0), (0.5, 300.0)])
    def test_constant_overflow(self, pair):
        spec = ProductSpec(beta_pairs=(pair,))
        ev = dist.density(spec)
        for call in (lambda: ev(0.5), lambda: ev.batch([0.2, 0.5]),
                     lambda: dist.NumericCdf(spec)(0.5)):
            with pytest.raises(NumericalError, match="overflows"):
                call()

    def test_constant_overflow_in_tails(self):
        # K = e^1202.6 overflows, but the asymptote exp(log K + log asym) raises only where it
        # does itself: e^992.7 at x = 2, e^-20.99 at x = 10 (x = 5, e^432, raised on K alone)
        spec = ProductSpec(beta_pairs=((0.5, 300.0),), normal_count=1, sigma=1.0)
        with pytest.raises(NumericalError, match="overflows"):
            tail_constant(spec)
        with pytest.raises(NumericalError, match="overflows"):
            dist.tail_asymptotic(spec, 2.0)
        ev, sig, alpha = dist.density(spec), 2 * spec.n + spec.N, tail_alpha(spec)
        with mp.workdps(40):
            ref = mp.exp(ev.log_const + alpha / 2 * mp.log(ev.arg_coeff) + alpha * mp.log(10)
                         - sig * ev.arg_coeff * 100)
        assert float(ref) == pytest.approx(7.67783e-10, rel=1e-5)
        assert dist.tail_asymptotic(spec, 10.0) == pytest.approx(float(ref), rel=1e-13)

    @pytest.mark.parametrize("spec, value", [
        (ProductSpec(beta_pairs=((1.0, 250.0),)), 250.0),            # b (1 - x)^(b - 1)
        (ProductSpec(gamma_shapes=(1.0, 200.0), lam=1.0), 1 / 199),  # E[1 / Y], Y ~ gamma(200)
    ])
    def test_value_at_zero_in_logs(self, spec, value):
        # K or Gamma(b) alone overflows, their product does not
        assert dist.density(spec)(0.0) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("spec", [XYZ, PG2, ProductSpec(gamma_shapes=(5.4, 7.2), lam=1.0)])
    def test_far_tail_is_zero_and_fast(self, spec):
        # the G argument's leading asymptote is below e^-760 (or inf): 0 without the
        # contour, which took seconds from x = 1e12 on and raised at 1e200; the Bessel
        # form gave nan where y^half overflows and K_nu is 0
        ev, cdf = dist.density(spec), dist.NumericCdf(spec)
        xs = np.r_[np.geomspace(1e4, 1e300, 12)[1:], math.inf]
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(ev.batch(xs), 0.0)
            np.testing.assert_array_equal(cdf(xs), 1.0)
            assert ev(1e4) >= 0.0 and cdf(1e4) <= 1.0
            np.testing.assert_array_equal([ev(x) for x in xs], 0.0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("spec, xs, refs, rel", [
        # the G argument underflows: the exponential form gave nan (0 log 0), the Bessel form 0
        (PN1, [1e-170], [0.3989422804014327], 1e-12),
        (PN2, [1e-170], [124.63595395705706], 1e-12),
        # K_29 overflows where y^14.5 underflows: nan
        (ProductSpec(gamma_shapes=(1.0, 30.0), lam=1.0), [1e-30], [1 / 29], 1e-12),
        # K = e^-857.9 underflows: 0 everywhere
        (ProductSpec(gamma_shapes=(1.0, 200.0), lam=1.0), [10.0, 50.0, 200.0, 400.0],
         [4.7776647234318391e-3, 3.9043322682749136e-3, 1.8347742046847368e-3,
          6.7332119558151756e-4], 1e-9),
        # K underflows and y^184 overflows: nan everywhere
        (ProductSpec(gamma_shapes=(180.0, 190.0), lam=1.0), [3e4, 3.4e4, 4e4],
         [6.0699166666376159e-5, 1.126552873680016e-4, 2.8744265125714627e-5], 1e-9),
        # K = e^-863 underflows and K_199 overflows, so G takes the points: K G gave 0
        (ProductSpec(gamma_shapes=(2.0, 201.0), lam=1.0), [1e-200, 1e-100],
         [2.5125628140703517588e-205, 2.5125628140703517588e-105], 1e-12),
    ])
    def test_closed_form_in_logs(self, spec, xs, refs, rel):
        # mpmath, 40 digits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(dist.density(spec).batch(xs), refs, rtol=rel)

    def test_closed_form_past_the_float_range_raises(self):
        # K_199(2) and G(1 | ; 0, 199) ~ Gamma(199) = e^852 overflow a double
        with pytest.raises(NumericalError, match="not a finite double"):
            dist.density(ProductSpec(gamma_shapes=(1.0, 200.0), lam=1.0))(1.0)

    @pytest.mark.parametrize("spec", [XYZ, PG2, PN1, PN2])
    def test_nan_gives_nan(self, spec):
        ev = dist.density(spec)
        out = ev.batch([math.nan, 0.5])
        assert math.isnan(out[0]) and out[1] == ev(0.5)
        assert math.isnan(ev(math.nan)) and math.isnan(dist.NumericCdf(spec)(math.nan))


class TestCharFunction:
    def test_unit_at_zero(self):
        assert dist.char_function(PN1, 0.0) == 1.0

    def test_gaussian_cf(self):
        for t in (0.5, 1.3, 2.0):
            assert dist.char_function(PN1, t) == pytest.approx(
                math.exp(-t * t / 2), abs=1e-8)

    def test_two_normal_cf_closed_form(self):
        for t in (0.5, 1.0, 2.0):
            assert dist.char_function(PN2, t) == pytest.approx(
                1.0 / math.sqrt(1.0 + t * t), abs=1e-7)

    def test_bounded_and_even(self):
        for t in (0.25, 0.75, 1.5, 3.0):
            v = dist.char_function(XYZ, t)
            assert abs(v) <= 1.0 + 1e-9
            assert dist.char_function(XYZ, -t) == v

    def test_mc_agreement(self):
        w = dist.sample(XYZ, 1_000_000, seed=3)
        for t in (0.5, 1.0, 2.0):
            mc = np.cos(t * w)
            est, se = np.mean(mc), np.std(mc, ddof=1) / math.sqrt(len(w))
            assert abs(dist.char_function(XYZ, t) - est) < 3 * se

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0, 50.0])
    def test_matches_scipy_reference(self, t):
        """XYZ against E exp(-a (B G)^2), a = t^2 / 2, from scipy's beta and gamma densities."""
        a = 0.5 * t * t

        def given_beta(b):  # E exp(-a (b G)^2), one tanh-sinh integral per b
            return integrate.tanhsinh(lambda g, b: st.gamma.pdf(g, 1.4) * np.exp(-a * (b * g) ** 2),
                                      0.0, np.inf, args=(b,), atol=1e-16, rtol=1e-14).integral

        # the beta's singular end b = 1 as c = 1 - b near 0: Beta(1.3, 0.6) at 1 - c is
        # Beta(0.6, 1.3) at c, so no node loses the distance to the end
        halves = [integrate.tanhsinh(f, 0.0, 0.5, atol=1e-16, rtol=1e-14) for f in (
            lambda b: st.beta.pdf(b, 1.3, 0.6) * given_beta(b),
            lambda c: st.beta.pdf(c, 0.6, 1.3) * given_beta(1.0 - c))]
        assert all(h.status == 0 for h in halves)
        ref = sum(h.integral for h in halves)
        assert dist.char_function(XYZ, t) == pytest.approx(ref, abs=1e-12)

    def test_weight_reach_cuts_the_body(self):
        """The body of U's density runs to x = 225 here, while the weight exp(-8 u^2) has its
        mass below u = 1: uncut, the first adaptive panel of the body misses that mass and
        phi is 6e-7 off.  Reference: E_B E_Y (1 + 2 a B^2 Y^2)^{-1/2} (the last normal
        integrated out) with scipy's beta density and the Bessel-K density of Y = G1 G2."""
        (p, q), (r1, r2), lam, a = (1.502, 1.843), (2.274, 0.614), 2.0, 8.0
        spec = ProductSpec(beta_pairs=((p, q),), gamma_shapes=(r1, r2), lam=lam, normal_count=2,
                           sigma=2.0)

        def given_beta(b):
            def f(y, b):
                density = (2.0 * lam ** (r1 + r2) * y ** (0.5 * (r1 + r2) - 1.0)
                           * sp.kv(r1 - r2, 2.0 * lam * np.sqrt(y)) / (sp.gamma(r1) * sp.gamma(r2)))
                return density / np.sqrt(1.0 + 2.0 * a * (b * y) ** 2)
            return integrate.tanhsinh(f, 0.0, np.inf, args=(b,), atol=1e-16, rtol=1e-14).integral

        ref = integrate.tanhsinh(lambda b: st.beta.pdf(b, p, q) * given_beta(b), 0.0, 1.0,
                                 atol=1e-16, rtol=1e-14)
        assert ref.status == 0
        assert dist.char_function(spec, 2.0) == pytest.approx(ref.integral, abs=2e-9)

    @pytest.mark.parametrize("spec", [
        PN1, replace(XYZ, gamma_shapes=(), lam=None), replace(XYZ, beta_pairs=()), XYZ],
        ids=["N", "beta.N", "gamma.N", "beta.gamma.N"])
    def test_positive_and_at_most_one(self, spec):
        """phi = E exp(-a U^2) lies in (0, 1]; the lone normal's exp(-t^2 / 2) underflows
        to 0 past t = 38.6, so it is checked to t = 25."""
        for t in (0.5, 2.0, 10.0, 25.0, 50.0):
            if spec.m or spec.n or t <= 25.0:
                assert 0.0 < dist.char_function(spec, t) <= 1.0

    def test_non_finite_and_huge_t(self):
        """a = (sigma t)^2 / 2 leaves the doubles past t = 1.9e154; phi does not."""
        for t in (1e100, 1e200, 1e300):
            assert dist.char_function(PN2, t) == pytest.approx(1.0 / t, rel=1e-12)
            # approx's default abs of 1e-12 holds any value this small: the scaled value too
            assert t * dist.char_function(PN2, t) == pytest.approx(1.0, rel=1e-9)
        assert dist.char_function(XYZ, math.inf) == dist.char_function(PN2, -math.inf) == 0.0
        assert math.isnan(dist.char_function(XYZ, math.nan))

    def test_cost_does_not_grow_with_t(self, monkeypatch):
        points = []
        batch = dist.DensityEvaluator.batch

        def counted(self, xs):
            points.append(np.size(xs))
            return batch(self, xs)

        monkeypatch.setattr(dist.DensityEvaluator, "batch", counted)
        dist.char_function(XYZ, 0.5)
        at_half = sum(points)
        points.clear()
        dist.char_function(XYZ, 50.0)
        assert 0 < sum(points) <= at_half

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    @pytest.mark.parametrize("count", [1, 2])
    def test_closed_form_matches(self, count, sigma):
        spec = ProductSpec(normal_count=count, sigma=sigma)
        for t in (0.3, 1.0, 2.5, 7.0):
            assert dist.char_function_closed(spec, t) == pytest.approx(
                dist.char_function(spec, t), abs=1e-12)

    @pytest.mark.parametrize("spec", [ProductSpec(normal_count=3, sigma=1.0), XYZ,
                                      replace(XYZ, gamma_shapes=(), lam=None),
                                      replace(XYZ, beta_pairs=())])
    def test_closed_form_rejects(self, spec):
        with pytest.raises(ValueError):
            dist.char_function_closed(spec, 1.0)

    def test_requires_normal_factor(self):
        with pytest.raises(ValueError):
            dist.char_function(PG2, 1.0)


def _probe_specs() -> list:
    """60 products from ``default_rng(3)``: (m, n, N) uniform on {0, 1, 2}^3 (the empty
    product is drawn again), lam = sigma = 1, shapes U(0.1, 3) on odd draws (counted from 0)
    and U(0.6, 3) on even ones."""
    rng = np.random.default_rng(3)
    specs = []
    while len(specs) < 60:
        m, n, N = (int(v) for v in rng.integers(0, 3, 3))
        if m + n + N == 0:
            continue
        lo = 0.1 if len(specs) % 2 else 0.6
        specs.append(ProductSpec(
            beta_pairs=[tuple(map(float, rng.uniform(lo, 3.0, 2))) for _ in range(m)],
            gamma_shapes=tuple(map(float, rng.uniform(lo, 3.0, n))), lam=1.0 if n else None,
            normal_count=N, sigma=1.0 if N else None))
    return specs


class TestTanhSinhEndpointLoss:
    """Power-law ends of the density.  At 0 the head maps x = x_1 v^k, k set by the
    exponent, so tanh-sinh's nodes reach the singularity (draws 35 and 43, gamma(0.15)
    and its cf were 1.9e-9 to 1.7e-6 off with the head in u = sqrt(x)).  At a compact
    support's right end a node within an ulp of the cut rounds onto it, and the mass there
    is lost by any rule that passes x to the density: ROADMAP item 2's by-parts half."""

    GAMMA = ProductSpec(gamma_shapes=(0.15,), lam=1.0)  # density ~ x^-0.85 at 0

    @pytest.mark.parametrize("spec", _probe_specs(), ids=[f"draw{i}" for i in range(60)])
    def test_seeded_probe_normalization(self, spec):
        assert abs(1.0 - dist.normalization(spec)) <= 1e-9

    def test_small_gamma_shape_normalization(self):
        assert dist.normalization(self.GAMMA) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("shape", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("normals", [0, 1])
    def test_head_from_zero_normalization(self, shape, normals):
        # the head runs from 0, below the x where kappa x^h leaves the doubles: gamma(0.05)
        # N(0, 1) read 1 - 2.3e-8 with the head from there (x^0.05 of the mass at 1e-154)
        spec = ProductSpec(gamma_shapes=(shape,), lam=1.0, normal_count=normals,
                           sigma=1.0 if normals else None)
        assert abs(1.0 - dist.normalization(spec)) <= 1e-10

    @pytest.mark.parametrize("normals", [0, 1])
    def test_tiny_gamma_shape_raises_in_the_head(self, normals):
        # ROADMAP item 2: the head in x reaches subnormal tanh-sinh nodes, where p ~ x^{r-1}
        # of gamma(0.01) is past the largest double; a head in ln x would integrate it
        spec = ProductSpec(gamma_shapes=(0.01,), lam=1.0, normal_count=normals,
                           sigma=1.0 if normals else None)
        with pytest.raises(NumericalError, match="the density is not a finite double at"):
            dist.normalization(spec)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: nodes within an ulp of x = 1 round "
                                           "onto the cut, and the beta(0.6, 0.2) (1 - x)^-0.8 "
                                           "mass there is lost: reads 1 - 4.9e-4")
    def test_small_beta_shape_normalization(self):
        assert abs(1.0 - dist.normalization(ProductSpec(beta_pairs=((0.6, 0.2),)))) <= 1e-9

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: nodes within an ulp of x = 1 round "
                                           "onto the cut, and the beta(1, 0.3) (1 - x)^-0.7 "
                                           "mass there is lost: reads 1 - 1.37e-5")
    def test_beta_right_end_normalization(self):
        assert abs(1.0 - dist.normalization(ProductSpec(beta_pairs=((1.0, 0.3),)))) <= 1e-9

    @pytest.mark.parametrize("t, ref", [(1e-4, 0.9999999991375), (0.5, 0.9837614998112)])
    def test_small_gamma_shape_char_function(self, t, ref):
        # 40-digit mpmath references, with u = v^(1/r) removing the singularity
        spec = replace(self.GAMMA, normal_count=1, sigma=1.0)
        assert dist.char_function(spec, t) == pytest.approx(ref, abs=1e-9)


class TestTails:
    def test_gaussian_tail_exact(self):
        x = 9.0
        assert dist.density(PN1)(x) / dist.tail_asymptotic(PN1, x) == pytest.approx(
            1.0, abs=1e-6)

    def test_two_normal_matches_k0_asymptote(self):
        x = 30.0
        ref = math.sqrt(math.pi / (2 * x)) * math.exp(-x) / math.pi
        assert dist.tail_asymptotic(PN2, x) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("spec", [PN1, PN2, PG2_N := ProductSpec(
        gamma_shapes=(1.4,), lam=1.0, normal_count=1, sigma=1.0), XYZ])
    def test_closed_constants_match_g_route(self, spec):
        ev = dist.density(spec)
        sig = 2 * spec.n + spec.N
        y = (30.0 / sig) ** sig
        x = math.sqrt(y / ev.arg_coeff)
        closed = (tail_constant(spec) * abs(x) ** tail_alpha(spec)
                  * math.exp(-sig * y ** (1.0 / sig)))
        assert closed == pytest.approx(dist.tail_asymptotic(spec, x), rel=1e-10)

    def test_array_in_one_pass(self):
        xs = np.array([5.0, 9.0, 30.0])
        out = dist.tail_asymptotic(XYZ, xs)
        assert out.shape == xs.shape and out.tolist() == [dist.tail_asymptotic(XYZ, x) for x in xs]
        assert type(dist.tail_asymptotic(XYZ, 5.0)) is float

    @pytest.mark.parametrize("spec", [PN1, XYZ], ids=ProductSpec.describe)
    @pytest.mark.parametrize("x", [0.0, np.array([-5.0, 0.0, 5.0]), 1e-200])
    def test_zero_is_a_value_error(self, spec, x):
        # the asymptote has no value at x = 0 (or where its G argument underflows to 0):
        # a typed error, not 0,nan or 0,inf with a divide-by-zero warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x = 0"):
                dist.tail_asymptotic(spec, x)

    def test_constant_below_the_doubles_in_logs(self):
        # K = e^-1204 underflows to 0 and the asymptote overflows: the parent read 0 * inf = nan
        # past x = 56; exp(log K + log asym) is 0 only below the smallest double (x = 30)
        spec = ProductSpec(gamma_shapes=(300.0,), lam=1.0, normal_count=1, sigma=1.0)
        ev = dist.density(spec)
        xs = np.array([30.0, 165.0, 300.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dist.tail_asymptotic(spec, xs)
        sig, alpha = 2 * spec.n + spec.N, tail_alpha(spec)
        with mp.workdps(40):
            for x, value in zip(xs, got):
                y = mp.mpf(ev.arg_coeff) * mp.mpf(x) ** 2
                ref = mp.exp(ev.log_const + (sig - 1) / 2 * mp.log(2 * mp.pi) - mp.log(sig) / 2
                             + alpha / 2 * mp.log(ev.arg_coeff) + alpha * mp.log(x)
                             - sig * mp.cbrt(y))
                if x == 30.0:
                    assert ref < 5e-324 and value == 0.0
                else:  # terms of size 1200 in the log sum round at about 1.4e-13 relative
                    assert value == pytest.approx(float(ref), rel=2e-13)

    def test_alpha_special_cases(self):
        assert tail_alpha(PN1) == pytest.approx(0.0)
        assert tail_alpha(PN2) == pytest.approx(-0.5)


W222 = ProductSpec(beta_pairs=((1.3, 0.6), (0.8, 1.15)), gamma_shapes=(1.4, 2.45), lam=1.0,
                   normal_count=2, sigma=1.0)


class TestNumericCdf:
    @pytest.mark.parametrize("spec, law, xs", [
        (ProductSpec(beta_pairs=((1.5, 0.5),)), st.beta(1.5, 0.5),
         [1e-6, 0.1, 0.5, 0.9, 0.999, 0.999999]),
        (ProductSpec(beta_pairs=((2.0, 0.8),)), st.beta(2.0, 0.8),
         [1e-6, 0.1, 0.5, 0.9, 0.999, 0.999999]),
        (ProductSpec(gamma_shapes=(2.0,), lam=1.0), st.gamma(2.0), [1e-6, 0.2, 1.0, 3.0, 7.0, 30.0]),
        (PN1, st.norm(), [-6.0, -1.5, -1e-6, 0.0, 0.7, 2.2, 8.0]),
    ])
    def test_single_factor_against_scipy(self, spec, law, xs):
        np.testing.assert_allclose(dist.NumericCdf(spec)(xs), law.cdf(xs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec", [ProductSpec(beta_pairs=((1.5, 0.5),)), W222])
    def test_total_mass_and_monotone(self, spec):
        cdf = dist.NumericCdf(spec)
        # the survival G at the origin is the whole mass
        at_origin = 0.5 if spec.N else 0.0
        assert cdf(1e-150) == pytest.approx(at_origin, abs=1e-12)
        assert cdf(0.0) == at_origin  # the whole mass lies beyond x = 0
        # kappa 1e-300^2 underflows: the survival rows' residue series in ln z
        assert cdf(1e-300) == pytest.approx(at_origin, abs=1e-12)
        assert cdf(math.inf) == 1.0 and cdf(-math.inf) == 0.0
        x_tail = cdf.ev.tail_cut(36.0)
        assert cdf(x_tail) == pytest.approx(1.0, abs=1e-12)
        xs = np.linspace(-x_tail if spec.N else 0.0, x_tail, 10_000)
        assert np.all(np.diff(cdf(xs)) >= 0.0)

    def test_near_origin_against_mpmath(self):
        # the panel quadrature this replaces was 8.1e-5 off at -6.3e-7
        cdf = dist.NumericCdf(W222)
        ev = cdf.ev
        a = [v + 0.5 for v in ev.reduced.a] + [1.0]
        b = [v + 0.5 for v in ev.reduced.b] + [0.0]
        for x in (-6.3e-7, -1e-4):
            with mp.workdps(30):
                tail = (mp.exp(ev.log_const) / mp.sqrt(ev.arg_coeff)
                        * mp.meijerg([[], a], [b, []], ev.arg_coeff * mp.mpf(x) ** 2))
            assert cdf(x) == pytest.approx(float(tail / 2), abs=1e-12)

    @pytest.mark.parametrize("x", [1e-300, 1e-170, 1e-150])
    def test_underflowed_argument_against_mpmath(self, x):
        # gamma(0.01) N(0, 1) has x^-0.99 at 0: 5.06e-4 of its mass lies within 1e-300,
        # which a tail of 1 wherever kappa x^2 underflows dropped (the CDF read 0.5)
        spec = ProductSpec(gamma_shapes=(0.01,), lam=1.0, normal_count=1, sigma=1.0)
        cdf = dist.NumericCdf(spec)
        ev = cdf.ev
        a = [v + 0.5 for v in ev.reduced.a] + [1.0]
        b = [v + 0.5 for v in ev.reduced.b] + [0.0]
        with mp.workdps(30):
            tail = (mp.exp(ev.log_const) / mp.sqrt(ev.arg_coeff)
                    * mp.meijerg([[], a], [b, []], ev.arg_coeff * mp.mpf(x) ** 2))
        assert cdf(x) == pytest.approx(float(1 - tail / 2), abs=1e-14)
        assert cdf(-x) == pytest.approx(float(tail / 2), abs=1e-14)

    def test_closed_survival_rows(self):
        # the survival rows of gamma(1) gamma(200) reduce to a K-Bessel closed form,
        # P(W > x) = 2 x^100 K_200(2 sqrt x) / Gamma(200): the parent's G engine raised
        # "batch step-halving did not converge" at every x in [100, 1000]
        cdf = dist.NumericCdf(ProductSpec(gamma_shapes=(1.0, 200.0), lam=1.0))
        xs = [100.0, 200.0, 300.0, 1000.0]
        with mp.workdps(30):
            ref = [float(1 - 2 * mp.mpf(x) ** 100 * mp.besselk(200, 2 * mp.sqrt(x)) / mp.gamma(200))
                   for x in xs]
        np.testing.assert_allclose(cdf(xs), ref, rtol=0, atol=1e-12)

    def test_closed_survival_rows_at_large_order(self):
        # gamma(1) gamma(300): P(W > x) = 2 x^150 K_300(2 sqrt x) / Gamma(300), where the
        # K trapezoid's step set by x alone read 9.7e-12 and 4.8e-12 off; 40-digit mpmath
        cdf = dist.NumericCdf(ProductSpec(gamma_shapes=(1.0, 300.0), lam=1.0))
        xs = [150.0, 200.0]
        with mp.workdps(40):
            ref = [float(1 - 2 * mp.mpf(x) ** 150 * mp.besselk(300, 2 * mp.sqrt(x)) / mp.gamma(300))
                   for x in xs]
        np.testing.assert_allclose(cdf(xs), ref, rtol=0, atol=2e-13)

    def test_survival_tends_to_its_asymptote(self):
        # criterion 10's 18 specs at its deep-tail points (exponential factor e^-550): the
        # survival evaluator over exp of its own log_asymptote is within 5% of 1
        worst = 0.0
        for m, n, N in itertools.product(range(3), range(3), range(1, 3)):
            spec = ProductSpec(beta_pairs=((1.3, 0.6), (0.8, 1.15))[:m], gamma_shapes=(1.4, 2.45)[:n],
                               lam=1.0 if n else None, normal_count=N, sigma=1.0)
            survival = dist.NumericCdf(spec).survival
            sig = 2 * n + N
            x = math.sqrt((550.0 / sig) ** sig / survival.arg_coeff)
            ratio = survival.batch(np.array([x]))[0] / math.exp(survival.log_asymptote(x))
            worst = max(worst, abs(ratio - 1.0))
        assert worst <= 0.05

    def test_gamma_cdf(self):
        cdf = dist.NumericCdf(ProductSpec(gamma_shapes=(2.0,), lam=1.0))
        for x in (0.2, 1.0, 3.0, 7.0):
            assert cdf(x) == pytest.approx(st.gamma.cdf(x, 2.0), abs=1e-6)

    def test_normal_cdf_symmetric_fold(self):
        cdf = dist.NumericCdf(PN1)
        for x in (-1.5, 0.0, 0.7, 2.2):
            assert cdf(x) == pytest.approx(st.norm.cdf(x), abs=1e-6)

    def test_monotone(self):
        cdf = dist.NumericCdf(PN2)
        xs = np.linspace(-6, 6, 101)
        vals = cdf(xs)
        assert np.all(np.diff(vals) >= -1e-12)


# the 26 (m, n, N <= 2) specs at two (lam, sigma) pairs, and generalised gamma
MELLIN_SPECS = [ProductSpec(beta_pairs=((1.3, 0.6), (0.8, 1.15))[:m],
                            gamma_shapes=(1.4, 2.45)[:n], lam=lam if n else None,
                            normal_count=N, sigma=sigma if N else None)
                for m, n, N in itertools.product(range(3), repeat=3) if m + n + N
                for lam, sigma in ((1.5, 0.8), (0.7, 2.3))]
GG_SPECS = [ProductSpec(gamma_shapes=(1.4, 2.45), lam=1.3, q=q) for q in (0.5, 2.0, 3.0)]


class TestMomentRecursion:
    @pytest.mark.parametrize("spec", [PG2, PN2,
                                      ProductSpec(gamma_shapes=(1.0, 2.0), lam=1.0)]
                             + MELLIN_SPECS + GG_SPECS)
    def test_report_passes(self, spec):
        rep = verify.moment_recursion_check(spec, 6)
        assert rep.passed, rep
        assert rep.estimate <= rep.tolerance

    @pytest.mark.parametrize("spec", [XYZ, PN2, PG2,
                                      ProductSpec(gamma_shapes=(2.0,), lam=1.0, q=0.5)])
    def test_moved_root_fails(self, spec, monkeypatch):
        real = verify.stein_sides

        def moved(s):
            lhs, rhs = real(s)
            return replace(lhs, roots=(lhs.roots[0] + 1e-6,) + lhs.roots[1:]), rhs

        monkeypatch.setattr(verify, "stein_sides", moved)
        assert not verify.moment_recursion_check(spec, 6).passed

    @pytest.mark.parametrize("spec", GG_SPECS)
    def test_generalised_gamma_moments(self, spec):
        q = spec.q
        for k in range(1, 7):
            expect = math.prod(st.gengamma(r / q, q, scale=1 / spec.lam).moment(k)
                               for r in spec.gamma_shapes)
            assert dist.moment(spec, k) == pytest.approx(expect, rel=1e-12)

    def test_pn_unit_variance_case(self):
        spec = ProductSpec(normal_count=1, sigma=1.0)
        assert dist.moment(spec, 2) == pytest.approx(1.0, rel=1e-13)


def _gg_sweep():
    """q in {1/2, 2, 3} x n <= 3 x lam in {0.5, 1, 2}, seeded shapes in [0.6, 3]."""
    rng = np.random.default_rng(1977)
    for q, n, lam in itertools.product((0.5, 2.0, 3.0), (1, 2, 3), (0.5, 1.0, 2.0)):
        yield ProductSpec(gamma_shapes=tuple(map(float, np.round(rng.uniform(0.6, 3.0, n), 3))),
                          lam=lam, q=q)


GG_SWEEP = list(_gg_sweep())


class TestGeneralisedGammaDensity:
    """p = K G^{n,0}_{0,n}(lam^{qn} x^q | ; (r - 1)/q), K = q lam^n / prod Gamma(r/q)."""

    @pytest.mark.parametrize("spec", GG_SWEEP, ids=lambda s: s.describe())
    def test_density_against_mpmath(self, spec):
        xs = dist.moment(spec, 1) * np.array([0.05, 0.3, 1.0, 2.0, 4.0])
        with mp.workdps(30):
            q, lam = mp.mpf(spec.q), mp.mpf(spec.lam)
            b = [(mp.mpf(r) - 1) / q for r in spec.gamma_shapes]
            const = q * lam**spec.n / mp.fprod(mp.gamma(mp.mpf(r) / q) for r in spec.gamma_shapes)
            ref = [float(const * mp.meijerg([[], []], [b, []], lam ** (q * spec.n) * mp.mpf(x)**q))
                   for x in xs]
        np.testing.assert_allclose(dist.density(spec).batch(xs), ref, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("spec", GG_SWEEP + [
        # stretched-exponential tails where a cut on the density alone lost 1e-5 of the mass
        ProductSpec(gamma_shapes=(2.858, 2.98, 2.337), lam=0.5, q=0.5),
        ProductSpec(gamma_shapes=(2.233, 2.485, 2.858), lam=1.0, q=0.5),
        ProductSpec(gamma_shapes=(2.392, 2.893, 1.305), lam=2.0, q=0.5),
    ], ids=lambda s: s.describe())
    def test_normalization(self, spec):
        assert dist.normalization(spec) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    def test_cdf_ends_exact(self, q):
        cdf = dist.NumericCdf(ProductSpec(gamma_shapes=(1.4, 2.45), lam=1.3, q=q))
        left = np.array([-math.inf, -1e300, -5.0, -1.0, -1e-300, -0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(cdf(left) == 0.0)
            assert cdf(-1.0) == 0.0 and cdf(-0.0) == 0.0 and cdf(0.0) == 0.0
            assert cdf(math.inf) == 1.0
            assert 0.0 < cdf(1.0) < 1.0
