"""Verification harness: reports, determinism, scans and suites."""

import itertools
import json
import math
import threading
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from steinprod import dist, funcs, verify
from steinprod.opalg import ThetaOp
from steinprod.steinops import ProductSpec, adjoint_sides, build_stein, reduce_order

XYZ = ProductSpec(beta_pairs=((1.3, 0.6),), gamma_shapes=(1.4,), lam=1.0,
                  normal_count=1, sigma=1.0)


class TestReport:
    def test_json_round_trip(self):
        rep = verify.VerificationReport(
            test_id="t", estimate=1e-4, standard_error=1e-5, tolerance=1e-3,
            samples=10, seed=1, passed=True, details="d")
        data = json.loads(rep.to_json())
        assert data["version"] == verify.REPORT_VERSION
        assert data["passed"] is True

    def test_pass_criterion_shape(self):
        # passed <=> |estimate| <= max(tolerance, 3 se)
        rep = verify.mc_stein_identity(
            ProductSpec(normal_count=1, sigma=1.0),
            verify.TestFunctionFamily("gaussian_damped", (0, 1), 1.0),
            samples=20_000, seed=2)
        assert rep.passed == (abs(rep.estimate)
                              <= max(rep.tolerance, 3 * rep.standard_error))


class TestFamilies:
    def test_members_and_smoothness(self):
        fam = verify.TestFunctionFamily("exponential_damped", (0, 1, 2), 2.0)
        ms = fam.members()
        assert len(ms) == 3
        assert all(m.max_order == math.inf for m in ms)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            verify.TestFunctionFamily("bogus", (0,)).members()

    def test_default_family_scale(self):
        fam = verify.default_family(ProductSpec(normal_count=1, sigma=2.0))
        assert fam.tau == pytest.approx(2.0, rel=1e-10)


class TestMcStein:
    def test_classic_normal_identity(self):
        spec = ProductSpec(normal_count=1, sigma=1.0)
        fam = verify.TestFunctionFamily("monomial", (1,))
        rep = verify.mc_stein_identity(spec, fam, 400_000, seed=11)
        assert rep.passed

    def test_pg_monomials_within_mc_error(self):
        spec = ProductSpec(gamma_shapes=(1.4, 2.2), lam=1.0)
        fam = verify.TestFunctionFamily("monomial", (1, 2))
        rep = verify.mc_stein_identity(spec, fam, 400_000, seed=13)
        assert rep.passed

    def test_determinism(self):
        fam = verify.default_family(XYZ)
        r1 = verify.mc_stein_identity(XYZ, fam, 50_000, seed=21)
        r2 = verify.mc_stein_identity(XYZ, fam, 50_000, seed=21)
        assert r1.to_dict() == r2.to_dict()

    def test_order_beyond_smoothness_rejected(self):
        class Rough:
            max_order = 1

            def deriv(self, x, k=0):
                return 0.0 * np.asarray(x)

        fam = verify.TestFunctionFamily("gaussian_damped", (0,))
        members = fam.members()

        class Fam(verify.TestFunctionFamily):
            def members(self):
                return [Rough()]

        with pytest.raises(ValueError, match="smoothness"):
            verify.mc_stein_identity(XYZ, Fam("gaussian_damped", (0,)), 100, 1)


class TestStreamedStatistics:
    """Chunked sums and Chan-merged M2 against full-array numpy statistics."""

    @pytest.mark.parametrize("chunks", [1, 2, 3])
    def test_moments_match_full_arrays(self, chunks):
        n = chunks * verify.MC_CHUNK + 17
        vals = np.random.default_rng(chunks).normal(3.0, 2.0, (4, n)) ** 3
        moments = verify._StreamedMoments(4)
        for start in range(0, n, verify.MC_CHUNK):
            moments.add(vals[:, start:start + verify.MC_CHUNK])
        assert moments.count == n
        np.testing.assert_allclose(moments.mean(), np.mean(vals, axis=1), rtol=1e-12)
        np.testing.assert_allclose(moments.standard_error(),
                                   np.std(vals, axis=1, ddof=1) / math.sqrt(n), rtol=1e-12)

    @pytest.mark.parametrize("chunks", [1, 2, 3])
    def test_mc_report_matches_full_arrays(self, chunks):
        n = chunks * verify.MC_CHUNK + 17
        fam = verify.default_family(XYZ)
        rep = verify.mc_stein_identity(XYZ, fam, n, seed=31)
        w = dist.sample(XYZ, n, 31)
        ref = []
        for f in fam.members():
            lhs, rhs = build_stein(XYZ).apply_terms(f, w)
            vals = lhs - rhs
            ref.append((np.mean(vals), np.std(vals, ddof=1) / math.sqrt(n),
                        1e-3 * (np.mean(np.abs(lhs)) + np.mean(np.abs(rhs)))))
        est, se, tol = max(ref, key=lambda r: abs(r[0]) / max(r[2], 3 * r[1]))
        assert abs(rep.estimate - est) <= 1e-12 * tol / 1e-3
        assert rep.standard_error == pytest.approx(se, rel=1e-12)
        assert rep.tolerance == pytest.approx(tol, rel=1e-12)

    @pytest.mark.parametrize("chunks", [1, 2, 3])
    def test_reduced_report_matches_full_arrays(self, chunks):
        n = chunks * verify.MC_CHUNK + 17
        spec = ProductSpec(beta_pairs=((0.4, 0.6),), gamma_shapes=(2.0,), lam=1.0,
                           normal_count=1, sigma=1.0)
        f = funcs.gaussian_damped(2, 1.0)
        rep = verify.reduced_full_mc_compare(spec, f, n, seed=33)
        w = dist.sample(spec, n, 33)
        red = reduce_order(spec)
        a_full = build_stein(spec).apply(f, w)
        diff = a_full - red.apply(red.transformed_function(f), w)
        scale = np.mean(np.abs(a_full))
        assert abs(rep.estimate - np.mean(diff)) <= 1e-12 * scale
        assert rep.standard_error == pytest.approx(
            np.std(a_full, ddof=1) / math.sqrt(n), rel=1e-12)
        assert rep.tolerance == pytest.approx(1e-3 * scale, rel=1e-12)
        gap = np.max(np.abs(diff)) / np.max(np.abs(a_full))
        assert f"pointwise gap {gap:.2e}" in rep.details

    def test_one_sample_rejected(self):
        fam = verify.default_family(XYZ)
        with pytest.raises(ValueError, match="samples >= 2"):
            verify.mc_stein_identity(XYZ, fam, 1, seed=1)
        with pytest.raises(ValueError, match="samples >= 2"):
            verify.reduced_full_mc_compare(XYZ, funcs.gaussian_damped(2, 1.0), 1, seed=1)

    def test_memory_does_not_grow_with_members(self):
        # five members x two sides x 1e6 draws would be 80 MB per array set, and the
        # draws alone 8 MB: the walk keeps two blocks and a few chunk-sized arrays
        n = 1_000_000
        fam = verify.default_family(XYZ)
        tracemalloc.start()
        try:
            dist.sample(XYZ, n, 5)
            _, sample_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            verify.mc_stein_identity(XYZ, fam, n, 5)
            _, mc_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mc_peak <= sample_peak + 2 * 2**20, (mc_peak, sample_peak)
        assert mc_peak <= 4 * 2**20, mc_peak


def _one_block(spec, count, seed):
    """Reference walk: all of ``dist.sample`` as one block."""
    yield dist.sample(spec, count, seed)


# the Stein-identity table rows (m betas, n gammas, N normals) and the generalised gammas
ROWS = [ProductSpec(beta_pairs=((1.3, 0.6), (0.8, 1.15))[:m], gamma_shapes=(1.4, 2.45)[:n],
                    lam=1.3 if n else None, normal_count=N, sigma=0.8 if N else None)
        for m, n, N in [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
                        (1, 1, 1)]]
GG = [ProductSpec(gamma_shapes=(2.523, 1.94), lam=0.7, q=q) for q in (0.5, 2.0, 3.0)]
# the reduction cases (i)-(iv) and the rows with a beta and a normal
REDUCIBLE = [ProductSpec(beta_pairs=(pair,), gamma_shapes=(r,), lam=1.0, normal_count=1,
                         sigma=1.0)
             for pair, r in [((1.7, 1.0), 1.6), ((0.3, 0.7), 2.2), ((0.45, 0.55), 1.0),
                             ((0.6, 0.4), 2.0)]] + [ROWS[4], ROWS[6]]


class TestStreamedWalk:
    """The walks over ``dist.sample_blocks`` against one walk over ``dist.sample``."""

    COUNTS = [3 * verify.MC_CHUNK + 17, 2 * dist.SAMPLE_BLOCK + 3 * verify.MC_CHUNK + 5]

    def test_block_is_whole_chunks(self):
        assert dist.SAMPLE_BLOCK % verify.MC_CHUNK == 0

    @pytest.mark.parametrize("n", COUNTS)
    @pytest.mark.parametrize("spec", ROWS + GG, ids=lambda s: s.describe())
    def test_identity_bits_match_one_block(self, spec, n, monkeypatch):
        fam = verify.default_family(spec)
        rep = verify.mc_stein_identity(spec, fam, n, seed=41)
        monkeypatch.setattr(dist, "sample_blocks", _one_block)
        assert rep.to_dict() == verify.mc_stein_identity(spec, fam, n, seed=41).to_dict()

    @pytest.mark.parametrize("n", COUNTS)
    @pytest.mark.parametrize("spec", REDUCIBLE, ids=lambda s: s.describe())
    def test_reduced_bits_match_one_block(self, spec, n, monkeypatch):
        f = funcs.gaussian_damped(2, 1.0)
        rep = verify.reduced_full_mc_compare(spec, f, n, seed=43)
        monkeypatch.setattr(dist, "sample_blocks", _one_block)
        assert rep.to_dict() == verify.reduced_full_mc_compare(spec, f, n, seed=43).to_dict()

    def test_no_thread_outlives_a_call(self):
        baseline = threading.active_count()
        n = 3 * dist.SAMPLE_BLOCK + 11
        verify.mc_stein_identity(XYZ, verify.default_family(XYZ), n, seed=1)
        assert threading.active_count() == baseline
        verify.reduced_full_mc_compare(XYZ, funcs.gaussian_damped(2, 1.0), n, seed=1)
        assert threading.active_count() == baseline

        class NotPolyExp(verify.TestFunctionFamily):
            def members(self):  # smooth enough, but apply_terms needs PolyExp handles
                return [funcs.Sinusoid()]

        with pytest.raises(TypeError, match="PolyExp"):
            verify.mc_stein_identity(XYZ, NotPolyExp("monomial", (0,)), n, seed=1)
        assert threading.active_count() == baseline


class TestReducedCompare:
    @pytest.mark.parametrize("spec", [
        ProductSpec(beta_pairs=((1.3, 1.0),), gamma_shapes=(1.4,), lam=1.0,
                    normal_count=1, sigma=1.0),
        ProductSpec(beta_pairs=((0.4, 0.6),), gamma_shapes=(2.0,), lam=1.0,
                    normal_count=1, sigma=1.0),
    ])
    def test_pointwise_and_mean_agreement(self, spec):
        rep = verify.reduced_full_mc_compare(spec, funcs.gaussian_damped(2, 1.0),
                                             50_000, seed=3)
        assert rep.passed, rep.details


class TestAdjointScan:
    def test_gaussian_analytic(self):
        spec = ProductSpec(normal_count=1, sigma=1.0)
        rep = verify.adjoint_residual_scan(spec, np.linspace(-3, 3, 13), tolerance=1e-10)
        assert rep.passed and rep.estimate < 1e-10

    def test_pg_analytic(self):
        spec = ProductSpec(gamma_shapes=(1.4, 2.2), lam=1.0)
        rep = verify.adjoint_residual_scan(spec, np.geomspace(0.05, 10, 20), tolerance=1e-8)
        assert rep.passed

    def test_xyz_finite_difference(self):
        rep = verify.adjoint_residual_scan(XYZ, np.linspace(0.2, 5.0, 15))
        assert rep.passed
        assert rep.estimate < 1e-4

    def test_single_gamma_handle(self):
        spec = ProductSpec(gamma_shapes=(2.0,), lam=1.5)
        rep = verify.adjoint_residual_scan(spec, np.geomspace(0.1, 8, 15), tolerance=1e-10)
        assert rep.passed

    @pytest.mark.parametrize("spec, bound", [
        # rows that reduce to one b: the exponential closed form
        (ProductSpec(gamma_shapes=(1.37,), lam=0.8), 1e-10),
        (ProductSpec(beta_pairs=((1.3, 0.7),), gamma_shapes=(2.0,), lam=1.0), 1e-10),
        # compact support: the grid stays inside (0, 1) (FAILed at 0.278 and 0.674 on [0.05, 10])
        (ProductSpec(beta_pairs=((1.3, 0.7),)), 1e-4),
        (ProductSpec(beta_pairs=((1.5, 0.5),)), 1e-4),
    ])
    def test_standard_suite_route(self, spec, bound):
        rep, = verify.standard_suite(spec, suites=("adjoint",))
        assert rep.passed and rep.estimate <= bound

    def test_origin_points_excluded_and_reported(self):
        spec = ProductSpec(normal_count=2, sigma=1.0)
        grid = np.concatenate(([0.0], np.linspace(0.3, 4.0, 10)))
        rep = verify.adjoint_residual_scan(spec, grid, tolerance=1e-8)
        assert rep.passed
        assert "1 origin point(s) excluded" in rep.details


def _seeded_spec(m: int, n: int, N: int, lam: float = 1.0, sigma: float = 1.0,
                 seed: int = 0) -> ProductSpec:
    """m betas, n gammas and N normals with every shape drawn from U(0.5, 3)."""
    rng = np.random.default_rng([seed, m, n, N])
    shapes = [float(v) for v in rng.uniform(0.5, 3.0, size=2 * m + n)]
    return ProductSpec(beta_pairs=tuple(zip(shapes[:m], shapes[m:2 * m])),
                       gamma_shapes=tuple(shapes[2 * m:]), lam=lam if n else None,
                       normal_count=N, sigma=sigma if N else None)


def _order(spec: ProductSpec) -> int:
    return max(len(side.roots) for side in adjoint_sides(spec))


class TestAdjointResolution:
    """The scan passes, fails, or says that G's error times the cancellation
    ratio R exceeds its tolerance ("unresolved"): never a FAIL on a correct
    density that it cannot resolve."""

    @pytest.mark.parametrize("m, n, N", [
        mnN for mnN in itertools.product(range(3), repeat=3) if sum(mnN)])
    @pytest.mark.parametrize("lam, sigma", [(1.0, 1.0), (2.0, 0.5)])
    def test_sweep_passes_or_is_unresolved(self, m, n, N, lam, sigma):
        spec = _seeded_spec(m, n, N, lam, sigma)
        rep, = verify.standard_suite(spec, suites=("adjoint",))
        assert rep.passed or "unresolved" in rep.details, rep.details
        if _order(spec) <= 7:
            assert rep.passed, rep.details

    @pytest.mark.parametrize("m, n, N, order", [
        (0, 1, 0, 1), (1, 1, 0, 2), (0, 1, 1, 3), (2, 2, 0, 4),
        (1, 1, 1, 5), (1, 1, 2, 6), (2, 1, 1, 7)])
    def test_moved_root_fails_resolved(self, monkeypatch, m, n, N, order):
        # one lhs root of the density ODE moved by 1e-3: the density no longer solves it
        def moved(spec):
            lhs, rhs = adjoint_sides(spec)
            return ThetaOp(lhs.coeff, lhs.xpow, (lhs.roots[0] + 1e-3,) + lhs.roots[1:]), rhs

        spec = _seeded_spec(m, n, N)
        assert _order(spec) == order
        monkeypatch.setattr(verify, "adjoint_sides", moved)
        rep, = verify.standard_suite(spec, suites=("adjoint",))
        assert not rep.passed and "unresolved" not in rep.details, rep.details
        assert rep.estimate > rep.tolerance


class TestGeneralisedGamma:
    def test_pgg_mc_identity(self):
        spec = ProductSpec(gamma_shapes=(1.0, 1.5), lam=1.0, q=2.0)
        fam = verify.TestFunctionFamily("gaussian_damped", (0, 1, 2), 1.0)
        rep = verify.mc_stein_identity(spec, fam, 400_000, seed=29)
        assert rep.passed, rep.details


class TestMellinScan:
    @pytest.mark.parametrize("spec", [
        ProductSpec(normal_count=2, sigma=2.0),
        ProductSpec(gamma_shapes=(1.4, 2.2), lam=0.5),
        XYZ,
    ])
    def test_equality(self, spec):
        lo, _ = dist.mellin(spec).strip
        pts = np.linspace(max(lo + 0.1, 0.2), max(lo + 0.1, 0.2) + 5, 20)
        rep = verify.mellin_equality_scan(spec, pts)
        assert rep.passed and rep.estimate < 1e-10

    def test_second_moment_value(self):
        spec = ProductSpec(normal_count=2, sigma=1.0)
        # s = 3: E Z^2 for the two-normal product with unit scales
        assert dist.mellin(spec)(3.0) == pytest.approx(1.0, rel=1e-12)


class TestSamplerKs:
    @pytest.mark.parametrize("spec", [
        ProductSpec(gamma_shapes=(2.0,), lam=1.0),
        ProductSpec(gamma_shapes=(1.0, 1.0), lam=1.0),
        ProductSpec(normal_count=2, sigma=1.0),
    ])
    def test_pass_at_one_percent(self, spec):
        rep = verify.sampler_density_ks(spec, 100_000, seed=123)
        assert rep.passed, (rep.estimate, rep.tolerance)

    @pytest.mark.parametrize("pair", [(1.5, 0.5), (2.0, 0.8)])
    def test_beta_passes_at_200k(self, pair):
        # a CDF 2.8% low near a singular end point failed numpy's beta sampler here
        rep = verify.sampler_density_ks(ProductSpec(beta_pairs=(pair,)), 200_000, seed=1)
        assert rep.tolerance == 1.63 / math.sqrt(200_000)
        assert rep.passed, (rep.estimate, rep.tolerance)


class TestSuite:
    def test_standard_suite_all_pass(self):
        reports = verify.standard_suite(
            ProductSpec(normal_count=1, sigma=1.0), samples=100_000, seed=5)
        assert len(reports) == 5
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("spec", [
        *(ProductSpec(gamma_shapes=(1.4, 2.45), lam=1.3, q=q) for q in (0.5, 2.0, 3.0)),
        *(ProductSpec(gamma_shapes=(0.9, 1.7, 2.6), lam=0.8, q=q) for q in (0.5, 2.0, 3.0)),
    ], ids=lambda s: s.describe())
    def test_generalised_gamma_all_pass(self, spec):
        reports = verify.standard_suite(spec, samples=200_000, seed=3)
        assert [r.test_id.split("[")[0] for r in reports] == [
            "mc-stein", "adjoint-ode", "mellin-equality", "sampler-ks", "moment-recursion"]
        assert all(r.passed for r in reports), [(r.test_id, r.estimate, r.tolerance, r.details)
                                                for r in reports]

    @pytest.mark.parametrize("exact, floats", [
        (ProductSpec(gamma_shapes=(F(2), F(3)), lam=F(3, 2), q=F(1, 2)),
         ProductSpec(gamma_shapes=(2.0, 3.0), lam=1.5, q=0.5)),
        (ProductSpec(beta_pairs=((F(13, 10), F(3, 5)),), gamma_shapes=(F(7, 5),), lam=F(1),
                     normal_count=1, sigma=F(3, 2)), None),
    ], ids=["PGG", "XYZ"])
    def test_exact_rational_specs_pass(self, exact, floats):
        # an array raised to a Fraction x-power crashed the stein, adjoint and ks suites of
        # the generalised gamma (UFuncTypeError, UFuncOutputCastingError, isnan TypeError)
        reports = verify.standard_suite(exact, samples=100_000, seed=3)
        assert len(reports) == 5 and all(r.passed for r in reports)
        if floats is not None:  # the same numbers as the float spec, names aside
            strip = [{**r.to_dict(), "test_id": None} for r in reports]
            assert strip == [{**r.to_dict(), "test_id": None}
                             for r in verify.standard_suite(floats, samples=100_000, seed=3)]

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify.standard_suite(XYZ, suites=("bogus",))

    @pytest.mark.parametrize("spec", [XYZ, ProductSpec(gamma_shapes=(2.0,), lam=1.0, q=0.5)],
                             ids=lambda s: s.describe())
    def test_moment_suite_is_the_recursion_check(self, spec):
        [rep] = verify.standard_suite(spec, suites=("moment",))
        assert rep.to_dict() == verify.moment_recursion_check(spec, 6).to_dict() and rep.passed

    @pytest.mark.parametrize("q", [0.5, 2.0, 3.0])
    def test_generalised_gamma_ks_at_200k(self, q):
        spec = ProductSpec(gamma_shapes=(0.9, 1.7, 2.6), lam=0.8, q=q)
        rep = verify.sampler_density_ks(spec, 200_000, seed=11)
        assert rep.passed, (rep.estimate, rep.tolerance)

    def test_suite_determinism(self):
        a = [r.to_dict() for r in verify.standard_suite(XYZ, 20_000, seed=9,
                                                        suites=("stein",))]
        b = [r.to_dict() for r in verify.standard_suite(XYZ, 20_000, seed=9,
                                                        suites=("stein",))]
        assert a == b
