"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import scipy.special as sp

from steinprod import dist, funcs, steinsolve, verify
from steinprod.opalg import PolyDiffOp, compose_chain, disentangle_b
from steinprod.specfun import MeijerGParams, meijer_g, meijer_g_batch, reduce_params
from steinprod.steinops import ProductSpec, build_stein, reduce_order

from oracles import duplication_gap, shift_params, shift_past_an

BETAS = ((1.3, 0.6), (0.8, 1.15))
GAMMAS = (1.4, 2.45)


def _report(num: int, name: str, passed: bool, info: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {tag} {name}" + (f" ({info})" if info else ""))
    assert passed, f"criterion {num}: {name} {info}"


def make_spec(m: int, n: int, N: int, lam: float = 1.0, sigma: float = 1.0) -> ProductSpec:
    return ProductSpec(
        beta_pairs=BETAS[:m],
        gamma_shapes=GAMMAS[:n],
        lam=lam if n else None,
        normal_count=N,
        sigma=sigma if N else None)


def test_criterion_1_operator_algebra_exactness():
    rng = np.random.default_rng(20240813)
    start = time.time()
    checked = 0
    for _ in range(110):
        length = int(rng.integers(1, 7))
        rs = [F(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
              for _ in range(length)]
        n = int(rng.integers(1, 5))
        perm = list(rng.permutation(length))
        assert compose_chain(rs) == compose_chain([rs[i] for i in perm])
        assert disentangle_b(rs) == compose_chain(rs)
        left, right = shift_past_an(rs, n)
        assert left == right
        checked += 1
    elapsed = time.time() - start
    _report(1, "operator-algebra exactness (commutativity, shift, disentangle)",
            checked >= 100 and elapsed < 5.0,
            f"{checked} tuples in {elapsed:.2f}s")


def test_criterion_2_classical_recovery():
    a, b, r, lam, sig = F(13, 10), F(7, 10), F(2), F(3, 2), F(1)
    beta_op = build_stein(ProductSpec(beta_pairs=((a, b),))).operator
    ok_beta = beta_op == PolyDiffOp(
        {(1, 1): 1, (1, 2): -1, (0, 0): a, (0, 1): -(a + b)})
    gamma_op = build_stein(ProductSpec(gamma_shapes=(r,), lam=lam)).operator
    ok_gamma = gamma_op == PolyDiffOp({(1, 1): 1, (0, 0): r, (0, 1): -lam})
    normal_op = build_stein(ProductSpec(normal_count=1, sigma=sig)).operator
    ok_normal = normal_op == PolyDiffOp({(1, 0): sig**2, (0, 1): -1})
    _report(2, "classical beta/gamma/normal operators recovered termwise",
            ok_beta and ok_gamma and ok_normal)


def test_criterion_3_meijer_g_kernel():
    start = time.time()
    exp_params = MeijerGParams([], [0.0])
    worst_exp = max(abs(meijer_g(exp_params, x, 1e-12) - math.exp(-x))
                    for x in np.linspace(0.1, 10.0, 34))
    ok_exp = worst_exp <= 1e-10

    worst_bessel = 0.0
    for nu in np.linspace(0.0, 3.0, 13):
        params = MeijerGParams([], [nu / 2, -nu / 2])
        for y in np.geomspace(0.1, 10.0, 7):
            mine = meijer_g(params, y, 1e-11)
            ref = 2.0 * sp.kv(nu, 2.0 * math.sqrt(y))
            worst_bessel = max(worst_bessel, abs(mine - ref) / ref)
    ok_bessel = worst_bessel <= 1e-9

    worst_shift = 0.0
    params = MeijerGParams([], [0.45, 0.1, -0.25])
    for c in (-2.5, -1.0, 0.7, 3.0):
        for z in (0.3, 1.7):
            lhs = z**c * meijer_g(params, z, 1e-11)
            rhs = meijer_g(shift_params(params, c), z, 1e-11)
            worst_shift = max(worst_shift, abs(lhs - rhs) / max(1.0, abs(lhs)))
    red_pair = MeijerGParams([0.7], [0.7, 0.0, 0.3])
    red = reduce_params(red_pair)
    for z in (0.4, 1.3, 4.0):
        lhs = meijer_g(red_pair, z, 1e-11)
        rhs = meijer_g(red, z, 1e-11)
        worst_shift = max(worst_shift, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok_ident = worst_shift <= 1e-9
    elapsed = time.time() - start
    _report(3, "Meijer-G kernel identities (exp, Bessel-K, shift, reduction)",
            ok_exp and ok_bessel and ok_ident and elapsed < 30.0,
            f"exp {worst_exp:.1e}, bessel {worst_bessel:.1e}, "
            f"ident {worst_shift:.1e}, {elapsed:.1f}s")


def test_criterion_4_density_normalisation_and_reductions():
    worst_norm = 0.0
    count = 0
    for m in range(3):
        for n in range(3):
            for N in range(3):
                if m + n + N == 0:
                    continue
                for lam in ((0.5, 1.0, 2.0) if n else (1.0,)):
                    for sigma in ((0.5, 1.0, 2.0) if N else (1.0,)):
                        spec = make_spec(m, n, N, lam, sigma)
                        total = dist.normalization(spec)
                        worst_norm = max(worst_norm, abs(total - 1.0))
                        count += 1
    ok_norm = worst_norm <= 1e-6

    # displayed closed forms: two-normal K0 and two-gamma Bessel
    worst_red = 0.0
    pn2 = dist.density(ProductSpec(normal_count=2, sigma=1.0))
    xs = np.linspace(0.3, 4.0, 9)
    gvals = pn2.const * meijer_g_batch(pn2.reduced, pn2.argument(xs), pn2.tol)
    for x, g in zip(xs, gvals):
        ref = sp.kv(0, x) / math.pi
        worst_red = max(worst_red, abs(g - ref) / ref)
    r1, r2, lam = GAMMAS[0], GAMMAS[1], 1.0
    pg2 = dist.density(ProductSpec(gamma_shapes=(r1, r2), lam=lam))
    xs = np.linspace(0.3, 6.0, 9)
    gvals = pg2.const * meijer_g_batch(pg2.reduced, pg2.argument(xs), pg2.tol)
    for x, g in zip(xs, gvals):
        ref = (2 * lam ** (r1 + r2) / (math.gamma(r1) * math.gamma(r2))
               * x ** ((r1 + r2) / 2 - 1) * sp.kv(r1 - r2, 2 * lam * math.sqrt(x)))
        worst_red = max(worst_red, abs(g - ref) / ref)
    ok_red = worst_red <= 1e-8
    _report(4, "density normalisation and closed-form reductions",
            ok_norm and ok_red,
            f"{count} specs, worst |I-1| {worst_norm:.1e}, reductions {worst_red:.1e}")


def test_criterion_5_mellin_equality():
    worst = 0.0
    for m in range(3):
        for n in range(3):
            for N in range(3):
                if m + n + N == 0:
                    continue
                spec = make_spec(m, n, N, lam=1.5, sigma=0.8)
                mel = dist.mellin(spec)
                lo, _ = mel.strip
                s0 = max(lo + 0.1, 0.2)
                for s in np.linspace(s0, s0 + 6.0, 20):
                    lhs = mel.log_value(float(s))
                    rhs = dist.mellin_gform_log(spec, float(s))
                    worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    dup = max(duplication_gap(float(s)) for s in range(2, 9))
    _report(5, "Mellin equality: factorised vs G-integral transforms",
            worst <= 1e-10 and dup <= 1e-13,
            f"worst rel gap {worst:.1e}, duplication {dup:.1e}")


TABLE_ROWS = {
    "X": make_spec(2, 0, 0),
    "Y": make_spec(0, 2, 0, lam=1.5),
    "Z": make_spec(0, 0, 2, sigma=1.0),
    "XY": make_spec(1, 1, 0, lam=1.0),
    "XZ": make_spec(1, 0, 1, sigma=1.0),
    "YZ": make_spec(0, 1, 1, lam=1.0, sigma=1.0),
    "XYZ": make_spec(1, 1, 1, lam=1.0, sigma=1.0),
}


def test_criterion_6_monte_carlo_stein_identities():
    start = time.time()
    all_ok = True
    info = []
    for row, spec in TABLE_ROWS.items():
        fam = verify.default_family(spec)
        assert len(fam.indices) >= 5
        rep = verify.mc_stein_identity(spec, fam, 1_000_000, seed=101)
        all_ok &= rep.passed
        info.append(f"{row}:{'ok' if rep.passed else 'FAIL'}")
    # monomial cases: analytic moment recursions at machine precision
    for spec in (make_spec(0, 2, 0, lam=1.5), make_spec(0, 0, 2, sigma=1.3)):
        rep = verify.moment_recursion_check(spec, 6)
        all_ok &= rep.passed and rep.estimate <= 1e-12
    elapsed = time.time() - start
    _report(6, "Monte Carlo Stein identities for every product row",
            all_ok and elapsed < 120.0,
            f"{' '.join(info)}, {elapsed:.0f}s")


def test_criterion_7_order_reduction():
    cases = [
        ("i: uniform-type b=1", ProductSpec(beta_pairs=((1.3, 1.0),),
                                            gamma_shapes=(1.4,), lam=1.0,
                                            normal_count=1, sigma=1.0), 4),
        ("ii: arcsine-type a+b=1", ProductSpec(beta_pairs=((0.4, 0.6),),
                                               gamma_shapes=(1.3,), lam=1.0,
                                               normal_count=1, sigma=1.0), 4),
        ("iii: a+b=1, r=1", ProductSpec(beta_pairs=((0.4, 0.6),),
                                        gamma_shapes=(1.0,), lam=1.0,
                                        normal_count=1, sigma=1.0), 3),
        ("iv: a+b=1, r=2", ProductSpec(beta_pairs=((0.4, 0.6),),
                                       gamma_shapes=(2.0,), lam=1.0,
                                       normal_count=1, sigma=1.0), 3),
    ]
    ok = True
    details = []
    for name, spec, expected in cases:
        red = reduce_order(spec)
        order_ok = red.reduced_order == expected
        rep = verify.reduced_full_mc_compare(spec, funcs.gaussian_damped(2, 1.0),
                                             300_000, seed=7)
        ok &= order_ok and rep.passed
        details.append(f"({name.split(':')[0]}) order {red.reduced_order}")
    _report(7, "order reduction cases (i)-(iv): counts and MC agreement",
            ok, ", ".join(details))


def test_criterion_8_stein_equation_solution():
    hs = {
        "const": funcs.constant(1.0),
        "exp": funcs.exp_decay(1.0),
        "sin": funcs.Sinusoid(),
        "rational": funcs.BoundedRational(1.0),
        "gauss": funcs.gaussian_bump(1.0),
    }
    params = [(1.0, 1.0), (2.0, 0.5), (1.5, 1.5)]
    grid = np.geomspace(0.01, 50.0, 18)
    worst_res, worst_rep = 0.0, 0.0
    bound_ok = True
    for r1, r2 in params:
        for name, h in hs.items():
            sol = steinsolve.solve_stein_pg(r1, r2, 1.0, h)
            res = max(abs(steinsolve.stein_residual(sol, float(x))) for x in grid)
            worst_res = max(worst_res, res)
            for x in (0.1, 1.0, 10.0):
                gap = abs(sol.value(x) - sol.value_tail_form(x))
                worst_rep = max(worst_rep, gap)
        if r1 == r2:
            h = funcs.Sinusoid()
            sol = steinsolve.solve_stein_pg(r1, r2, 1.0, h)
            sup_h = 1.0 + abs(sol.e_h)
            bound_ok &= abs(sol.value(1e-3)) <= 4.0 * sup_h / (r1 + r2) ** 2 + 1e-6
    _report(8, "two-gamma Stein equation: residuals, representations, small-x bound",
            worst_res <= 1e-6 and worst_rep <= 1e-8 and bound_ok,
            f"residual {worst_res:.1e}, representation gap {worst_rep:.1e}")


def test_criterion_9_adjoint_ode_residuals():
    spec_n = ProductSpec(normal_count=1, sigma=1.0)
    rep_n = verify.adjoint_residual_scan(spec_n, np.linspace(-3, 3, 13), tolerance=1e-8)
    spec_pg = ProductSpec(gamma_shapes=(1.4, 2.2), lam=1.0)
    rep_pg = verify.adjoint_residual_scan(spec_pg, np.geomspace(0.05, 10, 20), tolerance=1e-8)
    spec_xyz = ProductSpec(beta_pairs=((1.3, 0.6),), gamma_shapes=(1.4,),
                           lam=1.0, normal_count=1, sigma=1.0)
    rep_xyz = verify.adjoint_residual_scan(spec_xyz, np.linspace(0.2, 5.0, 20),
                                           tolerance=1e-4)
    _report(9, "adjoint ODE annihilates densities",
            rep_n.passed and rep_pg.passed and rep_xyz.passed,
            f"normal {rep_n.estimate:.1e}, PG {rep_pg.estimate:.1e}, "
            f"XYZ {rep_xyz.estimate:.1e}")


def test_criterion_10_tail_asymptotics():
    # evaluated near the largest representable densities (exponential factor
    # e^-550, far below the e^-20 qualifier); the leading-order correction
    # decays like sigma/exponent, so shallower points are not representative
    worst = 0.0
    count = 0
    for m in range(3):
        for n in range(3):
            for N in range(1, 3):
                spec = make_spec(m, n, N)
                ev = dist.density(spec)
                sig = 2 * n + N
                y = (550.0 / sig) ** sig
                x = math.sqrt(y / ev.arg_coeff)
                assert sig * y ** (1.0 / sig) >= 20.0
                ratio = ev(x) / dist.tail_asymptotic(spec, x)
                worst = max(worst, abs(ratio - 1.0))
                count += 1
    _report(10, "tail asymptote ratio within 5% deep in the tail",
            worst <= 0.05, f"{count} specs, worst |ratio-1| {worst:.3f}")


def test_criterion_11_characteristic_function():
    specs = [make_spec(0, 0, 1), make_spec(1, 0, 1), make_spec(0, 1, 1),
             make_spec(1, 1, 1)]
    ok = True
    worst_bound = 0.0
    for spec in specs:
        ok &= dist.char_function(spec, 0.0) == 1.0
        w = dist.sample(spec, 1_000_000, seed=23)
        for t in (0.5, 1.0, 2.0):
            phi = dist.char_function(spec, t)
            worst_bound = max(worst_bound, abs(phi) - 1.0)
            mc = np.cos(t * w)
            est = float(np.mean(mc))
            se = float(np.std(mc, ddof=1) / math.sqrt(len(w)))
            ok &= abs(phi - est) <= 3.0 * se
    _report(11, "characteristic function: phi(0)=1, |phi|<=1, MC agreement",
            ok and worst_bound <= 1e-9,
            f"{len(specs)} specs x 3 frequencies")
