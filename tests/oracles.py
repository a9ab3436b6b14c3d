"""Independent oracles the tests check the library against.

Each is a second route to a quantity the library computes another way: a
termwise operator comparison, the exact action on monomials, composition
identities, the Leibniz-expanded adjoint, the G parameter shift, the
homogeneous Stein residual, the stage mean-zero gap and the derivative
sups of the Stein solution, the Stein solution in the scaled two-sided
form by scipy quadrature, the closed tail constants and the Gamma
duplication formula.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from steinprod import dist, steinsolve
from steinprod.funcs import ladder_sum
from steinprod.opalg import PolyDiffOp, compose_chain, falling, make_an
from steinprod.specfun import MeijerGParams

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------

def isclose(op: PolyDiffOp, other: PolyDiffOp, rtol: float = 1e-12) -> bool:
    """Termwise comparison with relative tolerance (for float parameters)."""
    a_terms, b_terms = op.terms, other.terms
    for key in set(a_terms) | set(b_terms):
        a = float(a_terms.get(key, 0))
        b = float(b_terms.get(key, 0))
        if abs(a - b) > rtol * max(1.0, abs(a), abs(b)):
            return False
    return True


def apply_to_monomial(op: PolyDiffOp, m: int) -> dict:
    """Exact action on x^m, returned as {power: coefficient}.

    x^j D^k x^m = m^(k falling) x^{m-k+j}.
    """
    out: dict = {}
    for (k, j), c in op.terms.items():
        f = falling(m, k)
        if f == 0:
            continue
        p = m - k + j
        new = out.get(p, 0) + c * f
        if new == 0:
            out.pop(p, None)
        else:
            out[p] = new
    return out


def shift_past_an(rs, n: int) -> tuple[PolyDiffOp, PolyDiffOp]:
    """Return the pair (A_N o B_rs, B_{rs+1} o A_N); the two are equal."""
    rs = list(rs)
    if not rs:
        raise ValueError("empty chain")
    left = make_an(n).compose(compose_chain(rs))
    right = compose_chain([r + 1 for r in rs]).compose(make_an(n))
    return left, right


def adjoint_expanded(op: PolyDiffOp, gamma) -> PolyDiffOp:
    """General expanded adjoint sum (-1)^k x^{-gamma} D^k (x^{gamma+j} . ).

    Oracle for ``ThetaOp.adjoint``; works on any expanded operator.
    """
    terms: dict = {}
    for (k, j), c in op.terms.items():
        for i in range(k + 1):
            f = falling(gamma + j, i)
            if f == 0:
                continue
            key = (k - i, j - i)
            add = c * math.comb(k, i) * f * (-1) ** k
            new = terms.get(key, 0) + add
            if new == 0:
                terms.pop(key, None)
            else:
                terms[key] = new
    return PolyDiffOp(terms)


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------

def shift_params(params: MeijerGParams, c: float) -> MeijerGParams:
    """Parameter translation: z^c G(z | a; b) = G(z | a + c; b + c)."""
    return MeijerGParams([x + c for x in params.a],
                         [x + c for x in params.b])


# ---------------------------------------------------------------------------
# two-gamma Stein equation
# ---------------------------------------------------------------------------

def homogeneous_residual(r1: float, r2: float, lam: float, x: float) -> tuple[float, float]:
    """Stein-operator value on the two fundamental homogeneous solutions (K first)."""
    from steinprod.specfun import bessel_i, bessel_k

    s, delta, xs = 0.5 * (r1 + r2), abs(r1 - r2), np.array([float(x)])
    nu, z = delta + np.arange(3.0)[:, None], 2.0 * lam * np.sqrt(xs)  # orders d, d+1, d+2
    rows = np.stack([bessel_i(nu, z), bessel_k(nu, z)], axis=1)  # rows[j] = (I_{d+j}, K_{d+j})
    w, w1, w2 = ladder_sum(steinsolve._ladder(s, delta, lam), -s, 0.5, xs,
                           rows).transpose(1, 0, 2)
    val = x * x * w2 + (1.0 + r1 + r2) * x * w1 + (r1 * r2 - lam**2 * x) * w
    return float(val[1, 0]), float(val[0, 0])


def stage_mean_zero_gap(r1: float, r2: float, lam: float, h) -> float:
    """|E[h'(Y') + lam^2 f(Y')]| for Y' with both shapes shifted by one: the once
    differentiated equation has no constant term, so f' solves it and the mean is 0."""
    sol = steinsolve.SteinSolution(r1=r1, r2=r2, lam=lam, h=h)

    class Stage:
        def deriv(self, x, k=0):
            return h.deriv(x, 1) + lam**2 * sol.values(x)

    return abs(steinsolve.expect_pg(r1 + 1.0, r2 + 1.0, lam, Stage()))


def richardson(f, x, step, levels: int = 4):
    """f'(x) from central differences at step, step / 2, ... extrapolated in step^2."""
    d = [(f(x + step / 2**i) - f(x - step / 2**i)) / (2.0 * step / 2**i) for i in range(levels)]
    for m in range(1, levels):
        d = [(4**m * d[i + 1] - d[i]) / (4**m - 1) for i in range(len(d) - 1)]
    return d[0]


def origin_series(r1: float, r2: float, lam: float, h, e_h: float, xs, order: int,
                  terms: int = 40) -> np.ndarray:
    """f^{(k)}(xs), k <= order, from the Taylor series at 0 of the bounded solution, term
    by term: the equation differentiated j times reads at x = 0
    (r1 + j)(r2 + j) f^{(j)}(0) = h^{(j)}(0) - [j = 0] E h + j lam^2 f^{(j-1)}(0)."""
    c = [(float(h.deriv(0.0, 0)) - e_h) / (r1 * r2)]
    for j in range(1, terms + order):
        c.append((float(h.deriv(0.0, j)) + j * lam**2 * c[-1]) / ((r1 + j) * (r2 + j)))
    return np.array([[math.fsum(c[k + j] * x**j / math.factorial(j) for j in range(terms))
                      for x in xs] for k in range(order + 1)])


def derivative_sups(r1: float, r2: float, lam: float, h, grid) -> tuple[list[float], float]:
    """Grid sups of |f|, |f'|, |f''| on a solution at tol 1e-12: the origin series for
    x <= 0.05, and elsewhere ``values`` with Richardson differences of it (f') and of
    ``derivative(x, 1)`` (f'').  Also the series' largest relative gap to ``values``."""
    sol = steinsolve.SteinSolution(r1=r1, r2=r2, lam=lam, h=h, tol=1e-12)
    grid = np.asarray(grid, dtype=float)
    near, far = grid[grid <= 0.05], grid[grid > 0.05]
    series = origin_series(r1, r2, lam, h, sol.e_h, near, 2)
    gap = float(np.max(np.abs(series[0] - sol.values(near)) / np.abs(series[0]), initial=0.0))
    rows = np.stack([sol.values(far), richardson(sol.values, far, 0.05 * far),
                     richardson(lambda x: sol._derivatives(x, 1)[1], far, 0.05 * far)])
    return np.max(np.abs(np.concatenate([series, rows], axis=1)), axis=1).tolist(), gap


def two_sided_reference(r1: float, r2: float, lam: float, h, e_h: float, x: float) -> np.ndarray:
    """(f, f', f'')(x) from f = -2 x^{-s} [(e^z K_d(z)) (e^{-z} J_I(x)) + (e^{-z} I_d(z)) (e^z T_K(x))],
    z = 2 lam sqrt(x), J_I = int_0^x t^{s-1} I_d h-tilde dt and T_K = int_x^inf t^{s-1}
    K_d h-tilde dt: every kernel scaled at the point (scipy ``ive``/``kve``), each integral
    taken in t by scipy ``quad`` at epsrel 1e-13 over the window where its scaled kernel
    exceeds e^{-80}; a ``Sinusoid`` h goes to quad's sine and cosine weights (QUADPACK
    QAWO).  The derivatives differentiate only the prefactors x^{-s} P_d(z), by
    P' = (P_{d-1} + P_{d+1}) / 2 for I (minus that for K) and the Bessel equation, and
    add h-tilde / x^2 to f''."""
    import scipy.integrate as integrate
    import scipy.special as sp

    from steinprod.funcs import Sinusoid

    s, d, u = 0.5 * (r1 + r2), abs(r1 - r2), math.sqrt(x)
    z, reach = 2.0 * lam * u, 80.0 / (2.0 * lam)

    def kernel(scaled, sign):  # t^{s-1} e^{-+z} P(2 lam sqrt t), P scaled at t
        return lambda t: t ** (s - 1.0) * scaled(d, 2.0 * lam * math.sqrt(t)) * math.exp(
            sign * (2.0 * lam * math.sqrt(t) - z))

    def integral(k, a, b):
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=2000)
        if a == 0.0 and b > 1.0:  # QAWO evaluates its ends, and t^{s-1} may be singular at 0
            return integral(k, 0.0, 1.0) + integral(k, 1.0, b)
        if isinstance(h, Sinusoid) and a > 0.0:  # amp sin(omega t + phase) - E h
            sin = integrate.quad(k, a, b, weight="sin", wvar=h.omega, **opts)[0]
            cos = integrate.quad(k, a, b, weight="cos", wvar=h.omega, **opts)[0]
            rest = -e_h * integrate.quad(k, a, b, **opts)[0]
            return h.amp * (math.cos(h.phase) * sin + math.sin(h.phase) * cos) + rest
        return integrate.quad(lambda t: k(t) * (float(h.deriv(t, 0)) - e_h), a, b, **opts)[0]

    with warnings.catch_warnings():  # epsrel 1e-13 is at rounding, where QUADPACK warns
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        ji = integral(kernel(sp.ive, 1.0), max(u - reach, 0.0) ** 2, x)
        tk = integral(kernel(sp.kve, -1.0), x, (u + reach) ** 2)
    dz, ddz = z / (2.0 * x), -z / (4.0 * x * x)  # z'(x), z''(x)
    f = np.zeros(3)
    for p, sign, weight in ((sp.kve, -1.0, ji), (sp.ive, 1.0, tk)):
        p0 = p(d, z)
        p1 = sign * 0.5 * (p(d - 1.0, z) + p(d + 1.0, z))
        p2 = (1.0 + d * d / (z * z)) * p0 - p1 / z
        f += -2.0 * weight * x ** -s * np.array([
            p0, -s / x * p0 + dz * p1,
            s * (s + 1.0) / (x * x) * p0 - 2.0 * s / x * dz * p1 + ddz * p1 + dz * dz * p2])
    f[2] += (float(h.deriv(x, 0)) - e_h) / (x * x)
    return f


def two_sided_sups(r1: float, r2: float, lam: float, h, grid) -> list[float]:
    """Grid sups of |f|, |f'|, |f''|: ``origin_series`` up to the switch min(0.1, 1/(4 lam^2))
    and ``two_sided_reference`` past it, both with E h from ``steinsolve.expect_pg``."""
    e_h = steinsolve.expect_pg(r1, r2, lam, h)
    grid = np.asarray(grid, dtype=float)
    near, far = grid[grid <= min(0.1, 0.25 / lam**2)], grid[grid > min(0.1, 0.25 / lam**2)]
    rows = [origin_series(r1, r2, lam, h, e_h, near, 2)]
    rows.append(np.array([two_sided_reference(r1, r2, lam, h, e_h, x) for x in far]).T.reshape(3, -1))
    return np.max(np.abs(np.concatenate(rows, axis=1)), axis=1).tolist()


# ---------------------------------------------------------------------------
# tails and moments
# ---------------------------------------------------------------------------

def tail_alpha(spec) -> float:
    """Power-law prefactor exponent of the symmetric density tail."""
    n, N = spec.n, spec.N
    s = sum(spec.gamma_shapes) - sum(b for _, b in spec.beta_pairs)
    return 2.0 / (2 * n + N) * (0.5 * (1.0 - 3 * n - N) + s)


def tail_constant(spec) -> float:
    """Multiplier of |x|^alpha exp(-(2n+N) y^{1/(2n+N)}) in the tail formula."""
    ev = dist.density(spec)
    n, N = spec.n, spec.N
    alpha = tail_alpha(spec)
    sig = 2 * n + N
    return ((2.0 * math.pi) ** (0.5 * (sig - 1)) / math.sqrt(sig)
            * ev.arg_coeff ** (0.5 * alpha) * ev.const)


def duplication_gap(s: float) -> float:
    """Relative defect of Gamma(s/2) Gamma(s/2 + 1/2) = 2^{1-s} sqrt(pi) Gamma(s)."""
    lhs = math.lgamma(0.5 * s) + math.lgamma(0.5 * s + 0.5)
    rhs = (1.0 - s) * _LN2 + 0.5 * _LNPI + math.lgamma(s)
    return abs(lhs - rhs) / max(1.0, abs(rhs))
