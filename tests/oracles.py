"""Independent oracles the tests check the library against.

Each is a second route to a quantity the library computes another way: a
termwise operator comparison, the exact action on monomials, composition
identities, the Leibniz-expanded adjoint, the G parameter shift, the
homogeneous Stein residual, the stage mean-zero gap of the bound
recursion, the closed tail constants and the Gamma duplication formula.
"""

from __future__ import annotations

import math

import numpy as np

from steinprod import dist, steinsolve
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
    return MeijerGParams.upper_zero([x + c for x in params.a],
                                    [x + c for x in params.b])


# ---------------------------------------------------------------------------
# two-gamma Stein equation
# ---------------------------------------------------------------------------

def homogeneous_residual(r1: float, r2: float, lam: float, x: float) -> tuple[float, float]:
    """Stein-operator value on the two fundamental homogeneous solutions (K first)."""
    from steinprod.specfun import bessel_i, bessel_k

    s, delta, xs = 0.5 * (r1 + r2), abs(r1 - r2), np.array([float(x)])
    nu, z = delta + np.array(steinsolve._LADDER)[:, None], 2.0 * lam * np.sqrt(xs)
    rows = np.stack([bessel_i(nu, z), bessel_k(nu, z)], axis=1)  # rows[j] = (I_{d+j}, K_{d+j})
    w, w1, w2 = steinsolve._prefactors(steinsolve._ladder(s, delta, lam), s, xs,
                                       rows).transpose(1, 0, 2)
    val = x * x * w2 + (1.0 + r1 + r2) * x * w1 + (r1 * r2 - lam**2 * x) * w
    return float(val[1, 0]), float(val[0, 0])


def stage_mean_zero_gap(r1: float, r2: float, lam: float, h) -> float:
    """|E[h'(Y') + lam^2 f(Y')]| for Y' with both shapes shifted by one."""
    sol = steinsolve.SteinSolution(r1=r1, r2=r2, lam=lam, h=h)
    x_reach = (1.0 + (130.0 + 10.0 * (r1 + r2 + 2)) / (2.0 * lam)) ** 2
    rhs = steinsolve._StageFunction(h, 1, lam,
                                    steinsolve._GriddedFunction(sol, x_reach, points=2500))
    return abs(steinsolve.expect_pg(r1 + 1.0, r2 + 1.0, lam, rhs))


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
