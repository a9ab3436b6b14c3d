"""Exact algebra of linear differential operators with power coefficients.

An operator is a finite sum ``sum_{k,j} c_{k,j} x^j D^k`` acting on smooth
functions of one real variable.  The building blocks are the first-order
operators

    T_r : f |-> x f'(x) + r f(x)

their compositions (chains), and the order-N operator

    A_N : f |-> x^{-1} T_0^N f(x) = d/dx (T_0^{N-1} f(x)),

which expands into Stirling numbers of the second kind.  Coefficient
arithmetic stays exact (int / Fraction) whenever all inputs are exact;
float parameters degrade the coefficients to float.

With theta = x D = T_0, every operator the library builds is held in
theta-form, ``ThetaOp(coeff, xpow, roots)`` = coeff x^xpow prod (theta + r_i):
a chain is its root list, the Lebesgue adjoint maps each root r to
1 + xpow - r, and ``expand`` gives the ``PolyDiffOp``.

Negative x-powers are permitted in stored terms (x^{-1} T_0^N has one);
``is_polynomial`` reports whether an operator is free of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

Coeff = object  # int | Fraction | float
TermKey = tuple[int, int]  # (derivative order k, x-power j)


def _is_exact(value) -> bool:
    return isinstance(value, Rational)


def falling(a, i: int):
    """Falling factorial a (a-1) ... (a-i+1); exact if ``a`` is exact."""
    out = 1 if _is_exact(a) else 1.0
    for step in range(i):
        out = out * (a - step)
    return out


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via the alternating binomial sum."""
    if k < 0 or n < 0:
        raise ValueError("stirling2 requires nonnegative arguments")
    if k > n:
        raise ValueError(f"stirling2 needs k <= n, got n={n}, k={k}")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    total = 0
    for j in range(k + 1):
        term = math.comb(k, j) * j**n
        total += term if (k - j) % 2 == 0 else -term
    assert total % math.factorial(k) == 0
    return total // math.factorial(k)


class PolyDiffOp:
    """Immutable linear differential operator with power coefficients.

    ``terms`` maps ``(k, j)`` to the coefficient of ``x^j D^k``.  Zero
    coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[TermKey, Coeff] | None = None):
        clean: dict[TermKey, Coeff] = {}
        for (k, j), c in (terms or {}).items():
            if k < 0:
                raise ValueError("derivative order must be nonnegative")
            if c != 0:
                clean[(int(k), int(j))] = c
        self._terms = clean

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero() -> "PolyDiffOp":
        return PolyDiffOp({})

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> dict[TermKey, Coeff]:
        return dict(self._terms)

    @property
    def order(self) -> int:
        """Highest derivative index present (0 for the zero operator)."""
        return max((k for k, _ in self._terms), default=0)

    @property
    def is_polynomial(self) -> bool:
        return all(j >= 0 for _, j in self._terms)

    def coeff(self, k: int, j: int) -> Coeff:
        return self._terms.get((k, j), 0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        terms = dict(self._terms)
        for key, c in other._terms.items():
            new = terms.get(key, 0) + c
            if new == 0:
                terms.pop(key, None)
            else:
                terms[key] = new
        return PolyDiffOp(terms)

    def __sub__(self, other: "PolyDiffOp") -> "PolyDiffOp":
        return self + other.scale(-1)

    def scale(self, c: Coeff) -> "PolyDiffOp":
        if c == 0:
            return PolyDiffOp.zero()
        return PolyDiffOp({key: c * v for key, v in self._terms.items()})

    def compose(self, inner: "PolyDiffOp") -> "PolyDiffOp":
        """Operator composition self o inner (``inner`` acts first).

        Uses Leibniz:  D^k (x^j g) = sum_i C(k,i) j^(i falling) x^{j-i} D^{k-i} g.
        """
        terms: dict[TermKey, Coeff] = {}
        for (k1, j1), c1 in self._terms.items():
            for (k2, j2), c2 in inner._terms.items():
                for i in range(k1 + 1):
                    f = falling(j2, i)
                    if f == 0:
                        continue
                    key = (k1 - i + k2, j1 + j2 - i)
                    add = c1 * c2 * math.comb(k1, i) * f
                    new = terms.get(key, 0) + add
                    if new == 0:
                        terms.pop(key, None)
                    else:
                        terms[key] = new
        return PolyDiffOp(terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyDiffOp):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- action -------------------------------------------------------------

    def apply(self, f, x):
        """Evaluate (self f)(x) for a handle ``f`` with ``f.deriv(x, k)``.

        ``x`` may be a scalar or a numpy array; the handle decides.
        """
        if self.order > getattr(f, "max_order", math.inf):
            raise ValueError("function handle cannot supply the required order")
        out = None
        for (k, j), c in sorted(self._terms.items()):
            piece = (float(c) if not isinstance(c, float) else c) * x**j * f.deriv(x, k)
            out = piece if out is None else out + piece
        if out is None:
            return 0.0 * x
        return out

    # -- presentation ---------------------------------------------------------

    def __repr__(self):
        return f"PolyDiffOp({self.pretty()})"

    def pretty(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (k, j) in sorted(self._terms, key=lambda kj: (-kj[0], -kj[1])):
            c = self._terms[(k, j)]
            if isinstance(c, Fraction):
                cs = str(c)
            elif isinstance(c, float):
                cs = f"{c:.12g}"
            else:
                cs = str(c)
            factors = []
            if j == 1:
                factors.append("x")
            elif j != 0:
                factors.append(f"x^{j}")
            if k == 1:
                factors.append("D")
            elif k > 1:
                factors.append(f"D^{k}")
            body = " ".join(factors)
            parts.append(f"{cs} {body}".strip() if body else cs)
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> str:
        items = [{"k": k, "j": j, "coeff": float(c)}
                 for (k, j), c in sorted(self._terms.items())]
        return json.dumps({"terms": items, "order": self.order})


def make_t(r) -> PolyDiffOp:
    """The operator T_r f = x f' + r f."""
    terms = {(1, 1): 1}
    if r != 0:
        terms[(0, 0)] = r
    return PolyDiffOp(terms)


def compose_chain(rs: Sequence) -> PolyDiffOp:
    """Chain T_{r_n} ... T_{r_1} built by explicit composition."""
    rs = list(rs)
    if not rs:
        raise ValueError("empty chain")
    op = make_t(rs[0])
    for r in rs[1:]:
        op = make_t(r).compose(op)
    return op


def make_an(n: int) -> PolyDiffOp:
    """The operator A_N = x^{-1} T_0^N = sum_k S(N,k) x^{k-1} D^k."""
    if n < 1:
        raise ValueError("A_N requires N >= 1")
    return PolyDiffOp({(k, k - 1): stirling2(n, k) for k in range(1, n + 1)})


@dataclass(frozen=True)
class ThetaOp:
    """The operator coeff * x^xpow * prod_i (theta + roots_i), theta = x D.

    Since T_r = theta + r, a chain B_rs is ThetaOp(1, 0, rs), and every
    Stein operator of the paper is a difference of two such sides.
    ``xpow`` may be non-integer (generalised gamma); such a side has no
    expanded form.
    """

    coeff: Coeff
    xpow: object
    roots: tuple = ()

    def theta_coeffs(self) -> list:
        """Ascending coefficients of coeff * prod_i (theta + r_i) in theta."""
        out = [self.coeff]
        for r in self.roots:
            out = [r * c + lower for c, lower in zip(out + [0], [0] + out)]
        return out

    def expand(self) -> PolyDiffOp:
        """Expanded form sum_k b_k x^{k + xpow} D^k.

        (theta + r) x^k D^k = (k + r) x^k D^k + x^{k+1} D^{k+1} gives b one
        root at a time.  This equals mapping theta^k = sum_j S(k, j) x^j D^j
        over ``theta_coeffs``, but in floats it does not cancel when roots
        are negative (adjoint sides).
        """
        if self.xpow != int(self.xpow):
            raise ValueError(f"x-power {self.xpow!r} is not an integer")
        b = [self.coeff]
        for r in self.roots:
            b = [(k + r) * c + lower for k, (c, lower) in enumerate(zip(b + [0], [0] + b))]
        return PolyDiffOp({(k, k + int(self.xpow)): c for k, c in enumerate(b)})

    def adjoint(self) -> "ThetaOp":
        """Formal adjoint under Lebesgue measure.

        theta* = -theta - 1 and theta x^j = x^j (theta + j), so
        (x^j P(theta))* = P(-theta - 1) x^j = x^j P(-theta - j - 1).
        """
        return ThetaOp(self.coeff * (-1) ** len(self.roots), self.xpow,
                       tuple(1 + self.xpow - r for r in self.roots))


def disentangle_b(rs: Sequence) -> PolyDiffOp:
    """Closed-form expansion of the chain T_{r_n} ... T_{r_1}."""
    if not rs:
        raise ValueError("empty chain")
    return ThetaOp(1, 0, tuple(rs)).expand()
