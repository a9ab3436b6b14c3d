"""Smooth function handles with closed-form derivatives of every order.

Operator identities are verified against function families whose
derivatives are available analytically, so Monte Carlo noise stays the
only stochastic error source.  The workhorse family is p(x) exp(q(x))
with polynomial p, q, which is closed under differentiation and under
theta = x d/dx: ``PolyExp.theta_image`` applies a theta-form chain
prod (theta + r_i) in closed form and returns another ``PolyExp``, and
``poly_exp_rows`` evaluates several of them that share q in one pass.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _poly_deriv(c: np.ndarray) -> np.ndarray:
    if len(c) <= 1:
        return np.zeros(1)
    return c[1:] * np.arange(1, len(c))


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n)
    out[: len(a)] += a
    out[: len(b)] += b
    return out


def _poly_eval(c: np.ndarray, x):
    """Horner's rule, in place on one output array."""
    out = np.full(np.shape(x), c[-1])
    for ck in c[-2::-1]:
        out *= x
        out += ck
    return out if np.ndim(x) else out[()]


class PolyExp:
    """f(x) = p(x) exp(q(x)) with polynomial p, q (ascending coefficients)."""

    max_order = math.inf

    def __init__(self, p: Sequence[float], q: Sequence[float] = (0.0,)):
        self._p0 = np.asarray(p, dtype=float)
        self._q = np.asarray(q, dtype=float)
        self._qp = _poly_deriv(self._q)
        self._cache = [self._p0]
        self._images: dict[tuple, PolyExp] = {}

    def _prefactor(self, k: int) -> np.ndarray:
        while len(self._cache) <= k:
            last = self._cache[-1]
            self._cache.append(_poly_add(_poly_deriv(last), np.convolve(last, self._qp)))
        return self._cache[k]

    def deriv(self, x, k: int = 0):
        return _poly_eval(self._prefactor(k), x) * np.exp(_poly_eval(self._q, x))

    def __call__(self, x):
        return self.deriv(x, 0)

    def theta_image(self, roots) -> "PolyExp":
        """prod_i (theta + r_i) f, theta = x d/dx, as a PolyExp with the same q.

        (theta + r)(p e^q) = (x p' + r p + x q' p) e^q: one polynomial
        update per root, with x p' + r p = sum_k (k + r) p_k x^k.  Images
        are kept per root tuple, so repeated sides cost one dict lookup.
        """
        roots = tuple(roots)
        image = self._images.get(roots)
        if image is None:
            p = self._p0
            xqp = np.concatenate(([0.0], self._qp))
            for r in roots:
                p = _poly_add(p * (np.arange(len(p)) + float(r)), np.convolve(p, xqp))
            image = self._images[roots] = PolyExp(p, self._q)
        return image


def poly_exp_rows(fs: Sequence[PolyExp], x) -> np.ndarray:
    """Rows fs[i](x), shape (len(fs),) + x.shape, for PolyExps sharing one q.

    One exp(q(x)) serves every row, and one Horner pass runs over the
    prefactors with the rows sorted by degree, highest first: a row joins
    the pass at its own leading coefficient, and each step advances only
    the rows already started, so each row has the bits of ``fs[i](x)``.
    """
    q = fs[0]._q
    if any(f._q is not q and not np.array_equal(f._q, q) for f in fs[1:]):
        raise ValueError("stacked PolyExp rows need one shared q")
    x = np.asarray(x, dtype=float)
    order = sorted(range(len(fs)), key=lambda i: -len(fs[i]._p0))
    sizes = [len(fs[i]._p0) for i in order]
    coeffs = np.zeros((sizes[0], len(fs)) + (1,) * x.ndim)
    for row, i in enumerate(order):
        coeffs[: sizes[row], row].flat = fs[i]._p0
    out = np.empty((len(fs),) + x.shape)
    started = 0
    for k in range(sizes[0] - 1, -1, -1):
        out[:started] *= x
        out[:started] += coeffs[k, :started]
        joined = started + sizes.count(k + 1)
        out[started:joined] = coeffs[k, started:joined]
        started = joined
    out *= np.exp(_poly_eval(q, x))
    # back to the callers' order in place, one spare row per cycle: a second
    # array of every row cost more in fresh memory pages than the padding did
    source = {i: row for row, i in enumerate(order)}
    for i in range(len(fs)):
        if source[i] == i:
            continue
        spare, j = out[i].copy(), i
        while source[j] != i:
            out[j] = out[source[j]]
            source[j], j = j, source[j]
        out[j], source[j] = spare, j
    return out


class Sinusoid:
    """f(x) = amp * sin(omega x + phase); k-th derivative shifts the phase."""

    max_order = math.inf

    def __init__(self, omega: float = 1.0, phase: float = 0.0, amp: float = 1.0):
        self.omega = omega
        self.phase = phase
        self.amp = amp

    def deriv(self, x, k: int = 0):
        return self.amp * self.omega**k * np.sin(self.omega * x + self.phase + k * math.pi / 2)

    def __call__(self, x):
        return self.deriv(x, 0)


class BoundedRational:
    """f(x) = x / (s + x), bounded on x >= 0 with all derivatives bounded."""

    max_order = math.inf

    def __init__(self, shift: float = 1.0):
        self.shift = shift

    def deriv(self, x, k: int = 0):
        if k == 0:
            return x / (self.shift + x)
        # x/(s+x) = 1 - s/(s+x); d^k of (s+x)^{-1} is (-1)^k k! (s+x)^{-k-1}
        return -self.shift * (-1.0) ** k * math.factorial(k) * (self.shift + x) ** (-k - 1)

    def __call__(self, x):
        return self.deriv(x, 0)


def bessel_ladder(alpha: float, nu: float, sign: float, rate: float, power: float,
                  k_max: int) -> np.ndarray:
    """L[k, j], k, j <= k_max: order k of x^alpha Phi_nu(rate x^power), Phi = I (sign +1)
    or K (sign -1), is x^{alpha-k} sum_j L[k, j] x^{j power} Phi_{nu+j}.  By the one-sided
    recurrences Phi'_nu = sign Phi_{nu+1} + (nu/z) Phi_nu (DLMF 10.29.2), L[k+1, j] =
    (alpha - k + (nu + 2j) power) L[k, j] + sign rate power L[k, j-1], alpha and nu unrounded."""
    ladder = np.zeros((k_max + 1, k_max + 1))
    ladder[0, 0] = 1.0
    shift = (nu + 2.0 * np.arange(k_max + 1)) * power
    for k in range(k_max):
        ladder[k + 1] = (alpha - k + shift) * ladder[k]
        ladder[k + 1, 1:] += sign * rate * power * ladder[k, :-1]
    return ladder


def ladder_sum(ladder: np.ndarray, alpha: float, power: float, x: np.ndarray, rows) -> np.ndarray:
    """Orders k < len(rows) of x^alpha Phi_nu(rate x^power), shape lead + (len(rows),) +
    x.shape, from ``bessel_ladder`` tables ladder[..., k, j] (lead = ladder.shape[:-2])
    and rows[j] = Phi_{nu+j}(rate x^power), shape lead + x.shape."""
    order, lead = len(rows), ladder.shape[:-2]
    u, tail = x**power, (1,) * x.ndim
    total = sum(ladder[..., :order, j].reshape(lead + (order,) + tail)
                * np.expand_dims(u**j * rows[j], len(lead)) for j in range(order))
    return x ** (alpha - np.arange(order)).reshape((order,) + tail) * total


class BesselPowerComb:
    """sum_i c_i x^{alpha_i} Phi_{nu_i}(rate * x^power) with Phi in {K, I}, differentiated
    to any order by ``bessel_ladder`` and summed by ``ladder_sum``."""

    max_order = math.inf

    def __init__(self, terms, rate: float, power: float = 1.0):
        # terms: iterable of (coeff, alpha, nu, kind) with kind "k" or "i"
        self.terms, self.rate, self.power = list(terms), rate, power

    def deriv(self, x, k: int = 0):
        """k-th derivative at x: one Bessel call per kind for all the orders it needs."""
        from .specfun import bessel_i, bessel_k

        xs = np.asarray(x, dtype=float)
        arg = self.rate * xs**self.power
        out = np.zeros_like(xs)
        for kind, fn, sign in (("i", bessel_i, 1.0), ("k", bessel_k, -1.0)):
            terms = [t for t in self.terms if t[3] == kind]
            if terms:
                nus = np.add.outer([t[2] for t in terms], np.arange(k + 1.0))
                rows = fn(nus.reshape(nus.shape + (1,) * arg.ndim), arg)
                for (c, alpha, nu, _), row in zip(terms, rows):
                    ladder = bessel_ladder(alpha, nu, sign, self.rate, self.power, k)
                    out = out + c * ladder_sum(ladder, alpha, self.power, xs, row)[k]
        return out if np.ndim(x) else float(out)

    def __call__(self, x):
        return self.deriv(x, 0)


def constant(c: float = 1.0) -> PolyExp:
    return PolyExp([c])


def monomial(m: int) -> PolyExp:
    return PolyExp([0.0] * m + [1.0])


def gaussian_damped(i: int, tau: float = 1.0) -> PolyExp:
    """x^i exp(-x^2 / (2 tau^2)): rapidly decaying with all moments finite."""
    return PolyExp([0.0] * i + [1.0], [0.0, 0.0, -0.5 / tau**2])


def exponential_damped(i: int, tau: float = 1.0) -> PolyExp:
    """x^i exp(-x / tau): suitable for positive-support factors."""
    return PolyExp([0.0] * i + [1.0], [0.0, -1.0 / tau])


def exp_decay(rate: float = 1.0) -> PolyExp:
    return PolyExp([1.0], [0.0, -rate])


def gaussian_bump(tau: float = 1.0) -> PolyExp:
    return PolyExp([1.0], [0.0, 0.0, -0.5 / tau**2])
