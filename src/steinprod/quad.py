"""Quadrature helpers: Gauss-Legendre panels, adaptivity, tanh-sinh.

These are deliberately small: panel Gauss-Legendre with interval halving
covers the smooth integrands, one interval of one real integrand at a time,
and tanh-sinh is the one rule for an integral from a power-law end (a
density's x^{h b_min} at 0 or (1 - y)^{psi - 1} at a compact support's cut,
the Stein solver's t^{max(r1, r2) - 1}), in a power map set by the
caller's exponent.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .specfun import NumericalError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
GL_ORDER = 16  # Gauss-Legendre nodes per panel
_MAX_DEPTH = 24  # halvings of an adaptive panel
_TS_MAX_LEVEL = 10  # tanh-sinh levels: the finest step is 2^-10


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def gl_panel(f: Callable, a: float, b: float) -> float:
    x, w = gauss_legendre(GL_ORDER)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(w * f(mid + half * x)))


# Panels evaluated per integrand call: bounds the node array (and the
# integrand's temporaries) at 4096 points however many panels are pending.
_CHUNK_PANELS = 256


def _gl_panels(f: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre values of the panels [lo, hi]: one flat node array per chunk."""
    x, w = gauss_legendre(GL_ORDER)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    parts = []
    for start in range(0, lo.size, _CHUNK_PANELS):
        sl = slice(start, start + _CHUNK_PANELS)
        nodes = (mid[sl, None] + half[sl, None] * x).ravel()
        vals = np.broadcast_to(np.asarray(f(nodes), dtype=float), nodes.shape)
        parts.append(half[sl] * np.sum(w * vals.reshape(-1, GL_ORDER), axis=-1))
    return np.concatenate(parts)


def adaptive(f: Callable, a: float, b: float, tol: float = 1e-10, rtol: float = 1e-12) -> float:
    """Adaptive Gauss-Legendre of one real integrand on [a, b], halving one level at a time.

    A panel is split until the halving correction |left + right - whole|
    is below max(tol, rtol * |whole|), or _MAX_DEPTH halvings are reached;
    the relative term keeps large-magnitude integrands from recursing
    into roundoff noise.  A panel with a non-finite value raises
    ``NumericalError`` naming its interval instead of being halved.  The
    pending panels of a level share one integrand call (chunked at
    _CHUNK_PANELS panels), and the accepted panels are summed one after another.
    """
    lo, hi = np.array([float(a)]), np.array([float(b)])
    whole = _gl_panels(f, lo, hi)
    accepted = [np.zeros(1)]
    for depth in range(_MAX_DEPTH, -1, -1):
        if not lo.size:
            break
        mid = 0.5 * (lo + hi)
        halves = _gl_panels(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = np.split(halves, 2)
        both = left + right
        if not (finite := np.isfinite(whole) & np.isfinite(both)).all():
            raise NumericalError(f"non-finite integrand on [{lo[~finite].min():.6g}, {hi[~finite].max():.6g}]")
        keep = (np.abs(both - whole) > np.maximum(tol, rtol * np.abs(whole))) & (depth > 0)
        accepted.append(both[~keep])
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    return float(np.cumsum(np.concatenate(accepted))[-1])


def tanh_sinh(f: Callable, a: float, b: float, exponent: float, tol: float) -> float:
    """int_a^b f for f ~ |x - a|^exponent at a (times a power of log), exponent > -1.

    Tanh-sinh (Takahasi & Mori 1974) in v on (0, 1) with x = a + (b - a) v^k and
    k = max(2, 2 / (1 + exponent)), so that the integrand k (b - a) v^(k-1) f(x)
    vanishes like v at a; b > a or b < a, and f is regular at b.  A node whose x rounds
    onto a or b is dropped.  The nodes are t = j 2^-l, |t| <= 4: every one at l = 2 in one
    call of f, then the new ones of each level, until two levels agree within
    max(tol, tol |result|).
    """
    k = max(2.0, 2.0 / (1.0 + exponent))
    total, result = 0.0, math.nan
    for level in range(2, _TS_MAX_LEVEL + 1):
        n = 4 << level
        t = np.arange(-n + (level > 2), n + 1, 1 + (level > 2)) / 2.0**level
        u = 0.5 * math.pi * np.sinh(t)
        v, dv = 1.0 / (1.0 + np.exp(-2.0 * u)), math.pi * np.cosh(t) / (2.0 + 2.0 * np.cosh(2.0 * u))
        x = a + (b - a) * v**k
        keep = (x != a) & (x != b)
        total += float(np.sum(dv[keep] * v[keep] ** (k - 1.0) * f(x[keep])))
        last, result = result, k * (b - a) * total / 2.0**level
        if abs(result - last) <= max(tol, tol * abs(result)):  # never at the first level
            break
    return result
