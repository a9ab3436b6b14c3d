"""Quadrature helpers: Gauss-Legendre panels, adaptivity, tanh-sinh.

These are deliberately small: panel Gauss-Legendre with interval halving
covers the smooth integrands, one interval of one real integrand at a time,
and tanh-sinh handles integrable endpoint singularities (power or
logarithmic) that the product densities exhibit at the origin.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .specfun import NumericalError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
GL_ORDER = 16  # Gauss-Legendre nodes per panel
_MAX_DEPTH = 24  # halvings of an adaptive panel
_TS_MAX_LEVEL = 10  # tanh-sinh step halvings


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


def tanh_sinh(f: Callable, a: float, b: float, tol: float = 1e-12) -> float:
    """Tanh-sinh rule on (a, b); tolerates integrable endpoint singularities."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def nodes(h: float, ks: np.ndarray):
        t = h * ks
        u = 0.5 * math.pi * np.sinh(t)
        x = np.tanh(u)
        w = 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        return x, w

    def eval_points(x: np.ndarray, w: np.ndarray) -> float:
        pts = mid + half * x
        inside = (pts > a) & (pts < b)
        if not np.any(inside):
            return 0.0
        vals = f(pts[inside])
        return float(np.sum(np.asarray(vals) * w[inside]))

    h = 1.0
    kmax = 4
    ks = np.arange(-kmax, kmax + 1)
    x, w = nodes(h, ks)
    total = eval_points(x, w)
    result = half * h * total
    for level in range(1, _TS_MAX_LEVEL + 1):
        h *= 0.5
        kmax = int(6.0 / h)
        new_ks = np.arange(-kmax, kmax + 1)
        odd = new_ks[new_ks % 2 != 0]  # nodes not already evaluated
        x, w = nodes(h, odd)
        total += eval_points(x, w)
        new_result = half * h * total
        if level >= 3 and abs(new_result - result) <= max(tol, tol * abs(new_result)):
            return new_result
        result = new_result
    return result
