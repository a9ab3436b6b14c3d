"""Quadrature helpers: Gauss-Legendre panels, adaptivity, tanh-sinh.

These are deliberately small: panel Gauss-Legendre with interval halving
covers the smooth integrands, and tanh-sinh handles integrable endpoint
singularities (power or logarithmic) that the product densities exhibit
at the origin.
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
    """Gauss-Legendre values of many panels, shape (..., panels).

    The integrand sees one flat node array per chunk; a result of shape
    (c, nodes) gives c components per panel.
    """
    x, w = gauss_legendre(GL_ORDER)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    parts = []
    for start in range(0, lo.size, _CHUNK_PANELS):
        sl = slice(start, start + _CHUNK_PANELS)
        nodes = (mid[sl, None] + half[sl, None] * x).ravel()
        vals = np.asarray(f(nodes), dtype=float)
        vals = np.broadcast_to(vals, vals.shape[:-1] + nodes.shape)
        vals = vals.reshape(vals.shape[:-1] + (-1, GL_ORDER))
        parts.append(half[sl] * np.sum(w * vals, axis=-1))
    return np.concatenate(parts, axis=-1)


def _accepted(f: Callable, lo: np.ndarray, hi: np.ndarray, tol: float, rtol: float):
    """Level-wise halving of the panels [lo, hi], accept test as in ``adaptive``: yields
    each level's accepted panels as (index of their interval, lo, value (..., panels)).
    A panel whose value or halves are not finite is never accepted, so it raises at once."""
    owner = np.arange(lo.size)
    whole = _gl_panels(f, lo, hi)
    for depth in range(_MAX_DEPTH, -1, -1):
        if not lo.size:
            return
        mid = 0.5 * (lo + hi)
        halves = _gl_panels(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = np.split(halves, 2, axis=-1)
        both = left + right
        if not (finite := np.isfinite(whole) & np.isfinite(both)).all():
            bad = ~np.all(finite.reshape(-1, lo.size), axis=0)
            raise NumericalError(f"non-finite integrand on [{lo[bad].min():.6g}, {hi[bad].max():.6g}]")
        ok = np.abs(both - whole) <= np.maximum(tol, rtol * np.abs(whole))
        done = np.all(ok.reshape(-1, lo.size), axis=0) | (depth <= 0)
        yield owner[done], lo[done], both[..., done]
        keep = ~done
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        whole = np.concatenate([left[..., keep], right[..., keep]], axis=-1)
        owner = np.concatenate([owner[keep], owner[keep]])


def adaptive(f: Callable, a, b, tol: float = 1e-10, rtol: float = 1e-12):
    """Adaptive Gauss-Legendre by interval halving, one level at a time.

    A panel is split until the halving correction |left + right - whole|
    is below max(tol, rtol * |whole|), or _MAX_DEPTH halvings are reached;
    the relative term keeps large-magnitude integrands from recursing
    into roundoff noise.  A panel with a non-finite value raises
    ``NumericalError`` naming its interval instead of being halved.
    ``a`` and ``b`` may be arrays of interval ends: the pending panels of
    every interval share one integrand call per level (chunked at
    _CHUNK_PANELS panels).  An integrand returning shape
    (c, n) is integrated per component, and a panel is accepted only when
    every component passes; the result then has a leading axis c.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    levels = list(_accepted(f, lo.ravel(), hi.ravel(), tol, rtol))
    total = np.zeros(levels[0][2].shape[:-1] + (lo.size,))
    for owner, _, value in levels:
        np.add.at(total, (..., owner), value)
    total = total.reshape(total.shape[:-1] + lo.shape)
    return float(total) if total.ndim == 0 else total


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
