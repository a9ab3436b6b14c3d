"""Solution of the two-gamma product Stein equation and derivative bounds.

For Y a product of two gammas with shapes r1, r2 and rate lam, the Stein equation
x^2 f'' + (1 + r1 + r2) x f' + (r1 r2 - lam^2 x) f = h(x) - E h(Y) =: h~(x) is solved by
variation of parameters on x^{-s} K_d(z), x^{-s} I_{|d|}(z), z = 2 lam sqrt(x),
s = (r1+r2)/2, d = r1-r2, read in the two-sided form

    f(x) = -(2 / x^s) [ K_d(z) J_I(x) + I_{|d|}(z) T_K(x) ],
    J_I(x) = int_0^x t^{s-1} I_{|d|}(2 lam sqrt t) h~(t) dt,   T_K(x) = int_x^inf (same, K_d),

as t^{s-1} K_d is proportional to the density of Y.  J_I grows like e^z and T_K decays
like e^{-z}, so nothing cancels (the forward form, J_K from 0, does once z passes 20).
Derivatives differentiate the prefactors (``_ladder``, ``funcs.ladder_sum``): the J
terms collapse through the Wronskian and leave h~ / x^2 in f''.  So the residual does
not check J_I or T_K; the gap to ``value_tail_form`` does.  The solution is one table of
Chebyshev cells of f, f', f'' (``SteinSolution._extend``), each a function of the cell
alone; a point in built cells takes no Bessel or quadrature call.  Up to min(0.1, 1/(4
lam^2)), where f'' loses about 1/x^2 to I/K cancellation, the Taylor series at 0 is read
instead (``_derivatives``).  One domain, x >= 0 with z <= 600 (``_domain``).  As f^{(k)}
solves the equation of shapes r + k, ``estimate_derivative_bounds`` reads one solution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
import numpy as np

from . import quad
from .funcs import bessel_ladder, ladder_sum
from .steinops import ProductSpec
from .dist import _density_integral, density
from . import specfun
from .specfun import NumericalError

_Z_CAP = 600.0  # 2 lam sqrt(x) at the edge of the solution's domain
# base cells' edges in z: 0, 2^-12 to 32, every 8 to the cap, 640; and each one's T_K top
_Z_EDGES = np.r_[0.0, np.ldexp(1.0, np.arange(-12, 6)), np.arange(40.0, _Z_CAP + 1.0, 8.0), 640.0]
_TOPS = np.minimum(np.searchsorted(_Z_EDGES, _Z_EDGES[1:] + 40.0), _Z_EDGES.size - 1)
_IN_DOMAIN = _Z_EDGES.size - 2  # base cells up to the cap
_NODES, _CHOP, _NOISE = 32, 1e-11, 1e-9  # Chebyshev nodes per cell; see ``SteinSolution._level``
_MAX_HALVINGS, _MAX_CELLS = 30, 1 << 16
_LADDER = (0.0, 1.0, 2.0)  # the orders d + j that f, f' and f'' need
_SERIES_TERMS = 60  # terms of the origin series of f^{(k)}
_FACTORIALS = np.array([math.factorial(j) for j in range(_SERIES_TERMS)], dtype=float)


@functools.cache  # on first use: numpy.polynomial is not loaded at import
def _chebyshev() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-kind nodes t_j on [-1, 1], ascending; the map from values at them to
    Chebyshev coefficients; and the map to int_{-1}^{t_j} (rows j) and int_{-1}^{1}."""
    from numpy.polynomial import chebyshev as cheb

    t = -np.cos(np.pi * (np.arange(_NODES) + 0.5) / _NODES)
    fit = 2.0 / _NODES * cheb.chebvander(t, _NODES - 1).T
    fit[0] *= 0.5
    area = cheb.chebvander(np.r_[t, 1.0], _NODES) @ cheb.chebint(np.eye(_NODES), lbnd=-1)
    return t, fit, area @ fit


def _nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _chebyshev()[0]


def _apply(mat: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """mat on the last axis of vals; not BLAS, whose rows' bits depend on their place in the
    batch."""
    return np.einsum("...j,kj->...k", vals, mat)


def expect_pg(r1: float, r2: float, lam: float, h, tol: float = 1e-11) -> float:
    """E h(Y) for Y ~ two-gamma product: ``dist._density_integral`` of h against Y's
    K-Bessel density p, up to ``mass_cut(tol)``, past which x p(x) and P(Y > x) are below
    1e-3 tol (so is the dropped part of E h for |h| <= 1)."""
    ev = density(ProductSpec(gamma_shapes=(r1, r2), lam=lam))
    return _density_integral(ev, lambda x: h.deriv(x, 0) * ev.batch(x), math.inf, tol)


@dataclass
class SteinSolution:
    """Solved Stein equation with its table of Chebyshev cells of f, f', f''."""

    r1: float
    r2: float
    lam: float
    h: object
    e_h: float = field(init=False)
    tol: float = 1e-10

    def __post_init__(self):
        for name, v in (("r1", self.r1), ("r2", self.r2), ("lam", self.lam)):
            if not v > 0:
                raise ValueError(f"{name} must be positive")
        if not hasattr(self.h, "deriv"):
            raise ValueError("h must be a handle exposing deriv(x, k)")
        self.e_h = expect_pg(self.r1, self.r2, self.lam, self.h,
                             tol=max(self.tol * 0.1, 1e-12))
        self.s = 0.5 * (self.r1 + self.r2)
        self.delta = abs(self.r1 - self.r2)
        self._ladder = _ladder(self.s, self.delta, self.lam)
        self._nodes = []  # node data per base cell built (``_build``), None once in the cells
        self._j = [0.0]  # e^{-z} J_I at the bottom of each base cell with cells of f, and next
        # the cells of f: edges in z and the coefficients of f, f', f'', shape (cell, 3, node)
        self._lo, self._hi, self._cells = np.zeros(0), np.zeros(0), np.zeros((0, 3, _NODES))
        self._coef = None  # the origin series' coefficients (``_origin_series``)

    def h_tilde(self, x):
        return self.h.deriv(x, 0) - self.e_h

    def _kernel(self, u, bessel, scale):
        """The J_I (bessel_i) or T_K (bessel_k) integrand in u = sqrt(t), times scale."""
        z = 2.0 * self.lam * u
        return 2.0 * u ** (2.0 * self.s - 1.0) * self.h_tilde(u * u) * bessel(self.delta, z) * scale

    def _build(self, stop: int) -> None:
        """Node data of the base cells len(self._nodes) to stop, each halved level by level
        until ``_level`` passes.  J_I over the first cell, which every cell above carries,
        is ``quad.adaptive`` in w = (z / z_1)^(1/2), where its power of u at 0 is milder."""
        base = np.arange(len(self._nodes), stop)
        lo, hi, done = _Z_EDGES[base], _Z_EDGES[base + 1], []
        for depth in range(_MAX_HALVINGS + 1):
            if lo.size > _MAX_CELLS:
                raise NumericalError(f"{lo.size} cells do not resolve h past 2 lam sqrt(x) = "
                                     f"{lo.min():.6g}")
            ok, h, pair, a = (np.concatenate(p) for p in zip(*(  # 1024 cells per call at most
                self._level(lo[k:k + 1024], hi[k:k + 1024], depth == _MAX_HALVINGS)
                for k in range(0, lo.size, 1024))))
            done.append((base[ok], lo[ok], hi[ok], h[ok], pair[ok], a[ok]))
            mid = 0.5 * (lo + hi)[~ok]
            lo, hi, base = np.r_[lo[~ok], mid], np.r_[mid, hi[~ok]], np.tile(base[~ok], 2)
            if not lo.size:
                break
        order = np.argsort(np.concatenate([part[1] for part in done]))
        base, lo, hi, h, pair, a = (np.concatenate(p)[order] for p in zip(*done))
        if base[0] == 0:  # J_I over the first cell, whose integrand is a power of u at 0
            u1, up = hi[0] / (2.0 * self.lam), hi[0] / self.lam * math.exp(-hi[0])  # du = 2 u1 w dw
            a[0, 0, -1] = quad.adaptive(lambda w: self._kernel(u1 * w * w, specfun.bessel_i, up * w),
                                        0.0, 1.0, self.tol * 0.005, 1e-11)
        a[:, 1, :-1] = a[:, 1, -1:] - a[:, 1, :-1]  # K: from each node to the cell's top
        for b in range(len(self._nodes), stop):
            self._nodes.append(tuple(p[base == b] for p in (lo, hi, h, pair, a)))

    def _level(self, lo: np.ndarray, hi: np.ndarray, last: bool) -> tuple:
        """Cells [lo, hi] in z: resolved where the last four Chebyshev coefficients of both
        integrands (I e^{-hi}, K e^{lo}) are below 1e-11 e^{-dz} or eps x e^{-dz} of the largest
        or level off below 1e-9, tested on 2 u^{2s-1} h~ first so that only the others (and the
        cells kept anyway) take a Bessel call; h~, (I_d e^{-lo}, K_d e^{hi}) and the integrals."""
        _, fit, area = _chebyshev()
        z, u, span = _nodes(lo, hi), _nodes(lo, hi) / (2.0 * self.lam), np.exp(lo - hi)[:, None]
        floor = np.maximum(_CHOP, 2.2e-16 * (0.5 * hi[:, None] / self.lam) ** 2)

        def resolved(g, scale):
            c = np.abs(_apply(fit, g))
            peak, tail = c.max(axis=-1), c[..., -4:].max(axis=-1)
            noise = (tail <= _NOISE * peak) & (tail >= 0.1 * c[..., -12:-4].max(axis=-1))
            return ((tail <= floor * scale * peak) | noise).all(axis=1)

        h = self.h_tilde(u * u)
        w = 2.0 * u ** (2.0 * self.s - 1.0) * h
        keep = (lo == 0.0) | last  # the first cell is never halved, nor a cell at the depth limit
        ok, pair = keep | resolved(w[:, None], 1.0), np.zeros((lo.size, 2, _NODES))
        pair[ok] = np.stack([specfun.bessel_i(self.delta, z[ok]) * np.exp(-lo[ok])[:, None],
                             specfun.bessel_k(self.delta, z[ok]) * np.exp(hi[ok])[:, None]], 1)
        g = (w * span)[:, None] * pair
        if not (finite := np.isfinite(g).all(axis=(1, 2))).all():
            raise NumericalError(f"non-finite integrand from 2 lam sqrt(x) = {lo[~finite].min():.6g}")
        ok &= keep | resolved(g, span)
        return ok, h, pair, ((hi - lo) / (4.0 * self.lam))[:, None, None] * _apply(area, g)

    def _extend(self, stop: int) -> None:
        """Cells of f for the base cells len(self._j) - 1 to stop and on while their T_K top
        (``_TOPS``) is built: e^{-hi} J_I carried up, e^{lo} T_K down from the top, and the
        two-sided form differentiated at the nodes (order d + 1 in one more Bessel call per
        kind, d + 2 by recurrence), f, f' and f'' each interpolated from its own values."""
        if len(self._nodes) < _TOPS[stop - 1]:
            self._build(int(_TOPS[stop - 1]))
        new = range(len(self._j) - 1, min(np.searchsorted(_TOPS, len(self._nodes), "right"), _IN_DOMAIN))
        lo, hi, h, zero = (np.concatenate([self._nodes[b][k] for b in new]) for k in range(4))
        z, ji, tk, zero = _nodes(lo, hi), [], [], zero.swapaxes(0, 1)
        one = np.stack([specfun.bessel_i(self.delta + 1.0, z) * np.exp(-lo)[:, None],
                        specfun.bessel_k(self.delta + 1.0, z) * np.exp(hi)[:, None]])
        for b in new:
            z0, z1, (lo_b, hi_b, _, _, a) = _Z_EDGES[b], _Z_EDGES[b + 1], self._nodes[b]
            tail = np.concatenate([np.exp(z0 - lo_c) * a_c[:, 1, -1]
                                   for lo_c, _, _, _, a_c in self._nodes[b:_TOPS[b]]])
            tail = np.r_[np.cumsum(tail[::-1])[::-1], 0.0]  # e^{z0} T_K at each cell's bottom
            steps = np.cumsum(np.exp(hi_b - z1) * a[:, 0, -1])
            j_lo = np.exp(z1 - hi_b) * (np.exp(z0 - z1) * self._j[b] + np.r_[0.0, steps[:-1]])
            ji.append(j_lo[:, None] + a[:, 0, :-1])
            tk.append((np.exp(lo_b - z0) * tail[1:lo_b.size + 1])[:, None] + a[:, 1, :-1])
            self._j.append(np.exp(z0 - z1) * self._j[b] + steps[-1])
        two = zero - 2.0 * (self.delta + 1.0) / z * np.array([1.0, -1.0])[:, None, None] * one
        x = (z / (2.0 * self.lam)) ** 2
        ipre, kpre = ladder_sum(self._ladder, -self.s, 0.5, x, [zero, one, two])
        f = -2.0 * (kpre * np.concatenate(ji) + ipre * np.concatenate(tk))
        f[2] += h / (x * x)
        self._lo, self._hi = np.r_[self._lo, lo], np.r_[self._hi, hi]
        self._cells = np.concatenate([self._cells, _apply(_chebyshev()[1], f.swapaxes(0, 1))])
        for b in new:
            self._nodes[b] = None

    def _read(self, x: np.ndarray) -> np.ndarray:
        """f, f', f'' at x > 0 in the domain, shape (3, n), the cells extended to the largest
        x first: each point's Chebyshev sum, T_k = cos(k arccos t), in a row of its own."""
        z = 2.0 * self.lam * np.sqrt(x)
        stop = min(int(np.searchsorted(_Z_EDGES, np.fmax.reduce(z, initial=0.0), "right")), _IN_DOMAIN)
        if stop >= len(self._j):
            self._extend(stop)
        i = np.searchsorted(self._lo, z, side="right") - 1
        lo, hi = self._lo[i], self._hi[i]
        theta = np.arccos(np.clip((2.0 * z - lo - hi) / (hi - lo), -1.0, 1.0))
        return (self._cells[i] * np.cos(theta[:, None, None] * np.arange(_NODES))).sum(axis=-1).T

    def _domain(self, xs: np.ndarray) -> None:
        """The domain of every route, x >= 0 with 2 lam sqrt(x) <= 600 (the cells' cap); NaN passes."""
        if np.any(xs < 0):
            raise ValueError("x must be nonnegative")
        past = np.sqrt(xs) > _Z_CAP / (2.0 * self.lam)
        if past.any():
            x = np.format_float_scientific(xs[past].flat[0], trim="-")
            raise NumericalError(f"x = {x} is past the solution's domain 2 lam sqrt(x) <= {_Z_CAP:g}")

    def values(self, xs) -> np.ndarray:
        """Solution values at every point of xs in one sweep (``_derivatives``)."""
        return self._derivatives(np.asarray(xs, dtype=float), 0)[0]

    def value(self, x: float) -> float:
        return float(self.values(np.array([float(x)]))[0])

    def value_tail_form(self, x: float) -> float:
        """f in the two-sided form from J_I and T_K integrated at x alone, each by
        ``quad.adaptive`` in u with its kernel scaled by e^{-+z} at x, so its tolerance is
        relative to that scale: the check of the cells that the residual cannot make."""
        self._domain(np.array([float(x)]))
        u = math.sqrt(x)
        z, tol = 2.0 * self.lam * u, self.tol * 0.05
        top = u + (62.0 + abs(2.0 * self.s - 1.0) * 10.0) / (2.0 * self.lam)
        ji = quad.adaptive(lambda v: self._kernel(v, specfun.bessel_i, math.exp(-z)), 0.0, u, tol, 1e-11)
        tk = quad.adaptive(lambda v: self._kernel(v, specfun.bessel_k, math.exp(z)), u, top, tol, 1e-11)
        return -2.0 * x ** -self.s * (specfun.bessel_k(self.delta, z) * math.exp(z) * ji
                                      + specfun.bessel_i(self.delta, z) * math.exp(-z) * tk)

    def _derivatives(self, xs: np.ndarray, order: int) -> np.ndarray:
        """f, ..., f^{(order)} at xs in the domain (``_domain``), shape (order + 1,) + xs.shape:
        up to the switch min(0.1, 1/(4 lam^2)) the Taylor series at 0 (``_origin_series``)
        wherever its last term is below rounding, x = 0 included; the cells elsewhere."""
        if order > 2:
            raise ValueError("orders above two need the equation itself")
        self._domain(xs)
        flat = xs.ravel()
        rows = np.empty((3, flat.size))
        series = flat <= min(0.1, 0.25 / self.lam**2)
        if series.any():
            rows[:, series], series[series] = self._origin_series(flat[series])
        if not series.all():
            rows[:, ~series] = self._read(flat[~series])
        return rows[:order + 1].reshape((order + 1,) + xs.shape)

    def _origin_series(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f, f', f'' at xs from the Taylor series at 0, shape (3, n), and where its last term
        is below rounding in all three: (r1 + j)(r2 + j) f^{(j)}(0) = h^{(j)}(0) - [j = 0] E h
        + j lam^2 f^{(j-1)}(0), the equation differentiated j times at x = 0."""
        if self._coef is None:
            if getattr(self.h, "max_order", 0) < _SERIES_TERMS + 1:
                raise ValueError("test function does not supply enough derivatives")
            c = np.empty(_SERIES_TERMS + 2)
            c[0] = self.h_tilde(0.0) / (self.r1 * self.r2)
            for j in range(1, c.size):
                rhs = float(self.h.deriv(0.0, j)) + j * self.lam**2 * c[j - 1]
                c[j] = rhs / ((self.r1 + j) * (self.r2 + j))
            j = np.arange(_SERIES_TERMS)
            self._coef = c[np.arange(3)[:, None] + j] / _FACTORIALS  # c[k + j] / j!
        parts = self._coef[:, None, :] * xs[:, None] ** np.arange(_SERIES_TERMS)
        fits = np.abs(parts[..., -1]) <= 1e-16 * np.abs(parts).sum(axis=-1)
        return parts.sum(axis=-1), fits.all(axis=0)

    def derivative(self, x: float, order: int) -> float:
        """f, f' or f'' at one x >= 0 (``_derivatives``)."""
        return float(self._derivatives(np.array([float(x)]), order)[order, 0])

    def __call__(self, x):
        out = self.values(np.atleast_1d(np.asarray(x, dtype=float)))
        return out if np.ndim(x) else float(out[0])


def solve_stein_pg(r1: float, r2: float, lam: float, h,
                   tol: float = 1e-10) -> SteinSolution:
    """Unique bounded solution of the two-gamma product Stein equation.  Test functions
    that grow along the positive axis (far against mid-range magnitudes) are rejected."""
    probe = np.abs(np.asarray(h.deriv(np.array([0.5, 1.0, 5.0, 1e3, 1e6]), 0)))
    near = max(float(np.max(probe[:3])), 1e-12)
    if float(np.max(probe[3:])) > 1e3 * near:
        raise ValueError("test function appears unbounded on (0, inf)")
    return SteinSolution(r1=r1, r2=r2, lam=lam, h=h, tol=tol)


def stein_residuals(sol: SteinSolution, xs) -> np.ndarray:
    """x^2 f'' + (1+r1+r2) x f' + (r1 r2 - lam^2 x) f - (h(x) - E h) at every x, each with
    the point's bits alone.  The J terms cancel through the Wronskian, so it checks the
    prefactors only; errors in J_I or T_K show in ``value(x) - value_tail_form(x)``."""
    x = np.asarray(xs, dtype=float)
    f, f1, f2 = sol._derivatives(x, 2)
    return (x * x * f2 + (1.0 + sol.r1 + sol.r2) * x * f1
            + (sol.r1 * sol.r2 - sol.lam**2 * x) * f - sol.h_tilde(x))


def stein_residual(sol: SteinSolution, x: float) -> float:
    """``stein_residuals`` at one point."""
    return float(stein_residuals(sol, np.array([float(x)]))[0])


def _ladder(s: float, delta: float, lam: float) -> np.ndarray:
    """c[m, k, j], k, j <= 2: the ``funcs.bessel_ladder`` table of x^{-s} P_d(2 lam sqrt x)
    for P = I (m = 0) and K (m = 1)."""
    return np.stack([bessel_ladder(-s, delta, sign, 2.0 * lam, 0.5, 2) for sign in (1.0, -1.0)])


def estimate_derivative_bounds(r1: float, r2: float, lam: float, h,
                               k_max: int,
                               grid: np.ndarray | None = None) -> list[float]:
    """Empirical sup-norm estimates of f, ..., f^{(k_max)}, k_max <= 2, over the grid, from
    one solution at tol 1e-8 (``SteinSolution._derivatives``); estimates, not bounds."""
    if getattr(h, "max_order", 0) < k_max:
        raise ValueError("test function does not supply enough derivatives")
    grid = np.geomspace(1e-3, 1e2, 400) if grid is None else np.asarray(grid, dtype=float)
    sol = SteinSolution(r1=r1, r2=r2, lam=lam, h=h, tol=1e-8)
    return np.max(np.abs(sol._derivatives(grid, k_max)), axis=1).tolist()
