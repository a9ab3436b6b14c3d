"""Solution of the two-gamma product Stein equation and derivative bounds.

For Y a product of two gammas with shapes r1, r2 and rate lam, the Stein
equation

    x^2 f'' + (1 + r1 + r2) x f' + (r1 r2 - lam^2 x) f = h(x) - E h(Y)

is solved by variation of parameters on the fundamental system
w1 = x^{-s} K_d(2 lam sqrt(x)), w2 = x^{-s} I_{|d|}(2 lam sqrt(x)) with
s = (r1+r2)/2, d = r1-r2 and Wronskian x^{-1-2s}/2:

    f(x) = (2 / x^s) [ I_{|d|}(2 lam sqrt(x)) J_K(x)
                       - K_d(2 lam sqrt(x)) J_I(x) ],
    J_P(x) = int_0^x t^{s-1} P(2 lam sqrt(t)) (h(t) - E h(Y)) dt.

An equivalent form replaces J_K by minus its tail integral (the full
integral vanishes because t^{s-1} K_d(2 lam sqrt(t)) is proportional to
the density of Y); both are implemented and compared.  Derivatives of f
are taken analytically: the J-derivative contributions collapse through
the Wronskian, leaving only Bessel-prefactor derivatives: orders d, d+1,
d+2 of each kind and the one-sided recurrence's table (``_ladder``, two
``funcs.bessel_ladder`` tables), summed by ``funcs.ladder_sum``.  So
the Stein residual checks the prefactors' Bessel orders but not J: with J_I and J_K
both replaced by 1.5 J + 0.3 (on r = (2, 0.5), lam = 1, h = sin), f(0.5)
moves from -0.227 to -0.189 while the residual stays below 1e-13.  What sees
J is the gap between the two forms: 23, 0.61 and 2.5 at x = 0.1, 1 and 10
under that change, and 9.1e-8 at x = 1 when J_K alone is scaled by 1 + 1e-6.

Values, derivatives, residuals and bounds read one routine for f, f' and f''
(``SteinSolution._derivatives``): up to the switch min(0.1, 1/(4 lam^2)) the
Taylor series at 0, x = 0 included, at every point where its last term is
below rounding, and the Bessel form elsewhere.  The tail form stays on the
Bessel route as the independent check.  Every route has one domain
(``SteinSolution._domain``), x >= 0 with 2 lam sqrt(x) <= 600, past which the
Bessel pair overflows and each raises ``NumericalError`` naming the x.

J_I and J_K are read off one table per solution: the accepted leaves of
the adaptive rule in u = sqrt(t) on fixed cells (``SteinSolution._grow``),
with J at each leaf start.  J at a point is that plus one 16-node panel;
the panels of a call share one I and one K call with an array of orders, which also
gives the orders d, d+1 and d+2 at the points.  f, f' and f'' at the last points are
kept, so ``value(x)``, ``derivative(x, k)`` and ``stein_residual`` at one x read one
computation and the residual after a value makes no Bessel call; the tail form takes
its own J and prefactors.  E h(Y) (``expect_pg``) is one call of
``dist._density_integral``, the integral of the normalisation and the cf.

Differentiated k times, the equation is that of shapes r + k for f^{(k)} with right-hand
side h^{(k)} + k lam^2 f^{(k-1)} and no constant, so the sup-norm estimates of f, f', f''
(``estimate_derivative_bounds``) read one solution's derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from . import quad
from .funcs import bessel_ladder, ladder_sum
from .steinops import ProductSpec
from .dist import _density_integral, density
from .specfun import NumericalError

_Z_CAP = 600.0  # 2 lam sqrt(x) at the edge of the solution's domain
_LADDER = (0.0, 1.0, 2.0)  # the orders d + j that f, f' and f'' need
_SERIES_TERMS = 60  # terms of the origin series of f^{(k)}
_FACTORIALS = np.array([math.factorial(j) for j in range(_SERIES_TERMS)], dtype=float)


def expect_pg(r1: float, r2: float, lam: float, h, tol: float = 1e-11) -> float:
    """E h(Y) for Y ~ two-gamma product: ``dist._density_integral`` of h against Y's
    K-Bessel density p, the routine of the normalisation and the cf.

    It stops at the density's ``mass_cut(tol)``, where x p(x), read off the asymptote
    p ~ x^{s - 3/4} exp(-2 lam sqrt(x)), is below 1e-3 tol, and so is the mass P(Y > x)
    beyond it; for a test function bounded by 1 the dropped part of E h is smaller still.
    """
    ev = density(ProductSpec(gamma_shapes=(r1, r2), lam=lam))
    return _density_integral(ev, lambda x: h.deriv(x, 0) * ev.batch(x), math.inf, tol)


@dataclass
class SteinSolution:
    """Solved Stein equation with its table of the cumulative integrals J_I, J_K."""

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
        # J table (see _grow): cell edges; leaf starts and the top; J at each of those
        self._cells = np.append(np.ldexp(1.0, np.arange(-12, 10)), _Z_CAP) / (2.0 * self.lam)
        self._edge, self._j0 = np.zeros(1), np.zeros((2, 1))
        # the last points asked for (shape and bytes) and f, f', f'' there (``_derivatives``)
        self._key, self._rows = None, np.zeros((3, 0))
        self._coef = None  # the origin series' coefficients (``_origin_series``)

    # -- centred test function ------------------------------------------------

    def h_tilde(self, x):
        return self.h.deriv(x, 0) - self.e_h

    # -- cumulative integrals --------------------------------------------------

    def _weight(self, u):
        """Common factor of the J integrands in u = sqrt(t)."""
        return 2.0 * u ** (2.0 * self.s - 1.0) * self.h_tilde(u * u)

    def _kernels(self, u, order=0.0):
        """(I_{d+order}, K_{d+order}) at 2 lam u, ``order`` a scalar or an array like u:
        one bessel_i and one bessel_k call."""
        from .specfun import bessel_i, bessel_k

        arg, nu = 2.0 * self.lam * u, self.delta + order
        return np.stack([bessel_i(nu, arg), bessel_k(nu, arg)])

    def _grow(self, u_max: float) -> None:
        """Extend the table over whole cells up to the first cell edge >= u_max.

        Cells end where z = 2 lam u is 2^k (k >= -12) or the cap 600, the
        edge of the domain (``_domain``).  Octaves of z keep a cell's Bessel
        arguments in one octave of the Bessel tables, so its leaves do not
        depend on the cells that share its call; the running sum goes on
        sequentially.
        """
        top, cells = self._edge[-1], self._cells
        edges = np.r_[top, cells[(cells > top) & (cells <= cells[np.searchsorted(cells, u_max)])]]
        _, lo, leaf = (np.concatenate(part, axis=-1) for part in zip(*quad._accepted(
            lambda u: self._weight(u) * self._kernels(u), edges[:-1], edges[1:], self.tol * 0.005, 1e-11)))
        order = np.argsort(lo)
        self._edge = np.concatenate([self._edge[:-1], lo[order], edges[-1:]])
        carried = np.cumsum(np.concatenate([self._j0[:, -1:], leaf[:, order]], axis=1), axis=1)
        self._j0 = np.concatenate([self._j0[:, :-1], carried], axis=1)

    def _j_values(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J_I, J_K) at every x, shape (2, n): J at the start of the point's leaf plus
        one Gauss-Legendre panel from there; and the Bessel rows (I_{d+j}, K_{d+j}) at
        2 lam sqrt(x) for j = 0, 1, 2, shape (3, 2, n), which join the panels' Bessel
        calls (256 points a call)."""
        u = np.sqrt(xs)
        u_max = float(np.fmax.reduce(u, initial=0.0))
        if u_max > self._edge[-1]:
            self._grow(u_max)
        leaf = np.searchsorted(self._edge, u, side="right") - 1
        start = self._edge[leaf]
        j = self._j0[:, leaf]
        node, w = quad.gauss_legendre(quad.GL_ORDER)
        own = np.empty((3, 2, u.size))
        for lo in range(0, u.size, quad._CHUNK_PANELS):
            sl = slice(lo, lo + quad._CHUNK_PANELS)
            part = u[sl] > start[sl]  # no panel for a point at its leaf start
            a, b = start[sl][part], u[sl][part]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            nodes = (mid[:, None] + half[:, None] * node).ravel()
            m = u[sl].size  # order d at the nodes and the points, then d + 1 and d + 2
            kern = self._kernels(np.concatenate((nodes, u[sl], u[sl], u[sl])),
                                 np.repeat(_LADDER, (nodes.size + m, m, m)))
            own[:, :, sl] = kern[:, nodes.size:].reshape(2, 3, m).swapaxes(0, 1)
            vals = (self._weight(nodes) * kern[:, :nodes.size]).reshape(2, -1, quad.GL_ORDER)
            j[:, sl][:, part] += half * np.sum(w * vals, axis=-1)
        return j, own

    def _j_tail_k(self, x: float) -> float:
        """int_x^infty of the K-kernel integrand (pen-form ingredient)."""
        from .specfun import bessel_k

        def integrand(v):
            return self._weight(v) * bessel_k(self.delta, 2.0 * self.lam * v)

        u = math.sqrt(x)
        u_top = u + (62.0 + abs(2.0 * self.s - 1.0) * 10.0) / (2.0 * self.lam)
        return quad.adaptive(integrand, u, u_top, tol=self.tol * 0.05, rtol=1e-11)

    # -- solution values ---------------------------------------------------------

    def _domain(self, xs: np.ndarray) -> None:
        """The solution's domain, x >= 0 with 2 lam sqrt(x) <= 600 (the J table's top),
        checked for every route: past it the growing/decaying Bessel pair overflows.
        NaN passes."""
        if np.any(xs < 0):
            raise ValueError("x must be nonnegative")
        past = np.sqrt(xs) > self._cells[-1]
        if past.any():
            x = np.format_float_scientific(xs[past].flat[0], trim="-")
            raise NumericalError(f"x = {x} is past the solution's domain 2 lam sqrt(x) <= {_Z_CAP:g}")

    def values(self, xs) -> np.ndarray:
        """Solution values at every point of xs in one sweep (``_derivatives``)."""
        return self._derivatives(np.asarray(xs, dtype=float), 0)[0]

    def value(self, x: float) -> float:
        return float(self.values(np.array([float(x)]))[0])

    def value_tail_form(self, x: float) -> float:
        """f with J_K as minus its tail integral, from its own J and prefactors: the check
        of ``value`` that the residual cannot make."""
        xs = np.array([float(x)])
        self._domain(xs)
        (ji, _), bessel = self._j_values(xs)
        ipre, kpre = ladder_sum(self._ladder, -self.s, 0.5, xs, bessel[:1])[:, 0, 0]
        return float(-2.0 * kpre * ji[0] - 2.0 * ipre * self._j_tail_k(x))

    def _derivatives(self, xs: np.ndarray, order: int) -> np.ndarray:
        """f, ..., f^{(order)} at xs in the domain, shape (order + 1,) + xs.shape: a copy of
        the f, f' and f'' rows that one rule gives once per point set and keeps for the last.
        Up to the switch min(0.1, 1/(4 lam^2)), where the Bessel form of f'' loses about
        1/x^2 to I/K cancellation and that of f divides J's error by x^s, they are the
        Taylor series at 0 (``_origin_series``) at every point where its last term is
        below rounding; at x = 0 that is the first coefficient of each.  Everywhere else
        they are 2 (I-prefactor J_K - K-prefactor J_I) differentiated (``_j_values``,
        ``ladder_sum``), with h-tilde / x^2 in f'', where the J-kernel terms leave it.
        Points outside the domain raise (``_domain``); a 0-d xs gives 0-d rows."""
        if order > 2:
            raise ValueError("orders above two need the equation itself")
        key = (xs.shape, xs.tobytes())
        if key != self._key:
            self._domain(xs)
            flat = xs.ravel()
            rows = np.empty((3, flat.size))
            series = flat <= min(0.1, 0.25 / self.lam**2)
            if series.any():
                rows[:, series], series[series] = self._origin_series(flat[series])
            if not series.all():
                x = flat[~series]
                (ji, jk), bessel = self._j_values(x)
                ipre, kpre = ladder_sum(self._ladder, -self.s, 0.5, x, bessel)
                rows[:, ~series] = 2.0 * (ipre * jk - kpre * ji)
                rows[2, ~series] += self.h_tilde(x) / (x * x)
            self._key, self._rows = key, rows.reshape((3,) + xs.shape)
        return self._rows[:order + 1].copy()

    def _origin_series(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f, f' and f'' at xs from the bounded solution's Taylor series at 0, shape (3, n),
        and where its last term is below rounding in all three.  Differentiated j times,
        (r1 + j)(r2 + j) f^{(j)}(0) = h^{(j)}(0) - [j = 0] E h + j lam^2 f^{(j-1)}(0)
        is the equation at x = 0, where the x f^{(j+1)} and x^2 f^{(j+2)} terms vanish; the
        coefficients of f, f' and f'' are built on first use.  Each point's terms are summed
        along a row of its own, so its bits do not depend on the points that share the call.
        """
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
    """Unique bounded solution of the two-gamma product Stein equation.

    Test functions that grow along the positive axis are rejected (the
    bounded-solution theory requires bounded h); the probe compares far
    and mid-range magnitudes.
    """
    probe = np.abs(np.asarray(h.deriv(np.array([0.5, 1.0, 5.0, 1e3, 1e6]), 0)))
    near = max(float(np.max(probe[:3])), 1e-12)
    if float(np.max(probe[3:])) > 1e3 * near:
        raise ValueError("test function appears unbounded on (0, inf)")
    return SteinSolution(r1=r1, r2=r2, lam=lam, h=h, tol=tol)


def stein_residuals(sol: SteinSolution, xs) -> np.ndarray:
    """x^2 f'' + (1+r1+r2) x f' + (r1 r2 - lam^2 x) f - (h(x) - E h) at every x.

    The J terms cancel through the Wronskian, so this checks the Bessel
    prefactors only and stays at rounding level for any J; an error in J
    shows in ``value(x) - value_tail_form(x)`` instead.  Each residual has
    the bits of the point alone.
    """
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
    """Empirical sup-norm estimates of f, f', ..., f^{(k_max)}, k_max <= 2, over the grid.

    They read one solution at tol 1e-8 (``SteinSolution._derivatives``, which covers
    x = 0).  Points past 2 lam sqrt(x) = 600 raise ``NumericalError``.  Estimates, not
    certified bounds.
    """
    if getattr(h, "max_order", 0) < k_max:
        raise ValueError("test function does not supply enough derivatives")
    grid = np.geomspace(1e-3, 1e2, 400) if grid is None else np.asarray(grid, dtype=float)
    sol = SteinSolution(r1=r1, r2=r2, lam=lam, h=h, tol=1e-8)
    return np.max(np.abs(sol._derivatives(grid, k_max)), axis=1).tolist()
