"""Numerical special functions: log-gamma, modified Bessel, Meijer G.

The G-function evaluator targets the family G^{q,0}_{p,q}(z | a; b) with
real parameters, which covers every density and CDF in scope.  It has one
entry, ``meijer_g_batch`` (``meijer_g`` is a batch of one), with three routes:

* the convergent left-residue series, which handles small z where the
  contour integrand suffers catastrophic cancellation.  One Laurent rule
  gives the residue at a pole of any order (b-parameters that coincide
  modulo integers, less any upper parameters that hit the same point);
  its coefficients of (ln z)^j do not depend on z, so they are tabulated
  once per parameter set and summed by Horner for each argument alone;
* a straight vertical Bromwich contour (trapezoidal quadrature of the
  Mellin-Barnes integral in log-space), accurate away from z = 0.  Its
  abscissa sits on the lattice (k/4)^2 next to each argument's saddle, and
  its Gamma-product grid, on nested dyadic levels, is cached per (params,
  abscissa, tol): step halvings and later calls evaluate only new nodes.
  One halving loop advances every abscissa of a batch together, with one
  log-gamma pass per level, and each argument stops at its own level, so
  its value does not depend on the rest of the batch.  The first level an
  argument tests has a step h <= 2 pi / (|ln z| + L / d) (and at most
  pi / (4 + |ln z|)): the trapezoid error of an integrand analytic in a
  strip of half-width d, here d = c + min(b) from the abscissa to the
  nearest pole, decays like e^{-2 pi d / h} (Trefethen and Weideman, SIAM
  Review 56 (2014)), and L = ln(1/tol) + 15 takes it below tol with a
  margin.  Its levels, rows by cols ~ sqrt(M) weights, take rows + cols
  exponentials per argument, not M;
* when q = p, Norlund's expansion in powers of 1 - z for 0.3 < z < 1,
  where the residue series converges slowly or not at all.

When q = p, G vanishes for z >= 1.  A z-derivative of order d multiplies
the Mellin-Barnes integrand by s (s+1) ... (s+d-1) = Gamma(s+d) / Gamma(s),
so it is G with 0 added to the upper and d to the lower parameters, times
(-1)^d z^{-d}.

Log-gamma is Lanczos' approximation as one rational function N(z)/D(z), by Horner
in 1/z.  Bessel functions use the defining integral K_nu(x) = int exp(-x cosh t)
cosh(nu t) dt (spectrally accurate trapezoid, uniform in nu) and the ascending series
for I_nu, with large-argument asymptotic expansions beyond 30 (1 + |nu|); the
switchover is cross-validated in the tests.  Each forms its values one way, scaled as
in Amos (ACM TOMS 12 (1986)) so that a value leaves the doubles only where it does
itself: a trapezoid term is exp(ln(cosh(nu t) h) - (x 2^-e)(2^e cosh t)), and the
series' lead (x/2)^nu / Gamma(nu + 1) is one power (x / 2g)^nu, g = Gamma(nu + 1)^{1/nu}
from logs.  The trapezoid nodes and the series length are set per octave 2^e <= x <
2^{e+1} and cached, so a point's value and cost do not depend on the rest of its
batch.  The order may be an array like x: one stable sort groups the points by (order,
octave), and each element has the bits of its scalar-order call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class NumericalError(RuntimeError):
    """Requested tolerance could not be reached within resource limits."""


# ---------------------------------------------------------------------------
# log-gamma (Lanczos, g = 607/128, 15 terms) and polygamma
# ---------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN2 = math.log(2.0)


@functools.cache  # built on first use, not at import
def _lanczos_rational() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(N, D), ascending in z, with c_0 + sum_k c_k / (z - 1 + k) = N(z) / D(z) and
    D = z (z+1) ... (z+13): formed exactly from the binary values of _LANCZOS_C, rounded once."""
    def product(skip: int) -> list:  # integer coefficients of prod_{r != skip} (z + r), r < 14
        return functools.reduce(lambda p, r: [r * lo + hi for lo, hi in zip(p + [0], [0] + p)],
                                sorted(set(range(14)) - {skip}), [1])
    ratios = [float(c).as_integer_ratio() for c in _LANCZOS_C]  # denominators: powers of 2
    scale, terms = max(d for _, d in ratios), [product(-1)] + [product(k) + [0] for k in range(14)]
    num = [sum(n * (scale // d) * v for (n, d), v in zip(ratios, col)) for col in zip(*terms)]
    return tuple(v / scale for v in num), tuple(map(float, terms[0]))


def _log(w: np.ndarray) -> np.ndarray:
    """Principal log as log|w| + i arg w; hypot overflows only where |w| does."""
    out = np.empty_like(w)
    out.real, out.imag = np.log(np.hypot(w.real, w.imag)), np.arctan2(w.imag, w.real)
    return out


def _lanczos_loggamma(z: np.ndarray) -> np.ndarray:
    """Lanczos evaluation, valid for Re z >= 0.5; N/D by Horner in w = 1/z, |w| <= 2."""
    (n, *num), (d, *den) = _lanczos_rational()
    w = 1.0 / z
    for a, b in zip(num, den):
        n, d = n * w, d * w  # out of place: an in-place complex product can round
        n += a               # differently in a batch of one than in a longer batch
        d += b
    t = z + (_LANCZOS_G - 0.5)
    return (z - 0.5) * _log(t) + (_log(n / d) - t + _LOG_SQRT_2PI)


def log_gamma_complex(z):
    """Principal-branch log Gamma for complex scalar or array argument.

    Relative error is at the 1e-14 level; arguments with Re z < 0.5 are
    raised by the recurrence log Gamma(z) = log Gamma(z+n) - sum log(z+k),
    which the principal branch satisfies exactly.
    """
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.5  # every pole is left of 0.5
    if not np.any(left):
        return _lanczos_loggamma(z)
    zl = z[left]
    if np.any((zl.real <= 0) & (zl.imag == 0) & (np.round(zl.real) == zl.real)):
        raise ValueError("log_gamma_complex: pole at nonpositive integer")
    out = np.array(z)  # any shape: the left points are shifted as one masked array
    shift = np.ceil(0.5 - zl.real)
    out[~left] = _lanczos_loggamma(z[~left])
    out[left] = _lanczos_loggamma(zl + shift) - sum(
        np.log(np.where(k < shift, zl + k, 1.0)) for k in range(int(shift.max())))
    return out[()] if out.ndim == 0 else out


_BERNOULLI_2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


@functools.cache
def _polygamma_tail(m: int) -> tuple[float, ...]:
    """B_2k (2k+m-1)! / (2k)!, the coefficients of x^{-2k-m} in the tail of psi^(m)."""
    return tuple(b2k * math.factorial(2 * k + m - 1) / math.factorial(2 * k)
                 for k, b2k in enumerate(_BERNOULLI_2K, 1))


def polygamma(m: int, x: float) -> float:
    """Real polygamma psi^(m)(x), m >= 0 (m = 0 is the digamma function).

    Upward recurrence psi^(m)(x) = psi^(m)(x+1) - (-1)^m m! x^{-m-1} to
    x >= 12 + m, then the asymptotic series in the Bernoulli numbers B_2k.
    """
    if x <= 0 and x == round(x):
        raise ValueError("polygamma pole at nonpositive integer")
    sign = (-1.0) ** (m + 1)
    shift = max(0, math.ceil(12 + m - x))
    acc = sign * math.factorial(m) * sum((x + i) ** -(m + 1.0) for i in range(shift))
    x += shift
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_polygamma_tail(m)):
        tail = (tail + c) * inv2
    lead = math.log(x) if m == 0 else sign * math.factorial(m - 1) / x**m
    return acc + lead + sign * (math.factorial(m) / (2.0 * x ** (m + 1)) + tail / x**m)


def _loggamma_signed(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign) for real non-pole x."""
    if x > 0:
        return math.lgamma(x), 1.0
    if x == round(x):
        raise ValueError("gamma pole")
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return math.lgamma(x), sign


# ---------------------------------------------------------------------------
# modified Bessel functions
# ---------------------------------------------------------------------------

_BLOCK = 256  # points per table block: a memory bound


def _bessel_switch(nu):
    """Where the large-argument expansions take over: 30 (1 + |nu|), nu a float or an array."""
    return 30.0 * (1.0 + abs(nu))


def _orders(nu, x) -> tuple:
    """(orders, x, result shape): the orders broadcast against x, both flattened."""
    arr, nu = np.asarray(x, dtype=float), np.asarray(nu, dtype=float)
    if nu.shape != arr.shape:
        nu, arr = (np.full(arr.shape, nu), arr) if nu.ndim == 0 else np.broadcast_arrays(nu, arr)
    return nu.ravel(), arr.ravel(), arr.shape


def _blocks(nu: np.ndarray, key: np.ndarray):
    """(order, key, index) for the points of one (order, key), in blocks of at most 256
    (a negative key's run in one): one stable sort by order, then key, makes each a run."""
    if not key.size:
        return
    rows = np.lexsort((key, nu))
    nu, key = nu[rows], key[rows]
    starts = [0, *(np.flatnonzero((key[1:] != key[:-1]) | (nu[1:] != nu[:-1])) + 1).tolist()]
    bounds = [*starts, key.size]  # NaN orders stay apart
    for lo, hi, order, k in zip(bounds, bounds[1:], nu[starts].tolist(), key[starts].tolist()):
        step = _BLOCK if k >= 0 else hi - lo
        for at in range(lo, hi, step):
            yield order, k, rows[at:min(at + step, hi)]


def _bessel(nu: np.ndarray, x: np.ndarray, near_block, far_route) -> np.ndarray:
    """near_block(order, e, .) on each block of points 2^e <= x < 2^{e+1} of one order below
    30 (1 + |order|), far_route(order, .) on the others of each order.

    The orders reach the routes as Python floats and the routes work point by point,
    so an element has the bits of its scalar-order call.
    """
    near = x < _bessel_switch(nu)  # NaN and inf go far
    key = np.where(near, np.frexp(x)[1] + 2047, -1)  # octave e + 2048 (e >= -1074) below it
    out = np.empty_like(x)
    for order, k, rows in _blocks(nu, key):
        out[rows] = near_block(order, k - 2048, x[rows]) if k >= 0 else far_route(order, x[rows])
    return out


def _bessel_asym_sums(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum_k u_k(nu) x^{-k}, sum_k (-1)^k u_k(nu) x^{-k}): 25 terms for every point,
    each point's sums cut after its own smallest term."""
    k = np.arange(1.0, 25.0)
    uk = np.concatenate(([1.0], np.cumprod((4.0 * nu * nu - (2.0 * k - 1.0) ** 2) / (8.0 * k))))
    terms = uk * np.vander(1.0 / x, 25, increasing=True)  # one row per point
    terms[np.arange(25) > np.argmin(np.abs(terms), axis=1)[:, None]] = 0.0
    return terms.sum(axis=1), (terms * (-1.0) ** np.arange(25)).sum(axis=1)


@functools.lru_cache(maxsize=256)  # one table per (|nu|, octave), built once
def _k_nodes(anu: float, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(2^e cosh t, ln(cosh(|nu| t) h)): the nodes and log weights of the K_nu trapezoid
    on the octave [2^e, 2^{e+1}), finite at every order and octave, subnormal ones included.

    The octave's smallest argument sets t_max, where exp(-x cosh t + |nu| t) has fallen
    below e^{-52}, and its largest the step h = min(0.05, 0.35 (x^2 + nu^2)^{-1/4}): the
    peak of exp(-x cosh t) cosh(nu t) has width about (x^2 + nu^2)^{-1/4}.
    """
    xmin, xmax = math.ldexp(1.0, e), math.ldexp(1.0, e + 1)
    t_max = 3.0
    for _ in range(60):
        y = 52.0 + anu * t_max
        t_new = math.acosh(1.0 + y / xmin) if y / xmin < math.inf else math.log(2.0 * y) - e * _LN2
        if t_new <= t_max:
            break
        t_max = t_new + 0.25
    h = min(0.05, 0.35 / math.sqrt(math.hypot(xmax, anu)))
    t = np.arange(0.0, t_max + h, h)
    cosh = np.cosh(t)  # 2^e cosh t exactly where cosh t is a double, else e^t / 2
    nodes = np.where(cosh < math.inf, np.ldexp(cosh, e), np.exp(t + (e - 1) * _LN2))
    w = anu * t + (np.log1p(np.exp(-2.0 * anu * t)) - _LN2 + np.log(np.where(t, h, 0.5 * h)))
    nodes.flags.writeable = w.flags.writeable = False  # shared by every later call
    return nodes, w


def _k_quadrature(nu: float, e: int, x: np.ndarray) -> np.ndarray:
    """K_nu on one octave's points by trapezoidal quadrature of the defining integral.

    Each term is one exp(ln(cosh(|nu| t) h) - (x 2^-e) (2^e cosh t)): a double wherever
    the term itself is, so near the integrand's peak no factor is subnormal or infinite."""
    nodes, log_w = _k_nodes(nu, e)
    table = np.ldexp(x, -e)[:, None] * nodes
    np.subtract(log_w, table, out=table)  # in place, as the exp: one block-sized temporary
    return np.exp(table, out=table).sum(axis=1)


def _k_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    return np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) * _bessel_asym_sums(nu, x)[0]


def bessel_k(nu, x) -> "float | np.ndarray":
    """Modified Bessel function of the second kind, K_nu(x), x > 0.

    ``nu`` is a scalar or an array broadcast against x, as in ``scipy.special.kv``;
    one call checks, splits and routes every (order, argument) pair, and each element
    has the bits of its scalar-order call.  K_{-nu} = K_nu.  The defining-integral
    trapezoid below 30 (1 + |nu|), its nodes and log weights cached per (|nu|, octave
    of x) and each term formed as one exponential; the exponential asymptotic expansion
    above.  A K past the float range is inf; NaN gives NaN and inf gives 0.
    """
    nu, flat, shape = _orders(nu, x)
    if (flat <= 0).any():
        raise ValueError("bessel_k requires x > 0")
    with np.errstate(over="ignore"):  # a K past the float range is inf
        out = _bessel(np.abs(nu), flat, _k_quadrature, _k_asymptotic)
    return float(out[0]) if not shape else out.reshape(shape)


@functools.lru_cache(maxsize=256)  # one table per (nu, octave), built once
def _i_ratios(nu: float, e: int) -> tuple[float, float, np.ndarray]:
    """(sign, g, ratios) of the ascending series on the octave [2^e, 2^{e+1}).  Its lead
    (x/2)^nu / Gamma(z), z = nu + 1, is sign (x / 2g)^nu: one power, past the doubles only
    where the lead is.  g = |z| exp(-c / nu), c = nu ln|z| - ln|Gamma(z)|, which from z = 10
    on, a small difference of large terms, is Stirling's series.  The ratios 1 / (k (nu + k))
    of consecutive terms, per (x/2)^2, run up to the count (at most 399) after which the
    terms of the octave's top 2^{e+1} have fallen below 1e-18 of their largest."""
    z = nu + 1.0
    lg, sign = _loggamma_signed(z)
    c = nu * math.log(abs(z)) - lg if z < 10.0 else z - 0.5 * math.log(z) - _LOG_SQRT_2PI - sum(
        b / (2 * k * (2 * k - 1) * z ** (2 * k - 1)) for k, b in enumerate(_BERNOULLI_2K, 1))
    log_h2 = 2.0 * e * _LN2  # ((2^{e+1}) / 2)^2
    n, log_term, log_peak = 0, 0.0, 0.0
    while n < 399 and log_term > log_peak - 41.5:  # e^{-41.5} < 1e-18
        n += 1
        log_term += log_h2 - math.log(abs(n * (nu + n)))
        log_peak = max(log_peak, log_term)
    k = np.arange(1.0, n + 1.0)
    ratio = 1.0 / (k * (nu + k))
    ratio.flags.writeable = False  # shared by every later call
    return sign, abs(z) * math.exp(-c / nu) if nu else 1.0, ratio


def _i_series(nu: float, e: int, x: np.ndarray) -> np.ndarray:
    """I_nu on one octave's points, x >= 0, by the ascending series: one row of terms
    per point, whose length, and so whose sum, is set by the octave alone."""
    sign, g, ratio = _i_ratios(nu, e)
    half = 0.5 * x
    terms = (half * half)[:, None] * ratio
    total = np.cumprod(terms, axis=1, out=terms).sum(axis=1)  # in place, as K's exp
    return sign * (half / g) ** nu * (1.0 + total)  # 0^0 = 1: I_0(0) = 1


def _i_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    plain, alternating = _bessel_asym_sums(nu, x)
    root = np.sqrt(2.0 * math.pi * np.minimum(x, 1e300))  # finite, so I_nu(inf) = inf
    return (np.exp(x) * alternating - math.sin(math.pi * nu) * np.exp(-x) * plain) / root


def bessel_i(nu, x) -> "float | np.ndarray":
    """Modified Bessel function of the first kind, I_nu(x), x >= 0.

    ``nu`` is a scalar or an array broadcast against x, as in ``scipy.special.iv``;
    one call checks, splits and routes every (order, argument) pair, and each element
    has the bits of its scalar-order call.  Negative integer orders fold to positive;
    negative non-integer orders use the ascending series directly (signs via the
    reflected gamma).  The series below 30 (1 + |nu|), its length cached per
    (nu, octave of x); the asymptotic expansion above.  NaN gives NaN and inf gives inf.
    """
    nu, flat, shape = _orders(nu, x)
    if (flat < 0).any():
        raise ValueError("bessel_i implemented for x >= 0")
    if (negative := nu < 0).any():
        nu = np.where(negative & (nu == np.round(nu)), -nu, nu)
        if ((nu < 0) & (flat == 0)).any():
            raise ValueError("bessel_i diverges at x = 0 for negative order")
    with np.errstate(over="ignore"):  # an I past the float range is inf
        out = _bessel(nu, flat, _i_series, _i_asymptotic)
    return float(out[0]) if not shape else out.reshape(shape)


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeijerGParams:
    """Parameter rows of G^{q,0}_{p,q}(z | a; b), p = len(a) <= q = len(b), as floats."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        for name in ("a", "b"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if self.q < self.p:
            raise ValueError("need q >= p")
        if self.q == 0:
            raise ValueError("need at least one b parameter")

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b)


_CANCEL_TOL = 1e-12  # an upper and a lower parameter this close cancel


def reduce_params(params: MeijerGParams) -> MeijerGParams:
    """Cancel upper parameters equal to lower ones, one pair per match."""
    a = list(params.a)
    b = list(params.b)
    out_a = []
    for av in a:
        hit = next((i for i, bv in enumerate(b) if abs(av - bv) <= _CANCEL_TOL), None)
        if hit is None:
            out_a.append(av)
        else:
            b.pop(hit)
    return MeijerGParams(out_a, b)


def _asymptotic_exponents(params: MeijerGParams) -> tuple[int, float]:
    """(sigma, theta) of G^{q,0}_{p,q}'s large-argument term z^theta exp(-sigma z^{1/sigma})."""
    if (sigma := params.q - params.p) <= 0:
        raise ValueError("asymptotic form requires q > p")
    return sigma, ((1.0 - sigma) / 2.0 + sum(params.b) - sum(params.a)) / sigma


def _log_asymptotic_g(params: MeijerGParams, zs) -> np.ndarray:
    """log of the leading large-argument term of G^{q,0}_{p,q},
    (2 pi)^{(sigma-1)/2} sigma^{-1/2} z^theta exp(-sigma z^{1/sigma}); -inf at z = inf."""
    sigma, theta = _asymptotic_exponents(params)
    zs = np.asarray(zs, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf at z = inf
        out = (0.5 * (sigma - 1) * math.log(2.0 * math.pi) - 0.5 * math.log(sigma)
               + theta * np.log(zs) - sigma * zs ** (1.0 / sigma))
    return np.where(zs == math.inf, -math.inf, out)


def _underflows(params: MeijerGParams, zs: np.ndarray) -> np.ndarray:
    """Where G^{q,0}_{p,q} (q > p) is below the smallest double: its leading asymptote is
    below e^{-760} and z^{1/sigma} is at least the square of the parameters' spread,
    past which the asymptote's error is far inside the e^{15} margin (on random rows of
    spread up to 20 it was within e^{0.3} of mpmath at the cut)."""
    spread = max(params.a + params.b) - min(params.a + params.b)
    with np.errstate(over="ignore"):
        far = zs ** (1.0 / (params.q - params.p)) >= max(1.0, spread) ** 2
    return far & (_log_asymptotic_g(params, zs) < -760.0)


_INTEGER_SPACING = 1e-9  # a difference this close to an integer counts as one


def _cluster_b(b: Sequence[float]):
    """Group b-parameters whose pairwise differences are integers."""
    clusters: list[list[float]] = []
    for val in sorted(b, reverse=True):
        for cl in clusters:
            d = cl[0] - val
            if abs(d - round(d)) < _INTEGER_SPACING:
                cl.append(val)
                break
        else:
            clusters.append([val])
    return clusters


def _gamma_laurent(n: int, delta: float, terms: int):
    """(sign, logmag, [c_1 .. c_terms]) of the Laurent form of Gamma(delta - n + e).

    Gamma(delta - n + e) = sign e^{logmag} exp(sum_i c_i e^i), times 1/e at a
    pole (delta = 0, n >= 0).  Right of 1/2 (n < 0) c_i = psi^(i-1)(x) / i!.
    Left of it the reflection, with u = delta + e,
        Gamma(u - n) = (-1)^n Gamma(1 + u) Gamma(1 - u) / (u Gamma(n + 1 - u)),
    takes the distance delta to the pole -n exactly; at delta = 0 the
    factor Gamma(1 + u) Gamma(1 - u) = pi u / sin(pi u) gives
    sum_j zeta(2j) u^{2j} / j, with zeta(2j) = psi^(2j-1)(1) / (2j-1)!.
    """
    orders = range(1, terms + 1)
    if n < 0:
        x = delta - n
        return 1.0, math.lgamma(x), [polygamma(i - 1, x) / math.factorial(i) for i in orders]
    sign = (-1.0) ** n * math.copysign(1.0, delta)
    logmag = math.lgamma(1 + delta) + math.lgamma(1 - delta) - math.lgamma(n + 1 - delta)
    c = [(polygamma(i - 1, 1 + delta) + (-1) ** i * (polygamma(i - 1, 1 - delta)
          - polygamma(i - 1, n + 1 - delta))) / math.factorial(i) for i in orders]
    if delta:  # off the pole 1/u = 1/(delta + e) is regular: its log is expanded too
        logmag -= math.log(abs(delta))
        c = [ci + (-1) ** i / (i * delta**i) for i, ci in enumerate(c, 1)]
    return sign, logmag, c


# Each residue term carries a rounding error of about 1e-15 of its size, so a
# sum more than 1e6 times smaller than its terms is not trusted to 1e-9.  Such
# sums arise from b-parameters close to, but not at, an integer spacing.
_SERIES_MAX_CANCELLATION = 1e6


_RESIDUE_KMAX = 4000  # residues per cluster at most


@functools.lru_cache(maxsize=64)  # one table per parameter set, built once
def _residue_table(params: MeijerGParams):
    """(powers, logmags, table): residue coefficients of z^power (ln z)^j.

    At each candidate pole s0 = -min(cluster) - k the integrand
    prod Gamma(b + s) / prod Gamma(a + s) z^{-s} has net order
    p = (numerator poles) - (denominator poles), and its residue is the
    e^{p-1} coefficient of the Laurent-expanded Gamma products times
    z^{-s0} e^{-e ln z}: a polynomial sum_j c_j (ln z)^j whose coefficients
    do not depend on z.  The table is cut by the per-term test at ``_series_top``.
    """
    a, b = params.a, params.b
    ln_top = math.log(_series_top(params))
    powers, logmags, coeffs = [], [], []
    max_abs_term = 0.0
    for cl in _cluster_b(b):
        base = cl[-1]  # the smallest member: its pole s = -base is the rightmost
        # Gamma(v + s) at s = -base - k + e is Gamma(delta - (k - r) + e) with
        # v - base = r + delta, delta summed exactly; integer spacings within
        # _INTEGER_SPACING count as exact
        offsets = []
        for v, power in [(v, 1) for v in b] + [(v, -1) for v in a]:
            r = round(v - base)
            delta = math.fsum((v, -base, -r))
            offsets.append((r, 0.0 if abs(delta) < _INTEGER_SPACING else delta, power))
        small_run = 0
        for k in range(_RESIDUE_KMAX):
            order = sum(power for r, delta, power in offsets if not delta and k >= r)
            sign, logmag, logser = 1.0, 0.0, [0.0] * order
            for r, delta, power in offsets:
                sg, lg, c = _gamma_laurent(k - r, delta, order - 1)
                sign *= sg
                logmag += power * lg
                for i, ci in enumerate(c, 1):
                    logser[i] += power * ci
            ex = [1.0]  # exp of the log-series: i ex_i = sum_j j logser_j ex_{i-j}
            for i in range(1, order):
                ex.append(sum(j * logser[j] * ex[i - j] for j in range(1, i + 1)) / i)
            c = [sign * ex[order - 1 - j] * (-1.0) ** j / math.factorial(j) for j in range(order)]
            powers.append(base + k)
            logmags.append(logmag)
            coeffs.append(c)
            poly = sum(cj * ln_top**j for j, cj in enumerate(c))
            term = abs(poly) * np.exp(logmag + (base + k) * ln_top)
            max_abs_term = max(max_abs_term, term)
            if term < 1e-18 * max(1e-300, max_abs_term):
                small_run += 1
                if small_run >= 3 and k > max(2, round(cl[0] - base)):
                    break
            else:
                small_run = 0

    table = np.zeros((len(coeffs), max(map(len, coeffs))))
    for row, c in zip(table, coeffs):
        row[:len(c)] = c
    return np.array(powers), np.array(logmags), table


def _meijer_g_series(params: MeijerGParams, zs) -> np.ndarray:
    """Sum of left residues; converges for all z > 0 when q > p, z < 1 when q = p.

    The residue table, cached per parameter set, is cut at the series' top
    argument, 0.04 (0.3 when q = p).  Each argument is summed on its own,
    by Horner in ln z.  A sum that cancels by more than
    _SERIES_MAX_CANCELLATION is returned as nan.
    """
    lnz = np.log(np.asarray(zs, dtype=float))
    powers, logmags, table = _residue_table(params)
    out, scale = np.empty(len(lnz)), np.empty(len(lnz))
    for lo in range(0, len(lnz), 256):  # (argument, residue) arrays of 256 rows at most
        ln = lnz[lo:lo + 256, None]
        size = np.exp(logmags + powers * ln)
        poly = np.polynomial.polynomial.polyval(ln, table.T, tensor=False)
        mag = np.polynomial.polynomial.polyval(np.abs(ln), np.abs(table.T), tensor=False)
        out[lo:lo + 256] = np.einsum("ij,ij->i", poly, size)
        scale[lo:lo + 256] = np.einsum("ij,ij->i", mag, size)
    out[scale > _SERIES_MAX_CANCELLATION * np.abs(out)] = np.nan
    return out


# Norlund's expansion (q = p) takes 0.3 < z < 1, where (1 - z)^96 < 1.5e-15.  On a
# three-beta row the residue series is 2e-12 off at z = 0.3 and 96 terms 3e-15; at
# z = 0.2, 3e-13 and 1e-11.
_NORLUND_ABOVE, _NORLUND_TERMS = 0.3, 96


@functools.lru_cache(maxsize=64)  # one coefficient set per parameter set, built once
def _norlund_coeffs(params: MeijerGParams) -> tuple[float, float, np.ndarray]:
    """(b_1, psi, d) with G^{p,0}_{p,p}(z | a; b) = z^{b_1} sum_N d_N (1 - z)^{psi+N-1}, 0 < z < 1.

    Norlund, Acta Math. 94 (1955): from G^{1,0}_{1,1}(z | a_1; b_1) = z^{b_1}
    (1 - z)^{alpha_1 - 1} / Gamma(alpha_1), alpha_j = a_j - b_j, each further
    pair convolves with z^{b_j} (1 - z)^{alpha_j - 1} / Gamma(alpha_j), taking
    the coefficients c_N of (1 - z)^{psi+N-1} / Gamma(psi+N) to
    c'_N = sum_{n<=N} c_n (b_1 + psi + n - b_j)_{N-n} (alpha_j)_{N-n} / (N-n)!
    and psi to psi + alpha_j.  It runs on e_N = c_N / N!.  Any pairing gives
    the same G; the rows sorted in increasing order start from b_1 = min b, so
    that sum_N d_N (1 - z)^N stays bounded as z -> 0 and its terms decay.
    """
    a, b = sorted(params.a), sorted(params.b)
    k = np.arange(_NORLUND_TERMS, dtype=float)
    e, psi = (k == 0).astype(float), a[0] - b[0]
    n, big_n = np.ogrid[:_NORLUND_TERMS, :_NORLUND_TERMS]
    for aj, bj in zip(a[1:], b[1:]):
        alpha = aj - bj
        # steps[n, k] = (beta_n)_k (alpha)_k / (k! (n+1)_k), beta_n = b_1 + psi + n - b_j
        ratio = ((b[0] + psi - bj + k[:, None] + k[:-1]) * (alpha + k[:-1])
                 / ((k[:-1] + 1.0) * (k[:, None] + 1.0 + k[:-1])))
        steps = np.cumprod(np.hstack([np.ones((len(k), 1)), ratio]), axis=1)
        e = e @ np.where(big_n >= n, steps[n, np.maximum(big_n - n, 0)], 0.0)
        psi += alpha
    d = np.zeros_like(e)
    for i, v in enumerate(psi + k):
        if v > 0 or v != round(v):  # 1/Gamma vanishes at the nonpositive integers
            lg, sign = _loggamma_signed(v)
            d[i] = sign * e[i] * math.exp(math.lgamma(i + 1.0) - lg)
    return b[0], psi, d


def _meijer_g_norlund(params: MeijerGParams, zs: np.ndarray, tol: float) -> np.ndarray:
    """G^{p,0}_{p,p} at 0 < z < 1 by Norlund's expansion, each argument by Horner in 1 - z;
    nan where the last term is not below tol of the sum."""
    b1, psi, d = _norlund_coeffs(params)
    w = 1.0 - zs
    total = np.polynomial.polynomial.polyval(w, d)
    total[~(np.abs(d[-1]) * w ** (len(d) - 1.0) <= tol * np.abs(total))] = np.nan
    return zs**b1 * w ** (psi - 1.0) * total


# Contour memory bounds, set by measured peak RSS: log-gamma points (node-factor pairs) per
# call and (argument, node) pairs per phase-sum pass, a complex weight each; and t_top
# candidates per search pass.
_LG_POINTS, _PHASE_PAIRS, _TAIL_GROUP = 8192, 16384, 8

# The step of an argument's first tested trapezoid level.  On s = c + i t the integrand is
# analytic in the strip |Im t| < d, d = c + min(b) the distance from c to the nearest pole of
# prod Gamma(s + b), and in it z^{-s} grows by at most e^{|Im t| |ln z|}; so the error of
# step h is about 2M e^{-(2 pi / h - |ln z|) d} (Trefethen & Weideman, SIAM Rev. 56 (2014),
# Thm 5.1), below e^{-L} for h <= 2 pi / (|ln z| + L / d).  L = ln(1/tol) + _STRIP_MARGIN:
# the margin (e^15, L = 40.3 at tol 1e-11) stands for ln 2M, the Gamma product's growth
# across the strip and its pole at the edge.  The halving test, not this level, decides
# accuracy: margins from -20 to 15 gave the same worst error on the seeded high-cell sweep,
# and a margin of 0 saves under 4% more log-gamma points on a density block.
_STRIP_MARGIN = 15.0


@functools.lru_cache(maxsize=64)  # one grid per (params, c, tol), built once
class _ContourGrid:
    """prod Gamma(s + b) / prod Gamma(s + a) on s = c + i t, over its value ref at t = 0.

    Values are kept on nested trapezoid levels: level 0 holds t = i h_0,
    i = 0 .. 24, h_0 = t_top / 24, and level j > 0 the odd multiples of
    h_0 / 2^j, the nodes a step halving adds, as the conjugated weighted product
    in rows of cols <= sqrt(nodes).  ``_find_tops`` sets ref and t_top (None
    when the tail does not decay); the batch's halving loop adds the levels.
    """

    def __init__(self, params: MeijerGParams, c: float, tol: float):
        self.shifts = c + np.array(params.b + params.a)
        self.signs = np.repeat([1.0, -1.0], [params.q, params.p])
        self.log_tol = math.log(max(tol, 1e-16))
        self.tops = (6.0 + 2.0 * (params.q - params.p) + 2.0 * math.sqrt(c)) * 1.4 ** np.arange(60.0)
        self.ref = self.t_top = None  # ref is None until the tail search has run
        self.levels: tuple = ()


def _log_products(grids: list, ts: list) -> list:
    """log of each grid's product at its own nodes ts[k], one log-gamma call per _LG_POINTS."""
    t, sizes = np.concatenate(ts), [len(t) for t in ts]
    owner, shifts = np.repeat(np.arange(len(grids)), sizes), np.array([g.shifts for g in grids])
    step = max(1, _LG_POINTS // shifts.shape[1])
    return np.split(np.concatenate([np.einsum("ij,j->i", log_gamma_complex(
        1j * t[lo:lo + step, None] + shifts[owner[lo:lo + step]]), grids[0].signs)
        for lo in range(0, len(t), step)]), np.cumsum(sizes)[:-1])


def _find_tops(grids: list) -> None:
    """ref, and t_top: the first candidate where the tail has decayed, of unsearched grids."""
    todo, lo = [g for g in grids if g.ref is None], 0
    while todo and lo < 60:
        head = [0.0] * (lo == 0)  # t = 0 gives ref
        logs = _log_products(todo, [np.r_[head, g.tops[lo:lo + _TAIL_GROUP]] for g in todo])
        for g, lp in zip(todo, logs):
            g.ref = lp[0].real if head else g.ref
            decayed = np.flatnonzero(lp[len(head):].real <= g.ref + g.log_tol - 8.0)
            g.t_top = float(g.tops[lo + decayed[0]]) if len(decayed) else None
        todo, lo = [g for g in todo if g.t_top is None], lo + _TAIL_GROUP


def _meijer_g_contour_batch(params: MeijerGParams, zs, tol: float) -> np.ndarray:
    """Contour evaluation at many arguments.

    Each argument's abscissa c is the first point of the lattice (k/4)^2 at
    or right of its saddle z^{1/sigma} and of 1.5 - min(b): a step of about
    sqrt(c)/2, which costs at most about e^{sigma/8} in relative accuracy.
    Arguments of one lattice cell share a cached Gamma-product grid.  One
    halving loop advances every cell together: at level n, one log-gamma
    pass builds the level for every grid that lacks it, and one phase-sum
    pass covers every argument still running.  Each argument starts its
    convergence test, and stops, by its own ln z, so its value does not
    depend on the rest of the batch.

    The first level an argument tests is the first whose step h is at most
    min(pi / (4 + |ln z|), 2 pi / (|ln z| + L / d)): the first term keeps
    more than two nodes per period of z^{-i t}, and the second puts the
    trapezoid error of an integrand analytic in the strip of half-width
    d = c + min(b), about e^{-(2 pi / h - |ln z|) d}, below e^{-L}, with
    L = ln(1/tol) + _STRIP_MARGIN (Trefethen and Weideman, SIAM Review 56
    (2014)).  A high cell has a wide strip, so it tests coarser levels first.
    """
    zs = np.asarray(zs, dtype=float)
    sigma = params.q - params.p
    if sigma <= 0:  # reached by the q = p arguments that no series converges at
        raise NumericalError(f"neither residue nor Norlund series converges: a = {params.a}, "
                             f"b = {params.b}, z in [{zs.min():.6g}, {zs.max():.6g}]")
    base = max(1.0, 1.0 - min(params.b) + 0.5)
    keys, cell = np.unique(np.ceil(4.0 * np.sqrt(np.maximum(base, zs ** (1.0 / sigma)))),
                           return_inverse=True)
    c = (keys / 4.0) ** 2
    grids = [_ContourGrid(params, float(ck), tol) for ck in c]
    _find_tops(grids)

    def where(bad: np.ndarray) -> str:  # the failing arguments and their abscissas
        zb, cs = zs[bad], "/".join(f"{ck:g}" for ck in c[np.unique(cell[bad])])
        return f"a = {params.a}, b = {params.b}, c = {cs}, z in [{zb.min():.6g}, {zb.max():.6g}]"
    if (dead := np.array([g.t_top is None for g in grids])[cell]).any():
        raise NumericalError(f"contour tail does not decay: {where(dead)}")
    lnz, c = np.log(zs), c[cell]
    ref, h0 = np.array([(g.ref, g.t_top / 24.0) for g in grids]).reshape(-1, 2)[cell].T
    # the first level with step <= h_max (see _STRIP_MARGIN), and the scale of "raw" units
    # relative to a unit true result
    l_per_d = (math.log(1.0 / max(tol, 1e-16)) + _STRIP_MARGIN) / (c + min(params.b))
    h_max = np.minimum(math.pi / (4.0 + np.abs(lnz)), 2.0 * math.pi / (np.abs(lnz) + l_per_d))
    start = np.maximum(0.0, np.ceil(np.log2(h0 / h_max)))
    unit_scale, lnh = np.exp(np.minimum(-ref + c * lnz, 700.0)), lnz * h0
    vals, failed = np.zeros(len(zs)), np.zeros(len(zs), dtype=bool)
    run, n = np.argsort(cell, kind="stable"), 0  # by cell, so a chunk of arguments spans few grids
    try:
        while len(run):  # up to 12 halvings after each argument's start
            live = np.unique(cell[run])  # the running grids; run is sorted by cell
            new_level = [grids[k] for k in live if len(grids[k].levels) == n]
            idx = np.arange(25.0) if n == 0 else np.arange(1.0, 24 * 2**n, 2)
            cols = max(k for k in range(1, math.isqrt(len(idx)) + 1) if len(idx) % k == 0)
            ts = [idx * (g.t_top / 24 / 2**n) for g in new_level]
            for g, t, lp in zip(new_level, ts, _log_products(new_level, ts) if ts else ()):
                gw = np.exp(lp - g.ref) * (g.t_top / 24.0 / 2**n / math.pi)
                gw[t == 0.0] *= 0.5  # trapezoid end weight
                g.levels += (np.conj(gw).reshape(-1, cols),)  # a new tuple: never seen partial
            # idx[row * cols + col] = idx[col] + idx[row * cols] - idx[0], so z^{i t} = col x row
            spin = 1j / 2**n * np.concatenate((idx[:cols], idx[::cols] - idx[0]))
            new, step = 0.5 * vals[run], max(1, _PHASE_PAIRS // len(idx))
            for lo in range(0, len(run), step):  # Re sum of conj(gw) z^{i t}
                own = np.searchsorted(live, cell[run[lo:lo + step]])  # ascending: run is by cell
                w = np.stack([grids[k].levels[n] for k in live[own[0]:own[-1] + 1]])[own - own[0]]
                factors = np.exp(lnh[run[lo:lo + step], None] * spin)
                new[lo:lo + step] += np.einsum("ia,ia->i", factors[:, cols:], np.einsum(
                    "iab,ib->ia", w, factors[:, :cols])).real
            bound = 0.25 * tol * np.maximum(unit_scale[run], np.abs(new))
            done = (n > start[run]) & (np.abs(new - vals[run]) <= bound)
            vals[run] = new
            failed[run[~done & (n >= start[run] + 12)]] = True
            run, n = run[~done & (n < start[run] + 12)], n + 1
    finally:  # levels past 9 (12288 nodes) would hold megabytes in the cache
        for g in grids:
            g.levels = g.levels[:10]
    if failed.any():
        raise NumericalError(f"batch step-halving did not converge: {where(failed)}")
    with np.errstate(divide="ignore"):
        return np.sign(vals) * np.exp(ref - c * lnz + np.log(np.abs(vals)))


_SERIES_BELOW = 0.04


def _series_top(params: MeijerGParams) -> float:
    """The largest argument the residue series takes: 0.04 when q > p, 0.3 when q = p."""
    return _SERIES_BELOW if params.q > params.p else _NORLUND_ABOVE


def meijer_g_batch(params: MeijerGParams, zs, tol: float = 1e-10,
                   deriv: int = 0) -> np.ndarray:
    """G^{q,0}_{p,q}(z | a; b), or its deriv-th z-derivative, at positive zs.

    Absolute error target tol * max(1, |result|).  Arguments up to 0.04
    take the residue series; the rest, and series points whose residues
    cancel, take the contour, on an abscissa lattice whose Gamma-product
    grids are cached per (params, abscissa, tol) across calls, except
    arguments (inf included) where the leading asymptote shows that G
    underflows: they give 0.  NaN gives NaN, and a finite z whose G is
    past the float range raises ``NumericalError``; tol must be in (0, inf) and
    deriv a non-negative integer.  When q = p arguments up to 0.3 take the
    series and the rest Norlund's expansion, as do series points whose
    residues cancel; G vanishes from 1 on: closing the contour to the right
    encloses no pole.
    """
    zs = np.asarray(zs, dtype=float)
    if np.any(zs <= 0):
        raise ValueError("arguments must be positive")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if not (isinstance(deriv, (int, np.integer)) and deriv >= 0):
        raise ValueError(f"deriv must be a non-negative integer, got {deriv!r}")
    if deriv:
        # P(s) = s (s+1) ... (s+deriv-1) = Gamma(s + deriv) / Gamma(s)
        params = MeijerGParams(params.a + (0.0,), params.b + (float(deriv),))
    flat = zs.ravel()
    out = np.where(np.isnan(flat), np.nan, 0.0)
    sigma = params.q - params.p
    series = flat <= _series_top(params)
    with np.errstate(over="ignore", invalid="ignore"):  # a G past the float range raises below
        if np.any(series):
            out[series] = _meijer_g_series(params, flat[series])
        # q = p: Norlund's expansion takes the rest below 1, and the series points whose
        # residues cancel; q > p: the contour takes the rest and those series points
        if not sigma and len(idx := np.flatnonzero((flat < 1.0) & (np.isnan(out) | ~series))):
            out[idx] = _meijer_g_norlund(params, flat[idx], tol)
        rest = np.flatnonzero((np.isnan(out) | (~series & (sigma > 0))) & ~np.isnan(flat))
        if sigma and len(rest):  # no contour where G underflows, z = inf included
            rest = rest[~_underflows(params, flat[rest])]
        if len(rest):
            out[rest] = _meijer_g_contour_batch(params, flat[rest], tol)
        out *= (-1.0) ** deriv * flat ** (-float(deriv))
    if len(bad := flat[~np.isfinite(out) & (flat < math.inf)]):
        raise NumericalError(f"G is not a finite double: a = {params.a}, b = {params.b}, "
                             f"z in [{bad.min():.6g}, {bad.max():.6g}]")
    return out.reshape(zs.shape)


def meijer_g(params: MeijerGParams, x: float, tol: float = 1e-10,
             deriv: int = 0) -> float:
    """G^{q,0}_{p,q}(x | a; b), or its deriv-th z-derivative: a batch of one."""
    return float(meijer_g_batch(params, [x], tol, deriv)[0])
