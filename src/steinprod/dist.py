"""Product-distribution machinery: samplers, Mellin transforms, densities,
characteristic function, tail asymptotics and closed-form moments.

The density is read off the Stein operator.  Its two theta-form sides
(``steinops.stein_sides``) are c_L x^{j_L} prod (theta + r_L) and
c_R x^{j_R} prod (theta + r_R); theta acts on x^s as s, so the Mellin
transform M(s) = E|W|^{s-1} satisfies
c_L prod (s + r_L) M(s + j_L + 1) = c_R prod (s + r_R) M(s + j_R + 1).
With the power h = j_R - j_L its solution is

    M(s) = K (w/h) kappa^{-s/h} prod Gamma(b + s/h) / prod Gamma(a + s/h),
    b = (r_L - j_L - 1)/h,  a = (r_R - j_L - 1)/h,
    kappa = c_R h^{|r_R|} / (c_L h^{|r_L|}),

the transform of p(x) = K G^{q,0}_{p,q}(kappa |x|^h | a; b) over its support
(w = 2 on the line when a normal factor is present, w = 1 on x > 0
otherwise).  M(1) = 1 fixes K.  A normal factor gives h = 2, a
generalised-gamma product (power q) h = q, b = (r - 1)/q and
kappa = lam^{qn}, and every other product h = 1.

``NumericCdf`` takes the distribution function from the survival function,
the density evaluator of the survival rows.

The characteristic function conditions on a normal factor: W = sigma Z U, so
phi(t) = E exp(-a U^2), a = (sigma t)^2 / 2, one positive integral against
the density of the other factors U, cut at the reach sqrt(38 / a).  That
integral, ``_density_integral``, also gives the normalisation (weight 1) and
the Stein solver's E h (``steinsolve.expect_pg``, weight h).

Evaluators reduce their parameters first.  Rows that reduce to G^{1,0}_{0,1}
or G^{2,0}_{0,2} give one ``ClosedForm``, evaluated in logs;
``meijer_g_batch`` takes every other spec, pure betas included, and each
point where the closed form leaves the float range.  Near the origin G's left-residue
series (Luke, 1969, ch. 5) is the one route: it takes each argument kappa |x|^h below
the normal doubles at ln kappa + h ln|x|, and x = 0 as its limit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
import numpy as np

from . import quad
from .specfun import (MeijerGParams, NumericalError, _asymptotic_exponents, _log_asymptotic_g,
                      _meijer_g_limit, _meijer_g_series, bessel_k, meijer_g_batch, reduce_params)
from .steinops import ProductSpec, stein_sides

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)
_LN_TINY = -1022 * _LN2  # log of the smallest normal double


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

SAMPLE_BLOCK = 2**15  # draws per seeded block; a multiple of verify.MC_CHUNK


def _blocks(spec: ProductSpec, count: int, seed: int) -> list:
    """(seed sequence, size) of each block: child i of ``SeedSequence(seed)`` draws
    block i, ``SAMPLE_BLOCK`` values and the rest in the last block.  A spec that
    ``stein_sides`` rejects (a rate whose powers leave the doubles) draws no block."""
    if count < 1:
        raise ValueError("count must be >= 1")
    stein_sides(spec)
    full, rest = divmod(count, SAMPLE_BLOCK)
    sizes = [SAMPLE_BLOCK] * full + [rest] * (rest > 0)
    return list(zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes))


def _draw(spec: ProductSpec, seq: np.random.SeedSequence, size: int) -> np.ndarray:
    """One block of draws: the factors in turn, betas, gammas, then normals.

    Generalised-gamma factors use V = (lam^{1-q} U)^{1/q} with
    U ~ Gamma(r/q, lam), which has the target density.  The rate, the scale and
    q are taken as floats, so an exact-rational spec draws the float spec's bits.
    A block with a draw past the double range raises ``NumericalError``.
    """
    rng = np.random.Generator(np.random.PCG64(seq))
    w = np.ones(size)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite draw raises below
        for a, b in spec.beta_pairs:
            w *= rng.beta(a, b, size)
        if spec.n:
            lam, q = float(spec.lam), float(spec.q)
        for r in spec.gamma_shapes:
            if q == 1:
                w *= rng.gamma(r, 1.0, size) / lam
            else:
                u = rng.gamma(r / q, 1.0, size) / lam
                w *= (lam ** (1.0 - q) * u) ** (1.0 / q)
        for _ in range(spec.normal_count):
            w *= rng.standard_normal(size)
        if spec.normal_count:
            w *= float(spec.sigma)
    if not np.isfinite(w).all():
        raise NumericalError(f"a draw is past the double range ({spec.describe()})")
    return w


def sample(spec: ProductSpec, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws of the product, a function of (spec, count, seed) alone.

    The draws come in blocks of ``SAMPLE_BLOCK`` (``_blocks``), each from its
    own ``SeedSequence(seed).spawn`` child, and are the blocks of
    ``sample_blocks`` put end to end.
    """
    blocks = _blocks(spec, count, seed)
    out = np.empty(count)
    for i, (seq, size) in enumerate(blocks):
        out[i * SAMPLE_BLOCK:i * SAMPLE_BLOCK + size] = _draw(spec, seq, size)
    return out


def sample_blocks(spec: ProductSpec, count: int, seed: int) -> Iterator[np.ndarray]:
    """The blocks of ``sample(spec, count, seed)`` in order, as they are drawn.

    A one-worker executor draws block i + 1 while the caller works on block i
    (numpy's generators release the GIL), so at most two blocks are alive, and
    a drawing error is raised in the caller.  The worker is joined when the
    generator finishes or is closed: a caller that may leave the walk early
    wraps it in ``contextlib.closing``.
    """
    from concurrent.futures import ThreadPoolExecutor  # on first use: `import steinprod` loads none

    blocks = _blocks(spec, count, seed)
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="steinprod-sample")
    try:
        ahead = pool.submit(_draw, spec, *blocks[0])
        for job in blocks[1:]:
            block, ahead = ahead.result(), pool.submit(_draw, spec, *job)
            yield block
        yield ahead.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# Mellin transforms
# ---------------------------------------------------------------------------

@dataclass
class MellinTransform:
    """M(s) = E|W|^{s-1} (symmetric convention when a normal factor is present)."""

    spec: ProductSpec
    strip: tuple[float, float]

    def log_value(self, s: float) -> float:
        lo, hi = self.strip
        if not (lo < s < hi):
            raise ValueError(f"s={s} outside convergence strip ({lo}, {hi})")
        spec = self.spec
        total = 0.0
        for a, b in spec.beta_pairs:
            total += (math.lgamma(a + b) - math.lgamma(a)
                      + math.lgamma(a - 1 + s) - math.lgamma(a + b - 1 + s))
        if spec.n:
            total += -spec.n * (s - 1) * math.log(spec.lam)
            for r in spec.gamma_shapes:
                total += math.lgamma((r - 1 + s) / spec.q) - math.lgamma(r / spec.q)
        if spec.N:
            total += (-0.5 * spec.N * _LNPI + 0.5 * spec.N * (s - 1) * _LN2
                      + (s - 1) * math.log(spec.sigma) + spec.N * math.lgamma(0.5 * s))
        return total

    def __call__(self, s: float) -> float:
        """M(s), typed when it is past the double range."""
        return _exp_const(self.log_value(s), self.spec, f"E|W|^(s-1) at s = {s:.6g}:")


def mellin(spec: ProductSpec) -> MellinTransform:
    """Factorised Mellin transform (product over the independent factors).

    A generalised-gamma factor (power q) contributes
    lam^{1-s} Gamma((r - 1 + s)/q) / Gamma(r/q); q = 1 is the gamma factor.
    """
    lo = -math.inf
    for a, _ in spec.beta_pairs:
        lo = max(lo, 1.0 - a)
    for r in spec.gamma_shapes:
        lo = max(lo, 1.0 - r)
    if spec.N:
        lo = max(lo, 0.0)
    return MellinTransform(spec=spec, strip=(lo, math.inf))


def mellin_gform_log(spec: ProductSpec, s: float) -> float:
    """log of the Mellin transform computed from the G-density integral.

    Independent of the factorised route: it uses the closed-form moment
    integral of the G-function against x^{s-1}.
    """
    ev = density(spec)
    return ev.log_const + _log_g_mellin(ev.g_params, ev.arg_coeff, ev.power, spec.symmetric, s)


def _log_g_mellin(params: MeijerGParams, kappa: float, h: float, symmetric: bool,
                  s: float) -> float:
    """log int x^{s-1} G(kappa |x|^h | a; b) dx over the support, the line when symmetric:
    (w/h) kappa^{-s/h} prod Gamma(b + s/h) / prod Gamma(a + s/h), w = 2 or 1."""
    u = s / h
    return (math.log((1 + symmetric) / h) - u * math.log(kappa)
            + sum(math.lgamma(v + u) for v in params.b) - sum(math.lgamma(v + u) for v in params.a))


def moment(spec: ProductSpec, k: int) -> float:
    """E W^k (odd moments vanish when a normal factor is present)."""
    if spec.N and k % 2 == 1:
        return 0.0
    return mellin(spec)(k + 1)


# ---------------------------------------------------------------------------
# density evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """p(x) = exp(log_c + alpha log|x|) Phi_nu(rate |x|^power) with Phi = e^{-z} (``phi``
    "e", the reduced rows G^{1,0}_{0,1}) or K_nu ("k", G^{2,0}_{0,2})."""

    log_c: float
    alpha: float
    nu: float
    phi: str
    rate: float
    power: float

    def log_value(self, ax: np.ndarray) -> np.ndarray:
        """log p at |x| = ax > 0; not finite where Phi under- or overflows a double."""
        z = self.rate * ax**self.power
        log_phi = -z if self.phi == "e" else np.log(bessel_k(self.nu, np.where(z > 0, z, np.nan)))
        return self.log_c + self.alpha * np.log(ax) + log_phi


@dataclass
class DensityEvaluator:
    """K G(kappa |x|^h | a; b), a product's density or (``NumericCdf.survival``) its mass
    beyond |x|: ``batch`` is the one evaluation path.

    ``density`` reads every field off the Stein operator's theta-form sides: the rows
    ``g_params``, kappa = ``arg_coeff`` and the ``power`` h = j_R - j_L, the difference
    of the sides' x-powers (2 with a normal factor, q for generalised gammas, 1
    otherwise); M(1) = 1 fixes K = exp(``log_const``).  The support is the line when
    ``spec.symmetric`` (a normal factor), x > 0 otherwise.  ``batch`` evaluates the
    ``closed`` form in logs, if any, and the reduced G-function in one ``meijer_g_batch``
    call at every other point, but for arguments below the normal doubles, which take the
    residue series at ln kappa + h ln|x|.  x = 0 takes that series' limit, NaN stays NaN
    and an argument past the float range gives the limit 0; a value past the doubles at
    x != 0 raises ``NumericalError``.  A scalar call is a batch of one.
    """

    spec: ProductSpec
    g_params: MeijerGParams
    log_const: float
    arg_coeff: float
    power: float
    reduced: MeijerGParams = field(init=False)
    closed: ClosedForm | None = field(init=False)
    tol = 1e-11  # the G engine's tolerance: a class constant, not a field

    def __post_init__(self):
        self.reduced = rows = reduce_params(self.g_params)
        b, kappa, h, self.closed = rows.b, self.arg_coeff, self.power, None
        if rows.p == 0 and len(b) == 1:  # K y^b e^{-y}
            self.closed = ClosedForm(self.log_const + b[0] * math.log(kappa), h * b[0], 0.0, "e",
                                     kappa, h)
        elif rows.p == 0 and len(b) == 2:  # 2 K y^half K_nu(2 sqrt y)
            half = 0.5 * (b[0] + b[1])
            self.closed = ClosedForm(self.log_const + _LN2 + half * math.log(kappa), h * half,
                                     b[0] - b[1], "k", 2.0 * math.sqrt(kappa), 0.5 * h)

    @property
    def const(self) -> float:
        """K = exp(log_const); a NumericalError when K is beyond the float range."""
        return _exp_const(self.log_const, self.spec)

    def argument(self, x):
        """The G argument kappa |x|^h, on either support; inf past the float range."""
        with np.errstate(over="ignore"):
            return self.arg_coeff * np.abs(x) ** self.power

    def small_x_exponent(self) -> float:
        """The power h b_min of |x| in p as x -> 0, times a power of ln|x| at coincident b."""
        return self.power * min(self.reduced.b)

    # -- evaluation -------------------------------------------------------------

    def batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ax = np.abs(xs) if self.spec.symmetric else xs
        out = np.where(np.isnan(xs), np.nan, 0.0)
        y = self.argument(xs)
        live = (ax > 0) & (y < math.inf)
        with np.errstate(divide="ignore", over="ignore"):  # Phi or p past the float range
            logs = (self.closed.log_value(ax[live]) if self.closed
                    else np.full(np.count_nonzero(live), np.nan))
            vals = np.exp(logs)  # 0 where the density is below the smallest double
        rest = np.flatnonzero(~((logs > -math.inf) & (vals < math.inf)))
        if rest.size:
            y, ax_rest = y[live][rest], ax[live][rest]
            low, g = y < np.finfo(float).tiny, np.empty(rest.size)  # below the normal doubles
            g[~low] = meijer_g_batch(self.reduced, y[~low], self.tol)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
                g[low] = _meijer_g_series(self.reduced, math.log(self.arg_coeff)
                                          + self.power * np.log(ax_rest[low]))
                # K g, in logs where K is below the normal doubles (else a silent 0 for a
                # finite g); g = 0 gives 0, and ``const`` raises past the doubles
                vals[rest] = (self.const * g if self.log_const >= _LN_TINY
                              else np.sign(g) * np.exp(self.log_const + np.log(np.abs(g))))
            if not np.isfinite(vals[rest]).all():
                lost = ax_rest[~np.isfinite(vals[rest])]
                raise NumericalError(f"the density is not a finite double at |x| in "
                                     f"[{lost.min():.3g}, {lost.max():.3g}] ({self.spec.describe()})")
        out[live] = vals
        if np.any(zero := ax == 0):  # K times the limit of G's residue series, in logs
            sign, log_g = _meijer_g_limit(self.reduced)
            out[zero] = sign * _exp_const(self.log_const + log_g, self.spec, "density at x = 0")
        return out

    def __call__(self, x: float) -> float:
        return float(self.batch([x])[0])

    # -- integration helpers ------------------------------------------------

    def tail_cut(self, target_exponent: float = 34.0) -> float:
        """x beyond which exp(-sigma z^{1/sigma}) of G's asymptote is below e^{-target}, or, when
        z^theta peaks far out (theta > target / 2 sigma), the asymptote is e^{-target} of its peak."""
        if self.reduced.q == self.reduced.p:  # pure beta: compact, ends where the G argument is 1
            return (1.0 / self.arg_coeff) ** (1.0 / self.power)
        sigma, theta = _asymptotic_exponents(self.reduced)
        t = target_exponent / sigma
        w = t  # w = z^{1/sigma}; the exponent is -sigma (w - theta ln w), least at w = theta
        if t < 2.0 * theta:  # Newton on w - theta ln(w / theta) - theta = t, convex for w > theta
            w = theta + math.sqrt(2.0 * theta * t) + t
            for _ in range(12):
                w -= (w - theta * math.log(w / theta) - theta - t) / (1.0 - theta / w)
        return (w**sigma / self.arg_coeff) ** (1.0 / self.power)

    def mass_cut(self, tol: float) -> float:
        """x beyond which the mass of p is below about 1e-3 tol: ``tail_cut(38)``, doubled
        until x p(x), read off ``log_asymptote``, is below 1e-3 tol."""
        x_tail = self.tail_cut(38.0)
        while self.reduced.q > self.reduced.p and math.log(x_tail) + float(
                self.log_asymptote(x_tail)) > math.log(1e-3 * tol):
            x_tail *= 2.0
        return x_tail

    def log_asymptote(self, x):
        """log of K times G's leading large-argument term at kappa |x|^h (q > p)."""
        return self.log_const + _log_asymptotic_g(self.reduced, self.argument(x))


def _exp_const(log_value: float, spec: ProductSpec, what: str = "density constant") -> float:
    """exp(log_value) for a density constant (or ``what``), typed when it overflows."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericalError(f"{what} exp({log_value:.6g}) overflows a double "
                             f"({spec.describe()})") from None


def density(spec: ProductSpec) -> DensityEvaluator:
    """Density evaluator for any product spec, read off ``stein_sides`` (module docstring)."""
    lhs, rhs = stein_sides(spec)
    h, shift = rhs.xpow - lhs.xpow, lhs.xpow + 1
    params = MeijerGParams([(v - shift) / h for v in rhs.roots],
                           [(v - shift) / h for v in lhs.roots])
    kappa = float(rhs.coeff) / float(lhs.coeff) * h ** (len(rhs.roots) - len(lhs.roots))
    if not 0 < kappa < math.inf:
        raise NumericalError(f"density argument scale {kappa:g} is past the double range "
                             f"({spec.describe()})")
    # a shape rounded so that a Gamma(v + 1/h) of the constant (``_log_g_mellin``) has a pole
    if any(v + 1.0 / h == math.floor(v + 1.0 / h) <= 0 for v in params.a + params.b):
        raise NumericalError(f"density constant has a Gamma factor at a pole ({spec.describe()})")
    return DensityEvaluator(
        spec=spec, g_params=params, arg_coeff=kappa, power=float(h),
        log_const=-_log_g_mellin(params, kappa, h, spec.symmetric, 1.0))


def _density_integral(ev: DensityEvaluator, f, reach: float, tol: float) -> float:
    """int f over the support of p = ``ev`` (the line when symmetric) for f = w p, with an
    even weight |w| <= 1 that is below e^{-38} beyond ``reach``.  The head, up to where the
    G argument is 0.5, is ``quad.tanh_sinh`` from p's power-law end, x^{h b_min} at 0, with
    nodes down to the subnormals (``batch`` reads them off the residue series in ln z).  On a
    compact support (q = p) the body is ``quad.tanh_sinh`` down from the cut, where G(y) ~
    (1 - y)^{psi - 1} with psi = sum a - sum b; else one adaptive rule in u = sqrt(x) with
    leaves to tol / (100 n), n the e-folds of exp(-sigma z^{1/sigma}) from head to cut, as
    an oscillating weight's leaf errors add."""
    # cut at the reach too, or a first adaptive panel could miss all of the weight's mass
    x_tail = min(ev.mass_cut(tol), reach)
    x_head = min((0.5 / ev.arg_coeff) ** (1.0 / ev.power), 0.5 * x_tail)
    total = quad.tanh_sinh(f, 0.0, x_head, ev.small_x_exponent(), tol * 0.1)
    rows = ev.reduced
    if (sigma := rows.q - rows.p) == 0:
        total -= quad.tanh_sinh(f, x_tail, x_head, sum(rows.a) - sum(rows.b) - 1.0, tol * 0.1)
    else:
        z_head, z_tail = ev.argument(np.array([x_head, x_tail])) ** (1.0 / sigma)
        n = max(1, math.ceil(sigma * (z_tail - z_head)))
        total += quad.adaptive(lambda u: 2.0 * u * f(u * u), math.sqrt(x_head), math.sqrt(x_tail),
                               tol=tol * 0.01 / n)
    return 2.0 * total if ev.spec.symmetric else total


def normalization(spec: ProductSpec) -> float:
    """Numerical integral of the density over its support."""
    ev = density(spec)
    return _density_integral(ev, ev.batch, math.inf, 1e-8)


# ---------------------------------------------------------------------------
# characteristic function and tails
# ---------------------------------------------------------------------------

def char_function(spec: ProductSpec, t: float) -> float:
    """phi(t) = E cos(t W) = E exp(-a U^2), a = (sigma t)^2 / 2, for W = sigma Z U.

    U, ``spec`` with one normal fewer at unit scale, is independent of
    Z ~ N(0, 1).  The integral against U's density is ``normalization``'s,
    cut at the reach sqrt(38 / a) where the weight is e^{-38}; t = 0,
    t = inf and the lone normal (U = 1) give exp(-a).
    """
    if spec.N < 1:
        raise ValueError("characteristic function requires a normal factor")
    st = spec.sigma * abs(t)  # a = st^2 / 2, never formed: it leaves the doubles first
    if not 0.0 < st < math.inf or spec.N == 1 and not (spec.m or spec.n):
        return math.exp(-0.5 * st * st)  # 1 at t = 0, the limit 0 at t = inf, NaN at NaN
    ev = density(replace(spec, normal_count=spec.N - 1, sigma=1.0 if spec.N > 1 else None))
    return _density_integral(ev, lambda us: np.exp(-0.5 * (st * us) ** 2) * ev.batch(us),
                             math.sqrt(76.0) / st, 1e-9)


def char_function_closed(spec: ProductSpec, t: float) -> float:
    """Closed reductions of the G-form characteristic function.

    Available for the pure product-normal cases N = 1 (Gaussian cf) and
    N = 2 (algebraic cf); used to cross-check the conditioning route.
    """
    if spec.m or spec.n:
        raise ValueError("closed cf available for pure normal products only")
    s2t2 = (spec.sigma * t) ** 2
    if spec.N == 1:
        return math.exp(-0.5 * s2t2)
    if spec.N == 2:
        return 1.0 / math.sqrt(1.0 + s2t2)
    raise ValueError("closed cf implemented for N in {1, 2}")


def tail_asymptotic(spec: ProductSpec, x):
    """Leading tail behaviour of the density for |x| large (N >= 1), exp(``log_asymptote``)
    in one pass; x = 0, where the asymptote has no value, is a ValueError."""
    if spec.N < 1:
        raise ValueError("tail asymptotics implemented for symmetric products")
    ev = density(spec)
    xs = np.atleast_1d(x)
    if np.any(zero := ev.argument(xs) == 0):
        raise ValueError(f"the tail asymptote has no value at x = 0, nor where the G argument "
                         f"underflows to 0 (x = {xs[zero][0]:.3g})")
    with np.errstate(over="ignore"):
        out = np.exp(logs := ev.log_asymptote(xs))  # 0 below the smallest double
    if np.any(big := out == math.inf):
        raise NumericalError(f"the tail asymptote exp({logs[big].max():.6g}) overflows a double "
                             f"({spec.describe()})")
    return out if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------------------
# numeric CDF
# ---------------------------------------------------------------------------

class NumericCdf:
    """Cumulative distribution function from the survival function, the density
    evaluator of the survival rows.

    For the density K G(k |x|^h | A; B), the mass beyond |x| (P(W > x) on x > 0,
    P(|W| > |x|) on the line) is (w K / (h k^{1/h})) G(k |x|^h | A+1/h, 1; B+1/h, 0),
    w = 2 on the line and 1 otherwise, from M[int_x^inf f](s) = M[f](s+1) / s.
    ``survival.batch``, with the density's closed forms, series and K in logs, is that mass
    at x != 0; at x = 0 it is all of it, 1 exactly, so F is 0 left of a positive support.
    """

    def __init__(self, spec: ProductSpec):
        self.ev = ev = density(spec)
        shift = 1.0 / ev.power
        self.survival = DensityEvaluator(spec, MeijerGParams(
            [v + shift for v in ev.reduced.a] + [1.0], [v + shift for v in ev.reduced.b] + [0.0]),
            log_const=(ev.log_const + math.log((1 + spec.symmetric) / ev.power)
                       - shift * math.log(ev.arg_coeff)),
            arg_coeff=ev.arg_coeff, power=ev.power)

    def __call__(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.ev.spec.symmetric:
            xs = np.maximum(xs, 0.0)  # left of a positive support is its left end
        tail = np.where(xs == 0, 1.0, self.survival.batch(xs))  # mass beyond |x|: all at 0
        share = 0.5 if self.ev.spec.symmetric else 1.0  # of that mass on the side of x
        out = np.where(xs < 0, share * tail, 1.0 - share * tail)
        return out if np.ndim(x) else float(out[0])
