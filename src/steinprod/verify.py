"""Cross-verification harness: Monte Carlo Stein identities, adjoint-ODE
residual scans, Mellin equalities, sampler/density agreement and the exact
Mellin form of the Stein identity.

Every check emits a machine-readable report.  Monte Carlo tests pass when
the estimate sits within max(absolute floor, three standard errors) of
zero; deterministic tests compare against their stated tolerance.
``standard_suite`` runs them by name (``SUITES``).
"""

from __future__ import annotations

import json
import math
from contextlib import closing
from dataclasses import dataclass, asdict

import numpy as np

from . import dist, funcs
from .opalg import ThetaOp
from .specfun import meijer_g_batch
from .steinops import ProductSpec, adjoint_sides, build_stein, reduce_order, stein_sides

REPORT_VERSION = 1


@dataclass
class VerificationReport:
    """Outcome of one verification run."""

    test_id: str
    estimate: float
    standard_error: float
    tolerance: float
    samples: int
    seed: int
    passed: bool
    details: str = ""

    def to_dict(self) -> dict:
        out = asdict(self)
        out["version"] = REPORT_VERSION
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass
class TestFunctionFamily:
    """Smooth test functions with derivatives of every order.

    kinds: "gaussian_damped" (x^i exp(-x^2/(2 tau^2))), "exponential_damped"
    (x^i exp(-x/tau)), "monomial" (x^i).  All members satisfy the moment
    conditions of the identities they are used against by construction.
    """

    kind: str
    indices: tuple[int, ...]
    tau: float = 1.0

    def members(self) -> list:
        if self.kind == "gaussian_damped":
            return [funcs.gaussian_damped(i, self.tau) for i in self.indices]
        if self.kind == "exponential_damped":
            return [funcs.exponential_damped(i, self.tau) for i in self.indices]
        if self.kind == "monomial":
            return [funcs.monomial(i) for i in self.indices]
        raise ValueError(f"unknown family kind {self.kind!r}")

    def label(self, i: int) -> str:
        return f"{self.kind}[{i}]"


def default_family(spec: ProductSpec) -> TestFunctionFamily:
    """Five-member damped family scaled to the spec's standard deviation."""
    tau = math.sqrt(max(dist.moment(spec, 2), 1e-6))
    return TestFunctionFamily(kind="gaussian_damped", indices=(0, 1, 2, 3, 4), tau=tau)


# ---------------------------------------------------------------------------
# Monte Carlo Stein identities
# ---------------------------------------------------------------------------

MC_CHUNK = 8192  # draws per apply_terms call; members x sides x MC_CHUNK doubles stay in cache


class _StreamedMoments:
    """Per-row count, sum and sum of squared deviations (M2) over chunks.

    Each chunk's M2 is taken about its own mean and merged by Chan, Golub
    & LeVeque (Amer. Statist. 37, 1983): M2 += M2_b + d^2 n_a n_b / n.
    """

    def __init__(self, shape=()):
        self.count = 0
        self.total = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add(self, vals: np.ndarray) -> None:
        c = vals.shape[-1]
        s = vals.sum(axis=-1, keepdims=True)
        dev = vals - s / c
        m2 = np.einsum("...i,...i->...", dev, dev)
        s = s[..., 0]
        if self.count:
            delta = s / c - self.total / self.count
            m2 += delta * delta * (self.count * c / (self.count + c))
        self.m2 += m2
        self.total += s
        self.count += c

    def mean(self) -> np.ndarray:
        return self.total / self.count

    def standard_error(self) -> np.ndarray:
        """std(ddof=1) / sqrt(n) of each row."""
        return np.sqrt(self.m2 / (self.count - 1)) / math.sqrt(self.count)


def _chunks(blocks):
    """Slices of ``MC_CHUNK`` draws of each block in turn.  ``dist.SAMPLE_BLOCK`` is a
    multiple of ``MC_CHUNK``, so the chunks of ``dist.sample_blocks`` are those of
    ``[dist.sample(...)]``."""
    for w in blocks:
        for start in range(0, len(w), MC_CHUNK):
            yield w[start:start + MC_CHUNK]


def _check_samples(samples: int) -> None:
    if samples < 2:
        raise ValueError(f"Monte Carlo checks need samples >= 2 for a standard error, "
                         f"got {samples}")


def mc_stein_identity(spec: ProductSpec, family: TestFunctionFamily,
                      samples: int, seed: int) -> VerificationReport:
    """Estimate E[A f(W)] for every family member; report the worst one.

    The draws of ``dist.sample(spec, samples, seed)`` are walked in chunks of
    ``MC_CHUNK`` as ``dist.sample_blocks`` draws them: each chunk applies both
    sides to every member at once, and only per-member sums are kept.
    """
    _check_samples(samples)
    bundle = build_stein(spec)
    members = family.members()
    if bundle.reduced_order > max(getattr(f, "max_order", 0) for f in members):
        raise ValueError("operator order exceeds family smoothness")
    moments = _StreamedMoments(len(members))
    abs_sums = np.zeros((2, len(members)))  # sum |lhs|, sum |rhs| per member
    with closing(dist.sample_blocks(spec, samples, seed)) as blocks:
        for x in _chunks(blocks):
            sides = bundle.apply_terms(members, x)
            moments.add(sides[0] - sides[1])
            for total, side in zip(abs_sums, sides):
                total += np.abs(side).sum(axis=1)
    ests, ses = moments.mean(), moments.standard_error()
    scales = abs_sums.sum(axis=0) / samples
    worst = None
    lines = []
    for i, est, se, scale in zip(family.indices, ests.tolist(), ses.tolist(), scales.tolist()):
        floor = 1e-3 * scale
        ratio = abs(est) / max(floor, 3.0 * se, 1e-300)
        lines.append(f"{family.label(i)}: est={est:.3e} se={se:.3e} scale={scale:.3e}")
        if worst is None or ratio > worst[0]:
            worst = (ratio, est, se, floor)
    _, est, se, floor = worst
    return VerificationReport(
        test_id=f"mc-stein[{spec.describe()}|{family.kind}]",
        estimate=est, standard_error=se, tolerance=floor,
        samples=samples, seed=seed,
        passed=abs(est) <= max(floor, 3.0 * se),
        details="; ".join(lines))


def reduced_full_mc_compare(spec: ProductSpec, f, samples: int,
                            seed: int) -> VerificationReport:
    """Full operator on f versus reduced operator on g = B_C f, same draws.

    The two are pointwise equal up to floating error, so the comparison
    passes far inside three standard errors; the pointwise gap is also
    reported in the details.  Draws are walked as in ``mc_stein_identity``.
    """
    _check_samples(samples)
    full = build_stein(spec)
    red = reduce_order(spec)
    g = red.transformed_function(f)
    full_moments = _StreamedMoments()
    diff_sum = abs_full = peak_diff = peak_full = 0.0
    with closing(dist.sample_blocks(spec, samples, seed)) as blocks:
        for x in _chunks(blocks):
            a_full = full.apply(f, x)
            diff = a_full - red.apply(g, x)
            full_moments.add(a_full)
            diff_sum += float(diff.sum())
            abs_full += float(np.abs(a_full).sum())
            peak_diff = np.maximum(peak_diff, np.max(np.abs(diff)))  # NaN propagates
            peak_full = np.maximum(peak_full, np.max(np.abs(a_full)))
    est = diff_sum / samples
    se_full = float(full_moments.standard_error())
    scale = abs_full / samples + 1e-300
    point_gap = float(peak_diff / max(peak_full, 1e-300))
    return VerificationReport(
        test_id=f"reduced-vs-full[{spec.describe()}]",
        estimate=est, standard_error=se_full, tolerance=1e-3 * scale,
        samples=samples, seed=seed,
        passed=abs(est) <= max(1e-3 * scale, 3.0 * se_full) and point_gap < 1e-8,
        details=f"orders {full.expected_order}->{red.reduced_order}; "
                f"pointwise gap {point_gap:.2e}")


# ---------------------------------------------------------------------------
# adjoint ODE residuals
# ---------------------------------------------------------------------------

def adjoint_residual_scan(spec: ProductSpec, grid,
                          tolerance: float | None = None) -> VerificationReport:
    """max |A* p| / max |p| over the grid for the density-annihilating ODE.

    p = K G(z) at z = kappa |x|^h, and theta_x = x d/dx acts on it as h theta_z, so a
    side c x^j prod_i (theta_x + r_i) of ``adjoint_sides`` is x^j times
    ThetaOp(c h^n, 0, r / h) in z, whose expansion sum_k b_k z^k D^k reads the rows
    z^k G^(k)(z), every G^(k) exact from ``meijer_g_batch``; K cancels in the ratio.
    The cancellation ratio R = max sum |terms| / max |p| scales the G engine's error
    ``ev.tol``: where ev.tol * R exceeds the tolerance the scan cannot resolve a
    residual that small, and the report says "unresolved" and fails.
    """
    grid = np.asarray(grid, dtype=float)
    excluded = int(np.sum(np.abs(grid) < 1e-12))
    grid = grid[np.abs(grid) >= 1e-12]  # the origin is singular for most densities
    ev = dist.density(spec)
    sides = adjoint_sides(spec)
    order = max(len(side.roots) for side in sides)
    z = ev.argument(grid)
    # rows z^k G^(k)(z) for k = 0..order; row 0 is p / K
    zg = np.array([z**k * meijer_g_batch(ev.reduced, z, ev.tol, deriv=k)
                   for k in range(order + 1)])
    residuals, magnitudes = np.zeros_like(grid), np.zeros_like(grid)
    for sign, side in zip((1.0, -1.0), sides):
        in_z = ThetaOp(float(side.coeff) * ev.power ** len(side.roots), 0,
                       tuple(float(r) / ev.power for r in side.roots)).expand().terms
        b = np.array([float(in_z.get((k, k), 0.0)) for k in range(order + 1)])
        terms = b[:, None] * zg * grid ** float(side.xpow)
        residuals += sign * terms.sum(axis=0)
        magnitudes += np.abs(terms).sum(axis=0)
    tol = tolerance if tolerance is not None else (1e-8 if ev.closed else 1e-4)
    p_max = np.max(np.abs(zg[0]))
    worst = float(np.max(np.abs(residuals)) / p_max)
    ratio = float(np.max(magnitudes) / p_max)
    resolved = ev.tol * ratio <= tol
    status = f"R = {ratio:.1e}" if resolved else f"unresolved (R = {ratio:.1e})"
    note = f", {excluded} origin point(s) excluded" if excluded else ""
    return VerificationReport(
        test_id=f"adjoint-ode[{spec.describe()}]",
        estimate=worst, standard_error=0.0, tolerance=tol,
        samples=len(grid), seed=0, passed=resolved and worst <= tol,
        details=f"order {order}, {status}, grid [{grid[0]:g}, {grid[-1]:g}]{note}")


# ---------------------------------------------------------------------------
# Mellin equality and the Mellin form of the Stein identity
# ---------------------------------------------------------------------------

def mellin_equality_scan(spec: ProductSpec, s_points) -> VerificationReport:
    """Factorised transform against the G-integral transform, in log space."""
    s_points = [float(s) for s in s_points]
    mel = dist.mellin(spec)
    worst = 0.0
    for s in s_points:
        lhs = mel.log_value(s)
        rhs = dist.mellin_gform_log(spec, s)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return VerificationReport(
        test_id=f"mellin-equality[{spec.describe()}]",
        estimate=worst, standard_error=0.0, tolerance=1e-10,
        samples=len(s_points), seed=0, passed=worst <= 1e-10,
        details=f"{len(s_points)} strip points")


def moment_recursion_check(spec: ProductSpec, k_max: int) -> VerificationReport:
    """Exact-moment verification of the Stein identity on power test functions.

    theta acts on f = x^s (sign(x)|x|^s with a normal factor) as s, so
    E[lhs f] = E[rhs f] for the ``stein_sides`` coeff x^xpow prod (theta + r)
    reads c_L prod (s + r_L) M(s + xpow_L + 1) = c_R prod (s + r_R) M(s + xpow_R + 1),
    M(u) = E|W|^{u-1}.  The estimate is the worst log gap, with signs, over
    k_max + 1 points s inside the Mellin strip.
    """
    mel = dist.mellin(spec)
    sides = stein_sides(spec)
    # M(s + xpow + 1) of both sides lies half a unit or more inside the strip
    s0 = mel.strip[0] - 0.5 - min(side.xpow for side in sides)
    worst = 0.0
    for s in (s0 + k for k in range(k_max + 1)):
        (vl, ml), (vr, mr) = ((float(side.coeff) * math.prod(s + r for r in side.roots),
                               mel.log_value(s + side.xpow + 1)) for side in sides)
        worst = max(worst, abs(math.log(vl / vr) + ml - mr) if vl / vr > 0 else math.inf)
    tolerance = 1e-12
    return VerificationReport(
        test_id=f"moment-recursion[{spec.describe()}]",
        estimate=worst, standard_error=0.0, tolerance=tolerance,
        samples=0, seed=0, passed=worst <= tolerance,
        details=f"Mellin form of the Stein identity at s = {s0:g} + 0..{k_max}")


# ---------------------------------------------------------------------------
# sampler / density agreement
# ---------------------------------------------------------------------------

def ks_statistic(samples: np.ndarray, cdf) -> float:
    xs = np.sort(np.asarray(samples))
    n = len(xs)
    f = cdf(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(f - i / n)), np.max(np.abs(f - (i - 1) / n))))


def sampler_density_ks(spec: ProductSpec, samples: int, seed: int) -> VerificationReport:
    """Kolmogorov-Smirnov distance between draws and the CDF of ``dist.NumericCdf``,
    built first, so a spec without a density fails before any draw."""
    cdf = dist.NumericCdf(spec)
    w = dist.sample(spec, samples, seed)
    d = ks_statistic(w, cdf)
    crit = 1.63 / math.sqrt(samples)  # asymptotic 1% critical value
    return VerificationReport(
        test_id=f"sampler-ks[{spec.describe()}]",
        estimate=d, standard_error=0.0, tolerance=crit,
        samples=samples, seed=seed, passed=d <= crit,
        details="CDF from the survival Meijer G")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES = ("stein", "adjoint", "mellin", "ks", "moment")


def standard_suite(spec: ProductSpec, samples: int = 200_000, seed: int = 1,
                   suites: tuple[str, ...] = SUITES) -> list[VerificationReport]:
    """Run the named suites, by default all of them; every spec has them all."""
    for name in suites:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    reports = []
    if "stein" in suites:
        fam = default_family(spec)
        reports.append(mc_stein_identity(spec, fam, samples, seed))
    if "adjoint" in suites:
        ev = dist.density(spec)
        if spec.N >= 1:
            grid = np.linspace(0.2, max(min(ev.tail_cut(25.0), 8.0), 1.0), 25)
        else:  # a compact support ends where the G argument reaches 1: stay inside it
            grid = np.geomspace(0.05, 0.6 * ev.tail_cut() if spec.n == 0 else 10.0, 25)
        reports.append(adjoint_residual_scan(spec, grid))
    if "mellin" in suites:
        lo, _ = dist.mellin(spec).strip
        s_points = np.linspace(max(lo + 0.05, 0.2), max(lo + 0.05, 0.2) + 5.0, 20)
        reports.append(mellin_equality_scan(spec, s_points))
    if "ks" in suites:
        reports.append(sampler_density_ks(spec, min(samples, 100_000), seed))
    if "moment" in suites:
        reports.append(moment_recursion_check(spec, 6))
    return reports
