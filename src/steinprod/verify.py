"""Cross-verification harness: Monte Carlo Stein identities, adjoint-ODE
residual scans, Mellin equalities and sampler/density agreement.

Every check emits a machine-readable report.  Monte Carlo tests pass when
the estimate sits within max(absolute floor, three standard errors) of
zero; deterministic tests compare against their stated tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import dist, funcs
from .steinops import ProductSpec, adjoint_ode, adjoint_sides, build_stein, reduce_order

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


def _chunks(w: np.ndarray):
    for start in range(0, len(w), MC_CHUNK):
        yield w[start:start + MC_CHUNK]


def _check_samples(samples: int) -> None:
    if samples < 2:
        raise ValueError(f"Monte Carlo checks need samples >= 2 for a standard error, "
                         f"got {samples}")


def mc_stein_identity(spec: ProductSpec, family: TestFunctionFamily,
                      samples: int, seed: int, workers: int = 1) -> VerificationReport:
    """Estimate E[A f(W)] for every family member; report the worst one.

    The draws are walked in chunks of ``MC_CHUNK``: each chunk applies both
    sides to every member at once, and only per-member sums are kept.
    """
    _check_samples(samples)
    bundle = build_stein(spec)
    members = family.members()
    if bundle.reduced_order > max(getattr(f, "max_order", 0) for f in members):
        raise ValueError("operator order exceeds family smoothness")
    w = dist.sample(spec, samples, seed, workers=workers)
    moments = _StreamedMoments(len(members))
    abs_sums = np.zeros((2, len(members)))  # sum |lhs|, sum |rhs| per member
    for x in _chunks(w):
        sides = bundle.apply_terms(members, x)
        moments.add(sides[0] - sides[1])
        for total, side in zip(abs_sums, sides):
            total += np.abs(side).sum(axis=1)
    ests, ses = moments.mean(), moments.standard_error()
    scales = abs_sums.sum(axis=0) / len(w)
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
    reported in the details.  Draws are walked in chunks of ``MC_CHUNK``.
    """
    _check_samples(samples)
    full = build_stein(spec)
    red = reduce_order(spec)
    w = dist.sample(spec, samples, seed)
    g = red.transformed_function(f)
    full_moments = _StreamedMoments()
    diff_sum = abs_full = peak_diff = peak_full = 0.0
    for x in _chunks(w):
        a_full = full.apply(f, x)
        diff = a_full - red.apply(g, x)
        full_moments.add(a_full)
        diff_sum += float(diff.sum())
        abs_full += float(np.abs(a_full).sum())
        peak_diff = np.maximum(peak_diff, np.max(np.abs(diff)))  # NaN propagates
        peak_full = np.maximum(peak_full, np.max(np.abs(a_full)))
    est = diff_sum / len(w)
    se_full = float(full_moments.standard_error())
    scale = abs_full / len(w) + 1e-300
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

def _fornberg(z: float, xs: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at z on nodes xs."""
    n = len(xs)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = xs[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - z
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _log_derivatives(values_fn, x: float, imax: int, h: float,
                     points: int = 13) -> np.ndarray:
    """d^i/dt^i of p(e^t) at t = ln x for i = 0..imax, Richardson-refined."""
    t0 = math.log(x)
    half = points // 2
    offsets = np.arange(-half, half + 1)

    def table(step: float) -> np.ndarray:
        ts = t0 + step * offsets
        vals = values_fn(np.exp(ts))
        return np.array([
            _fornberg(t0, ts, i) @ vals for i in range(imax + 1)])

    coarse = table(h)
    fine = table(0.5 * h)
    out = np.empty(imax + 1)
    for i in range(imax + 1):
        order = points - i - (points - i) % 2
        w = 2.0**order
        out[i] = (w * fine[i] - coarse[i]) / (w - 1.0)
    return out


_FD_STEP = 0.08  # log-coordinate step of the coarse finite-difference stencil


def adjoint_residual_scan(spec: ProductSpec, grid,
                          tolerance: float | None = None) -> VerificationReport:
    """max |A* p| / max |p| over the grid for the density-annihilating ODE.

    Where the density has a closed form (``DensityEvaluator.closed``, when
    its reduced G rows are G^{1,0}_{0,1} or G^{2,0}_{0,2}) the operator is
    applied exactly to its x-dependence, a ``funcs.BesselPowerComb``;
    otherwise derivatives are taken by finite differences in log
    coordinates, where the operator is a polynomial in theta = x d/dx and
    stencils never cross the origin.
    """
    grid = np.asarray(grid, dtype=float)
    excluded = int(np.sum(np.abs(grid) < 1e-12))
    grid = grid[np.abs(grid) >= 1e-12]  # the origin is singular for most densities
    ode = adjoint_ode(spec)
    ev = dist.density(spec)
    if ev.closed is not None:  # p over its constant, which may leave the float range
        c = ev.closed
        p = funcs.BesselPowerComb([(1.0, c.alpha, c.nu, c.phi)], c.rate, c.power)
        pvals, residuals, method = p(grid), ode.apply(p, grid), "analytic"
    else:
        pvals, method = ev.batch(grid), f"log-fd(h={_FD_STEP})"
        # each side of lhs p = rhs p is x^j P(theta): P's coefficients dot theta^i p
        (j1, p1), (j2, p2) = [(side.xpow, np.array(side.theta_coeffs(), dtype=float))
                              for side in adjoint_sides(spec)]
        imax = max(len(p1), len(p2)) - 1
        residuals = np.empty_like(grid)
        for idx, x in enumerate(grid):
            th = _log_derivatives(ev.batch, float(x), imax, _FD_STEP)
            residuals[idx] = x**j1 * (p1 @ th[: len(p1)]) - x**j2 * (p2 @ th[: len(p2)])
    tol = tolerance if tolerance is not None else (1e-8 if ev.closed else 1e-4)
    worst = float(np.max(np.abs(residuals)) / np.max(np.abs(pvals)))
    note = f", {excluded} origin point(s) excluded" if excluded else ""
    return VerificationReport(
        test_id=f"adjoint-ode[{spec.describe()}]",
        estimate=worst, standard_error=0.0, tolerance=tol,
        samples=len(grid), seed=0, passed=worst <= tol,
        details=f"order {ode.order}, {method}, grid [{grid[0]:g}, {grid[-1]:g}]{note}")


# ---------------------------------------------------------------------------
# Mellin equality
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


# ---------------------------------------------------------------------------
# sampler / density agreement
# ---------------------------------------------------------------------------

def ks_statistic(samples: np.ndarray, cdf) -> float:
    xs = np.sort(np.asarray(samples))
    n = len(xs)
    f = cdf(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(f - i / n)), np.max(np.abs(f - (i - 1) / n))))


def sampler_density_ks(spec: ProductSpec, samples: int, seed: int,
                       workers: int = 1) -> VerificationReport:
    """Kolmogorov-Smirnov distance between draws and the CDF of ``dist.NumericCdf``."""
    w = dist.sample(spec, samples, seed, workers=workers)
    cdf = dist.NumericCdf(spec)
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

SUITES = ("stein", "adjoint", "mellin", "ks")


def standard_suite(spec: ProductSpec, samples: int = 200_000, seed: int = 1,
                   suites: tuple[str, ...] | None = None,
                   workers: int = 1) -> list[VerificationReport]:
    """Run the named suites; ``None`` runs every suite that applies to the spec.

    The adjoint, Mellin and KS suites need the density, which exists for
    q = 1 only; naming one of them for a q != 1 spec raises ValueError.
    """
    if suites is None:
        suites = SUITES if spec.q == 1 else ("stein",)
    for name in suites:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
        if name != "stein" and spec.q != 1:
            raise ValueError(f"suite {name!r} needs the density, which is "
                             f"implemented for q = 1 only (q = {spec.q})")
    reports = []
    if "stein" in suites:
        fam = default_family(spec)
        reports.append(mc_stein_identity(spec, fam, samples, seed, workers=workers))
    if "adjoint" in suites:
        ev = dist.density(spec)
        if spec.N >= 1:
            grid = np.linspace(0.2, max(min(ev.tail_cut(25.0), 8.0), 1.0), 25)
        else:  # log-fd stencils reach x e^{+-0.48}: stay inside a compact support
            grid = np.geomspace(0.05, 0.6 * ev.tail_cut() if spec.n == 0 else 10.0, 25)
        reports.append(adjoint_residual_scan(spec, grid))
    if "mellin" in suites:
        lo, _ = dist.mellin(spec).strip
        s_points = np.linspace(max(lo + 0.05, 0.2), max(lo + 0.05, 0.2) + 5.0, 20)
        reports.append(mellin_equality_scan(spec, s_points))
    if "ks" in suites:
        reports.append(sampler_density_ks(spec, min(samples, 100_000), seed,
                                          workers=workers))
    return reports
