"""Stein operators for products of beta, gamma and mean-zero normal factors.

Each product specification maps to a characterising differential operator:
for mutually independent X (product of betas), Y (product of gammas with a
shared rate) and Z (product of centred normals),

    X   : B_a f - x B_{a+b} f
    Y   : B_r f - lam^n x f
    Z   : s^2 A_N f - x f
    XY  : B_a B_r f - lam^n x B_{a+b} f
    XZ  : s^2 B_a A_N B_a f - x B_{a+b} B_{a+b-1} f
    YZ  : s^2 B_r A_N B_r f - lam^{2n} x f
    XYZ : s^2 B_a B_r A_N B_r B_a f - lam^{2n} x B_{a+b} B_{a+b-1} f

where B_c is the commuting chain of T_c = x d/dx + c factors.  A product
of generalised gammas (power parameter q) has operator
B_r f - (q lam^q)^n x^q f, which for non-integer q has no
polynomial-coefficient form.

Since T_c = theta + c with theta = x d/dx, every row is one rule: two
theta-form sides coeff x^j prod (theta + root), whose root lists
``stein_sides`` writes down once.  Order reduction is the multiset
intersection of the two root lists (the operator then acts on g = B_C f);
the Lebesgue adjoints of the sides give the ODE annihilating the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Rational

from .opalg import PolyDiffOp, ThetaOp
from .funcs import PolyExp, poly_exp_rows


def _pos(name: str, value) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ProductSpec:
    """Parameterisation of a product of independent beta/gamma/normal factors.

    ``sigma`` is the product of the normal scales; ``lam`` is the rate
    shared by all gamma factors.  ``q`` is the generalised-gamma power and
    may differ from 1 only for a pure gamma product.
    """

    beta_pairs: tuple[tuple[float, float], ...] = ()
    gamma_shapes: tuple[float, ...] = ()
    lam: float | None = None
    normal_count: int = 0
    sigma: float | None = None
    q: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "beta_pairs",
                           tuple((a, b) for a, b in self.beta_pairs))
        object.__setattr__(self, "gamma_shapes", tuple(self.gamma_shapes))
        if self.normal_count < 0:
            raise ValueError("normal_count must be nonnegative")
        if self.m + self.n + self.normal_count < 1:
            raise ValueError("at least one factor is required")
        for a, b in self.beta_pairs:
            _pos("beta shape a", a)
            _pos("beta shape b", b)
        for r in self.gamma_shapes:
            _pos("gamma shape", r)
        if self.n > 0:
            if self.lam is None:
                raise ValueError("gamma factors need a rate lam")
            _pos("lam", self.lam)
        elif self.lam is not None:
            raise ValueError("lam given without gamma factors")
        if self.normal_count > 0:
            if self.sigma is None:
                raise ValueError("normal factors need a scale sigma")
            _pos("sigma", self.sigma)
        elif self.sigma is not None:
            raise ValueError("sigma given without normal factors")
        _pos("q", self.q)
        if self.q != 1 and (self.m > 0 or self.normal_count > 0):
            raise ValueError("q != 1 is supported for pure gamma products only")

    # -- shorthand ---------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.beta_pairs)

    @property
    def n(self) -> int:
        return len(self.gamma_shapes)

    @property
    def N(self) -> int:
        return self.normal_count

    @property
    def symmetric(self) -> bool:
        return self.normal_count >= 1

    def row(self) -> str:
        if self.q != 1:
            return "PGG"
        label = ""
        if self.m:
            label += "X"
        if self.n:
            label += "Y"
        if self.N:
            label += "Z"
        return label

    def describe(self) -> str:
        bits = []
        if self.m:
            bits.append("beta" + str(list(self.beta_pairs)))
        if self.n:
            bits.append(f"gamma{list(self.gamma_shapes)}@{self.lam}")
        if self.N:
            bits.append(f"normal(N={self.N}, sigma={self.sigma})")
        if self.q != 1:
            bits.append(f"q={self.q}")
        return " * ".join(bits)


def stein_sides(spec: ProductSpec) -> tuple[ThetaOp, ThetaOp]:
    """The two theta-form sides of the Stein operator, lhs - rhs.

    This is the one place the parameter lists are written down.  With a
    normal factor the operator is
    s^2 x^{-1} B_{a-1} B_{r-1} T_0^N B_r B_a - lam^{2n} x B_{a+b} B_{a+b-1}
    (B_a B_r x^{-1} = x^{-1} B_{a-1} B_{r-1}); without one it is
    B_a B_r - (q lam^q)^n x^q B_{a+b}.  The density's G-function rows are
    these roots halved (N >= 1) or shifted by -1 (N = 0).  A coefficient that
    underflows to 0 or overflows raises ``NumericalError``.
    """
    a = [p[0] for p in spec.beta_pairs]
    ab = [p[0] + p[1] for p in spec.beta_pairs]
    r = list(spec.gamma_shapes)
    q = 1 if spec.q == 1 else spec.q
    try:
        rate = (spec.lam ** (2 * spec.n) if spec.N else (q * spec.lam**q) ** spec.n) if spec.n else 1
        scale = spec.sigma**2 if spec.N else 1
    except OverflowError:
        rate = scale = math.inf
    if not (0 < rate < math.inf and 0 < scale < math.inf):
        from .specfun import NumericalError

        raise NumericalError(f"a Stein operator coefficient underflows to 0 or overflows a double "
                             f"({spec.describe()})")
    if spec.N:
        left = a + [v - 1 for v in a] + r + [v - 1 for v in r] + [0] * spec.N
        return (ThetaOp(scale, -1, tuple(left)),
                ThetaOp(rate, 1, tuple(ab + [v - 1 for v in ab])))
    return (ThetaOp(1, 0, tuple(a + r)), ThetaOp(rate, q, tuple(ab)))


@dataclass
class SteinOperatorBundle:
    """A Stein operator lhs - rhs with both sides in theta-form.

    ``transform_chain`` holds the roots that order reduction removed from
    both sides; the operator then acts on g = B_C f.  ``operator`` is the
    expanded form, or None when the rhs x-power is not an integer
    (generalised gamma with non-integer q).
    """

    spec: ProductSpec
    lhs: ThetaOp
    rhs: ThetaOp
    transform_chain: tuple = ()

    @property
    def reduced_order(self) -> int:
        return max(len(self.lhs.roots), len(self.rhs.roots))

    @property
    def expected_order(self) -> int:
        return self.reduced_order + len(self.transform_chain)

    @property
    def operator(self) -> PolyDiffOp | None:
        if self.rhs.xpow != int(self.rhs.xpow):
            return None
        return self.lhs.expand() - self.rhs.expand()

    def apply(self, f, x):
        """Evaluate the operator on a PolyExp handle at scalar/array x."""
        lhs, rhs = self.apply_terms(f, x)
        return lhs - rhs

    def apply_terms(self, f, x):
        """The two sides separately (for magnitude scales in MC tests).

        A side coeff x^xpow prod (theta + r_i) maps the PolyExp f to
        coeff x^xpow times the PolyExp ``f.theta_image(roots)``.  ``f`` may
        also be a list of PolyExp sharing one q: both sides of every member
        then come from one exp(q(x)) and one stacked Horner pass, with shape
        (len(f),) + x.shape, and each row has the bits of its own call.
        """
        single = not isinstance(f, (list, tuple))
        fs = [f] if single else f
        sides = (self.lhs, self.rhs)
        rows = poly_exp_rows([_theta_image(g, side.roots) for g in fs for side in sides], x)
        rows = rows.reshape((len(fs), 2) + rows.shape[1:])
        for j, side in enumerate(sides):
            rows[:, j] *= float(side.coeff) * x ** float(side.xpow)
        lhs, rhs = rows[:, 0], rows[:, 1]
        return (lhs[0], rhs[0]) if single else (lhs, rhs)

    def transformed_function(self, f):
        """g = B_C f for the common chain removed by order reduction."""
        return _theta_image(f, self.transform_chain)


def _theta_image(f, roots) -> PolyExp:
    if not isinstance(f, PolyExp):
        raise TypeError(f"closed-form sides need a PolyExp handle, not {type(f).__name__};"
                        " use bundle.operator.apply for other handles")
    return f.theta_image(roots)


def build_stein(spec: ProductSpec) -> SteinOperatorBundle:
    """Construct the Stein operator bundle for a product specification."""
    lhs, rhs = stein_sides(spec)
    return SteinOperatorBundle(spec=spec, lhs=lhs, rhs=rhs)


def _values_equal(u, v, tol: float = 1e-12) -> bool:
    if isinstance(u, Rational) and isinstance(v, Rational):
        return u == v
    return abs(float(u) - float(v)) <= tol


def _ratio(u, v):
    """u / v, exact when both are exact."""
    if isinstance(u, Rational) and isinstance(v, Rational):
        return Fraction(u) / v
    return u / v


def reduce_order(spec: ProductSpec) -> SteinOperatorBundle:
    """Lower-order Stein operator acting on g = B_C f.

    All theta-factors commute, so removing the common root multiset C of
    the two sides and substituting g = B_C f drops the order by |C|.  The
    reduced lhs may carry an x^{-1} constant term for some parameter
    coincidences; it still annihilates in expectation, pointwise equal to
    the full operator on the transformed function.
    """
    if spec.N == 0:
        if spec.m == 0:
            raise ValueError("order reduction needs beta factors")
        raise ValueError("order reduction targets products with a normal factor")
    lhs, rhs = stein_sides(spec)
    pool = list(rhs.roots)
    common, left = [], []
    for u in lhs.roots:
        match = next((i for i, v in enumerate(pool) if _values_equal(u, v)), None)
        if match is None:
            left.append(u)
        else:
            common.append(u)
            pool.pop(match)
    return SteinOperatorBundle(
        spec=spec, lhs=replace(lhs, roots=tuple(left)),
        rhs=replace(rhs, roots=tuple(pool)), transform_chain=tuple(common))


def adjoint_sides(spec: ProductSpec) -> tuple[ThetaOp, ThetaOp]:
    """The density ODE lhs p = rhs p, from the Lebesgue adjoints of both sides.

    Both are scaled so that lhs is monic with x-power 0.  For N >= 1 this
    is T_0^N B_{-a} B_{1-a} B_{-r} B_{1-r} p
    = (-1)^N s^{-2} lam^{2n} x^2 B_{2-a-b} B_{3-a-b} p, and for N = 0
    (positive support) B_{1-a} B_{1-r} p = (-1)^n (q lam^q)^n x^q B_{2-a-b} p.
    """
    lhs, rhs = (side.adjoint() for side in stein_sides(spec))
    return tuple(ThetaOp(_ratio(side.coeff, lhs.coeff), side.xpow - lhs.xpow, side.roots)
                 for side in (lhs, rhs))


def adjoint_ode(spec: ProductSpec) -> PolyDiffOp:
    """Polynomial ODE annihilating the product density (see ``adjoint_sides``)."""
    lhs, rhs = adjoint_sides(spec)
    return lhs.expand() - rhs.expand()
