"""Stein operators and distributional theory for products of independent
beta, gamma, generalised gamma and mean-zero normal random variables.

Subpackages:

* ``opalg``      exact algebra of power-coefficient differential operators
                 and their theta-form (theta = x d/dx) with Lebesgue adjoints
* ``steinops``   Stein operators for product specifications as two
                 theta-form sides, order reduction, density-annihilating
                 adjoint ODEs
* ``specfun``    log-gamma, modified Bessel, Meijer G via Mellin-Barnes
* ``dist``       samplers, Mellin transforms, densities, characteristic
                 function, tail asymptotics, numeric CDF
* ``steinsolve`` the two-gamma Stein equation: solution, residuals,
                 derivative-bound estimates
* ``verify``     Monte Carlo and deterministic cross-verification harness
* ``cli``        command-line interface
"""

from .steinops import ProductSpec, SteinOperatorBundle, build_stein, reduce_order, adjoint_ode
from .opalg import PolyDiffOp, ThetaOp, make_t, make_an, compose_chain, disentangle_b, stirling2
from .specfun import MeijerGParams, meijer_g, meijer_g_batch, bessel_i, bessel_k
from .dist import DensityEvaluator, MellinTransform, density, mellin, sample, char_function, tail_asymptotic
from .steinsolve import SteinSolution, solve_stein_pg, stein_residual, estimate_derivative_bounds
from .verify import VerificationReport, TestFunctionFamily, mc_stein_identity

__version__ = "0.1.0"
