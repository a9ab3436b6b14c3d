"""Command-line interface: operator printing, grid evaluation, verification.

Product specifications are JSON files with a mandatory version field:

    {"version": 1,
     "beta": [[1.3, 0.7]],
     "gamma": {"shapes": [1.4], "lambda": 1.0},
     "normal": {"count": 1, "sigma": 1.0},
     "q": 1.0}

No other field is read: an unknown one, or a value that is not a JSON number (an
integer for ``count``), is a validation error.

Exit codes: 0 success; 1 validation error (a bad spec or grid, a bad or missing
argument, a non-finite grid end included); 2 numerical failure (a value past the double
range, an overflowing Mellin transform included, or a routine that did not
converge).  Either failure prints one line on stderr, a traceback only with --debug.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import dist, funcs, steinsolve, verify
from .specfun import MeijerGParams, NumericalError, meijer_g
from .steinops import ProductSpec, adjoint_ode, build_stein, reduce_order

SPEC_VERSION = 1


class SpecError(ValueError):
    pass


def _number(value, name: str, kind=float):
    """A JSON number as ``kind``; an int ``kind`` takes integers only, and no kind takes bools."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise SpecError(f"field {name!r} must be {'an integer' if kind is int else 'a number'}, "
                        f"got {json.dumps(value)}")
    return kind(value)


def _known(obj: dict, keys: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise SpecError(f"unknown field(s) {', '.join(map(repr, unknown))} in {where}; "
                        f"expected {', '.join(map(repr, keys))}")


def load_spec(path: str) -> ProductSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError("spec file must contain a JSON object")
    if data.get("version") != SPEC_VERSION:
        raise SpecError(f"spec field 'version' must be {SPEC_VERSION}")
    _known(data, ("version", "beta", "gamma", "normal", "q"), "the spec")
    beta = data.get("beta", [])
    if not (isinstance(beta, list) and all(isinstance(p, list) and len(p) == 2 for p in beta)):
        raise SpecError("field 'beta' must be a list of [a, b] pairs")
    gamma, normal = ({} if data.get(name) is None else data[name] for name in ("gamma", "normal"))
    for name, field, keys in (("gamma", gamma, ("shapes", "lambda")),
                              ("normal", normal, ("count", "sigma"))):
        if not isinstance(field, dict):
            raise SpecError(f"field {name!r} must be an object, got {json.dumps(field)}")
        _known(field, keys, f"field {name!r}")
    shapes = gamma.get("shapes", [])
    if not isinstance(shapes, list):
        raise SpecError(f"field 'gamma.shapes' must be a list of numbers, got {json.dumps(shapes)}")
    try:
        return ProductSpec(
            beta_pairs=tuple((_number(a, "beta"), _number(b, "beta")) for a, b in beta),
            gamma_shapes=tuple(_number(r, "gamma.shapes") for r in shapes),
            lam=_number(gamma["lambda"], "gamma.lambda") if "lambda" in gamma else None,
            normal_count=_number(normal.get("count", 0), "normal.count", int),
            sigma=_number(normal["sigma"], "normal.sigma") if "sigma" in normal else None,
            q=_number(data.get("q", 1.0), "q"))
    except ValueError as exc:
        raise SpecError(f"invalid spec: {exc}") from exc


def parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise SpecError(f"grid must be start:end:count, got {text!r}") from exc
    if not np.isfinite([lo, hi]).all():
        raise SpecError(f"grid ends must be finite, got {text!r}")
    if count < 2 or not lo < hi:
        raise SpecError("grid needs count >= 2 and start < end")
    return np.linspace(lo, hi, count)


def write_csv(path: str | None, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


BUILTIN_TEST_FUNCTIONS = {
    "const": lambda: funcs.constant(1.0),
    "exp": lambda: funcs.exp_decay(1.0),
    "sin": lambda: funcs.Sinusoid(),
    "rational": lambda: funcs.BoundedRational(1.0),
    "gauss": lambda: funcs.gaussian_bump(1.0),
}


def cmd_operator(args) -> int:
    spec = load_spec(args.spec)
    bundle = reduce_order(spec) if args.reduce else build_stein(spec)
    print(f"product: {spec.describe()}")
    print(f"order: {bundle.expected_order}"
          + (f" (reduced: {bundle.reduced_order})" if args.reduce else ""))
    op = bundle.operator
    if op is not None:
        print(op.pretty())
        result = json.loads(op.to_json())
    else:
        result = {"theta_form": {
            name: {"coeff": float(side.coeff), "xpow": float(side.xpow),
                   "roots": [float(v) for v in side.roots]}
            for name, side in (("lhs", bundle.lhs), ("rhs", bundle.rhs))}}
        for name, side in result["theta_form"].items():
            print(f"{name}: {side['coeff']:.12g} x^{side['xpow']:g} "
                  f"prod(theta + r) over r in {side['roots']}")
    if args.adjoint:
        ode = adjoint_ode(spec)
        print("density ODE:", ode.pretty())
        result = {"operator": result, "adjoint": json.loads(ode.to_json())}
    payload = json.dumps(result)
    print(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    return 0


# name: (help, default grid, CSV header, values(spec, grid) as floats)
GRID_COMMANDS = {
    "density": ("density on a grid", "-5:5:101", ["x", "density"],
                lambda spec, grid: dist.density(spec).batch(grid).tolist()),
    "cf": ("characteristic function on a grid", "0:4:41", ["t", "cf"],
           lambda spec, grid: [dist.char_function(spec, t) for t in grid.tolist()]),
    "tail": ("tail asymptote on a grid", "5:20:31", ["x", "tail"],
             lambda spec, grid: dist.tail_asymptotic(spec, grid).tolist()),
    "mellin": ("Mellin transform on a grid", "1:6:21", ["s", "mellin"],
               lambda spec, grid: list(map(dist.mellin(spec), grid.tolist()))),
}


def cmd_grid(args) -> int:
    spec, grid = load_spec(args.spec), parse_grid(args.grid)
    _, _, header, values = GRID_COMMANDS[args.command]
    write_csv(args.out, header, zip(grid.tolist(), values(spec, grid)))
    return 0


def cmd_sample(args) -> int:
    spec = load_spec(args.spec)
    w = dist.sample(spec, args.count, args.seed)
    write_csv(args.out, ["value"], ((float(v),) for v in w))
    return 0


def cmd_gfunc(args) -> int:
    if not np.isfinite(args.x):  # as parse_grid's ends
        raise SpecError(f"--x must be finite, got {args.x}")
    params = MeijerGParams(args.a or [], args.b)
    val = meijer_g(params, args.x, tol=args.tolerance)
    print(f"{val:.15g}")
    return 0


def cmd_stein_solve(args) -> int:
    maker = BUILTIN_TEST_FUNCTIONS.get(args.h)
    if maker is None:
        raise SpecError(f"unknown test function {args.h!r}; "
                        f"choose from {sorted(BUILTIN_TEST_FUNCTIONS)}")
    h = maker()
    sol = steinsolve.solve_stein_pg(args.r1, args.r2, args.lam, h)
    grid = parse_grid(args.grid)
    rows = zip(grid.tolist(), sol.values(grid).tolist(), steinsolve.stein_residuals(sol, grid).tolist())
    write_csv(args.out, ["x", "f", "residual"], rows)
    return 0


def cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    suites = verify.SUITES if args.suite == "all" else (args.suite,)
    reports = verify.standard_suite(spec, samples=args.samples, seed=args.seed, suites=suites)
    payload = json.dumps({"version": verify.REPORT_VERSION,
                          "reports": [r.to_dict() for r in reports]}, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    for rep in reports:
        status = ("pass" if rep.passed else
                  "unresolved" if "unresolved" in rep.details else "FAIL")
        print(f"[{status}] {rep.test_id}: estimate={rep.estimate:.3e} "
              f"tol={rep.tolerance:.3e} 3se={3 * rep.standard_error:.3e}")
    return 0 if all(r.passed for r in reports) else 2


class _Parser(argparse.ArgumentParser):
    """A bad or missing argument is a validation error: one line on stderr, exit 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="steinprod", description="Stein operators and distributional "
                                               "theory for products of random variables")
    ap.add_argument("--debug", action="store_true", help="print tracebacks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("operator", help="print the Stein operator")
    p.add_argument("--spec", required=True)
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--adjoint", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_operator)

    for name, (help_text, grid, _, _) in GRID_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, help="product spec JSON file")
        p.add_argument("--grid", default=grid, help="start:end:count")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.set_defaults(func=cmd_grid)

    p = sub.add_parser("sample", help="draw product samples")
    p.add_argument("--spec", required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("gfunc", help="evaluate G^{q,0}_{p,q}(x | a; b)")
    p.add_argument("--a", type=float, nargs="*", default=[])
    p.add_argument("--b", type=float, nargs="+", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.set_defaults(func=cmd_gfunc)

    p = sub.add_parser("stein-solve", help="solve the two-gamma Stein equation")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("--h", default="exp", help=f"test function: {sorted(BUILTIN_TEST_FUNCTIONS)}")
    p.add_argument("--grid", default="0.01:50:40")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stein_solve)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--spec", required=True)
    p.add_argument("--suite", default="all",
                   choices=[*verify.SUITES, "all"])
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        if args.debug:
            raise
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if args.debug:
            raise
        return 2


if __name__ == "__main__":
    sys.exit(main())
