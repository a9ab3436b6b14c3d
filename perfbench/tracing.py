"""Spans and counters around calls into the library's public functions.

The tracer replaces each listed function with a wrapper in every
``steinprod`` module namespace that bound it (``dist`` imports
``meijer_g_batch``, ``meijer_g`` and ``bessel_k`` by name, ``steinsolve``
imports ``density``, ``verify`` imports ``build_stein`` and
``reduce_order``), and each listed method on its class.  Functions that
the library looks up at call time through the module (``quad.adaptive``,
``specfun.log_gamma_complex``) are caught by the module patch.

A span is (layer, start, end, parent span, job id).  Spans stay in memory
and are written once at the end.  Self time is a span's duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

MARK = "__perfbench_wrapped__"
G_SERIES_BELOW = 0.04   # specfun._SERIES_BELOW: the residue-series threshold

# (module, attribute, layer, counter) for plain functions and
# (module, class, method, layer, counter) for methods.
FUNCTIONS = [
    ("specfun", "log_gamma_complex", "specfun.log_gamma_complex", ("points", 0)),
    ("specfun", "meijer_g_batch", "specfun.meijer_g_batch", "g_batch"),
    ("specfun", "meijer_g", "specfun.meijer_g", "g_point"),
    ("specfun", "bessel_i", "specfun.bessel_i", ("points", 1)),
    ("specfun", "bessel_k", "specfun.bessel_k", ("points", 1)),
    ("quad", "tanh_sinh", "quad.tanh_sinh", "nodes"),
    ("quad", "adaptive", "quad.adaptive", "nodes"),
    ("quad", "gl_panel", "quad.gl_panel", "count_only"),
    ("dist", "density", "dist.density", None),
    ("dist", "normalization", "dist.normalization", None),
    ("dist", "char_function", "dist.char_function", None),
    ("dist", "tail_asymptotic", "dist.tail_asymptotic", None),
    ("dist", "sample", "dist.sample", "draws"),
    ("steinops", "build_stein", "steinops.build_stein", None),
    ("steinops", "reduce_order", "steinops.reduce_order", None),
    ("steinsolve", "expect_pg", "steinsolve.expect_pg", None),
    ("steinsolve", "stein_residual", "steinsolve.stein_residual", None),
    ("steinsolve", "estimate_derivative_bounds", "steinsolve.estimate_derivative_bounds", None),
    ("verify", "mc_stein_identity", "verify.mc_stein_identity", None),
    ("verify", "reduced_full_mc_compare", "verify.reduced_full_mc_compare", None),
]
METHODS = [
    ("dist", "DensityEvaluator", "batch", "dist.DensityEvaluator.batch", ("points", 1)),
    ("dist", "NumericCdf", "__init__", "dist.NumericCdf", None),
    ("dist", "NumericCdf", "__call__", "dist.NumericCdf", None),
    ("steinops", "SteinOperatorBundle", "apply_terms",
     "steinops.SteinOperatorBundle.apply_terms", ("points", 2)),
    ("opalg", "PolyDiffOp", "apply", "opalg.PolyDiffOp.apply", None),
    ("funcs", "PolyExp", "deriv", "funcs.PolyExp.deriv", "deriv"),
    ("funcs", "BesselPowerComb", "deriv", "funcs.BesselPowerComb.deriv", None),
    ("steinsolve", "SteinSolution", "value", "steinsolve.SteinSolution.value", None),
]


def _size(x) -> int:
    return int(np.size(x))


def _fingerprint(x: np.ndarray) -> tuple:
    """Shape, sum and 64 strided samples: hashing whole sample arrays
    would cost more than the derivative evaluations being counted."""
    flat = x.ravel()
    return x.shape, float(flat.sum()), flat[::max(1, flat.size // 64)].tobytes()


class Tracer:
    """Installs wrappers, records spans and per-layer counters."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []          # [span id, child time]
        self._restore: list[tuple[object, str, object]] = []
        self._deriv_keys: set = set()
        self._unique_before = 0
        self.near_origin_by_job: list[int] = []
        self.job_id = -1

    # -- counters ---------------------------------------------------------

    def _add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _count(self, layer: str, kind, args, kwargs) -> tuple:
        """Count work before the call; may replace the arguments."""
        self._add(f"{layer}.calls")
        if isinstance(kind, tuple):
            self._add(f"{layer}.points", _size(args[kind[1]]))
        elif kind == "g_batch":
            zs = np.asarray(args[1], dtype=float)
            self._add(f"{layer}.points", zs.size)
            self._add(f"{layer}.near_origin_points", int(np.count_nonzero(zs <= G_SERIES_BELOW)))
        elif kind == "g_point":
            self._add(f"{layer}.near_origin_points", int(float(args[1]) <= G_SERIES_BELOW))
        elif kind == "draws":
            self._add(f"{layer}.draws", int(args[1] if len(args) > 1 else kwargs["count"]))
        elif kind == "nodes":
            f = args[0]

            def counted(x, _f=f, _key=f"{layer}.nodes"):
                self._add(_key, _size(x))
                return _f(x)

            args = (counted,) + tuple(args[1:])
        elif kind == "deriv":
            x = np.asarray(args[1], dtype=float)
            order = args[2] if len(args) > 2 else kwargs.get("k", 0)
            self._deriv_keys.add((id(args[0]), int(order), _fingerprint(x)))
            self._add(f"{layer}.points", x.size)
        return args

    # -- spans ----------------------------------------------------------------

    def layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def span(self, layer: str, fn, args, kwargs):
        lid = self.layer_id(layer)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self._add(f"{layer}.errors")
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - frame[1]
            self.spans[sid] = (lid, t0, t1, parent, self.job_id)

    def _wrapper(self, fn, layer: str, kind):
        tracer = self

        if kind == "count_only":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._add(f"{layer}.calls")
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                args = tracer._count(layer, kind, args, kwargs)
                return tracer.span(layer, fn, args, kwargs)
        setattr(wrapper, MARK, True)
        return wrapper

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = {name: importlib.import_module(f"steinprod.{name}")
                for name in {f[0] for f in FUNCTIONS} | {m[0] for m in METHODS}}
        for mod, attr, layer, kind in FUNCTIONS:
            orig = getattr(mods[mod], attr)
            wrapped = self._wrapper(orig, layer, kind)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "steinprod" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)
        for mod, cls_name, meth, layer, kind in METHODS:
            cls = getattr(mods[mod], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrapper(orig, layer, kind))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def job(self, job_id: int, fn, *args):
        """Run one job under a root span.

        Distinct (handle, order, array) triples are counted per job,
        because a handle's id may be reused once its job has freed it.
        """
        self._unique_before += len(self._deriv_keys)
        self._deriv_keys.clear()
        self.job_id = job_id
        keys = ("specfun.meijer_g_batch.near_origin_points", "specfun.meijer_g.near_origin_points")
        before = sum(self.counts.get(k, 0) for k in keys)
        try:
            return self.span("job", fn, args, {})
        finally:
            self.near_origin_by_job.append(sum(self.counts.get(k, 0) for k in keys) - before)

    def unique_derivs(self) -> int:
        return self._unique_before + len(self._deriv_keys)

    def write_spans(self, path) -> None:
        rows = [s for s in self.spans if s is not None]
        arr = np.array(rows, dtype=[("layer", "i4"), ("start", "f8"), ("end", "f8"),
                                    ("parent", "i8"), ("job", "i4")])
        np.savez_compressed(path, spans=arr, layers=np.array(self.layers))


def installed_wrappers() -> list[str]:
    """Names of library attributes that currently hold a tracing wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "steinprod" or module is None:
            continue
        for key, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{name}.{key}")
            elif isinstance(value, type):
                for meth, fn in vars(value).items():
                    if getattr(fn, MARK, False):
                        found.append(f"{name}.{key}.{meth}")
    return found
