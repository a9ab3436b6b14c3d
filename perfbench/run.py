"""Benchmark for steinprod: seeded job workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload density --seed 1 --seconds 25 --trace 0

One process runs one job at a time (closed loop: every caller waits for
its result, as a CLI user or a test sweep does).  Jobs call the library
functions behind the CLI commands.  The run measures a fixed number of
whole blocks of jobs (see workloads.py), the number that took about
``--seconds`` when the benchmark was defined, checks every output outside
the timed region and prints one row of metrics, then a JSON line.
``--trace 1`` runs one block instead, every job once untraced and once
with spans around the library's public functions, and prints per-layer
metrics and the tracing overhead.

Records (environment, job-list hash, input properties, per-job outcomes
and, when traced, the spans) go to ``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5           # fresh interpreters timed for setup_s
TRACE_BLOCKS = 1           # blocks run untraced and then traced with --trace 1
TAIL_BEYOND = 10           # job_tail_s: highest percentile with this many jobs beyond it
# The speed of the shared VM this benchmark was defined on drifts by about
# 25% over minutes, and a fixed kernel slows with it: 30 s means of a job
# timed between kernel runs ranged over 0.76-1.15 of their median, and
# over 0.88-1.05 after scaling.  Job and setup times are therefore scaled
# to the speed at which the kernel takes REF_SECONDS, using the kernel
# runs nearest each job.
REF_SECONDS = 0.005
REF_WINDOW = 4             # kernel runs on each side of a job
# Printed in the row but left out of the JSON result: both are 0 on every
# kept workload, and the result's `failed` count and `correct` flag carry them.
ROW_ONLY = ("failed_ratio", "wrong_ratio")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> dict:
    """Pin BLAS/OpenMP threads to at most nproc; refuse a larger setting."""
    limit = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var)
        if value is None:
            os.environ[var] = str(limit)
        elif not value.isdigit() or not 1 <= int(value) <= limit:
            raise SystemExit(f"error: {var}={value!r}; it must be an integer from 1 to nproc={limit}")
    return {var: int(os.environ[var]) for var in THREAD_VARS}


def import_workloads():
    """Import the job module, and with it steinprod from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "steinprod" / "__init__.py").is_file():
        raise SystemExit(f"error: no steinprod package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(threads: dict) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": nproc(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "blas_threads": threads, "commit": git_commit()}


def reference_seconds() -> float:
    """Time a fixed kernel: an interpreter loop plus numpy vector math."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 20000)
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    for _ in range(15):
        np.exp(np.sin(x))
    return time.perf_counter() - t0


def speed_factors(refs: list[float], count: int) -> list[float]:
    """Factor for each of ``count`` jobs; refs[i] ran before job i, refs[i+1] after it."""
    return [REF_SECONDS / statistics.median(refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
            for i in range(count)]


def measure_setup(args) -> tuple[list[float], set[str]]:
    """Time fresh interpreters from start to the first job: import plus generation."""
    times, digests, refs = [], set(), []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for _ in range(SETUP_PROBES):
        refs.append(reference_seconds())
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
        digests.add(proc.stdout.strip())
    refs.append(reference_seconds())
    factor = REF_SECONDS / statistics.median(refs)
    return [t * factor for t in times], digests


def run_job(workloads, job, job_id, tracer=None) -> dict:
    """Run, time and then check one job; return its record."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workloads.run_job(job)
        else:
            out = tracer.job(job_id, workloads.run_job, job)
        error = None
    except Exception as exc:  # every raised error is an outcome to count
        out, error = None, f"{type(exc).__name__}: {exc}"
    rec = {"task": job["task"], "seconds": time.perf_counter() - t0}
    if error is not None:
        rec.update(outcome="error", detail=error)
    else:
        detail = workloads.check_job(job, out)
        rec.update(outcome="wrong" if detail else "ok", detail=detail)
        verdict = workloads.library_verdict(job, out)
        if verdict is not None:
            rec["library_passed"] = verdict
    return rec


def run_traced(workloads, jobs, tracer) -> tuple[list, list]:
    """Run every job untraced and traced, back to back, alternating which
    goes first, so that drifts in machine speed cancel in the overhead."""
    base, records = [], []
    for i, job in enumerate(jobs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                base.append(run_job(workloads, job, i))
                continue
            tracer.install()
            try:
                records.append(run_job(workloads, job, i, tracer))
            finally:
                tracer.uninstall()
    return base, records


def end_to_end(records, setup_times) -> tuple[dict, dict]:
    times = sorted(r["seconds"] for r in records)
    n = len(times)
    ok = sum(r["outcome"] == "ok" for r in records)
    errors = sum(r["outcome"] == "error" for r in records)
    wrong = sum(r["outcome"] == "wrong" for r in records)
    rank = max(1, n - TAIL_BEYOND)       # jobs beyond the value at this rank: n - rank
    import resource

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (times[rank - 1], "s"),
        "jobs_per_s": (ok / sum(times), "1/s"),
        "failed_ratio": ((errors + wrong) / n, "1"),
        "wrong_ratio": (wrong / n, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = [r["wall_s"] for r in records]
    info = {"jobs": n, "ok": ok, "errors": errors, "wrong": wrong,
            "tail_percentile": 100.0 * rank / n, "tail_jobs_beyond": n - rank,
            "timed_s": sum(times), "setup_samples_s": setup_times,
            "wall_timed_s": sum(wall), "wall_job_p50_s": statistics.median(wall),
            "wall_jobs_per_s": ok / sum(wall), "speed_factor": sum(times) / sum(wall)}
    return metrics, info


def per_layer(tracer, records, base_records) -> dict:
    c = tracer.counts
    s = tracer.self_s

    def cnt(key):
        return (float(c.get(key, 0)), "count")

    def sec(layer):
        return (s.get(layer, 0.0), "s")

    def ratio(num, den):
        return (num / den if den else 0.0, "1")

    out = {}
    groups = {
        "specfun.log_gamma_complex": ("calls", "points"),
        "specfun.meijer_g_batch": ("calls", "points", "near_origin_points", "errors"),
        "specfun.meijer_g": ("calls", "errors"),
        "specfun.bessel_i": ("calls", "points"),
        "specfun.bessel_k": ("calls", "points"),
        "quad.tanh_sinh": ("calls", "nodes"),
        "quad.adaptive": ("calls", "nodes"),
        "dist.density": ("calls",),
        "dist.DensityEvaluator.batch": ("calls", "points"),
        "dist.normalization": (),
        "dist.char_function": (),
        "dist.NumericCdf": (),
        "dist.tail_asymptotic": (),
        "dist.sample": ("calls", "draws"),
        "steinops.build_stein": ("calls",),
        "steinops.reduce_order": (),
        "steinops.SteinOperatorBundle.apply_terms": ("calls", "points"),
        "opalg.PolyDiffOp.apply": ("calls",),
        "funcs.PolyExp.deriv": ("calls", "points"),
        "funcs.BesselPowerComb.deriv": ("calls",),
        "steinsolve.expect_pg": ("calls",),
        "steinsolve.SteinSolution.value": ("calls",),
        "steinsolve.stein_residual": ("calls",),
        "steinsolve.estimate_derivative_bounds": (),
        "verify.mc_stein_identity": (),
        "verify.reduced_full_mc_compare": (),
    }
    for layer, keys in groups.items():
        for key in keys:
            out[f"{layer}.{key}"] = cnt(f"{layer}.{key}")
        out[f"{layer}.self_s"] = sec(layer)
    out["quad.gl_panel.calls"] = cnt("quad.gl_panel.calls")
    g_points = c.get("specfun.meijer_g_batch.points", 0) + c.get("specfun.meijer_g.calls", 0)
    out["specfun.lg_points_per_g_point"] = ratio(c.get("specfun.log_gamma_complex.points", 0), g_points)
    out["funcs.PolyExp.deriv.unique_ratio"] = ratio(tracer.unique_derivs(),
                                                    c.get("funcs.PolyExp.deriv.calls", 0))
    bessel = c.get("specfun.bessel_i.points", 0) + c.get("specfun.bessel_k.points", 0)
    out["steinsolve.bessel_points_per_value"] = ratio(
        bessel, c.get("steinsolve.SteinSolution.value.calls", 0))
    n = len(records)
    out["jobs.failed_ratio"] = ratio(sum(r["outcome"] != "ok" for r in records), n)
    out["jobs.wrong_ratio"] = ratio(sum(r["outcome"] == "wrong" for r in records), n)
    out["verify.report_not_passed"] = (
        float(sum(r.get("library_passed") is False for r in records)), "count")
    traced = sum(r["seconds"] for r in records)
    untraced = sum(r["seconds"] for r in base_records)
    out["trace.overhead_s"] = (traced - untraced, "s")
    out["trace.overhead_ratio"] = ratio(traced - untraced, untraced)
    return out


def layer_map(tracer, workload: str) -> dict:
    predicted = {
        "density": ["specfun.log_gamma_complex"],
        "stein": ["specfun.bessel_i", "specfun.bessel_k", "quad.adaptive"],
        "montecarlo": ["opalg.PolyDiffOp.apply", "funcs.PolyExp.deriv",
                       "steinops.SteinOperatorBundle.apply_terms"],
    }[workload]
    ranked = sorted(((v, k) for k, v in tracer.self_s.items() if k != "job"), reverse=True)
    top3 = [k for _, k in ranked[:3]]
    return {"top3": top3, "top3_self_s": [v for v, _ in ranked[:3]],
            "predicted": predicted, "confirmed": any(p in top3 for p in predicted)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    threads = pin_threads()
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    count = TRACE_BLOCKS if args.trace else workloads.blocks_for(args.workload, args.seconds)
    blocks = workloads.make_blocks(args.workload, args.seed, count)
    jobs = [job for block in blocks for job in block]
    digest = workloads.jobs_digest(blocks)
    if args.setup_probe:
        print(digest)
        return 0

    env = environment(threads)
    setup_times, probe_digests = measure_setup(args)
    problems = []
    if probe_digests != {digest}:
        problems.append("job list differs between processes for the same seed")
    props = workloads.input_properties(blocks)

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        base, records = run_traced(workloads, jobs, tracer)
        if tracing.installed_wrappers():
            problems.append("tracing wrappers left installed")
        near = [n > 0 for n in tracer.near_origin_by_job]
        props["near_origin_g_share"] = sum(near) / len(near)
        metrics = per_layer(tracer, records, base)
        lmap = layer_map(tracer, args.workload)
    else:
        records, refs = [], []
        for i, job in enumerate(jobs):
            refs.append(reference_seconds())
            records.append(run_job(workloads, job, i))
        refs.append(reference_seconds())
        for rec, factor in zip(records, speed_factors(refs, len(records))):
            rec["wall_s"] = rec["seconds"]
            rec["seconds"] *= factor
        import tracing  # only to look for wrappers; importing installs none

        if tracing.installed_wrappers():
            problems.append("untraced run found tracing wrappers installed")
        metrics, info = end_to_end(records, setup_times)
        lmap = None

    failed = sum(r["outcome"] != "ok" for r in records)
    wrong = sum(r["outcome"] == "wrong" for r in records)
    correct = not problems and wrong == 0
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "jobs_sha256": digest,
              "input_properties": props, "problems": problems, "layer_map": lmap,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "jobs": records}
    if not args.trace:
        record["run"] = info
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{stem}-spans.npz")

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"jobs: sha256={digest[:16]} " + " ".join(
        f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}" for k, v in props.items()))
    if args.trace:
        print(f"layer map: top3={lmap['top3']} predicted={lmap['predicted']} "
              f"{'confirmed' if lmap['confirmed'] else 'MISSED'}")
        print(f"tracing overhead: {metrics['trace.overhead_s'][0]:.3f} s "
              f"({100 * metrics['trace.overhead_ratio'][0]:.1f}% of untraced job time)")
    else:
        print(f"{args.workload}: " + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
              + f"  [jobs={info['jobs']} tail=p{info['tail_percentile']:.1f} "
                f"with {info['tail_jobs_beyond']} beyond; unscaled wall time: "
                f"job_p50_s={info['wall_job_p50_s']:.6g} jobs_per_s={info['wall_jobs_per_s']:.6g} "
                f"speed factor {info['speed_factor']:.3f}]")
    for p in problems:
        print(f"problem: {p}")
    reported = {k: v for k, v in metrics.items() if k not in ROW_ONLY}
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
