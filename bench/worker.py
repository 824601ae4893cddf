"""Runs one benchmark workload in this process and prints its result as JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the checkout root as
the working directory.  After one untimed warm-up pass it repeats the
workload until ``--seconds`` have passed (at least ``MIN_PASSES`` times) and
reports every pass.  With ``--trace 1`` it first measures untraced
passes, then traced ones, and reports the per-layer metrics of the traced
passes with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import spans
import workloads

WORK_ROOT = ".bench_work"
MIN_PASSES = 3
MIN_TRACE_PASSES = 2


def _passes(workload: str, params: dict, size: dict, seconds: float, least: int) -> list:
    done = []
    start = time.perf_counter()
    while len(done) < least or time.perf_counter() - start < seconds:
        done.append(workloads.run_pass(workload, params, size))
    return done


def _summary(passes: list) -> dict:
    return {
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "wrong": sum(p.wrong for p in passes),
        "digests": sorted({p.digest_hex for p in passes}),
    }


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = ap.parse_args(argv)

    size = workloads.SIZES[args.size]
    params = workloads.draw(args.workload, args.seed)
    # Outputs go to a directory of this process, so runs sharing a checkout
    # do not collide; paths inside it, echoed into the sidecars, stay fixed.
    home = os.getcwd()
    scratch = os.path.abspath(os.path.join(WORK_ROOT, str(os.getpid())))
    os.makedirs(scratch)
    os.chdir(scratch)
    try:
        warmup = workloads.run_pass(args.workload, params, size)
        if args.trace == 0:
            timed = _passes(args.workload, params, size, args.seconds, MIN_PASSES)
            traced, layers, leaks = [], {}, []
        else:
            timed = _passes(args.workload, params, size, args.seconds / 2, MIN_TRACE_PASSES)
            tracer = spans.Tracer()
            tracer.install()
            traced, per_pass = [], []
            try:
                start = time.perf_counter()
                while (len(traced) < MIN_TRACE_PASSES
                       or time.perf_counter() - start < args.seconds / 2):
                    tracer.reset()
                    p = workloads.run_pass(args.workload, params, size)
                    traced.append(p)
                    per_pass.append(tracer.metrics(p.classified_points))
            finally:
                tracer.uninstall()
            leaks = spans.leaked_wrappers()
            layers = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
            layers["trace.overhead_frac"] = (
                statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in timed) - 1.0)
    finally:
        os.chdir(home)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    measured = timed + traced
    if args.trace:
        layers["run.failed_frac"] = (sum(p.failed for p in measured)
                                     / sum(p.attempted for p in measured))
        layers["run.cpu_s"] = statistics.median(p.cpu_s for p in timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "params": params,
        "size": args.size,
        "timed": _summary(timed),
        "traced": _summary(traced),
        "warmup_digest": warmup.digest_hex,
        "layers": layers,
        "leaked_wrappers": leaks,
        "peak_rss_mb": peak_rss_mb,
        "environment": _environment(),
        "notes": sorted({note for p in [warmup, *measured] for note in p.notes})[:20],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
