"""dtqw benchmark: one workload, one seed, timed or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep,lattice} --seed N \
        --seconds S --trace {0,1}

The workload runs in a fresh worker process (``worker.py``) against the
library in ``src``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is the reproducibility record.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "lattice")
SIZES = ("full", "tiny")
DEADLINE_S = 170.0
SETUP_REPEATS = {"full": 7, "tiny": 2}
# BLAS threads the worker gets unless the caller sets them.  On a shared
# 2-vCPU machine two OpenBLAS threads made the dense workload 2.4x slower and
# its pass time vary by +-25 %, so one thread is the steady configuration.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
SETUP_CODE = "import time, dtqw.cli; print(repr(time.monotonic()))"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dtqw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _setup_times(env: dict, repeats: int, deadline: float) -> list[float]:
    """Seconds from starting a fresh interpreter to ``dtqw.cli`` imported.

    The child prints CLOCK_MONOTONIC once the import is done; that clock is
    shared by all processes on Linux.  The first, untimed, start compiles
    the bytecode cache.
    """
    times = []
    for i in range(repeats + 1):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                             stdout=subprocess.PIPE, text=True,
                             timeout=max(deadline - time.monotonic(), 1))
        if i:
            times.append(float(out.stdout) - t0)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="tiny shrinks every workload, for bench/selftest.py")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "dtqw", "__init__.py")):
        print(f"error: no dtqw sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env.setdefault(var, "1")

    try:
        setup = ([] if args.trace else
                 _setup_times(env, SETUP_REPEATS[args.size], deadline))
        worker = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            timeout=max(deadline - time.monotonic(), 1))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(worker.stdout.strip().splitlines()[-1])

    timed, traced = res["timed"], res["traced"]
    attempted = timed["attempted"] + traced["attempted"]
    failed = timed["failed"] + traced["failed"]
    digests = set(timed["digests"]) | set(traced["digests"]) | {res["warmup_digest"]}
    correct = (timed["wrong"] + traced["wrong"] == 0 and len(digests) == 1
               and not res["leaked_wrappers"])
    summary = {
        "wall_s": statistics.median(timed["wall_s"]),
        "cpu_s": statistics.median(timed["cpu_s"]),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_frac": failed / attempted,
    }
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": summary["wall_s"], "unit": "s"},
            "setup_s": {"value": summary["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - summary["failed_frac"], "unit": "ratio"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": res["size"], "params": res["params"],
        "summary": summary,
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
        "environment": res["environment"],
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "thread_env_given": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "setup_s_samples": setup, "timed": timed, "traced": traced,
        "outputs_sha256": sorted(digests), "leaked_wrappers": res["leaked_wrappers"],
        "notes": res["notes"],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
