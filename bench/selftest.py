"""Self-test of the benchmark harness, with every workload at its tiny size.

    python3 bench/selftest.py

Checks that
  1. the metric names ``run.py`` prints are the ones BENCHMARK.json declares
     (``end_to_end`` with ``--trace 0``, ``per_layer`` with ``--trace 1``);
  2. after a traced pass every wrapped attribute is the original object
     again, so tracing cannot leak into a timed run;
  3. the same seed gives the same drawn parameters and output hashes, and
     another seed other parameters.
Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    *_, record, result = out.stdout.strip().splitlines()
    return json.loads(record)["record"], json.loads(result)


def _snapshot(namespaces) -> dict:
    """(namespace, attribute) -> object for every module and class attribute."""
    snap = {}
    for ns in namespaces:
        for key, value in vars(ns).items():
            snap[(ns, key)] = value
            if isinstance(value, type) and value.__module__.startswith("dtqw"):
                for k, v in vars(value).items():
                    snap[(value, k)] = v
    return snap


def check_restore(errors: list) -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import spans
    import workloads

    scratch = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(scratch)
    os.chdir(scratch)

    namespaces = spans._dtqw_namespaces()
    before = _snapshot(namespaces)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name in workloads.WORKLOADS:
            params = workloads.draw(name, 3)
            workloads.run_pass(name, params, workloads.SIZES["tiny"])
    finally:
        tracer.uninstall()
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    traced = {s[1] for s in tracer.spans}
    missing = {f"{m}.{p}" for m, p in spans.TARGETS} - traced
    if missing:
        errors.append(f"targets never traced: {sorted(missing)}")
    after = _snapshot(namespaces)
    changed = [f"{getattr(owner, '__name__', owner)}.{key}" for (owner, key), value
               in before.items() if after.get((owner, key)) is not value]
    leaks = sorted(set(changed + spans.leaked_wrappers()))
    if leaks:
        errors.append(f"tracing left wrappers behind: {leaks}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    errors = []
    for w in declared["workloads"]:
        name = w["name"]
        rec_a, res_a = _run(name, 11, 0)
        rec_b, _ = _run(name, 11, 0)
        rec_c, _ = _run(name, 12, 0)
        _, res_t = _run(name, 11, 1)
        for label, res, want in (("trace 0", res_a, end_to_end), ("trace 1", res_t, per_layer)):
            got = set(res["metrics"])
            if got != want:
                errors.append(f"{name} {label}: metrics {sorted(got ^ want)} "
                              "differ from BENCHMARK.json")
            if not res["correct"]:
                errors.append(f"{name} {label}: outputs failed their checks")
        if rec_a["params"] != rec_b["params"] or rec_a["outputs_sha256"] != rec_b["outputs_sha256"]:
            errors.append(f"{name}: seed 11 twice gave different parameters or outputs")
        if rec_a["params"] == rec_c["params"]:
            errors.append(f"{name}: seeds 11 and 12 drew the same parameters")
    check_restore(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
