"""Span tracer for the traced benchmark run.

The tracer replaces public functions of the ``dtqw`` modules with wrappers
that record one span per call (name, thread, parent, start, end) and, for a
few functions, the amount of work the call did.  Nothing in the library is
edited: a name imported with ``from x import y`` is replaced in every ``dtqw``
module that holds it, and methods are replaced on their class.  ``uninstall``
puts every original back.  Spans are kept in memory and reduced to per-layer
metrics once a pass has ended.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute path) of every wrapped function; the span name is
# "<module>.<attribute path>".
TARGETS = (
    ("cli", "main"),
    ("cli", "_sweep_row"),
    ("momentum", "band_structure"),
    ("momentum", "gap_report"),
    ("topology", "winding_mt"),
    ("topology", "pole_assignment"),
    ("topology", "rel_homotopy_invariant"),
    ("topology", "predicted_edge_states"),
    ("lattice", "build_walk"),
    ("lattice", "evolve"),
    ("lattice", "WalkOperator.apply"),
    ("lattice", "WalkOperator.apply_array"),
    ("lattice", "WalkOperator.dense"),
    ("lattice", "diagonalize"),
    ("lattice", "state_table"),
    ("lattice", "trajectory_table"),
    ("symmetry", "run_symmetry_suite"),
    ("symmetry", "spectrum_match_residual"),
    ("symmetry", "frame_conjugated_walk"),
    ("symmetry", "sublattice_residual"),
    ("symmetry", "phs_residual"),
    ("edge", "analytic_edge_state"),
    ("edge", "eigen_residual"),
    ("edge", "initial_state"),
    ("edge", "dynamics_experiment"),
    ("io", "write_csv"),
    ("io", "write_json"),
    ("io", "write_sidecar"),
    ("core", "coin_matrix"),
)

# A span opened on a thread whose stack is empty (a sweep pool worker) takes
# the open command span as its parent.
COMMAND_SPAN = "cli.main"

_MARK = "__bench_traced__"


def _n_sites(a) -> int:
    return int(a["amps"].shape[0])


# Work counted per call, from the call's bound arguments and its result.
# Each returns {counter: amount}; "lattice.diagonalize.max_dim" is reduced by
# max, every other counter by sum.
_COUNTERS = {
    "momentum.band_structure": lambda a, r: {"momentum.kpoints": r.grid_size},
    "topology.winding_mt": lambda a, r: {"momentum.kpoints": a["grid_size"]},
    "lattice.build_walk": lambda a, r: {"lattice.sites_built": r.n_sites},
    "lattice.WalkOperator.apply_array": lambda a, r: {"lattice.site_steps": _n_sites(a)},
    # one dense complex (2N)^3 product per layer, 8 real flops per multiply-add
    "lattice.WalkOperator.dense": lambda a, r: {
        "lattice.dense.flops_computed": 8 * r.shape[0] ** 3 * len(a["self"].layers)},
    "lattice.diagonalize": lambda a, r: {"lattice.diagonalize.max_dim": 2 * a["u"].n_sites},
    "io.write_csv": lambda a, r: {"io.rows_written": len(a["rows"]),
                                  "io.bytes_written": os.path.getsize(a["path"]),
                                  "io.files_written": 1},
    "io.write_json": lambda a, r: {"io.bytes_written": os.path.getsize(a["path"]),
                                   "io.files_written": 1},
}
_MAX_COUNTERS = {"lattice.diagonalize.max_dim"}

# Every per-layer metric the traced run reports: (name, unit, better).
# BENCHMARK.json declares the same list.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.row_span_sum_s", "s", "lower"),
    ("momentum.band_structure.calls", "count", "lower"),
    ("momentum.band_structure.self_s", "s", "lower"),
    ("momentum.gap_report.calls", "count", "lower"),
    ("momentum.gap_report.self_s", "s", "lower"),
    ("momentum.kpoints", "count", "lower"),
    ("topology.winding_mt.calls", "count", "lower"),
    ("topology.winding_mt.self_s", "s", "lower"),
    ("topology.pole_assignment.calls", "count", "lower"),
    ("topology.pole_assignment.self_s", "s", "lower"),
    ("topology.rel_homotopy_invariant.calls", "count", "lower"),
    ("topology.rel_homotopy_invariant.self_s", "s", "lower"),
    ("topology.predicted_edge_states.calls", "count", "lower"),
    ("topology.predicted_edge_states.self_s", "s", "lower"),
    ("topology.curve_passes_per_point", "ratio", "lower"),
    ("lattice.build_walk.calls", "count", "lower"),
    ("lattice.build_walk.self_s", "s", "lower"),
    ("lattice.sites_built", "count", "lower"),
    ("lattice.evolve.self_s", "s", "lower"),
    ("lattice.WalkOperator.apply.calls", "count", "lower"),
    ("lattice.site_steps", "count", "lower"),
    ("lattice.step_ns_per_site", "ns", "lower"),
    ("lattice.WalkOperator.apply_array.self_s", "s", "lower"),
    ("lattice.WalkOperator.dense.calls", "count", "lower"),
    ("lattice.WalkOperator.dense.self_s", "s", "lower"),
    ("lattice.dense.flops_computed", "flop", "lower"),
    ("lattice.diagonalize.calls", "count", "lower"),
    ("lattice.diagonalize.self_s", "s", "lower"),
    ("lattice.diagonalize.max_dim", "count", "lower"),
    ("lattice.state_table.self_s", "s", "lower"),
    ("lattice.trajectory_table.self_s", "s", "lower"),
    ("symmetry.run_symmetry_suite.self_s", "s", "lower"),
    ("symmetry.spectrum_match_residual.self_s", "s", "lower"),
    ("symmetry.frame_conjugated_walk.self_s", "s", "lower"),
    ("symmetry.sublattice_residual.self_s", "s", "lower"),
    ("symmetry.phs_residual.self_s", "s", "lower"),
    ("edge.analytic_edge_state.self_s", "s", "lower"),
    ("edge.eigen_residual.self_s", "s", "lower"),
    ("edge.initial_state.self_s", "s", "lower"),
    ("edge.dynamics_experiment.self_s", "s", "lower"),
    ("io.write_csv.self_s", "s", "lower"),
    ("io.write_json.self_s", "s", "lower"),
    ("io.write_sidecar.self_s", "s", "lower"),
    ("io.rows_written", "count", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("io.files_written", "count", "lower"),
    ("core.coin_matrix.calls", "count", "lower"),
    ("core.coin_matrix.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("run.failed_frac", "ratio", "lower"),
    ("run.cpu_s", "s", "lower"),
)


def _resolve(module: str, path: str):
    """(owner, attribute, original function) for one target."""
    owner = sys.modules[f"dtqw.{module}"]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


def _dtqw_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dtqw" or name.startswith("dtqw."))]


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.spans = []  # (id, name, thread, parent id, start ns, end ns, counts)
        self._ids = itertools.count()
        self._local = threading.local()
        self._command = None
        self._patches = []  # (owner, attribute, original)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import dtqw.cli  # noqa: F401  (loads every module a target lives in)

        namespaces = _dtqw_namespaces()
        for module, path in TARGETS:
            owner, attr, original = _resolve(module, path)
            name = f"{module}.{path}"
            wrapper = self._wrap(name, original)
            if "." in path:  # a method: replace it on its class only
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        bind = inspect.signature(fn).bind if count is not None else None
        local = self._local
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else tracer._command
            if name == COMMAND_SPAN and not stack:
                tracer._command = sid
            stack.append(sid)
            done = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if tracer._command == sid:
                    tracer._command = None
                counts = None
                if done and count is not None:
                    bound = bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = count(bound.arguments, result)
                tracer.spans.append((sid, name, threading.get_ident(), parent, t0, t1, counts))

        setattr(traced, _MARK, True)
        return traced

    def metrics(self, classified_points: int) -> dict:
        """Per-layer metrics of the spans recorded since the last reset.

        ``classified_points`` is the number of gapped coins the pass asked the
        library to classify (the denominator of curve_passes_per_point).
        """
        spans = list(self.spans)
        thread_of = {s[0]: s[2] for s in spans}
        child_ns = defaultdict(int)
        for sid, _, tid, parent, t0, t1, _ in spans:
            if parent is not None and thread_of.get(parent) == tid:
                child_ns[parent] += t1 - t0
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        counters = defaultdict(int)
        for sid, name, _, _, t0, t1, counts in spans:
            calls[name] += 1
            total_ns[name] += t1 - t0
            self_ns[name] += t1 - t0 - child_ns[sid]
            for key, value in (counts or {}).items():
                if key in _MAX_COUNTERS:
                    counters[key] = max(counters[key], value)
                else:
                    counters[key] += value

        out = {}
        for module, path in TARGETS:
            name = f"{module}.{path}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        out["cli.self_s"] = (self_ns["cli.main"] + self_ns["cli._sweep_row"]) / 1e9
        out["cli.row_span_sum_s"] = total_ns["cli._sweep_row"] / 1e9
        curve_passes = calls["momentum.band_structure"] + calls["topology.winding_mt"]
        out["topology.curve_passes_per_point"] = curve_passes / max(classified_points, 1)
        site_steps = counters["lattice.site_steps"]
        out["lattice.step_ns_per_site"] = (
            total_ns["lattice.WalkOperator.apply_array"] / site_steps if site_steps else 0.0)
        for key in ("momentum.kpoints", "lattice.sites_built", "lattice.site_steps",
                    "lattice.dense.flops_computed", "lattice.diagonalize.max_dim",
                    "io.rows_written", "io.bytes_written", "io.files_written"):
            out[key] = counters[key]
        return out


def leaked_wrappers() -> list[str]:
    """Names in any loaded ``dtqw`` namespace or class that still hold a wrapper."""
    leaks = []
    for ns in _dtqw_namespaces():
        for key, value in list(vars(ns).items()):
            if getattr(value, _MARK, False):
                leaks.append(f"{ns.__name__}.{key}")
            elif isinstance(value, type) and value.__module__.startswith("dtqw"):
                leaks.extend(f"{ns.__name__}.{key}.{k}" for k, v in vars(value).items()
                             if getattr(v, _MARK, False))
    return leaks
