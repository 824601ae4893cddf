"""The benchmark workloads: seeded inputs, one pass through ``dtqw``, output checks.

Each workload draws its parameters from the seed; the library only sees the
drawn values.  A pass runs every operation of the workload once, times the
library calls (not the checks), and checks every output.  An operation that
raises, exits non-zero or reports its own failure is *failed*; one whose
output contradicts the check is also *wrong*, which makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as _stdio
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from dtqw import cli, lattice, topology
from dtqw.core import CoinParams, circle_distance
from dtqw.errors import WalkError

# "full" is what the benchmark measures; "tiny" keeps every operation of the
# workload but shrinks it, for the harness self-test.
SIZES = {
    "full": {
        "sweep_step": 0.01, "grid": 512,
        "edge_ring": 16384, "evolve_ring": 4096, "evolve_steps": 500,
        "pairs": 5, "pair_ring": 64, "symmetry_ring": 96,
    },
    "tiny": {
        "sweep_step": 0.25, "grid": 64,
        "edge_ring": 256, "evolve_ring": 256, "evolve_steps": 100,
        "pairs": 1, "pair_ring": 64, "symmetry_ring": 8,
    },
}

SWEEP_RANGE = (-3.0, 3.0)
# Near-closing probe from ROADMAP item 2: theta in [-3e-4, 3e-4], 7 points.
PROBE_RANGE = (-3e-4, 3e-4, 1e-4)
EVOLVE_CASES = ("orthogonal-to-both", "overlap-one", "overlap-both")
SYMMETRY_RELATIONS = ("SUB", "PHS", "PS", "CS", "TimeShiftV1", "TimeShiftV2")
EDGE_RESIDUAL_TOL = 1e-8
GAP_CENTER_TOL = 1e-6


def _family(rng) -> dict:
    delta, alpha, beta = rng.uniform(-math.pi, math.pi, 3)
    return {"delta": float(delta), "alpha": float(alpha), "beta": float(beta)}


def draw(workload: str, seed: int) -> dict:
    """The workload's parameters, a pure function of the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep":
        return _family(rng)
    # lattice: one interface wall, the pairs of acceptance criterion 8, and
    # one alpha = beta = 0 coin on which all six symmetry relations apply
    wall = _family(rng)
    wall["theta1"] = -float(rng.uniform(math.pi / 8, 3 * math.pi / 8))
    wall["theta2"] = float(rng.uniform(math.pi / 8, 3 * math.pi / 8))
    pairs = []
    for opposite in (True, False):
        for _ in range(SIZES["full"]["pairs"]):
            if opposite:
                th1 = -rng.uniform(0.2, math.pi - 0.2)
                th2 = rng.uniform(0.2, math.pi - 0.2)
            else:
                sign = rng.choice([-1.0, 1.0])
                th1 = sign * rng.uniform(0.2, math.pi - 0.2)
                th2 = sign * rng.uniform(0.2, math.pi - 0.2)
            pairs.append({**_family(rng), "theta1": float(th1), "theta2": float(th2)})
    sign = rng.choice([-1.0, 1.0])
    symmetry = {"delta": float(rng.uniform(-math.pi, math.pi)), "alpha": 0.0, "beta": 0.0,
                "theta": float(sign * rng.uniform(0.2, math.pi - 0.2))}
    return {"wall": wall, "pairs": pairs, "symmetry": symmetry}


@dataclass
class Pass:
    """Timing, operation counts and outputs of one pass over a workload."""

    workload: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    classified_points: int = 0
    notes: list = field(default_factory=list)
    results: list = field(default_factory=list)  # in-memory outputs to hash
    digest_hex: str = ""

    @contextlib.contextmanager
    def timed(self):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - w0
            self.cpu_s += time.process_time() - c0

    def out_dir(self, op: str) -> str:
        return os.path.join(self.workload, op)

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run ``dtqw <argv>`` in this process; returns (exit code, stderr)."""
        out, err = _stdio.StringIO(), _stdio.StringIO()
        with self.timed(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()

    def fail(self, count: int, why: str, wrong: bool = False) -> None:
        self.failed += count
        if wrong:
            self.wrong += count
        if len(self.notes) < 20:
            self.notes.append(why)

    def digest(self) -> str:
        """SHA-256 over every output file of the pass and its in-memory results."""
        h = hashlib.sha256()
        root = self.workload
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
        h.update(json.dumps(self.results).encode())
        return h.hexdigest()


def _angle_flags(params: dict, *names: str) -> list[str]:
    flags = []
    for name in names:
        flags += [f"--{name.replace('_', '-')}", repr(params[name])]
    return flags


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _thetas(lo: float, hi: float, step: float) -> list[float]:
    return [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]


def _gapless(theta: float) -> bool:
    return abs(theta) < 1e-9 or abs(math.pi - abs(theta)) < 1e-9


def _check_sweep(p: Pass, tag: str, rows: list[dict], thetas: list[float]) -> None:
    """Every gapped row: phase label and k1 pole follow sgn(theta); one winding."""
    if len(rows) != len(thetas):
        p.fail(len(thetas), f"sweep {tag}: {len(rows)} rows for {len(thetas)} points", True)
        return
    gapped = []
    for row, theta in zip(rows, thetas):
        if abs(float(row["theta"]) - theta) > 1e-9:
            p.fail(1, f"sweep {tag}: row theta {row['theta']} != {theta!r}", True)
        elif row["phase_label"] == "Gapless":
            if not _gapless(theta):
                p.fail(1, f"sweep {tag}: theta {theta!r} reported gapless", True)
        else:
            gapped.append(row)
    windings = [row["winding"] for row in gapped]
    common = max(set(windings), key=windings.count) if windings else None
    for row in gapped:
        positive = float(row["theta"]) > 0
        label = "ThetaPositive" if positive else "ThetaNegative"
        pole = "N" if positive else "S"
        if row["phase_label"] != label or row["pole_k1"] != pole or row["winding"] != common:
            p.fail(1, f"sweep {tag}: wrong row {dict(row)}", True)


def run_sweep(params: dict, size: dict) -> Pass:
    p = Pass("sweep")
    family = _angle_flags(params, "delta", "alpha", "beta")
    for tag, (lo, hi, step) in (("main", (*SWEEP_RANGE, size["sweep_step"])),
                                ("probe", PROBE_RANGE)):
        thetas = _thetas(lo, hi, step)
        p.attempted += len(thetas)
        p.classified_points += sum(not _gapless(t) for t in thetas)
        code, err = p.cli(["sweep", "--theta-min", repr(lo), "--theta-max", repr(hi),
                           "--theta-step", repr(step), "--grid", str(size["grid"]),
                           *family, "--out", p.out_dir(tag)])
        if code != 0:
            p.fail(len(thetas), f"sweep {tag}: exit {code}: {err}")
            continue
        _check_sweep(p, tag, _read_csv(os.path.join(p.out_dir(tag), "sweep.csv")), thetas)
    return p


def _interface(p: Pass, params: dict, size: dict) -> None:
    """Edge states of one wall, then the three dynamics cases on it."""
    spec = _angle_flags(params, "theta1", "theta2", "delta", "alpha", "beta")

    p.attempted += 2
    code, err = p.cli(["edge", *spec, "--ring-size", str(size["edge_ring"]),
                       "--out", p.out_dir("edge")])
    if code != 0:
        p.fail(2, f"edge: exit {code}: {err}")
    else:
        states = _read_json(os.path.join(p.out_dir("edge"), "edge.json"))["states"]
        for state, center in zip(states, (params["delta"], params["delta"] + math.pi)):
            distance = circle_distance(state["quasienergy"], center)
            if not (state["residual"] < EDGE_RESIDUAL_TOL and distance < GAP_CENTER_TOL):
                p.fail(1, f"edge eta={state['eta']}: residual {state['residual']}, "
                          f"{distance} from its gap center", True)
        if len(states) != 2:
            p.fail(2, f"edge: {len(states)} states reported", True)

    for case in EVOLVE_CASES:
        p.attempted += 1
        out = p.out_dir(f"evolve-{case}")
        code, err = p.cli(["evolve", *spec, "--case", case, "--steps", str(size["evolve_steps"]),
                           "--ring-size", str(size["evolve_ring"]), "--out", out])
        if code != 0:
            p.fail(1, f"evolve {case}: exit {code}: {err}")
            continue
        record = _read_json(os.path.join(out, "experiment.json"))
        rows = _read_csv(os.path.join(out, "trajectory.csv"))
        if len(rows) != size["evolve_steps"] + 1:
            p.fail(1, f"evolve {case}: {len(rows)} trajectory rows", True)
        elif not record["passed"]:
            p.fail(1, f"evolve {case}: experiment did not pass: {record}")


def _localized_gap_states(sd, delta: float, th1: float, th2: float, n: int) -> int:
    """In-gap eigenvectors with most weight within 10 sites of either wall
    (the ring carries two walls), counted as in acceptance criterion 8."""
    gap = min(min(abs(t), math.pi - abs(t)) for t in (th1, th2))
    near = sorted(set(lattice.window_sites(0, 10, n)) | set(lattice.window_sites(-n // 2, 10, n)))
    weight = sd.site_probabilities()[:, [(x + n // 2) % n for x in near]].sum(axis=1)
    count = 0
    for w, wt in zip(sd.eigenphases, weight):
        in_gap = (circle_distance(w, delta) < 0.9 * gap
                  or circle_distance(w, delta + math.pi) < 0.9 * gap)
        count += bool(in_gap and wt > 0.5)
    return count


def _spectra(p: Pass, params: dict, size: dict) -> None:
    """Dense bulk-boundary counts of the pairs, then the symmetry suite."""
    n = size["pair_ring"]
    pairs = params["pairs"]
    half = len(pairs) // 2
    chosen = pairs[:size["pairs"]] + pairs[half:half + size["pairs"]]
    for pair in chosen:
        p.attempted += 1
        p.classified_points += 2
        th1, th2 = pair["theta1"], pair["theta2"]
        try:
            with p.timed():
                c1 = CoinParams(pair["delta"], pair["alpha"], pair["beta"], th1)
                c2 = CoinParams(pair["delta"], pair["alpha"], pair["beta"], th2)
                predicted = topology.predicted_edge_states(c1, c2)
                profile = lattice.ThetaProfile.sharp_interface(th1, th2, n)
                sd = lattice.diagonalize(lattice.build_walk(c2, profile))
        except (WalkError, ValueError) as exc:
            p.fail(1, f"pair {pair}: {type(exc).__name__}: {exc}")
            continue
        count = _localized_gap_states(sd, pair["delta"], th1, th2, n)
        p.results.append([predicted, count])
        expected = 2 if (th1 > 0) != (th2 > 0) else 0
        if predicted != expected or count != 2 * predicted:
            p.fail(1, f"pair {pair}: predicted {predicted}, dense count {count}", True)

    coin = params["symmetry"]
    p.attempted += len(SYMMETRY_RELATIONS)
    out = p.out_dir("symmetry")
    code, err = p.cli(["symmetry", *_angle_flags(coin, "theta", "delta", "alpha", "beta"),
                       "--ring-size", str(size["symmetry_ring"]), "--out", out])
    path = os.path.join(out, "symmetry.json")
    if code not in (0, 3) or not os.path.exists(path):
        p.fail(len(SYMMETRY_RELATIONS), f"symmetry: exit {code}: {err}")
        return
    reports = {r["name"]: r for r in _read_json(path)}
    for name in SYMMETRY_RELATIONS:
        if name not in reports:
            p.fail(1, f"symmetry {name}: not reported")
        elif not reports[name]["passed"]:
            p.fail(1, f"symmetry {name}: residual {reports[name]['residual']}")


def run_lattice(params: dict, size: dict) -> Pass:
    p = Pass("lattice")
    _interface(p, params["wall"], size)
    _spectra(p, params, size)
    return p


RUNNERS = {"sweep": run_sweep, "lattice": run_lattice}
WORKLOADS = tuple(RUNNERS)


def run_pass(workload: str, params: dict, size: dict) -> Pass:
    """One pass over a workload; outputs go to ``<workload>/`` under the
    working directory, which is emptied first."""
    shutil.rmtree(workload, ignore_errors=True)
    p = RUNNERS[workload](params, size)
    p.digest_hex = p.digest()
    return p
