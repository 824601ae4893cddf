"""Command-line front end.

Every analysis is a subcommand writing deterministic data files (CSV or JSON)
plus a ``<file>.meta.json`` sidecar echoing the full configuration.  Angles
are radians unless ``--degrees`` is given.  Exit codes: 0 success, 2 invalid
configuration, 3 numerical contract violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys

import numpy as np

from . import __version__, io
from .core import CoinParams
from .edge import (
    InitialStateCase,
    InterfaceSpec,
    analytic_edge_state,
    dynamics_experiment,
    eigen_residual,
    experiment_json_dict,
)
from .errors import NumericalContractError, ValidationError
from .lattice import check_ring, state_table, trajectory_table
from .momentum import DEFAULT_GRID, band_structure, band_table, check_grid, gap_report
from .symmetry import reports_json, run_symmetry_suite
from .topology import (
    FrameVariant,
    bz_image_table,
    classify_sweep,
    invariant_json_dict,
    predicted_edge_states,
    rel_homotopic,
    rel_homotopy_invariant,
    rotated_winding,
    sweep_table,
    winding_mt,
)

_ANGLE_ARGS = ("delta", "alpha", "beta", "theta", "theta1", "theta2",
               "theta_min", "theta_max", "theta_step")

_FRAMES = {"identity": FrameVariant.IDENTITY, "v1": FrameVariant.V1, "v2": FrameVariant.V2}
_CASES = {
    "orthogonal-to-both": InitialStateCase.ORTHOGONAL_TO_BOTH,
    "overlap-one": InitialStateCase.OVERLAP_ONE,
    "overlap-both": InitialStateCase.OVERLAP_BOTH,
}

# A sweep of more points is refused: 1000 times the largest sweep in use, and
# a bound on the memory of its arrays and table (about 120 bytes a point).
MAX_SWEEP_POINTS = 10**7
# Words argparse reads as a negative value, not as a flag.  Its own test takes
# only -1 and -1.5, so a flag's value -1e-4, -inf or -nan would read as a flag.
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="format of tabular outputs")
    parser.add_argument("--degrees", action="store_true",
                        help="interpret all angle flags in degrees")


def _flag(name: str, kind=float, **options) -> tuple[str, dict]:
    """A subcommand's flag: its name and ``add_argument`` options."""
    return name, {"type": kind, **options}


_THETA = _flag("--theta", required=True)
_WALL = (_flag("--theta1", required=True), _flag("--theta2", required=True))
_FAMILY = tuple(_flag(name, default=0.0) for name in ("--delta", "--alpha", "--beta"))
_GRID = _flag("--grid", int, default=DEFAULT_GRID)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dtqw`` parser, built on first use and reused by every later call:
    parsing only reads it and returns a new Namespace, and help and errors are
    formatted when printed.  Do not change it."""
    parser = argparse.ArgumentParser(
        prog="dtqw",
        description="one-dimensional coined quantum walks: bands, topology, "
                    "symmetries, interface edge states",
    )
    parser.add_argument("--version", action="version", version=f"dtqw {__version__}")
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, func) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        for flag, options in flags:
            p.add_argument(flag, **options)
        _common_flags(p)
        p.set_defaults(func=func)
    return parser


def _convert_degrees(args: argparse.Namespace) -> None:
    for name in _ANGLE_ARGS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(args, name, value * math.pi / 180.0)


def _config_echo(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _validate(args: argparse.Namespace) -> list[str]:
    problems = []
    for check, name in ((check_grid, "grid"), (check_ring, "ring_size")):
        if hasattr(args, name):  # the library's own rule, before any array is built
            try:
                check(getattr(args, name), "--" + name.replace("_", "-"))
            except ValidationError as exc:
                problems.append(str(exc))
    if args.command == "invariant":
        given = tuple(v is not None for v in (args.theta, args.theta1, args.theta2))
        if given not in ((True, False, False), (False, True, True)):
            problems.append("give either --theta or both --theta1 and --theta2")
    if args.command == "sweep":
        non_finite = [f"{flag} must be finite, got {value}" for flag, value in (
            ("--theta-min", args.theta_min), ("--theta-max", args.theta_max),
            ("--theta-step", args.theta_step)) if not math.isfinite(value)]
        if non_finite:
            problems += non_finite
        elif args.theta_step <= 0:
            problems.append("--theta-step must be positive")
        elif args.theta_min > args.theta_max:
            problems.append("empty sweep range: --theta-min exceeds --theta-max")
    return problems


def _table_path(args, name: str) -> str:
    return os.path.join(args.out, f"{name}.{args.format}")


def _write_table(args, name: str, rows: io.Table) -> str:
    path = _table_path(args, name)
    if args.format == "csv":
        io.write_csv(path, rows)
    else:
        io.write_json_table(path, rows)
    io.write_sidecar(path, _config_echo(args), __version__)
    return path


def _write_record(args, name: str, obj) -> str:
    path = os.path.join(args.out, f"{name}.json")
    io.write_json(path, obj)
    io.write_sidecar(path, _config_echo(args), __version__)
    return path


def cmd_band(args) -> int:
    p = CoinParams(args.delta, args.alpha, args.beta, args.theta)
    b = band_structure(p, args.grid)
    _write_table(args, "band", band_table(b))
    print(io.json_text(dataclasses.asdict(gap_report(b))), end="")
    return 0


def cmd_map(args) -> int:
    p = CoinParams(args.delta, args.alpha, args.beta, args.theta)
    rows = bz_image_table(p, _FRAMES[args.frame], args.grid)
    path = _write_table(args, "map", rows)
    print(path)
    return 0


def cmd_winding(args) -> int:
    p = CoinParams(args.delta, args.alpha, args.beta, args.theta)
    result = {
        "winding_mt": winding_mt(p),
        "rotated_v1_about_x": rotated_winding(p, FrameVariant.V1),
        "rotated_v2_about_z": rotated_winding(p, FrameVariant.V2),
    }
    _write_record(args, "winding", result)
    print(io.json_text(result), end="")
    return 0


def cmd_invariant(args) -> int:
    if args.theta is not None:
        p = CoinParams(args.delta, args.alpha, args.beta, args.theta)
        result = invariant_json_dict(rel_homotopy_invariant(p))
    else:
        p1 = CoinParams(args.delta, args.alpha, args.beta, args.theta1)
        p2 = CoinParams(args.delta, args.alpha, args.beta, args.theta2)
        result = {
            "invariant_theta1": invariant_json_dict(rel_homotopy_invariant(p1)),
            "invariant_theta2": invariant_json_dict(rel_homotopy_invariant(p2)),
            "rel_homotopic": rel_homotopic(p1, p2),
            "predicted_edge_states": predicted_edge_states(p1, p2),
        }
    _write_record(args, "invariant", result)
    print(io.json_text(result), end="")
    return 0


def cmd_symmetry(args) -> int:
    p = CoinParams(args.delta, args.alpha, args.beta, args.theta)
    reports = run_symmetry_suite(p, n_sites=args.ring_size)
    _write_record(args, "symmetry", reports_json(reports))
    for r in reports:
        verdict = "passed" if r.passed else f"FAILED (tolerance {r.tolerance:.0e})"
        print(f"{r.name}: residual {r.residual:.3e} ({r.norm} norm) {verdict}")
    if not all(r.passed for r in reports):
        return 3
    return 0


def cmd_edge(args) -> int:
    spec = InterfaceSpec(args.delta, args.alpha, args.beta,
                         args.theta1, args.theta2, args.ring_size)
    u = spec.walk()
    states = [analytic_edge_state(spec, eta) for eta in (0.0, math.pi)]
    a1, a2, norm_constant, _ = spec.edge_profile
    result = {"norm_constant": norm_constant, "states": []}
    for eta, tag, e in zip((0.0, math.pi), ("eta0", "eta_pi"), states):
        residual, omega = eigen_residual(u, e)
        _write_table(args, f"edge_{tag}", state_table(e))
        result["states"].append({
            "eta": eta,
            "quasienergy": omega,
            "residual": residual,
            "decay_constants": [io.json_complex(a) for a in (a1, a2)],
        })
    result["mutual_overlap"] = abs(states[0].overlap(states[1]))
    _write_record(args, "edge", result)
    print(io.json_text(result), end="")
    return 0


def cmd_evolve(args) -> int:
    spec = InterfaceSpec(args.delta, args.alpha, args.beta,
                         args.theta1, args.theta2, args.ring_size)
    rec = dynamics_experiment(spec, _CASES[args.case], args.steps)
    _write_table(args, "trajectory", trajectory_table(rec.trajectory))
    result = experiment_json_dict(rec)
    _write_record(args, "experiment", result)
    print(io.json_text(result), end="")
    return 0


# bench/spans.py traces sweep_table under this name until ROADMAP item 1
_sweep_row = sweep_table


def cmd_sweep(args) -> int:
    span = (args.theta_max - args.theta_min) / args.theta_step + 1e-9
    if not span < MAX_SWEEP_POINTS:  # also an infinite span
        raise ValidationError(f"--theta-step {args.theta_step} asks for {span + 1:.6g} sweep "
                              f"points, more than {MAX_SWEEP_POINTS}")
    count = int(math.floor(span)) + 1
    # per theta the same two roundings as the float sum theta_min + i * theta_step
    thetas = args.theta_min + np.arange(count) * args.theta_step
    family = CoinParams(args.delta, args.alpha, args.beta, 0.0)  # its theta is not used
    table = sweep_table(classify_sweep(family, thetas, args.grid))
    _write_table(args, "sweep", table)
    print(f"swept {len(table)} points")
    return 0


# name: (help, its own flags in order, command), in the order of the usage line
_SUBCOMMANDS = {
    "band": ("band structure CSV plus gap report", (_THETA, *_FAMILY, _GRID), cmd_band),
    "map": ("Brillouin-zone image curve, optionally frame-rotated",
            (_THETA, *_FAMILY, _flag("--frame", None, choices=sorted(_FRAMES), default="identity"),
             _GRID), cmd_map),
    "winding": ("winding numbers of the image curve", (_THETA, *_FAMILY), cmd_winding),
    "invariant": ("phase classification of one coin or a pair",
                  (_flag("--theta"), _flag("--theta1"), _flag("--theta2"), *_FAMILY),
                  cmd_invariant),
    "symmetry": ("certify the symmetry relations numerically",
                 (_THETA, *_FAMILY, _flag("--ring-size", int, default=8)), cmd_symmetry),
    "edge": ("closed-form interface states and their residuals",
             (*_WALL, *_FAMILY, _flag("--ring-size", int, default=64)), cmd_edge),
    "evolve": ("interface dynamics experiment",
               (*_WALL, *_FAMILY, _flag("--case", None, choices=sorted(_CASES), required=True),
                _flag("--steps", int, default=200), _flag("--ring-size", int, default=512)),
               cmd_evolve),
    "sweep": ("phase classification over a theta range",
              (*(_flag(f"--theta-{end}", required=True) for end in ("min", "max", "step")),
               *_FAMILY, _GRID), cmd_sweep),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.degrees:
        _convert_degrees(args)
    problems = _validate(args)
    if problems:
        for msg in problems:
            print(f"error: {msg}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except NumericalContractError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ValidationError among them
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
