"""Command-line front end.

Every analysis is a subcommand writing deterministic data files (CSV or JSON)
plus a ``<file>.meta.json`` sidecar echoing the full configuration.  Angles
are radians unless ``--degrees`` is given.  Exit codes: 0 success, 2 invalid
configuration, 3 numerical contract violation.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

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
from .lattice import (
    STATE_CSV_HEADER,
    TRAJECTORY_CSV_HEADER,
    state_table,
    trajectory_table,
)
from .momentum import BAND_CSV_HEADER, DEFAULT_GRID, band_structure, band_table, gap_report
from .symmetry import reports_json, run_symmetry_suite
from .topology import (
    BZ_IMAGE_CSV_HEADER,
    FrameVariant,
    PhaseLabel,
    SweepResult,
    bz_image_table,
    classify_sweep,
    invariant_json_dict,
    pole_letter,
    predicted_edge_states,
    rel_homotopic,
    rel_homotopy_invariant,
    rotated_winding,
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
# a bound on the memory the rows take.
MAX_SWEEP_POINTS = 10**7
# A larger --grid is refused before any array is built: 1024 times the largest in use.
MAX_GRID = 2**20

# Words argparse reads as a negative value, not as a flag.  Its own test takes
# only -1 and -1.5, so a flag's value -1e-4, -inf or -nan would read as a flag.
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

SWEEP_CSV_HEADER = ["theta", "gap_delta", "gap_delta_plus_pi", "winding",
                    "pole_k0", "pole_k1", "phase_label"]


def _family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, default=0.0)
    parser.add_argument("--alpha", type=float, default=0.0)
    parser.add_argument("--beta", type=float, default=0.0)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="format of tabular outputs")
    parser.add_argument("--degrees", action="store_true",
                        help="interpret all angle flags in degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtqw",
        description="one-dimensional coined quantum walks: bands, topology, "
                    "symmetries, interface edge states",
    )
    parser.add_argument("--version", action="version", version=f"dtqw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("band", help="band structure CSV plus gap report")
    p.add_argument("--theta", type=float, required=True)
    _family_flags(p)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    _common_flags(p)
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("map", help="Brillouin-zone image curve, optionally frame-rotated")
    p.add_argument("--theta", type=float, required=True)
    _family_flags(p)
    p.add_argument("--frame", choices=sorted(_FRAMES), default="identity")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    _common_flags(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("winding", help="winding numbers of the image curve")
    p.add_argument("--theta", type=float, required=True)
    _family_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("invariant", help="phase classification of one coin or a pair")
    p.add_argument("--theta", type=float)
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    _family_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("symmetry", help="certify the symmetry relations numerically")
    p.add_argument("--theta", type=float, required=True)
    _family_flags(p)
    p.add_argument("--ring-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0, help="seed of the PHS involution probe")
    _common_flags(p)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("edge", help="closed-form interface states and their residuals")
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument("--theta2", type=float, required=True)
    _family_flags(p)
    p.add_argument("--ring-size", type=int, default=64)
    _common_flags(p)
    p.set_defaults(func=cmd_edge)

    p = sub.add_parser("evolve", help="interface dynamics experiment")
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument("--theta2", type=float, required=True)
    _family_flags(p)
    p.add_argument("--case", choices=sorted(_CASES), required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--ring-size", type=int, default=512)
    _common_flags(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sweep", help="phase classification over a theta range")
    p.add_argument("--theta-min", type=float, required=True)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--theta-step", type=float, required=True)
    _family_flags(p)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    _common_flags(p)
    p.set_defaults(func=cmd_sweep)
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_VALUE
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
    grid = getattr(args, "grid", 8)
    if grid < 8:
        problems.append("--grid must be at least 8")
    elif grid > MAX_GRID:
        problems.append(f"--grid must be at most {MAX_GRID}, got {grid}")
    ring = getattr(args, "ring_size", None)
    if ring is not None and (ring < 4 or ring % 2):
        problems.append("--ring-size must be even and at least 4")
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


def _write_table(args, name: str, header: list[str], rows) -> str:
    path = _table_path(args, name)
    if args.format == "csv":
        io.write_csv(path, header, rows)
    else:
        # JSON has no NaN: a non-finite cell (omega at a degenerate k) is null
        io.write_json(path, [{key: None if isinstance(x, float) and not math.isfinite(x) else x
                              for key, x in zip(header, row)} for row in rows])
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
    _write_table(args, "band", BAND_CSV_HEADER, band_table(b))
    g = gap_report(b)
    print(io.json_text({
        "gap_at_delta": g.gap_at_delta,
        "gap_at_delta_plus_pi": g.gap_at_delta_plus_pi,
        "is_gapped": g.is_gapped,
    }), end="")
    return 0


def cmd_map(args) -> int:
    p = CoinParams(args.delta, args.alpha, args.beta, args.theta)
    rows = bz_image_table(p, _FRAMES[args.frame], args.grid)
    path = _write_table(args, "map", BZ_IMAGE_CSV_HEADER, rows)
    print(path)
    return 0


def _frame_winding(p: CoinParams, variant: FrameVariant) -> int | None:
    """rotated_winding, or None (JSON null) for a coin whose frames have no
    fixed chiral plane (alpha or beta nonzero)."""
    return rotated_winding(p, variant) if p.has_fixed_frames else None


def cmd_winding(args) -> int:
    p = CoinParams(args.delta, args.alpha, args.beta, args.theta)
    result = {
        "winding_mt": winding_mt(p),
        "rotated_v1_about_x": _frame_winding(p, FrameVariant.V1),
        "rotated_v2_about_z": _frame_winding(p, FrameVariant.V2),
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
    reports = run_symmetry_suite(p, n_sites=args.ring_size, seed=args.seed)
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
    result = {"norm_constant": None, "states": []}
    states = []
    u = spec.walk()
    for eta, tag in ((0.0, "eta0"), (math.pi, "eta_pi")):
        e = analytic_edge_state(spec, eta)
        states.append(e)
        residual, omega = eigen_residual(u, e)
        _write_table(args, f"edge_{tag}", STATE_CSV_HEADER, state_table(e.state))
        result["norm_constant"] = e.norm_constant
        result["states"].append({
            "eta": eta,
            "quasienergy": omega,
            "residual": residual,
            "decay_constants": [io.json_complex(a) for a in e.decay_constants],
        })
    result["mutual_overlap"] = abs(states[0].state.overlap(states[1].state))
    _write_record(args, "edge", result)
    print(io.json_text(result), end="")
    return 0


def cmd_evolve(args) -> int:
    spec = InterfaceSpec(args.delta, args.alpha, args.beta,
                         args.theta1, args.theta2, args.ring_size)
    rec = dynamics_experiment(spec, _CASES[args.case], args.steps)
    _write_table(args, "trajectory", TRAJECTORY_CSV_HEADER, trajectory_table(rec.trajectory))
    result = experiment_json_dict(rec)
    _write_record(args, "experiment", result)
    print(io.json_text(result), end="")
    return 0


def _sweep_row(sweep: SweepResult, i: int) -> list:
    row = [float(sweep.theta[i]), float(sweep.gap_at_delta[i]),
           float(sweep.gap_at_delta_plus_pi[i])]
    if not sweep.gapped[i]:
        return row + ["", "", "", "Gapless"]
    at_k0, at_k1 = sweep.poles[i]
    return row + [int(sweep.winding[i]), pole_letter(at_k0), pole_letter(at_k1),
                  PhaseLabel.from_pole(at_k1).value]


def cmd_sweep(args) -> int:
    span = (args.theta_max - args.theta_min) / args.theta_step + 1e-9
    if not span < MAX_SWEEP_POINTS:  # also an infinite span
        raise ValidationError(f"--theta-step {args.theta_step} asks for {span + 1:.6g} sweep "
                              f"points, more than {MAX_SWEEP_POINTS}")
    count = int(math.floor(span)) + 1
    thetas = [args.theta_min + i * args.theta_step for i in range(count)]
    family = CoinParams(args.delta, args.alpha, args.beta, 0.0)  # its theta is not used
    sweep = classify_sweep(family, thetas, args.grid)
    rows = [_sweep_row(sweep, i) for i in range(count)]
    _write_table(args, "sweep", SWEEP_CSV_HEADER, rows)
    print(f"swept {len(rows)} points")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.degrees:
        _convert_degrees(args)
    problems = _validate(args)
    if problems:
        for msg in problems:
            print(f"error: {msg}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
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
