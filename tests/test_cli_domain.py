"""Whole-domain property test of the command line.

Deterministic hypothesis draws of ``dtqw`` argument lists: the special
angles (the gap closings, 1e-13 off them, the flat band at pi/2, 2*pi),
non-finite values, odd and even grids, small and invalid rings, both output
formats and ``--degrees``.  Every command must exit 0, 2 or 3 with no
uncaught exception, write and print JSON without NaN or Infinity, name the
quantity and its tolerance when it exits 3, and ``symmetry`` must never
report FAILED for a relation it certifies on its domain.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dtqw.cli import main

PI = math.pi
# hypothesis leans to the first entry of a list, so each list opens with a usual value
SPECIAL = [PI / 2, -PI / 2, 1e-13, -1e-13, 0.0, PI - 1e-12, -(PI - 1e-12), PI, -PI, 2 * PI,
           math.inf, math.nan]
angles = st.one_of(st.floats(-7.0, 7.0), st.sampled_from(SPECIAL))
family_angles = st.one_of(st.floats(-7.0, 7.0),
                          st.sampled_from([0.0, 4e-14, -4e-14, 1e-13, 1e-12, PI / 4, PI]))
# an interface wall joins theta1 in (-pi, 0) to theta2 in (0, pi); the walls
# away from a gap closing have tails short enough for the small rings
_wall_side = st.one_of(st.floats(0.3, PI - 0.3), st.floats(0.0, PI),
                       st.sampled_from([PI / 2, 1e-13, PI - 1e-12]))
wall_sides = (_wall_side.map(lambda t: -t), _wall_side)
grids = st.sampled_from([64, 8, 9, 16, 17, 33, 7])
# commands that print their JSON result on stdout
PRINTS_JSON = {"band", "winding", "invariant", "edge", "evolve"}


def _word(value) -> str:
    return repr(float(value))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["band", "map", "winding", "invariant", "symmetry", "edge",
                                    "evolve", "sweep"]))
    argv = [command]
    ring = None
    if command in ("edge", "evolve"):
        for flag, side in zip(("--theta1", "--theta2"), wall_sides):
            argv += [flag, _word(draw(st.one_of(side, side, angles)))]
        ring = draw(st.sampled_from([256, 64, 512, 16, 4, 65, 2]))
    elif command == "invariant":
        form = draw(st.sampled_from([("--theta1", "--theta2"), ("--theta",), ("--theta1",)]))
        for flag in form:
            argv += [flag, _word(draw(angles))]
    elif command == "sweep":
        lo = draw(st.one_of(st.floats(-7.0, 7.0), st.sampled_from([-PI, -1e-13, 0.0])))
        span = draw(st.sampled_from([PI, 0.3, 6.0, 0.0, 1e-12]))
        argv += ["--theta-min", _word(lo), "--theta-max", _word(lo + span),
                 "--theta-step", _word(draw(st.sampled_from([0.05, 1e-3, 0.5, 10.0])))]
    else:
        argv += ["--theta", _word(draw(angles))]
    if command == "symmetry":
        ring = draw(st.sampled_from([8, 16, 4, 6, 10, 12, 2, 3]))
        # alpha on a lattice momentum of the ring keeps PHS on its domain
        alpha = draw(st.one_of(family_angles,
                               st.integers(-3, 3).map(lambda j: 2 * PI * j / ring)))
    else:
        alpha = draw(family_angles)
    argv += ["--delta", _word(draw(family_angles)), "--alpha", _word(alpha),
             "--beta", _word(draw(family_angles))]
    if command in ("band", "map", "sweep"):
        argv += ["--grid", str(draw(grids))]
    if command == "map":
        argv += ["--frame", draw(st.sampled_from(["identity", "v1", "v2"]))]
    if command == "evolve":
        argv += ["--case", draw(st.sampled_from(["orthogonal-to-both", "overlap-one",
                                                 "overlap-both"])),
                 "--steps", str(draw(st.sampled_from([120, 60, 20, 1, 0])))]
    if ring is not None:
        argv += ["--ring-size", str(ring)]
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if draw(st.booleans()):
        argv += ["--degrees"]
    return argv


def _refuse(name):
    raise AssertionError(f"{name} in JSON output")


def _run(argv, out):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([*argv, "--out", out])
        except SystemExit as exc:  # argparse refuses with exit 2
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


# Known classes, run on every draw: gapless JSON tables, walls that pass,
# relations just off their domains, windings near a closing, non-finite input.
EXAMPLES = [
    "band --theta 0 --grid 8 --format json",
    "sweep --theta-min -3.141592653589793 --theta-max 3.141592653589793 --theta-step 0.5 "
    "--format json",
    "map --theta -1e-7 --frame v2 --grid 17 --format json",
    "winding --theta 1e-7",
    "winding --theta 3.14159",
    "invariant --theta1 -1e-13 --theta2 6.283185307179586",
    "symmetry --theta 0.5 --alpha 1e-12 --ring-size 8",
    "symmetry --theta 0.5 --beta 5e-13 --ring-size 16",
    "symmetry --theta 1.5707963267948966 --ring-size 8",
    "symmetry --theta 3.141592653588793 --alpha 0.7853981633974483 --ring-size 8",
    "edge --theta1 -2.5 --theta2 0.9 --alpha 0.2 --ring-size 64 --format json",
    "evolve --theta1 -0.7854 --theta2 0.7854 --case overlap-one --steps 60 --ring-size 256 "
    "--format json",
    "evolve --theta1 -1.5 --theta2 1.5 --beta 1.5708 --case overlap-both --steps 120 "
    "--ring-size 512",
    "evolve --theta1 -0.7854 --theta2 0.7854 --case orthogonal-to-both --steps 0",
    "band --theta nan --grid 16",
    "winding --theta 0.5 --alpha 1e-13",
    "winding --theta 0.5 --beta -4e-14",
    "symmetry --theta 0.5 --beta 1e-13 --ring-size 16",
]


def _with_examples(test):
    for line in reversed(EXAMPLES):
        test = example(line.split())(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@_with_examples
@given(argvs())
def test_every_command_exits_0_2_or_3_and_writes_valid_json(argv):
    with tempfile.TemporaryDirectory() as out:
        code, stdout, stderr = _run(argv, out)
        assert code in (0, 2, 3), (argv, code, stderr)
        for name in os.listdir(out):
            if name.endswith(".json"):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    json.load(fh, parse_constant=_refuse)
    if code == 0 and argv[0] in PRINTS_JSON:
        json.loads(stdout, parse_constant=_refuse)
    if code == 3:  # a contract error or a failed relation names its value and tolerance
        assert re.search(r"(NumericalContractError: |FAILED).*\d.*tolerance \S*\d", stdout + stderr,
                         re.S), (argv, stdout, stderr)
    if code == 2:
        assert stderr.strip(), argv
        # every drawn flag exists, so a draw reaches its command's own checks
        assert "unrecognized arguments" not in stderr, (argv, stderr)
    if argv[0] == "symmetry":
        assert "FAILED" not in stdout, (argv, stdout)


def test_domain_tol_boundary_examples():
    # DOMAIN_TOL = 5e-14: alpha = 1e-13 is off the fixed frames, beta = -4e-14
    # on them, and beta = 1e-13 is off the chiral domain
    with tempfile.TemporaryDirectory() as out:
        code, stdout, _ = _run("winding --theta 0.5 --alpha 1e-13".split(), out)
        assert code == 0
        result = json.loads(stdout)
        assert [result["rotated_v1_about_x"], result["rotated_v2_about_z"]] == [None, None]

        code, stdout, _ = _run("winding --theta 0.5 --beta -4e-14".split(), out)
        assert code == 0
        result = json.loads(stdout)
        assert [result["rotated_v1_about_x"], result["rotated_v2_about_z"]] == [-1, 1]

        code, stdout, _ = _run("symmetry --theta 0.5 --beta 1e-13 --ring-size 16".split(), out)
        assert code == 0
        names = [line.split(":")[0] for line in stdout.splitlines()]
        assert names == ["SUB", "PHS", "PS"]
