"""The tolerance policy: every "is this zero" test of the library reads a named
constant, and the symmetry suite omits exactly what the relations' own
functions refuse.

``GAP_EPS`` decides the gap and the sign of theta; ``DOMAIN_TOL`` decides
whether alpha N (modulo 2 pi), eta's distance from 0 or pi, or a family
difference counts as zero.  A bare small literal in a comparison or a
default would be a third threshold, so the source is searched for one.  The
suite's domains are then drawn with alpha and beta near zero (0, 4e-14,
5e-14, 1e-13, ...), so alpha N falls on both sides of DOMAIN_TOL, and across
the theta guard (1e-13, 1e-12, 2e-12), with the lattice momenta 2 pi m / N,
exactly and 1e-13 off them.
"""

import ast
import math
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtqw.core import CoinParams, phs_operator
from dtqw.errors import ValidationError
from dtqw.symmetry import chiral_residual, run_symmetry_suite, timeshift_walk
from dtqw.topology import FrameVariant

SRC = Path(__file__).resolve().parents[1] / "src" / "dtqw"


def _small_float(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-6)


def _bare_thresholds(tree):
    """Small float literals that are a comparison operand or a parameter default."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            operands = [*node.args.defaults, *node.args.kw_defaults]
        else:
            continue
        yield from (op for op in operands if op is not None and _small_float(op))


def test_every_zero_test_reads_a_named_tolerance():
    # named constants, arithmetic such as the sweep's count slack, docstrings
    # and comments pass; `abs(x) < 1e-12` or `tol=1e-9` does not
    hits = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
            for node in _bare_thresholds(ast.parse(path.read_text(encoding="utf-8")))]
    assert hits == []


def test_the_guard_sees_comparisons_and_defaults():
    tree = ast.parse("def f(x, tol=1e-9, *, eps=-1e-12):\n"
                     "    return abs(x) < 1e-12 or 2e-13 >= x or x < TOL\n"
                     "SLACK = 1e-9\n"
                     "span = x / 2 + 1e-9\n")
    assert sorted(node.lineno for node in _bare_thresholds(tree)) == [1, 1, 2, 2]


def _accepts(call) -> bool:
    try:
        call()
    except ValidationError:
        return False
    return True


SMALL = [0.0, 4e-14, -4e-14, 5e-14, -5e-14, 1e-13, -1e-13, 1e-12, -1e-12, 1e-10, -1e-10]


@st.composite
def suite_cases(draw):
    n = draw(st.sampled_from([8, 16, 64]))
    lattice_momenta = st.builds(lambda m, off: 2 * math.pi * m / n + off,
                                st.integers(-n // 2, n // 2), st.sampled_from([0.0, 1e-13, -1e-13]))
    alpha, beta = (draw(st.one_of(st.sampled_from(SMALL), lattice_momenta)) for _ in range(2))
    if draw(st.booleans()):  # gapped: the PHS and CS rows
        theta = draw(st.floats(0.1, math.pi - 0.1)) * draw(st.sampled_from([1.0, -1.0]))
    else:  # across the time shifts' theta guard
        theta = draw(st.sampled_from([1e-13, -1e-13, 1e-12, -1e-12, 2e-12, -2e-12]))
    return CoinParams(draw(st.sampled_from([0.0, 0.3, -1.1])), alpha, beta, theta), n


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(case=(CoinParams(0.0, 0.0, 1e-13, 0.5), 8))  # CS: reported, as at any beta
@example(case=(CoinParams(0.0, 0.0, 0.0, 1e-12), 8))  # time shifts: the theta guard
@example(case=(CoinParams(0.0, 1e-13, 0.0, 0.5), 16))  # PHS: alpha N = 1.6e-12 off
@given(case=suite_cases())
def test_suite_omits_exactly_what_the_functions_refuse(case):
    p, n = case
    reports = {r.name: r for r in run_symmetry_suite(p, n_sites=n)}
    assert ("PHS" in reports) == _accepts(lambda: phs_operator(p.alpha, p.beta)
                                          .check_commensurate(n))
    assert ("CS" in reports) == _accepts(lambda: chiral_residual(p, 0.4))
    assert ("TimeShiftV1" in reports) == _accepts(lambda: timeshift_walk(p, FrameVariant.V1, n))
    assert ("TimeShiftV2" in reports) == ("TimeShiftV1" in reports)
    assert all(r.passed for r in reports.values()), [(r.name, r.residual) for r in
                                                     reports.values()]
