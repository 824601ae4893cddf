"""The sweep kernel against a slow per-theta reference, and its table against
the per-theta rows the CLI once wrote.

The reference takes each Bloch vector from the Pauli decomposition of the
momentum step matrix, not from the kernel's closed form, accumulates the
winding with np.unwrap, and reads the gap columns from the min and max of
the dispersion sampled on the k-grid.  Rows are compared cell for cell as
the CSV writer formats them, except the gaps: the kernel's closed form is at
most the sampled gap, and equal to it when alpha and alpha + pi are grid
points, both up to 1e-15.
"""

import csv
import io as _stdio
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtqw import io
from dtqw.cli import main
from dtqw.core import CoinParams, pauli_decompose, wrap_angles
from dtqw.momentum import dispersion, k_grid, momentum_step_matrix, special_points
from dtqw.topology import (
    PhaseLabel,
    classify_sweep,
    manifold_frame,
    pole_letter,
    sweep_table,
)

GRID = 64


def _pauli_bloch_vector(p: CoinParams, k: float) -> np.ndarray:
    # U_k = exp(-i delta) (cos w I - i sin w n . sigma), so i exp(i delta) c = sin w n
    _, c = pauli_decompose(momentum_step_matrix(p, k))
    v = (1j * np.exp(1j * p.delta) * c).real
    return v / np.linalg.norm(v)


def _reference_row(p: CoinParams, grid: int) -> list:
    omega = dispersion(p, k_grid(grid))
    row = [p.theta, 2.0 * np.min(omega), 2.0 * (np.pi - np.max(omega))]
    if not p.is_gapped:
        return row + ["", "", "", "Gapless"]
    f = manifold_frame(p.beta)
    curve = np.array([_pauli_bloch_vector(p, k) for k in k_grid(grid)])
    phis = np.arctan2(curve @ f.e_w, curve @ f.n_beta)
    closed = np.unwrap(np.append(phis, phis[0]))
    winding = int(round((closed[-1] - closed[0]) / (2 * math.pi)))
    k0, k1 = special_points(p.alpha)
    poles = ["N" if _pauli_bloch_vector(p, k) @ f.n_beta > 0 else "S" for k in (k0, k1)]
    label = "ThetaPositive" if poles[1] == "N" else "ThetaNegative"
    return row + [winding, poles[0], poles[1], label]


def _cells(row: list) -> list[str]:
    """The CSV text of each cell: repr of the float value, str otherwise."""
    return [repr(float(x)) if isinstance(x, float) else str(x) for x in row]


def _on_grid(alpha: float, grid: int) -> bool:
    """Whether alpha and alpha + pi are points of the grid, to rounding."""
    ks = k_grid(grid)
    return all(np.min(np.abs(wrap_angles(ks - a))) < 1e-15 for a in (alpha, alpha + math.pi))


def _assert_row_matches(cells: list[str], p: CoinParams, grid: int) -> None:
    expected = _reference_row(p, grid)
    want = _cells(expected)
    assert (cells[0], cells[3:]) == (want[0], want[3:]), f"theta = {p.theta}"
    for cell, sampled in zip(cells[1:3], expected[1:3]):
        assert float(cell) <= sampled + 1e-15, f"theta = {p.theta}"
        if _on_grid(p.alpha, grid):
            assert abs(float(cell) - sampled) <= 1e-15, f"theta = {p.theta}"


def _families(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(-math.pi, math.pi, 3)) for _ in range(count)]


# two random families, and one whose alpha = pi/4 puts both special momenta on the grid
FAMILIES = _families(5, 2) + [(0.9, math.pi / 4, -2.0)]


# the set names keep the sizes of a former 32-theta block loop
THETA_SETS = {
    "single": [0.7],
    "block_plus_5": list(np.linspace(-3.0, 3.0, 37)),
    "two_blocks_plus_1": list(np.linspace(0.05, 3.1, 65)),
    "across_zero": [-0.5 + 0.1 * i for i in range(11)],
    "gap_closings": [-math.pi, -1e-4, 0.0, 1e-4, math.pi],
}


@pytest.mark.parametrize("name", sorted(THETA_SETS))
@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_rows_match_slow_reference(name, family):
    thetas = THETA_SETS[name]
    delta, alpha, beta = family
    assert _on_grid(alpha, GRID) == (alpha == math.pi / 4)
    table = sweep_table(classify_sweep(CoinParams(delta, alpha, beta, 0.0), thetas, GRID))
    assert len(table) == len(thetas)
    for i, theta in enumerate(thetas):
        row = [c[i].item() if isinstance(c[i], np.generic) else c[i] for c in table.columns]
        _assert_row_matches(_cells(row), CoinParams(delta, alpha, beta, theta), GRID)


def test_kernel_matches_reference_on_the_cli_sweep(tmp_path):
    # the same rows reach sweep.csv; theta crosses zero, count is not a block multiple
    assert main(["sweep", "--theta-min", "-1", "--theta-max", "1", "--theta-step", "0.05",
                 "--alpha", "0.4", "--beta", "-1.3", "--delta", "2.0", "--grid", str(GRID),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = sweep_table(classify_sweep(CoinParams(2.0, 0.4, -1.3, 0.0), [0.0], GRID)).header
    assert lines[0] == ",".join(header)
    assert len(lines) == 42
    for i, line in enumerate(lines[1:]):
        _assert_row_matches(line.split(","), CoinParams(2.0, 0.4, -1.3, -1 + i * 0.05), GRID)


def test_sweep_memory_is_linear_in_thetas_and_grid():
    # a (theta, k) pass over 10^5 thetas on a 4096-point grid would hold GBs
    thetas = np.linspace(-3.0, 3.0, 10**5)
    tracemalloc.start()
    try:
        sweep = classify_sweep(CoinParams(0.3, 0.7, -1.1, 0.0), thetas, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sweep.theta) == 10**5
    assert peak < 32 * 2**20


def _per_theta_row(sweep, i: int) -> list:
    """Row i as the CLI built it, one Python list per theta, before the sweep
    became a column table."""
    row = [float(sweep.theta[i]), float(sweep.gap_at_delta[i]),
           float(sweep.gap_at_delta_plus_pi[i])]
    if not sweep.gapped[i]:
        return row + ["", "", "", "Gapless"]
    at_k0, at_k1 = sweep.poles[i]
    return row + [int(sweep.winding[i]), pole_letter(at_k0), pole_letter(at_k1),
                  PhaseLabel.from_pole(at_k1).value]


# the gap closings 0 and +/-pi, and their gapless neighbours 1e-13 away
CLOSINGS = [0.0, -0.0, 1e-13, -1e-13, math.pi, -math.pi, math.pi - 1e-13,
            -math.pi + 1e-13, math.pi + 1e-13, -math.pi - 1e-13]
angles = st.floats(-math.pi, math.pi)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.sampled_from(CLOSINGS), st.floats(-4.0, 4.0)),
                min_size=1, max_size=12),
       st.tuples(angles, angles, angles), st.integers(1, 5))
@example(CLOSINGS, (0.3, -1.2, 2.0), 3)
def test_the_sweep_table_writes_what_its_per_theta_rows_write(tmp_path_factory, thetas, family,
                                                              block):
    sweep = classify_sweep(CoinParams(*family, 0.0), thetas, GRID)
    rows = [_per_theta_row(sweep, i) for i in range(len(thetas))]
    path = tmp_path_factory.mktemp("s")
    table = sweep_table(sweep)
    with mock.patch.object(io, "BLOCK_ROWS", block):  # row counts across the block size
        io.write_csv(path / "sweep.csv", table)
        io.write_json_table(path / "sweep.json", table)
    buf = _stdio.StringIO(newline="")
    csv.writer(buf).writerows([table.header] + rows)
    assert (path / "sweep.csv").read_bytes() == buf.getvalue().encode("utf-8")
    objects = [dict(zip(table.header, row)) for row in rows]
    assert (path / "sweep.json").read_bytes() == io.json_text(objects).encode("utf-8")


def test_a_cli_sweep_holds_no_row_lists(tmp_path):
    # 20001 thetas: per-theta row lists took 6.3 MiB here, the column table 2.2 MiB
    argv = ["sweep", "--theta-min", "-3", "--theta-max", "3", "--out", str(tmp_path),
            "--theta-step"]
    assert main(argv + ["1"]) == 0  # first calls allocate their caches untraced
    tracemalloc.start()
    try:
        assert main(argv + ["0.0003"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "sweep.csv").read_bytes().splitlines()) == 20002
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
