"""The sweep kernel against a slow per-theta reference.

The reference takes each Bloch vector from the Pauli decomposition of the
momentum step matrix, not from the kernel's closed form, accumulates the
winding with np.unwrap, and reads the gap columns from the min and max of
the dispersion sampled on the k-grid.  Rows are compared cell for cell as
the CSV writer formats them, except the gaps: the kernel's closed form is at
most the sampled gap, and equal to it when alpha and alpha + pi are grid
points, both up to 1e-15.
"""

import math
import tracemalloc

import numpy as np
import pytest

from dtqw.cli import SWEEP_CSV_HEADER, _sweep_row, main
from dtqw.core import CoinParams, pauli_decompose, wrap_angles
from dtqw.momentum import dispersion, k_grid, momentum_step_matrix, special_points
from dtqw.topology import classify_sweep, manifold_frame

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
    sweep = classify_sweep(CoinParams(delta, alpha, beta, 0.0), thetas, GRID)
    assert len(sweep.theta) == len(thetas)
    for i, theta in enumerate(thetas):
        _assert_row_matches(_cells(_sweep_row(sweep, i)), CoinParams(delta, alpha, beta, theta),
                            GRID)


def test_kernel_matches_reference_on_the_cli_sweep(tmp_path):
    # the same rows reach sweep.csv; theta crosses zero, count is not a block multiple
    assert main(["sweep", "--theta-min", "-1", "--theta-max", "1", "--theta-step", "0.05",
                 "--alpha", "0.4", "--beta", "-1.3", "--delta", "2.0", "--grid", str(GRID),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_HEADER)
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
