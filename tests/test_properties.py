"""Property tests of the Bloch map and the invariant over the whole gapped
domain, down to |theta| = 1e-10 from either gap closing, of the frame
identities of the time-shifted walks, and of angle wrapping.

The closed-form windings and poles of ``dtqw.topology`` are checked against
the numeric oracle: the winding of the sampled image curve, accumulated with
np.unwrap, and the Bloch vector at the special momenta.  The gap report's
closed form is checked against the min and max of the sampled dispersion,
and against the one gap threshold within 1e-6 of either closing."""

import math

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqw.core import GAP_EPS, ID2, CoinParams, coin_matrix, pauli_compose, wrap_angle, wrap_angles
from dtqw.lattice import build_walk
from dtqw.momentum import (band_structure, band_table, bloch_hamiltonian, bloch_vector,
                           bloch_vectors, dispersion, gap_report, k_grid,
                           momentum_step_matrix, special_points)
from dtqw.symmetry import chiral_residual, frame_conjugated_walk, timeshift_walk
from dtqw.topology import (FrameVariant, bz_image_table, classify_sweep, frame_rotation,
                           frame_so3, invariant_json_dict, pole_assignment,
                           rel_homotopy_invariant, rotated_winding, winding_mt)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

angles = st.floats(-math.pi, math.pi)
thetas = st.builds(lambda mag, sign: sign * mag,
                   st.floats(1e-10, math.pi - 1e-10), st.sampled_from([-1.0, 1.0]))
# the edges of the gapped domain and the flat-band point, plus the rest of it
oracle_thetas = st.one_of(
    st.sampled_from([s * t for t in (1e-10, math.pi / 2, math.pi - 1e-10) for s in (1, -1)]),
    thetas)
grids = st.sampled_from([8, 16, 512])
# even grids, among them 22 and 26, whose offsets -pi + 2 pi j / G miss 0 and pi by a rounding
even_grids = st.sampled_from([8, 16, 22, 26, 64, 100, 512])

# the gap closings, their subnormal and rounding-level neighbours, the flat band
gap_thetas = st.one_of(
    st.sampled_from([0.0, math.pi] + [s * t for t in (5e-324, 1e-16, 1e-8, math.pi / 2,
                                                       math.pi - 1e-12) for s in (1, -1)]),
    st.floats(-math.pi, math.pi))
# grids odd and even, a k-point on alpha + pi or not
gap_grids = st.sampled_from([8, 9, 16, 17, 63, 64, 100, 257, 512, 1024])
# alpha on a multiple of pi/4 puts grid points on (or symmetric about) k = alpha
gap_alphas = st.one_of(st.sampled_from([j * math.pi / 4 for j in range(-4, 5)]), angles)


def _neighbours(x: float, count: int) -> list[float]:
    """x and the count floats next to it on either side (np.nextafter steps)."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(count):
            y = float(np.nextafter(y, toward))
            out.append(y)
    return out


# within 1e-6 of a closing; |sin theta| = GAP_EPS lies a few steps off pi - GAP_EPS
near_closing_thetas = st.one_of(
    st.sampled_from([s * t for t in _neighbours(GAP_EPS, 4) + _neighbours(math.pi - GAP_EPS, 8)
                     for s in (1, -1)]),
    st.builds(lambda c, d: c + d, st.sampled_from([0.0, math.pi, -math.pi]),
              st.floats(-1e-6, 1e-6)))


def _curve_winding(u: np.ndarray, w: np.ndarray) -> int:
    """Turns about the origin of the closed curve with in-plane coordinates
    (u, w), counterclockwise positive, from its angles accumulated by np.unwrap."""
    closed = np.unwrap(np.arctan2(np.append(w, w[0]), np.append(u, u[0])))
    assert np.max(np.abs(np.diff(closed))) < math.pi - 0.1  # the grid resolves each turn
    return int(round((closed[-1] - closed[0]) / (2 * math.pi)))


def _pole_frame(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n_beta = (sin beta, cos beta, 0) and e_w = Z x n_beta, as the
    ``dtqw.topology`` docstring defines them."""
    n_beta = np.array([math.sin(beta), math.cos(beta), 0.0])
    return n_beta, np.cross([0.0, 0.0, 1.0], n_beta)


@PROPERTY_SETTINGS
@given(angles, angles, angles, thetas, angles)
def test_bloch_vector_has_unit_length(delta, alpha, beta, theta, k):
    n = bloch_vector(CoinParams(delta, alpha, beta, theta), k)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-12


@PROPERTY_SETTINGS
@given(angles, angles, angles, thetas, angles)
def test_bloch_vector_is_odd_under_k_plus_pi(delta, alpha, beta, theta, k):
    p = CoinParams(delta, alpha, beta, theta)
    n = bloch_vector(p, k)
    n_anti = bloch_vector(p, wrap_angle(k + math.pi))
    # Rounding k + pi moves the momentum by a few 1e-16, and n turns at a rate
    # of up to 1/sin(omega_k) per unit k (fast near k = alpha at tiny theta).
    sin_w = bloch_vectors(p, [k])[1][0]
    assert np.max(np.abs(n_anti + n)) < 1e-12 + 1e-14 / sin_w


@PROPERTY_SETTINGS
@given(angles, angles, angles, thetas, angles)
def test_bloch_hamiltonian_generates_the_step(delta, alpha, beta, theta, k):
    p = CoinParams(delta, alpha, beta, theta)
    u = scipy.linalg.expm(-1j * bloch_hamiltonian(p, k))
    assert np.max(np.abs(u - momentum_step_matrix(p, k))) < 1e-12


@PROPERTY_SETTINGS
@given(angles, angles, angles, oracle_thetas, angles)
def test_bloch_hamiltonian_is_dispersion_times_bloch_vector_bit_for_bit(delta, alpha, beta,
                                                                        theta, k):
    # one omega formula: H_k's omega_k and n_k are dispersion's and bloch_vector's
    p = CoinParams(delta, alpha, beta, theta)
    expected = p.delta * ID2 + dispersion(p, k) * pauli_compose(0, bloch_vector(p, k))
    assert np.array_equal(bloch_hamiltonian(p, k), expected)


@PROPERTY_SETTINGS
@given(angles, angles, angles, thetas)
def test_phase_label_and_k1_pole_follow_the_sign_of_theta(delta, alpha, beta, theta):
    d = invariant_json_dict(rel_homotopy_invariant(CoinParams(delta, alpha, beta, theta)))
    positive = theta > 0
    assert d["phase_label"] == ("ThetaPositive" if positive else "ThetaNegative")
    assert d["pole_k1"] == ("N" if positive else "S")
    assert d["pole_k0"] == ("S" if positive else "N")


@PROPERTY_SETTINGS
@given(st.floats(-math.pi, math.pi, exclude_min=True))
def test_wrap_angle_is_the_identity_on_its_interval(x):
    assert wrap_angle(x) == x


def test_wrap_angle_maps_minus_pi_to_pi():
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angles(np.array([-math.pi]))[0] == math.pi


@PROPERTY_SETTINGS
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_wrap_angles_equals_wrap_angle_bit_for_bit(xs):
    scalar = np.array([wrap_angle(x) for x in xs])
    array = wrap_angles(np.array(xs))
    assert array.tobytes() == scalar.tobytes()
    assert np.all((array > -math.pi) & (array <= math.pi))


@PROPERTY_SETTINGS
@given(angles, angles, angles, thetas)
def test_every_coin_is_the_real_coin_moved_by_the_gauge(delta, alpha, beta, theta):
    # C(delta, alpha, beta, theta) = e^{-i delta} D_alpha G_beta R_theta G_beta^dagger
    d_alpha = np.diag(np.exp([1j * alpha, -1j * alpha]))
    g_beta = np.diag(np.exp([0.5j * beta, -0.5j * beta]))
    real = coin_matrix(CoinParams(0.0, 0.0, 0.0, theta))
    moved = np.exp(-1j * delta) * d_alpha @ g_beta @ real @ g_beta.conj().T
    assert np.max(np.abs(coin_matrix(CoinParams(delta, alpha, beta, theta)) - moved)) < 1e-14


@PROPERTY_SETTINGS
@given(angles, angles, angles, thetas, st.sampled_from([8, 12, 16, 30]))
def test_timeshift_walks_are_frame_conjugations(delta, alpha, beta, theta, n):
    # Both time-shifted products are V' U V'^dagger, V' the frame rotation moved
    # by the gauge, for any alpha (a lattice momentum of the ring or not) and
    # beta; frame_conjugated_walk conjugates the plain walk site by site.
    p = CoinParams(delta, alpha, beta, theta)
    plain = build_walk(p, n_sites=n).dense()
    for variant in (FrameVariant.V1, FrameVariant.V2):
        v = np.kron(np.eye(n), frame_rotation(variant, p.theta, p.beta))
        u = timeshift_walk(p, variant, n).dense()
        assert np.max(np.abs(u - v @ plain @ v.conj().T)) < 1e-14
        assert np.max(np.abs(u - frame_conjugated_walk(p, variant, n).dense())) < 1e-14


@PROPERTY_SETTINGS
@given(angles, angles, angles, thetas, angles)
def test_the_gauge_moved_chiral_operator_holds_for_every_coin(delta, alpha, beta, theta, k):
    assert chiral_residual(CoinParams(delta, alpha, beta, theta), k) < 1e-12


@PROPERTY_SETTINGS
@given(angles, angles, angles, oracle_thetas, grids)
def test_closed_form_windings_and_poles_match_the_curve_oracle(delta, alpha, beta, theta, grid):
    p = CoinParams(delta, alpha, beta, theta)
    n_beta, e_w = _pole_frame(p.beta)
    n, _, degenerate = bloch_vectors(p, k_grid(grid))
    assert not degenerate.any()
    for band in (+1, -1):  # the band -1 image is -n; one closed form serves both
        assert winding_mt(p) == _curve_winding(band * n @ n_beta, band * n @ e_w)
    # The rounded special momenta sit a few 1e-16 off, and n turns at up to
    # 1/|sin theta| per unit k there.
    poles = pole_assignment(p)
    for pole, k in zip((poles.at_k0, poles.at_k1), special_points(p.alpha)):
        miss = np.max(np.abs(bloch_vector(p, k) - pole * n_beta))
        assert miss < 1e-12 + 1e-14 / abs(math.sin(p.theta))


@PROPERTY_SETTINGS
@given(angles, angles, angles, oracle_thetas, grids)
def test_closed_form_frame_windings_match_the_curve_oracle(delta, alpha, beta, theta, grid):
    p = CoinParams(delta, alpha, beta, theta)
    # At alpha = beta = 0, V1 turns in the (Y, Z) plane about X and V2 in the
    # (X, Y) plane about Z; the gauge turns X and Y by R_z(-beta), and alpha
    # only shifts k.  The map's grid is anchored at alpha, so near a gap
    # closing its rows resolve the fast turns at the special momenta.
    x, y = (np.array([math.cos(p.beta), -math.sin(p.beta), 0.0]),
            np.array([math.sin(p.beta), math.cos(p.beta), 0.0]))
    z = np.array([0.0, 0.0, 1.0])
    for variant, (axis, u, w) in ((FrameVariant.V1, (x, y, z)), (FrameVariant.V2, (z, x, y))):
        curve = np.column_stack(bz_image_table(p, variant, grid).columns[1:4])
        assert np.max(np.abs(curve @ axis)) < 1e-14  # the map's curve stays in its plane
        assert rotated_winding(p, variant) == _curve_winding(curve @ u, curve @ w)


@PROPERTY_SETTINGS
@given(angles, angles, angles, oracle_thetas, even_grids)
def test_band_and_map_rows_at_the_special_momenta_hold_the_poles(delta, alpha, beta, theta,
                                                                 grid):
    # Both special momenta are rows of every band and map, exactly.  The row
    # at alpha holds its pole to a few roundings.  The row at alpha + pi has
    # k - alpha a few 1e-16 off pi, and n_z = cos theta sin(k - alpha) / sin omega
    # turns at |cot theta| per unit k there.
    p = CoinParams(delta, alpha, beta, theta)
    n_beta, _ = _pole_frame(p.beta)
    poles = pole_assignment(p)
    band = band_table(band_structure(p, grid))
    curves = [(band.columns[0], band.columns[3:6], np.eye(3))]
    for variant in FrameVariant:
        image = bz_image_table(p, variant, grid)
        curves.append((image.columns[0], image.columns[1:4],
                       frame_so3(variant, p.theta, p.beta)))
    for ks, columns, rot in curves:
        assert np.array_equal(ks, np.sort(ks))
        curve = np.column_stack(columns)
        for pole, k, tol in zip((poles.at_k0, poles.at_k1), special_points(p.alpha),
                                (1e-15, 1e-15 * (1.0 + abs(1.0 / math.tan(p.theta))))):
            (row,) = np.flatnonzero(ks == k)
            assert np.max(np.abs(curve[row] - rot @ (pole * n_beta))) <= tol


def _on_grid(alpha: float, grid: int) -> bool:
    """Whether alpha and alpha + pi are points of the grid, to rounding."""
    ks = k_grid(grid)
    return all(np.min(np.abs(wrap_angles(ks - a))) < 1e-15 for a in (alpha, alpha + math.pi))


@PROPERTY_SETTINGS
@given(gap_alphas, angles, st.lists(gap_thetas, min_size=1, max_size=20), gap_grids)
def test_gap_report_equals_the_extremes_of_the_sampled_band(alpha, beta, block, grid):
    # The sampled band's gaps are never below the closed form, and equal it
    # when the special momenta are grid points; both up to 1e-15.
    family = CoinParams(0.3, alpha, beta, 0.0)
    on_grid = _on_grid(family.alpha, grid)
    g_block = gap_report(band_structure(family, grid, block))
    for i, theta in enumerate(block):
        p = family.with_theta(theta)
        omega = dispersion(p, k_grid(grid))
        g = gap_report(band_structure(p, grid))
        closed = (g.gap_at_delta, g.gap_at_delta_plus_pi)
        assert closed == (g_block.gap_at_delta[i], g_block.gap_at_delta_plus_pi[i])
        for gap, sampled in zip(closed, (2.0 * np.min(omega), 2.0 * (np.pi - np.max(omega)))):
            assert gap <= sampled + 1e-15
            if on_grid:
                assert abs(gap - sampled) <= 1e-15


@PROPERTY_SETTINGS
@given(angles, angles, angles, st.lists(near_closing_thetas, min_size=1, max_size=20),
       gap_grids)
def test_gaps_near_a_closing_agree_with_the_gap_threshold(delta, alpha, beta, block, grid):
    # gapped iff |sin theta| > GAP_EPS iff both gaps exceed 2 GAP_EPS, up to
    # the one rounding of sin theta near pi (pi - theta is off by about 1.2e-16)
    def agrees(gap, is_gapped):
        return gap > 2 * GAP_EPS - 4e-16 if is_gapped else gap <= 2 * GAP_EPS + 4e-16

    sweep = classify_sweep(CoinParams(delta, alpha, beta, 0.0), block, grid)
    for i, theta in enumerate(block):
        p = CoinParams(delta, alpha, beta, theta)
        g = gap_report(band_structure(p, grid))
        assert g.is_gapped == p.is_gapped == sweep.gapped[i]
        for gap in (g.gap_at_delta, g.gap_at_delta_plus_pi, sweep.gap_at_delta[i],
                    sweep.gap_at_delta_plus_pi[i]):
            assert agrees(gap, g.is_gapped), (theta, gap)
