"""Property tests of the Bloch map and the invariant over the whole gapped
domain, down to |theta| = 1e-10 from either gap closing, of the frame
identities of the time-shifted walks, and of angle wrapping.

The closed-form windings and poles of ``dtqw.topology`` are checked against
the numeric oracle: the winding of the sampled image curve, accumulated with
np.unwrap, and the Bloch vector at the special momenta.  The gap report,
which reads the band's extremes without sampling it, is checked against the
min and max of the sampled dispersion."""

import math

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqw.core import CoinParams, wrap_angle, wrap_angles
from dtqw.momentum import (_omega, band_structure, bloch_hamiltonian, bloch_vector,
                           bloch_vectors, gap_report, k_grid, momentum_step_matrix,
                           special_points)
from dtqw.symmetry import frame_conjugated_walk, timeshift_walk
from dtqw.topology import (FrameVariant, bz_image_table, invariant_json_dict, manifold_frame,
                           pole_assignment, rel_homotopy_invariant, rotated_winding,
                           winding_mt)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

angles = st.floats(-math.pi, math.pi)
thetas = st.builds(lambda mag, sign: sign * mag,
                   st.floats(1e-10, math.pi - 1e-10), st.sampled_from([-1.0, 1.0]))
# the edges of the gapped domain and the flat-band point, plus the rest of it
oracle_thetas = st.one_of(
    st.sampled_from([s * t for t in (1e-10, math.pi / 2, math.pi - 1e-10) for s in (1, -1)]),
    thetas)
grids = st.sampled_from([8, 16, 512])

# the gap closings, their subnormal and rounding-level neighbours, the flat band
gap_thetas = st.one_of(
    st.sampled_from([0.0, math.pi] + [s * t for t in (5e-324, 1e-16, 1e-8, math.pi / 2,
                                                       math.pi - 1e-12) for s in (1, -1)]),
    st.floats(-math.pi, math.pi))
# grids odd and even, a k-point on alpha + pi or not
gap_grids = st.sampled_from([8, 9, 16, 17, 63, 64, 100, 257, 512, 1024])
# alpha on a multiple of pi/4 puts grid points on (or symmetric about) k = alpha
gap_alphas = st.one_of(st.sampled_from([j * math.pi / 4 for j in range(-4, 5)]), angles)


def _curve_winding(u: np.ndarray, w: np.ndarray) -> int:
    """Turns about the origin of the closed curve with in-plane coordinates
    (u, w), counterclockwise positive, from its angles accumulated by np.unwrap."""
    closed = np.unwrap(np.arctan2(np.append(w, w[0]), np.append(u, u[0])))
    assert np.max(np.abs(np.diff(closed))) < math.pi - 0.1  # the grid resolves each turn
    return int(round((closed[-1] - closed[0]) / (2 * math.pi)))


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
@given(angles, thetas)
def test_timeshift_walks_are_frame_conjugations(delta, theta):
    # Both time-shifted products are V U V^dagger by construction, V the frame
    # rotation; frame_conjugated_walk conjugates the plain walk site by site.
    p = CoinParams(delta, 0.0, 0.0, theta)
    for variant in (FrameVariant.V1, FrameVariant.V2):
        u = timeshift_walk(p, variant, 8).dense()
        assert np.max(np.abs(u - frame_conjugated_walk(p, variant, 8))) < 1e-14


@PROPERTY_SETTINGS
@given(angles, angles, angles, oracle_thetas, grids)
def test_closed_form_windings_and_poles_match_the_curve_oracle(delta, alpha, beta, theta, grid):
    p = CoinParams(delta, alpha, beta, theta)
    f = manifold_frame(p.beta)
    n, _, degenerate = bloch_vectors(p, k_grid(grid))
    assert not degenerate.any()
    for band in (+1, -1):  # the band -1 image is -n; one closed form serves both
        assert winding_mt(p) == _curve_winding(band * n @ f.n_beta, band * n @ f.e_w)
    # The rounded special momenta sit a few 1e-16 off, and n turns at up to
    # 1/|sin theta| per unit k there.
    poles = pole_assignment(p)
    for pole, k in zip((poles.at_k0, poles.at_k1), special_points(p.alpha)):
        miss = np.max(np.abs(bloch_vector(p, k) - pole * f.n_beta))
        assert miss < 1e-12 + 1e-14 / abs(math.sin(p.theta))


@PROPERTY_SETTINGS
@given(angles, oracle_thetas, grids)
def test_closed_form_frame_windings_match_the_curve_oracle(delta, theta, grid):
    p = CoinParams(delta, 0.0, 0.0, theta)
    # V1 turns in the (Y, Z) plane about X, V2 in the (X, Y) plane about Z
    for variant, (u, w) in ((FrameVariant.V1, (1, 2)), (FrameVariant.V2, (0, 1))):
        curve = np.array([row[1:4] for row in bz_image_table(p, variant, grid)])
        assert rotated_winding(p, variant) == _curve_winding(curve[:, u], curve[:, w])


@PROPERTY_SETTINGS
@given(gap_alphas, angles, st.lists(gap_thetas, min_size=1, max_size=20), gap_grids)
def test_gap_report_equals_the_extremes_of_the_sampled_band(alpha, beta, block, grid):
    family = CoinParams(0.3, alpha, beta, 0.0)
    cos_a = np.cos(k_grid(grid) - family.alpha)
    omega = _omega(np.array(block)[:, None], cos_a)
    g = gap_report(band_structure(family, grid, block))
    assert np.array_equal(g.gap_at_delta, 2.0 * np.min(omega, axis=-1))
    assert np.array_equal(g.gap_at_delta_plus_pi, 2.0 * (np.pi - np.max(omega, axis=-1)))
    for theta in block:
        p = family.with_theta(theta)
        omega = _omega(p.theta, cos_a)
        g = gap_report(band_structure(p, grid))
        assert g.gap_at_delta == 2.0 * np.min(omega)
        assert g.gap_at_delta_plus_pi == 2.0 * (np.pi - np.max(omega))
