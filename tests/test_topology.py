import math

import numpy as np
import pytest

from dtqw.core import SIGMA_X, SIGMA_Y, SIGMA_Z, CoinParams
from dtqw.errors import ValidationError
from dtqw.momentum import bloch_vectors, k_grid
from dtqw.topology import (
    FrameVariant,
    PhaseLabel,
    bz_image_table,
    frame_angle,
    frame_rotation,
    frame_so3,
    invariant_json_dict,
    pole_assignment,
    predicted_edge_states,
    rel_homotopic,
    rel_homotopy_invariant,
    rotated_winding,
    winding_mt,
)

THETA_LADDER = [q * math.pi / 8 for q in (1, 2, 3, 4, 5, 6, 7)]


def _pole_frame(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n_beta = (sin beta, cos beta, 0) and e_w = Z x n_beta, as the
    ``dtqw.topology`` docstring defines them."""
    n_beta = np.array([math.sin(beta), math.cos(beta), 0.0])
    return n_beta, np.cross([0.0, 0.0, 1.0], n_beta)


def test_winding_mt_reference_case():
    # For (0, 0, 0, pi/4) the retraction angle, measured from n_beta towards
    # e_w, is k + pi exactly; the oracle below accumulates it with np.unwrap.
    p = CoinParams(0, 0, 0, math.pi / 4)
    n_beta, e_w = _pole_frame(0.0)
    ks = k_grid(512)
    phis = []
    from dtqw.momentum import bloch_vector

    for k in ks:
        n = bloch_vector(p, k)
        phi = math.atan2(n @ e_w, n @ n_beta)
        assert abs(math.remainder(phi - (k + math.pi), 2 * math.pi)) < 1e-12
        phis.append(phi)
    closed = np.unwrap(np.append(phis, phis[0]))
    assert round((closed[-1] - closed[0]) / (2 * math.pi)) == 1
    assert winding_mt(p) == 1


def test_winding_mt_same_for_both_signs_and_bands():
    # the lower band's image is -n, and its curve winds as the upper band's
    for p in (CoinParams(0, 0, 0, -math.pi / 4), CoinParams(0.3, 1.0, -0.4, 0.6)):
        n = bloch_vectors(p, k_grid(64))[0]
        n_beta, e_w = _pole_frame(p.beta)
        for band in (+1, -1):
            phis = np.arctan2(band * n @ e_w, band * n @ n_beta)
            closed = np.unwrap(np.append(phis, phis[0]))
            assert round((closed[-1] - closed[0]) / (2 * math.pi)) == winding_mt(p) == 1


def test_winding_mt_constant_over_theta_ladder():
    rng = np.random.default_rng(6)
    for _ in range(3):
        d, a, b = rng.uniform(-math.pi, math.pi, 3)
        values = {
            winding_mt(CoinParams(d, a, b, s * t))
            for t in THETA_LADDER
            for s in (+1, -1)
        }
        assert len(values) == 1


def test_winding_mt_rejects_gapless():
    with pytest.raises(ValidationError, match="gapless parameters: theta = 0.0 closes"):
        winding_mt(CoinParams(0, 0, 0, 0))
    with pytest.raises(ValidationError, match="gapless parameters: theta = 3.14159"):
        winding_mt(CoinParams(0, 0, 0, math.pi))


def test_winding_mt_takes_grid_size_by_keyword_only():
    # a stale positional call, such as the former winding_mt(p, band), fails
    # instead of returning 1
    p = CoinParams(0, 0, 0, 0.5)
    assert winding_mt(p, grid_size=16) == 1
    with pytest.raises(TypeError):
        winding_mt(p, 1)


def test_image_curve_stays_on_the_punctured_sphere():
    # The in-plane projection has length |sin theta| / sin omega_k, which stays
    # in [|sin theta|, 1]: the curve meets the excluded circle only at poles,
    # where the projection is full length.
    from dtqw.momentum import bloch_vectors

    rng = np.random.default_rng(13)
    for _ in range(10):
        d, a, b = rng.uniform(-math.pi, math.pi, 3)
        t = rng.uniform(0.1, math.pi - 0.1) * rng.choice([-1, 1])
        p = CoinParams(d, a, b, t)
        n_beta, e_w = _pole_frame(p.beta)
        n, _, _ = bloch_vectors(p, k_grid(256))
        proj = np.hypot(n @ n_beta, n @ e_w)
        assert np.min(proj) > abs(math.sin(t)) - 1e-12
        assert np.max(proj) < 1.0 + 1e-12


def test_frame_rotation_values():
    assert np.allclose(frame_rotation(FrameVariant.V1, 0.0), np.eye(2))
    assert np.allclose(frame_rotation(FrameVariant.V2, math.pi / 2), np.eye(2))
    sigma_y = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(frame_rotation(FrameVariant.V1, math.pi), 1j * sigma_y, atol=1e-15)
    assert np.allclose(frame_rotation(FrameVariant.IDENTITY, 1.2), np.eye(2))
    with pytest.raises(ValidationError, match=r"V2 frame depends on sgn\(theta\); undefined at"):
        frame_rotation(FrameVariant.V2, 0.0)


def test_frame_rotation_special_unitary():
    for t in np.linspace(-3, 3, 13):
        if abs(t) < 1e-9:
            continue
        for v in (FrameVariant.V1, FrameVariant.V2):
            m = frame_rotation(v, t)
            assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-14
            assert abs(np.linalg.det(m) - 1) < 1e-14


def test_frame_angles():
    assert frame_angle(FrameVariant.IDENTITY, 1.2) == 0.0
    assert frame_angle(FrameVariant.V1, 0.9) == 0.45
    assert frame_angle(FrameVariant.V2, math.pi / 2) == 0.0
    assert frame_angle(FrameVariant.V2, -0.5) == pytest.approx(-0.25 + math.pi / 4, abs=1e-16)
    with pytest.raises(ValidationError, match=r"V2 frame depends on sgn\(theta\); undefined at"):
        frame_angle(FrameVariant.V2, 0.0)


PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def _so3_by_traces(v: np.ndarray) -> np.ndarray:
    """R[i, j] = tr(sigma_i V sigma_j V^dagger) / 2, the defining identity."""
    r = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            r[i, j] = 0.5 * np.trace(PAULI[i] @ v @ PAULI[j] @ v.conj().T).real
    return r


def test_frame_so3_matches_trace_oracle():
    for t in np.random.default_rng(8).uniform(-math.pi, math.pi, 200):
        for v in FrameVariant:
            r = frame_so3(v, t)
            assert np.max(np.abs(r - _so3_by_traces(frame_rotation(v, t)))) <= 1e-15


def test_gauge_moved_frame_so3_matches_trace_oracle():
    # R_z(-beta) R R_z(beta) is the SO(3) action of G_beta V G_beta^dagger
    for t, beta in np.random.default_rng(9).uniform(-math.pi, math.pi, (200, 2)):
        for v in FrameVariant:
            r = frame_so3(v, t, beta)
            assert np.max(np.abs(r - _so3_by_traces(frame_rotation(v, t, beta)))) <= 1e-15


def test_frame_so3_is_orthogonal():
    r = frame_so3(FrameVariant.V1, 0.9)
    assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-14
    assert np.linalg.det(r) == pytest.approx(1.0)


@pytest.mark.parametrize("theta,expected", [(math.pi / 4, -1), (-math.pi / 4, +1)])
def test_rotated_winding_v1_about_x(theta, expected):
    assert rotated_winding(CoinParams(0, 0, 0, theta), FrameVariant.V1) == expected


def test_rotated_winding_v2_theta_independent():
    w_pos = rotated_winding(CoinParams(0, 0, 0, math.pi / 4), FrameVariant.V2)
    w_neg = rotated_winding(CoinParams(0, 0, 0, -math.pi / 4), FrameVariant.V2)
    assert w_pos == w_neg == 1


def test_rotated_winding_full_ladder():
    for t in THETA_LADDER:
        assert rotated_winding(CoinParams(0, 0, 0, t), FrameVariant.V1) == -1
        assert rotated_winding(CoinParams(0, 0, 0, -t), FrameVariant.V1) == +1
        assert rotated_winding(CoinParams(0, 0, 0, t), FrameVariant.V2) == 1
        assert rotated_winding(CoinParams(0, 0, 0, -t), FrameVariant.V2) == 1


def test_rotated_winding_identity_frame_has_no_axis():
    with pytest.raises(ValidationError, match="the identity frame has no chiral axis"):
        rotated_winding(CoinParams(0, 0, 0, math.pi / 4), FrameVariant.IDENTITY)


def test_rotated_winding_of_complex_coins_is_the_real_coins():
    # the gauge moves the frame-rotated curve and the frame's chiral axis alike
    for a, b in ((0.3, 0.0), (0.0, -1.2), (2.0, 0.7), (1e-11, 0.0), (0.0, -1e-11),
                 (1e-13, -1e-13)):
        for theta in (0.9, -0.9):
            p = CoinParams(0.4, a, b, theta)
            assert rotated_winding(p, FrameVariant.V1) == (-1 if theta > 0 else 1)
            assert rotated_winding(p, FrameVariant.V2) == 1


def test_rotated_curves_are_planar():
    x_v1 = bz_image_table(CoinParams(0, 0, 0, 0.6), FrameVariant.V1, 128).columns[1]
    assert np.max(np.abs(x_v1)) < 1e-12  # YZ-plane
    z_v2 = bz_image_table(CoinParams(0, 0, 0, 0.6), FrameVariant.V2, 128).columns[3]
    assert np.max(np.abs(z_v2)) < 1e-12  # XY-plane


def test_bz_image_table_refuses_grids_below_8_points():
    # the k-grid rule of band_structure, from k_grid itself
    p = CoinParams(0, 0, 0, 0.6)
    for grid in (0, 3, 7):
        with pytest.raises(ValidationError, match=f"grid_size must be at least 8, got {grid}"):
            bz_image_table(p, grid_size=grid)
    assert len(bz_image_table(p, grid_size=8)) == 8


def test_pole_assignment_matches_sign_of_theta():
    pa = pole_assignment(CoinParams(0, 0, 0, math.pi / 4))
    assert (pa.at_k0, pa.at_k1) == (-1, +1)
    pa = pole_assignment(CoinParams(0, 0, 0, -math.pi / 4))
    assert (pa.at_k0, pa.at_k1) == (+1, -1)
    rng = np.random.default_rng(23)
    for _ in range(50):
        d, a, b = rng.uniform(-math.pi, math.pi, 3)
        t = rng.uniform(0.05, math.pi - 0.05) * rng.choice([-1, 1])
        pa = pole_assignment(CoinParams(d, a, b, t))
        assert pa.at_k0 == -pa.at_k1
        assert pa.at_k1 == int(math.copysign(1, t))


def test_rel_homotopic_by_sign():
    base = CoinParams(0, 0, 0, 0)
    assert rel_homotopic(base.with_theta(math.pi / 8), base.with_theta(7 * math.pi / 8))
    assert not rel_homotopic(base.with_theta(math.pi / 4), base.with_theta(-math.pi / 4))
    p = base.with_theta(0.9)
    assert rel_homotopic(p, p)


def test_rel_homotopic_validates_family_and_gap():
    with pytest.raises(ValidationError, match=r"do not share \(delta, alpha, beta\)"):
        rel_homotopic(CoinParams(0, 0, 0, 0.5), CoinParams(0, 0.1, 0, 0.5))
    with pytest.raises(ValidationError, match="gapless parameters: theta = 0.0"):
        rel_homotopic(CoinParams(0, 0, 0, 0.0), CoinParams(0, 0, 0, 0.5))


def test_rel_homotopic_is_equivalence_relation():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d, a, b = rng.uniform(-math.pi, math.pi, 3)
        base = CoinParams(d, a, b, 1.0)
        ts = rng.uniform(0.05, math.pi - 0.05, 3) * rng.choice([-1, 1], 3)
        p1, p2, p3 = (base.with_theta(t) for t in ts)
        assert rel_homotopic(p1, p1)
        assert rel_homotopic(p1, p2) == rel_homotopic(p2, p1)
        if rel_homotopic(p1, p2) and rel_homotopic(p2, p3):
            assert rel_homotopic(p1, p3)


def test_predicted_edge_states():
    base = CoinParams(0, 0, 0, 0)
    assert predicted_edge_states(base.with_theta(-math.pi / 4), base.with_theta(math.pi / 4)) == 2
    assert predicted_edge_states(base.with_theta(math.pi / 8), base.with_theta(math.pi / 3)) == 0
    assert predicted_edge_states(base.with_theta(-math.pi / 8), base.with_theta(-3 * math.pi / 4)) == 0


def test_invariant_json_shape():
    inv = rel_homotopy_invariant(CoinParams(0, 0, 0, 0.5))
    d = invariant_json_dict(inv)
    assert d == {"winding_mt": 1, "pole_k0": "S", "pole_k1": "N",
                 "phase_label": "ThetaPositive"}
    assert inv.phase_label is PhaseLabel.THETA_POSITIVE
    inv = rel_homotopy_invariant(CoinParams(0, 0, 0, -0.5))
    assert invariant_json_dict(inv)["phase_label"] == "ThetaNegative"


def test_phase_label_constant_across_beta():
    for beta in np.linspace(0, math.pi, 7):
        inv = rel_homotopy_invariant(CoinParams(0.2, 0.4, beta, 0.8))
        assert inv.phase_label is PhaseLabel.THETA_POSITIVE
