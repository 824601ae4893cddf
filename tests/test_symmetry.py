import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtqw.core import DOMAIN_TOL, GAP_EPS, CoinParams, phs_operator, wrap_angles
from dtqw.errors import ValidationError
from dtqw.lattice import (ThetaProfile, bloch_eigenvalues, build_walk, diagonalize, eigenvalues,
                          ring_sites)
from dtqw.momentum import bloch_hamiltonian, special_points
from dtqw.symmetry import (
    RESIDUAL_TOL,
    chiral_operator,
    chiral_residual,
    chiral_vector,
    frame_conjugated_walk,
    norm_kind,
    parity_residual_bloch,
    phs_residual,
    run_symmetry_suite,
    spectrum_match_residual,
    sublattice_residual,
    timeshift_walk,
)
from dtqw.topology import FrameVariant, frame_rotation


def test_sublattice_residual_homogeneous():
    u = build_walk(CoinParams(0.4, 0.0, -0.9, 1.1), n_sites=8)
    assert sublattice_residual(u) < 1e-13


def test_sublattice_residual_any_profile():
    prof = ThetaProfile.sharp_interface(-math.pi / 4, math.pi / 4, 16)
    u = build_walk(CoinParams(0, 0, 0, math.pi / 4), prof)
    assert sublattice_residual(u) < 1e-13


def test_sublattice_pairs_eigenphases():
    u = build_walk(CoinParams(0.2, 0.0, 0.5, 0.8), n_sites=8)
    w = diagonalize(u).eigenphases
    shifted = np.sort(wrap_angles(w + math.pi))
    assert np.max(np.abs(np.sort(w) - shifted)) < 1e-10


def test_phs_residual_real_coin():
    u = build_walk(CoinParams(0, 0, 0, math.pi / 4), n_sites=8)
    res, lam = phs_residual(u)
    assert res < 1e-12
    assert abs(lam - 1.0) < 1e-12


def test_phs_residual_complex_coin():
    p = CoinParams(0, 2 * math.pi / 8, math.pi / 3, math.pi / 5)
    res, lam = phs_residual(build_walk(p, n_sites=8), p)
    assert res < 1e-12
    assert abs(lam - 1.0) < 1e-12


def test_phs_residual_nonzero_delta_reports_phase():
    # With a shifted quasienergy origin the relation holds up to a global
    # phase, fitted rather than assumed.
    p = CoinParams(0.6, 2 * math.pi / 8, -0.4, 0.9)
    res, lam = phs_residual(build_walk(p, n_sites=8), p)
    assert res < 1e-12
    assert abs(abs(lam) - 1.0) < 1e-14


def test_phs_requires_commensurate_alpha():
    p = CoinParams(0, 0.3, 0, 0.5)
    with pytest.raises(ValidationError, match="incommensurate alpha = 0.3"):
        phs_residual(build_walk(p, n_sites=8), p)


def test_phs_spectrum_reflects_about_delta():
    p = CoinParams(0.3, 2 * math.pi / 8, 0.9, 0.7)
    w = diagonalize(build_walk(p, n_sites=8)).eigenphases
    reflected = np.sort(wrap_angles(2 * p.delta - w))
    assert np.max(np.abs(np.sort(w) - reflected)) < 1e-10


def test_parity_residual_random_and_special_points():
    rng = np.random.default_rng(42)
    for _ in range(30):
        d, a, b = rng.uniform(-math.pi, math.pi, 3)
        t = rng.uniform(0.1, math.pi - 0.1) * rng.choice([-1, 1])
        p = CoinParams(d, a, b, t)
        k = rng.uniform(-math.pi, math.pi)
        assert parity_residual_bloch(p, k) < 1e-12
    p = CoinParams(0.2, 0.8, 1.1, 0.6)
    for k in special_points(p.alpha):
        assert parity_residual_bloch(p, k) < 1e-12


def test_parity_needs_the_correct_mirror_point():
    # Out-of-domain counterexample: mirroring through k = 0 instead of
    # k = alpha does not relate the Bloch Hamiltonians.
    p = CoinParams(0.0, 1.0, 0.3, 0.8)
    n_beta = np.array([math.sin(p.beta), math.cos(p.beta), 0.0])
    par = 1j * (n_beta[0] * np.array([[0, 1], [1, 0]])
                + n_beta[1] * np.array([[0, -1j], [1j, 0]]))
    k = 0.7
    h_k = bloch_hamiltonian(p, k)
    h_wrong = bloch_hamiltonian(p, -k)
    assert np.linalg.norm(par @ h_k @ par.conj().T - h_wrong, 2) > 0.1


def test_parity_eigenvectors_at_special_points_are_theta_independent():
    beta = 0.9
    n_beta = np.array([math.sin(beta), math.cos(beta), 0.0])
    par = 1j * (n_beta[0] * np.array([[0, 1], [1, 0]])
                + n_beta[1] * np.array([[0, -1j], [1j, 0]])
                + n_beta[2] * np.array([[1, 0], [0, -1]]))
    for theta in (0.4, 1.2, -0.7):
        p = CoinParams(0.1, 0.5, beta, theta)
        k0, _ = special_points(p.alpha)
        h = bloch_hamiltonian(p, k0)
        assert np.max(np.abs(par @ h - h @ par)) < 1e-12
        _, vecs = np.linalg.eigh(h)
        for i in range(2):
            v = vecs[:, i]
            pv = par @ v
            overlap = abs(np.vdot(v, pv))
            assert abs(overlap - 1.0) < 1e-12  # eigenvector of the parity coin too


def test_chiral_vector_values():
    assert np.allclose(chiral_vector(0.0), [1, 0, 0])
    m = chiral_vector(0.8)
    assert abs(np.linalg.norm(m) - 1) < 1e-15


def test_chiral_vector_orthogonal_to_bloch_vectors_iff_beta_zero():
    from dtqw.momentum import bloch_vector

    p = CoinParams(0.3, 0.7, 0.0, 0.9)
    m = chiral_vector(p.theta)
    for k in np.linspace(-3, 3, 17):
        assert abs(m @ bloch_vector(p, k)) < 1e-12
    p_bad = CoinParams(0.3, 0.7, 1.0, 0.9)
    assert abs(m @ bloch_vector(p_bad, 0.5)) > 0.1


def test_chiral_residual_beta_zero():
    assert chiral_residual(CoinParams(0, 0, 0, math.pi / 4), 1.0) < 1e-12
    assert chiral_residual(CoinParams(0, 0, 0, -math.pi / 3), -2.0) < 1e-12
    assert chiral_residual(CoinParams(0.7, 1.2, 0, 0.5), 0.3) < 1e-12


def test_chiral_residual_holds_for_any_beta():
    # the gauge-moved operator G_beta Gamma(theta) G_beta^dagger
    assert chiral_residual(CoinParams(0, 0, 0.4, 0.5), 1.0) < 1e-12
    assert chiral_residual(CoinParams(0.7, 1.2, -2.8, -2.1), -0.3) < 1e-12


def test_chiral_relation_fails_off_domain():
    # With beta != 0 the operator not moved by the gauge fails: its raw
    # anticommutator with the traceless Bloch Hamiltonian is large.
    p = CoinParams(0.0, 0.0, 1.0, 0.7)
    gamma = chiral_operator(p.theta)
    h0 = bloch_hamiltonian(p, 0.9)
    assert np.linalg.norm(gamma @ h0 @ gamma.conj().T + h0, 2) > 0.1


def test_chiral_operator_eigenvalues():
    for theta in (0.0, 0.5, -2.2, 3.0):
        ev = np.linalg.eigvals(chiral_operator(theta))
        assert sorted(np.round(ev.imag, 12)) == [-1.0, 1.0]
        assert np.max(np.abs(ev.real)) < 1e-12


def test_v1_frame_has_theta_independent_chiral_axis():
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    from dtqw.topology import frame_rotation

    for theta in (math.pi / 4, -math.pi / 4):
        p = CoinParams(0, 0, 0, theta)
        v = frame_rotation(FrameVariant.V1, theta)
        h0 = bloch_hamiltonian(p, 0.8)
        h_rot = v @ h0 @ v.conj().T
        assert np.max(np.abs(sigma_x @ h_rot @ sigma_x + h_rot)) < 1e-12


def test_timeshift_v1_equals_frame_conjugation():
    p = CoinParams(0, 0, 0, math.pi / 4)
    u1 = timeshift_walk(p, FrameVariant.V1, 8).dense()
    ref = frame_conjugated_walk(p, FrameVariant.V1, 8).dense()
    assert np.max(np.abs(u1 - ref)) < 1e-12


def test_timeshift_spectra_coincide():
    p = CoinParams(0, 0, 0, math.pi / 4)
    u = build_walk(p, n_sites=8)
    u1 = timeshift_walk(p, FrameVariant.V1, 8)
    u2 = timeshift_walk(p, FrameVariant.V2, 8)
    assert spectrum_match_residual(u, u1) < 1e-10
    assert spectrum_match_residual(u, u2) < 1e-10
    assert spectrum_match_residual(u, u1, u2) == max(spectrum_match_residual(u, u1),
                                                     spectrum_match_residual(u, u2))


def test_timeshift_operators_are_unitary():
    p = CoinParams(0.3, 0, 0, -0.9)
    for variant in (FrameVariant.V1, FrameVariant.V2):
        m = timeshift_walk(p, variant, 8).dense()
        assert np.max(np.abs(m @ m.conj().T - np.eye(16))) < 1e-13


def test_timeshift_rejects_unsupported():
    with pytest.raises(ValidationError, match="theta = 0.0 has no sign"):
        timeshift_walk(CoinParams(0, 0, 0, 0.0), FrameVariant.V2, 8)


def test_suite_passes_on_certified_domains():
    for p in (CoinParams(0, 0, 0, math.pi / 4),
              CoinParams(0, 2 * math.pi / 8, math.pi / 3, math.pi / 5)):
        reports = run_symmetry_suite(p, n_sites=8, seed=1)
        assert reports and all(r.passed for r in reports)
        names = {r.name for r in reports}
        assert {"SUB", "PHS", "PS"} <= names


def test_suite_is_deterministic():
    p = CoinParams(0, 0, 0, 0.7)
    r1 = run_symmetry_suite(p, n_sites=8, seed=5)
    r2 = run_symmetry_suite(p, n_sites=8, seed=5)
    assert [(a.name, a.residual) for a in r1] == [(b.name, b.residual) for b in r2]


@pytest.mark.parametrize("n", [8, 16, 64, 512])
@pytest.mark.parametrize("alpha", [1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9])
def test_suite_omits_phs_where_the_gauge_misses_the_wrap(n, alpha):
    # alpha N within 1e-9 of 2 pi m used to admit PHS, but the gauge's defect
    # at the wrap, about 2 |remainder(alpha N, 2 pi)|, then failed it.
    p = CoinParams(0, alpha, 0.0, 0.5)
    phs = [r for r in run_symmetry_suite(p, n_sites=n) if r.name == "PHS"]
    assert phs == [] or phs[0].passed


@pytest.mark.parametrize("n", [8, 16, 64, 512])
def test_suite_keeps_phs_at_lattice_momenta(n):
    assert DOMAIN_TOL < RESIDUAL_TOL / 2
    for alpha in (0.0, 2 * math.pi / n):
        p = CoinParams(0, alpha, 0.0, 0.5)
        phs = [r for r in run_symmetry_suite(p, n_sites=n) if r.name == "PHS"]
        assert len(phs) == 1 and phs[0].passed


@pytest.mark.parametrize("alpha", [0.0, 2 * math.pi * 5 / 65536])
def test_phs_residual_does_not_grow_with_the_ring(alpha):
    # a BLAS dot product for lambda's fit grew the residual about linearly in
    # N (2.6e-13 here); the pairwise sum keeps it at a few ulps
    p = CoinParams(0.3, alpha, 0.7, 0.9)
    res, lam = phs_residual(build_walk(p, n_sites=65536), p)
    assert res < 1e-14
    assert abs(abs(lam) - 1.0) < 1e-15


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("alpha, beta", [(0.0, 4e-14), (4e-14, 0.0), (0.0, -4e-14)])
def test_suite_keeps_cs_and_time_shifts_inside_the_domain(n, alpha, beta):
    # alpha N >= 3.2e-13 is off the PHS domain; every other relation stays
    reports = run_symmetry_suite(CoinParams(0.3, alpha, beta, 0.5), n_sites=n)
    names = {"SUB", "PHS", "PS", "CS", "TimeShiftV1", "TimeShiftV2"} - ({"PHS"} if alpha else set())
    assert {r.name for r in reports} == names
    assert all(r.passed for r in reports)


# The dense formulas the O(N) residuals replace, kept as their oracle.
def _dense_norm(m):
    return float(np.linalg.norm(m, 2) if norm_kind(m.shape[0]) == "spectral"
                 else np.max(np.abs(m)))


def _dense_sub(u):
    mat = u.dense()
    signs = np.repeat(1 - 2 * (ring_sites(u.n_sites) & 1), 2)
    return _dense_norm(signs[:, None] * mat * signs[None, :] + mat)


def _dense_phs(u, p):
    mat = u.dense()
    d = phs_operator(p.alpha, p.beta).gauge_matrix(ring_sites(u.n_sites))
    conjugated = d[:, None] * mat.conj() * d.conj()[None, :]
    inner = complex(np.vdot(mat, conjugated))
    return _dense_norm(conjugated - inner / abs(inner) * mat)


def _dense_timeshift_v1(p, n):
    v = np.kron(np.eye(n), frame_rotation(FrameVariant.V1, p.theta, p.beta))
    conjugated = v @ build_walk(p, n_sites=n).dense() @ v.conj().T
    return _dense_norm(timeshift_walk(p, FrameVariant.V1, n).dense() - conjugated)


def _hausdorff(e, f):
    d = np.abs(e[:, None] - f[None, :])
    return float(max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0))))


_angles = st.floats(-math.pi, math.pi)
# the gap closings, the flat band, and the rest of the circle
_thetas = st.one_of(st.sampled_from([s * t for t in (1e-10, math.pi / 2, math.pi - 1e-10)
                                     for s in (1, -1)]), _angles)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 32), _angles, st.integers(-3, 3), _angles, _thetas, _thetas,
       st.booleans(), _angles)
def test_o_n_residuals_match_the_dense_formulas(half, delta, m, beta, theta, theta2, wall,
                                                alpha):
    n = 2 * half
    p = CoinParams(delta, 2 * math.pi * m / n, beta, theta)
    profile = ThetaProfile.sharp_interface(theta, theta2, n) if wall else None
    u = build_walk(p, profile, n_sites=n)
    assert abs(sublattice_residual(u) - _dense_sub(u)) <= 1e-15
    assert abs(phs_residual(u, p)[0] - _dense_phs(u, p)) <= 1e-15
    if abs(theta) > GAP_EPS:  # the time shifts need no lattice momentum
        q = CoinParams(delta, alpha, beta, theta)
        res = {r.name: r.residual for r in run_symmetry_suite(q, n_sites=n)}["TimeShiftV1"]
        assert abs(res - _dense_timeshift_v1(q, n)) <= 1e-15


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 128), _angles, _angles, _angles, _thetas,
       st.sampled_from(["plain", "V1", "V2"]))
def test_bloch_spectra_match_the_dense_spectra(half, delta, alpha, beta, theta, kind):
    n = 2 * half
    if kind == "plain":
        u = build_walk(CoinParams(delta, alpha, beta, theta), n_sites=n)
    else:
        assume(abs(theta) > GAP_EPS)
        u = timeshift_walk(CoinParams(delta, 0.0, 0.0, theta), FrameVariant[kind], n)
    e = bloch_eigenvalues(u)
    assert _hausdorff(e, eigenvalues(u)) <= 1e-14
    # matching through sorted eigenphases may pass over the nearest point of a
    # cluster of round-off width, never a nearer one
    plain = build_walk(CoinParams(delta, 0.0, 0.0, theta), n_sites=n)
    excess = spectrum_match_residual(plain, u) - _hausdorff(bloch_eigenvalues(plain), e)
    assert 0.0 <= excess <= 1e-14


def test_bloch_spectra_need_a_homogeneous_walk():
    p = CoinParams(0, 0, 0, 0.5)
    wall = build_walk(p, ThetaProfile.sharp_interface(-0.5, 0.5, 8))
    with pytest.raises(ValidationError, match="homogeneous walk: the coins of its 8 sites differ"):
        spectrum_match_residual(build_walk(p, n_sites=8), wall)
