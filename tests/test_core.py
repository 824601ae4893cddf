import cmath
import math

import numpy as np
import pytest

from dtqw.core import (
    ID2,
    SIGMA_X,
    CoinParams,
    coin_matrix,
    gauged,
    is_commensurate,
    pauli_compose,
    pauli_decompose,
    phs_operator,
    wrap_angle,
)
from dtqw.errors import ValidationError
from dtqw.lattice import build_walk, ring_sites

# Tolerance of the pure 2x2 algebra identities.
ALGEBRA_TOL = 1e-14


def test_wrap_angle_interval():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0
    assert -math.pi < wrap_angle(123.456) <= math.pi


def test_coin_params_normalized_and_gapped():
    p = CoinParams(2 * math.pi + 0.1, -3 * math.pi, 0.5, math.pi)
    assert p.delta == pytest.approx(0.1)
    assert p.alpha == pytest.approx(math.pi)
    assert not p.is_gapped
    assert not CoinParams(0, 0, 0, 0).is_gapped
    assert CoinParams(0, 0, 0, 1e-3).is_gapped
    assert CoinParams(0, 0, 0, -0.9).with_theta(0.4).theta == pytest.approx(0.4)


def test_gauged_conjugates_by_the_diagonal_gauge():
    # G_beta m G_beta^dagger, G_beta = diag(e^{i beta/2}, e^{-i beta/2}), on a stack
    m = np.random.default_rng(2).standard_normal((3, 2, 2, 2)) @ np.array([1, 1j])
    for beta in (0.0, 0.7, -2.9):
        g = np.diag([cmath.exp(0.5j * beta), cmath.exp(-0.5j * beta)])
        assert np.max(np.abs(gauged(m, beta) - g @ m @ g.conj().T)) < ALGEBRA_TOL
    assert gauged(m, 0.0).tobytes() == m.tobytes()


def test_coin_matrix_identity_and_quarter_turn():
    assert np.allclose(coin_matrix(CoinParams(0, 0, 0, 0)), ID2, atol=ALGEBRA_TOL)
    expected = np.array([[0, 1], [-1, 0]], dtype=complex)
    assert np.allclose(coin_matrix(CoinParams(0, 0, 0, math.pi / 2)), expected, atol=ALGEBRA_TOL)


@pytest.mark.parametrize("theta", [0.3, -1.2, 2.5])
def test_coin_matrix_real_family(theta):
    # (delta, alpha, beta) = (pi/2, pi/2, 0): direct substitution in the matrix
    # formula collapses every phase and leaves a real orthogonal matrix.
    d, a, b = math.pi / 2, math.pi / 2, 0.0
    expected = cmath.exp(-1j * d) * np.array(
        [
            [math.cos(theta) * cmath.exp(1j * a), math.sin(theta) * cmath.exp(1j * (a + b))],
            [-math.sin(theta) * cmath.exp(-1j * (a + b)), math.cos(theta) * cmath.exp(-1j * a)],
        ]
    )
    got = coin_matrix(CoinParams(d, a, b, theta))
    assert np.allclose(got, expected, atol=ALGEBRA_TOL)
    assert np.max(np.abs(got.imag)) < ALGEBRA_TOL
    real_form = np.array([[math.cos(theta), math.sin(theta)],
                          [math.sin(theta), -math.cos(theta)]])
    assert np.allclose(got.real, real_form, atol=ALGEBRA_TOL)


def test_coin_matrix_unitary_and_det():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d, a, b, t = rng.uniform(-math.pi, math.pi, 4)
        m = coin_matrix(CoinParams(d, a, b, t))
        assert np.max(np.abs(m @ m.conj().T - ID2)) < 1e-13
        assert abs(np.linalg.det(m) - cmath.exp(-2j * d)) < 1e-13


def test_pauli_decompose_basics():
    c0, c = pauli_decompose(ID2)
    assert c0 == pytest.approx(1.0)
    assert np.allclose(c, 0.0, atol=ALGEBRA_TOL)
    c0, c = pauli_decompose(SIGMA_X)
    assert abs(c0) < ALGEBRA_TOL
    assert np.allclose(c, [1.0, 0.0, 0.0], atol=ALGEBRA_TOL)


def test_pauli_round_trip():
    m = coin_matrix(CoinParams(0, 0, 0, math.pi / 4))
    assert np.max(np.abs(pauli_compose(*pauli_decompose(m)) - m)) < ALGEBRA_TOL
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.max(np.abs(pauli_compose(*pauli_decompose(m)) - m)) < ALGEBRA_TOL


def _dense_gauge(alpha, beta, n):
    d = np.repeat(np.exp(1j * alpha * ring_sites(n)), 2).astype(complex)
    d[1::2] *= np.exp(-1j * beta)
    return d


def test_gauge_conjugation_maps_plain_walk_to_complex_coin():
    # W U0 W^-1 = U on a ring, alpha a lattice momentum.
    n = 8
    delta, alpha, beta, theta = 0.0, 2 * math.pi / 8, math.pi / 3, math.pi / 5
    u0 = build_walk(CoinParams(delta, 0, 0, theta), n_sites=n).dense()
    u = build_walk(CoinParams(delta, alpha, beta, theta), n_sites=n).dense()
    w = _dense_gauge(alpha, beta, n)
    assert np.max(np.abs(w[:, None] * u0 * w.conj()[None, :] - u)) < 1e-12


def test_gauge_conjugation_random_commensurate():
    rng = np.random.default_rng(3)
    for n in (8, 12, 16):
        m = int(rng.integers(1, n))
        delta, beta, theta = rng.uniform(-math.pi, math.pi, 3)
        alpha = 2 * math.pi * m / n
        u0 = build_walk(CoinParams(delta, 0, 0, theta), n_sites=n).dense()
        u = build_walk(CoinParams(delta, alpha, beta, theta), n_sites=n).dense()
        w = _dense_gauge(alpha, beta, n)
        assert np.max(np.abs(w[:, None] * u0 * w.conj()[None, :] - u)) < 1e-12


def test_commensurability_detection():
    assert is_commensurate(2 * math.pi / 8, 8)
    assert is_commensurate(0.0, 10)
    assert not is_commensurate(0.3, 8)
    with pytest.raises(ValidationError, match="incommensurate alpha = 0.3: not a multiple of 2"):
        phs_operator(0.3, 0.0).check_commensurate(8)


def test_phs_operator_reduces_to_conjugation():
    om = phs_operator(0.0, 0.0)
    rng = np.random.default_rng(5)
    amps = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    assert np.allclose(om.apply(amps, ring_sites(6)), amps.conj())


def test_phs_operator_is_involution():
    rng = np.random.default_rng(9)
    for alpha, beta in [(0.0, 0.0), (2 * math.pi / 8, 0.7), (0.77, -2.1)]:
        om = phs_operator(alpha, beta)
        sites = ring_sites(8)
        amps = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        amps /= np.linalg.norm(amps)
        assert np.linalg.norm(om.apply(om.apply(amps, sites), sites) - amps) < 1e-13


def test_phs_conjugation_fixes_walk():
    # Omega U Omega^-1 = U for delta = 0, complex coin, commensurate alpha.
    n = 8
    p = CoinParams(0.0, 2 * math.pi / 8, math.pi / 4, math.pi / 3)
    u = build_walk(p, n_sites=n).dense()
    d = phs_operator(p.alpha, p.beta).gauge_matrix(ring_sites(n))
    conj = d[:, None] * u.conj() * d.conj()[None, :]
    assert np.max(np.abs(conj - u)) < 1e-12
