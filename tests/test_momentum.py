import csv
import math

import numpy as np
import pytest
import scipy.linalg

from dtqw import io
from dtqw.core import GAP_EPS, CoinParams, wrap_angle, wrap_angles
from dtqw.errors import ValidationError
from dtqw.momentum import (
    band_structure,
    band_table,
    bloch_hamiltonian,
    bloch_vector,
    bloch_vectors,
    dispersion,
    gap_report,
    momentum_step_matrix,
    special_points,
)


def random_params(rng, gapped=True):
    while True:
        d, a, b, t = rng.uniform(-math.pi, math.pi, 4)
        p = CoinParams(d, a, b, t)
        if not gapped or p.is_gapped:
            return p


def test_dispersion_fixed_points():
    assert dispersion(CoinParams(0, 0, 0, math.pi / 2), 1.234) == pytest.approx(math.pi / 2)
    assert dispersion(CoinParams(0, 0.4, 0, 0), 0.4) == pytest.approx(0.0)
    assert dispersion(CoinParams(0, 0.4, 0, math.pi / 4), 0.4) == pytest.approx(math.pi / 4)


def test_dispersion_even_about_special_points():
    p = CoinParams(0.1, 0.7, -0.3, 1.1)
    for dk in (0.2, 0.9, 2.0):
        assert dispersion(p, p.alpha + dk) == pytest.approx(dispersion(p, p.alpha - dk), abs=1e-13)
        assert dispersion(p, p.alpha + math.pi + dk) == pytest.approx(
            dispersion(p, p.alpha + math.pi - dk), abs=1e-13)


def test_bloch_vector_simple_case():
    n = bloch_vector(CoinParams(0, 0, 0, math.pi / 2), 0.0)
    assert np.allclose(n, [0.0, -1.0, 0.0], atol=1e-14)


def test_bloch_vector_at_special_point_hits_pole():
    # At k = alpha the vector equals -sgn(theta) * (sin beta, cos beta, 0).
    n = bloch_vector(CoinParams(0, 0, 0, 0.3), 0.0)
    assert np.allclose(n, [0.0, -1.0, 0.0], atol=1e-13)
    p = CoinParams(0.2, 1.1, 0.6, -0.8)
    n = bloch_vector(p, p.alpha)
    assert np.allclose(n, [math.sin(p.beta), math.cos(p.beta), 0.0], atol=1e-13)


def test_bloch_vector_unit_norm_and_antipodal():
    rng = np.random.default_rng(21)
    for _ in range(300):
        p = random_params(rng)
        k = rng.uniform(-math.pi, math.pi)
        if math.sin(dispersion(p, k)) < 1e-6:
            continue
        n = bloch_vector(p, k)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert np.max(np.abs(bloch_vector(p, wrap_angle(k + math.pi)) + n)) < 1e-11


def test_bloch_vector_norm_identity():
    # numerator norm^2 = sin^2 theta + cos^2 theta sin^2(k - alpha) = sin^2 omega
    rng = np.random.default_rng(4)
    for _ in range(300):
        p = random_params(rng)
        k = rng.uniform(-math.pi, math.pi)
        st, ct = math.sin(p.theta), math.cos(p.theta)
        lhs = st**2 + ct**2 * math.sin(k - p.alpha) ** 2
        assert abs(lhs - math.sin(dispersion(p, k)) ** 2) < 1e-12


def test_bloch_vector_degenerate_raises():
    with pytest.raises(ValidationError, match="degenerate point: Bloch vector undefined at k = 0"):
        bloch_vector(CoinParams(0, 0, 0, 0), 0.0)
    with pytest.raises(ValidationError, match="degenerate point: .* at k = 0.5, theta = 3.14"):
        bloch_hamiltonian(CoinParams(0, 0.5, 0, math.pi), 0.5)


def test_bloch_hamiltonian_exponential_matches_step_matrix():
    # Fixes the shift sign convention: expm(-iH_k) must equal the momentum
    # step matrix diag(e^{-ik}, e^{ik}) C for every parameter set.
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = random_params(rng)
        k = rng.uniform(-math.pi, math.pi)
        if math.sin(dispersion(p, k)) < 1e-6:
            continue
        h = bloch_hamiltonian(p, k)
        assert np.max(np.abs(h - h.conj().T)) < 1e-13
        u = momentum_step_matrix(p, k)
        assert np.max(np.abs(scipy.linalg.expm(-1j * h) - u)) < 1e-12


def test_bloch_hamiltonian_eigenvalues_and_trace():
    p = CoinParams(0.4, -0.2, 0.9, 1.3)
    k = 0.77
    h = bloch_hamiltonian(p, k)
    w = dispersion(p, k)
    assert np.allclose(np.linalg.eigvalsh(h), sorted([p.delta - w, p.delta + w]), atol=1e-12)
    assert np.trace(h) == pytest.approx(2 * p.delta, abs=1e-13)


def test_band_structure_extrema():
    b = band_structure(CoinParams(0, 0, 0, math.pi / 4), 256)
    assert np.min(b.omega) == pytest.approx(math.pi / 4, abs=1e-12)
    assert np.max(b.omega) == pytest.approx(3 * math.pi / 4, abs=1e-12)
    assert not b.degenerate.any()
    # extrema sit at the special momenta alpha and alpha + pi
    assert abs(wrap_angle(b.k[np.argmin(b.omega)])) < 1e-12
    assert abs(wrap_angle(b.k[np.argmax(b.omega)] - math.pi)) < 1e-12


def test_band_structure_gapless_shape():
    p = CoinParams(0, 0.0, 0, 0)
    b = band_structure(p, 512)
    assert np.allclose(b.omega, np.abs(wrap_angles(b.k - p.alpha)), atol=1e-12)
    g = gap_report(b)
    assert g.gap_at_delta <= 1e-9 and g.gap_at_delta_plus_pi <= 1e-9
    assert not g.is_gapped
    assert b.degenerate.any()


def test_band_structure_grid_validation():
    with pytest.raises(ValidationError, match="grid_size must be at least 8, got 4"):
        band_structure(CoinParams(0, 0, 0, 1.0), 4)


def test_gap_report_values_and_theta_sign():
    b = band_structure(CoinParams(0, 0, 0, math.pi / 4), 512)
    g = gap_report(b)
    assert g.gap_at_delta == pytest.approx(math.pi / 2, abs=1e-12)
    assert g.gap_at_delta_plus_pi == pytest.approx(math.pi / 2, abs=1e-12)
    assert g.is_gapped
    for theta in (0.3, 1.1, 2.0):
        gp = gap_report(band_structure(CoinParams(0.1, 0.5, 0.2, theta), 256))
        gm = gap_report(band_structure(CoinParams(0.1, 0.5, 0.2, -theta), 256))
        assert gp.gap_at_delta == pytest.approx(gm.gap_at_delta, abs=1e-13)
        assert gp.gap_at_delta_plus_pi == pytest.approx(gm.gap_at_delta_plus_pi, abs=1e-13)


def test_gap_converges_under_grid_refinement():
    # the closed form does not depend on the grid at all, alpha off-grid or not
    p = CoinParams(0.0, 0.37, 0.0, 0.9)
    gaps = {(g.gap_at_delta, g.gap_at_delta_plus_pi)
            for g in (gap_report(band_structure(p, n)) for n in (8, 9, 512, 1024))}
    assert gaps == {(1.8, 1.8)}


def test_special_points_wrap():
    assert special_points(0.0) == pytest.approx((0.0, math.pi))
    k0, k1 = special_points(math.pi / 2)
    assert k0 == pytest.approx(math.pi / 2)
    assert k1 == pytest.approx(-math.pi / 2)


def test_special_points_lie_in_xy_plane():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = random_params(rng)
        for k in special_points(p.alpha):
            assert abs(bloch_vector(p, k)[2]) < 1e-12


def test_quasienergy_bands_wrap_and_sublattice_shift():
    p = CoinParams(0.9, 0.3, -0.6, 0.8)
    b = band_structure(p, 64)
    wp, wm = b.quasienergies()
    assert np.all(wp > -math.pi) and np.all(wp <= math.pi)
    all_phases = np.concatenate([wp, wm])
    shifted = wrap_angles(all_phases + math.pi)
    assert np.max(np.abs(np.sort(all_phases) - np.sort(shifted))) < 1e-12


def test_band_csv_round_trip(tmp_path):
    b = band_structure(CoinParams(0.3, 0.2, 0.1, 0.7), 64)
    path = tmp_path / "band.csv"
    table = band_table(b)
    io.write_csv(path, table)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == table.header
    assert len(rows) == 65
    ks = [float(r[0]) for r in rows[1:]]
    assert ks == sorted(ks)
    assert ks[-1] == pytest.approx(math.pi)


def test_one_gap_threshold():
    # sin(omega) at k = alpha is |sin theta|: the coin's own gap test and the
    # degenerate-point test use the same GAP_EPS and always agree.
    for theta in (1e-11, -1e-11, 1e-6, 0.5, -2.0, math.pi - 1e-11, 0.0, 5e-13, math.pi):
        p = CoinParams(0.2, 0.4, -0.7, theta)
        assert p.is_gapped == (abs(math.sin(p.theta)) > GAP_EPS)
        b = band_structure(p, 64)
        assert gap_report(b).is_gapped == p.is_gapped
        _, sin_w, degenerate = bloch_vectors(p, [p.alpha, p.alpha + 0.3])
        assert sin_w[0] == pytest.approx(abs(math.sin(p.theta)), rel=1e-15, abs=0)
        assert degenerate[0] == (not p.is_gapped)
        if p.is_gapped:
            assert not b.degenerate.any()


def test_theta_block_band_is_the_stack_of_single_coin_bands():
    # the sweep's one pass per block gives every coin's band and gaps bit for bit
    p = CoinParams(0.3, 1.1, -2.2, 0.4)
    thetas = wrap_angles([-math.pi, -1.0, -1e-4, 0.0, 1e-11, 0.7, math.pi - 1e-12])
    block = band_structure(p, 64, thetas)
    g = gap_report(block)
    assert block.omega.shape == (7, 64) and block.n.shape == (7, 64, 3)
    for i, theta in enumerate(thetas):
        one = band_structure(p.with_theta(theta), 64)
        assert np.array_equal(block.k, one.k)
        assert np.array_equal(block.omega[i], one.omega)
        assert np.array_equal(block.n[i], one.n, equal_nan=True)
        assert np.array_equal(block.degenerate[i], one.degenerate)
        gi = gap_report(one)
        assert (g.gap_at_delta[i], g.gap_at_delta_plus_pi[i], g.is_gapped[i]) == (
            gi.gap_at_delta, gi.gap_at_delta_plus_pi, gi.is_gapped)
