"""Acceptance gate: each test certifies one release criterion at its stated
tolerance and prints a single pass/fail line (run with ``pytest -s`` to see
them).  Criteria cover dispersion, Bloch-map identities, winding values,
pole assignments, symmetry residuals, edge-state physics, interface dynamics
and bulk-boundary counting, each with a runtime budget.
"""

import math
import time

import numpy as np
import scipy.linalg

from dtqw.core import CoinParams, circle_distance, wrap_angle
from dtqw.edge import (
    InitialStateCase,
    InterfaceSpec,
    analytic_edge_state,
    decay_constant,
    dynamics_experiment,
    eigen_residual,
)
from dtqw.lattice import ThetaProfile, build_walk, diagonalize, window_sites
from dtqw.momentum import (
    band_structure,
    bloch_hamiltonian,
    bloch_vector,
    dispersion,
    gap_report,
    momentum_step_matrix,
)
from dtqw.symmetry import (
    chiral_residual,
    parity_residual_bloch,
    phs_residual,
    spectrum_match_residual,
    sublattice_residual,
    timeshift_walk,
)
from dtqw.topology import (
    FrameVariant,
    pole_assignment,
    predicted_edge_states,
    rotated_winding,
    winding_mt,
)

THETA_LADDER = [q * math.pi / 8 for q in (1, 2, 3, 4, 5, 6, 7)]


def _report(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num}: {status} ({elapsed:.2f} s / budget {budget:.0f} s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_dispersion_and_gap_closings():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        theta, alpha, k = rng.uniform(-math.pi, math.pi, 3)
        w = dispersion(CoinParams(0, alpha, 0, theta), k)
        worst = max(worst, abs(math.cos(w) - math.cos(theta) * math.cos(k - alpha)))
    ok = worst < 1e-12

    b = band_structure(CoinParams(0, 0, 0, math.pi / 4), 512)
    ok &= abs(np.min(b.omega) - math.pi / 4) < 1e-12
    ok &= abs(np.max(b.omega) - 3 * math.pi / 4) < 1e-12
    for theta in (0.0, math.pi):
        g = gap_report(band_structure(CoinParams(0, 0, 0, theta), 512))
        ok &= g.gap_at_delta <= 1e-9 and g.gap_at_delta_plus_pi <= 1e-9 and not g.is_gapped
    _report(1, ok, time.monotonic() - t0, 1.0,
            f"dispersion identity worst {worst:.2e}; gaps close at theta in {{0, pi}}")


def test_criterion_2_bloch_map_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst_norm = worst_anti = worst_exp = 0.0
    samples = 0
    while samples < 1000:
        d, a, b_, t = rng.uniform(-math.pi, math.pi, 4)
        k = rng.uniform(-math.pi, math.pi)
        p = CoinParams(d, a, b_, t)
        if math.sin(dispersion(p, k)) < 1e-6:
            continue
        samples += 1
        n = bloch_vector(p, k)
        worst_norm = max(worst_norm, abs(np.linalg.norm(n) - 1.0))
        n_anti = bloch_vector(p, wrap_angle(k + math.pi))
        worst_anti = max(worst_anti, float(np.max(np.abs(n_anti + n))))
        u = momentum_step_matrix(p, k)
        diff = scipy.linalg.expm(-1j * bloch_hamiltonian(p, k)) - u
        worst_exp = max(worst_exp, float(np.max(np.abs(diff))))
    ok = worst_norm < 1e-12 and worst_anti < 1e-12 and worst_exp < 1e-12
    _report(2, ok, time.monotonic() - t0, 1.0,
            f"norm {worst_norm:.2e}, antipodal {worst_anti:.2e}, exp map {worst_exp:.2e}")


def test_criterion_3_frame_winding_values():
    t0 = time.monotonic()
    ok = True
    v2_values = set()
    for t in THETA_LADDER:
        ok &= rotated_winding(CoinParams(0, 0, 0, +t), FrameVariant.V1) == -1
        ok &= rotated_winding(CoinParams(0, 0, 0, -t), FrameVariant.V1) == +1
        v2_values.add(rotated_winding(CoinParams(0, 0, 0, +t), FrameVariant.V2))
        v2_values.add(rotated_winding(CoinParams(0, 0, 0, -t), FrameVariant.V2))
    ok &= len(v2_values) == 1
    _report(3, ok, time.monotonic() - t0, 1.0,
            f"V1/X = -sgn(theta) on 14 angles; V2/Z common value {v2_values}")


def test_criterion_4_relative_homotopy_invariant():
    t0 = time.monotonic()
    windings = set()
    ok = True
    for t in THETA_LADDER:
        for s in (+1, -1):
            p = CoinParams(0, 0, 0, s * t)
            windings.add(winding_mt(p))
            pa = pole_assignment(p)
            ok &= (pa.at_k0, pa.at_k1) == (-s, +s)
    ok &= len(windings) == 1
    _report(4, ok, time.monotonic() - t0, 10.0,
            f"winding common value {windings}; poles (k0, k1) = (-sgn, +sgn) on 14 angles")


def test_criterion_5_symmetry_residuals_and_frame_tension():
    t0 = time.monotonic()
    ok = True

    res = sublattice_residual(build_walk(CoinParams(0.2, 0, 0.6, 1.0), n_sites=16))
    ok &= res < 1e-12

    r1, lam1 = phs_residual(build_walk(CoinParams(0, 0, 0, math.pi / 4), n_sites=8))
    p_cplx = CoinParams(0, 2 * math.pi / 8, math.pi / 3, math.pi / 5)
    r2, _ = phs_residual(build_walk(p_cplx, n_sites=8), p_cplx)
    ok &= r1 < 1e-12 and abs(lam1 - 1) < 1e-12 and r2 < 1e-12

    rng = np.random.default_rng(55)
    for _ in range(20):
        d, a, b_ = rng.uniform(-math.pi, math.pi, 3)
        t = rng.uniform(0.1, math.pi - 0.1) * rng.choice([-1, 1])
        ok &= parity_residual_bloch(CoinParams(d, a, b_, t), rng.uniform(-3, 3)) < 1e-12
        ok &= chiral_residual(CoinParams(d, a, 0, t), rng.uniform(-3, 3)) < 1e-12

    p = CoinParams(0, 0, 0, math.pi / 4)
    u = build_walk(p, n_sites=8)
    u1 = timeshift_walk(p, FrameVariant.V1, 8)
    u2 = timeshift_walk(p, FrameVariant.V2, 8)
    ok &= spectrum_match_residual(u, u1) < 1e-10
    ok &= spectrum_match_residual(u, u2) < 1e-10
    # same spectra, different windings across the two frames
    ok &= rotated_winding(p, FrameVariant.V1) == -1
    ok &= rotated_winding(p.with_theta(-math.pi / 4), FrameVariant.V1) == +1
    ok &= (rotated_winding(p, FrameVariant.V2)
           == rotated_winding(p.with_theta(-math.pi / 4), FrameVariant.V2))
    _report(5, ok, time.monotonic() - t0, 5.0,
            "SUB/PHS/PS/CS residuals < 1e-12; equal spectra, unequal frame windings")


def test_criterion_6_edge_state_oracle_equivalence():
    t0 = time.monotonic()
    spec = InterfaceSpec(0, 0, math.pi / 2, -math.pi / 4, math.pi / 4, 64)
    u = spec.walk()
    sd = diagonalize(u)
    near_zero = int(np.sum(np.abs(sd.eigenphases) < 1e-6))
    near_pi = int(np.sum(np.pi - np.abs(sd.eigenphases) < 1e-6))
    ok = near_zero == 2 and near_pi == 2

    omegas = []
    for eta in (0.0, math.pi):
        e = analytic_edge_state(spec, eta)
        residual, omega = eigen_residual(e)
        ok &= residual < 1e-8
        omegas.append(omega)
    gap_centers = sorted(abs(w) for w in omegas)
    ok &= gap_centers[0] < 1e-8 and abs(gap_centers[1] - math.pi) < 1e-8

    # independent series sum of the squared profile vs the closed form
    a2 = decay_constant(0.0, spec.theta2)
    q1 = 1.0 / decay_constant(0.0, spec.theta1)
    xs = np.arange(0, 32)
    total = np.sum(np.abs(a2) ** (2 * xs) + np.abs(a2) ** (2 * (xs + 1)))
    total += np.sum(np.abs(q1) ** (2 * xs[1:]) + np.abs(q1) ** (2 * (xs[1:] - 1)))
    ok &= abs(total - 2 * math.sqrt(2)) < 1e-10
    _report(6, ok, time.monotonic() - t0, 10.0,
            f"2+2 gap states; residuals < 1e-8; summed norm = 2*sqrt(2) +/- {abs(total - 2*math.sqrt(2)):.1e}")


def test_criterion_7_interface_dynamics():
    t0 = time.monotonic()
    spec = InterfaceSpec(0, 0, math.pi / 2, -math.pi / 4, math.pi / 4, 512)
    steps = 200

    rec_orth = dynamics_experiment(spec, InitialStateCase.ORTHOGONAL_TO_BOTH, steps)
    ok = rec_orth.final_prob < 0.02

    rec_one = dynamics_experiment(spec, InitialStateCase.OVERLAP_ONE, steps)
    ok &= abs(rec_one.plateau - rec_one.predicted_weight) < 0.02

    rec_both = dynamics_experiment(spec, InitialStateCase.OVERLAP_BOTH, steps)
    ok &= abs(rec_both.plateau - rec_both.predicted_weight) < 0.02
    ok &= rec_both.oscillation_detected
    _report(7, ok, time.monotonic() - t0, 30.0,
            f"departure {rec_orth.final_prob:.3f}; plateaus within 0.02; period-2 detected")


def test_criterion_8_bulk_boundary_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    n = 64

    def localized_gap_state_count(delta, alpha, beta, th1, th2):
        profile = ThetaProfile.sharp_interface(th1, th2, n)
        sd = diagonalize(build_walk(CoinParams(delta, alpha, beta, th2), profile))
        gap = min(min(abs(t), math.pi - abs(t)) for t in (th1, th2))
        near = sorted(set(window_sites(0, 10, n)) | set(window_sites(-n // 2, 10, n)))
        idx = [(x + n // 2) % n for x in near]
        probs = sd.site_probabilities()
        count = 0
        for i, w in enumerate(sd.eigenphases):
            in_gap = (circle_distance(w, delta) < 0.9 * gap
                      or circle_distance(w, delta + math.pi) < 0.9 * gap)
            if in_gap and probs[i, idx].sum() > 0.5:
                count += 1
        return count

    ok = True
    for _ in range(20):
        th2 = rng.uniform(0.2, math.pi - 0.2)
        th1 = -rng.uniform(0.2, math.pi - 0.2)
        d, a, b_ = rng.uniform(-math.pi, math.pi, 3)
        pred = predicted_edge_states(CoinParams(d, a, b_, th1), CoinParams(d, a, b_, th2))
        ok &= pred == 2
        # the ring carries two interfaces, so the total count is twice that
        ok &= localized_gap_state_count(d, a, b_, th1, th2) == 2 * pred

    for _ in range(20):
        sign = rng.choice([-1.0, 1.0])
        th1 = sign * rng.uniform(0.2, math.pi - 0.2)
        th2 = sign * rng.uniform(0.2, math.pi - 0.2)
        d, a, b_ = rng.uniform(-math.pi, math.pi, 3)
        ok &= predicted_edge_states(CoinParams(d, a, b_, th1), CoinParams(d, a, b_, th2)) == 0
        ok &= localized_gap_state_count(d, a, b_, th1, th2) == 0
    _report(8, ok, time.monotonic() - t0, 120.0,
            "prediction matches dense counts on 20 opposite- and 20 same-sign pairs")
