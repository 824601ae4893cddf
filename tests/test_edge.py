import math
import re

import numpy as np
import pytest

from dtqw.core import CoinParams, phs_operator
from dtqw.edge import (
    InitialStateCase,
    InterfaceSpec,
    TRUNCATION_EPS,
    analytic_edge_state,
    decay_constant,
    dynamics_experiment,
    eigen_residual,
    experiment_json_dict,
    initial_state,
    overlap_decomposition,
)
from dtqw.errors import ValidationError
from dtqw.lattice import WalkerState, diagonalize, ring_sites, window_sites
from dtqw.topology import predicted_edge_states

CAPTION_SPEC = dict(delta=0.0, alpha=0.0, beta=math.pi / 2,
                    theta1=-math.pi / 4, theta2=math.pi / 4)


def test_decay_constant_reference_value():
    a2 = decay_constant(0.0, math.pi / 4)
    assert abs(a2) == pytest.approx(math.sqrt(2) - 1, abs=1e-14)
    a1 = decay_constant(0.0, -math.pi / 4)
    assert abs(a1) == pytest.approx(math.sqrt(2) + 1, abs=1e-13)


def test_decay_constant_magnitude_identity():
    # |A|^2 = (1 - sin theta) / (1 + sin theta), exactly.
    rng = np.random.default_rng(12)
    for theta in rng.uniform(-math.pi + 0.05, math.pi - 0.05, 100):
        if abs(theta) < 1e-3:
            continue
        a = decay_constant(0.77, theta)
        expected = (1 - math.sin(theta)) / (1 + math.sin(theta))
        assert abs(a) ** 2 == pytest.approx(expected, rel=1e-12)


def test_decay_constant_stable_at_right_angle():
    assert abs(decay_constant(0.0, math.pi / 2)) < 1e-16


def test_interface_spec_validates_signs():
    with pytest.raises(ValidationError, match=r"theta1 = 0.3 must lie in \(-pi, 0\)"):
        InterfaceSpec(0, 0, 0, 0.3, 0.5, 64)
    with pytest.raises(ValidationError, match=r"theta2 = -0.5 must lie in \(0, pi\)"):
        InterfaceSpec(0, 0, 0, -0.3, -0.5, 64)
    with pytest.raises(ValidationError, match="ring size must be even and at least 4, got 63"):
        InterfaceSpec(0, 0, 0, -0.3, 0.5, 63)


def test_norm_constant_matches_summed_series():
    # The squared amplitudes of the unnormalized profile are summed here
    # directly from the decay constants; the telescoped value must match
    # 1/sin(theta2) - 1/sin(theta1).
    rng = np.random.default_rng(77)
    cases = [(-math.pi / 4, math.pi / 4)] + [
        (-rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.3, math.pi - 0.3))
        for _ in range(10)
    ]
    for th1, th2 in cases:
        spec = InterfaceSpec(0.1, 0.4, -0.2, th1, th2, 256)
        a1 = decay_constant(spec.alpha, th1)
        a2 = decay_constant(spec.alpha, th2)
        xs = np.arange(0, 128)
        right = np.sum(np.abs(a2) ** (2 * xs) + np.abs(a2) ** (2 * (xs + 1)))
        q1 = 1 / abs(a1)
        left = np.sum(q1 ** (2 * xs[1:]) + q1 ** (2 * (xs[1:] - 1)))
        total = right + left
        expected = 1 / math.sin(th2) - 1 / math.sin(th1)
        assert total == pytest.approx(expected, abs=1e-10)
        e = analytic_edge_state(spec, 0.0)
        assert e.norm_constant == pytest.approx(expected, abs=1e-12)


def test_norm_constant_reference_value():
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    e = analytic_edge_state(spec, 0.0)
    assert e.norm_constant == pytest.approx(2 * math.sqrt(2), abs=1e-14)


def test_real_amplitudes_when_phases_vanish():
    spec = InterfaceSpec(0, 0, 0, -math.pi / 4, math.pi / 4, 64)
    e = analytic_edge_state(spec, 0.0)
    amps = e.state.amps
    assert np.max(np.abs(amps.imag)) < 1e-14
    # b_x = -a_{x+1} site by site
    a = amps[:, 0]
    b = amps[:, 1]
    assert np.max(np.abs(b + np.roll(a, -1))) < 1e-12


def test_edge_state_requires_large_ring():
    with pytest.raises(ValidationError, match="ring of 16 sites too small: the geometric tails"):
        analytic_edge_state(InterfaceSpec(0, 0, 0, -0.1, 0.1, 16), 0.0)
    with pytest.raises(ValidationError, match="eta = 0.5 must be 0 or pi"):
        analytic_edge_state(InterfaceSpec(n_sites=64, **CAPTION_SPEC), 0.5)


@pytest.mark.parametrize("theta1, theta2, alpha", [
    (-math.pi / 4, math.pi / 4, 0.0), (-0.1, 0.1, 0.0), (-3.0, 3.0, 0.2), (-1.5, 0.2, 0.0),
    (-0.3, 2.0, -0.7),
])
def test_ring_refusal_names_the_smallest_ring(theta1, theta2, alpha):
    def spec(n):
        return InterfaceSpec(0.0, alpha, 0.0, theta1, theta2, n)

    with pytest.raises(ValidationError, match="overlap the wrap-around wall") as info:
        analytic_edge_state(spec(4), 0.0)
    m = int(re.search(r"\(need n_sites >= (\d+)\)$", str(info.value)).group(1))
    assert m > 4
    analytic_edge_state(spec(m), 0.0)
    with pytest.raises(ValidationError, match=rf"ring of {m - 2} sites .*>= {m}\)$"):
        analytic_edge_state(spec(m - 2), 0.0)


def test_ring_refusal_near_a_gap_closing():
    # the smallest ring is ~2.8e14 sites: r^M < TRUNCATION_EPS <= r^(M - 2)
    with pytest.raises(ValidationError, match=r"need n_sites >= (\d+)\)") as info:
        analytic_edge_state(InterfaceSpec(0.0, 0.0, 0.0, -1e-13, 1e-13, 64), 0.0)
    m = int(re.search(r">= (\d+)", str(info.value)).group(1))
    r = max(abs(decay_constant(0.0, 1e-13)), abs(1.0 / decay_constant(0.0, -1e-13)))
    assert 2.7e14 < m < 2.9e14 and m % 2 == 0
    assert r ** m < TRUNCATION_EPS <= r ** (m - 2)
    # cos(theta) / (1 + sin(theta)) rounds to 1: the tail never decays
    with pytest.raises(ValidationError, match=r"wall \(no ring is long enough\)$"):
        analytic_edge_state(InterfaceSpec(0.0, 0.0, 0.0, -0.5, 1e-17, 64), 0.0)


def test_eigen_residual_and_gap_identification():
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    u = spec.walk()
    sd = diagonalize(u)
    got = {}
    for eta in (0.0, math.pi):
        e = analytic_edge_state(spec, eta)
        residual, omega = eigen_residual(u, e)
        assert residual < 1e-8
        # the dense spectrum contains this quasienergy
        assert np.min(np.abs(sd.eigenphases - omega)) < 1e-8
        got[eta] = omega
    # one state per gap: one at delta, the other at delta + pi
    values = sorted(abs(w) for w in got.values())
    assert values[0] == pytest.approx(0.0, abs=1e-8)
    assert values[1] == pytest.approx(math.pi, abs=1e-8)


def test_eigen_residual_decreases_with_ring_size():
    residuals = []
    for n in (32, 64, 128):
        spec = InterfaceSpec(0, 0, math.pi / 2, -1.0, math.pi / 4, n)
        e = analytic_edge_state(spec, 0.0)
        r, _ = eigen_residual(spec.walk(), e)
        residuals.append(r)
    assert residuals[0] > residuals[1] > residuals[2]


def test_edge_pair_is_orthogonal():
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    e0 = analytic_edge_state(spec, 0.0)
    epi = analytic_edge_state(spec, math.pi)
    assert abs(e0.state.overlap(epi.state)) < 1e-10


def test_edge_states_are_phs_singlets():
    spec = InterfaceSpec(0.0, 2 * math.pi / 8, 0.9, -1.1, 0.8, 64)
    om = phs_operator(spec.alpha, spec.beta)
    sites = ring_sites(spec.n_sites)
    for eta in (0.0, math.pi):
        e = analytic_edge_state(spec, eta)
        mapped = om.apply(e.state.amps, sites)
        overlap = abs(np.vdot(e.state.amps, mapped))
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_overlap_decomposition_cases():
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    e0 = analytic_edge_state(spec, 0.0)
    epi = analytic_edge_state(spec, math.pi)
    projections, remainder = overlap_decomposition(e0.state, [e0, epi])
    assert abs(projections[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(projections[1]) < 1e-10
    assert remainder < 1e-10

    rng = np.random.default_rng(3)
    amps = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    s = WalkerState(amps / np.linalg.norm(amps))
    projections, remainder = overlap_decomposition(s, [e0, epi])
    total = np.sum(np.abs(projections) ** 2) + remainder**2
    assert total == pytest.approx(1.0, abs=1e-10)


def test_initial_state_overlap_conditions():
    spec = InterfaceSpec(n_sites=512, **CAPTION_SPEC)
    s, edges = initial_state(spec, InitialStateCase.ORTHOGONAL_TO_BOTH)
    proj, _ = overlap_decomposition(s, edges)
    assert np.max(np.abs(proj)) < 1e-12

    s, edges = initial_state(spec, InitialStateCase.OVERLAP_ONE)
    proj, _ = overlap_decomposition(s, edges)
    assert abs(proj[0]) > 0.5 and abs(proj[1]) < 1e-12

    s, edges = initial_state(spec, InitialStateCase.OVERLAP_BOTH)
    proj, _ = overlap_decomposition(s, edges)
    assert min(abs(proj[0]), abs(proj[1])) > 0.5


def test_dynamics_experiment_cases():
    spec = InterfaceSpec(n_sites=256, **CAPTION_SPEC)
    rec = dynamics_experiment(spec, InitialStateCase.ORTHOGONAL_TO_BOTH, 120)
    assert rec.final_prob < 0.02
    assert rec.passed

    rec = dynamics_experiment(spec, InitialStateCase.OVERLAP_ONE, 120)
    assert abs(rec.plateau - rec.predicted_weight) < 0.02
    assert not rec.oscillation_detected
    assert rec.passed

    rec = dynamics_experiment(spec, InitialStateCase.OVERLAP_BOTH, 120)
    assert abs(rec.plateau - rec.predicted_weight) < 0.02
    assert rec.oscillation_detected
    assert rec.passed
    d = experiment_json_dict(rec)
    assert d["case"] == "OverlapBoth" and d["passed"] is True


def test_edge_window_weight_is_shared_by_both_edge_states():
    # The prediction uses one window weight for both states: they differ only
    # by the phase exp(i eta x), so their site probabilities agree.
    spec = InterfaceSpec(0.3, -1.2, 0.7, -2.8, 2.9, 1024)
    rec = dynamics_experiment(spec, InitialStateCase.OVERLAP_BOTH, 100)
    window = window_sites(0, 5, 1024) + 512
    weights = [analytic_edge_state(spec, eta).state.site_probabilities()[window].sum()
               for eta in (0.0, math.pi)]
    assert rec.edge_window_weight == weights[0]
    assert abs(weights[1] - weights[0]) < 1e-14
    assert 0.5 < rec.edge_window_weight < 0.99
    assert rec.predicted_weight == np.sum(np.abs(rec.projections) ** 2) * weights[0]
    assert experiment_json_dict(rec)["edge_window_weight"] == rec.edge_window_weight


def test_dynamics_experiment_enforces_ring_headroom():
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    with pytest.raises(ValidationError, match="ring of 64 sites too small: need n_sites >= 411"):
        dynamics_experiment(spec, InitialStateCase.OVERLAP_BOTH, 200)


def test_dynamics_experiment_needs_twelve_steps():
    # The shortest run whose late-time tail has a two-step difference.
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    for steps in (0, 1, 11):
        with pytest.raises(ValidationError, match="at least 12 steps"):
            dynamics_experiment(spec, InitialStateCase.OVERLAP_BOTH, steps)
    rec = dynamics_experiment(spec, InitialStateCase.OVERLAP_BOTH, 12)
    d = experiment_json_dict(rec)
    assert all(math.isfinite(d[key]) for key in ("plateau", "alternation", "period2_residual"))


def test_bulk_boundary_count_matches_prediction():
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    p1 = CoinParams(spec.delta, spec.alpha, spec.beta, spec.theta1)
    p2 = spec.right_params()
    assert predicted_edge_states(p1, p2) == 2
    sd = diagonalize(spec.walk())
    near = sorted(set(window_sites(0, 10, 64)) | set(window_sites(-32, 10, 64)))
    idx = [(x + 32) % 64 for x in near]
    probs = sd.site_probabilities()
    localized_gap_states = [
        i for i, w in enumerate(sd.eigenphases)
        if (abs(w) < 1e-6 or math.pi - abs(w) < 1e-6) and probs[i, idx].sum() > 0.9
    ]
    assert len(localized_gap_states) == 4  # two walls, one state per gap each
