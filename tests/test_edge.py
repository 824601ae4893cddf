import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dtqw.cli import main
from dtqw.core import CoinParams, phs_operator
from dtqw.edge import (
    InitialStateCase,
    InterfaceSpec,
    TRUNCATION_EPS,
    WINDOW_HALFWIDTH,
    analytic_edge_state,
    decay_constant,
    dynamics_experiment,
    eigen_residual,
    experiment_json_dict,
    initial_state,
)
from dtqw.errors import ValidationError
from dtqw.lattice import MAX_RING, WalkerState, diagonalize, ring_sites, window_sites
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
        assert spec.edge_profile[2] == pytest.approx(expected, abs=1e-12)


def test_norm_constant_reference_value():
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    assert spec.edge_profile[2] == pytest.approx(2 * math.sqrt(2), abs=1e-14)


def test_real_amplitudes_when_phases_vanish():
    spec = InterfaceSpec(0, 0, 0, -math.pi / 4, math.pi / 4, 64)
    e = analytic_edge_state(spec, 0.0)
    amps = e.amps
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


def test_both_edge_states_of_a_wall_share_one_profile(monkeypatch):
    from dtqw import edge

    calls = []
    monkeypatch.setattr(edge, "decay_constant",
                        lambda *args: calls.append(args) or decay_constant(*args))
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    _, edges = initial_state(spec, InitialStateCase.OVERLAP_BOTH)
    assert len(calls) == 2  # A1 and A2, once for both states
    again = [analytic_edge_state(spec, eta) for eta in (0.0, math.pi)]
    assert len(calls) == 2
    for e, f in zip(edges, again):
        assert e.amps.tobytes() == f.amps.tobytes()


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
    # the smallest ring is ~2.8e14 sites, far above the cap: the refusal names the cap
    with pytest.raises(ValidationError, match=r"wall \(no admitted ring, up to 4194304 sites, "
                                              r"holds the closed form\)$"):
        analytic_edge_state(InterfaceSpec(0.0, 0.0, 0.0, -1e-13, 1e-13, 64), 0.0)
    r = max(abs(decay_constant(0.0, 1e-13)), abs(1.0 / decay_constant(0.0, -1e-13)))
    assert r ** MAX_RING >= TRUNCATION_EPS
    # cos(theta) / (1 + sin(theta)) rounds to 1: the tail never decays
    with pytest.raises(ValidationError, match=r"wall \(no ring is long enough\)$"):
        analytic_edge_state(InterfaceSpec(0.0, 0.0, 0.0, -0.5, 1e-17, 64), 0.0)


def test_ring_refusal_names_a_ring_only_up_to_the_cap():
    # r ~ 1 - theta2 near the closing, so the smallest ring is ~27.6 / theta2 sites
    def refusal(theta2):
        with pytest.raises(ValidationError, match="overlap the wrap-around wall") as info:
            analytic_edge_state(InterfaceSpec(0.0, 0.0, 0.0, -1.0, theta2, 64), 0.0)
        return str(info.value)

    m = int(re.search(r"\(need n_sites >= (\d+)\)$", refusal(1e-5)).group(1))
    assert 2.7e6 < m <= MAX_RING
    assert refusal(5e-6).endswith(f"(no admitted ring, up to {MAX_RING} sites, holds the "
                                  "closed form)")


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
    assert abs(e0.overlap(epi)) < 1e-10


def test_edge_states_are_phs_singlets():
    spec = InterfaceSpec(0.0, 2 * math.pi / 8, 0.9, -1.1, 0.8, 64)
    om = phs_operator(spec.alpha, spec.beta)
    sites = ring_sites(spec.n_sites)
    for eta in (0.0, math.pi):
        e = analytic_edge_state(spec, eta)
        mapped = om.apply(e.amps, sites)
        overlap = abs(np.vdot(e.amps, mapped))
        assert overlap == pytest.approx(1.0, abs=1e-8)


def _overlap_decomposition(s, edges):
    """Projections <edge_i | s> and the norm of what is left after removing them."""
    projections = np.array([e.overlap(s) for e in edges])
    rest = s.amps - sum(p * e.amps for p, e in zip(projections, edges))
    return projections, float(np.linalg.norm(rest))


def test_overlap_decomposition_cases():
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    e0 = analytic_edge_state(spec, 0.0)
    epi = analytic_edge_state(spec, math.pi)
    projections, remainder = _overlap_decomposition(e0, [e0, epi])
    assert abs(projections[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(projections[1]) < 1e-10
    assert remainder < 1e-10

    rng = np.random.default_rng(3)
    amps = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    s = WalkerState(amps / np.linalg.norm(amps))
    projections, remainder = _overlap_decomposition(s, [e0, epi])
    total = np.sum(np.abs(projections) ** 2) + remainder**2
    assert total == pytest.approx(1.0, abs=1e-10)


def test_initial_state_overlap_conditions():
    spec = InterfaceSpec(n_sites=512, **CAPTION_SPEC)
    s, edges = initial_state(spec, InitialStateCase.ORTHOGONAL_TO_BOTH)
    proj, _ = _overlap_decomposition(s, edges)
    assert np.max(np.abs(proj)) < 1e-12

    s, edges = initial_state(spec, InitialStateCase.OVERLAP_ONE)
    proj, _ = _overlap_decomposition(s, edges)
    assert abs(proj[0]) > 0.5 and abs(proj[1]) < 1e-12

    s, edges = initial_state(spec, InitialStateCase.OVERLAP_BOTH)
    proj, _ = _overlap_decomposition(s, edges)
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
    weights = [analytic_edge_state(spec, eta).site_probabilities()[window].sum()
               for eta in (0.0, math.pi)]
    assert rec.edge_window_weight == weights[0]
    assert abs(weights[1] - weights[0]) < 1e-14
    assert 0.5 < rec.edge_window_weight < 0.99
    assert rec.predicted_weight == np.sum(np.abs(rec.projections) ** 2) * weights[0]
    assert experiment_json_dict(rec)["edge_window_weight"] == rec.edge_window_weight


def test_dynamics_experiment_enforces_ring_headroom():
    # the named ring is the smallest even one, and it is accepted
    for n in (64, 410):
        spec = InterfaceSpec(n_sites=n, **CAPTION_SPEC)
        with pytest.raises(ValidationError, match=f"ring of {n} sites too small: need "
                                                  "n_sites >= 412 to keep"):
            dynamics_experiment(spec, InitialStateCase.OVERLAP_BOTH, 200)
    dynamics_experiment(InterfaceSpec(n_sites=412, **CAPTION_SPEC),
                        InitialStateCase.OVERLAP_BOTH, 200)


def test_dynamics_experiment_refuses_a_run_no_admitted_ring_holds():
    spec = InterfaceSpec(n_sites=64, **CAPTION_SPEC)
    most = MAX_RING // 2 - WINDOW_HALFWIDTH - 1
    with pytest.raises(ValidationError, match=f"steps = {most + 1}: at most {most} steps fit in "
                                              f"an admitted ring \\(up to {MAX_RING} sites\\)"):
        dynamics_experiment(spec, InitialStateCase.OVERLAP_BOTH, most + 1)
    with pytest.raises(ValidationError, match=f"need n_sites >= {MAX_RING} to keep"):
        dynamics_experiment(spec, InitialStateCase.OVERLAP_BOTH, most)


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
    p2 = CoinParams(spec.delta, spec.alpha, spec.beta, spec.theta2)
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


def _angle_near(anchor: float, offset: float) -> float:
    """anchor + offset in (0, pi), anchor 0, pi/2 or pi: an offset toward a gap
    closing is taken away from it, and the angle keeps at least 0.03 from 0 and
    pi, so a ring of 1024 sites holds the closed form."""
    if anchor == 0.0:
        return max(abs(offset), 0.03)
    if anchor == math.pi:
        return math.pi - max(abs(offset), 0.03)
    return anchor + offset


_ANCHORS = st.sampled_from((0.0, math.pi / 2, math.pi))
_PHASES = st.floats(-math.pi, math.pi)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ANCHORS, st.floats(-0.3, 0.3), _ANCHORS, st.floats(-0.3, 0.3), _PHASES, _PHASES,
       _PHASES, st.sampled_from(InitialStateCase))
@example(math.pi / 2, 0.0, math.pi / 2, 0.0, 0.0, 0.0, 0.0, InitialStateCase.OVERLAP_BOTH)
def test_edge_writes_the_walls_closed_forms_and_evolve_reads_the_window(
        anchor1, offset1, anchor2, offset2, delta, alpha, beta, case):
    # The wall's values come from spec.edge_profile alone: the command writes
    # the telescoped norm constant and the same two decay constants for both
    # states.  The trajectory's first entry is the initial state's probability
    # on the interface window.
    n = 1024
    spec = InterfaceSpec(delta, alpha, beta, -_angle_near(anchor1, offset1),
                         _angle_near(anchor2, offset2), n)
    argv = ["edge", "--ring-size", str(n)]
    for name in ("delta", "alpha", "beta", "theta1", "theta2"):
        argv += [f"--{name}", repr(getattr(spec, name))]
    with tempfile.TemporaryDirectory() as out:
        assert main([*argv, "--out", out]) == 0
        with open(os.path.join(out, "edge.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    expected = 1.0 / math.sin(spec.theta2) - 1.0 / math.sin(spec.theta1)
    assert result["norm_constant"] == pytest.approx(expected, rel=1e-15)
    decay = [decay_constant(spec.alpha, spec.theta1), decay_constant(spec.alpha, spec.theta2)]
    assert len(result["states"]) == 2
    for state in result["states"]:
        assert [complex(*z) for z in state["decay_constants"]] == decay

    s0, _ = initial_state(spec, case)
    window = window_sites(0, WINDOW_HALFWIDTH, n) + n // 2
    rec = dynamics_experiment(spec, case, 12)
    assert abs(rec.trajectory.interface_prob[0] - s0.site_probabilities()[window].sum()) <= 1e-15
