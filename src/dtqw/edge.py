"""Closed-form interface states and dynamics at a sharp domain wall.

For a wall with theta1 < 0 on x < 0 and theta2 > 0 on x >= 0 (shared
delta, alpha, beta), the walk has exactly one exponentially localized
eigenstate per quasienergy gap.  Both are built from the same two-sided
geometric profile

    a_x = A_j^x,   b_x = -exp(-i(alpha+beta)) * A_j^(x+1),
    A_j = exp(i alpha) (1 - sin theta_j) / cos theta_j,

with j = 1 on the left and j = 2 on the right, times a staggering phase
exp(i eta x) with eta = 0 for one gap and eta = pi for the other.  The
squared-amplitude sum of the unstaggered profile telescopes to
1/sin(theta2) - 1/sin(theta1), which normalizes the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DOMAIN_TOL, CoinParams, wrap_angle
from .errors import ValidationError
from .lattice import (
    ThetaProfile,
    Trajectory,
    WalkerState,
    WalkOperator,
    build_walk,
    evolve,
    ring_sites,
    window_sites,
)

TRUNCATION_EPS = 1e-12

# Interface probability is measured inside +/- WINDOW_HALFWIDTH sites of the
# wall; the plateau is the mean over the last quarter of the trajectory; both
# experiment tolerances below are engineering choices echoed in the record.
WINDOW_HALFWIDTH = 5
PLATEAU_TOL = 0.02
DEPARTURE_TOL = 0.02

# The late-time tail is the last steps // 4 samples; its two-step difference
# needs three of them.
MIN_STEPS = 12


@dataclass(frozen=True)
class InterfaceSpec:
    """Sharp wall between a theta1 < 0 region (x < 0) and a theta2 > 0 region."""

    delta: float
    alpha: float
    beta: float
    theta1: float
    theta2: float
    n_sites: int

    def __post_init__(self):
        for name in ("delta", "alpha", "beta", "theta1", "theta2"):
            object.__setattr__(self, name, wrap_angle(float(getattr(self, name))))
        if not (-math.pi < self.theta1 < 0.0):
            raise ValidationError(f"theta1 = {self.theta1} must lie in (-pi, 0)")
        if not (0.0 < self.theta2 < math.pi):
            raise ValidationError(f"theta2 = {self.theta2} must lie in (0, pi)")
        if self.n_sites % 2 or self.n_sites < 4:
            raise ValidationError(f"ring size must be even and at least 4, got {self.n_sites}")

    def profile(self) -> ThetaProfile:
        return ThetaProfile.sharp_interface(self.theta1, self.theta2, self.n_sites)

    def right_params(self) -> CoinParams:
        return CoinParams(self.delta, self.alpha, self.beta, self.theta2)

    def walk(self) -> WalkOperator:
        return build_walk(self.right_params(), self.profile())


def decay_constant(alpha: float, theta: float) -> complex:
    """A = exp(i alpha) (1 - sin theta)/cos theta, on the stable branch.

    |A| < 1 for theta in (0, pi) and |A| > 1 for theta in (-pi, 0); the two
    algebraically equal forms below avoid the 0/0 at theta = +pi/2.
    """
    s, c = math.sin(theta), math.cos(theta)
    if theta > 0:
        mag = c / (1.0 + s)
    else:
        mag = (1.0 - s) / c
    return complex(np.exp(1j * alpha) * mag)


@dataclass(eq=False)
class EdgeState:
    """One localized interface eigenstate (eta = 0 or pi)."""

    eta: float
    state: WalkerState
    decay_constants: tuple[complex, complex]
    norm_constant: float
    spec: InterfaceSpec


def analytic_edge_state(spec: InterfaceSpec, eta: float) -> EdgeState:
    """Closed-form interface eigenstate on the ring.

    Requires the ring long enough that the truncated geometric tails are
    below TRUNCATION_EPS, so the wrap-around wall is invisible at working precision.
    """
    eta = wrap_angle(eta)
    if not (abs(eta) < DOMAIN_TOL or abs(eta - math.pi) < DOMAIN_TOL):
        raise ValidationError(f"eta = {eta} must be 0 or pi (tolerance {DOMAIN_TOL:g})")
    a1 = decay_constant(spec.alpha, spec.theta1)
    a2 = decay_constant(spec.alpha, spec.theta2)
    q1 = 1.0 / a1  # |q1| < 1: stable left-side ratio
    n = spec.n_sites
    r = max(abs(a2), abs(q1))
    if r ** n >= TRUNCATION_EPS:
        need = "no ring is long enough"
        if r < 1.0:  # step from the estimate log(eps)/log(r) to the smallest even ring
            m = 2 * max(2, math.ceil(math.log(TRUNCATION_EPS) / math.log(r) / 2))
            while m > 4 and r ** (m - 2) < TRUNCATION_EPS:
                m -= 2
            while r ** m >= TRUNCATION_EPS:
                m += 2
            need = f"need n_sites >= {m}"
        raise ValidationError(f"ring of {n} sites too small: the geometric tails "
                              f"overlap the wrap-around wall ({need})")

    x = ring_sites(n)
    right = x >= 0
    a = np.empty(n, dtype=complex)
    b = np.empty(n, dtype=complex)
    a[right] = a2 ** x[right]
    b[right] = -(a2 ** (x[right] + 1))
    a[~right] = q1 ** (-x[~right])
    b[~right] = -(q1 ** (-x[~right] - 1))
    phase = np.exp(-1j * (spec.alpha + spec.beta))
    b *= phase

    norm_constant = 1.0 / math.sin(spec.theta2) - 1.0 / math.sin(spec.theta1)
    amps = np.stack([a, b], axis=1) * np.exp(1j * eta * x)[:, None]
    amps /= math.sqrt(norm_constant)
    amps /= np.linalg.norm(amps)  # ring correction, < 1e-10 by the size check
    return EdgeState(eta, WalkerState(amps), (a1, a2), norm_constant, spec)


def eigen_residual(u: WalkOperator, e: EdgeState) -> tuple[float, float]:
    """(|| U psi - exp(-i w) psi ||, w) for the walk U = u of the state's
    interface (``e.spec.walk()``, built once for both states of a wall), with w
    from the Rayleigh quotient.

    The residual is limited by the second wall on the ring, so it shrinks
    exponentially as the ring grows.
    """
    psi = e.state.amps
    upsi = u.apply(e.state).amps
    z = complex(np.vdot(psi, upsi))
    omega = wrap_angle(-np.angle(z))
    residual = float(np.linalg.norm(upsi - np.exp(-1j * omega) * psi))
    return residual, omega


def overlap_decomposition(s: WalkerState, edges: list[EdgeState]) -> tuple[np.ndarray, float]:
    """Projections <edge_i | s> and the norm of what is left after removing them."""
    for e in edges:
        if e.state.n_sites != s.n_sites:
            raise ValidationError(f"states live on rings of {e.state.n_sites} and "
                                  f"{s.n_sites} sites")
    projections = np.array([e.state.overlap(s) for e in edges], dtype=complex)
    rest = s.amps.copy()
    for proj, e in zip(projections, edges):
        rest -= proj * e.state.amps
    return projections, float(np.linalg.norm(rest))


class InitialStateCase(Enum):
    """How the interface-centered initial state relates to the edge pair."""

    ORTHOGONAL_TO_BOTH = "OrthogonalToBoth"
    OVERLAP_ONE = "OverlapOne"
    OVERLAP_BOTH = "OverlapBoth"


def _gram_schmidt(amps: np.ndarray, edges: list[EdgeState]) -> np.ndarray:
    out = amps.astype(complex).copy()
    for e in edges:
        out -= np.vdot(e.state.amps, out) * e.state.amps
    return out / np.linalg.norm(out)


def initial_state(spec: InterfaceSpec, case: InitialStateCase) -> tuple[WalkerState, list[EdgeState]]:
    """Deterministic interface-centered initial state for each case.

    OverlapBoth: equal-weight sum of the two edge states.  OverlapOne: equal
    mix of the eta = 0 edge state with a single-site spinor orthogonalized
    against both.  OrthogonalToBoth: a two-site spinor orthogonalized against
    both.
    """
    edges = [analytic_edge_state(spec, 0.0), analytic_edge_state(spec, math.pi)]
    n = spec.n_sites
    if case is InitialStateCase.OVERLAP_BOTH:
        amps = edges[0].state.amps + edges[1].state.amps
    elif case is InitialStateCase.OVERLAP_ONE:
        seed = np.zeros((n, 2), dtype=complex)
        seed[n // 2, 0] = 1.0  # x = 0, right-mover
        amps = edges[0].state.amps + _gram_schmidt(seed, edges)
    else:
        seed = np.zeros((n, 2), dtype=complex)
        seed[n // 2, 0] = 1.0 / math.sqrt(2.0)  # x = 0, right-mover
        seed[n // 2 - 1, 1] = 1.0 / math.sqrt(2.0)  # x = -1, left-mover
        amps = _gram_schmidt(seed, edges)
    amps = amps / np.linalg.norm(amps)
    return WalkerState(amps), edges


@dataclass(eq=False)
class ExperimentRecord:
    """Outcome of one interface-dynamics run."""

    case: InitialStateCase
    spec: InterfaceSpec
    projections: np.ndarray  # onto (eta = 0, eta = pi)
    edge_window_weight: float  # each edge state's probability inside the window
    predicted_weight: float
    plateau: float
    final_prob: float
    alternation: float
    period2_residual: float
    oscillation_detected: bool
    passed: bool
    trajectory: Trajectory


def dynamics_experiment(spec: InterfaceSpec, case: InitialStateCase,
                        steps: int) -> ExperimentRecord:
    """Evolve the case's initial state and compare the late-time interface
    probability with the weight the edge-state pair puts inside the window.

    The rest of the state disperses, so the window keeps the edge part: the
    predicted plateau is sum_i |p_i|^2 W, with p_i the projections onto the
    eta = 0 and eta = pi states and W the probability each of them has inside
    the window.  The two share one modulus profile, so one W serves both.
    Near a gap closing the states spread past the window and W falls well
    below 1.

    The ring must be long enough that no wavefront re-enters the window
    within the run (speed is at most one site per step).
    """
    if steps < MIN_STEPS:
        raise ValidationError(f"steps = {steps}: the experiment needs at least {MIN_STEPS} steps")
    window_width = 2 * WINDOW_HALFWIDTH + 1
    if spec.n_sites < 2 * steps + window_width:
        raise ValidationError(
            f"ring of {spec.n_sites} sites too small: need n_sites >= "
            f"{2 * steps + window_width} to keep wavefronts from wrapping into the window"
        )
    state, edges = initial_state(spec, case)
    projections, _ = overlap_decomposition(state, edges)
    window = window_sites(0, WINDOW_HALFWIDTH, spec.n_sites) + spec.n_sites // 2
    edge_weight = float(np.sum(edges[0].state.site_probabilities()[window]))
    predicted = float(np.sum(np.abs(projections) ** 2)) * edge_weight

    u = spec.walk()
    traj = evolve(u, state, steps, window_center=0, window_halfwidth=WINDOW_HALFWIDTH)

    tail = steps // 4
    plateau = float(np.mean(traj.interface_prob[-tail:]))
    final_prob = float(traj.interface_prob[-1])
    # Two gap states sit a half-zone apart, so their interference flips the
    # parity-signed density each step: strong step-to-step alternation with a
    # near-zero two-step difference.
    stag = traj.staggered_prob[-tail:]
    alternation = float(np.mean(np.abs(np.diff(stag))))
    period2 = float(np.mean(np.abs(stag[2:] - stag[:-2])))
    oscillation = alternation > 0.01 and period2 < 0.2 * alternation

    if case is InitialStateCase.ORTHOGONAL_TO_BOTH:
        passed = final_prob < DEPARTURE_TOL
    elif case is InitialStateCase.OVERLAP_ONE:
        passed = abs(plateau - predicted) < PLATEAU_TOL
    else:
        passed = abs(plateau - predicted) < PLATEAU_TOL and oscillation
    return ExperimentRecord(case, spec, projections, edge_weight, predicted, plateau,
                            final_prob, alternation, period2, oscillation, passed, traj)


def experiment_json_dict(rec: ExperimentRecord) -> dict:
    spec = rec.spec
    return {
        "case": rec.case.value,
        "spec": {
            "delta": spec.delta,
            "alpha": spec.alpha,
            "beta": spec.beta,
            "theta1": spec.theta1,
            "theta2": spec.theta2,
            "n_sites": spec.n_sites,
        },
        "edge_projections": [[z.real, z.imag] for z in rec.projections],
        "edge_window_weight": rec.edge_window_weight,
        "predicted_weight": rec.predicted_weight,
        "plateau": rec.plateau,
        "final_interface_prob": rec.final_prob,
        "alternation": rec.alternation,
        "period2_residual": rec.period2_residual,
        "oscillation_detected": rec.oscillation_detected,
        "thresholds": {"plateau": PLATEAU_TOL, "departure": DEPARTURE_TOL},
        "passed": rec.passed,
    }
