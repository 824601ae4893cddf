"""Symmetry operators of the walk and numerical certification of their
(anti)commutation relations.

Certified relations, each on its stated domain:

* sublattice: the alternating-sign site operator anticommutes with the walk
  on any even ring, for any theta profile;
* particle-hole (alpha a lattice momentum 2 pi m / N of the ring only): the
  antiunitary built from the squared gauge transformation conjugates the walk
  into itself (times a global phase when delta != 0);
* parity: i n_beta . sigma maps the Bloch Hamiltonian at k to the one at
  2*alpha - k;
* chiral (beta = 0 only): exp(-i pi/2 m . sigma) with m = (cos theta, 0,
  -sin theta) anticommutes with the traceless Bloch Hamiltonian.

Time-shifted products V U V^dagger of the same walk, V the rotation of the V1
or V2 frame, are built here as well; they share the walk's spectrum while
their image curves wind differently.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (DOMAIN_TOL, GAP_EPS, ID2, RESIDUAL_TOL, CoinParams, coin_matrices,
                   is_commensurate, pauli_compose, phs_operator, wrap_angle)
from .errors import ValidationError
from .io import json_complex
from .lattice import (ThetaProfile, WalkOperator, build_walk, check_dense, eigenvalues,
                      ring_sites)
from .momentum import bloch_hamiltonian, bloch_vectors
from .topology import FrameVariant, frame_angle, frame_rotation, frame_so3, manifold_frame

# Spectral norm up to this matrix dimension, max-entry norm beyond.
SPECTRAL_NORM_CAP = 64

SPECTRUM_TOL = 1e-10  # the time-shift spectra; RESIDUAL_TOL for every other relation
# Momenta of the PS and CS checks; those where the coin or its parity partner
# is degenerate are skipped, and the reports echo the rest as k_samples.
K_SAMPLES = (-2.0, -0.7, 0.4, 1.3, 2.6)


def norm_kind(dim: int) -> str:
    """The norm operator_norm takes of a dim x dim matrix."""
    return "spectral" if dim <= SPECTRAL_NORM_CAP else "max-entry"


def operator_norm(m: np.ndarray) -> float:
    """Max singular value for small matrices, max entry beyond (norm_kind)."""
    if norm_kind(m.shape[0]) == "spectral":
        return float(np.linalg.norm(m, 2))
    return float(np.max(np.abs(m)))


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of one certified relation."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    norm: str
    context: dict = field(default_factory=dict)


def sublattice_residual(u: WalkOperator) -> float:
    """|| L U L^-1 + U || with L the alternating-sign site operator.

    Vanishes for every theta profile: a single step only couples neighboring
    sites, which alternate sign.
    """
    mat = u.dense()
    signs = np.repeat(1 - 2 * (ring_sites(u.n_sites) & 1), 2)
    return operator_norm(signs[:, None] * mat * signs[None, :] + mat)


def phs_residual(u: WalkOperator, p: CoinParams | None = None) -> tuple[float, complex]:
    """Best-fit residual of the particle-hole relation, plus the fitted phase.

    Computes ||Omega U Omega^-1 - lambda U|| minimized over unit-modulus
    lambda.  For delta = 0 the fitted lambda is 1; for delta != 0 the relation
    holds up to a delta-dependent global phase, which is reported rather than
    assumed.
    """
    if p is None:
        p = CoinParams(u.delta, u.alpha, u.beta, float(u.profile.thetas[0]))
    omega = phs_operator(p.alpha, p.beta)
    omega.check_commensurate(u.n_sites)
    mat = u.dense()
    d = omega.gauge_matrix(ring_sites(u.n_sites))
    conjugated = d[:, None] * mat.conj() * d.conj()[None, :]
    inner = complex(np.vdot(mat, conjugated))
    lam = inner / abs(inner) if abs(inner) > 0 else 1.0 + 0j
    return operator_norm(conjugated - lam * mat), complex(lam)


def parity_residual_bloch(p: CoinParams, k: float) -> float:
    """|| P H_k P^-1 - H_{2 alpha - k} || with P = i n_beta . sigma.

    At the special momenta k = alpha + j*pi this reduces to a commutator.
    Raises ValidationError if the gap closes at either momentum.
    """
    k_mirror = wrap_angle(2.0 * p.alpha - k)
    par = 1j * pauli_compose(0, manifold_frame(p.beta).n_beta)
    h_k = bloch_hamiltonian(p, k)
    h_m = bloch_hamiltonian(p, k_mirror)
    return float(np.linalg.norm(par @ h_k @ par.conj().T - h_m, 2))


def chiral_vector(theta: float) -> np.ndarray:
    """Unit vector m = (cos theta, 0, -sin theta), orthogonal to every Bloch
    vector of the beta = 0 coin: the V1 frame's chiral axis X in the lab frame,
    R^T X with R the frame's SO(3) action."""
    return frame_so3(FrameVariant.V1, theta)[0]


def chiral_operator(theta: float) -> np.ndarray:
    """exp(-i pi/2 m . sigma) = -i m . sigma; eigenvalues +/- i for every theta."""
    return -1j * pauli_compose(0, chiral_vector(theta))


def chiral_residual(p: CoinParams, k: float) -> float:
    """Anticommutation residual of the chiral operator with the traceless
    Bloch Hamiltonian; defined only for beta = 0 (|beta| < DOMAIN_TOL).

    The traceless part is used because the identity component delta*I commutes
    with everything and would fail anticommutation trivially for delta != 0.
    """
    if abs(p.beta) >= DOMAIN_TOL:
        raise ValidationError(f"chiral relation holds only for beta = 0, got beta = {p.beta} "
                              f"(tolerance {DOMAIN_TOL:g})")
    gamma = chiral_operator(p.theta)
    h0 = bloch_hamiltonian(p, k) - p.delta * ID2
    return float(np.linalg.norm(gamma @ h0 @ gamma.conj().T + h0, 2))


def timeshift_walk(p: CoinParams, variant, n_sites: int) -> WalkOperator:
    """Rearranged one-step operator for a homogeneous alpha = beta = 0 walk.

    With V = exp(i phi sigma_y) the frame rotation, the coin C(delta/2, theta - phi)
    before the shift and C(delta/2, phi) after it make V U V^dagger: V1 splits
    the coin in half around the shift, V2 asymmetrically.  Both share the plain
    walk's spectrum.
    """
    if not p.has_fixed_frames:
        raise ValidationError("time-shifted products are defined for alpha = beta = 0, got "
                              f"alpha = {p.alpha}, beta = {p.beta} (tolerance {DOMAIN_TOL:g})")
    if abs(p.theta) <= GAP_EPS:
        raise ValidationError(f"theta = {p.theta} has no sign; time-shifted split undefined")
    if variant is FrameVariant.IDENTITY:
        return build_walk(p, n_sites=n_sites)
    profile = ThetaProfile.homogeneous(p.theta, n_sites)
    phi = frame_angle(variant, p.theta)
    first, second = coin_matrices(p.delta / 2.0, 0.0, 0.0, [p.theta - phi, phi])
    return WalkOperator(p.delta, p.alpha, p.beta, profile,
                        np.broadcast_to(first, (n_sites, 2, 2)), post=second)


def spectrum_match_residual(u: WalkOperator, *others: WalkOperator) -> float:
    """Largest Hausdorff-style distance between the eigenvalue set of u and
    that of each other operator; u's spectrum is computed once, every spectrum
    from the sublattice split (lattice.eigenvalues)."""
    e = eigenvalues(u)
    res = 0.0
    for other in others:
        d = np.abs(e[:, None] - eigenvalues(other)[None, :])
        res = max(res, np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0)))
    return float(res)


def _context(p: CoinParams, **extra) -> dict:
    ctx = {"delta": p.delta, "alpha": p.alpha, "beta": p.beta, "theta": p.theta}
    ctx.update(extra)
    return ctx


def run_symmetry_suite(p: CoinParams, n_sites: int = 8, seed: int = 0) -> list[SymmetryReport]:
    """Certify every relation applicable to the given parameters.

    Returns one report per check; reports for relations whose domain excludes
    the parameters are omitted by the test its function refuses on: PHS unless
    is_commensurate(alpha, N), CS for |beta| >= DOMAIN_TOL, the time shifts
    unless p.has_fixed_frames and |theta| > GAP_EPS.
    """
    check_dense(n_sites)  # every suite takes the dense operator: refuse before building
    rng = np.random.default_rng(seed)
    reports = []
    norm = norm_kind(2 * n_sites)
    u = build_walk(p, n_sites=n_sites)

    res = sublattice_residual(u)
    reports.append(SymmetryReport("SUB", res, RESIDUAL_TOL, res < RESIDUAL_TOL,
                                  norm, _context(p, n_sites=n_sites)))

    omega_op = phs_operator(p.alpha, p.beta)
    if is_commensurate(omega_op.alpha, n_sites):
        res, lam = phs_residual(u, p)
        probe = rng.standard_normal((n_sites, 2)) + 1j * rng.standard_normal((n_sites, 2))
        probe /= np.linalg.norm(probe)
        sites = ring_sites(n_sites)
        involution = float(np.linalg.norm(
            omega_op.apply(omega_op.apply(probe, sites), sites) - probe))
        reports.append(SymmetryReport(
            "PHS", res, RESIDUAL_TOL, res < RESIDUAL_TOL, norm,
            _context(p, n_sites=n_sites, global_phase=json_complex(lam),
                     involution_residual=involution, seed=seed)))

    ks = [k for k in K_SAMPLES
          if not bloch_vectors(p, [k, wrap_angle(2 * p.alpha - k)])[2].any()]
    res = max(parity_residual_bloch(p, k) for k in ks)
    reports.append(SymmetryReport("PS", res, RESIDUAL_TOL, res < RESIDUAL_TOL,
                                  "spectral", _context(p, k_samples=list(ks))))

    if abs(p.beta) < DOMAIN_TOL:
        res = max(chiral_residual(p, k) for k in ks)
        reports.append(SymmetryReport("CS", res, RESIDUAL_TOL, res < RESIDUAL_TOL,
                                      "spectral", _context(p, k_samples=list(ks))))

    if p.has_fixed_frames and abs(p.theta) > GAP_EPS:
        u1 = timeshift_walk(p, FrameVariant.V1, n_sites)
        v1 = frame_conjugated_walk(p, FrameVariant.V1, n_sites)
        res = operator_norm(u1.dense() - v1)
        reports.append(SymmetryReport("TimeShiftV1", res, RESIDUAL_TOL,
                                      res < RESIDUAL_TOL, norm,
                                      _context(p, n_sites=n_sites)))

        u2 = timeshift_walk(p, FrameVariant.V2, n_sites)
        res = spectrum_match_residual(u, u1, u2)
        reports.append(SymmetryReport("TimeShiftV2", res, SPECTRUM_TOL,
                                      res < SPECTRUM_TOL, "eigenvalue",
                                      _context(p, n_sites=n_sites)))
    return reports


def frame_conjugated_walk(p: CoinParams, variant, n_sites: int) -> np.ndarray:
    """Dense V U V^-1 for a homogeneous walk and the frame rotation V on every
    site, O(N^2): V mixes the coin index of each row pair, V^dagger that of
    each column pair."""
    v = frame_rotation(variant, p.theta)
    n = n_sites
    rows = v @ build_walk(p, n_sites=n).dense().reshape(n, 2, 2 * n)
    return (rows.reshape(-1, 2) @ v.conj().T).reshape(2 * n, 2 * n)


def reports_json(reports: list[SymmetryReport]) -> list[dict]:
    return [asdict(r) for r in reports]
