"""Symmetry operators of the walk and numerical certification of their
(anti)commutation relations.

Each relation is the alpha = beta = 0 one moved by the gauge (``core.gauged``):

* sublattice: the alternating-sign site operator anticommutes with the walk
  on any even ring, for any theta profile;
* particle-hole (alpha a lattice momentum 2 pi m / N of the ring only): the
  antiunitary built from the squared gauge transformation conjugates the walk
  into itself (times a global phase when delta != 0);
* parity: G_beta (i sigma_y) G_beta^dagger = i n_beta . sigma maps the Bloch
  Hamiltonian at k to the one at 2*alpha - k;
* chiral: G_beta exp(-i pi/2 m . sigma) G_beta^dagger with m = (cos theta, 0,
  -sin theta) anticommutes with the traceless Bloch Hamiltonian.

Time-shifted products V' U V'^dagger of the same walk, V' the gauge-moved
rotation of the V1 or V2 frame, are built here as well; they share the walk's
spectrum while their image curves wind differently.

Every ring relation takes O(N) work: SUB, PHS and TimeShiftV1 compare hopping
blocks (``WalkOperator.hopping``) in the bound sqrt(||M||_1 ||M||_inf) on the
operator norm (``walk_norm``), TimeShiftV2 2 x 2 Bloch spectra.  PS and CS are
spectral norms of 2 x 2 Bloch matrices.  Nothing is drawn at random: the PHS
involution residual is exact on the gauge diagonal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (GAP_EPS, ID2, RESIDUAL_TOL, SIGMA_Y, CoinParams, coin_matrices, gauged,
                   is_commensurate, pauli_compose, phs_operator, wrap_angle)
from .errors import ValidationError
from .io import json_complex
from .lattice import WalkOperator, bloch_eigenvalues, build_walk, check_ring, ring_sites
from .momentum import bloch_hamiltonian, bloch_vectors
from .topology import FrameVariant, frame_angle, frame_rotation, frame_so3

SPECTRUM_TOL = 1e-10  # the time-shift spectra; RESIDUAL_TOL for every other relation
# Momenta of the PS and CS checks; those where the coin or its parity partner
# is degenerate are skipped, and the reports echo the rest as k_samples.
K_SAMPLES = (-2.0, -0.7, 0.4, 1.3, 2.6)


def walk_norm(right: np.ndarray, left: np.ndarray) -> float:
    """sqrt(||M||_1) sqrt(||M||_inf), an upper bound on the operator norm of
    the ring matrix M with blocks right[x] at (x + 1, x) and left[x] at
    (x - 1, x) (``WalkOperator.hopping``), in O(N): the largest column and
    row sums of |entries|, row y taking right[y - 1] and left[y + 1].  Each sum
    has its own root, as their product underflows for entries near 1e-264."""
    right, left = np.abs(right), np.abs(left)
    cols = right.sum(axis=1) + left.sum(axis=1)
    rows = np.roll(right.sum(axis=2), 1, 0) + np.roll(left.sum(axis=2), -1, 0)
    return float(np.sqrt(cols.max()) * np.sqrt(rows.max()))


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of one certified relation."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    norm: str
    context: dict


def sublattice_residual(u: WalkOperator) -> float:
    """|| L U L^-1 + U || with L the alternating-sign site operator.

    Vanishes for every theta profile: a single step only couples neighboring
    sites, which alternate sign.  Computed on the hopping blocks.
    """
    right, left = u.hopping()
    signs = (1 - 2 * (ring_sites(u.n_sites) & 1))[:, None, None]
    return walk_norm(np.roll(signs, -1, 0) * right * signs + right,
                     np.roll(signs, 1, 0) * left * signs + left)


def phs_residual(u: WalkOperator, p: CoinParams | None = None) -> tuple[float, complex]:
    """Best-fit residual of the particle-hole relation, plus the fitted phase.

    Computes ||Omega U Omega^-1 - lambda U|| minimized over unit-modulus
    lambda.  For delta = 0 the fitted lambda is 1; for delta != 0 the relation
    holds up to a delta-dependent global phase, which is reported rather than
    assumed.  Omega is the operator of p's alpha and beta, of alpha = beta = 0
    with no p.  Computed on the hopping blocks; lambda's inner product is one
    pairwise sum (``np.add.reduce``), whose error does not grow with N.
    """
    omega = phs_operator(0.0, 0.0) if p is None else phs_operator(p.alpha, p.beta)
    omega.check_commensurate(u.n_sites)
    blocks = u.hopping()
    d = omega.gauge_matrix(ring_sites(u.n_sites)).reshape(-1, 2)
    conjugated = [np.roll(d, shift, 0)[:, :, None] * b.conj() * d.conj()[:, None, :]
                  for shift, b in zip((-1, 1), blocks)]
    inner = complex(np.add.reduce(np.concatenate(
        [(b.conj() * c).ravel() for b, c in zip(blocks, conjugated)])))
    lam = inner / abs(inner) if abs(inner) > 0 else 1.0 + 0j
    return walk_norm(*(c - lam * b for b, c in zip(blocks, conjugated))), complex(lam)


def parity_residual_bloch(p: CoinParams, k: float) -> float:
    """|| P H_k P^-1 - H_{2 alpha - k} || with P = G_beta (i sigma_y) G_beta^dagger,
    that is i n_beta . sigma.

    At the special momenta k = alpha + j*pi this reduces to a commutator.
    Raises ValidationError if the gap closes at either momentum.
    """
    k_mirror = wrap_angle(2.0 * p.alpha - k)
    par = gauged(1j * SIGMA_Y, p.beta)
    h_k = bloch_hamiltonian(p, k)
    h_m = bloch_hamiltonian(p, k_mirror)
    return float(np.linalg.norm(par @ h_k @ par.conj().T - h_m, 2))


def chiral_vector(theta: float) -> np.ndarray:
    """Unit vector m = (cos theta, 0, -sin theta), orthogonal to every Bloch
    vector of the beta = 0 coin: the V1 frame's chiral axis X in the lab frame,
    R^T X with R the frame's SO(3) action.  The gauge moves it to R_z(-beta) m."""
    return frame_so3(FrameVariant.V1, theta)[0]


def chiral_operator(theta: float) -> np.ndarray:
    """exp(-i pi/2 m . sigma) = -i m . sigma; eigenvalues +/- i for every theta."""
    return -1j * pauli_compose(0, chiral_vector(theta))


def chiral_residual(p: CoinParams, k: float) -> float:
    """Anticommutation residual of the gauge-moved chiral operator
    G_beta Gamma(theta) G_beta^dagger with the traceless Bloch Hamiltonian.

    The traceless part is used because the identity component delta*I commutes
    with everything and would fail anticommutation trivially for delta != 0.
    """
    gamma = gauged(chiral_operator(p.theta), p.beta)
    h0 = bloch_hamiltonian(p, k) - p.delta * ID2
    return float(np.linalg.norm(gamma @ h0 @ gamma.conj().T + h0, 2))


def timeshift_walk(p: CoinParams, variant, n_sites: int) -> WalkOperator:
    """Rearranged one-step operator V' U V'^dagger of a homogeneous walk, any alpha.

    With V' = G_beta V G_beta^dagger the frame rotation, D_alpha G_beta C G_beta^dagger
    before the shift and G_beta C' G_beta^dagger after it, C = C(delta/2, theta - phi)
    and C' = C(delta/2, phi) at alpha = beta = 0, make V' U V'^dagger: V1 splits the
    coin in half around the shift, V2 asymmetrically.  Both share U's spectrum.
    """
    if abs(p.theta) <= GAP_EPS:
        raise ValidationError(f"theta = {p.theta} has no sign; time-shifted split undefined")
    if variant is FrameVariant.IDENTITY:
        return build_walk(p, n_sites=n_sites)
    check_ring(n_sites)
    phi = frame_angle(variant, p.theta)
    first = coin_matrices(p.delta / 2.0, p.alpha, p.beta, p.theta - phi)
    second = coin_matrices(p.delta / 2.0, 0.0, p.beta, phi)
    return WalkOperator(np.broadcast_to(first, (n_sites, 2, 2)), post=second)


def _nearest_distances(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Distance from each point of e to the nearest point of f, both on the
    unit circle to round-off: that point is one of the two neighbours of e's
    eigenphase among f's sorted eigenphases, O(N log N)."""
    f = f[np.argsort(np.angle(f))]
    i = np.searchsorted(np.angle(f), np.angle(e))
    return np.minimum(np.abs(e - f[i - 1]), np.abs(e - f[i % f.size]))


def spectrum_match_residual(u: WalkOperator, *others: WalkOperator) -> float:
    """Largest Hausdorff distance between the eigenvalue set of u and that of
    each other walk, every walk homogeneous: each spectrum from its 2 x 2 Bloch
    matrices (lattice.bloch_eigenvalues, which raises ValidationError for a
    walk that is not homogeneous), u's once."""
    e = bloch_eigenvalues(u)
    res = 0.0
    for other in others:
        f = bloch_eigenvalues(other)
        res = max(res, np.max(_nearest_distances(e, f)), np.max(_nearest_distances(f, e)))
    return float(res)


def run_symmetry_suite(p: CoinParams, n_sites: int = 8) -> list[SymmetryReport]:
    """Certify every relation applicable to the given parameters.

    Returns one report per check; two are omitted by the test their function
    refuses on: PHS unless is_commensurate(alpha, N), the time shifts unless
    |theta| > GAP_EPS.
    """
    reports = []

    def report(name, residual, norm, tolerance=RESIDUAL_TOL, **context):
        context = {"delta": p.delta, "alpha": p.alpha, "beta": p.beta, "theta": p.theta,
                   **context}
        reports.append(SymmetryReport(name, residual, tolerance, residual < tolerance, norm,
                                      context))

    u = build_walk(p, n_sites=n_sites)
    report("SUB", sublattice_residual(u), "l1-linf", n_sites=n_sites)

    omega = phs_operator(p.alpha, p.beta)
    if is_commensurate(omega.alpha, n_sites):
        res, lam = phs_residual(u, p)
        # Omega^2 psi = |D|^2 psi for the gauge diagonal D
        d = omega.gauge_matrix(ring_sites(n_sites))
        report("PHS", res, "l1-linf", n_sites=n_sites, global_phase=json_complex(lam),
               involution_residual=float(np.max(np.abs(np.abs(d) ** 2 - 1.0))))

    ks = [k for k in K_SAMPLES
          if not bloch_vectors(p, [k, wrap_angle(2 * p.alpha - k)])[2].any()]
    report("PS", max(parity_residual_bloch(p, k) for k in ks), "spectral", k_samples=ks)
    report("CS", max(chiral_residual(p, k) for k in ks), "spectral", k_samples=ks)

    if abs(p.theta) > GAP_EPS:
        u1 = timeshift_walk(p, FrameVariant.V1, n_sites)
        v1 = frame_conjugated_walk(p, FrameVariant.V1, n_sites)
        report("TimeShiftV1", walk_norm(*(a - b for a, b in zip(u1.hopping(), v1.hopping()))),
               "l1-linf", n_sites=n_sites)
        u2 = timeshift_walk(p, FrameVariant.V2, n_sites)
        report("TimeShiftV2", spectrum_match_residual(u, u1, u2), "eigenvalue", SPECTRUM_TOL,
               n_sites=n_sites)
    return reports


def frame_conjugated_walk(p: CoinParams, variant, n_sites: int) -> WalkOperator:
    """V' U V'^dagger for a homogeneous walk U = S C and the gauge-moved frame
    rotation V' on every site, exactly: V' S C V'^dagger = V' S (C V'^dagger),
    the walk with coins C V'^dagger and ``post`` V', O(N)."""
    v = frame_rotation(variant, p.theta, p.beta)
    return WalkOperator(build_walk(p, n_sites=n_sites).coins @ v.conj().T, post=v)


def reports_json(reports: list[SymmetryReport]) -> list[dict]:
    return [asdict(r) for r in reports]
