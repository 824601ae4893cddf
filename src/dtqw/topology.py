"""Phase classification of gapped walks from their Brillouin-zone image curves.

The Bloch vectors of all gapped coins sweep out a subset of the unit sphere:
the sphere minus one great circle, plus the two points where that circle
crosses the XY-plane.  The missing circle lies in the plane spanned by the
Z-axis and the in-plane unit vector n_beta = (sin beta, cos beta, 0); the two
surviving points +/- n_beta act as poles connecting the hemispheres.  That
punctured sphere deformation-retracts onto a circle, so every image curve has
a well-defined winding number even without chiral symmetry.

The invariants are closed forms of that retraction.  In the (n_beta, e_w)
basis the upper-band image projects onto -sin(theta) (cos(k - alpha),
sin(k - alpha)) / sin(omega_k), so its retraction angle is exactly k - alpha,
plus pi where sin(theta) > 0: the winding is +1 for every gapped theta and
both bands, and so does not separate phases.  What does separate them is
where the curve sits at the two special momenta k_j = alpha + j*pi: the image
there is the pole -sgn(theta) n_beta at k_0 and +sgn(theta) n_beta at k_1.
Two gapped coins of the same family are deformable into each other with the
special-momentum values held fixed iff they agree on both the winding and the
pole assignment, which yields a two-phase classification and predicts two
interface-localized states (one per gap) between distinct phases.

No k-grid enters the invariants; the numeric curve windings they replace are
the test oracle.  Nor does one enter the gaps: ``classify_sweep`` takes its
gap columns from ``gap_report``'s closed form 2 min(|theta|, pi - |theta|), so
a sweep does no work over k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DOMAIN_TOL, GAP_EPS, CoinParams, coin_matrix, gauged, wrap_angle, wrap_angles
from .errors import ValidationError
from .io import Table
from .momentum import DEFAULT_GRID, band_structure, bloch_vectors, gap_report, k_grid


class FrameVariant(Enum):
    """Rotating frames V = exp(i*phi*sigma_y), phi = ``frame_angle``, that trade
    the theta-dependence of the chiral operator for a theta-dependent change of
    basis.  V1 moves every image curve into the YZ-plane (fixed chiral axis X),
    V2 into the XY-plane (fixed chiral axis Z); for a beta family the gauge
    moves the frame, its axes and the curve alike (``frame_rotation``).  Both
    frames are unitarily equivalent to the lab frame, yet their image curves
    wind differently.
    """

    IDENTITY = "Identity"
    V1 = "V1"
    V2 = "V2"


class PhaseLabel(Enum):
    THETA_POSITIVE = "ThetaPositive"
    THETA_NEGATIVE = "ThetaNegative"

    @classmethod
    def from_pole(cls, at_k1: int) -> "PhaseLabel":
        """The phase of a coin whose image hits pole ``at_k1`` (+1 north) at k_1."""
        return cls.THETA_POSITIVE if at_k1 > 0 else cls.THETA_NEGATIVE


@dataclass(frozen=True)
class ManifoldFrame:
    """Orthonormal in-plane frame (n_beta, e_w) used by the circle retraction.

    n_beta = (sin beta, cos beta, 0) points at the north pole; e_w = Z x n_beta
    spans the retraction circle together with n_beta.  The excluded great
    circle lies in the plane of the Z-axis and n_beta.
    """

    beta: float
    n_beta: np.ndarray
    e_w: np.ndarray


def manifold_frame(beta: float) -> ManifoldFrame:
    beta = wrap_angle(beta)
    n_beta = np.array([math.sin(beta), math.cos(beta), 0.0])
    e_w = np.cross([0.0, 0.0, 1.0], n_beta)
    return ManifoldFrame(beta, n_beta, e_w)


@dataclass(frozen=True)
class PoleAssignment:
    """Which pole the upper-band image hits at each special momentum.

    +1 means the north pole +n_beta, -1 the south pole -n_beta.  The values at
    the two momenta are always opposite (n_{k+pi} = -n_k), and the one at
    k_1 = alpha + pi equals sgn(theta).
    """

    at_k0: int
    at_k1: int


@dataclass(frozen=True)
class RelHomotopyInvariant:
    """Winding of the image curve plus its pole assignment.

    The pole data answers the two yes/no deformability questions (one per
    special momentum); both answers are stored even though they are perfectly
    anti-correlated for this coin family.
    """

    winding_mt: int
    poles: PoleAssignment
    phase_label: PhaseLabel


def _require_gapped(p: CoinParams) -> None:
    if not p.is_gapped:
        raise ValidationError(f"gapless parameters: theta = {p.theta} closes both gaps")


def winding_mt(p: CoinParams, *, grid_size: int = DEFAULT_GRID) -> int:
    """Winding of either band's image curve around the retraction circle: +1.

    Positive values are counterclockwise in the (n_beta, e_w) basis viewed
    from +Z.  The retraction angle of the upper band is k - alpha (plus pi
    where sin theta > 0), and the lower band's curve is -n with the angle
    shifted by pi, so the value is +1 for every gapped coin and both bands;
    no band argument is needed.  ``grid_size`` does not change the value;
    ``bench/spans.py`` reads it.
    """
    _require_gapped(p)
    return 1


def frame_angle(variant: FrameVariant, theta: float) -> float:
    """Angle phi of the frame rotation V = exp(i*phi*sigma_y) at coin angle theta.

    0 for the identity, theta/2 for V1 and theta/2 - sgn(theta)*pi/4 for V2,
    which has no sign to take at |theta| <= GAP_EPS.
    """
    theta = wrap_angle(theta)
    if variant is FrameVariant.IDENTITY:
        return 0.0
    if variant is FrameVariant.V1:
        return 0.5 * theta
    if abs(theta) <= GAP_EPS:
        raise ValidationError(f"V2 frame depends on sgn(theta); undefined at theta = {theta}")
    return 0.5 * theta - math.copysign(math.pi / 4.0, theta)


def frame_rotation(variant: FrameVariant, theta: float, beta: float = 0.0) -> np.ndarray:
    """SU(2) rotation V = exp(i*phi*sigma_y) of the given frame, the real coin at
    phi, moved by the gauge of the beta family: G_beta V G_beta^dagger."""
    return gauged(coin_matrix(CoinParams(0.0, 0.0, 0.0, frame_angle(variant, theta))), beta)


def frame_so3(variant: FrameVariant, theta: float, beta: float = 0.0) -> np.ndarray:
    """SO(3) action of ``frame_rotation``, V' (n.sigma) V'^dagger = (R' n).sigma:
    R' = R_z(-beta) R R_z(beta), R the rotation about Y by -2*phi; R itself
    where they are equal (beta = 0 or the identity frame)."""
    angle = 2.0 * frame_angle(variant, theta)
    c, s = math.cos(angle), math.sin(angle)
    r = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    if beta == 0.0 or variant is FrameVariant.IDENTITY:
        return r
    cb, sb = math.cos(beta), math.sin(beta)
    rz = np.array([[cb, -sb, 0.0], [sb, cb, 0.0], [0.0, 0.0, 1.0]])
    return rz.T @ r @ rz


def rotated_winding(p: CoinParams, variant: FrameVariant) -> int:
    """Winding of the frame-rotated image curve R' n_k (``frame_so3``) about the
    frame's gauge-moved chiral axis, by the right-hand rule: about R_z(-beta) X
    for V1, in the plane of R_z(-beta) Y and Z; about Z for V2, in the XY-plane.

    The closed forms are -sgn(theta) for V1 and +1 for V2, for every gapped
    coin: the gauge moves the curve and the axes alike, and alpha shifts k.
    """
    _require_gapped(p)
    if variant is FrameVariant.IDENTITY:
        raise ValidationError("the identity frame has no chiral axis")
    if variant is FrameVariant.V2:
        return 1
    return -1 if p.theta > 0 else 1


def pole_assignment(p: CoinParams) -> PoleAssignment:
    """The poles the upper-band image hits at the special momenta.

    At k - alpha = 0 and pi the image is -sgn(theta) n_beta and +sgn(theta)
    n_beta: the in-plane part is all of it there, since sin(omega) = |sin theta|.
    """
    _require_gapped(p)
    at_k1 = 1 if p.theta > 0 else -1
    return PoleAssignment(-at_k1, at_k1)


def rel_homotopy_invariant(p: CoinParams) -> RelHomotopyInvariant:
    """The full invariant: winding plus pole assignment plus the phase label."""
    poles = pole_assignment(p)
    return RelHomotopyInvariant(winding_mt(p), poles, PhaseLabel.from_pole(poles.at_k1))


@dataclass(eq=False)
class SweepResult:
    """Gaps and invariants of one family over an array of theta.

    ``winding`` and ``poles`` (pole at k0, k1; +1 north) are 0 where the coin
    is gapless.
    """

    theta: np.ndarray
    gap_at_delta: np.ndarray
    gap_at_delta_plus_pi: np.ndarray
    gapped: np.ndarray
    winding: np.ndarray
    poles: np.ndarray  # (T, 2)


def classify_sweep(p: CoinParams, thetas, grid_size: int = DEFAULT_GRID) -> SweepResult:
    """Gaps and invariants of the coins ``p.with_theta(t)`` for every t in thetas.

    Only p's family is used, not p.theta.  The gap columns are the
    ``gap_report`` of the whole theta array's ``band_structure``, the closed
    form 2 min(|theta|, pi - |theta|): O(T) work and memory, and ``grid_size``
    changes no value.  Winding and poles are the closed forms of winding_mt and
    pole_assignment: +1, and (-sgn theta, sgn theta) at (k0, k1).
    """
    thetas = wrap_angles(np.atleast_1d(thetas))
    g = gap_report(band_structure(p, grid_size, thetas))
    at_k1 = np.where(g.is_gapped, np.where(thetas > 0, 1, -1), 0)
    poles = np.stack([-at_k1, at_k1], axis=-1)
    return SweepResult(thetas, g.gap_at_delta, g.gap_at_delta_plus_pi, g.is_gapped,
                       g.is_gapped.astype(int), poles)


def rel_homotopic(p1: CoinParams, p2: CoinParams) -> bool:
    """Whether two gapped coins of one family are deformable into each other
    with the special-momentum images pinned.

    Equivalent to agreeing on the winding and on both pole assignments, which
    for this coin family reduces to sgn(theta1) == sgn(theta2).
    """
    if any(abs(wrap_angle(a - b)) >= DOMAIN_TOL for a, b in zip(p1.family(), p2.family())):
        raise ValidationError(f"coins do not share (delta, alpha, beta): {p1.family()} "
                              f"vs {p2.family()} (tolerance {DOMAIN_TOL:g})")
    i1, i2 = rel_homotopy_invariant(p1), rel_homotopy_invariant(p2)
    return (i1.winding_mt, i1.poles) == (i2.winding_mt, i2.poles)


def predicted_edge_states(p1: CoinParams, p2: CoinParams) -> int:
    """Number of interface-localized states expected between the two walks:
    zero within one phase, two (one per gap) across distinct phases."""
    return 0 if rel_homotopic(p1, p2) else 2


def pole_letter(sign: int) -> str:
    """Letter of a pole: N for +1 (north), S for -1 (south)."""
    return "N" if sign > 0 else "S"


def invariant_json_dict(inv: RelHomotopyInvariant) -> dict:
    return {
        "winding_mt": inv.winding_mt,
        "pole_k0": pole_letter(inv.poles.at_k0),
        "pole_k1": pole_letter(inv.poles.at_k1),
        "phase_label": inv.phase_label.value,
    }


def sweep_table(sweep: SweepResult) -> Table:
    """One row per theta.  Where the coin is gapless the winding and pole
    cells are empty and the label is "Gapless".  The last four columns are
    object arrays: the winding's Python ints, which JSON writes as numbers,
    and shared strings."""
    # per (theta, special momentum): 0 where gapless, 1 at the south pole, 2 at the north
    index = sweep.gapped[:, None] * (1 + (sweep.poles > 0))
    letters = np.array(["", "S", "N"], dtype=object)
    labels = np.array(["Gapless", PhaseLabel.THETA_NEGATIVE.value,
                       PhaseLabel.THETA_POSITIVE.value], dtype=object)
    return Table(["theta", "gap_delta", "gap_delta_plus_pi", "winding",
                  "pole_k0", "pole_k1", "phase_label"],
                 sweep.theta, sweep.gap_at_delta, sweep.gap_at_delta_plus_pi,
                 np.where(sweep.gapped, sweep.winding.astype(object), ""),
                 letters[index[:, 0]], letters[index[:, 1]], labels[index[:, 1]])


def bz_image_table(
    p: CoinParams, variant: FrameVariant = FrameVariant.IDENTITY, grid_size: int = DEFAULT_GRID
) -> Table:
    """The image curve, rotated by the frame's gauge-moved ``frame_so3`` (the
    curve ``rotated_winding`` winds), one row per k, tagged by frame."""
    _require_gapped(p)
    rot = frame_so3(variant, p.theta, p.beta)
    ks = k_grid(grid_size)
    n, _, _ = bloch_vectors(p, ks)
    curve = n @ rot.T
    return Table(["k", "n_x", "n_y", "n_z", "frame"], ks, *curve.T,
                 np.full(ks.shape, variant.value))
