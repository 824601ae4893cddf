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
the test oracle.  ``classify_sweep`` takes its gap columns from the band's
extremes, which sit at the grid's extremes of cos(k - alpha), so a sweep
does no (theta, k) pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DOMAIN_TOL, GAP_EPS, CoinParams, coin_matrix, wrap_angle, wrap_angles
from .errors import ValidationError
from .momentum import DEFAULT_GRID, band_structure, bloch_vectors, gap_report, k_grid


class FrameVariant(Enum):
    """Rotating frames V = exp(i*phi*sigma_y), phi = ``frame_angle``, that trade
    the theta-dependence of the chiral operator for a theta-dependent change of
    basis.  V1 moves every image curve into the YZ-plane (fixed chiral axis X),
    V2 into the XY-plane (fixed chiral axis Z).  Both frames are unitarily
    equivalent to the lab frame, yet their image curves wind differently.
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


def winding_mt(p: CoinParams, grid_size: int = DEFAULT_GRID) -> int:
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


def frame_rotation(variant: FrameVariant, theta: float) -> np.ndarray:
    """SU(2) rotation exp(i*phi*sigma_y) of the given frame: the real coin at phi."""
    return coin_matrix(CoinParams(0.0, 0.0, 0.0, frame_angle(variant, theta)))


def frame_so3(variant: FrameVariant, theta: float) -> np.ndarray:
    """SO(3) action R of the frame rotation, V (n.sigma) V^dagger = (R n).sigma:
    the rotation about Y by -2*phi."""
    angle = 2.0 * frame_angle(variant, theta)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rotated_winding(p: CoinParams, variant: FrameVariant) -> int:
    """Winding of the frame-rotated image curve R n_k about the frame's chiral
    axis, by the right-hand rule: in the (Y, Z) plane about X for V1, in the
    (X, Y) plane about Z for V2.

    The closed forms are -sgn(theta) for V1 and +1 for V2.  The frames'
    chiral planes are fixed only for alpha = beta = 0; any other coin raises
    ValidationError.
    """
    _require_gapped(p)
    if variant is FrameVariant.IDENTITY:
        raise ValidationError("the identity frame has no chiral axis")
    if not p.has_fixed_frames:
        raise ValidationError("frame windings are defined for alpha = beta = 0, got "
                              f"alpha = {p.alpha}, beta = {p.beta} (tolerance {DOMAIN_TOL:g})")
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
    ``gap_report`` of the whole theta array's ``band_structure``, which reads
    the sampled band's extremes at the grid's extremes of cos(k - alpha): O(T +
    K) work and memory, no (theta, k) array.  Winding and poles are the closed
    forms of winding_mt and pole_assignment: +1, and (-sgn theta, sgn theta) at
    (k0, k1).
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


BZ_IMAGE_CSV_HEADER = ["k", "n_x", "n_y", "n_z", "frame"]


def bz_image_table(
    p: CoinParams, variant: FrameVariant = FrameVariant.IDENTITY, grid_size: int = DEFAULT_GRID
) -> list[list]:
    """Rows (k, n_x, n_y, n_z, frame tag) of the (optionally rotated) image curve."""
    _require_gapped(p)
    rot = frame_so3(variant, p.theta)
    ks = k_grid(grid_size)
    n, _, _ = bloch_vectors(p, ks)
    curve = n @ rot.T
    return [
        [float(k), float(v[0]), float(v[1]), float(v[2]), variant.value]
        for k, v in zip(ks, curve)
    ]
