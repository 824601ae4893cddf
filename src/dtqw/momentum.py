"""Momentum-space analysis of the translation-invariant walk.

For a homogeneous coin the one-step operator diagonalizes in the plane-wave
basis; at quasimomentum k it reduces to the 2x2 matrix
``diag(exp(-ik), exp(ik)) @ C``.  Its effective Hamiltonian is

    H_k = delta*I + omega_k * (n_k . sigma),

with the quasienergy dispersion ``cos(omega_k) = cos(theta) cos(k - alpha)``
(omega_k in [0, pi]) and the unit Bloch vector

    n_k = (sin(theta) sin(k-a'), -sin(theta) cos(k-a'), cos(theta) sin(k-a)) / sin(omega_k),

where a = alpha and a' = alpha + beta.  The quasienergy bands are
delta +/- omega_k, each defined modulo 2*pi.

The normalization uses the exact identity
sin(omega_k) = hypot(sin(theta), cos(theta) sin(k - a)), and omega_k is
atan2(sin omega_k, cos(theta) cos(k - a)) everywhere; both keep every digit
near omega_k in {0, pi}.  The Bloch routine takes a block of theta values at
once, and ``band_structure`` samples either one coin or such a block, each
array (the k-grid too) when first read.  The band's extremes sit at the
special momenta k = a and a + pi, where omega is |theta| and pi - |theta|, so
both gaps are 2 min(|theta|, pi - |theta|) and ``gap_report`` takes that
closed form without sampling the band.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (GAP_EPS, ID2, CoinParams, coin_matrix, gapped, pauli_compose, wrap_angle,
                   wrap_angles)
from .errors import ValidationError
from .io import Table

DEFAULT_GRID = 512
# A larger grid is refused before any array is built: 1024 times the largest in use.
MAX_GRID = 2**20


@dataclass(frozen=True)
class KTrig:
    """Trig of a k-array relative to one (alpha, beta) family: the part of the
    Bloch vectors that does not depend on theta."""

    cos_a: np.ndarray  # cos(k - alpha)
    sin_a: np.ndarray  # sin(k - alpha)
    cos_ab: np.ndarray  # cos(k - alpha - beta)
    sin_ab: np.ndarray  # sin(k - alpha - beta)


def k_trig(alpha: float, beta: float, k) -> KTrig:
    """Family trig on a 1-D k-array."""
    k = np.asarray(k, dtype=float)
    ka = k - alpha
    kab = k - (alpha + beta)
    return KTrig(np.cos(ka), np.sin(ka), np.cos(kab), np.sin(kab))


def bloch_block(trig: KTrig, thetas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors of the coins theta at the trig's K momenta (a last axis).

    Returns (n, sin_omega, degenerate): for thetas of shape S, n has shape
    S + (K, 3) and NaN rows at degenerate points, where sin omega <= GAP_EPS.
    """
    thetas = np.asarray(thetas, dtype=float)[..., None]
    st, ct = np.sin(thetas), np.cos(thetas)
    n_z = ct * trig.sin_a
    sin_w = np.sqrt(st * st + n_z * n_z)  # hypot(st, n_z), >= |st|
    degenerate = sin_w <= GAP_EPS
    n = np.empty(sin_w.shape + (3,))
    n[..., 0] = st * trig.sin_ab
    n[..., 1] = -st * trig.cos_ab
    n[..., 2] = n_z
    with np.errstate(divide="ignore", invalid="ignore"):
        n /= sin_w[..., None]
    if degenerate.any():
        n[degenerate] = np.nan
    return n, sin_w, degenerate


def _omega(trig: KTrig, thetas, sin_w: np.ndarray) -> np.ndarray:
    """omega = atan2(sin_w, cos theta cos(k - alpha)) in [0, pi], as ``bloch_block`` broadcasts."""
    return np.arctan2(sin_w, np.cos(np.asarray(thetas, dtype=float))[..., None] * trig.cos_a)


def dispersion(p: CoinParams, k) -> float | np.ndarray:
    """Quasienergy omega_k in [0, pi]; accepts scalar or array k."""
    k = np.asarray(k, dtype=float)
    trig = k_trig(p.alpha, p.beta, k)
    w = _omega(trig, p.theta, bloch_block(trig, p.theta)[1]).reshape(k.shape)
    return float(w) if k.ndim == 0 else w


def bloch_vectors(p: CoinParams, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors of one coin on a 1-D k-array: (vectors, sin_omega, degenerate mask).

    Unlike ``bloch_vector`` this flags degenerate momenta instead of raising.
    """
    return bloch_block(k_trig(p.alpha, p.beta, k), p.theta)


def _bloch_point(p: CoinParams, k: float) -> tuple[np.ndarray, float]:
    """(n_k, sin omega_k); raises ValidationError where the gap closes."""
    n, sin_w, degenerate = bloch_vectors(p, [float(k)])
    if degenerate[0]:
        raise ValidationError(f"degenerate point: Bloch vector undefined at k = {k}, "
                              f"theta = {p.theta} (omega in {{0, pi}})")
    return n[0], float(sin_w[0])


def bloch_vector(p: CoinParams, k: float) -> np.ndarray:
    """Unit Bloch vector n_k.

    Raises ValidationError at momenta where the gap closes (sin omega_k ~ 0).
    """
    return _bloch_point(p, k)[0]


def bloch_hamiltonian(p: CoinParams, k: float) -> np.ndarray:
    """H_k = delta*I + omega_k n_k . sigma (Hermitian, eigenvalues delta +/- omega_k).

    omega_k is ``dispersion``'s atan2(sin omega_k, cos theta cos(k - alpha)),
    here in scalar arithmetic.
    """
    n, sin_w = _bloch_point(p, k)
    omega = math.atan2(sin_w, math.cos(p.theta) * math.cos(k - p.alpha))
    return p.delta * ID2 + omega * pauli_compose(0, n)


def momentum_step_matrix(p: CoinParams, k: float) -> np.ndarray:
    """The 2x2 walk matrix at momentum k: diag(exp(-ik), exp(ik)) @ C.

    Satisfies expm(-1j * bloch_hamiltonian(p, k)) == momentum_step_matrix(p, k);
    the sign of the shift phases is pinned by that identity.
    """
    return np.diag([np.exp(-1j * k), np.exp(1j * k)]) @ coin_matrix(p)


def check_grid(grid_size: int, name: str = "grid_size") -> int:
    """The one k-grid rule: at least 8 points and at most MAX_GRID, else ValidationError."""
    if grid_size < 8:
        raise ValidationError(f"{name} must be at least 8, got {grid_size}")
    if grid_size > MAX_GRID:
        raise ValidationError(f"{name} must be at most {MAX_GRID}, got {grid_size}")
    return grid_size


def k_grid(grid_size: int) -> np.ndarray:
    """Uniform Brillouin-zone grid over (-pi, pi], endpoint -pi excluded."""
    return -np.pi + 2.0 * np.pi * np.arange(1, check_grid(grid_size) + 1) / grid_size


@dataclass(eq=False)
class BandStructure:
    """Dispersion and Bloch vectors sampled on a uniform closed k-grid.

    The band of one coin has arrays over k.  The band of a theta-block
    (``thetas`` set) has a leading theta axis on ``omega``, ``n`` and
    ``degenerate``; ``band_table`` is for one coin only.  Every array, the
    grid ``k`` and its family trig included, is computed when first read and
    then kept, so a band whose gaps alone are read does no work over k.
    """

    params: CoinParams
    grid_size: int
    thetas: np.ndarray | None = None

    @property
    def _theta(self) -> np.ndarray:
        """The coin's theta (0-d) or the block's thetas (1-d)."""
        return np.asarray(self.params.theta if self.thetas is None else self.thetas)

    @functools.cached_property
    def k(self) -> np.ndarray:
        return k_grid(self.grid_size)

    @functools.cached_property
    def trig(self) -> KTrig:
        return k_trig(self.params.alpha, self.params.beta, self.k)

    @functools.cached_property
    def omega(self) -> np.ndarray:
        return _omega(self.trig, self._theta, self._bloch[1])

    @functools.cached_property
    def _bloch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return bloch_block(self.trig, self._theta)

    n = property(lambda self: self._bloch[0])  # (..., grid_size, 3); NaN rows where degenerate
    degenerate = property(lambda self: self._bloch[2])  # bool mask: sin omega <= GAP_EPS

    def quasienergies(self) -> tuple[np.ndarray, np.ndarray]:
        """Both bands delta +/- omega_k, wrapped to the first Floquet zone."""
        return (
            wrap_angles(self.params.delta + self.omega),
            wrap_angles(self.params.delta - self.omega),
        )


@dataclass(frozen=True)
class GapReport:
    """Sizes of the two quasienergy gaps (around delta and around delta + pi).

    Both are 2 min(|theta|, pi - |theta|) whatever the grid, and ``is_gapped``
    is the coin's own ``CoinParams.is_gapped`` (the one threshold GAP_EPS).
    For a theta-block band every field is an array over the block.
    """

    gap_at_delta: float
    gap_at_delta_plus_pi: float
    is_gapped: bool


def band_structure(p: CoinParams, grid_size: int = DEFAULT_GRID, thetas=None) -> BandStructure:
    """The dispersion and Bloch vectors over the Brillouin zone, sampled on read.

    With ``thetas`` the band is that of the block of coins p.with_theta(t),
    t in thetas, sampled in one broadcast pass; p.theta is then not used, and
    the thetas are taken as given, not wrapped as CoinParams wraps them.
    Building the band checks the grid size and does no work over k; each
    array costs its pass only when read.  Degenerate grid points (gap
    closings) are flagged, not fatal, so gapless parameters can still be
    tabulated.
    """
    block = None if thetas is None else np.atleast_1d(np.asarray(thetas, dtype=float))
    return BandStructure(p, check_grid(grid_size), block)


def gap_report(b: BandStructure) -> GapReport:
    """Both gaps 2 min(|theta|, pi - |theta|), theta wrapped, of the band's coin or block.

    The band's extremes sit at k = alpha and alpha + pi, where omega is |theta|
    and pi - |theta|, so no grid enters: |theta| is exact and pi - |theta|
    takes one rounding.  The sampled band is this value's test oracle.
    """
    t = np.abs(wrap_angles(b._theta))
    g = 2.0 * np.minimum(t, np.pi - t)
    if b.thetas is None:
        return GapReport(float(g), float(g), b.params.is_gapped)
    return GapReport(g, g, gapped(b.thetas))


def special_points(alpha: float) -> tuple[float, float]:
    """The two parity-invariant momenta alpha and alpha + pi, wrapped to the BZ.

    Band extrema sit there, and the gaps close there when theta reaches 0 or pi.
    """
    return wrap_angle(alpha), wrap_angle(alpha + np.pi)


def band_table(b: BandStructure) -> Table:
    """One row per grid point: both bands and the Bloch vector."""
    wp, wm = b.quasienergies()
    return Table(["k", "omega_plus", "omega_minus", "n_x", "n_y", "n_z"], b.k, wp, wm, *b.n.T)
