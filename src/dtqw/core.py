"""Coin algebra for one-dimensional coined quantum walks.

The coin family used throughout the package is the four-angle U(2) matrix

    C(delta, alpha, beta, theta) =
        exp(-i*delta) * [[cos(theta)*e^{i*alpha},  sin(theta)*e^{i*(alpha+beta)}],
                         [-sin(theta)*e^{-i*(alpha+beta)}, cos(theta)*e^{-i*alpha}]]

together with the Pauli decomposition of 2x2 matrices and the
particle-hole operator.  The coin is exp(-i delta) D_alpha G_beta R_theta G_beta^dagger
with D_alpha = diag(e^{i alpha}, e^{-i alpha}), G_beta = D_{beta/2} and R_theta real:
every family is the alpha = beta = 0 walk moved by ``gauged``, alpha a shift of k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# The one gap threshold.  A coin is gapped iff |sin theta| exceeds it.  Since
# sin(omega_k) = hypot(sin theta, cos theta sin(k - alpha)) >= |sin theta|, the
# same value marks degenerate momenta (sin omega_k at or below it): no momentum
# of a gapped coin is degenerate, and sgn(theta) is taken only for |theta| > it.
GAP_EPS = 1e-12

# The one domain threshold: alpha N within it of 2 pi Z, eta of 0 or pi, two
# families within it of each other.  There the PHS residual, which grows as about
# 2 |remainder(alpha N, 2 pi)|, stays far below RESIDUAL_TOL.
RESIDUAL_TOL = 1e-12  # a certified relation passes with its residual below it
DOMAIN_TOL = RESIDUAL_TOL / 20

_TWO_PI = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    """Reduce an angle to the interval (-pi, pi]; angles already in it are
    returned unchanged (-0.0 as 0.0), and -pi maps to pi.

    fmod is exact, and so is the one correction by 2*pi (both operands lie
    within a factor of two of each other).  Raises ValidationError for inf and nan.
    """
    if not math.isfinite(x):
        raise ValidationError(f"angle {x} is not finite")
    y = math.fmod(x, _TWO_PI)
    if y > math.pi:
        return y - _TWO_PI
    if y <= -math.pi:
        return y + _TWO_PI
    return y + 0.0


def wrap_angles(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`wrap_angle`, equal to it bit for bit."""
    y = np.fmod(np.asarray(x, dtype=float), _TWO_PI)
    y = np.where(y > np.pi, y - _TWO_PI, y)
    return np.where(y <= -np.pi, y + _TWO_PI, y + 0.0)


def gapped(theta):
    """Whether coins at theta (scalar or array) are gapped: |sin theta| > GAP_EPS."""
    return np.abs(np.sin(theta)) > GAP_EPS


def circle_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    return abs(wrap_angle(a - b))


@dataclass(frozen=True)
class CoinParams:
    """The four coin angles; all reduced to (-pi, pi] at construction.

    ``theta`` controls the gap: the walk is gapped unless theta is 0 or pi.
    ``(delta, alpha, beta)`` label the family the coin belongs to.
    """

    delta: float
    alpha: float
    beta: float
    theta: float

    def __post_init__(self):
        for name in ("delta", "alpha", "beta", "theta"):
            object.__setattr__(self, name, wrap_angle(float(getattr(self, name))))

    @property
    def is_gapped(self) -> bool:
        """True iff theta is neither 0 nor pi (both quasienergy gaps open)."""
        return bool(gapped(self.theta))

    def family(self) -> tuple[float, float, float]:
        """The (delta, alpha, beta) triple shared by a one-parameter theta family."""
        return (self.delta, self.alpha, self.beta)

    def with_theta(self, theta: float) -> "CoinParams":
        return CoinParams(self.delta, self.alpha, self.beta, theta)


def coin_matrices(delta: float, alpha: float, beta: float, thetas) -> np.ndarray:
    """Coins of one (delta, alpha, beta) family, shape thetas.shape + (2, 2).

    The one coin formula of the package; thetas are taken as given (wrap them
    first, as CoinParams does).
    """
    thetas = np.asarray(thetas, dtype=float)
    ct, st = np.cos(thetas), np.sin(thetas)
    ea = np.exp(1j * alpha)
    eab = np.exp(1j * (alpha + beta))
    m = np.empty(thetas.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = ct * ea
    m[..., 0, 1] = st * eab
    m[..., 1, 0] = -st / eab
    m[..., 1, 1] = ct / ea
    return np.exp(-1j * delta) * m


def coin_matrix(p: CoinParams) -> np.ndarray:
    """The 2x2 coin unitary for the given angles."""
    return coin_matrices(p.delta, p.alpha, p.beta, p.theta)


def gauged(m: np.ndarray, beta: float) -> np.ndarray:
    """G_beta m G_beta^dagger on the last two axes: off-diagonals times exp(+/- i beta)."""
    out = np.array(m, dtype=complex)
    out[..., 0, 1] *= np.exp(1j * beta)
    out[..., 1, 0] /= np.exp(1j * beta)
    return out


def pauli_decompose(m: np.ndarray) -> tuple[complex, np.ndarray]:
    """Write a 2x2 matrix as c0*I + c . sigma.

    Returns ``(c0, c)`` with ``c`` a complex 3-vector; the decomposition is
    exact for any complex matrix, not only Hermitian ones.
    """
    m = np.asarray(m, dtype=complex)
    c0 = 0.5 * np.trace(m)
    c = 0.5 * np.array([np.trace(SIGMA_X @ m), np.trace(SIGMA_Y @ m), np.trace(SIGMA_Z @ m)])
    return complex(c0), c


def pauli_compose(c0: complex, c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_decompose`."""
    c = np.asarray(c, dtype=complex)
    return c0 * ID2 + c[0] * SIGMA_X + c[1] * SIGMA_Y + c[2] * SIGMA_Z


def is_commensurate(alpha: float, n_sites: int) -> bool:
    """True iff alpha N is within DOMAIN_TOL of 2 pi Z: a lattice momentum of the ring."""
    return abs(math.remainder(alpha * n_sites, _TWO_PI)) < DOMAIN_TOL


@dataclass(frozen=True)
class PhsOperator:
    """Antiunitary particle-hole operator: site phase exp(2i*alpha*x) and coin
    phase diag(1, exp(-2i*beta)) applied after complex conjugation.

    Squares to the identity for any (alpha, beta).
    """

    alpha: float
    beta: float

    def site_phase(self, x) -> np.ndarray:
        return np.exp(2j * self.alpha * np.asarray(x))

    def apply(self, amps: np.ndarray, sites: np.ndarray) -> np.ndarray:
        """Apply to per-site spinor amplitudes of shape (n_sites, 2)."""
        amps = np.asarray(amps, dtype=complex)
        out = amps.conj() * self.site_phase(sites)[:, None]
        out[:, 1] *= np.exp(-2j * self.beta)
        return out

    def gauge_matrix(self, sites: np.ndarray) -> np.ndarray:
        """Dense diagonal of the unitary part (the squared gauge transformation)."""
        d = np.repeat(self.site_phase(sites), 2).astype(complex)
        d[1::2] *= np.exp(-2j * self.beta)
        return d

    def check_commensurate(self, n_sites: int) -> None:
        if not is_commensurate(self.alpha, n_sites):
            raise ValidationError(f"incommensurate alpha = {self.alpha}: not a multiple of "
                                  f"2*pi/{n_sites} (tolerance {DOMAIN_TOL:g} on alpha N), so the "
                                  "gauge phase is not single-valued on this ring")


def phs_operator(alpha: float, beta: float) -> PhsOperator:
    """Particle-hole operator for the (alpha, beta) coin family."""
    return PhsOperator(wrap_angle(alpha), wrap_angle(beta))
