"""Position-space walk engine on a finite ring.

Sites are labeled -N/2 .. N/2-1 (N even) so an interface condition written
as "x < 0 vs x >= 0" transfers verbatim; periodic wrapping puts a second
domain wall between sites N/2-1 and -N/2.  One step applies the per-site
coin and then the coin-conditioned shift: right-moving amplitudes advance
one site, left-moving amplitudes retreat one site.

Quasienergies follow the convention U v = exp(-i*omega) v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CoinParams, coin_matrices, wrap_angles
from .errors import NumericalContractError, ValidationError

# Dense materialization / eigensolve cap (2N x 2N matrices).
DENSE_CAP = 512


def ring_sites(n_sites: int) -> np.ndarray:
    return np.arange(-(n_sites // 2), n_sites // 2)


@dataclass(eq=False)
class ThetaProfile:
    """Per-site coin angles theta_x on a ring; the one check of ring size."""

    thetas: np.ndarray

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float).copy()
        if self.thetas.ndim != 1 or self.n_sites < 4 or self.n_sites % 2:
            raise ValidationError("ring size must be even and at least 4, got thetas "
                                  f"of shape {self.thetas.shape}")
        self.thetas.setflags(write=False)

    @property
    def n_sites(self) -> int:
        return self.thetas.shape[0]

    @property
    def sites(self) -> np.ndarray:
        return ring_sites(self.n_sites)

    @classmethod
    def homogeneous(cls, theta: float, n_sites: int) -> "ThetaProfile":
        return cls(np.full(n_sites, float(theta)))

    @classmethod
    def sharp_interface(cls, theta1: float, theta2: float, n_sites: int) -> "ThetaProfile":
        """theta1 on x < 0, theta2 on x >= 0 (domain walls at 0 and at the wrap)."""
        thetas = np.where(ring_sites(n_sites) < 0, float(theta1), float(theta2))
        return cls(thetas)


@dataclass(eq=False)
class WalkerState:
    """Spinor amplitudes (a_x, b_x) per site; treat as immutable."""

    amps: np.ndarray  # (n_sites, 2) complex

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex).copy()
        if self.amps.ndim != 2 or self.amps.shape[1] != 2:
            raise ValidationError(f"amplitudes of shape {self.amps.shape}, not (n_sites, 2)")
        self.amps.setflags(write=False)

    @property
    def n_sites(self) -> int:
        return self.amps.shape[0]

    @property
    def sites(self) -> np.ndarray:
        return ring_sites(self.n_sites)

    @classmethod
    def localized(cls, n_sites: int, x: int, spinor=(1.0, 0.0)) -> "WalkerState":
        half = n_sites // 2
        if not -half <= x < half:
            raise ValidationError(f"site x = {x} is outside the ring's labels [{-half}, {half})")
        amps = np.zeros((n_sites, 2), dtype=complex)
        amps[x + half] = np.asarray(spinor, dtype=complex)
        return cls(amps / np.linalg.norm(amps))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def overlap(self, other: "WalkerState") -> complex:
        """<self|other>."""
        if other.n_sites != self.n_sites:
            raise ValidationError(f"states live on rings of {self.n_sites} and "
                                  f"{other.n_sites} sites")
        return complex(np.vdot(self.amps, other.amps))

    def site_probabilities(self) -> np.ndarray:
        return np.sum(np.abs(self.amps) ** 2, axis=1)


# The coin-conditioned shift layer of a walk; every other layer is a
# (n_sites, 2, 2) array of per-site coins.
SHIFT = object()


def _shift(amps: np.ndarray) -> np.ndarray:
    out = np.empty_like(amps)
    out[:, 0] = np.roll(amps[:, 0], 1, axis=0)
    out[:, 1] = np.roll(amps[:, 1], -1, axis=0)
    return out


@dataclass(eq=False)
class WalkOperator:
    """Unitary one-step operator on the ring: its layers, in application order.

    ``layers`` holds per-site coin arrays and the SHIFT marker.
    """

    delta: float
    alpha: float
    beta: float
    profile: ThetaProfile
    layers: tuple = field(repr=False)

    @property
    def n_sites(self) -> int:
        return self.profile.n_sites

    def apply_array(self, amps: np.ndarray) -> np.ndarray:
        """One step on amplitudes of shape (n_sites, 2, ...); trailing axes are a batch.

        A coin layer c maps (a, b) to (c00 a + c01 b, c10 a + c11 b) site by site.
        """
        batch = (1,) * (amps.ndim - 2)
        for layer in self.layers:
            if layer is SHIFT:
                amps = _shift(amps)
            else:
                c = layer.reshape(layer.shape + batch)
                a, b = amps[:, 0], amps[:, 1]
                amps = np.stack([c[:, 0, 0] * a + c[:, 0, 1] * b,
                                 c[:, 1, 0] * a + c[:, 1, 1] * b], axis=1)
        return amps

    def apply(self, s: WalkerState) -> WalkerState:
        if s.n_sites != self.n_sites:
            raise ValidationError(f"state ring of {s.n_sites} sites, walk of {self.n_sites}")
        return WalkerState(self.apply_array(s.amps))

    def dense(self) -> np.ndarray:
        """Materialize the 2N x 2N matrix (site-major index 2*i + coin): the
        step applied to each basis vector, O(N^2)."""
        if self.n_sites > DENSE_CAP:
            raise ValidationError(f"dense() of {self.n_sites} sites is too large: "
                                  f"capped at {DENSE_CAP}")
        n = self.n_sites
        basis = np.eye(2 * n, dtype=complex).reshape(n, 2, 2 * n)
        return self.apply_array(basis).reshape(2 * n, 2 * n)


def site_coins(delta: float, alpha: float, beta: float, profile: ThetaProfile) -> np.ndarray:
    """Per-site coin matrices, shape (n_sites, 2, 2)."""
    return coin_matrices(delta, alpha, beta, wrap_angles(profile.thetas))


def build_walk(p: CoinParams, profile: ThetaProfile | None = None,
               n_sites: int | None = None) -> WalkOperator:
    """Coin-then-shift walk for the given parameters.

    With no profile, a homogeneous one is built from ``p.theta`` and
    ``n_sites``; with a profile, its angles override ``p.theta``.
    """
    if profile is None:
        if n_sites is None:
            raise ValidationError("need either a profile or n_sites")
        profile = ThetaProfile.homogeneous(p.theta, n_sites)
    elif n_sites is not None and n_sites != profile.n_sites:
        raise ValidationError(f"n_sites = {n_sites} disagrees with the profile "
                              f"length {profile.n_sites}")
    coins = site_coins(p.delta, p.alpha, p.beta, profile)
    return WalkOperator(p.delta, p.alpha, p.beta, profile, layers=(coins, SHIFT))


@dataclass(eq=False)
class Trajectory:
    """Observables recorded every step plus periodic state snapshots.

    ``staggered_prob`` is the parity-signed window sum of site probabilities,
    sum_x (-1)^x p_x; a plain window sum can miss period-2 interference of two
    gap states whose density profile balances even and odd sites.
    """

    times: np.ndarray
    interface_prob: np.ndarray
    staggered_prob: np.ndarray
    mean_x: np.ndarray
    sigma_x: np.ndarray
    snapshot_times: list
    snapshots: list
    window_center: int
    window_halfwidth: int


def window_sites(center: int, halfwidth: int, n_sites: int) -> np.ndarray:
    """Ring-wrapped site labels within +/- halfwidth of a center site."""
    labels = (np.arange(center - halfwidth, center + halfwidth + 1) + n_sites // 2) % n_sites
    return np.unique(labels) - n_sites // 2


def _observables(amps: np.ndarray, sites: np.ndarray, window_idx: np.ndarray,
                 window_signs: np.ndarray) -> tuple[float, float, float, float]:
    re_im = amps.view(float)  # (n_sites, 4): re a, im a, re b, im b
    probs = np.einsum("ij,ij->i", re_im, re_im)
    mean = float(probs @ sites)
    var = float(probs @ (sites - mean) ** 2)
    in_win = probs[window_idx]
    return (float(np.sum(in_win)), float(window_signs @ in_win), mean,
            float(np.sqrt(max(var, 0.0))))


def evolve(u: WalkOperator, s0: WalkerState, steps: int, record_every: int = 1,
           window_center: int = 0, window_halfwidth: int = 5) -> Trajectory:
    """Evolve ``steps`` steps, recording window probability, mean position and
    spread every step, and state snapshots every ``record_every`` steps."""
    if steps < 0:
        raise ValidationError(f"steps = {steps} must be nonnegative")
    if s0.n_sites != u.n_sites:
        raise ValidationError(f"state ring of {s0.n_sites} sites, walk of {u.n_sites}")
    labels = window_sites(window_center, window_halfwidth, u.n_sites)
    win = labels + u.n_sites // 2
    signs = 1.0 - 2.0 * (labels & 1)
    sites = ring_sites(u.n_sites)

    times = np.arange(steps + 1)
    iprob = np.empty(steps + 1)
    stag = np.empty(steps + 1)
    mean_x = np.empty(steps + 1)
    sigma_x = np.empty(steps + 1)
    snapshot_times = [0]
    snapshots = [s0]

    amps = s0.amps
    iprob[0], stag[0], mean_x[0], sigma_x[0] = _observables(amps, sites, win, signs)
    for t in range(1, steps + 1):
        amps = u.apply_array(amps)
        iprob[t], stag[t], mean_x[t], sigma_x[t] = _observables(amps, sites, win, signs)
        if (t % record_every == 0 or t == steps) and snapshot_times[-1] != t:
            snapshot_times.append(t)
            snapshots.append(WalkerState(amps))
    return Trajectory(times, iprob, stag, mean_x, sigma_x, snapshot_times, snapshots,
                      window_center, window_halfwidth)


@dataclass(eq=False)
class SpectralData:
    """Full eigendecomposition of a materialized walk operator.

    Eigenphases are quasienergies in (-pi, pi] sorted ascending; eigenvector
    columns are orthonormal; ``max_residual`` bounds ||U v - exp(-i w) v||
    over all pairs.
    """

    eigenphases: np.ndarray
    vectors: np.ndarray  # (2N, 2N), columns aligned with eigenphases
    participation_ratios: np.ndarray
    max_residual: float

    @property
    def n_sites(self) -> int:
        return self.vectors.shape[0] // 2

    def site_probabilities(self) -> np.ndarray:
        """Per-eigenvector site probability distributions, shape (2N, n_sites)."""
        v = self.vectors.reshape(self.n_sites, 2, -1)
        return np.sum(np.abs(v) ** 2, axis=1).T


def sublattice_blocks(u: WalkOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, A, B): the dense walk and its two N x N sublattice blocks.

    With the sites ordered even then odd (ring index, not label), a walk with
    one shift layer is U = [[0, B], [A, 0]]: A takes the even sites to the odd
    ones and B the odd ones back, so U^2 = diag(BA, AB).  Raises
    NumericalContractError, naming the largest entry, if U couples two sites of
    the same parity.
    """
    mat = u.dense()
    n = u.n_sites
    # blocks[j, parity, coin, j', parity', coin'] couples site 2j'+parity' to 2j+parity
    blocks = mat.reshape(n // 2, 2, 2, n // 2, 2, 2)
    same = max(np.max(np.abs(blocks[:, 0, :, :, 0])), np.max(np.abs(blocks[:, 1, :, :, 1])))
    if same != 0.0:
        raise NumericalContractError(
            f"walk couples sites of equal parity: largest entry {same:.3e}")
    return mat, blocks[:, 1, :, :, 0].reshape(n, n), blocks[:, 0, :, :, 1].reshape(n, n)


def _paired_roots(lam: np.ndarray) -> np.ndarray:
    """The 2N eigenvalues +/- sqrt(lambda) of U, given the N eigenvalues of BA."""
    mu = np.sqrt(lam)
    return np.concatenate([mu, -mu])


def eigenvalues(u: WalkOperator) -> np.ndarray:
    """The 2N eigenvalues of U, from those of the N x N block BA of U^2
    (sublattice_blocks)."""
    _, a, b = sublattice_blocks(u)
    return _paired_roots(np.linalg.eigvals(b @ a))


def diagonalize(u: WalkOperator) -> SpectralData:
    """Dense eigendecomposition from the complex Schur form of the N x N block
    BA of U^2 on the even sites (see sublattice_blocks).

    BA is unitary, so its Schur transform is diagonal up to round-off and the
    orthonormal Schur vectors z are eigenvectors, BA z = lambda z.  Each gives
    the two eigenvectors (z, A z / mu) / sqrt(2) of U, mu = +/- sqrt(lambda),
    on the even and odd sites; they are orthonormal because A is unitary.
    ``max_residual`` is measured against the full dense U.

    scipy is imported here, on the first call, and nowhere else in dtqw, so no
    CLI subcommand pays for loading it.
    """
    import scipy.linalg

    mat, a, b = sublattice_blocks(u)
    t, z = scipy.linalg.schur(b @ a, output="complex")
    eigvals = _paired_roots(np.diag(t))
    n = u.n_sites
    z = np.concatenate([z, z], axis=1)
    even = z.reshape(n // 2, 2, 2 * n)
    odd = ((a @ z) / eigvals).reshape(n // 2, 2, 2 * n)
    vectors = np.stack([even, odd], axis=1).reshape(2 * n, 2 * n) / math.sqrt(2.0)
    omega = wrap_angles(-np.angle(eigvals))
    order = np.argsort(omega, kind="stable")
    omega = omega[order]
    vectors = vectors[:, order]
    eigvals = eigvals[order]

    residual = float(np.max(np.linalg.norm(mat @ vectors - vectors * eigvals[None, :], axis=0)))
    probs = np.sum(np.abs(vectors.reshape(n, 2, -1)) ** 2, axis=1)
    ipr = np.sum(probs**2, axis=0)
    return SpectralData(omega, vectors, ipr, residual)


STATE_CSV_HEADER = ["x", "re_a", "im_a", "re_b", "im_b", "prob"]
TRAJECTORY_CSV_HEADER = ["t", "interface_prob", "mean_x", "sigma_x"]


def state_table(s: WalkerState) -> list[list[float]]:
    a, b = s.amps[:, 0], s.amps[:, 1]
    columns = (s.sites, a.real, a.imag, b.real, b.imag, s.site_probabilities())
    return [list(row) for row in zip(*(c.tolist() for c in columns))]


def trajectory_table(traj: Trajectory) -> list[list[float]]:
    return [
        [int(t), float(p), float(m), float(s)]
        for t, p, m, s in zip(traj.times, traj.interface_prob, traj.mean_x, traj.sigma_x)
    ]
