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
        norm = np.linalg.norm(amps)
        if not (norm > 0.0 and math.isfinite(norm)):
            raise ValidationError(f"spinor {spinor!r} has norm {norm}: a localized state "
                                  "needs a finite nonzero spinor")
        return cls(amps / norm)

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


def _coin_shift(layers: tuple | list, amps: np.ndarray, out: np.ndarray,
                scratch: np.ndarray | list) -> np.ndarray:
    """Apply ``layers`` to amplitudes of shape (m, 2, ...), each coin layer
    holding m per-site coins, writing the result into ``out``; SHIFT wraps
    periodically at the ends of the m sites.  Trailing axes of ``amps`` are
    a batch.

    A coin layer c maps (a, b) to (c00 a + c01 b, c10 a + c11 b) site by site,
    each component computed as ``r = c00 * a; r += c01 * b``.  A coin followed
    by SHIFT writes those products straight into their shifted slots: the
    a-products one site up, the b-products one site down.

    ``out`` has the shape of ``amps`` and is either ``amps`` itself or
    does not overlap it; ``scratch`` is three complex arrays of shape
    (m, ...).  The step allocates nothing.
    """
    batch = (1,) * (amps.ndim - 2)
    ra, rb, tmp = scratch
    k = 0
    while k < len(layers):
        a, b = amps[:, 0], amps[:, 1]
        if layers[k] is not SHIFT:
            c = layers[k].reshape(layers[k].shape + batch)
            pa = np.multiply(c[:, 0, 0], a, out=ra)
            pa += np.multiply(c[:, 0, 1], b, out=tmp)
            pb = np.multiply(c[:, 1, 0], a, out=rb)
            pb += np.multiply(c[:, 1, 1], b, out=tmp)
            a, b = pa, pb
            k += 1
        elif amps is out:  # a shift must not read what it overwrites
            np.copyto(ra, a)
            np.copyto(rb, b)
            a, b = ra, rb
        amps = out
        if k < len(layers) and layers[k] is SHIFT:
            amps[1:, 0] = a[:-1]
            amps[0, 0] = a[-1]
            amps[:-1, 1] = b[1:]
            amps[-1, 1] = b[0]
            k += 1
        else:
            amps[:, 0] = a
            amps[:, 1] = b
    return amps


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
        """One step on amplitudes of shape (n_sites, 2, ...); trailing axes are a
        batch.  The arithmetic is ``_coin_shift``'s on the walk's layers, into a
        new array with the memory order of ``amps`` (``np.empty_like``), so a
        planar input, each component contiguous, gives a planar output."""
        if amps.shape[:2] != (self.n_sites, 2):
            raise ValidationError(f"amplitudes of shape {amps.shape}, walk of {self.n_sites} "
                                  f"sites needs ({self.n_sites}, 2, ...)")
        scratch = [np.empty_like(amps[:, 0], dtype=complex) for _ in range(3)]
        return _coin_shift(self.layers, amps, np.empty_like(amps, dtype=complex), scratch)

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
    """Per-site coin matrices, shape (n_sites, 2, 2), stored coin-major: each
    entry's column ``c[:, i, j]`` is contiguous, as the step reads it."""
    c = coin_matrices(delta, alpha, beta, wrap_angles(profile.thetas))
    return np.ascontiguousarray(c.transpose(1, 2, 0)).transpose(2, 0, 1)


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
    """Observables recorded every step, and the state after the last step.

    ``staggered_prob`` is the parity-signed window sum of site probabilities,
    sum_x (-1)^x p_x; a plain window sum can miss period-2 interference of two
    gap states whose density profile balances even and odd sites.  ``final``
    is ``s0`` itself when no step was taken.
    """

    times: np.ndarray
    interface_prob: np.ndarray
    staggered_prob: np.ndarray
    mean_x: np.ndarray
    sigma_x: np.ndarray
    final: WalkerState
    window_center: int
    window_halfwidth: int


def window_sites(center: int, halfwidth: int, n_sites: int) -> np.ndarray:
    """Ring-wrapped site labels within +/- halfwidth of a center site."""
    labels = (np.arange(center - halfwidth, center + halfwidth + 1) + n_sites // 2) % n_sites
    return np.unique(labels) - n_sites // 2


def _observables(amps: np.ndarray, lo: int, hi: int, sites: np.ndarray,
                 window_idx: np.ndarray, window_signs: np.ndarray, squares: np.ndarray,
                 pairs: np.ndarray, probs: np.ndarray,
                 dev: np.ndarray) -> tuple[float, float, float, float]:
    """(window sum, staggered window sum, mean, spread) of planar amplitudes.

    ``squares`` (2, 2n), ``pairs`` (2n,), ``probs`` and ``dev`` (n,) are
    scratch buffers; on return ``squares`` holds the squared real and
    imaginary parts, which evolve's zeroing reads.  Each site probability is
    summed in one fixed order, (re_a^2 + re_b^2) + (im_a^2 + im_b^2).

    Only ring indices lo..hi-1 are squared and summed.  Outside them the
    amplitudes must be +0.0 and ``squares``, ``pairs`` and ``probs`` must hold
    the zeros a pass over them would compute.  The two dot products and
    ``dev`` run over the whole ring, so every sum groups its terms as a pass
    over the whole ring does, bit for bit.
    """
    parts = slice(2 * lo, 2 * hi)
    np.square(amps[lo:hi].T.view(float), out=squares[:, parts])  # rows a, b: re, im interleaved
    np.add(squares[0, parts], squares[1, parts], out=pairs[parts])
    np.add(pairs[2 * lo:2 * hi:2], pairs[2 * lo + 1:2 * hi:2], out=probs[lo:hi])
    mean = float(probs @ sites)
    np.subtract(sites, mean, out=dev)
    np.square(dev, out=dev)
    var = float(probs @ dev)
    in_win = probs[window_idx]
    return (float(in_win.sum()), float(window_signs @ in_win), mean,
            float(np.sqrt(max(var, 0.0))))


# The smallest normal float64: a part x with x * x below it is zeroed by evolve.
_TINY = np.finfo(float).tiny


def evolve(u: WalkOperator, s0: WalkerState, steps: int,
           window_center: int = 0, window_halfwidth: int = 5) -> Trajectory:
    """Evolve ``steps`` steps, recording window probability, mean position and
    spread every step, and keeping the state after the last step.

    The amplitudes are held in planar memory (each spinor component
    contiguous), and each step overwrites them in place through preallocated
    scratch; only the final state is copied out, as a ``WalkerState``.  Site
    probabilities are summed as (re_a^2 + re_b^2) + (im_a^2 + im_b^2).

    After each step's observables, every real or imaginary part whose square
    is below ``np.finfo(float).tiny`` (|x| < 2^-511) is set to 0.0 in place,
    in the copy ``evolve`` owns, never in ``s0``.  Such a part adds nothing
    representable to a site probability, but the underflowing tails of edge
    states would otherwise keep the step on the slow subnormal path.  The
    observables of a step are taken before its zeroing; the final state after
    at least one step holds the zeroed amplitudes, and with ``steps == 0`` it
    is ``s0`` itself.

    Only the occupied window [lo, hi) of ring indices is stepped, squared and
    zeroed: after the t = 0 zeroing, the smallest index range holding every
    nonzero part, widened each step by the walk's number of SHIFT layers on
    each side (coins are site-local).  ``apply_array``'s kernel steps it on
    the window's coins; its wrap at the window's ends moves only zeros.  Once
    the window would reach index 0 or N, it is the whole ring [0, N) for the
    rest of the run, where the kernel's wrap is the ring's; a state that
    fills the ring, or a walk with a coin that is not finite, is stepped that
    way from the start.  Outside the window a whole-ring step computes only
    zeros, some -0.0, that its zeroing turns into the +0.0 the window leaves
    there, so every output is the same, bit for bit, as stepping the whole
    ring.
    """
    n = u.n_sites
    if steps < 0:
        raise ValidationError(f"steps = {steps} must be nonnegative")
    if window_halfwidth < 0:
        raise ValidationError(f"window_halfwidth = {window_halfwidth} must be nonnegative")
    if not -(n // 2) <= window_center < n // 2:
        raise ValidationError(f"window_center = {window_center} is outside the ring's labels "
                              f"[{-(n // 2)}, {n // 2})")
    if s0.n_sites != n:
        raise ValidationError(f"state ring of {s0.n_sites} sites, walk of {n}")
    labels = window_sites(window_center, window_halfwidth, n)
    win = labels + n // 2
    signs = 1.0 - 2.0 * (labels & 1)
    sites = ring_sites(n).astype(float)
    buffers = (np.empty((2, 2 * n)), np.empty(2 * n), np.empty(n), np.empty(n))
    squares, small = buffers[0], np.empty((2, 2 * n), dtype=bool)
    coins = [layer for layer in u.layers if layer is not SHIFT]
    shifts = len(u.layers) - len(coins)

    times = np.arange(steps + 1)
    iprob = np.empty(steps + 1)
    stag = np.empty(steps + 1)
    mean_x = np.empty(steps + 1)
    sigma_x = np.empty(steps + 1)

    amps = s0.amps.T.copy(order="C").T  # planar, and never a view of s0.amps
    work = np.empty((3, n), dtype=complex)
    lo, hi = 0, n
    for t in range(steps + 1):
        if t:
            lo, hi = (0, n) if lo - shifts <= 0 or hi + shifts >= n else (lo - shifts, hi + shifts)
            window = amps[lo:hi]
            _coin_shift([c if c is SHIFT else c[lo:hi] for c in u.layers], window, window,
                        work[:, :hi - lo])
        iprob[t], stag[t], mean_x[t], sigma_x[t] = _observables(amps, lo, hi, sites, win,
                                                                signs, *buffers)
        parts = slice(2 * lo, 2 * hi)
        np.less(squares[:, parts], _TINY, out=small[:, parts])
        np.copyto(amps[lo:hi].T.view(float), 0.0, where=small[:, parts])
        if not t:
            occupied = np.flatnonzero(np.any(amps != 0, axis=1))
            if occupied.size and all(np.isfinite(c).all() for c in coins):
                lo, hi = int(occupied[0]), int(occupied[-1]) + 1
                for buf in buffers[:3]:  # t = 0 left the tails' subnormal squares there
                    buf.fill(0.0)
    final = WalkerState(amps) if steps else s0
    return Trajectory(times, iprob, stag, mean_x, sigma_x, final, window_center,
                      window_halfwidth)


@dataclass(eq=False)
class SpectralData:
    """Full eigendecomposition of a materialized walk operator.

    Eigenphases are quasienergies in (-pi, pi] sorted ascending; eigenvector
    columns are orthonormal; ``max_residual`` bounds ||U v - exp(-i w) v||
    over all pairs.
    """

    eigenphases: np.ndarray
    vectors: np.ndarray  # (2N, 2N), columns aligned with eigenphases
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
            f"walk couples sites of equal parity: largest entry {same:.3e}, tolerance 0")
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
    ``max_residual`` is measured by stepping every eigenvector with
    ``u.apply_array``, not by a dense product.

    scipy is imported here, on the first call, and nowhere else in dtqw, so no
    CLI subcommand pays for loading it.
    """
    import scipy.linalg

    _, a, b = sublattice_blocks(u)
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

    stepped = u.apply_array(vectors.reshape(n, 2, 2 * n)).reshape(2 * n, 2 * n)
    residual = float(np.max(np.linalg.norm(stepped - vectors * eigvals[None, :], axis=0)))
    return SpectralData(omega, vectors, residual)


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
