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

from .core import ID2, CoinParams, coin_matrices, wrap_angles
from .errors import ValidationError
from .io import Table

# Dense materialization / eigensolve cap (2N x 2N matrices).
DENSE_CAP = 512
# A longer ring is refused before any array is built: 256 times the largest in
# use, and a bound on memory (traced peaks of 264 bytes a site for edge, 388 for
# evolve: 1.1 and 1.6 GB).
MAX_RING = 2**22


def check_dense(n_sites: int) -> None:
    """Refuse a ring of more than DENSE_CAP sites for the dense operator."""
    if n_sites > DENSE_CAP:
        raise ValidationError(f"a ring of {n_sites} sites is too large for the dense operator: "
                              f"DENSE_CAP is {DENSE_CAP} sites")


def check_ring(n_sites: int, name: str = "ring size") -> None:
    """The one ring rule: an even number of sites, at least 4 and at most MAX_RING."""
    if n_sites < 4 or n_sites % 2:
        raise ValidationError(f"{name} must be even and at least 4, got {n_sites}")
    if n_sites > MAX_RING:
        raise ValidationError(f"{name} must be at most {MAX_RING}, got {n_sites}")


def ring_sites(n_sites: int) -> np.ndarray:
    return np.arange(-(n_sites // 2), n_sites // 2)


@dataclass(eq=False)
class ThetaProfile:
    """Per-site coin angles theta_x on a ring (``check_ring``)."""

    thetas: np.ndarray

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float).copy()
        if self.thetas.ndim != 1:
            raise ValidationError(f"thetas of shape {self.thetas.shape}, not (n_sites,)")
        check_ring(self.n_sites)
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


def _products(c: np.ndarray, a: np.ndarray, b: np.ndarray, scratch) -> tuple:
    """The coin c applied to (a, b), into ``scratch[0]`` and ``scratch[1]``:
    each component as ``r = c[i, 0] * a; r += c[i, 1] * b``."""
    ra, rb, tmp = scratch
    np.multiply(c[0, 0], a, out=ra)
    ra += np.multiply(c[0, 1], b, out=tmp)
    np.multiply(c[1, 0], a, out=rb)
    rb += np.multiply(c[1, 1], b, out=tmp)
    return ra, rb


def _step(c: np.ndarray, post: np.ndarray | None, amps: np.ndarray, out: np.ndarray,
          scratch: np.ndarray | list) -> np.ndarray:
    """One step of amplitudes of shape (m, 2, ...) into ``out``: the m per-site
    coins, then the coin-conditioned shift, wrapping periodically at the ends
    of the m sites, then the 2 x 2 coin ``post`` on every site unless it is
    None.  Trailing axes of ``amps`` are a batch.

    ``c`` holds the coins entry-major, ``c[i, j]`` of shape (m, ...) (the
    transpose (1, 2, 0) of the (m, 2, 2) coins).  Their products are written
    straight into their shifted slots: the a-products one site up, the
    b-products one site down.

    ``out`` has the shape of ``amps`` and is either ``amps`` itself or
    does not overlap it; ``scratch`` is three complex arrays of shape
    (m, ...).  The step allocates nothing.
    """
    ra, rb = _products(c, amps[:, 0], amps[:, 1], scratch)
    out[1:, 0] = ra[:-1]
    out[0, 0] = ra[-1]
    out[:-1, 1] = rb[1:]
    out[-1, 1] = rb[0]
    if post is not None:
        out[:, 0], out[:, 1] = _products(post, out[:, 0], out[:, 1], scratch)
    return out


@dataclass(eq=False)
class WalkOperator:
    """Unitary one-step operator on the ring: the per-site coins, then the
    coin-conditioned shift, then the homogeneous 2 x 2 coin ``post`` if it is
    not None (a time-shifted walk, ``symmetry.timeshift_walk``).

    ``coins`` has shape (n_sites, 2, 2).
    """

    delta: float
    alpha: float
    beta: float
    profile: ThetaProfile
    coins: np.ndarray = field(repr=False)
    post: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_sites(self) -> int:
        return self.profile.n_sites

    @property
    def layers(self) -> tuple:
        """(coins, "shift") or (coins, "shift", post): read only by
        ``bench/spans.py``, whose dense counter takes its length."""
        return (self.coins, "shift") + (() if self.post is None else (self.post,))

    def apply_array(self, amps: np.ndarray) -> np.ndarray:
        """One step on amplitudes of shape (n_sites, 2, ...); trailing axes are a
        batch.  The arithmetic is ``_step``'s, into a new array with the memory
        order of ``amps`` (``np.empty_like``), so a planar input, each
        component contiguous, gives a planar output."""
        if amps.shape[:2] != (self.n_sites, 2):
            raise ValidationError(f"amplitudes of shape {amps.shape}, walk of {self.n_sites} "
                                  f"sites needs ({self.n_sites}, 2, ...)")
        c = self.coins.transpose(1, 2, 0)
        c = c.reshape(c.shape + (1,) * (amps.ndim - 2))
        scratch = [np.empty_like(amps[:, 0], dtype=complex) for _ in range(3)]
        return _step(c, self.post, amps, np.empty_like(amps, dtype=complex), scratch)

    def apply(self, s: WalkerState) -> WalkerState:
        if s.n_sites != self.n_sites:
            raise ValidationError(f"state ring of {s.n_sites} sites, walk of {self.n_sites}")
        return WalkerState(self.apply_array(s.amps))

    def hopping(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n_sites, 2, 2) hopping blocks (right, left): ``post P_a c_x`` moves
        site x to x + 1 and ``post P_b c_x`` to x - 1 (P_a, P_b the projectors on
        the a and b components); in value, the nonzero 2 x 2 blocks of ``dense()``."""
        post = ID2 if self.post is None else self.post
        return post[:, :1] * self.coins[:, None, 0], post[:, 1:] * self.coins[:, None, 1]

    def dense(self) -> np.ndarray:
        """Materialize the 2N x 2N matrix (site-major index 2*i + coin): the
        step applied to each basis vector, O(N^2)."""
        check_dense(self.n_sites)
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
    return WalkOperator(p.delta, p.alpha, p.beta, profile, coins)


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
    nonzero part, widened each step by one site on each side (coins are
    site-local, the shift moves a part one site).  ``apply_array``'s kernel
    steps it on the window's coins; its wrap at the window's ends moves only
    zeros.  Once the window would reach index 0 or N, it is the whole ring
    [0, N) for the rest of the run, where the kernel's wrap is the ring's; a
    state that fills the ring, or a walk with a coin that is not finite, is
    stepped that way from the start.  Outside the window a whole-ring step
    computes only zeros, some -0.0, that its zeroing turns into the +0.0 the
    window leaves there, so every output is the same, bit for bit, as
    stepping the whole ring.
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
    cols = u.coins.transpose(1, 2, 0)

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
            lo, hi = (0, n) if lo <= 1 or hi >= n - 1 else (lo - 1, hi + 1)
            window = amps[lo:hi]
            _step(cols[:, :, lo:hi], u.post, window, window, work[:, :hi - lo])
        iprob[t], stag[t], mean_x[t], sigma_x[t] = _observables(amps, lo, hi, sites, win,
                                                                signs, *buffers)
        parts = slice(2 * lo, 2 * hi)
        np.less(squares[:, parts], _TINY, out=small[:, parts])
        np.copyto(amps[lo:hi].T.view(float), 0.0, where=small[:, parts])
        if not t:
            occupied = np.flatnonzero(np.any(amps != 0, axis=1))
            if occupied.size and all(np.isfinite(c).all() for c in (u.coins, u.post)
                                     if c is not None):
                lo, hi = int(occupied[0]), int(occupied[-1]) + 1
                for buf in buffers[:3]:  # t = 0 left the tails' subnormal squares there
                    buf.fill(0.0)
    final = WalkerState(amps) if steps else s0
    return Trajectory(times, iprob, stag, mean_x, sigma_x, final, window_center,
                      window_halfwidth)


@dataclass(eq=False)
class SpectralData:
    """Full eigendecomposition of a walk operator, from its sublattice block
    BA (``diagonalize``).

    Eigenphases are quasienergies in (-pi, pi] sorted ascending; eigenvector
    columns are orthonormal; ``max_residual`` bounds ||U v - exp(-i w) v||
    over all pairs, measured by stepping each v with ``apply_array``.
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

    With the sites ordered even then odd (ring index, not label), a walk is
    U = [[0, B], [A, 0]], its one shift moving every part to a site of the
    other parity: A takes the even sites to the odd ones and B the odd ones
    back, so U^2 = diag(BA, AB).
    """
    mat = u.dense()
    n = u.n_sites
    # blocks[j, parity, coin, j', parity', coin'] couples site 2j'+parity' to 2j+parity
    blocks = mat.reshape(n // 2, 2, 2, n // 2, 2, 2)
    return mat, blocks[:, 1, :, :, 0].reshape(n, n), blocks[:, 0, :, :, 1].reshape(n, n)


# _unitary_eig's Rayleigh-Ritz blocks: eigenvalues of the Hermitian part at most
# CLUSTER_GAP apart share one, and a block whose columns have off-diagonal norms
# up to RITZ_TOL, their residuals, is diagonal to round-off (every block of a
# one-point spectrum, the theta = +/- pi/2 flat band).
CLUSTER_GAP = 1e-4
RITZ_TOL = 1e-14


def _unitary_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, Z): the eigenvalues and orthonormal eigenvectors of a unitary m.

    ``np.linalg.eigh`` of H = (m + m^dagger) / 2 gives Q with T = Q^dagger m Q
    block diagonal over the clusters, runs of eigenvalues cos(phi) of H with
    gaps at most CLUSTER_GAP: pairs e^{+/- i phi} and degenerate eigenvalues.
    Rayleigh-Ritz rotates each coupled block (a column's off-diagonal norm
    above RITZ_TOL) by W, the QR factor of its ``np.linalg.eig`` eigenvectors (QR
    only mixes columns of one eigenvalue, as the block is normal), batched by
    size: Q <- Q W, T <- W^dagger T W.  One refinement step removes what
    eigh's round-off couples between clusters: lambda = diag(T), the Rayleigh
    quotients, E_ij = T_ij / (lambda_j - lambda_i) between clusters and 0
    within one, Z = Q + Q (E - E^dagger) / 2, all correct to second order
    (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 11).  A matrix
    that is not finite raises numpy's "infs or NaNs" ``LinAlgError``.
    """
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    n = m.shape[0]
    h, q = np.linalg.eigh((m + m.conj().T) / 2)
    t = q.conj().T @ m @ q
    starts = np.flatnonzero(np.diff(h, prepend=-np.inf) > CLUSTER_GAP)
    sizes = np.diff(starts, append=n)
    for k in np.unique(sizes[sizes > 1]):
        idx = starts[sizes == k][:, None] + np.arange(k)
        blocks = t[idx[:, :, None], idx[:, None, :]]
        coupled = np.linalg.norm(blocks - blocks * np.eye(k), axis=1).max(axis=1) > RITZ_TOL
        idx, w = idx[coupled], np.linalg.qr(np.linalg.eig(blocks[coupled])[1])[0]
        # each block's columns of Q and T, then its rows of T
        q[:, idx] = np.matmul(q[:, idx].transpose(1, 0, 2), w).transpose(1, 0, 2)
        t[:, idx] = np.matmul(t[:, idx].transpose(1, 0, 2), w).transpose(1, 0, 2)
        t[idx] = np.matmul(w.conj().transpose(0, 2, 1), t[idx])
    lam = t.diagonal().copy()
    cluster = np.repeat(np.arange(starts.size), sizes)
    e = np.divide(t, lam - lam[:, None], out=np.zeros_like(t),
                  where=cluster[:, None] != cluster)
    return lam, q + q @ ((e - e.conj().T) / 2)


def _paired_roots(lam: np.ndarray) -> np.ndarray:
    """The 2N eigenvalues +/- sqrt(lambda) of U, given the N eigenvalues of BA."""
    mu = np.sqrt(lam)
    return np.concatenate([mu, -mu])


def eigenvalues(u: WalkOperator) -> np.ndarray:
    """The 2N eigenvalues of U, from those of the N x N block BA of U^2
    (sublattice_blocks)."""
    _, a, b = sublattice_blocks(u)
    return _paired_roots(np.linalg.eigvals(b @ a))


def bloch_eigenvalues(u: WalkOperator) -> np.ndarray:
    """The 2N eigenvalues of a homogeneous walk, O(N): those of its 2 x 2 Bloch
    matrices post diag(exp(-ik), exp(ik)) c at the ring's momenta k = 2 pi m / N.
    Raises ValidationError unless every site has the same coin c."""
    c = u.coins[0]
    if not (u.coins == c).all():
        raise ValidationError("Bloch eigenvalues need a homogeneous walk: the coins of its "
                              f"{u.n_sites} sites differ")
    k = 2.0 * np.pi * np.arange(u.n_sites) / u.n_sites
    bloch = np.exp(np.multiply.outer(k, [-1j, 1j]))[:, :, None] * c
    if u.post is not None:
        bloch = u.post @ bloch
    return np.linalg.eigvals(bloch).ravel()


def diagonalize(u: WalkOperator) -> SpectralData:
    """Dense eigendecomposition from the N x N block BA of U^2 on the even
    sites (see sublattice_blocks).

    BA is unitary: ``_unitary_eig`` gives its eigenvalues lambda and
    orthonormal eigenvectors z from a Hermitian eigensolve of its Hermitian
    part, Rayleigh-Ritz on each cluster of nearly equal cos(phi) and one
    refinement step.  Each column gives the two eigenvectors
    (z, A z / mu) / sqrt(2) of U, mu = +/- sqrt(lambda), on the even and odd
    sites; they are orthonormal because A is unitary.  ``max_residual`` is
    measured by stepping every eigenvector with ``u.apply_array``, not by a
    dense product.
    """
    _, a, b = sublattice_blocks(u)
    lam, z = _unitary_eig(b @ a)
    eigvals = _paired_roots(lam)
    n = u.n_sites
    az = a @ z
    even = np.concatenate([z, z], axis=1).reshape(n // 2, 2, 2 * n)
    odd = (np.concatenate([az, az], axis=1) / eigvals).reshape(n // 2, 2, 2 * n)
    vectors = np.stack([even, odd], axis=1).reshape(2 * n, 2 * n) / math.sqrt(2.0)
    omega = wrap_angles(-np.angle(eigvals))
    order = np.argsort(omega, kind="stable")
    omega = omega[order]
    vectors = vectors[:, order]
    eigvals = eigvals[order]

    stepped = u.apply_array(vectors.reshape(n, 2, 2 * n)).reshape(2 * n, 2 * n)
    residual = float(np.max(np.linalg.norm(stepped - vectors * eigvals[None, :], axis=0)))
    return SpectralData(omega, vectors, residual)


def state_table(s: WalkerState) -> Table:
    """One row per site: both amplitudes by part, and the site probability."""
    a, b = s.amps[:, 0], s.amps[:, 1]
    return Table(["x", "re_a", "im_a", "re_b", "im_b", "prob"],
                 s.sites, a.real, a.imag, b.real, b.imag, s.site_probabilities())


def trajectory_table(traj: Trajectory) -> Table:
    """One row per recorded step."""
    return Table(["t", "interface_prob", "mean_x", "sigma_x"],
                 traj.times, traj.interface_prob, traj.mean_x, traj.sigma_x)
