import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtqw import io, lattice
from dtqw.core import CoinParams, coin_matrix, wrap_angles
from dtqw.edge import InitialStateCase, InterfaceSpec, analytic_edge_state, initial_state
from dtqw.errors import ValidationError
from dtqw.lattice import (
    DENSE_CAP,
    WINDOW_HALFWIDTH,
    ThetaProfile,
    WalkerState,
    WalkOperator,
    build_walk,
    diagonalize,
    eigenvalues,
    evolve,
    ring_sites,
    site_coins,
    state_table,
    sublattice_blocks,
    trajectory_table,
    window_sites,
)
from dtqw.momentum import dispersion
from dtqw.symmetry import timeshift_walk
from dtqw.topology import FrameVariant

_angles = st.floats(-math.pi, math.pi)


def test_profile_constructors():
    prof = ThetaProfile.homogeneous(0.5, 8)
    assert np.array_equal(prof.thetas, np.full(8, 0.5)) and prof.n_sites == 8
    prof = ThetaProfile.sharp_interface(-0.4, 0.9, 8)
    assert list(ring_sites(prof.n_sites)) == [-4, -3, -2, -1, 0, 1, 2, 3]
    assert np.allclose(prof.thetas, [-0.4] * 4 + [0.9] * 4)
    with pytest.raises(ValidationError, match="ring size must be even and at least 4, got 7"):
        ThetaProfile(np.zeros(7))


def test_build_walk_validates_ring():
    with pytest.raises(ValidationError, match="ring size must be even and at least 4, got 7"):
        build_walk(CoinParams(0, 0, 0, 0.5), n_sites=7)
    with pytest.raises(ValidationError, match="ring size must be even and at least 4, got 2"):
        build_walk(CoinParams(0, 0, 0, 0.5), n_sites=2)


def test_zero_coin_is_pure_conditional_shift():
    u = build_walk(CoinParams(0, 0, 0, 0), n_sites=4)
    s = WalkerState.localized(4, 0, (1.0, 0.0))
    for expected_x in (1, -2, -1):  # 0 -> 1 -> 2 == -2 -> -1 on a 4-ring
        s = u.apply(s)
        probs = s.site_probabilities()
        assert probs[expected_x + 2] == pytest.approx(1.0)


def test_dense_is_unitary_for_random_profile():
    rng = np.random.default_rng(2)
    prof = ThetaProfile(rng.uniform(-math.pi, math.pi, 8))
    u = build_walk(CoinParams(0.3, -0.7, 1.9, 0), prof)
    m = u.dense()
    assert np.max(np.abs(m @ m.conj().T - np.eye(16))) < 1e-13


def test_sparse_step_matches_dense_matrix():
    rng = np.random.default_rng(3)
    for n in (8, 16, 32):
        prof = ThetaProfile(rng.uniform(-math.pi, math.pi, n))
        u = build_walk(CoinParams(0.2, 0.4, -0.6, 0), prof)
        amps = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        amps /= np.linalg.norm(amps)
        via_apply = u.apply_array(amps)
        via_dense = (u.dense() @ amps.reshape(-1)).reshape(n, 2)
        assert np.max(np.abs(via_apply - via_dense)) < 1e-12


def _coin_then_shift_oracle(coins: np.ndarray) -> np.ndarray:
    """U = S C from index formulas: coin at site i, then a-amplitudes move to
    i + 1 and b-amplitudes to i - 1 (site-major index 2*i + coin)."""
    n = len(coins)
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    i = np.arange(n)
    for b in (0, 1):
        u[2 * ((i + 1) % n), 2 * i + b] = coins[:, 0, b]
        u[2 * ((i - 1) % n) + 1, 2 * i + b] = coins[:, 1, b]
    return u


def test_dense_matches_index_formula_oracle():
    rng = np.random.default_rng(11)
    for n in (4, 8, 64, 96):
        for prof in (ThetaProfile(rng.uniform(-7, 7, n)),
                     ThetaProfile.sharp_interface(*rng.uniform(-math.pi, math.pi, 2), n)):
            d, a, b = rng.uniform(-math.pi, math.pi, 3)
            u = build_walk(CoinParams(d, a, b, 0), prof)
            assert u.post is None and len(u.layers) == 2
            assert np.array_equal(u.dense(), _coin_then_shift_oracle(u.coins))


def _coin_layer_matrix(coins: np.ndarray) -> np.ndarray:
    n = len(coins)
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    idx = 2 * np.arange(n)
    for a in (0, 1):
        for b in (0, 1):
            m[idx + a, idx + b] = coins[:, a, b]
    return m


def test_timeshift_dense_matches_layer_matrix_product():
    n = 8
    i = np.arange(n)
    shift = np.zeros((2 * n, 2 * n), dtype=complex)
    shift[2 * ((i + 1) % n), 2 * i] = 1.0
    shift[2 * ((i - 1) % n) + 1, 2 * i + 1] = 1.0
    for p in (CoinParams(0.0, 0, 0, 0.7854), CoinParams(0.4, 0, 0, -1.2),
              CoinParams(-2.0, 0, 0, 3.0)):
        for variant in (FrameVariant.V1, FrameVariant.V2):
            u = timeshift_walk(p, variant, n)
            assert u.post.shape == (2, 2) and len(u.layers) == 3
            post = np.broadcast_to(u.post, (n, 2, 2))
            expected = _coin_layer_matrix(post) @ shift @ _coin_layer_matrix(u.coins)
            assert np.max(np.abs(u.dense() - expected)) < 1e-15


def test_apply_array_steps_trailing_batch_axes():
    rng = np.random.default_rng(12)
    u = build_walk(CoinParams(0.3, -0.2, 1.1, 0), ThetaProfile(rng.uniform(-3, 3, 16)))
    batch = rng.standard_normal((16, 2, 3, 2)) + 1j * rng.standard_normal((16, 2, 3, 2))
    out = u.apply_array(batch)
    assert out.shape == batch.shape
    for j in range(3):
        for m in range(2):
            assert np.array_equal(out[:, :, j, m], u.apply_array(batch[:, :, j, m]))


def test_apply_array_matches_index_formula_oracle():
    rng = np.random.default_rng(14)
    for n in (4, 16, 96):
        u = build_walk(CoinParams(*rng.uniform(-math.pi, math.pi, 3), 0),
                       ThetaProfile(rng.uniform(-math.pi, math.pi, n)))
        batch = rng.standard_normal((2 * n, 5)) + 1j * rng.standard_normal((2 * n, 5))
        batch /= np.linalg.norm(batch, axis=0)
        expected = _coin_then_shift_oracle(u.coins) @ batch
        got = u.apply_array(batch.reshape(n, 2, 5)).reshape(2 * n, 5)
        assert np.max(np.abs(got - expected)) <= 1e-15


def _reference_step(u: WalkOperator, amps: np.ndarray) -> np.ndarray:
    """The unfused step: the coins as two-term products, the shift as two
    np.roll copies, then the post coin as two-term products.  apply_array
    must match it bit for bit."""
    c = u.coins.reshape(u.coins.shape + (1,) * (amps.ndim - 2))
    a, b = amps[:, 0], amps[:, 1]
    a, b = (np.roll(c[:, 0, 0] * a + c[:, 0, 1] * b, 1, axis=0),
            np.roll(c[:, 1, 0] * a + c[:, 1, 1] * b, -1, axis=0))
    if u.post is not None:
        q = u.post
        a, b = q[0, 0] * a + q[0, 1] * b, q[1, 0] * a + q[1, 1] * b
    return np.stack([a, b], axis=1)


def _oracle_walks(n: int, rng: np.random.Generator):
    d, a, b = rng.uniform(-math.pi, math.pi, 3)
    plain = build_walk(CoinParams(d, a, b, 0), ThetaProfile(rng.uniform(-math.pi, math.pi, n)))
    yield plain
    yield build_walk(CoinParams(d, a, b, 0),
                     ThetaProfile.sharp_interface(*rng.uniform(-math.pi, math.pi, 2), n))
    for variant in (FrameVariant.V1, FrameVariant.V2):
        yield timeshift_walk(CoinParams(d, 0, 0, rng.uniform(0.1, 3.0)), variant, n)
    # per-site coins and a post coin, which no constructor pairs
    post = coin_matrix(CoinParams(*rng.uniform(-math.pi, math.pi, 4)))
    yield WalkOperator(plain.coins, post=post)


def test_apply_array_is_bit_identical_to_the_unfused_step():
    rng = np.random.default_rng(16)
    for n in (4, 10, 64):
        for u in _oracle_walks(n, rng):
            amps = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            planar = np.ascontiguousarray(amps.T).T
            batch = rng.standard_normal((n, 2, 3, 2)) + 1j * rng.standard_normal((n, 2, 3, 2))
            for x in (amps, planar, batch, np.asfortranarray(batch), amps.real.copy()):
                got = u.apply_array(x)
                assert got.shape == x.shape and got.dtype == complex
                assert np.array_equal(got, _reference_step(u, x))
            assert u.apply_array(amps).flags.c_contiguous
            assert u.apply_array(planar).T.flags.c_contiguous  # planar in, planar out


def test_apply_array_rejects_a_wrong_shape():
    u = build_walk(CoinParams(0, 0, 0, 0.5), n_sites=8)
    for shape in ((10, 2), (8, 3), (8,), (2, 8)):
        with pytest.raises(ValidationError, match=re.escape(f"amplitudes of shape {shape}, "
                                                             "walk of 8 sites needs (8, 2, ...)")):
            u.apply_array(np.zeros(shape, dtype=complex))


def test_site_coins_match_per_site_coin_matrix():
    rng = np.random.default_rng(13)
    # angles well outside (-pi, pi] exercise the wrapping of both paths
    thetas = np.concatenate([rng.uniform(-20, 20, 58),
                             [math.pi, -math.pi, 3 * math.pi, 0.0, -1e-300, 1e-17]])
    prof = ThetaProfile(thetas)
    for d, a, b in ((0.0, 0.0, 0.0), (0.3, -2.2, 1.7), (7.0, -9.0, 4.0)):
        expected = np.stack([coin_matrix(CoinParams(d, a, b, t)) for t in thetas])
        p = CoinParams(d, a, b, 0)
        got = site_coins(p.delta, p.alpha, p.beta, prof)
        assert got.tobytes() == expected.tobytes()
        assert all(got[:, i, j].flags.c_contiguous for i in (0, 1) for j in (0, 1))


def test_localized_covers_exactly_the_ring_labels():
    assert WalkerState.localized(8, -4).site_probabilities()[0] == 1.0
    assert WalkerState.localized(8, 3).site_probabilities()[7] == 1.0
    for x in (-5, 4):
        with pytest.raises(ValidationError, match=rf"site x = {x} is outside .*\[-4, 4\)"):
            WalkerState.localized(8, x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spinor", [(0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0)])
def test_localized_refuses_a_spinor_without_a_finite_nonzero_norm(spinor):
    with pytest.raises(ValidationError, match=re.escape(f"spinor {spinor!r} has norm")):
        WalkerState.localized(8, 0, spinor)


def test_step_preserves_norm_over_long_runs():
    u = build_walk(CoinParams(0.1, 0.2, 0.3, 0.9), n_sites=32)
    s = WalkerState.localized(32, 0)
    for _ in range(1000):
        s = u.apply(s)
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-9


def test_swap_coin_recurrence_against_dense_powers():
    # theta = pi/2, phases zero: coin swaps and negates components.
    p = CoinParams(0, 0, 0, math.pi / 2)
    u = build_walk(p, n_sites=8)
    dense = u.dense()
    s = WalkerState.localized(8, 1, (0.6, 0.8j))
    vec = s.amps.reshape(-1)  # site-major: index 2*i + coin
    for _ in range(12):
        s = u.apply(s)
        vec = dense @ vec
        assert np.max(np.abs(s.amps.reshape(-1) - vec)) < 1e-12


def test_step_is_linear_in_global_phase():
    u = build_walk(CoinParams(0.4, 0.1, 0.7, 1.2), n_sites=8)
    s = WalkerState.localized(8, -2, (0.3, 0.95))
    phase = np.exp(0.713j)
    left = u.apply(WalkerState(phase * s.amps)).amps
    right = phase * u.apply(s).amps
    assert np.max(np.abs(left - right)) < 1e-14


def test_step_dimension_mismatch():
    u = build_walk(CoinParams(0, 0, 0, 0.5), n_sites=8)
    with pytest.raises(ValidationError, match="state ring of 10 sites, walk of 8"):
        u.apply(WalkerState.localized(10, 0))


def test_translation_commutes_with_homogeneous_walk():
    u = build_walk(CoinParams(0.3, 0.8, -0.5, 1.0), n_sites=16)
    s = WalkerState.localized(16, 2, (0.8, 0.6j))
    evolved_then_shifted = np.roll(u.apply(s).amps, 3, axis=0)
    shifted_then_evolved = u.apply(WalkerState(np.roll(s.amps, 3, axis=0))).amps
    assert np.max(np.abs(evolved_then_shifted - shifted_then_evolved)) < 1e-13


def test_evolve_zero_steps_and_semigroup():
    u = build_walk(CoinParams(0, 0, 0, 0.7), n_sites=32)
    s0 = WalkerState.localized(32, 0)
    assert evolve(u, s0, 0).final is s0

    full = evolve(u, s0, 30).final
    first = evolve(u, s0, 12).final
    rest = evolve(u, first, 18).final
    assert np.max(np.abs(full.amps - rest.amps)) < 1e-10


def test_evolve_norm_drift_over_500_steps():
    n = 4096
    u = build_walk(CoinParams(0.3, -1.1, 0.8, 0),
                   ThetaProfile.sharp_interface(-math.pi / 4, 1.2, n))
    traj = evolve(u, WalkerState.localized(n, 0, (0.6, 0.8j)), 500)
    assert abs(np.linalg.norm(traj.final.amps) - 1.0) <= 1e-12


def test_evolve_conserves_probability():
    u = build_walk(CoinParams(0.2, -0.3, 0.9, 1.1), n_sites=64)
    s = WalkerState.localized(64, 0)
    assert len(evolve(u, s, 100).interface_prob) == 101
    for _ in range(10):  # the state every 10 steps up to 100
        s = evolve(u, s, 10).final
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


def _moved(u, s0, center):
    """The walk and the state moved by -center sites (np.roll), so that
    evolve's interface window at x = 0 sees the sites around label ``center``."""
    return (WalkOperator(np.roll(u.coins, -center, axis=0), u.post),
            WalkerState(np.roll(s0.amps, -center, axis=0)))


def _interface_window(n):
    """The ring indices of evolve's interface window and their parity signs."""
    labels = window_sites(0, WINDOW_HALFWIDTH, n)
    return labels + n // 2, 1.0 - 2.0 * (labels & 1)


def _reference_observables(amps, sites, win, signs):
    re_im = amps.view(float)
    probs = np.einsum("ij,ij->i", re_im, re_im)
    mean = float(probs @ sites)
    var = float(probs @ (sites - mean) ** 2)
    in_win = probs[win]
    return (float(np.sum(in_win)), float(signs @ in_win), mean,
            float(np.sqrt(max(var, 0.0))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 32), _angles, _angles, _angles, st.integers(0, 2**32 - 1),
       st.integers(0, 40), st.floats(0.0, 1.0, exclude_max=True))
def test_evolve_observables_match_a_reference_loop(half, d, a, b, seed, steps, where):
    n = 2 * half
    rng = np.random.default_rng(seed)
    u = build_walk(CoinParams(d, a, b, 0), ThetaProfile(rng.uniform(-math.pi, math.pi, n)))
    amps = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    u, s0 = _moved(u, WalkerState(amps / np.linalg.norm(amps)), int(where * n) - n // 2)
    traj = evolve(u, s0, steps)

    win, signs = _interface_window(n)
    sites = s0.sites  # integers
    expected = []
    amps = s0.amps
    for t in range(steps + 1):
        if t:
            amps = _reference_step(u, amps)
        expected.append(_reference_observables(amps, sites, win, signs))
    columns = (traj.interface_prob, traj.staggered_prob, traj.mean_x, traj.sigma_x)
    for got, want in zip(columns, np.array(expected).T):
        assert np.array_equal(got, want)

    for t in range(steps + 1):  # the state after t steps, from a run of t steps
        probs = np.sum(np.abs(evolve(u, s0, t).final.amps) ** 2, axis=1)
        mean = probs @ sites
        recomputed = (np.sum(probs[win]), signs @ probs[win], mean,
                      math.sqrt(probs @ (sites - mean) ** 2))
        for got, want in zip(columns, recomputed):
            assert abs(got[t] - want) <= 1e-14


# A real or imaginary part below this is zeroed by evolve: its square is below
# the smallest normal float64.
_ZEROED_BELOW = 2.0**-511


def _unzeroed_observables(u, s0, steps):
    """evolve's four columns from the reference loop, which never zeroes an
    amplitude."""
    win, signs = _interface_window(u.n_sites)
    rows = []
    amps = s0.amps
    for t in range(steps + 1):
        if t:
            amps = _reference_step(u, amps)
        rows.append(_reference_observables(amps, s0.sites, win, signs))
    return np.array(rows).T


@pytest.mark.parametrize("seed, n, steps", [(0, 1024, 500), (1, 1024, 500), (2, 2048, 1000),
                                            (3, 512, 700)])
def test_evolve_zeroing_leaves_edge_state_observables_bit_identical(seed, n, steps):
    rng = np.random.default_rng([seed, 511])
    d, a, b = rng.uniform(-math.pi, math.pi, 3)
    spec = InterfaceSpec(d, a, b, -rng.uniform(0.05, math.pi - 0.05),
                         rng.uniform(0.05, math.pi - 0.05), n)
    u = spec.walk()
    for case in InitialStateCase:
        s0, _ = initial_state(spec, case)
        traj = evolve(u, s0, steps)
        got = (traj.interface_prob, traj.staggered_prob, traj.mean_x, traj.sigma_x)
        for column, want in zip(got, _unzeroed_observables(u, s0, steps)):
            assert np.array_equal(column, want)


def test_evolve_final_state_holds_no_part_below_the_zeroing_threshold():
    spec = InterfaceSpec(0.4, -0.9, 2.1, -0.6, 1.1, 1024)
    u = spec.walk()
    for case in InitialStateCase:
        s0, _ = initial_state(spec, case)
        before = s0.amps.copy()
        parts = np.abs(s0.amps.view(float))
        assert np.any((parts > 0) & (parts < _ZEROED_BELOW))  # the tails underflow
        assert evolve(u, s0, 0).final is s0
        for steps in [*range(7, 120, 7), 120]:
            parts = np.abs(evolve(u, s0, steps).final.amps.view(float))
            assert not np.any((parts > 0) & (parts < _ZEROED_BELOW))
        assert np.array_equal(s0.amps, before)


def test_evolve_window_deep_in_an_edge_tail_reads_zero():
    # The eta = 0 state decays like (sqrt(2) - 1)^x on the right.  Past the
    # first site whose parts are all below 2^-520 the site probabilities are
    # subnormal: the never-zeroing loop keeps reading them, evolve reads 0.0
    # once the first step's zeroing has removed them.  The wall and its state
    # are moved so that the interface window starts at that site.
    spec = InterfaceSpec(0, 0, 0, -math.pi / 4, math.pi / 4, 2048)
    s0 = analytic_edge_state(spec, 0.0)
    parts = np.abs(s0.amps.view(float)).max(axis=1)
    center = int(s0.sites[np.argmax((s0.sites > 0) & (parts < 2.0**-520))]) + WINDOW_HALFWIDTH
    u, s0 = _moved(spec.walk(), s0, center)
    traj = evolve(u, s0, 10)
    old = _unzeroed_observables(u, s0, 10)[0]
    assert np.all((old > 0.0) & (old < np.finfo(float).tiny))
    assert traj.interface_prob[0] == old[0]
    assert np.all(traj.interface_prob[1:] == 0.0)


def _full_ring_evolve(u, s0, steps):
    """evolve's trajectory columns and final amplitudes from a loop that treats
    the whole ring every step: _reference_step, then the observables, then the
    zeroing, in evolve's order."""
    win, signs = _interface_window(u.n_sites)
    sites = s0.sites.astype(float)
    rows = []
    amps = s0.amps.copy()
    for t in range(steps + 1):
        if t:
            amps = _reference_step(u, amps)
        rows.append(_reference_observables(amps, sites, win, signs))
        parts = amps.view(float)
        parts[parts * parts < np.finfo(float).tiny] = 0.0
    return np.array(rows).reshape(-1, 4).T, amps if steps else s0.amps


def _oracle_start(kind, n, rng, center=0):
    """(walk, initial state) for one draw of the window oracle, both moved by
    -center sites (``_moved``).  "site_0" and "site_last" draw their site where
    the move takes it to ring index 0 and N - 1."""
    d, a, b = rng.uniform(-math.pi, math.pi, 3)
    if kind in ("wall", "closing"):
        lo, hi = (1.1, math.pi - 1.1) if kind == "wall" else (0.05, 0.06)
        t2 = rng.uniform(lo, hi)
        t2 = t2 if kind == "wall" or rng.random() < 0.5 else math.pi - t2
        spec = InterfaceSpec(d, a, b, -rng.uniform(1.1, math.pi - 1.1), t2, n)
        s0, _ = initial_state(spec, list(InitialStateCase)[rng.integers(3)])
        return _moved(spec.walk(), s0, center)
    if kind in ("timeshift_v1", "timeshift_v2"):
        variant = FrameVariant.V1 if kind == "timeshift_v1" else FrameVariant.V2
        u = timeshift_walk(CoinParams(d, 0, 0, rng.uniform(0.1, 3.0)), variant, n)
    else:
        u = build_walk(CoinParams(d, a, b, 0), ThetaProfile(rng.uniform(-math.pi, math.pi, n)))
    amps = np.zeros((n, 2), dtype=complex)
    if kind == "random":
        amps = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        amps /= np.linalg.norm(amps)
    elif kind != "zero":
        where = {"site_0": center, "site_last": center - 1}.get(kind, int(rng.integers(n)))
        amps[where % n] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return _moved(u, WalkerState(amps), center)


_ORACLE_KINDS = ("wall", "closing", "site_0", "site_last", "site", "random", "zero",
                 "timeshift_v1", "timeshift_v2")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_ORACLE_KINDS), st.integers(2, 256), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.25), st.floats(0.0, 1.0, exclude_max=True))
@example("closing", 2, 0, 1.0, 0.5)
@example("wall", 256, 1, 1.25, 0.5)
@example("site", 256, 2, 1.25, 0.9)
def test_evolve_window_is_byte_identical_to_full_ring_steps(kind, half, seed, reach, where):
    # The tails of a wall with 1.1 <= |theta| <= pi - 1.1 fall below 2^-511
    # within 248 sites, so on 512 sites or more they end inside the ring.  A
    # wall near a gap closing (theta2 within 0.06 of 0 or pi) needs a ring of
    # 554 sites, and its tails then fill the ring at t = 0.
    n = {"closing": 560, "wall": 512 + 2 * half}.get(kind, 2 * half)
    u, s0 = _oracle_start(kind, n, np.random.default_rng(seed), int(where * n) - n // 2)
    steps = int(reach * n)
    traj = evolve(u, s0, steps)
    columns, final = _full_ring_evolve(u, s0, steps)
    got = (traj.interface_prob, traj.staggered_prob, traj.mean_x, traj.sigma_x)
    for column, want in zip(got, columns):
        assert column.tobytes() == want.tobytes()
    assert traj.final.amps.tobytes() == final.tobytes()


@pytest.mark.parametrize("kind", ["site", "timeshift_v1", "timeshift_v2"])
def test_evolve_steps_only_the_occupied_window(kind, monkeypatch):
    n, steps = 512, 100
    u, _ = _oracle_start(kind, n, np.random.default_rng(5))
    s0 = WalkerState.localized(n, 0, (0.6, 0.8j))
    support = 1
    widths = []

    def recording(c, post, amps, *buffers):
        widths.append(amps.shape[0])
        return kernel(c, post, amps, *buffers)

    kernel = lattice._step
    monkeypatch.setattr(lattice, "_step", recording)
    traj = evolve(u, s0, steps)
    assert len(widths) == steps
    for t, width in enumerate(widths, start=1):
        assert width <= support + 2 * t < n
    monkeypatch.undo()
    columns, final = _full_ring_evolve(u, s0, steps)
    assert traj.interface_prob.tobytes() == columns[0].tobytes()
    assert traj.final.amps.tobytes() == final.tobytes()


def test_evolve_steps_the_whole_ring_when_a_coin_is_not_finite():
    # A NaN coin spreads NaN from its own site on the first whole-ring step,
    # however far the state is from it.
    thetas = np.full(64, 0.7)
    thetas[3] = np.nan
    u = build_walk(CoinParams(0.2, 0.1, -0.4, 0), ThetaProfile(thetas))
    s0 = WalkerState.localized(64, 0)
    traj = evolve(u, s0, 10)
    columns, final = _full_ring_evolve(u, s0, 10)
    assert np.all(np.isnan(traj.mean_x[1:]))
    for column, want in zip((traj.interface_prob, traj.staggered_prob, traj.mean_x,
                             traj.sigma_x), columns):
        assert np.array_equal(column, want, equal_nan=True)
    for t in range(11):  # the state after each step
        want = _full_ring_evolve(u, s0, t)[1]
        assert np.array_equal(evolve(u, s0, t).final.amps, want, equal_nan=True)


def test_diagonalize_matches_dispersion():
    p = CoinParams(0, 0, 0, math.pi / 4)
    sd = diagonalize(build_walk(p, n_sites=16))
    ks = 2 * math.pi * np.arange(16) / 16
    expected = np.sort(wrap_angles(np.concatenate([dispersion(p, ks), -dispersion(p, ks)])))
    assert np.max(np.abs(np.sort(sd.eigenphases) - expected)) < 1e-10
    assert sd.max_residual < 1e-10


def test_diagonalize_with_delta_shift():
    p = CoinParams(0.4, 2 * math.pi / 16, 0.3, 0.9)
    sd = diagonalize(build_walk(p, n_sites=16))
    ks = 2 * math.pi * np.arange(16) / 16
    w = dispersion(p, ks)
    expected = np.sort(wrap_angles(np.concatenate([p.delta + w, p.delta - w])))
    assert np.max(np.abs(np.sort(sd.eigenphases) - expected)) < 1e-10


def test_diagonalize_orthonormal_vectors():
    u = build_walk(CoinParams(0, 0, 0, 0.6), ThetaProfile.sharp_interface(-0.6, 0.6, 12))
    sd = diagonalize(u)
    gram = sd.vectors.conj().T @ sd.vectors
    assert np.max(np.abs(gram - np.eye(24))) < 1e-13


def _schur_reference(u):
    """The 2N x 2N complex Schur eigendecomposition of the dense walk:
    (sorted eigenphases, max residual) as an independent oracle."""
    mat = u.dense()
    t, z = scipy.linalg.schur(mat, output="complex")
    eigvals = np.diag(t)
    residual = np.max(np.linalg.norm(mat @ z - z * eigvals[None, :], axis=0))
    return np.sort(wrap_angles(-np.angle(eigvals))), residual


def _split_oracle_walks(n, rng):
    for _ in range(3):
        d, a, b = rng.uniform(-math.pi, math.pi, 3)
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        yield build_walk(CoinParams(d, a, b, 0), ThetaProfile.sharp_interface(t1, t2, n))
    for variant in (FrameVariant.V1, FrameVariant.V2):
        d, t = rng.uniform(-math.pi, math.pi, 2)
        yield timeshift_walk(CoinParams(d, 0, 0, t), variant, n)


def _assert_spectrum(u, ref_phases):
    """diagonalize(u) and eigenvalues(u) against reference eigenphases: within
    1e-13 on the circle, and diagonalize's residual and |V^dagger V - I| at
    most 1e-13."""
    ref_phases = np.sort(wrap_angles(ref_phases))
    sd = diagonalize(u)
    # sort each spectrum from the middle of the oracle's widest gap, so a
    # phase at -pi + eps on one side and pi - eps on the other still pair up
    gaps = np.diff(np.append(ref_phases, ref_phases[0] + 2 * math.pi))
    cut = ref_phases[np.argmax(gaps)] + gaps.max() / 2
    want = np.sort(wrap_angles(ref_phases - cut))
    for phases in (sd.eigenphases, -np.angle(eigenvalues(u))):
        assert np.max(np.abs(np.sort(wrap_angles(phases - cut)) - want)) <= 1e-13
    assert sd.max_residual <= 1e-13
    gram = sd.vectors.conj().T @ sd.vectors
    assert np.max(np.abs(gram - np.eye(2 * u.n_sites))) <= 1e-13


def _assert_matches_schur(u):
    """_assert_spectrum against the full 2N x 2N Schur oracle, whose own
    residual is at most 1e-13."""
    ref_phases, ref_residual = _schur_reference(u)
    assert ref_residual <= 1e-13
    _assert_spectrum(u, ref_phases)


@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_sublattice_split_matches_full_schur(n):
    rng = np.random.default_rng(100 + n)
    for u in _split_oracle_walks(n, rng):
        _assert_matches_schur(u)


# Coin angles with the gap closings and theta = +/- pi/2 drawn often.
_coin_thetas = st.one_of(
    _angles,
    st.floats(-1e-6, 1e-6),
    st.floats(0.0, 1e-6).map(lambda e: math.pi - e),
    st.floats(0.0, 1e-6).map(lambda e: e - math.pi),
    st.sampled_from([math.pi / 2, -math.pi / 2]),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["ring", "wall", "V1", "V2"]), st.integers(2, 64), _angles, _angles,
       _coin_thetas, _coin_thetas, st.sampled_from(["zero", "lattice", "random"]),
       st.integers(0, 127), _angles)
def test_diagonalize_matches_full_schur(kind, half, d, b, t1, t2, alpha_kind, m, a):
    n = 2 * half
    if kind == "ring":
        alpha = {"zero": 0.0, "lattice": 2 * math.pi * (m % n) / n, "random": a}[alpha_kind]
        u = build_walk(CoinParams(d, alpha, b, t1), n_sites=n)
    elif kind == "wall":
        u = build_walk(CoinParams(d, a, b, 0), ThetaProfile.sharp_interface(t1, t2, n))
    else:
        u = timeshift_walk(CoinParams(d, 0, 0, t1 if abs(t1) > 1e-12 else 1e-6),
                           FrameVariant[kind], n)
    _assert_matches_schur(u)


def test_diagonalize_matches_the_dispersion_on_the_most_degenerate_ring():
    # alpha = 0 and theta = 0: U is the bare shift, every eigenvalue of BA has
    # multiplicity 2 or 4.  A homogeneous ring's eigenphases are
    # delta +/- dispersion at its momenta 2 pi m / N.
    p, n = CoinParams(0, 0, 0, 0), DENSE_CAP
    w = dispersion(p, 2 * math.pi * np.arange(n) / n)
    _assert_spectrum(build_walk(p, n_sites=n), np.concatenate([p.delta + w, p.delta - w]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 24), _angles, _angles, _angles, _angles, _angles,
       st.sampled_from(["plain", "interface", "V1", "V2"]))
def test_same_parity_blocks_are_exactly_zero(half, d, a, b, t1, t2, kind):
    n = 2 * half
    if kind == "plain":
        u = build_walk(CoinParams(d, a, b, t1), n_sites=n)
    elif kind == "interface":
        u = build_walk(CoinParams(d, a, b, 0), ThetaProfile.sharp_interface(t1, t2, n))
    else:
        if abs(t1) < 1e-12:
            t1 = 0.5
        u = timeshift_walk(CoinParams(d, 0, 0, t1), FrameVariant[kind], n)
    parity = np.repeat(np.arange(n) % 2, 2)
    mat = u.dense()
    assert not mat[parity[:, None] == parity[None, :]].any()
    full, a_block, b_block = sublattice_blocks(u)
    assert np.array_equal(full, mat)
    assert np.array_equal(a_block, mat[parity == 1][:, parity == 0])
    assert np.array_equal(b_block, mat[parity == 0][:, parity == 1])


def test_a_coin_that_is_not_finite_fails_the_eigensolve():
    thetas = np.full(8, 0.9)
    thetas[3] = np.nan
    u = build_walk(CoinParams(0.2, 0.3, -0.4, 0), ThetaProfile(thetas))
    for solve in (diagonalize, eigenvalues):
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            solve(u)


def _hard_phases(n, rng, mult, split, conj, special, phi0):
    """n eigenphases: random values, each repeated ``mult`` times with the
    copies ``split`` apart, optionally in pairs +/- phi that (M + M^dagger) / 2
    folds together, then a special pattern written over the first few."""
    base = rng.uniform(-math.pi, math.pi, -(-n // mult))
    if conj:
        base[1::2] = -base[:base.size // 2 * 2:2]
    phases = (np.repeat(base, mult) + split * (np.arange(base.size * mult) % mult))[:n]
    gap = lattice.CLUSTER_GAP
    c0 = min(math.cos(phi0), 1 - 4 * gap)
    head = {
        "none": [],
        "point": [phi0] * n,  # the theta = +/- pi/2 flat band
        "pi": [math.pi, -math.pi, math.pi - split, -math.pi + split],
        "half_pi": [math.pi / 2 + split, math.pi / 2 - split, -math.pi / 2 + split],
        "below_gap": [math.acos(c0 + j * gap * (1 - 1e-3)) for j in range(4)],
        "above_gap": [math.acos(c0 + j * gap * (1 + 1e-3)) for j in range(4)],
    }[special][:n]
    phases[:len(head)] = head
    return phases


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@example(128, 1, 1, 0.0, False, "point", -0.4)
@example(64, 2, 2, 1e-12, True, "below_gap", 0.3)
@example(64, 3, 4, 1e-9, True, "above_gap", 2.0)
@example(8, 4, 2, 1e-6, False, "pi", 0.0)
@example(8, 5, 1, 1e-12, True, "half_pi", 0.0)
@given(st.sampled_from([2, 3, 8, 64, 128]), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 2, 4]), st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), st.booleans(),
       st.sampled_from(["none", "point", "pi", "half_pi", "below_gap", "above_gap"]), _angles)
def test_unitary_eig_on_hard_spectra(n, seed, mult, split, conj, special, phi0):
    # M = Q diag(e^{i phi}) Q^dagger with a seeded Haar-like Q: exact 2- and
    # 4-fold degeneracies, small splits, gaps of H on both sides of
    # CLUSTER_GAP, phases at +/- pi and a one-point spectrum
    rng = np.random.default_rng(seed)
    phases = _hard_phases(n, rng, mult, split, conj, special, phi0)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q *= np.diagonal(r) / np.abs(np.diagonal(r))
    m = (q * np.exp(1j * phases)) @ q.conj().T
    lam, z = lattice._unitary_eig(m)
    assert np.max(np.linalg.norm(m @ z - z * lam, axis=0)) <= 1e-13
    assert np.max(np.abs(z.conj().T @ z - np.eye(n))) <= 1e-13
    want = np.sort(wrap_angles(phases))
    gaps = np.diff(np.append(want, want[0] + 2 * math.pi))
    # sorted from the middle of the widest gap, as in _assert_spectrum, and
    # compared on the circle, since a one-point spectrum sits at the cut
    cut = want[np.argmax(gaps)] + gaps.max() / 2
    got = np.sort(wrap_angles(np.angle(lam) - cut)) - np.sort(wrap_angles(want - cut))
    assert np.max(np.abs(wrap_angles(got))) <= 1e-13


def test_unitary_eig_refuses_what_is_not_finite():
    # eigh alone would say "did not converge"
    m = np.eye(4, dtype=complex)
    m[1, 2] = np.inf
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        lattice._unitary_eig(m)


def test_diagonalize_size_cap():
    with pytest.raises(ValidationError, match=r"a ring of 514 sites is too large for the dense "
                                              r"operator: DENSE_CAP is 512 sites"):
        diagonalize(build_walk(CoinParams(0, 0, 0, 0.5), n_sites=514))


def test_interface_ring_has_two_states_per_gap():
    prof = ThetaProfile.sharp_interface(-math.pi / 4, math.pi / 4, 64)
    u = build_walk(CoinParams(0, 0, math.pi / 2, math.pi / 4), prof)
    sd = diagonalize(u)
    near_zero = np.sum(np.abs(sd.eigenphases) < 1e-6)
    near_pi = np.sum(np.pi - np.abs(sd.eigenphases) < 1e-6)
    assert near_zero == 2 and near_pi == 2


def _window_weights(sd, window, n):
    """Probability weight of each eigenvector inside the window of site labels."""
    return sd.site_probabilities()[:, [(int(x) + n // 2) % n for x in window]].sum(axis=1)


def test_window_weights_extended_vs_bound():
    n = 64
    window = window_sites(0, 10, n)
    hom = diagonalize(build_walk(CoinParams(0, 0, 0, math.pi / 4), n_sites=n))
    weights = _window_weights(hom, window, n)
    assert np.all((weights >= 0.0) & (weights <= 1.0))
    assert np.max(weights) < 2.5 * len(window) / n  # no localized states

    prof = ThetaProfile.sharp_interface(-math.pi / 4, math.pi / 4, n)
    sd = diagonalize(build_walk(CoinParams(0, 0, math.pi / 2, math.pi / 4), prof))
    both_windows = sorted(set(window_sites(0, 10, n)) | set(window_sites(-n // 2, 10, n)))
    weights = _window_weights(sd, both_windows, n)
    w = sd.eigenphases
    gap_states = (weights > 0.9) & ((np.abs(w) < 1e-6) | (np.pi - np.abs(w) < 1e-6))
    assert np.sum(gap_states) == 4
    ipr = np.sum(sd.site_probabilities() ** 2, axis=1)
    assert np.all(ipr[gap_states] > 10.0 / n)  # far above extended-state IPR


def test_window_sites_wraps():
    assert list(window_sites(-16, 2, 32)) == [-16, -15, -14, 15, 14] or \
        sorted(window_sites(-16, 2, 32)) == sorted([-16, -15, -14, 14, 15])


def test_tables_have_contracted_shapes():
    u = build_walk(CoinParams(0, 0, 0, 0.5), n_sites=8)
    s = WalkerState.localized(8, 0)
    table = state_table(s)
    assert len(table) == 8 and len(table.columns) == len(table.header) == 6
    table = trajectory_table(evolve(u, s, 5))
    assert len(table) == 6 and len(table.columns) == len(table.header) == 4


def test_state_csv_bytes_match_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(15)
    amps = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    amps[3, 0] = complex(-0.0, math.nan)
    amps[5, 1] = complex(math.inf, 1e-300)
    s = WalkerState(amps)
    table = state_table(s)
    assert [c.dtype.kind for c in table.columns] == ["i"] + ["f"] * 5
    # per-cell text from the numpy scalars: the site as str, every float by repr
    texts = [[str(x)] + [repr(float(v)) for v in (a.real, a.imag, b.real, b.imag, p)]
             for x, (a, b), p in zip(s.sites, s.amps, s.site_probabilities())]
    text_table = io.Table(table.header, *(np.array(c, dtype=object) for c in zip(*texts)))
    written = []
    for name, rows in (("plain", table), ("text", text_table)):
        io.write_csv(tmp_path / name, rows)
        written.append((tmp_path / name).read_bytes())
    assert written[0] == written[1]
    assert b",nan," in written[0] and b",-0.0," in written[0] and b",inf," in written[0]


class _FailingCell:
    def __str__(self):
        raise RuntimeError("cell failed")


def test_a_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "t.csv"
    cells = np.array([2.0, _FailingCell()], dtype=object)
    with pytest.raises(RuntimeError, match="cell failed"):
        io.write_csv(path, io.Table(["x", "y"], np.arange(2), cells))
    assert list(tmp_path.iterdir()) == []
    # a temporary file that open never made is not a second error
    with pytest.raises(FileNotFoundError):
        io.write_csv(tmp_path / "missing" / "t.csv", io.Table(["x"], np.arange(1)))
    assert list(tmp_path.iterdir()) == []
