import math

import mpmath
import numpy as np
import pytest

from obflab.batch import (
    _gains,
    batch_adaptive_obf,
    batch_random_obf,
    batch_random_olbf,
    batch_zfdp,
    batch_zfs,
)
from obflab.channel import ChannelSet, draw_channel_batch, null_space_basis, substream
from obflab.schedulers import (
    adaptive_obf,
    greedy_zfdp_schedule,
    olbf,
    sum_rate,
    zfs_schedule,
)
from obflab.montecarlo import CHUNK, SCHEME_TABLE


def _greedy_obf_oracle(H: np.ndarray, P: float, r: int):
    """Independent re-implementation of the fixed-r greedy selection."""
    K, M = H.shape
    gains = np.sum(np.abs(H) ** 2, axis=1)
    Hbar = H / np.sqrt(gains)[:, None]
    noise = r / P
    users = [int(np.argmax(gains))]
    sinrs = [gains[users[0]] / noise]
    basis = [Hbar[users[0]]]
    for _ in range(1, r):
        W = np.stack(basis, axis=1)
        # projector built from the pseudo-inverse rather than the
        # accumulated Gram-Schmidt, to keep the oracle independent
        proj = W @ np.linalg.pinv(W)
        best, best_val = None, -1.0
        for k in range(K):
            if k in users:
                continue
            residual = Hbar[k] - proj @ Hbar[k]
            p2 = float(np.real(residual.conj() @ residual))
            val = gains[k] * p2 / (gains[k] * (1.0 - p2) + noise)
            if val > best_val + 1e-15:
                best, best_val = k, val
        users.append(best)
        sinrs.append(best_val)
        residual = Hbar[best] - proj @ Hbar[best]
        basis.append(residual / np.linalg.norm(residual))
    return users, np.array(sinrs)


def _olbf_oracle(H: np.ndarray, P: float):
    """Independent re-implementation of the fixed-beam-set selection."""
    K, M = H.shape
    gains = np.sum(np.abs(H) ** 2, axis=1)
    Hbar = H / np.sqrt(gains)[:, None]
    noise = M / P
    k1 = int(np.argmax(gains))
    users = [k1]
    sinrs = [gains[k1] / noise]
    W2 = null_space_basis(Hbar[k1])  # beam set is defined by this basis
    for b in range(M - 1):
        best, best_val = None, -1.0
        for k in range(K):
            if k in users:
                continue
            q2 = float(np.abs(W2[:, b].conj() @ Hbar[k]) ** 2)
            val = gains[k] * q2 / (gains[k] * (1.0 - q2) + noise)
            if val > best_val + 1e-15:
                best, best_val = k, val
        users.append(best)
        sinrs.append(best_val)
    return users, np.array(sinrs)


def _zfs_one_inverse_per_candidate(H: np.ndarray, P: float, r: int):
    """The greedy ZFS selection with one Gram inverse per candidate set."""
    K, M = H.shape
    gains = np.sum(np.abs(H) ** 2, axis=1)

    def zf_gains(rows):
        A = H[rows]
        try:
            inv_diag = np.real(np.diagonal(np.linalg.inv(A @ A.conj().T)))
        except np.linalg.LinAlgError:
            return None
        if np.any(inv_diag <= 0) or not np.all(np.isfinite(inv_diag)):
            return None
        return 1.0 / inv_diag

    users = []
    for _ in range(r):
        best_u, best_rate = None, -np.inf
        for u in range(K):
            if u in users:
                continue
            g = zf_gains(users + [u])
            if g is None or not g[-1] > 1e-12 * gains[u]:
                continue
            rate = sum_rate(P / r * g)
            if rate > best_rate:
                best_u, best_rate = u, rate
        users.append(best_u)
    return tuple(users), P / r * zf_gains(users)


def test_sum_rate_trivial():
    assert sum_rate([0.0, 0.0]) == 0.0
    assert sum_rate([math.e - 1.0]) == pytest.approx(1.0)


def test_adaptive_obf_matches_oracle():
    P = 10.0
    for seed in range(40):
        H = draw_channel_batch(6, 3, substream(seed, 0))[0]
        out = adaptive_obf(ChannelSet(H=H), P, force_r=3)
        users, sinrs = _greedy_obf_oracle(H, P, 3)
        assert list(out.users) == users
        assert np.allclose(out.sinrs, sinrs, rtol=1e-9)


def test_olbf_matches_oracle():
    P = 10.0
    for seed in range(40):
        H = draw_channel_batch(6, 3, substream(seed, 1))[0]
        out = olbf(ChannelSet(H=H), P)
        users, sinrs = _olbf_oracle(H, P)
        assert list(out.users) == users
        assert np.allclose(out.sinrs, sinrs, rtol=1e-9)


def test_hand_case_diagonal_channels():
    # rows along coordinate axes: the second beam sees no interference
    P = 8.0
    H = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
    out = adaptive_obf(ChannelSet(H=H), P, force_r=2)
    assert list(out.users) == [0, 1]
    assert out.sinrs[0] == pytest.approx(4.0 * P / 2.0)
    assert out.sinrs[1] == pytest.approx(1.0 * P / 2.0)
    out2 = olbf(ChannelSet(H=H), P)
    assert list(out2.users) == [0, 1]
    assert np.allclose(out2.sinrs, out.sinrs, rtol=1e-12)


def test_adaptive_obf_beams_orthonormal():
    P = 5.0
    for seed in range(20):
        H = draw_channel_batch(8, 4, substream(seed, 2))[0]
        out = adaptive_obf(ChannelSet(H=H), P, force_r=4)
        G = out.W.conj().T @ out.W
        assert np.allclose(G, np.eye(out.W.shape[1]), atol=1e-10)
        assert len(set(out.users)) == len(out.users)


def test_adaptive_stopping_never_beats_forced_sum_rate_per_step():
    # the adaptive variant schedules a prefix whose rate is monotone
    P = 2.0
    for seed in range(20):
        H = draw_channel_batch(6, 3, substream(seed, 3))[0]
        out = adaptive_obf(ChannelSet(H=H), P)
        assert 1 <= len(out.users) <= 3
        assert out.sum_rate == pytest.approx(sum_rate(out.sinrs))


def test_m2_scheme_identity_per_trial():
    P = 10.0 ** 1.5
    for seed in range(200):
        H = draw_channel_batch(2, 2, substream(seed, 4))[0]
        a = adaptive_obf(ChannelSet(H=H), P, force_r=2)
        b = olbf(ChannelSet(H=H), P)
        assert a.users == b.users
        assert np.allclose(a.sinrs, b.sinrs, rtol=1e-9, atol=1e-12)


def test_zfs_and_zfdp_structure():
    P = 10.0
    for seed in range(10):
        H = draw_channel_batch(6, 3, substream(seed, 5))[0]
        for out in (zfs_schedule(ChannelSet(H=H), P, 3),
                    greedy_zfdp_schedule(ChannelSet(H=H), P, 3)):
            assert np.all(out.sinrs >= 0)
            assert len(set(out.users)) == len(out.users)
            assert out.sum_rate == pytest.approx(sum_rate(out.sinrs))


def test_zfdp_first_user_is_best_gain():
    P = 10.0
    H = draw_channel_batch(6, 3, substream(1, 6))[0]
    out = greedy_zfdp_schedule(ChannelSet(H=H), P, 3)
    gains = np.sum(np.abs(H) ** 2, axis=1)
    assert out.users[0] == int(np.argmax(gains))
    # dirty-paper first stream sees no interference
    assert out.sinrs[0] == pytest.approx(gains[out.users[0]] * P / 3.0)


def test_random_selection_obf_ordering_and_support():
    P = 10.0
    H = draw_channel_batch(6, 3, substream(7, 0), count=50)
    users, vs, rates = batch_random_obf(H, P, 3, substream(9, 0))
    assert vs.shape == (50, 3)
    assert np.all(np.diff(vs, axis=1) <= 1e-12)
    assert np.all(vs >= 0)
    assert np.allclose(rates, np.log1p(vs).sum(axis=1))


def test_random_selection_olbf_region():
    P = 10.0
    H = draw_channel_batch(6, 3, substream(8, 0), count=50)
    _, vs, _ = batch_random_olbf(H, P, substream(9, 1))
    assert vs.shape == (50, 3)
    z = vs / (1.0 + vs)
    assert np.all(z[:, 1:].sum(axis=1) <= z[:, 0] + 1e-12)


@pytest.mark.parametrize(
    "scheme", [name for name, spec in SCHEME_TABLE.items() if spec.oracle is not None]
)
def test_batch_kernels_match_scalar(scheme):
    P, r = 10.0, 3
    spec = SCHEME_TABLE[scheme]
    H = draw_channel_batch(6, 3, substream(11, 0), count=200)
    users, sinrs, rates = spec.kernel(H, P, r, None)  # no random picks with an oracle
    for i in range(200):
        out = spec.oracle(ChannelSet(H=H[i]), P, r)
        assert tuple(users[i]) == out.users
        assert np.allclose(sinrs[i], out.sinrs, rtol=1e-9, atol=1e-12)
        assert rates[i] == pytest.approx(out.sum_rate, rel=1e-9)


@pytest.mark.parametrize("M, K, r", [(1, 3, 1), (2, 5, 2), (3, 10, 2), (3, 10, 3), (4, 4, 4),
                                     (4, 20, 3), (8, 20, 8)])
@pytest.mark.parametrize("kernel, oracle", [(batch_zfs, zfs_schedule),
                                            (batch_zfdp, greedy_zfdp_schedule)],
                         ids=["zfs", "zfdp"])
def test_zf_kernels_match_scalar_across_shapes(kernel, oracle, M, K, r):
    P, trials = 10.0 ** 1.5, 300
    H = draw_channel_batch(K, M, substream(17, M * 100 + K), count=trials)
    users, sinrs, _ = kernel(H, P, r)
    for i in range(trials):
        out = oracle(ChannelSet(H=H[i]), P, r)
        assert tuple(users[i]) == out.users
        assert np.allclose(sinrs[i], out.sinrs, rtol=1e-9, atol=1e-12)


_OBF_SHAPES = [(2, 5, 2), (3, 10, 2), (3, 10, 3), (4, 4, 4), (4, 100, 4), (8, 20, 8)]


@pytest.mark.parametrize("scheme, M, K, r", [("adaptive-obf", *s) for s in _OBF_SHAPES]
                         + [("olbf", M, K, r) for M, K, r in _OBF_SHAPES if r == M])
def test_obf_kernels_match_scalar_across_shapes(scheme, M, K, r):
    P, trials = 10.0 ** 1.5, 300
    spec = SCHEME_TABLE[scheme]
    H = draw_channel_batch(K, M, substream(19, M * 100 + K), count=trials)
    users, sinrs, _ = spec.kernel(H, P, r, None)
    for i in range(trials):
        out = spec.oracle(ChannelSet(H=H[i]), P, r)
        assert tuple(users[i]) == out.users
        assert np.allclose(sinrs[i], out.sinrs, rtol=1e-9, atol=1e-12)


def _gram_schmidt_mpmath(H: np.ndarray, users):
    """Per scheduled row, ||h_u||^2 and its energy off the rows before it, to 40 digits."""
    with mpmath.workdps(40):
        basis, out = [], []
        for u in users:
            v = [mpmath.mpc(complex(x)) for x in H[u]]
            g = mpmath.fsum(abs(x) ** 2 for x in v)
            for b in basis:
                c = mpmath.fsum(x * mpmath.conj(y) for x, y in zip(v, b))
                v = [x - c * y for x, y in zip(v, b)]
            e = mpmath.fsum(abs(x) ** 2 for x in v)
            basis.append([x / mpmath.sqrt(e) for x in v])
            out.append((g, e))
        return out


@pytest.mark.parametrize("kernel", [batch_adaptive_obf, batch_zfdp], ids=["adaptive-obf", "zfdp"])
def test_small_last_rank_sinrs_keep_their_digits(kernel):
    # at K = M the last user takes what is left: its row keeps about 1e-7
    # of its energy off the first two in the worst of 10^5 trials, and
    # ||h||^2 minus the energy on the span would lose about 1e-9 of it
    M = r = 3
    P = 1.0
    H = np.concatenate([draw_channel_batch(M, M, substream(11, c), count=CHUNK)
                        for c in range(25)])
    users, sinrs, _ = kernel(H, P, r)
    for i in np.argsort(sinrs[:, -1])[:5]:
        with mpmath.workdps(40):
            want = [e / (g - e + mpmath.mpf(r) / P) if kernel is batch_adaptive_obf
                    else mpmath.mpf(P) / r * e for g, e in _gram_schmidt_mpmath(H[i], users[i])]
            assert sinrs[i] == pytest.approx([float(w) for w in want], rel=1e-11, abs=0)


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_gains_add_antenna_by_antenna(M):
    # below 8 entries numpy's sum adds in the same order; from 8 it sums pairwise
    H = draw_channel_batch(10, M, substream(31, M), count=500)
    want = np.sum(np.abs(H) ** 2, axis=2)
    if M < 8:
        assert np.array_equal(_gains(H), want)
    else:
        assert np.all(np.abs(_gains(H) - want) <= 4 * np.spacing(want))


@pytest.mark.parametrize("M, K", [(3, 10), (4, 20), (8, 20)])
def test_zfs_batched_inverse_matches_one_inverse_per_candidate(M, K):
    # the scalar audit inverts each step's candidate Gram matrices in one call
    P, trials = 10.0 ** 1.5, 100
    H = draw_channel_batch(K, M, substream(29, M * 100 + K), count=trials)
    for i in range(trials):
        out = zfs_schedule(ChannelSet(H=H[i]), P, M)
        users, sinrs = _zfs_one_inverse_per_candidate(H[i], P, M)
        assert out.users == users
        assert out.sinrs == pytest.approx(sinrs, rel=1e-14, abs=0)


@pytest.mark.parametrize("scheme", list(SCHEME_TABLE))
def test_kernels_refuse_non_finite_channels(scheme):
    # as ChannelSet does: a NaN row would otherwise win the masked argmax
    H = draw_channel_batch(6, 3, substream(1, 0), count=4)
    H[0, 2, 1] = np.nan
    with pytest.raises(ValueError, match="channel entries must be finite"):
        SCHEME_TABLE[scheme].kernel(H, 10.0, 3, substream(9, 0))


def _rank_deficient(kind: str, K: int) -> np.ndarray:
    H = draw_channel_batch(4, 3, substream(1, 0))[0]
    if kind == "zero":
        H[1] = 0.0
    else:
        H[2] = (0.7 - 1.3j) * H[0]
    return H[:K]


@pytest.mark.parametrize("kind", ["zero", "collinear"])
def test_zfs_skips_rank_deficient_candidates(kind):
    # one spare user: both implementations schedule around the deficient row
    H = _rank_deficient(kind, 4)
    out = zfs_schedule(ChannelSet(H=H), 10.0, 3)
    users, sinrs, _ = batch_zfs(H[None], 10.0, 3)
    assert tuple(users[0]) == out.users
    assert len(set(out.users)) == 3
    deficient = {"zero": {1}, "collinear": {0, 2}}[kind]
    assert not deficient <= set(out.users)
    assert np.allclose(sinrs[0], out.sinrs, rtol=1e-9, atol=1e-12)
    assert np.all(out.sinrs > 1e-3)


@pytest.mark.parametrize("kind", ["zero", "collinear"])
def test_zfs_raises_when_no_candidate_raises_the_rank(kind):
    H = _rank_deficient(kind, 3)
    with pytest.raises(ValueError, match="ZF step 3"):
        zfs_schedule(ChannelSet(H=H), 10.0, 3)
    with pytest.raises(ValueError, match="ZF step 3"):
        batch_zfs(H[None], 10.0, 3)


@pytest.mark.parametrize("kind", ["zero", "collinear"])
def test_zfdp_skips_rank_deficient_candidates(kind):
    H = _rank_deficient(kind, 4)
    out = greedy_zfdp_schedule(ChannelSet(H=H), 10.0, 3)
    users, sinrs, _ = batch_zfdp(H[None], 10.0, 3)
    assert tuple(users[0]) == out.users
    deficient = {"zero": {1}, "collinear": {0, 2}}[kind]
    assert not deficient <= set(out.users)
    assert np.allclose(sinrs[0], out.sinrs, rtol=1e-9, atol=1e-12)
    assert np.all(out.sinrs > 1e-3)


@pytest.mark.parametrize("kind", ["zero", "collinear"])
def test_zfdp_raises_when_no_candidate_raises_the_rank(kind):
    H = _rank_deficient(kind, 3)
    with pytest.raises(ValueError, match="ZF step 3: no candidate increases the rank"):
        greedy_zfdp_schedule(ChannelSet(H=H), 10.0, 3)
    with pytest.raises(ValueError, match="ZF step 3: no candidate increases the rank"):
        batch_zfdp(H[None], 10.0, 3)


def _zf_sinrs_mpmath(H: np.ndarray, users, P: float, r: int) -> np.ndarray:
    """ZF SINRs (P/r) / [G^-1]_ii of the scheduled rows, G = A A^H, to 40 digits."""
    with mpmath.workdps(40):
        A = mpmath.matrix([[mpmath.mpc(complex(x)) for x in H[u]] for u in users])
        G_inv = (A * A.H) ** -1
        return np.array([float(mpmath.mpf(P) / r / mpmath.re(G_inv[i, i]))
                         for i in range(len(users))])


@pytest.mark.parametrize("K, M, r", [(10, 3, 3), (20, 8, 8), (100, 4, 4)])
def test_zfs_sinrs_match_an_exact_gram_inverse(K, M, r):
    # trial 0 holds a candidate that keeps only about 1e-10 of its energy
    # off the first scheduled row: half that row plus an orthogonal 1e-5
    P, trials = 10.0 ** 1.5, 12
    H = draw_channel_batch(K, M, substream(23, K * M), count=trials)
    h0 = H[0, np.argmax(np.sum(np.abs(H[0]) ** 2, axis=1))]
    k = int(np.argmin(np.sum(np.abs(H[0]) ** 2, axis=1)))
    p = H[0, k] - (np.vdot(h0, H[0, k]) / np.vdot(h0, h0)) * h0
    H[0, k] = 0.5 * h0 + 0.5e-5 * np.linalg.norm(h0) * p / np.linalg.norm(p)
    users, sinrs, _ = batch_zfs(H, P, r)
    assert k not in users[0]
    assert tuple(users[0]) == zfs_schedule(ChannelSet(H=H[0]), P, r).users
    for i in range(trials):
        assert sinrs[i] == pytest.approx(_zf_sinrs_mpmath(H[i], users[i], P, r), rel=1e-13, abs=0)
