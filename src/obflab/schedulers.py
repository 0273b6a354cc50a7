"""Greedy user scheduling algorithms (single-channel reference versions).

These are the scalar audits of the batch kernels in ``batch``: the
Monte-Carlo harness re-runs one trial in a thousand through them.  Four
schedulers are provided:

* ``adaptive_obf`` -- greedy orthogonal beamforming where each new beam is
  the normalised projection of the winning user's channel direction onto
  the complement of the beams already assigned.  Supports an adaptive
  stopping rule (stop once the sum rate would decrease) or a forced
  number of scheduled users.
* ``olbf`` -- the first user fixes the whole orthonormal beam set (its
  channel direction plus a null-space basis); the remaining beams are
  assigned greedily, one user per beam.
* ``zfs_schedule`` / ``greedy_zfdp_schedule`` -- zero-forcing and
  zero-forcing dirty-paper baselines with greedy user selection.

Random selection, whose unordered candidacy SINRs are the raw object
the analytic joint densities describe, exists only as the batch kernels
``batch.batch_random_obf`` / ``batch.batch_random_olbf``; no scalar
version shares their random draws, so the harness audits their outputs'
invariants instead.

All SINRs are the scheduler's own metric (interference counted from the
beams known at the evaluation step), which is exactly the quantity the
analytic distributions model.  Rates are natural-log throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, null_space_basis

__all__ = [
    "ScheduleOutcome",
    "adaptive_obf",
    "olbf",
    "zfs_schedule",
    "greedy_zfdp_schedule",
    "sum_rate",
    "ZF_RANK_TOL",
]

# a ZF candidate must keep this fraction of its channel energy off the
# span of the users already scheduled
ZF_RANK_TOL = 1e-12


@dataclass(frozen=True)
class ScheduleOutcome:
    users: tuple          # scheduled user indices, in scheduling order
    W: np.ndarray         # M x n beamforming matrix (columns follow users)
    sinrs: np.ndarray     # linear SINRs, one per scheduled user
    sum_rate: float       # sum ln(1 + sinr), nats

    def __post_init__(self):
        if len(set(self.users)) != len(self.users):
            raise ValueError("scheduled users must be distinct")
        if self.W.shape[1] != len(self.users):
            raise ValueError("inconsistent scheduled-user count")


def sum_rate(sinrs) -> float:
    """Sum rate sum_i ln(1 + sinr_i) in nats."""
    sinrs = np.asarray(sinrs, dtype=float)
    if sinrs.size and sinrs.min() < 0:
        raise ValueError("SINRs must be nonnegative")
    return float(np.sum(np.log1p(sinrs)))


def _table_sinr(gain: float, p2: float, noise: float) -> float:
    """SINR = ||h||^2 p^2 / (||h||^2 (1 - p^2) + noise)."""
    p2 = min(max(p2, 0.0), 1.0)
    return gain * p2 / (gain * (1.0 - p2) + noise)


def _argmax_lowest_index(values: np.ndarray, allowed: np.ndarray) -> int:
    """Index of the maximum among allowed entries; ties go to the lowest index."""
    masked = np.where(allowed, values, -np.inf)
    return int(np.argmax(masked))


def adaptive_obf(channels: ChannelSet, P: float, force_r: int | None = None) -> ScheduleOutcome:
    """Adaptive orthogonal beamforming with greedy user selection.

    With ``force_r=None`` the candidate SINR at step n uses the n-way
    power split n/P and the algorithm stops as soon as adding a user
    would not increase the sum rate.  With ``force_r=r`` exactly r users
    are scheduled and the r-way split r/P is used at every evaluation,
    matching the fixed-r setting the analytic distributions assume.
    """
    H = channels.H
    K, M = H.shape
    if force_r is not None and not (1 <= force_r <= min(K, M)):
        raise ValueError("force_r must satisfy 1 <= r <= min(K, M)")

    gains = np.sum(np.abs(H) ** 2, axis=1)
    norms = np.sqrt(gains)
    Hbar = H / norms[:, None]

    remaining = np.ones(K, dtype=bool)
    k1 = _argmax_lowest_index(gains, remaining)
    remaining[k1] = False
    users = [k1]
    W = Hbar[k1][:, None].copy()
    p2s = [1.0]
    max_users = min(K, M) if force_r is None else force_r

    def rates_at(n: int) -> float:
        noise = (n if force_r is None else force_r) / P
        return sum_rate([_table_sinr(gains[u], p2s[i], noise) for i, u in enumerate(users[:n])])

    best_rate = rates_at(1)
    while len(users) < max_users:
        n = len(users) + 1
        noise = (n if force_r is None else force_r) / P
        proj = W.conj().T @ Hbar.T                       # (n-1, K)
        p2 = 1.0 - np.sum(np.abs(proj) ** 2, axis=0)     # residual fraction per user
        p2 = np.clip(p2, 0.0, 1.0)
        cand = gains * p2 / (gains * (1.0 - p2) + noise)
        u = _argmax_lowest_index(cand, remaining)
        users.append(u)
        p2s.append(float(p2[u]))
        remaining[u] = False
        w = Hbar[u] - W @ (W.conj().T @ Hbar[u])
        W = np.concatenate([W, (w / np.linalg.norm(w))[:, None]], axis=1)
        new_rate = rates_at(n)
        if force_r is None and new_rate <= best_rate:
            users.pop()
            p2s.pop()
            W = W[:, :-1]
            break
        best_rate = new_rate

    n = len(users)
    noise = (n if force_r is None else force_r) / P
    sinrs = np.array([_table_sinr(gains[u], p2s[i], noise) for i, u in enumerate(users)])
    return ScheduleOutcome(tuple(users), W, sinrs, sum_rate(sinrs))


def olbf(channels: ChannelSet, P: float) -> ScheduleOutcome:
    """Orthogonal linear beamforming: fixed beam set, greedy assignment."""
    H = channels.H
    K, M = H.shape
    if K < M:
        raise ValueError("OLBF requires K >= M")

    gains = np.sum(np.abs(H) ** 2, axis=1)
    Hbar = H / np.sqrt(gains)[:, None]
    remaining = np.ones(K, dtype=bool)
    k1 = _argmax_lowest_index(gains, remaining)
    remaining[k1] = False
    W2 = null_space_basis(Hbar[k1])
    noise = M / P

    users = [k1]
    sinrs = [gains[k1] * P / M]
    for beam in range(M - 1):
        q2 = np.abs(Hbar @ np.conj(W2[:, beam])) ** 2
        cand = gains * q2 / (gains * (1.0 - q2) + noise)
        u = _argmax_lowest_index(cand, remaining)
        remaining[u] = False
        users.append(u)
        sinrs.append(float(cand[u]))
    W = np.concatenate([Hbar[k1][:, None], W2], axis=1)
    sinrs = np.asarray(sinrs)
    return ScheduleOutcome(tuple(users), W, sinrs, sum_rate(sinrs))


def _zf_gains(A: np.ndarray) -> np.ndarray:
    """ZF gains 1 / (G^{-1})_{ii} of stacked row sets A (..., n, M), G = A A^H.

    One batched inverse; a set whose Gram matrix is singular, or whose
    inverse diagonal is not positive and finite, gets NaN gains.
    """
    G = A @ np.conj(np.swapaxes(A, -1, -2))
    try:
        inv_diag = np.real(np.diagonal(np.linalg.inv(G), axis1=-2, axis2=-1))
    except np.linalg.LinAlgError:  # some set is singular: invert the sets one at a time
        if A.ndim == 2:
            return np.full(A.shape[0], np.nan)
        return np.stack([_zf_gains(a) for a in A])
    bad = np.any((inv_diag <= 0) | ~np.isfinite(inv_diag), axis=-1, keepdims=True)
    return 1.0 / np.where(bad, np.nan, inv_diag)


def zfs_schedule(channels: ChannelSet, P: float, r: int) -> ScheduleOutcome:
    """Zero-forcing beamforming with greedy user selection.

    Each step adds the user maximising the zero-forcing sum rate of the
    grown set under pseudo-inverse beamformers and a uniform P/r split;
    the Gram matrices of all candidate sets of a step are inverted in one
    batched call.  Runs exactly r steps.  A candidate is admissible only if
    its own ZF gain in the grown set, 1 / (G^{-1})_{nn}, is finite and above
    ``ZF_RANK_TOL * ||h_u||^2``; a step without an admissible candidate
    raises ValueError.
    """
    H = channels.H
    K, M = H.shape
    if not (1 <= r <= min(K, M)):
        raise ValueError("need 1 <= r <= min(K, M)")
    gains = np.sum(np.abs(H) ** 2, axis=1)

    users: list[int] = []
    for step in range(1, r + 1):
        cand = np.setdiff1d(np.arange(K), users)
        g = _zf_gains(H[[users + [u] for u in cand]])  # (candidates, step)
        ok = g[:, -1] > ZF_RANK_TOL * gains[cand]
        if not np.any(ok):
            raise ValueError(f"ZF step {step}: no candidate increases the rank")
        best = int(np.argmax(np.where(ok, np.sum(np.log1p(P / r * g), axis=1), -np.inf)))
        users.append(int(cand[best]))

    sinrs = P / r * g[best]
    A = H[users]
    Wraw = A.conj().T @ np.linalg.inv(A @ A.conj().T)
    W = Wraw / np.linalg.norm(Wraw, axis=0, keepdims=True)
    return ScheduleOutcome(tuple(users), W, sinrs, sum_rate(sinrs))


def greedy_zfdp_schedule(channels: ChannelSet, P: float, r: int) -> ScheduleOutcome:
    """Greedy zero-forcing dirty-paper baseline with uniform power P/r.

    Successive encoding removes interference from earlier users, so user
    i's effective gain is the squared norm of its channel component
    orthogonal to the previously scheduled channels (the squared R
    diagonal of the QR factorisation in scheduling order).  Runs exactly
    r steps; as in ``zfs_schedule``, a candidate is admissible only if
    that component keeps more than ``ZF_RANK_TOL`` of its energy, and a
    step without an admissible candidate raises ValueError.
    """
    H = channels.H
    K, M = H.shape
    if not (1 <= r <= min(K, M)):
        raise ValueError("need 1 <= r <= min(K, M)")
    gains = np.sum(np.abs(H) ** 2, axis=1)

    users: list[int] = []
    Q = np.zeros((M, 0), dtype=complex)
    gains_sched: list[float] = []
    for step in range(1, r + 1):
        proj = Q.conj().T @ H.T                        # (n, K)
        resid = gains - np.sum(np.abs(proj) ** 2, axis=0)
        allowed = np.isfinite(resid) & (resid > ZF_RANK_TOL * gains)
        allowed[users] = False
        if not np.any(allowed):
            raise ValueError(f"ZF step {step}: no candidate increases the rank")
        u = _argmax_lowest_index(resid, allowed)
        users.append(u)
        gains_sched.append(float(resid[u]))
        q = H[u] - Q @ (Q.conj().T @ H[u])
        Q = np.concatenate([Q, (q / np.linalg.norm(q))[:, None]], axis=1)
    sinrs = P / r * np.asarray(gains_sched)
    return ScheduleOutcome(tuple(users), Q, sinrs, sum_rate(sinrs))
