"""Vectorised trial kernels.

Each kernel processes a whole batch of channel draws (B, K, M) at once.
The greedy kernels reproduce, trial for trial, what the single-channel
schedulers in ``schedulers`` compute; the random-selection kernels are
the package's only implementation of random selection.  The greedy loops run over scheduling steps
(at most M of them); everything across trials and users is numpy.
The two zero-forcing baselines share one loop, ``_greedy_zf``, over a
Gram-Schmidt basis of the scheduled rows: ZFDP reads its SINRs from the
residual energies, ZFS from an inverse-Gram diagonal it updates by Schur
complements as users are added.
Every kernel returns (users, sinrs, rates) of shapes (B, r), (B, r) and
(B,), rates in nats; random selection records no users (all 0).
"""

from __future__ import annotations

import numpy as np

from .channel import null_space_basis_batch
from .schedulers import ZF_RANK_TOL

__all__ = [
    "batch_adaptive_obf",
    "batch_olbf",
    "batch_zfs",
    "batch_zfdp",
    "batch_random_obf",
    "batch_random_olbf",
]


def _gains(H: np.ndarray) -> np.ndarray:
    """Squared row norms (B, K): ``np.sum(np.abs(H) ** 2, axis=2)``, squared in place."""
    a = np.abs(H)
    np.multiply(a, a, out=a)
    return np.sum(a, axis=2)


def _normalize_rows(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared row norms (B, K) and the unit rows: both parts of each entry times 1/sqrt(gain).

    numpy divides a complex array by a real one as that product, so the rows
    are those of ``H / np.sqrt(gains)[:, :, None]`` without its complex cast.
    """
    gains = _gains(H)
    scale = 1.0 / np.sqrt(gains)
    return gains, (H.view(np.float64) * scale[:, :, None]).view(complex)


def _take_users(H: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Select one row per trial: (B, K, M)[arange, idx] -> (B, M)."""
    return H[np.arange(H.shape[0]), idx]


def batch_adaptive_obf(H: np.ndarray, P: float, r: int):
    """Adaptive OBF, fixed-r mode (r-way power split at every step).

    Returns (users, sinrs, rates): (B, r) int, (B, r) float, (B,) float.
    """
    B, K, M = H.shape
    if not (1 <= r <= min(K, M)):
        raise ValueError("need 1 <= r <= min(K, M)")
    gains, Hbar = _normalize_rows(H)
    noise = r / P

    users = np.empty((B, r), dtype=np.int64)
    p2_sched = np.empty((B, r))
    scheduled = np.zeros((B, K), dtype=bool)
    W = np.zeros((B, M, r), dtype=complex)

    k1 = np.argmax(gains, axis=1)
    users[:, 0] = k1
    p2_sched[:, 0] = 1.0
    scheduled[np.arange(B), k1] = True
    W[:, :, 0] = _take_users(Hbar, k1)

    interf = np.abs(np.einsum("bkm,bm->bk", Hbar, np.conj(W[:, :, 0]))) ** 2
    for n in range(2, r + 1):
        p2 = np.clip(1.0 - interf, 0.0, 1.0)
        cand = gains * p2 / (gains * (1.0 - p2) + noise)
        cand = np.where(scheduled, -np.inf, cand)
        u = np.argmax(cand, axis=1)
        users[:, n - 1] = u
        p2_sched[:, n - 1] = np.clip(1.0 - interf[np.arange(B), u], 0.0, 1.0)
        scheduled[np.arange(B), u] = True
        hu = _take_users(Hbar, u)
        coeffs = np.einsum("bmn,bm->bn", np.conj(W[:, :, : n - 1]), hu)
        w = hu - np.einsum("bmn,bn->bm", W[:, :, : n - 1], coeffs)
        w = w / np.linalg.norm(w, axis=1, keepdims=True)
        W[:, :, n - 1] = w
        if n < r:
            interf = interf + np.abs(np.einsum("bkm,bm->bk", Hbar, np.conj(w))) ** 2

    g = np.take_along_axis(gains, users, axis=1)
    sinrs = g * p2_sched / (g * (1.0 - p2_sched) + noise)
    return users, sinrs, np.sum(np.log1p(sinrs), axis=1)


def batch_olbf(H: np.ndarray, P: float):
    """OLBF over a batch; always schedules exactly M users."""
    B, K, M = H.shape
    if K < M:
        raise ValueError("OLBF requires K >= M")
    gains, Hbar = _normalize_rows(H)
    noise = M / P

    users = np.empty((B, M), dtype=np.int64)
    sinrs = np.empty((B, M))
    scheduled = np.zeros((B, K), dtype=bool)

    k1 = np.argmax(gains, axis=1)
    users[:, 0] = k1
    sinrs[:, 0] = gains[np.arange(B), k1] * P / M
    scheduled[np.arange(B), k1] = True
    W2 = null_space_basis_batch(_take_users(Hbar, k1))

    for beam in range(M - 1):
        q2 = np.abs(np.einsum("bkm,bm->bk", Hbar, np.conj(W2[:, :, beam]))) ** 2
        cand = gains * q2 / (gains * (1.0 - q2) + noise)
        cand = np.where(scheduled, -np.inf, cand)
        u = np.argmax(cand, axis=1)
        users[:, beam + 1] = u
        sinrs[:, beam + 1] = cand[np.arange(B), u]
        scheduled[np.arange(B), u] = True
    return users, sinrs, np.sum(np.log1p(sinrs), axis=1)


def _greedy_zf(H: np.ndarray, P: float, r: int, schur: bool):
    """The greedy loop of ZFDP (``schur=False``) and ZFS (``schur=True``).

    Per trial it keeps an orthonormal basis ``Q`` of the scheduled rows,
    built by Gram-Schmidt in scheduling order, and every user's residual
    energy off its span, ``resid_k = ||h_k||^2 - sum_i |<h_k, q_i>|^2``.  A
    candidate is admissible while ``resid_k > ZF_RANK_TOL * ||h_k||^2``,
    the scalar schedulers' rule; a step without one raises ValueError.

    ZFDP schedules the largest residual, whose SINR is ``P/r * resid_u``.
    ZFS also keeps, per scheduled row i, every user's coefficient
    ``C_i`` on it and the inverse-Gram diagonal ``d_i`` of the scheduled
    set.  Adding candidate u would move each ``d_i`` to
    ``d_i + |C_iu|^2 / resid_u`` (the Schur complement of the grown Gram
    matrix) and add ``1 / resid_u``; ZFS schedules the candidate whose
    grown SINRs ``P/r / d`` have the largest sum rate, and the winner's
    move is the update of ``d``.  Its SINRs are ``P/r / d`` after the
    last step, with no inversion.
    """
    B, K, M = H.shape
    if not (1 <= r <= min(K, M)):
        raise ValueError("need 1 <= r <= min(K, M)")
    gains = _gains(H)
    rows = np.arange(B)
    snr = P / r

    users = np.empty((B, r), dtype=np.int64)
    gsel = np.empty((B, r))
    scheduled = np.zeros((B, K), dtype=bool)
    Q = np.empty((B, M, r), dtype=complex)
    resid = gains
    C, d = [], []  # ZFS only: (B, K) complex and (B,) per scheduled row

    for n in range(r):
        ok = ~scheduled & np.isfinite(resid) & (resid > ZF_RANK_TOL * gains)
        if not np.all(np.any(ok, axis=1)):
            raise ValueError(f"ZF step {n + 1}: no candidate increases the rank")
        score = resid
        if schur:
            e2 = np.where(ok, resid, 1.0)
            score = np.log1p(snr * e2)
            for c, di in zip(C, d):
                score += np.log1p(snr / (di[:, None] + (c.real ** 2 + c.imag ** 2) / e2))
        u = np.argmax(np.where(ok, score, -np.inf), axis=1)
        users[:, n] = u
        scheduled[rows, u] = True
        gsel[:, n] = eu2 = resid[rows, u]
        if schur:
            cu = [c[rows, u] for c in C]
            for di, ci in zip(d, cu):
                di += (ci.real ** 2 + ci.imag ** 2) / eu2
            d.append(1.0 / eu2)
        if n + 1 == r:
            break
        hu = _take_users(H, u)
        coeffs = np.einsum("bmn,bm->bn", np.conj(Q[:, :, :n]), hu)
        q = hu - np.einsum("bmn,bn->bm", Q[:, :, :n], coeffs)
        Q[:, :, n] = q = q / np.linalg.norm(q, axis=1, keepdims=True)
        alpha = np.einsum("bkm,bm->bk", H, np.conj(q))
        resid = resid - np.abs(alpha) ** 2
        if schur:
            beta = alpha / np.sqrt(eu2)[:, None]
            for c, ci in zip(C, cu):
                c -= beta * ci[:, None]
            C.append(beta)
    sinrs = snr / np.stack(d, axis=1) if schur else snr * gsel
    return users, sinrs, np.sum(np.log1p(sinrs), axis=1)


def batch_zfdp(H: np.ndarray, P: float, r: int):
    """Greedy ZF dirty-paper baseline over a batch: ``_greedy_zf`` without ``C`` and ``d``."""
    return _greedy_zf(H, P, r, schur=False)


def batch_zfs(H: np.ndarray, P: float, r: int):
    """Zero-forcing with greedy selection over a batch: ``_greedy_zf`` with ``C`` and ``d``."""
    return _greedy_zf(H, P, r, schur=True)


def _random_distinct(rng: np.random.Generator, B: int, K: int, count: int) -> np.ndarray:
    """(B, count) distinct user indices, uniform over ordered selections."""
    u = rng.random((B, K))
    return np.argsort(u, axis=1)[:, :count]


def _unindexed(vs: np.ndarray):
    return np.zeros(vs.shape, dtype=np.int64), vs, np.sum(np.log1p(vs), axis=1)


def batch_random_obf(H: np.ndarray, P: float, r: int, rng: np.random.Generator):
    """Unordered candidacy SINR vectors (B, r) under random OBF selection.

    Per trial, r distinct users are drawn uniformly; the first r-1 build
    the orthogonal beams as the greedy scheduler would, and the last is
    the probe, whose candidacy SINR is evaluated at every step with the
    r-way power split.  Each row is non-increasing by construction.
    """
    B, K, M = H.shape
    picks = _random_distinct(rng, B, K, r)
    gains, Hbar = _normalize_rows(H)
    noise = r / P

    W = np.zeros((B, M, r - 1), dtype=complex)
    for j in range(r - 1):
        hu = _take_users(Hbar, picks[:, j])
        coeffs = np.einsum("bmn,bm->bn", np.conj(W[:, :, :j]), hu)
        w = hu - np.einsum("bmn,bn->bm", W[:, :, :j], coeffs)
        W[:, :, j] = w / np.linalg.norm(w, axis=1, keepdims=True)

    probe = picks[:, r - 1]
    g = gains[np.arange(B), probe]
    hp = _take_users(Hbar, probe)
    comp = np.abs(np.einsum("bmn,bm->bn", np.conj(W), hp)) ** 2  # (B, r-1)
    vs = np.empty((B, r))
    vs[:, 0] = g * P / r
    interf = np.zeros(B)
    for n in range(2, r + 1):
        interf = interf + comp[:, n - 2]
        p2 = np.clip(1.0 - interf, 0.0, 1.0)
        vs[:, n - 1] = g * p2 / (g * (1.0 - p2) + noise)
    return _unindexed(vs)


def batch_random_olbf(H: np.ndarray, P: float, rng: np.random.Generator):
    """Unordered candidacy SINR vectors (B, M) under random OLBF selection.

    Per trial, the first drawn user is the probe: v_1 is its SINR in the
    first-user role.  A second drawn user fixes the orthonormal beam set,
    and v_n for n >= 2 is the probe's SINR on beam n of that set.  In the
    z = v/(1+v) domain each row satisfies z_2 + ... + z_M <= z_1.
    """
    B, K, M = H.shape
    picks = _random_distinct(rng, B, K, 2)
    probe, basis_user = picks[:, 0], picks[:, 1]
    gains, Hbar = _normalize_rows(H)
    noise = M / P

    W2 = null_space_basis_batch(_take_users(Hbar, basis_user))
    g = gains[np.arange(B), probe]
    hp = _take_users(Hbar, probe)
    q2 = np.abs(np.einsum("bmn,bm->bn", np.conj(W2), hp)) ** 2  # (B, M-1)
    vs = np.empty((B, M))
    vs[:, 0] = g * P / M
    vs[:, 1:] = g[:, None] * q2 / (g[:, None] * (1.0 - q2) + noise)
    return _unindexed(vs)
