"""Vectorised trial kernels.

Each kernel processes a whole batch of channel draws (B, K, M) at once.
The greedy kernels reproduce, trial for trial, what the single-channel
schedulers in ``schedulers`` compute; the random-selection kernels are
the package's only implementation of random selection.  The greedy loops run over scheduling steps
(at most M of them); everything across trials and users is numpy.
The kernels read the raw rows and normalise only the rows they pick;
``_project`` takes every row's inner products with a set of beams in one
real matmul.  Adaptive OBF, ZFDP and ZFS share one Gram-Schmidt loop,
``_greedy``, and differ only in how they score a candidate.
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
    """Squared row norms (B, K), summed antenna by antenna: below M = 8 the bits of
    ``np.sum(np.abs(H) ** 2, axis=2)``; from M = 8 numpy sums pairwise, a few ulp apart."""
    a = np.abs(H)
    np.multiply(a, a, out=a)
    g = a[:, :, 0].copy()
    for m in range(1, H.shape[2]):
        g += a[:, :, m]
    if not np.all(np.isfinite(g)):  # as ``channel.ChannelSet`` refuses them
        raise ValueError("channel entries must be finite")
    return g


def _project(H: np.ndarray, W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every <h_k, w_j> = sum_m h_km conj(w_mj): (B, K, M) rows on (B, M, n) beams -> (B, K, n),
    as one real matmul of H's float view (B, K, 2M) with the (B, 2M, 2n) real form of
    conj(W), into ``out`` (B, K, 2n) float when given."""
    H = np.ascontiguousarray(H)
    B, M, n = W.shape
    R = np.empty((B, M, 2, n, 2))
    R[:, :, 0, :, 0] = R[:, :, 1, :, 1] = W.real
    R[:, :, 1, :, 0] = W.imag
    R[:, :, 0, :, 1] = -W.imag
    return np.matmul(H.view(np.float64), R.reshape(B, 2 * M, 2 * n), out=out).view(complex)


def _unit_rows(H: np.ndarray, idx: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """The picked rows (B, K, M)[arange, idx] -> (B, M) of ``H / np.sqrt(gains)[:, :, None]``,
    which numpy forms as both parts times 1/sqrt(gain), as here."""
    rows = np.arange(H.shape[0])
    scale = 1.0 / np.sqrt(gains[rows, idx])
    return (H[rows, idx].view(np.float64) * scale[:, None]).view(complex)


def batch_adaptive_obf(H: np.ndarray, P: float, r: int):
    """Adaptive OBF, fixed-r mode (r-way power split at every step).

    Returns (users, sinrs, rates): (B, r) int, (B, r) float, (B,) float.
    """
    return _greedy(H, P, r, "obf")


def batch_olbf(H: np.ndarray, P: float):
    """OLBF over a batch; always schedules exactly M users.

    One ``_project`` onto the beams that the first user's unit row fixes gives
    every energy ``p`` on each beam; the SINR there is ``p / (||h||^2 - p + M/P)``.
    """
    B, K, M = H.shape
    if K < M:
        raise ValueError("OLBF requires K >= M")
    gains = _gains(H)
    rows = np.arange(B)
    noise = M / P

    users = np.empty((B, M), dtype=np.int64)
    sinrs = np.empty((B, M))
    bar = np.zeros((B, K))  # -inf once scheduled

    k1 = np.argmax(gains, axis=1)
    users[:, 0] = k1
    sinrs[:, 0] = gains[rows, k1] * P / M
    bar[rows, k1] = -np.inf
    f = _project(H, null_space_basis_batch(_unit_rows(H, k1, gains))).view(np.float64)
    np.multiply(f, f, out=f)
    energy = np.add(f[:, :, 0::2], f[:, :, 1::2], out=f[:, :, 0::2])  # (B, K, M-1)
    score = np.empty((B, K))
    for beam in range(M - 1):
        p = energy[:, :, beam]
        np.subtract(gains, p, out=score)
        score += noise
        np.divide(p, score, out=score)
        score += bar
        u = np.argmax(score, axis=1)
        users[:, beam + 1] = u
        sinrs[:, beam + 1] = score[rows, u]
        bar[rows, u] = -np.inf
    return users, sinrs, np.sum(np.log1p(sinrs), axis=1)


def _greedy(H: np.ndarray, P: float, r: int, scheme: str):
    """The greedy loop of adaptive OBF (``"obf"``), ZFDP (``"zfdp"``) and ZFS (``"zfs"``).

    Per trial it keeps a Gram-Schmidt basis ``Q`` of the scheduled rows and each user's
    energy on its span, ``proj_k = sum_i |<h_k, q_i>|^2`` (one ``_project`` a step), and
    off it, ``resid_k = ||h_k||^2 - proj_k``.  Step one takes the largest ``||h_k||^2``.
    OBF scores ``resid_k / (proj_k + r/P)``, its SINR; ZFDP scores ``resid_k``, for an SINR
    of ``P/r * resid_u``.  A ZF candidate is admissible while ``resid_k > ZF_RANK_TOL *
    ||h_k||^2``, the scalar schedulers' rule; a step without one raises ValueError.  ZFS
    keeps, per scheduled row i, each user's coefficient ``C_i`` and the inverse-Gram
    diagonal ``d_i``: adding u would move ``d_i`` to ``d_i + |C_iu|^2 / resid_u`` (a Schur
    complement) and add ``1 / resid_u``, and ZFS schedules the u whose SINRs ``P/r / d``
    have the largest sum rate.  The scheduled user's residual is measured again as
    ``||h_u - Q Q^H h_u||^2``, which keeps its digits when it is small.
    """
    B, K, M = H.shape
    if not (1 <= r <= min(K, M)):
        raise ValueError("need 1 <= r <= min(K, M)")
    obf = scheme == "obf"
    gains = _gains(H)
    rows = np.arange(B)
    snr, noise = P / r, r / P

    users = np.empty((B, r), dtype=np.int64)
    gsel = np.empty((B, r))
    Q = np.empty((B, r, M), dtype=complex)  # one basis row per scheduled user
    proj = np.zeros((B, K))
    score = np.empty((B, K))
    den = np.empty((B, K)) if obf else None
    af = np.empty((B, K, 2))  # <h_k, q_n> as (real, imaginary)
    # OBF: 0, or -inf once scheduled; ZF: the rank floor, or +inf once scheduled
    bar = np.zeros((B, K)) if obf else ZF_RANK_TOL * gains
    C, d = [], []  # ZFS only: (B, K) complex and (B,) per scheduled row

    for n in range(r):
        resid = np.subtract(gains, proj, out=score)
        if obf:
            if n:
                score /= np.add(proj, noise, out=den)
            score += bar
        else:
            ok = resid > bar
            if scheme == "zfs":
                e2 = np.where(ok, resid, 1.0)
                np.log1p(snr * e2, out=score)
                for c, di in zip(C, d):
                    score += np.log1p(snr / (di[:, None] + (c.real ** 2 + c.imag ** 2) / e2))
            score *= ok  # admissible scores are > 0
        u = np.argmax(score, axis=1)
        flat = rows * K + u
        if not obf and not np.all(score.reshape(-1)[flat] > 0):
            raise ValueError(f"ZF step {n + 1}: no candidate increases the rank")
        users[:, n] = u
        bar.reshape(-1)[flat] = -np.inf if obf else np.inf
        q = np.take(H.reshape(B * K, M), flat, axis=0)
        if n:
            q -= np.einsum("bim,bi->bm", Q[:, :n], np.einsum("bim,bm->bi", Q[:, :n].conj(), q))
            eu2 = np.einsum("bi,bi->b", q.view(np.float64), q.view(np.float64))
        else:
            eu2 = gains.reshape(-1)[flat]
        gsel[:, n] = eu2
        if scheme == "zfs":
            cu = [c.reshape(-1)[flat] for c in C]
            for di, ci in zip(d, cu):
                di += (ci.real ** 2 + ci.imag ** 2) / eu2
            d.append(1.0 / eu2)
        if n + 1 == r:
            break
        Q[:, n] = q / np.sqrt(eu2)[:, None]
        _project(H, Q[:, n, :, None], out=af)
        if scheme == "zfs":
            beta = (af * (1.0 / np.sqrt(eu2))[:, None, None]).view(complex)[:, :, 0]
            for c, ci in zip(C, cu):
                c -= beta * ci[:, None]
            C.append(beta)
        np.multiply(af, af, out=af)
        proj += af[:, :, 0]
        proj += af[:, :, 1]
    if obf:
        sinrs = gsel / (np.take_along_axis(gains, users, axis=1) - gsel + noise)
    else:
        sinrs = snr / np.stack(d, axis=1) if scheme == "zfs" else snr * gsel
    return users, sinrs, np.sum(np.log1p(sinrs), axis=1)


def batch_zfdp(H: np.ndarray, P: float, r: int):
    """Greedy ZF dirty-paper baseline over a batch: ``_greedy`` with the residual score."""
    return _greedy(H, P, r, "zfdp")


def batch_zfs(H: np.ndarray, P: float, r: int):
    """Zero-forcing with greedy selection over a batch: ``_greedy`` with the Schur sum rate."""
    return _greedy(H, P, r, "zfs")


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
    gains = _gains(H)
    noise = r / P

    W = np.zeros((B, M, r - 1), dtype=complex)
    for j in range(r - 1):
        hu = _unit_rows(H, picks[:, j], gains)
        coeffs = np.einsum("bmn,bm->bn", np.conj(W[:, :, :j]), hu)
        w = hu - np.einsum("bmn,bn->bm", W[:, :, :j], coeffs)
        W[:, :, j] = w / np.linalg.norm(w, axis=1, keepdims=True)

    probe = picks[:, r - 1]
    g = gains[np.arange(B), probe]
    hp = _unit_rows(H, probe, gains)
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
    gains = _gains(H)
    noise = M / P

    W2 = null_space_basis_batch(_unit_rows(H, basis_user, gains))
    g = gains[np.arange(B), probe]
    hp = _unit_rows(H, probe, gains)
    q2 = np.abs(np.einsum("bmn,bm->bn", np.conj(W2), hp)) ** 2  # (B, M-1)
    vs = np.empty((B, M))
    vs[:, 0] = g * P / M
    vs[:, 1:] = g[:, None] * q2 / (g[:, None] * (1.0 - q2) + noise)
    return _unindexed(vs)
