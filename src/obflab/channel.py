"""Random channel generation and the small complex linear algebra kit.

Channels are IID circularly-symmetric complex Gaussian with unit total
variance per entry (0.5 per real/imaginary part).  Each substream is an
SFC64 generator seeded by ``SeedSequence([seed, index])``, so trial t of a
run is always drawn from the substream (master_seed, t-block) regardless
of how trials are batched or parallelised.

A substream draws each channel entry as its real part and then its
imaginary part, entry by entry.  ``draw_channel_blocks`` uses that order to
hand out a batch a block of trials at a time, each block drawn straight
into one reused complex buffer.  ``BLOCK_ENTRIES`` is the size of the
blocks the Monte-Carlo harness asks for and runs its kernels on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCK_ENTRIES",
    "SystemParams",
    "ChannelSet",
    "BeamformerMatrix",
    "draw_channel_batch",
    "draw_channel_blocks",
    "substream",
    "null_space_basis",
    "null_space_basis_batch",
]

ORTHO_TOL = 1e-10

# Channel entries per kernel block: 2 MiB of complex channels.
BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class SystemParams:
    """Antenna count M, user count K, total power P (linear), target r."""

    M: int
    K: int
    P: float
    r: int

    def __post_init__(self):
        if not (self.K >= self.M >= 1):
            raise ValueError(f"need K >= M >= 1, got K={self.K}, M={self.M}")
        if not (1 <= self.r <= self.M):
            raise ValueError(f"need 1 <= r <= M, got r={self.r}")
        if not (math.isfinite(self.P) and self.P > 0):
            raise ValueError(f"P must be positive and finite (linear scale), got {self.P}")


@dataclass(frozen=True)
class ChannelSet:
    """K x M complex channel matrix, one row per user."""

    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        if H.ndim != 2:
            raise ValueError("H must be a K x M matrix")
        if not np.all(np.isfinite(H)):
            raise ValueError("channel entries must be finite")
        object.__setattr__(self, "H", H)


@dataclass(frozen=True)
class BeamformerMatrix:
    """M x n matrix with orthonormal columns (n <= M)."""

    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=complex)
        if W.ndim != 2 or W.shape[1] > W.shape[0]:
            raise ValueError("W must be M x n with n <= M")
        gram = W.conj().T @ W
        if np.max(np.abs(gram - np.eye(W.shape[1]))) > ORTHO_TOL:
            raise ValueError("columns are not orthonormal")
        object.__setattr__(self, "W", W)


def substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic child stream ``index`` of a master seed."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([int(seed), int(index)])))


def draw_channel_blocks(K: int, M: int, rng: np.random.Generator, count: int, step: int):
    """Draw ``count`` IID K x M unit-variance complex Gaussian channels, ``step`` at a time.

    Yields ``(lo, H)`` for trials ``lo`` to ``lo + len(H)``, in order; each
    ``H`` is a view of one reused (step, K, M) complex block, overwritten by
    the next one.  Each block is one ``standard_normal`` call into the
    block's (re, im) pairs, scaled in place by 1/sqrt(2), so the stream and
    the bits are those of one ``standard_normal((count, K, M, 2))`` times
    1/sqrt(2), taken as (re, im) pairs, whatever ``step`` is.
    """
    buf = np.empty((min(step, count), K, M), dtype=complex)
    scale = 1.0 / np.sqrt(2.0)
    for lo in range(0, count, step):
        H = buf[:min(step, count - lo)]
        parts = H.view(np.float64)
        rng.standard_normal(out=parts)
        parts *= scale
        yield lo, H


def draw_channel_batch(K: int, M: int, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Draw ``count`` IID K x M unit-variance complex Gaussian channels: one whole block."""
    (_, H), = draw_channel_blocks(K, M, rng, count, count)
    return H


def null_space_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of a unit vector v.

    Deterministic Gram-Schmidt against the canonical basis, skipping the
    canonical vector with the largest overlap with v; column order follows
    ascending canonical index.  No phase rotation is applied beyond the
    normalisation itself.
    """
    v = np.asarray(v, dtype=complex)
    M = v.shape[0]
    nv = np.linalg.norm(v)
    if nv == 0:
        raise ValueError("zero vector has no well-defined complement")
    if abs(nv - 1.0) > 1e-12:
        raise ValueError("v must be unit norm")
    skip = int(np.argmax(np.abs(v)))
    cols = []
    for j in range(M):
        if j == skip:
            continue
        e = np.zeros(M, dtype=complex)
        e[j] = 1.0
        u = e - v * np.conj(v[j])
        for b in cols:
            u = u - b * (b.conj() @ e)
        u = u / np.linalg.norm(u)
        cols.append(u)
    return np.stack(cols, axis=1)


def null_space_basis_batch(V: np.ndarray) -> np.ndarray:
    """Vectorised null_space_basis for a batch of unit vectors (B, M).

    Produces exactly the same basis per row as the single-vector version.
    """
    V = np.asarray(V, dtype=complex)
    B, M = V.shape
    skip = np.argmax(np.abs(V), axis=1)
    # canonical indices in ascending order with the skipped one removed
    idx = np.broadcast_to(np.arange(M), (B, M)).copy()
    idx[np.arange(B), skip] = M  # push skipped index past the end
    order = np.sort(idx, axis=1)[:, : M - 1]
    out = np.empty((B, M, M - 1), dtype=complex)
    for c in range(M - 1):
        j = order[:, c]
        e = np.zeros((B, M), dtype=complex)
        e[np.arange(B), j] = 1.0
        u = e - V * np.conj(V[np.arange(B), j])[:, None]
        for p in range(c):
            b = out[:, :, p]
            coef = np.conj(b[np.arange(B), j])
            u = u - b * coef[:, None]
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        out[:, :, c] = u
    return out
