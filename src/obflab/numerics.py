"""Special functions and the grid integrator shared by the analytic modules.

Both schemes' closed forms are sums of one integral over the density
f_1(z) = c^M e^(-c z/(1-z))/(1-z)^(M+1) of z = v/(1+v), v ~ Gamma(M)/c:
G_p(sigma; tau) = int_sigma^tau f_1(z) (z - sigma)^p/p! dz, which
``lower_gamma_moment`` takes as a nonnegative sum of regularised lower
gammas P(s, X).  Their one Gamma route is ``lower_gamma_ladder``: P(s, X)
for every order from M down to the lowest one asked for, from one
``gammainc(M, X)`` and one exponential.  It has no order below 1, and no
module but this one calls scipy's incomplete gamma.  OBF sums G_p over the
pairs of points of its chain, OLBF over the corners of the box of the
tails.  The package has no upper incomplete gamma; the scalar reference
the tests check the ladder against is in ``tests/oracles.py``.

The grid marginals of both schemes go through one fixed-order integrator,
``marginal_grid``: it applies ``inner_rule`` (``INNER_NODES``
Gauss-Legendre nodes on [0, 1]) to each free variable of a scheme's joint
density, which maps the nodes onto its free SINRs at the scale of the
per-stream SNR.  It takes the grid points in blocks sized from the rank,
so that one node tensor of a block stays within ``GRID_BLOCK_BYTES`` at
every rank.  ``check_rank`` alone compares a rank with the cap ``MAX_ANALYTIC_RANK``.

Everything here is a pure function of its arguments; ``inner_rule`` is
computed once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np
from scipy import special

__all__ = [
    "QuadratureError",
    "lower_gamma_ladder",
    "lower_gamma_moment",
    "GRID_BLOCK_BYTES",
    "INNER_NODES",
    "inner_rule",
    "MAX_ANALYTIC_RANK",
    "check_rank",
    "marginal_grid",
]

_FLOAT_MAX = np.finfo(float).max

# Gauss-Legendre nodes per free variable of the grid marginals.  Each scheme
# maps them onto its free SINRs at the scale of the per-stream SNR, where 48
# nodes leave |mass - 1| of ranks 2-3 below 1e-8 at M=3, K=10, 15 and 25 dB.
INNER_NODES = 48

# Bytes of one float64 node tensor of a grid block: a rank-n block holds
# GRID_BLOCK_BYTES // (8 INNER_NODES^(n-1)) points, at least one, so at 48
# nodes a rank-3 block is 7 points and a rank-2 block 341.  Of the budgets
# from 64 to 256 KiB, 128 KiB built the M=3 rank-3 tables in the least CPU.
GRID_BLOCK_BYTES = 1 << 17

# Highest rank with a grid marginal; rank n integrates n - 1 free variables
# of INNER_NODES nodes each.
MAX_ANALYTIC_RANK = 3


class QuadratureError(RuntimeError):
    """Raised when a quadrature fails to meet its tolerance.

    ``grids`` raises it for a table that does not resolve or whose mass is
    off 1.  Carries the best estimate and its error bound so callers can
    decide whether to accept a degraded result.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


def lower_gamma_ladder(M: int, X, lowest: int | None = None) -> dict[int, np.ndarray]:
    """P(s, X) for s = M down to ``lowest`` (default M), keyed by s.

    P is the regularised lower incomplete gamma.  The top order is one
    ``gammainc(M, X)``; each lower one adds a Poisson term,
    P(s, X) = P(s + 1, X) + X^s e^-X / s!, climbed up from one e^-X.  Every
    step adds a nonnegative term below 1, so nothing cancels or overflows.
    P(s, 0) = 0 and P(s, inf) = 1 exactly.
    """
    lowest = M if lowest is None else lowest
    if not 1 <= lowest <= M:
        raise ValueError(f"order {lowest} is outside 1..{M}; the ladder has no order below 1")
    X = np.asarray(X, dtype=float)
    if (X < 0).any():
        raise ValueError("X must be nonnegative")
    P = {M: special.gammainc(M, X)}
    if lowest < M:
        X = np.minimum(X, _FLOAT_MAX)  # keeps 0 * inf out of the terms
        term, terms = np.exp(-X), {}
        for s in range(1, M):
            term = term * X
            term /= s
            if s >= lowest:
                terms[s] = term
        for s in range(M - 1, lowest - 1, -1):
            P[s] = P[s + 1] + terms[s]
    return P


def lower_gamma_moment(p: int, M: int, c: float, e, o, P: dict):
    """G_p(sigma; tau) = int_sigma^tau f_1(z) (z - sigma)^p / p! dz, 0 <= p < M.

    f_1(z) = c^M e^(-c z/(1-z)) / (1-z)^(M+1) is the density of z = v/(1+v)
    for v ~ Gamma(M)/c.  With q = M - 1 - p, o = 1 - sigma, e = e^(c - c/o)
    and ``P`` a ``lower_gamma_ladder`` of X = c (tau - sigma)/((1 - tau) o)
    down to order p + 1,

        G_p = e sum_{j=0..q} C(q, j) c^(q-j) o^(p+j-q) (p+j)!/p! P(p+j+1, X),

    a sum of nonnegative terms, taken by Horner's rule in o.
    """
    q = M - 1 - p
    acc = math.perm(M - 1, q) * P[M]
    for j in range(q - 1, -1, -1):
        acc = acc * o + math.comb(q, j) * c ** (q - j) * math.perm(p + j, j) * P[p + j + 1]
    return e * o ** (p - q) * acc


@lru_cache(maxsize=None)
def inner_rule() -> tuple[np.ndarray, np.ndarray]:
    """``INNER_NODES`` Gauss-Legendre nodes and weights on [0, 1], read-only: the rule of
    every free variable of a grid marginal."""
    x, w = np.polynomial.legendre.leggauss(INNER_NODES)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def check_rank(n: int, r: int) -> None:
    """Raise ``ValueError`` unless 1 <= n <= r, and ``NotImplementedError`` above the cap."""
    if not 1 <= n <= r:
        raise ValueError(f"need 1 <= n <= r = {r}, got n = {n}")
    if n > MAX_ANALYTIC_RANK:
        raise NotImplementedError(f"analytic laws cover ranks 1-{MAX_ANALYTIC_RANK}, not rank {n}")


def marginal_grid(
    n: int,
    r: int,
    points,
    pieces: Callable[[np.ndarray], Iterable[tuple[list, list]]],
    joint: Callable[[list], np.ndarray],
) -> np.ndarray:
    """Marginal density of the n-th of r ranks at each grid point, by a product rule.

    The joint density of ranks 1..n is integrated over its n - 1 free
    variables, in blocks of as many points as keep one (points, nodes, ...)
    float64 tensor within ``GRID_BLOCK_BYTES``.  ``pieces(block)`` yields
    the domain a piece at a time as (variables, weights): the variables that
    ``joint(variables)`` reads, broadcast on (points, free axis 1, ..., free
    axis n-1), and one weight array per free axis.  The free axes are summed
    innermost first, each against its own weights, so no weight tensor
    spans more than one free axis.  Each point is reduced along its own
    free axes only, so the values do not depend on the block size.
    """
    check_rank(n, r)

    def block(pts: np.ndarray) -> np.ndarray:
        total = 0.0
        for variables, weights in pieces(pts):
            f = joint(variables)
            for axis in range(len(weights), 0, -1):
                f = np.sum(f * weights[axis - 1], axis=axis, keepdims=True)
            total = total + f
        return np.reshape(total, -1)

    step = max(1, GRID_BLOCK_BYTES // (8 * INNER_NODES ** (n - 1)))
    starts = range(0, max(len(points), 1), step)
    return np.concatenate([block(points[i:i + step]) for i in starts])
