"""Special functions and the grid integrator shared by the analytic modules.

The analytic OBF distributions are built almost entirely out of upper
incomplete gamma functions of integer order >= 1 and low-dimensional
quadrature.  Its closed forms evaluate many orders of Gamma(s, x) at the
same arguments, so their one Gamma route is a ``GammaLadder``: built once
per argument array, it shares one exponential per element across every
order it is asked for, on the grids and in the point API alike.  It has
no order below 1 and no E1/E_n anchors.  OLBF needs no upper gamma at all:
its G_p(sigma; t_1) are regularised lower gammas (``analytic_olbf``).  The
package has no scalar incomplete gamma; the reference one the tests check
the ladder against is in ``tests/oracles.py``.

The grid marginals of both schemes go through one fixed-order integrator,
``marginal_grid``: it applies ``inner_rule`` (``INNER_NODES``
Gauss-Legendre nodes on [0, 1]) to each free variable of a scheme's joint
density, which maps the nodes onto its free SINRs at the scale of the
per-stream SNR.  ``check_rank`` holds
the rank cap ``MAX_ANALYTIC_RANK``.

Everything here is a pure function of its arguments; a ladder memoises
only within itself, and ``inner_rule`` is computed once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "QuadratureError",
    "GammaLadder",
    "GRID_CHUNK",
    "INNER_NODES",
    "inner_rule",
    "MAX_ANALYTIC_RANK",
    "check_rank",
    "marginal_grid",
]

# e^-x below the smallest normal double (x > 708.39) is flushed to zero:
# the sums would start from a subnormal with few or no significant bits.
_EXP_FLOOR = np.finfo(float).tiny

# Grid points per block when a marginal grid is built on (points, nodes,
# nodes) tensors; bounds the memory of the rank-3 grids.
GRID_CHUNK = 64

# Gauss-Legendre nodes per free variable of the grid marginals.  Each scheme
# maps them onto its free SINRs at the scale of the per-stream SNR, where 48
# nodes leave |mass - 1| of ranks 2-3 below 1e-8 at M=3, K=10, 15 and 25 dB.
INNER_NODES = 48

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


class GammaLadder:
    """Gamma(s, x) of every integer order s >= 1 over one argument array x.

    The constructor computes e^-x once; each order is computed on its first
    request and memoised, so a closed form that needs several orders at the
    same argument pays for one exponential.  Orders are the finite sum
    Gamma(s, x) = (s-1)! sum_{i<s} term_i with term_0 = e^-x and
    term_i = term_{i-1} x / i; every term stays below 1, so nothing
    overflows.  There are no anchors and no order below 1.

    Where e^-x underflows the normal range (x > 708.39, including inf) every
    order is exactly 0.  Returned arrays are shared with the memo: do not
    modify them in place.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("x must be nonnegative")
        if not np.all(np.isfinite(x)):
            x = np.minimum(x, np.finfo(float).max)  # keeps 0 * inf out of the terms
        ex = np.empty(x.shape)
        with np.errstate(under="ignore"):
            np.exp(-x, out=ex)
        np.putmask(ex, ex < _EXP_FLOOR, 0.0)
        self.x = x
        self._memo = {1: ex}
        self._top, self._term, self._sum = 1, ex, ex

    def __call__(self, s: int) -> np.ndarray:
        s = int(s)
        if s < 1:
            raise ValueError(f"order {s} is below 1; the ladder has no non-positive orders")
        self._climb(s)
        return self._memo[s]

    def _climb(self, s: int) -> None:
        """Extend the finite sums up to order s."""
        while self._top < s:
            self._term = self._term * self.x / self._top
            self._sum = self._sum + self._term
            self._top += 1
            fact = math.factorial(self._top - 1)
            self._memo[self._top] = self._sum if fact == 1 else fact * self._sum


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
        raise NotImplementedError(f"grid marginals implemented for n <= {MAX_ANALYTIC_RANK}")


def marginal_grid(
    n: int,
    r: int,
    points,
    pieces: Callable[[np.ndarray], Iterable[tuple[list, list]]],
    joint: Callable[[list], np.ndarray],
) -> np.ndarray:
    """Marginal density of the n-th of r ranks at each grid point, by a product rule.

    The joint density of ranks 1..n is integrated over its n - 1 free
    variables, in blocks of ``GRID_CHUNK`` points.  ``pieces(block)`` yields
    the domain a piece at a time as (variables, weights): the variables that
    ``joint(variables)`` reads, broadcast on (points, free axis 1, ..., free
    axis n-1), and one weight array per free axis.  The free axes are summed
    innermost first, each against its own weights, so no weight tensor
    spans more than one free axis.
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

    starts = range(0, max(len(points), 1), GRID_CHUNK)
    return np.concatenate([block(points[i:i + GRID_CHUNK]) for i in starts])
