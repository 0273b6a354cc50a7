"""Special functions and the grid integrator shared by the analytic modules.

The analytic SINR distributions are built almost entirely out of upper
incomplete gamma functions of integer order and low-dimensional
quadrature.  The closed forms evaluate many orders of Gamma(s, x) at the
same argument tensor, so the vectorised route is a ``GammaLadder``: built
once per argument array, it shares one exponential per element across
every order it is asked for.  Both analytic modules need orders >= 1 only
(OLBF through the subset sums of G_p(sigma; t_1), see ``analytic_olbf``),
so the ladder has no E1/E_n anchors.  The scalar ``upper_incomplete_gamma``
also serves non-positive orders, from ``scipy.special.exp1`` and ``expn``.

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
from scipy import special

__all__ = [
    "QuadratureError",
    "upper_incomplete_gamma",
    "GammaLadder",
    "GRID_CHUNK",
    "INNER_NODES",
    "inner_rule",
    "MAX_ANALYTIC_RANK",
    "check_rank",
    "marginal_grid",
]

# Non-positive orders of the scalar routine descend from E1 at or below
# this argument and use x^s E_{1-s}(x) above it.  Against a quadrature
# oracle over s in -5..0, x in [1e-3, 600] the worst relative error of the
# descent was 3e-13 with the switch at 0.5, 2e-14 at 1 and 2e-15 at 2.5 or 3.
_LADDER_SPLIT = 2.5

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


@lru_cache(maxsize=1 << 16)
def upper_incomplete_gamma(s: int, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for integer s, x > 0.

    Positive order uses the terminating expansion
    Gamma(s, x) = (s-1)! e^-x sum_{i<s} x^i / i!, evaluated in log space
    so large x or s cannot overflow the intermediate terms.  Non-positive
    order descends the recurrence Gamma(s, x) = (Gamma(s+1, x) - x^s e^-x)/s
    from Gamma(0, x) = E1(x) for x <= 2.5.  Each step down subtracts two
    terms of nearly equal size once x exceeds |s|, losing about log10(x)
    digits, so larger x uses Gamma(s, x) = x^s E_{1-s}(x) directly.
    """
    s = int(s)
    if x < 0 or (x <= 0 and s <= 0):
        raise ValueError(f"Gamma({s}, {x}) outside the supported domain")
    if s >= 1:
        if x == 0.0:
            return math.gamma(s)
        if x < 650.0 and (s - 1) * math.log(max(x, 1.0)) < 650.0:
            term = 1.0
            acc = 1.0
            for i in range(1, s):
                term *= x / i
                acc += term
            return math.gamma(s) * math.exp(-x) * acc
        # log-space fallback: ln (s-1)! - x + i ln x - ln i!
        lg = math.lgamma(s)
        logs = [lg - x + i * math.log(x) - math.lgamma(i + 1) for i in range(s)]
        m = max(logs)
        if m < -745.0:
            return 0.0
        acc = math.fsum(math.exp(v - m) for v in logs)
        return math.exp(m) * acc
    if x > _LADDER_SPLIT:
        return x ** s * float(special.expn(1 - s, x))
    g = float(special.exp1(x))  # Gamma(0, x)
    order = 0
    log_x = math.log(x)
    while order > s:
        order -= 1
        g = (g - math.exp(order * log_x - x)) / order
    return g


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
