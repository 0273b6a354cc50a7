"""Special functions and adaptive quadrature shared by the analytic modules.

The analytic SINR distributions are built almost entirely out of upper
incomplete gamma functions of integer order (positive and non-positive)
and low-dimensional adaptive quadrature.  The closed forms evaluate many
orders of Gamma(s, x) at the same argument tensor, so the vectorised
route is a ``GammaLadder``: built once per argument array, it shares one
exponential and at most one special-function anchor per element across
every order it is asked for.  Everything here is a pure function of its
arguments; a ladder memoises only within itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, special

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "exp_integral_e1",
    "upper_incomplete_gamma",
    "GammaLadder",
    "upper_incomplete_gamma_array",
    "GRID_CHUNK",
    "map_chunks",
    "integrate_1d",
    "integrate_semi_infinite",
    "integrate_nested",
    "gauss_legendre_nodes",
]

_EULER_GAMMA = 0.5772156649015328606

# Non-positive orders descend from E1 at or below this argument and climb
# from x^s E_{1-s}(x) above it.  Against a quadrature oracle over
# s in -5..0, x in [1e-3, 600] the worst relative error was 3e-13 with the
# switch at 0.5, 2e-14 at 1 and 2e-15 at 2.5 or 3.
_LADDER_SPLIT = 2.5

# e^-x below the smallest normal double (x > 708.39) is flushed to zero:
# the sums would start from a subnormal with few or no significant bits.
_EXP_FLOOR = np.finfo(float).tiny

# Grid points per block when a marginal grid is built on (points, nodes,
# nodes) tensors; bounds the memory of the rank-3 grids.
GRID_CHUNK = 64


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def tightened(self, decades: int = 1) -> "QuadratureSpec":
        """Same budget with tolerances shrunk by a factor 10**decades."""
        return QuadratureSpec(
            self.rel_tol * 10.0 ** (-decades),
            self.abs_tol * 10.0 ** (-decades),
            self.max_subdivisions,
        )


class QuadratureError(RuntimeError):
    """Raised when adaptive subdivision fails to meet the tolerances.

    Carries the best estimate and its error bound so callers can decide
    whether to accept a degraded result.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^-t / t dt for x > 0.

    Power series below x = 1, modified-Lentz continued fraction above;
    the split keeps both branches free of cancellation.
    """
    if x <= 0:
        raise ValueError("exp_integral_e1 requires x > 0")
    if x <= 1.0:
        # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k k!)
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-17 * abs(total):
                break
        return total
    if x > 700.0:
        return 0.0
    # Continued fraction: E1(x) = e^-x / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, 200):
        a = -(k * k)
        b += 2.0
        d = b + a * d
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return math.exp(-x) * h


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
    g = exp_integral_e1(x)  # Gamma(0, x)
    order = 0
    log_x = math.log(x)
    while order > s:
        order -= 1
        g = (g - math.exp(order * log_x - x)) / order
    return g


class GammaLadder:
    """Gamma(s, x) of every integer order s over one argument array x.

    The constructor computes e^-x once; each order is computed on its first
    request and memoised, so a closed form that needs several orders at the
    same argument pays for one exponential.  Positive orders are the finite
    sum Gamma(s, x) = (s-1)! sum_{i<s} term_i with term_0 = e^-x and
    term_i = term_{i-1} x / i; every term stays below 1, so nothing
    overflows.  Orders ``lowest``..0 are computed together on the first
    request for any of them, from one special-function anchor per element:
    E1(x) and the downward recurrence where x <= 2.5, x^lowest
    E_{1-lowest}(x) and the upward recurrence Gamma(s+1, x) =
    s Gamma(s, x) + x^s e^-x above it.  Both directions keep the relative
    error near machine precision on their side of the switch.

    Where e^-x underflows the normal range (x > 708.39, including inf) every
    order is exactly 0.  Returned arrays are shared with the memo: do not
    modify them in place.
    """

    def __init__(self, x, lowest: int = 1):
        x = np.asarray(x, dtype=float)
        lowest = int(lowest)
        if np.any(x < 0) or (lowest <= 0 and np.any(x <= 0)):
            raise ValueError("x must be positive (nonnegative for s >= 1)")
        if not np.all(np.isfinite(x)):
            x = np.minimum(x, np.finfo(float).max)  # keeps 0 * inf out of the terms
        ex = np.empty(x.shape)
        with np.errstate(under="ignore"):
            np.exp(-x, out=ex)
        np.putmask(ex, ex < _EXP_FLOOR, 0.0)
        self.x = x
        self.lowest = lowest
        self._exp = ex
        self._memo = {1: ex}
        self._top, self._term, self._sum = 1, ex, ex

    def __call__(self, s: int) -> np.ndarray:
        s = int(s)
        if s not in self._memo:
            if s >= 1:
                self._climb(s)
            elif s >= self.lowest:
                self._non_positive()
            else:
                raise ValueError(f"order {s} is below this ladder's lowest order {self.lowest}")
        return self._memo[s]

    def _climb(self, s: int) -> None:
        """Extend the finite sums up to order s."""
        while self._top < s:
            self._term = self._term * self.x / self._top
            self._sum = self._sum + self._term
            self._top += 1
            fact = math.factorial(self._top - 1)
            self._memo[self._top] = self._sum if fact == 1 else fact * self._sum

    def _non_positive(self) -> None:
        low = self.lowest
        x, ex = self.x, self._exp
        out = {s: np.zeros(x.shape) for s in range(low, 1)}
        near = x <= _LADDER_SPLIT
        far = ~near & (ex > 0.0)
        with np.errstate(under="ignore"):
            xn = x[near]
            p = ex[near]
            g = special.exp1(xn)
            out[0][near] = g
            for s in range(-1, low - 1, -1):
                p = p / xn  # x^s e^-x
                g = (g - p) / s
                out[s][near] = g
            xf = x[far]
            p = xf ** low
            g = p * special.expn(1 - low, xf)
            p = p * ex[far]  # x^low e^-x
            out[low][far] = g
            for s in range(low, 0):
                g = s * g + p
                p = p * xf
                out[s + 1][far] = g
        self._memo.update(out)


def upper_incomplete_gamma_array(s: int, x: np.ndarray) -> np.ndarray:
    """Vectorised Gamma(s, x) for integer s over an array of x > 0.

    A one-shot use of ``GammaLadder``; build the ladder directly when
    several orders are needed at the same argument.
    """
    s = int(s)
    return GammaLadder(x, lowest=min(s, 1))(s)


def map_chunks(fn: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """fn over consecutive blocks of at most GRID_CHUNK points, concatenated."""
    starts = range(0, max(len(points), 1), GRID_CHUNK)
    return np.concatenate([fn(points[i:i + GRID_CHUNK]) for i in starts])


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Adaptive quadrature of f over the finite interval [a, b]."""
    if a > b:
        raise ValueError("integrate_1d requires a <= b")
    if a == b:
        return 0.0
    out = integrate.quad(
        f,
        a,
        b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    value, err = out[0], out[1]
    if len(out) > 3:  # warning slot populated -> tolerance not met
        raise QuadratureError("integrate_1d did not converge", value, err)
    return value


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float = 0.0,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Integrate f over [a, inf) via the substitution y = a + u/(1-u).

    The substitution maps [0, 1) onto the half line and concentrates
    nodes near a, which suits the exponentially decaying integrands used
    throughout this package.
    """
    if a < 0:
        raise ValueError("integrate_semi_infinite requires a >= 0")

    def g(u: float) -> float:
        w = 1.0 - u
        return f(a + u / w) / (w * w)

    return integrate_1d(g, 0.0, 1.0, spec)


def integrate_nested(
    f: Callable[..., float],
    bounds: Sequence[tuple],
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Nested adaptive quadrature over up to three levels.

    ``bounds`` lists (lower, upper) pairs from the outermost variable
    inward; either bound may be a callable receiving the outer variables
    accumulated so far.  ``f`` receives the variables in the same order.
    Inner tolerances are tightened by one decade per level so the outer
    estimate is not polluted by inner noise.
    """
    if not 1 <= len(bounds) <= 3:
        raise ValueError("integrate_nested supports 1 to 3 levels")

    def _resolve(bound, outer):
        return bound(*outer) if callable(bound) else float(bound)

    def _level(idx: int, outer: tuple) -> float:
        lo = _resolve(bounds[idx][0], outer)
        hi = _resolve(bounds[idx][1], outer)
        if hi <= lo:
            return 0.0
        level_spec = spec.tightened(idx)
        if idx == len(bounds) - 1:
            return integrate_1d(lambda v: f(*outer, v), lo, hi, level_spec)
        return integrate_1d(lambda v: _level(idx + 1, outer + (v,)), lo, hi, level_spec)

    return _level(0, ())


def gauss_legendre_nodes(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w
