"""The scheduled SINRs' laws: one selection product, closed form at rank 1, tables above.

Greedy selection turns a scheme's candidacy region (its ``params``, CDF
``cdf(n)`` and step densities ``phi(k)``) into the joint density
K!/(K-n)! F_n^(K-n) phi_1 ... phi_n, the one product ``scheduled``.

The first SINR, the largest of K users' Gamma(M)/c norms (c = r/P), has the
exact law ``MaxNormLaw``.  A higher rank's marginal density is tabulated on
u = y/(1+y), which maps the SINR half-line onto [0, 1], at nested Chebyshev
points of the 2nd kind, doubled until the coefficients show it resolved to
``CHEB_TOL``.  The KS CDF, the mass (not renormalised, so its distance from
1 is the density's own error) and the mean sum rate all read that one
series; a table whose mass is off 1 by more than ``MASS_TOL`` is refused.
``rank_laws`` gives rank 1 its law and ranks 2..r their cached tables once
``numerics.check_rank`` has refused an r above the cap; the analysis of a
run and ``mean_sum_rate`` read every rank through it, ``rank_law`` one rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import QuadratureError, check_rank, lower_gamma_ladder

__all__ = ["DistributionGrid", "MaxNormLaw", "rank_law", "rank_laws", "scheduled", "mean_sum_rate",
           "CHEB_TOL", "CHEB_CAP", "MASS_TOL"]

# A table is resolved once the largest of its last four coefficients is
# below CHEB_TOL, both absolutely and relative to its largest sample, so
# samples that all miss a narrow peak do not pass for a resolved density.
# It starts at n = 16 intervals, doubles, and raises rather than grow past
# CHEB_CAP.
CHEB_TOL = 1e-8
CHEB_CAP = 4096
# A resolved table whose mass is off 1 by more than MASS_TOL carries the
# error of the density it sampled, and is refused rather than returned.
MASS_TOL = 1e-6
_CHEB_START = 16
# cdf_at reads the CDF series at this many intervals of Chebyshev points,
# with one FFT, and interpolates: its cost does not grow with n * values.
_CDF_LOOKUP = 2 ** 16
# MaxNormLaw's rate rule: its first and least step in ln y, and its span, which leaves
# out e^-40 of the rate below y = e^-40 min(1, 1/c), and 1 - F ~ 0 past c y = 2(M + ln K) + 40.
_RATE_STEP, _RATE_FLOOR, _RATE_TAIL = 2.0 ** -2, 2.0 ** -10, 40.0
_CDF_CLAMP = 1e-9  # scheduled's roundoff bound on F_n


def _chebyshev_points(n: int) -> np.ndarray:
    """u_j = (1 + cos(j pi / n)) / 2 for j = 0..n, from u = 1 down to u = 0.

    pi j / n is exact up to a power of two, so the points of n are bit for
    bit the even points of 2n.
    """
    return 0.5 * (1.0 + np.cos(np.pi * np.arange(n + 1) / n))


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients in T_k(2u - 1) of the interpolant through values at the points."""
    n = values.size - 1
    c = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / n
    c[0] /= 2.0
    c[n] /= 2.0
    return c


@dataclass(frozen=True)
class DistributionGrid:
    """Distribution of a nonnegative variable y from its density f on u = y/(1+y).

    ``values[j]`` is f at the Chebyshev point u_j = (1 + cos(j pi / n)) / 2,
    with f(1) = 0.  ``cdf`` holds the coefficients in T_k(2u - 1) of the
    integral from 0 to u of the interpolant of f.  ``error``, the largest
    of the last four coefficients of that interpolant, estimates how far
    it is from f.
    """

    values: np.ndarray
    cdf: np.ndarray
    error: float

    @classmethod
    def tabulate(cls, pdf: Callable[[np.ndarray], np.ndarray]) -> "DistributionGrid":
        """Tabulate the density pdf(u) of u in [0, 1], doubling n until it is resolved.

        pdf is called once per doubling, only on the new points, all in
        [0, 1); it is taken as 0 at u = 1.  Raises ``QuadratureError`` when
        n = CHEB_CAP does not resolve it, or when the resolved table's mass
        is off 1 by more than ``MASS_TOL``.
        """
        n = _CHEB_START
        values = np.concatenate([[0.0], pdf(_chebyshev_points(n)[1:])])
        while True:
            coeffs = _chebyshev_coefficients(values)
            error = float(np.max(np.abs(coeffs[-4:])))
            if error < CHEB_TOL * min(1.0, np.max(np.abs(values))):
                break
            if n >= CHEB_CAP:
                raise QuadratureError(f"density not resolved at n = {n}", None, error)
            n *= 2
            grown = np.empty(n + 1)
            grown[::2] = values
            grown[1::2] = pdf(_chebyshev_points(n)[1::2])
            values = grown
        cdf = np.polynomial.chebyshev.chebint(coeffs, lbnd=-1.0, scl=0.5)
        mass = float(np.sum(cdf))
        if not abs(mass - 1.0) <= MASS_TOL:
            raise QuadratureError(f"density mass off 1 by more than {MASS_TOL} at n = {n}",
                                  mass, abs(mass - 1.0))
        values.setflags(write=False)  # grids are cached and shared
        cdf.setflags(write=False)
        return cls(values, cdf, error)

    @property
    def n(self) -> int:
        return self.values.size - 1

    @property
    def points(self) -> np.ndarray:
        """The u_j at which ``values`` were taken."""
        return _chebyshev_points(self.n)

    @property
    def mass(self) -> float:
        """Integral of the tabulated density: the CDF series at u = 1, where every T_k is 1."""
        return float(np.sum(self.cdf))

    def cdf_at(self, values) -> np.ndarray:
        """CDF at the values (0 at 0, the mass at +inf), linear in u between the lookup points."""
        b = np.zeros(_CDF_LOOKUP + 1)
        b[: self.cdf.size] = self.cdf
        b[1:-1] /= 2.0  # the series at the points is the FFT of this even extension
        lookup = np.fft.rfft(np.concatenate([b, b[-2:0:-1]])).real
        lookup[0], lookup[-1] = self.mass, 0.0  # the series' exact ends, free of FFT roundoff
        y = np.clip(np.asarray(values, dtype=float), 0.0, np.finfo(float).max)
        return np.interp(y / (1.0 + y), _chebyshev_points(_CDF_LOOKUP)[::-1], lookup[::-1])

    def mean_log1p(self) -> float:
        """E[ln(1 + y)] = int_0^1 -ln(1 - u) f(u) du, by Clenshaw-Curtis at the table's points."""
        weighted = np.concatenate([[0.0], -np.log1p(-self.points[1:]) * self.values[1:]])
        c = _chebyshev_coefficients(weighted)[::2]
        k = np.arange(0, self.n + 1, 2)
        return float(np.sum(c / (1.0 - k * k)))


@dataclass(frozen=True)
class MaxNormLaw:
    """Law of the first scheduled SINR, the largest of K users' Gamma(M)/c norms."""

    M: int
    K: int
    c: float

    def cdf_at(self, values) -> np.ndarray:
        """F(y) = P(M, c y)^K at the values, 0 below 0; P is the regularised lower gamma."""
        return lower_gamma_ladder(self.M, self.c * np.maximum(values, 0.0))[self.M] ** self.K

    def mean_log1p(self) -> float:
        """E[ln(1 + y)] = int (1 - F(e^x)) e^x/(1 + e^x) dx, by the trapezoid rule in x = ln y.

        The step halves, adding only the new points, until two steps agree to
        ``CHEB_TOL``; ``QuadratureError`` is raised rather than go below ``_RATE_FLOOR``.
        """
        lo = min(0.0, -math.log(self.c)) - _RATE_TAIL
        hi = math.log(2.0 * (self.M + math.log(self.K)) + _RATE_TAIL) - math.log(self.c)
        h, n, new = _RATE_STEP, math.ceil((hi - lo) / _RATE_STEP), slice(None)
        total, rate, error = 0.0, math.inf, math.inf
        while h >= _RATE_FLOOR:
            y = np.exp(lo + h * np.arange(n + 1))[new]
            total += np.sum((1.0 - self.cdf_at(y)) / (1.0 + 1.0 / y))
            error, rate = abs(h * total - rate), h * total
            if error <= CHEB_TOL * rate:
                return float(rate)
            h, n, new = h / 2.0, 2 * n, slice(1, None, 2)
        raise QuadratureError(f"rate not resolved at h >= {_RATE_FLOOR}", rate, error)


def scheduled(region, n: int):
    """K!/(K-n)! F_n^(K-n) phi_1 ... phi_n of a candidacy region, multiplied in that order.

    F_n in [-``_CDF_CLAMP``, 0) is cancellation and counts as 0; below that
    it raises ``ArithmeticError``.
    """
    F, K = region.cdf(n), region.params.K
    low = np.min(F)
    if low < -_CDF_CLAMP:
        raise ArithmeticError(f"selection CDF evaluated to {low}, beyond roundoff")
    # only a negative F needs the clamped copy, and OBF's I_n never is one
    val = math.perm(K, n) * (F if low >= 0 else np.maximum(F, 0.0)) ** (K - n)
    for k in range(1, n + 1):
        val = val * region.phi(k)
    return val


def rank_law(n: int, params, table: Callable):
    """The n-th SINR's law: ``MaxNormLaw`` at ``params.c`` for n = 1, else ``table(n, params)``."""
    return MaxNormLaw(params.M, params.K, params.c) if n == 1 else table(n, params)


def rank_laws(params, table: Callable) -> list:
    """The ``rank_law`` of each rank 1..r; ``check_rank`` refuses an r above the cap first."""
    check_rank(params.r, params.r)
    return [rank_law(n, params, table) for n in range(1, params.r + 1)]


def mean_sum_rate(params, table: Callable) -> float:
    """sum_n E[ln(1 + y_n)] in nats off each of the ``rank_laws``."""
    return sum(law.mean_log1p() for law in rank_laws(params, table))
