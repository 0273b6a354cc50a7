"""Marginal SINR distributions tabulated as Chebyshev series.

A marginal density is tabulated on u = y/(1+y), which maps the SINR
half-line onto [0, 1], at nested Chebyshev points of the 2nd kind, doubled
until the coefficients show it resolved to ``CHEB_TOL``.  The KS CDF, the
mass (not renormalised, so its distance from 1 is the density's own error)
and the mean sum rate all read that one series; a table whose mass is off 1
by more than ``MASS_TOL`` is refused.  ``obf_sinr_grid`` and
``olbf_sinr_grid`` in the analytic modules cache one table per rank and
parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import QuadratureError

__all__ = ["DistributionGrid", "CHEB_TOL", "CHEB_CAP", "MASS_TOL"]

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
