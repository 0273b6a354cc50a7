"""Exact SINR distributions for OLBF (fixed orthonormal beams) scheduling.

The unordered candidacy SINRs (v_1, ..., v_M) of a probe user are an
explicit transform of M independent exponentials.  The substitution
z = v/(1+v) turns the awkward ordering constraint into the simplex-like
region 0 <= z_2 + ... + z_M <= z_1 <= 1, on which the joint density of
any leading subset (z_1, ..., z_n) is the simple closed form
``olbf_unordered_pdf_z``.  Greedy selection then gives the joint density
of the scheduled users' transformed SINRs

    f(t_1..t_n) = K!/(K-n)! * F_n(t_1..t_n)^(K-n) * prod_k xi_k,

where F_n is the joint CDF of (z_1..z_n) and xi_k integrates the
unordered density over the candidacy region of step k.

Both are alternating sums of one integral.  With c = M/P and
f_1(z) = c^M e^(-c z/(1-z)) / (1-z)^(M+1), let

    G_p(sigma; t_1) = int_sigma^{t_1} f_1(z) (z - sigma)^p / p! dz.

It is 0 for sigma >= t_1.  Otherwise substitute w = c/(1 - z), then
v = o w - c and x = v/o; with q = M - 1 - p, o = 1 - sigma and
X = c (t_1 - sigma) / ((1 - t_1) o) (X = inf at t_1 = 1),

    G_p = e^(c - c/o) sum_{j=0..q} C(q, j) c^(q-j) o^(p+j-q) (p+j)!/p!
          P(p+j+1, X),

where P is the regularised lower incomplete gamma: a sum of nonnegative
terms, with no difference of gammas to cancel.  This is
``numerics.lower_gamma_moment``, on a ``numerics.lower_gamma_ladder`` per
corner; OBF's chain reads the same G_p.

Integrating (z_1 - sum z)_+^q / q! over a box z_j in [0, t_j], j = 1..m,
gives sum_S (-1)^|S| (z_1 - sum S)_+^(q+m) / (q+m)! over the subsets S of
the upper limits, on either side of z_1 = sum t_j.  Hence, at every order,
with t_1 above or below t_2 + ... + t_n alike, summing over the subsets S
of the tails

    F_n(t) = sum_{S of t_2..t_n} (-1)^|S| G_{M-1}(sum S; t_1),
    xi_k(t) = sum_{S of t_2..t_{k-1}} (-1)^|S| G_{M-2}(t_k + sum S; t_1).

So only p = M - 1, one term e^(c - c/o) o^(M-1) P(M, X), and p = M - 2,
two terms in P(M, X) and P(M - 1, X), occur; the S = {} term of F_n is
F_1 = P(M, c t_1/(1 - t_1)).  The test oracles (``tests/oracles.py``)
check F_n by integrating the cross-section density over z_1, and the grid
marginals by adaptive quadrature.

The scheme's part is its candidacy region, the box of the tails:
``_Corners`` is the one body of F_n (``cdf(n)``) and xi_k (``phi(k)``),
and ``grids.scheduled`` is the product.  Both take numbers or arrays, so
the grid evaluator runs them on the node tensors of
``numerics.marginal_grid`` and the scalar API (``olbf_xi``, ``olbf_cdf_z``,
``olbf_joint_pdf_t``) one point at a time, on one Gamma route.

Actual SINRs are recovered through y = t/(1-t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
import numpy as np

from .grids import DistributionGrid, mean_sum_rate, scheduled
from .numerics import inner_rule, lower_gamma_ladder, lower_gamma_moment, marginal_grid

__all__ = [
    "OlbfParams",
    "olbf_x_to_v",
    "olbf_v_to_x",
    "olbf_unordered_pdf_z",
    "olbf_xi",
    "olbf_cdf_z",
    "olbf_joint_pdf_t",
    "olbf_marginal_pdf_t_grid",
    "olbf_marginal_pdf_sinr_grid",
    "olbf_sinr_grid",
    "olbf_mean_sum_rate",
]


@dataclass(frozen=True)
class OlbfParams:
    M: int
    K: int
    P: float

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("need M >= 2")
        if self.K < self.M:
            raise ValueError("need K >= M")
        if not (math.isfinite(self.P) and self.P > 0):
            raise ValueError(f"P must be positive and finite, got {self.P}")

    @property
    def r(self) -> int:
        """Beams served: OLBF always uses all M."""
        return self.M

    @property
    def c(self) -> float:
        """Inverse per-beam SNR M/P."""
        return self.M / self.P


def olbf_x_to_v(xs, params: OlbfParams) -> np.ndarray:
    """Candidacy SINRs from the underlying exponential variates.

    v_1 = (x_1 + ... + x_M) P/M and, for n >= 2,
    v_n = x_n / (sum_{j != n} x_j + M/P).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size != params.M:
        raise ValueError("expected M components")
    if np.any(xs < 0):
        raise ValueError("components must be nonnegative")
    total = xs.sum()
    vs = np.empty(params.M)
    vs[0] = total / params.c
    vs[1:] = xs[1:] / (total - xs[1:] + params.c)
    return vs


def olbf_v_to_x(vs, params: OlbfParams) -> tuple[np.ndarray, float]:
    """Inverse transform and |det J| of the forward map.

    x_n = (M/P)(1+v_1) v_n/(1+v_n) for n >= 2 and
    x_1 = (M/P) v_1 - sum_{n>=2} x_n, with
    |det J| = (M/P)^M (1+v_1)^(M-1) / prod_{k>=2} (1+v_k)^2.
    """
    vs = np.asarray(vs, dtype=float)
    if vs.ndim != 1 or vs.size != params.M:
        raise ValueError("expected M components")
    c = params.c
    scale = c * (1.0 + vs[0])
    xs = np.empty(params.M)
    xs[1:] = scale * vs[1:] / (1.0 + vs[1:])
    xs[0] = c * vs[0] - xs[1:].sum()
    det = c ** params.M * (1.0 + vs[0]) ** (params.M - 1) / np.prod((1.0 + vs[1:]) ** 2)
    return xs, float(det)


def olbf_unordered_pdf_z(zs, params: OlbfParams) -> float:
    """Joint density of (z_1, ..., z_n) under random selection, n <= M.

    f = e^{-(M/P) z_1/(1-z_1)} (M/P)^M / (1-z_1)^(M+1)
        * (z_1 - sum_{i>=2} z_i)^(M-n) / (M-n)!
    on 0 <= z_2 + ... + z_n <= z_1 <= 1 (z_i >= 0), zero elsewhere.
    """
    zs = np.asarray(zs, dtype=float)
    n = zs.size
    if not 1 <= n <= params.M:
        raise ValueError("need 1 <= n <= M")
    if np.any(zs < 0) or zs[0] >= 1.0:
        return 0.0
    slack = zs[0] - zs[1:].sum()
    if slack < 0:
        return 0.0
    M, c = params.M, params.c
    val = math.exp(-c * zs[0] / (1.0 - zs[0])) * c ** M / (1.0 - zs[0]) ** (M + 1)
    return float(val * slack ** (M - n) / math.gamma(M - n + 1))


def _z1_pdf_vec(t1: np.ndarray, params: OlbfParams) -> np.ndarray:
    """Marginal density of z_1 (scaled total channel power).

    1 - t_1 is taken as inf at t_1 = 1, giving the limit 0.
    """
    M, c = params.M, params.c
    om = np.where(t1 < 1.0, 1.0 - t1, np.inf)
    return np.exp(-c * t1 / om) * c ** M / om ** (M + 1) * t1 ** (M - 1) / math.gamma(M)


class _Corners:
    """The box region at ts = (t_1, ..., t_n): F_n and xi_k as subset sums of G_p.

    A subset J of the indices 1..n-1 (t_2..t_n) is a corner of the box of
    the tails; its G_p reads sigma_J = sum_{j in J} t_j.  Each corner gets
    its o = 1 - sigma_J, e^(c - c/o) and P(M, X), P(M - 1, X) once, shared by
    F_n and xi_k.  The point API and the grids both run this class.
    """

    def __init__(self, ts, params: OlbfParams):
        self.ts, self.params = ts, params
        self._at: dict = {}

    def _corner(self, sigma):
        """e^(c - c/o) = e^(-c sigma/o), o and the ladder P(M, X), P(M - 1, X) at sigma.

        Where sigma >= t_1, X = 0 and o is set to 1, so every G_p is 0.  At
        t_1 = 1, X = inf and both orders are 1.
        """
        t1, M, c = self.ts[0], self.params.M, self.params.c
        below = sigma < t1
        o = np.where(below, 1.0 - sigma, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            X = np.where(below, c * (t1 - sigma) / ((1.0 - t1) * o), 0.0)
        return np.exp(-c * sigma / o), o, lower_gamma_ladder(M, X, M - 1)

    def _G(self, p: int, J: tuple):
        """G_p(sigma_J; t_1) for p = M - 1 or M - 2."""
        if J not in self._at:
            self._at[J] = self._corner(sum(self.ts[j] for j in J))
        return lower_gamma_moment(p, self.params.M, self.params.c, *self._at[J])

    def _sum(self, p: int, head: tuple, free: tuple):
        """sum over subsets S of free of (-1)^|S| G_p(sigma_{head + S}; t_1)."""
        total = 0.0
        for size in range(len(free) + 1):
            for S in combinations(free, size):
                total = total + (-1) ** size * self._G(p, tuple(sorted(head + S)))
        return total

    def phi(self, k: int):
        """xi_k(t_1..t_k): the density of z_1 at k = 1, a subset sum of G_{M-2} above."""
        if k == 1:
            return _z1_pdf_vec(self.ts[0], self.params)
        return self._sum(self.params.M - 2, (k - 1,), tuple(range(1, k - 1)))

    def cdf(self, n: int):
        """F_n(t_1..t_n): F_1, the empty corner, less the nonempty subsets grouped
        by their first index, so that t_n = 0 gives exactly 0."""
        total = self._G(self.params.M - 1, ())
        for j in range(1, n):
            total = total - self._sum(self.params.M - 1, (j,), tuple(range(j + 1, n)))
        return total


def olbf_xi(k: int, ts, params: OlbfParams) -> float:
    """xi_k evaluated at ts = (t_1, ..., t_k) with 0 <= t_i <= t_1 <= 1.

    xi_k integrates the unordered z-density over the candidacy region of
    step k with z_k pinned at t_k: xi_1 is the density of z_1 and, at every
    k >= 2, xi_k = sum_{S of t_2..t_{k-1}} (-1)^|S| G_{M-2}(t_k + sum S; t_1).
    """
    ts = np.asarray(ts, dtype=float)
    if len(ts) != k or not 1 <= k <= params.M:
        raise ValueError("need len(ts) == k and 1 <= k <= M")
    if np.any(ts < 0) or np.any(ts[1:] > ts[0]) or ts[0] > 1.0:
        raise ValueError("need 0 <= t_i <= t_1 <= 1")
    return float(_Corners(ts, params).phi(k))


def olbf_cdf_z(ts, params: OlbfParams) -> float:
    """Joint CDF of (z_1, ..., z_n) at ts = (t_1, ..., t_n).

    Sums G_{M-1} over the subsets of the tails, at any order and on either
    branch.
    """
    ts = np.asarray(ts, dtype=float)
    n = ts.size
    if not 1 <= n <= params.M:
        raise ValueError("need 1 <= n <= M")
    if np.any(ts < 0) or np.any(ts[1:] > ts[0] + 1e-15) or ts[0] > 1.0:
        raise ValueError("need 0 <= t_i <= t_1 <= 1")
    return float(_Corners(ts, params).cdf(n))


def olbf_joint_pdf_t(ts, params: OlbfParams) -> float:
    """Joint density of the first n scheduled transformed SINRs at ts."""
    ts = np.asarray(ts, dtype=float)
    if not 1 <= ts.size <= params.M:
        raise ValueError("need 1 <= n <= M")
    if np.any(ts < 0) or np.any(ts[1:] > ts[0]) or ts[0] > 1.0:
        return 0.0
    return float(scheduled(_Corners([float(t) for t in ts], params), ts.size))


def olbf_marginal_pdf_t_grid(n: int, ss, params: OlbfParams) -> np.ndarray:
    """Marginal density of the n-th scheduled transformed SINR on a grid.

    ``numerics.marginal_grid`` integrates ``grids.scheduled`` of the box, with
    ``INNER_NODES`` Gauss-Legendre nodes per free variable.  t_1 is mapped on
    the SINR axis, y_1 = s/(1 - s) + sigma u/(1 - u) and t_1 = y_1/(1 + y_1),
    at the per-beam SNR sigma = P/M, so the nodes follow the density as the
    SNR grows.  At rank 3, t_2 lies on [0, t_1 - s] and [t_1 - s, t_1], split at
    the kink t_2 = t_1 - s.  Each corner of the tails gets its P(M, X) once
    per node tensor.  s = 1 gives t_1 = 1 and weight 0: the density is 0 there.
    """
    ss = np.atleast_1d(np.asarray(ss, dtype=float))
    if np.any((ss < 0) | (ss > 1)):
        raise ValueError("grid points must lie in [0, 1]")
    u, wu = inner_rule()
    sigma = params.P / params.M

    def pieces(sb: np.ndarray):
        """t_1 on free axis 1 and, at rank 3, t_2 on free axis 2, one side of the kink a piece."""
        if n == 1:
            yield [sb], []
            return
        s = sb.reshape(-1, *[1] * (n - 1))
        axis1 = (-1,) + (1,) * (n - 2)
        # with q = 1 - s and a = q sigma u/(1 - u), 1 + y_1 = (1 + a)/q, so
        # t_1 - s = q a/(1 + a) and dt_1/du = sigma (q/((1 - u)(1 + a)))^2:
        # nothing is infinite at s = 1.  Once a > 2^53, s + gap can round one
        # ulp above 1, so t_1 is held at 1
        u1, w1 = u.reshape(axis1), wu.reshape(axis1)
        q = 1.0 - s
        a = q * sigma * u1 / (1.0 - u1)
        gap = q * a / (1.0 + a)
        t1 = np.minimum(s + gap, 1.0)
        jac = sigma * w1 * (q / ((1.0 - u1) * (1.0 + a))) ** 2
        if n == 2:
            yield [t1, s], [jac]
            return
        for start, width in ((0.0, gap), (gap, s)):
            yield [t1, start + width * u, s], [jac * width, wu]

    return marginal_grid(n, params.M, ss, pieces, lambda ts: scheduled(_Corners(ts, params), n))


def olbf_marginal_pdf_sinr_grid(n: int, ys, params: OlbfParams) -> np.ndarray:
    """Marginal density of the n-th scheduled SINR (actual scale) on a grid."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(ys < 0):
        raise ValueError("grid points must be nonnegative")
    pdf = olbf_marginal_pdf_t_grid(n, ys / (1.0 + ys), params)
    with np.errstate(over="ignore"):  # (1 + y)^2 is inf only where t = 1, whose density is 0
        return pdf / (1.0 + ys) ** 2


@lru_cache(maxsize=32)
def olbf_sinr_grid(n: int, params: OlbfParams) -> DistributionGrid:
    """Distribution of the n-th scheduled SINR, tabulated once per (n, params); u is t itself."""
    return DistributionGrid.tabulate(lambda t: olbf_marginal_pdf_t_grid(n, t, params))


def olbf_mean_sum_rate(params: OlbfParams) -> float:
    """Average sum rate in nats: ``grids.mean_sum_rate`` over ``olbf_sinr_grid``."""
    return mean_sum_rate(params, olbf_sinr_grid)
