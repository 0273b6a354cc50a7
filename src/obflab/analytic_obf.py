"""Exact SINR distributions for adaptive OBF with greedy selection.

The chain of results implemented here:

* the unordered candidacy SINRs (v_1, ..., v_r) of a randomly selected
  user are an explicit transform of r independent gamma variates, giving
  a closed-form joint density on v_1 >= ... >= v_r >= 0;
* greedy selection turns that unordered density into the joint density
  of the scheduled users' SINRs,

      f(y_1..y_n) = K!/(K-n)! * I_n(y_n; y_{n-1}..y_1)^(K-n)
                    * prod_k phi_k(y_k; y_{k-1}..y_1),

  where phi_k integrates the unordered density over the candidacy region
  of step k and I_n = int_0^{y_n} phi_n;
* phi_1 is a gamma density and I_1 a regularised lower incomplete gamma.
  In z = v/(1+v) the unordered density is f_1(z_1) z_n^(M-n)/(M-n)! on the
  chain z_1 >= ... >= z_n, where f_1(z) = c^M e^(-c z/(1-z))/(1-z)^(M+1)
  and c = r/P: the same f_1 as OLBF's, which reads it on a simplex.  With
  u_k = 1 + y_k and t_k = y_k/u_k, every higher order is

      phi_n = t_n^(M-n)/(M-n)! J_{n-1}(t_n)/u_n^2,
      I_n = P(M, c y_n) + sum_{k<n} t_n^(M-k)/(M-k)! J_k(t_n),
      J_1(s) = G_0(s; t_1),  J_k(s) = int_s^{t_k} J_{k-1}(z) dz,

  where G_p(sigma; tau) = int_sigma^tau f_1(z) (z - sigma)^p/p! dz is
  ``numerics.lower_gamma_moment``, a sum of regularised lower gammas.  I_n
  integrates phi_n by parts n-1 times.  Integrating J_{k-1} gives

      J_k(s) = G_{k-1}(s; t_k) + sum_{l=1..k-1} (t_k - s)^l/l! B_l,

  whose B_l follow from those of k - 1 (``_Chain._B``).  Every term of
  phi_n and I_n is nonnegative, so nothing cancels at close or small y.

Each closed form has one body: ``_Chain`` reads G_p off one
``numerics.lower_gamma_ladder`` per pair of points, over whole node
tensors on the grids and over one call's floats in the scalar API
(``obf_phi``, ``obf_selection_cdf``).  ``_scheduled`` is the one body of
the joint density: ``obf_joint_pdf_scheduled`` calls it one point at a
time and ``obf_marginal_pdf_grid``, the only marginal density, on the
node tensors of ``numerics.marginal_grid``.  Its adaptive-quadrature
reference is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import DistributionGrid
from .numerics import check_rank, inner_rule, lower_gamma_ladder, lower_gamma_moment, marginal_grid

__all__ = [
    "ObfParams",
    "obf_x_to_v",
    "obf_v_to_x",
    "obf_unordered_pdf",
    "obf_phi",
    "obf_selection_cdf",
    "obf_joint_pdf_scheduled",
    "obf_marginal_pdf_grid",
    "obf_sinr_grid",
    "obf_mean_sum_rate",
]

@dataclass(frozen=True)
class ObfParams:
    M: int
    K: int
    P: float
    r: int

    def __post_init__(self):
        if not (self.M >= self.r >= 1):
            raise ValueError("need M >= r >= 1")
        if self.K < self.r:
            raise ValueError("need K >= r")
        if not (math.isfinite(self.P) and self.P > 0):
            raise ValueError(f"P must be positive and finite, got {self.P}")

    @property
    def rp(self) -> float:
        """Per-user inverse SNR r/P."""
        return self.r / self.P


def obf_x_to_v(xs, params: ObfParams) -> np.ndarray:
    """Candidacy SINRs from the underlying gamma variates.

    v_1 = (x_1 + ... + x_r) P/r and, for n >= 2,
    v_n = (x_n + ... + x_r) / (x_1 + ... + x_{n-1} + r/P).
    The output is non-increasing.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size != params.r:
        raise ValueError("expected r components")
    if np.any(xs < 0):
        raise ValueError("components must be nonnegative")
    total = xs.sum()
    vs = np.empty(params.r)
    vs[0] = total / params.rp
    head = 0.0
    for n in range(1, params.r):
        head += xs[n - 1]
        vs[n] = (total - head) / (head + params.rp)
    return vs


def obf_v_to_x(vs, params: ObfParams) -> tuple[np.ndarray, float]:
    """Inverse transform and |det J| of the forward map.

    x_n = (r/P)(1+v_1)(v_n - v_{n+1}) / ((1+v_n)(1+v_{n+1})) for n < r,
    x_r = (r/P)(1+v_1) v_r / (1+v_r), with
    |det J| = (r/P)^r (1+v_1)^(r-1) / prod_{k>=2} (1+v_k)^2.
    """
    vs = np.asarray(vs, dtype=float)
    if vs.ndim != 1 or vs.size != params.r:
        raise ValueError("expected r components")
    if np.any(np.diff(vs) > 0) or vs[-1] < 0:
        raise ValueError("need v_1 >= v_2 >= ... >= v_r >= 0")
    rp = params.rp
    scale = rp * (1.0 + vs[0])
    xs = np.empty(params.r)
    for n in range(params.r - 1):
        xs[n] = scale * (vs[n] - vs[n + 1]) / ((1.0 + vs[n]) * (1.0 + vs[n + 1]))
    xs[-1] = scale * vs[-1] / (1.0 + vs[-1])
    det = rp ** params.r * (1.0 + vs[0]) ** (params.r - 1) / np.prod((1.0 + vs[1:]) ** 2)
    return xs, float(det)


def obf_unordered_pdf(vs, params: ObfParams) -> float:
    """Joint density of (v_1, ..., v_n) under random selection, n <= r.

    f = (r/P)^M e^{-v_1 r/P} / Gamma(M-n+1)
        * (1+v_1)^(M-1) / prod_{k>=2}(1+v_k)^2 * (v_n/(1+v_n))^(M-n)
    on v_1 >= ... >= v_n >= 0, zero elsewhere.
    """
    vs = np.asarray(vs, dtype=float)
    n = vs.size
    if not 1 <= n <= params.r:
        raise ValueError("need 1 <= n <= r")
    if vs[-1] < 0 or np.any(np.diff(vs) > 0):
        return 0.0
    M, rp = params.M, params.rp
    val = rp ** M * math.exp(-vs[0] * rp) / math.gamma(M - n + 1)
    if val == 0.0:  # e^(-v_1 r/P) is 0, and the powers of 1 + v below may overflow
        return 0.0
    val *= (1.0 + vs[0]) ** (M - 1)
    if n > 1:
        val /= np.prod((1.0 + vs[1:]) ** 2)
    val *= (vs[-1] / (1.0 + vs[-1])) ** (M - n)
    return float(val)


def _check_ordered(ys) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    if ys.size and (ys[-1] < 0 or np.any(np.diff(ys) > 0)):
        raise ValueError("need y_1 >= ... >= y_n >= 0")
    return ys


def _I1(y, params: ObfParams):
    """I_1(y) = Pr(v_1 <= y) = P(M, (r/P) y), the regularised lower incomplete gamma."""
    return lower_gamma_ladder(params.M, params.rp * y)[params.M]


class _Chain:
    """phi_k and I_n at ys = (y_1, ..., y_n) as nonnegative sums of G_p.

    ``gaps`` are the steps y_1 - y_2, ..., y_{n-1} - y_n.  In t = y/(1 + y)
    the t-gap of y_a >= y_b is (y_a - y_b)/(u_a u_b), with u = 1 + y, and
    the pair (t_i, t_j), i > j, of ``numerics.lower_gamma_moment`` has
    o = 1/u_i, e^(c - c/o) = e^(-c y_i) and X = c (y_j - y_i): X spans only
    the gaps.  Each pair gets its ladder once; the point API and the grids
    both run this class.

    The first ``far`` points of a scalar point have e^(-c y) = 0 in floats
    (``_far``), so every G_p of a pair (t_i, t_j) with i <= far, and every
    phi_k with k <= far, is 0: they are returned as 0 unevaluated, since
    o^(p - q) and u^2 overflow there.  The grids zero such points first.
    """

    def __init__(self, ys, gaps, params: ObfParams, far: int = 0):
        self.ys, self.gaps, self.params, self.far = ys, gaps, params, far
        self.u = [1.0 + y for y in ys]
        self._pairs: dict = {}
        self._Bs: dict = {}
        self._Js: dict = {}

    def _ydiff(self, i: int, j: int):
        """y_j - y_i for i > j, summed from the gaps."""
        return sum(self.gaps[j:i - 1], self.gaps[j - 1])

    def _tgap(self, i: int, j: int):
        """t_j - t_i for i > j."""
        return self._ydiff(i, j) / (self.u[i - 1] * self.u[j - 1])

    def _G(self, p: int, i: int, j: int):
        """G_p(t_i; t_j), i > j.  The last point t_n is paired with every t_j,
        at p = j - 1 only; any other t_i only with t_{i-1}, at p = 0..i-2."""
        if i <= self.far:
            return 0.0
        if (i, j) not in self._pairs:
            M, c = self.params.M, self.params.rp
            lowest = j if i == len(self.ys) else 1
            self._pairs[i, j] = (np.exp(-c * self.ys[i - 1]), 1.0 / self.u[i - 1],
                                 lower_gamma_ladder(M, c * self._ydiff(i, j), lowest))
        e, o, P = self._pairs[i, j]
        return lower_gamma_moment(p, self.params.M, self.params.rp, e, o, P)

    def _B(self, k: int) -> list:
        """B_1, ..., B_{k-1} with J_k(s) = G_{k-1}(s; t_k) + sum_l (t_k - s)^l/l! B_l.

        B_1 = J_{k-1}(t_k) and, with d = t_{k-1} - t_k and B' those of
        k - 1, B_{l+1} = G_{k-2-l}(t_k; t_{k-1}) + sum_{i=l..k-2} B'_i d^(i-l)/(i-l)!.
        """
        if k not in self._Bs:
            B = [self._J(k - 1, k)]
            if k > 2:
                prev, d = self._B(k - 1), self._tgap(k, k - 1)
                for l in range(1, k - 1):
                    total, power = self._G(k - 2 - l, k, k - 1) + prev[l - 1], 1.0
                    for i in range(l + 1, k - 1):
                        power = power * d / (i - l)
                        total = total + prev[i - 1] * power
                    B.append(total)
            self._Bs[k] = B
        return self._Bs[k]

    def _J(self, k: int, i: int):
        """J_k(t_i) = int_{t_i}^{t_k} J_{k-1}, with J_1(s) = G_0(s; t_1), for i > k."""
        if (k, i) not in self._Js:
            total = self._G(k - 1, i, k)
            if k > 1:
                d, power = self._tgap(i, k), 1.0
                for l, B in enumerate(self._B(k), start=1):
                    power = power * d / l
                    total = total + power * B
            self._Js[k, i] = total
        return self._Js[k, i]

    def phi(self, k: int):
        """phi_k(y_1..y_k) = t_k^(M-k)/(M-k)! J_{k-1}(t_k)/u_k^2, and the gamma density at k = 1."""
        if k <= self.far:
            return 0.0
        M, rp, y = self.params.M, self.params.rp, self.ys[k - 1]
        if k == 1:
            return rp ** M * y ** (M - 1) / math.gamma(M) * np.exp(-y * rp)
        u = self.u[k - 1]
        return (y / u) ** (M - k) / math.factorial(M - k) * self._J(k - 1, k) / u ** 2

    def cdf(self):
        """I_n = P(M, c y_n) + sum_{k<n} t_n^(M-k)/(M-k)! J_k(t_n)."""
        n, M, y = len(self.ys), self.params.M, self.ys[-1]
        t = y / self.u[-1]
        total = _I1(y, self.params)
        for k in range(1, n):
            total = total + t ** (M - k) / math.factorial(M - k) * self._J(k, n)
        return total


def _far(y, params: ObfParams):
    """Where e^(-c y) is 0 in floats: there every density factor that reads y is 0."""
    return np.exp(-params.rp * y) == 0


def _point(ys, params: ObfParams) -> tuple[list, list, int]:
    """One ordered point's ys as floats, its gaps y_k - y_{k+1}, and how many leading ys
    are ``_far``."""
    ys = [float(y) for y in ys]
    far = next((k for k, y in enumerate(ys) if not _far(y, params)), len(ys))
    return ys, [a - b for a, b in zip(ys, ys[1:])], far


def _scalar_chain(n: int, ys, params: ObfParams) -> _Chain:
    """The ``_Chain`` of one ordered point, after checking n against it."""
    ys = _check_ordered(ys)
    if len(ys) != n or not 1 <= n <= params.r:
        raise ValueError("need len(ys) == n and 1 <= n <= r")
    ys, gaps, far = _point(ys, params)
    return _Chain(ys, gaps, params, far)


def obf_phi(n: int, ys, params: ObfParams) -> float:
    """phi_n evaluated at ys = (y_1, ..., y_n), y_1 >= ... >= y_n >= 0.

    phi_n integrates the unordered density over the candidacy region of
    step n with v_n pinned at y_n.  phi_1 is a gamma density; for n >= 2,
    with u_k = 1 + y_k, t_k = y_k/u_k and c = r/P,

        phi_n = t_n^(M-n)/(M-n)! J_{n-1}(t_n)/u_n^2,
        J_1(s) = G_0(s; t_1),  J_k(s) = int_s^{t_k} J_{k-1}(z) dz,

    each J_k a nonnegative sum of ``numerics.lower_gamma_moment``s.
    """
    return float(_scalar_chain(n, ys, params).phi(n))


def obf_selection_cdf(n: int, ys, params: ObfParams) -> float:
    """I_n(ys) = int_0^{y_n} phi_n(alpha, y_{n-1}, ..., y_1) d alpha.

    This is the joint CDF of one unscheduled user's candidacy SINRs
    evaluated at the scheduled values; it enters the joint density with
    exponent K-n.  I_1 is a regularised lower incomplete gamma, and
    I_n = P(M, c y_n) + sum_{k<n} t_n^(M-k)/(M-k)! J_k(t_n).
    """
    return float(_scalar_chain(n, ys, params).cdf())


def _scheduled(ys, gaps, params: ObfParams):
    """K!/(K-n)! I_n^(K-n) phi_1 ... phi_n at ys = (y_1, ..., y_n), multiplied in that order."""
    n, chain = len(ys), _Chain(ys, gaps, params)
    val = math.perm(params.K, n) * chain.cdf() ** (params.K - n)
    for k in range(1, n + 1):
        val = val * chain.phi(k)
    return val


def obf_joint_pdf_scheduled(ys, params: ObfParams) -> float:
    """Joint density of the first n scheduled users' SINRs at ys = (y_1..y_n).

    Validates once; the product is the same, factor for factor, as that of
    ``obf_selection_cdf`` and ``obf_phi``.
    """
    ys = np.asarray(ys, dtype=float)
    if not 1 <= ys.size <= params.r:
        raise ValueError("need 1 <= n <= r")
    if ys[-1] < 0 or np.any(np.diff(ys) > 0):
        return 0.0
    ys, gaps, far = _point(ys, params)
    return 0.0 if far else float(_scheduled(ys, gaps, params))  # far: phi_1 is 0


def obf_marginal_pdf_grid(n: int, ys, params: ObfParams) -> np.ndarray:
    """Marginal density of the n-th scheduled SINR on a whole grid at once.

    ``numerics.marginal_grid`` integrates ``_scheduled`` with ``INNER_NODES``
    Gauss-Legendre nodes per free variable on the rational maps
    y_{k-1} = y_k + sigma t/(1-t), in place of adaptive subdivision.  The
    scale sigma = P/r is the per-stream SNR, the spread of each step, so the
    nodes follow the density as the SNR grows; at M=3, K=10 the tabulated
    marginals of ranks 2-3 have |mass - 1| below 1e-8 at 15 and 25 dB.  The
    body reads the steps themselves as its gaps, so each ladder spans the
    free axes only.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(ys < 0):
        raise ValueError("grid points must be nonnegative")
    far = _far(ys, params)  # the density is 0 there; they are integrated at y = 0 and zeroed
    t, wt = inner_rule()
    sigma = 1.0 / params.rp
    axes = [[-1 if i == ax else 1 for i in range(n)] for ax in range(1, n)]
    steps = [(sigma * t / (1.0 - t)).reshape(shape) for shape in axes]
    weights = [(sigma * wt / (1.0 - t) ** 2).reshape(shape) for shape in axes]

    def pieces(yb: np.ndarray):
        """y_n on the points' axis, then y_{n-1} .. y_1 on free axes 1 .. n-1, with their steps."""
        yk = [yb.reshape(-1, *[1] * (n - 1))]
        for step in steps:
            yk.insert(0, yk[0] + step)
        yield (yk, steps[::-1]), weights

    pdf = marginal_grid(n, params.r, np.where(far, 0.0, ys), pieces,
                        lambda v: _scheduled(*v, params))
    return np.where(far, 0.0, pdf)


@lru_cache(maxsize=32)
def obf_sinr_grid(n: int, params: ObfParams) -> DistributionGrid:
    """Distribution of the n-th scheduled SINR, tabulated once per (n, params)."""
    return DistributionGrid.tabulate(
        lambda u: obf_marginal_pdf_grid(n, u / (1.0 - u), params) / (1.0 - u) ** 2
    )


def obf_mean_sum_rate(params: ObfParams) -> float:
    """Average sum rate sum_n E[ln(1 + y_n)] in nats, read off each rank's ``obf_sinr_grid``.

    A rank above ``MAX_ANALYTIC_RANK`` raises before any table is built.
    """
    check_rank(params.r, params.r)
    return sum(obf_sinr_grid(n, params).mean_log1p() for n in range(1, params.r + 1))
