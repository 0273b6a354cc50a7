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
* phi_1 is a gamma density and I_1 a regularised lower incomplete gamma;
  with u_k = 1 + y_k and c = r/P, every higher order is a closed form in
  upper incomplete gammas of integer order >= 1,

      phi_n = e^c/(M-n)! ((u_n - 1)/u_n)^(M-n) u_n^-2 J_{n-1}(u_n),
      J_1(w) = Gamma(M, c w) - Gamma(M, c u_1),
      J_k(w) = int_w^{u_k} u^-2 J_{k-1}(u) du,
      I_n = I_1(y_n) + y_n u_n sum_{k=2..n} phi_k(y_1..y_{k-1}, y_n) / (M-k+1),

  where each J_k is generated term by term, integrating by parts with
  int u^a Gamma(s, c u) du = [u^(a+1) Gamma(s, c u) - c^(-a-1) Gamma(s+a+1, c u)] / (a+1).

Each closed form has one body, and one Gamma route: it reads Gamma(s, x)
through callables over ``GammaLadder``s, which the grid evaluators build
over whole argument tensors and the scalar API (``obf_phi``,
``obf_selection_cdf``) over the n arguments of one call.  ``_scheduled`` is
the one body of the joint density: ``obf_joint_pdf_scheduled`` calls it
one point at a time and ``obf_marginal_pdf_grid``, the only marginal
density, on the node tensors of ``numerics.marginal_grid``.  Its
adaptive-quadrature reference is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import special

from .grids import DistributionGrid
from .numerics import GammaLadder, check_rank, inner_rule, marginal_grid

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
    return special.gammainc(params.M, params.rp * y)


def _ladder(y: np.ndarray, params: ObfParams) -> GammaLadder:
    """Gamma(s, (r/P)(1 + y)) for s >= 1."""
    return GammaLadder(params.rp * (1.0 + y))


# The term algebra behind J_k.  With F_1(u) = -Gamma(M, c u) and F_k an
# antiderivative of u^-2 J_{k-1}(u), J_k(w) = F_k(u_k) - F_k(w).  A term is
# coef * c^e * prod_j u_j^a_j * Gamma(s, c u_j) (at most one Gamma), keyed
# (e, (a_0, ..., a_M), (j, s) or None) in a dict of exact coefficients; a_0
# is unused and F_k keeps its variable in slot k.  The by-parts rule maps
# terms to terms; a = -1 (a logarithm) would leave the algebra, and raises.


def _add(terms: dict, key, coef) -> None:
    coef += terms.get(key, 0)
    if coef:
        terms[key] = coef
    else:
        terms.pop(key, None)


def _set(powers: tuple, slot: int, a: int) -> tuple:
    return powers[:slot] + (a,) + powers[slot + 1:]


def _integrate(terms: dict, slot: int) -> dict:
    """An antiderivative in u_slot of the sum of the terms."""
    out: dict = {}
    for (e, powers, gamma), coef in terms.items():
        a = powers[slot]
        if a == -1:
            raise ArithmeticError(f"int u_{slot}^-1 ... du_{slot} is not a term of the algebra")
        _add(out, (e, _set(powers, slot, a + 1), gamma), coef / (a + 1))
        if gamma is not None and gamma[0] == slot:
            by_parts = (e - a - 1, _set(powers, slot, 0), (slot, gamma[1] + a + 1))
            _add(out, by_parts, -coef / (a + 1))
    return out


@lru_cache(maxsize=None)
def _antiderivative(k: int, M: int) -> dict:
    """F_k as {(e, powers, gamma): coef}, in the variable u_k."""
    if k == 1:
        return {(0, (0,) * (M + 1), (1, M)): Fraction(-1)}
    integrand: dict = {}  # u_k^-2 J_{k-1}(u_k) = u_k^-2 [F_{k-1}(u_{k-1}) - F_{k-1}(u_k)]
    for (e, powers, gamma), coef in _antiderivative(k - 1, M).items():
        _add(integrand, (e, _set(powers, k, -2), gamma), coef)
        moved = _set(_set(powers, k - 1, 0), k, powers[k - 1] - 2)
        if gamma is not None and gamma[0] == k - 1:
            gamma = (k, gamma[1])
        _add(integrand, (e, moved, gamma), -coef)
    return _integrate(integrand, k)


@lru_cache(maxsize=None)
def _pairs(k: int, M: int) -> tuple:
    """F_k's terms as (coef, e, b, s, fixed), ready to evaluate J_k.

    On slot k a term reads u^b Gamma(s, c u), or u^b where s is None;
    ``fixed`` holds its other factors u_j^a Gamma(s_j, c u_j) as (j, a, s_j),
    highest slot first, which on the grids is the smallest tensor first.
    Terms constant in u_k cancel from J_k and are dropped.
    """
    out = []
    for (e, powers, gamma), coef in _antiderivative(k, M).items():
        orders = dict([gamma] if gamma else [])
        if powers[k] or k in orders:
            fixed = tuple((j, powers[j], orders.get(j)) for j in range(k - 1, 0, -1)
                          if powers[j] or j in orders)
            out.append((float(coef), e, powers[k], orders.get(k), fixed))
    return tuple(out)


def _J(k: int, ys: list, gs: list, params: ObfParams):
    """J_k(u_{k+1}) = F_k(u_k) - F_k(u_{k+1}), each term's two ends taken together.

    ``ys`` is (y_1, ..., y_n) and ``gs[j-1](s)`` reads Gamma(s, (r/P)(1 + y_j))
    off a ``_ladder``, so each argument is exponentiated once for every order
    and form: one ladder per node tensor on the grids, one over the call's n
    arguments in the point API.
    """
    powers: dict = {}

    def factor(j, a, s):  # u_j^a Gamma(s, c u_j)
        if not a:
            return 1.0 if s is None else gs[j - 1](s)
        if (j, a) not in powers:
            powers[j, a] = (1.0 + ys[j - 1]) ** a
        return powers[j, a] if s is None else powers[j, a] * gs[j - 1](s)

    terms = []
    for coef, e, b, s, fixed in _pairs(k, params.M):
        val = coef * params.rp ** e * (factor(k, b, s) - factor(k + 1, b, s))
        for j, a, sj in fixed:
            val = val * factor(j, a, sj)
        terms.append(val)
    return sum(terms[1:], terms[0])


def _phi(ys, gs, params: ObfParams):
    """phi_n at ys = (y_1, ..., y_n), n >= 2."""
    n, M, rp = len(ys), params.M, params.rp
    y = ys[-1]
    pref = math.exp(rp) / math.factorial(M - n) * (y / (1.0 + y)) ** (M - n) / (1.0 + y) ** 2
    return pref * _J(n - 1, ys, gs, params)


def _I(ys, gs, phi, params: ObfParams):
    """I_n at ys = (y_1, ..., y_n), n >= 2, given phi = phi_n(ys).

    With t = (u - 1)/u, u^-2 du = dt and I_n = e^c/(M-n)! int_0^{t_n}
    t^(M-n) J_{n-1} dt.  Integrating the power of t by parts n-1 times
    (dJ_k/dt = -J_{k-1}, dJ_1/dt = -c^M u^(M+1) e^(-c u)) leaves
    I_1(y_n) + e^c sum_{k<n} t_n^(M-k)/(M-k)! J_k(u_n), that is
    I_1(y_n) + y_n u_n sum_{k=2..n} phi_k(y_1..y_{k-1}, y_n)/(M-k+1): a
    sum of nonnegative terms, where expanding ((u-1)/u)^(M-n) binomially
    would cancel catastrophically at small y_n.
    """
    n, M, y = len(ys), params.M, ys[-1]
    w = y * (1.0 + y)
    total = _I1(y, params) + w / (M - n + 1) * phi
    for k in range(2, n):
        total = total + w / (M - k + 1) * _phi([*ys[:k - 1], y], [*gs[:k - 1], gs[-1]], params)
    return total


def _scalar_args(ys, params: ObfParams):
    """ys as floats, and per y_j Gamma(s, (r/P)(1 + y_j)) off one ``_ladder`` over all of them."""
    ys = [float(y) for y in ys]
    ladder = _ladder(np.array(ys), params)
    return ys, [lambda s, j=j: ladder(s)[j] for j in range(len(ys))]


def obf_phi(n: int, ys, params: ObfParams) -> float:
    """phi_n evaluated at ys = (y_1, ..., y_n), y_1 >= ... >= y_n >= 0.

    phi_n integrates the unordered density over the candidacy region of
    step n with v_n pinned at y_n.  phi_1 is a gamma density; for n >= 2,
    with u_k = 1 + y_k and c = r/P,

        phi_n = e^c/(M-n)! ((u_n - 1)/u_n)^(M-n) u_n^-2 J_{n-1}(u_n),
        J_1(w) = Gamma(M, c w) - Gamma(M, c u_1),
        J_k(w) = int_w^{u_k} u^-2 J_{k-1}(u) du,

    each integral taken in closed form by parts,
    int u^a Gamma(s, c u) du = [u^(a+1) Gamma(s, c u) - c^(-a-1) Gamma(s+a+1, c u)] / (a+1).
    """
    ys = _check_ordered(ys)
    if len(ys) != n or not 1 <= n <= params.r:
        raise ValueError("need len(ys) == n and 1 <= n <= r")
    if n == 1:
        return float(_phi1_vec(ys[0], params))
    return float(_phi(*_scalar_args(ys, params), params))


def obf_selection_cdf(n: int, ys, params: ObfParams) -> float:
    """I_n(ys) = int_0^{y_n} phi_n(alpha, y_{n-1}, ..., y_1) d alpha.

    This is the joint CDF of one unscheduled user's candidacy SINRs
    evaluated at the scheduled values; it enters the joint density with
    exponent K-n.  I_1 is a regularised lower incomplete gamma, and
    I_n = I_1(y_n) + y_n (1 + y_n) sum_{k=2..n} phi_k(y_1..y_{k-1}, y_n)/(M-k+1).
    """
    ys = _check_ordered(ys)
    if len(ys) != n or not 1 <= n <= params.r:
        raise ValueError("need len(ys) == n and 1 <= n <= r")
    if n == 1:
        return float(_I1(ys[0], params))
    ys, gs = _scalar_args(ys, params)
    return float(_I(ys, gs, _phi(ys, gs, params), params))


def _scheduled(ys, gs, params: ObfParams):
    """K!/(K-n)! I_n^(K-n) phi_1 ... phi_n at ys = (y_1, ..., y_n), multiplied in that order.

    Each phi_k is evaluated once; only phi_n, which I_n reads, is held.
    """
    n, K = len(ys), params.K

    def phi(k):
        return _phi1_vec(ys[0], params) if k == 1 else _phi(ys[:k], gs[:k], params)

    last = phi(n)
    val = math.perm(K, n) * (
        _I1(ys[0], params) if n == 1 else _I(ys, gs, last, params)
    ) ** (K - n)
    for k in range(1, n):
        val = val * phi(k)
    return val * last


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
    return float(_scheduled(*_scalar_args(ys, params), params))


def _phi1_vec(y1: np.ndarray, params: ObfParams) -> np.ndarray:
    M, rp = params.M, params.rp
    return rp ** M * y1 ** (M - 1) / math.gamma(M) * np.exp(-y1 * rp)


def obf_marginal_pdf_grid(n: int, ys, params: ObfParams) -> np.ndarray:
    """Marginal density of the n-th scheduled SINR on a whole grid at once.

    ``numerics.marginal_grid`` integrates ``_scheduled`` with ``INNER_NODES``
    Gauss-Legendre nodes per free variable on the rational maps
    y_{k-1} = y_k + sigma t/(1-t), in place of adaptive subdivision.  The
    scale sigma = P/r is the per-stream SNR, the spread of each step, so the
    nodes follow the density as the SNR grows; at M=3, K=10 the tabulated
    marginals of ranks 2-3 have |mass - 1| below 1e-8 at 15 and 25 dB.  Each
    distinct argument (r/P)(1 + y) gets one ``GammaLadder``.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(ys < 0):
        raise ValueError("grid points must be nonnegative")
    t, wt = inner_rule()
    sigma = 1.0 / params.rp
    axes = [[-1 if i == ax else 1 for i in range(n)] for ax in range(1, n)]
    steps = [(sigma * t / (1.0 - t)).reshape(shape) for shape in axes]
    weights = [(sigma * wt / (1.0 - t) ** 2).reshape(shape) for shape in axes]

    def pieces(yb: np.ndarray):
        """y_n on the points' axis, then y_{n-1} .. y_1 on free axes 1 .. n-1."""
        yk = [yb.reshape(-1, *[1] * (n - 1))]
        for step in steps:
            yk.insert(0, yk[0] + step)
        yield yk, weights

    return marginal_grid(
        n, params.r, ys, pieces, lambda yk: _scheduled(yk, [_ladder(y, params) for y in yk], params)
    )


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
