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

F_n is piecewise.  On the "head" branch t_1 >= t_2 + ... + t_n it is an
integral over z_1 of a closed-form cross-section; on the complementary
branch it expands by inclusion-exclusion into head-branch CDFs of lower
order.  Orders n <= 3 are fully closed form (F_1 is a regularised lower
incomplete gamma); the generic recursion (``olbf_cdf_z`` with
method="recursive") covers any n and doubles as an independent
cross-check of the closed forms.

Each closed form (xi_2, eta, F_1, F_2 and the head branch of F_3) has one
body.  It reads Gamma(s, x) only through a callable it is passed, so the
grid evaluators feed it ``GammaLadder``s over whole argument tensors and
the scalar API (``olbf_xi``, ``olbf_eta``, ``olbf_cdf_z``) feeds it one
point at a time.

Actual SINRs are recovered through y = t/(1-t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np
from scipy import special

from .grids import DistributionGrid
from .numerics import (
    GammaLadder,
    QuadratureSpec,
    gauss_legendre_nodes,
    integrate_1d,
    integrate_nested,
    map_chunks,
    upper_incomplete_gamma,
)

__all__ = [
    "OlbfParams",
    "olbf_x_to_v",
    "olbf_v_to_x",
    "v_to_z",
    "z_to_v",
    "olbf_unordered_pdf_z",
    "olbf_xi",
    "olbf_eta",
    "olbf_cdf_z",
    "olbf_survival_z",
    "olbf_joint_pdf_t",
    "olbf_joint_pdf_sinr",
    "olbf_marginal_pdf_t",
    "olbf_marginal_pdf_t_grid",
    "olbf_marginal_pdf_sinr_grid",
    "olbf_sinr_grid",
    "olbf_mean_sum_rate",
]

_DEFAULT_SPEC = QuadratureSpec()

# Gauss-Legendre nodes per free variable of the grid marginals.
_INNER_NODES = 96

# Tolerance for clamping tiny negative CDF values produced by
# cancellation in the inclusion-exclusion sums.
_CDF_CLAMP = 1e-9


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
        if self.P <= 0:
            raise ValueError("P must be positive")

    @property
    def r(self) -> int:
        """Beams served: OLBF always uses all M."""
        return self.M

    @property
    def mp(self) -> float:
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
    vs[0] = total / params.mp
    vs[1:] = xs[1:] / (total - xs[1:] + params.mp)
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
    mp = params.mp
    scale = mp * (1.0 + vs[0])
    xs = np.empty(params.M)
    xs[1:] = scale * vs[1:] / (1.0 + vs[1:])
    xs[0] = mp * vs[0] - xs[1:].sum()
    det = mp ** params.M * (1.0 + vs[0]) ** (params.M - 1) / np.prod((1.0 + vs[1:]) ** 2)
    return xs, float(det)


def v_to_z(v):
    """Monotone compression v -> v/(1+v) mapping [0, inf) onto [0, 1)."""
    v = np.asarray(v, dtype=float)
    return v / (1.0 + v)


def z_to_v(z):
    """Inverse of ``v_to_z``."""
    z = np.asarray(z, dtype=float)
    return z / (1.0 - z)


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
    M, mp = params.M, params.mp
    val = math.exp(-mp * zs[0] / (1.0 - zs[0])) * mp ** M / (1.0 - zs[0]) ** (M + 1)
    return float(val * slack ** (M - n) / math.gamma(M - n + 1))


def _z1_pdf(t1: float, params: OlbfParams) -> float:
    """Marginal density of z_1 (scaled total channel power)."""
    M, mp = params.M, params.mp
    if not 0.0 <= t1 < 1.0:
        return 0.0
    return (
        math.exp(-mp * t1 / (1.0 - t1))
        * mp ** M
        / (1.0 - t1) ** (M + 1)
        * t1 ** (M - 1)
        / math.gamma(M)
    )


def _gamma_ratio_arg(om: np.ndarray, params: OlbfParams) -> np.ndarray:
    """mp / (1 - t) with the singular endpoint mapped to a huge argument, where Gamma = 0."""
    return params.mp / np.maximum(om, 1e-300)


def _ladder(om: np.ndarray, params: OlbfParams, lowest: int = 1) -> GammaLadder:
    """Gamma(s, mp/(1 - t)) for s >= lowest, given om = 1 - t."""
    return GammaLadder(_gamma_ratio_arg(om, params), lowest)


def _point(om: float, params: OlbfParams) -> Callable[[int], float]:
    """Gamma(s, mp/(1 - t)) for any integer s at a single t, given om = 1 - t."""
    x = float(_gamma_ratio_arg(om, params))
    return lambda s: upper_incomplete_gamma(s, x)


# Each closed form below has one body, shared by the grids and the scalar
# API.  It reads its incomplete gammas only through callables s -> Gamma(s, x):
# g1 at mp/(1 - t1), g2 at mp/(1 - t2), g3 at mp/(1 - t3), gx3 at
# mp/(1 - x - t3) and g23 at mp/(1 - t2 - t3).  A grid passes ``_ladder``s,
# so it builds each distinct argument tensor once and shares it across
# every order and form; the scalar API passes ``_point``s over the cached
# scalar routine.


def _F_z1(t1, params: OlbfParams):
    """Pr(z_1 <= t_1) = P(M, mp t_1/(1 - t_1)), the regularised lower incomplete gamma.

    t_1 = 1 gives 1.
    """
    t1 = np.asarray(t1, dtype=float)
    with np.errstate(divide="ignore"):
        return special.gammainc(params.M, params.mp * t1 / (1.0 - t1))


def _xi2(t2, g1, g2, params: OlbfParams) -> np.ndarray:
    M, mp = params.M, params.mp
    total = 0.0
    for i in range(M - 1):
        total = total + (
            math.comb(M - 2, i)
            * (-1) ** i
            * mp ** i
            * (1.0 - t2) ** (M - 2 - i)
            * (g2(M - i) - g1(M - i))
        )
    return math.exp(mp) / math.gamma(M - 1) * total


def _eta(oxt3, t3, g1, g3, gx3, params: OlbfParams) -> np.ndarray:
    """olbf_eta(x, t1, t3) given oxt3 = 1 - x - t3; g3, gx3 need orders >= 2 - M."""
    M, mp = params.M, params.mp
    total = 0.0
    for i in range(M - 2):
        c = math.comb(M - 3, i) * (-1) ** i * mp ** i
        a = -g1(M - i) * (
            (1.0 - t3) ** (M - i - 2) - np.maximum(oxt3, 0.0) ** (M - i - 2)
        ) / (M - i - 2)
        inner = 0.0
        for j in range(M - i):
            inner = inner + (g3(i + j + 2 - M) - gx3(i + j + 2 - M)) / math.gamma(j + 1)
        total = total + c * (a + math.gamma(M - i) * mp ** (M - i - 2) * inner)
    return math.exp(mp) / math.gamma(M - 2) * total


def _F_z2(t2, g1, g2, params: OlbfParams) -> np.ndarray:
    """z-CDF at order 2 at (t1, t2); g2 needs orders >= 1 - M."""
    M, mp = params.M, params.mp
    gs = upper_incomplete_gamma
    total = 0.0
    for i in range(M - 1):
        c = math.comb(M - 2, i) * (-1) ** i * mp ** i
        a = -g1(M - i) * (1.0 - (1.0 - t2) ** (M - i - 1)) / (M - i - 1)
        inner = 0.0
        for j in range(M - i):
            inner = inner + (gs(i + j + 1 - M, mp) - g2(i + j + 1 - M)) / math.gamma(j + 1)
        total = total + c * (a + math.gamma(M - i) * mp ** (M - i - 1) * inner)
    return math.exp(mp) / math.gamma(M - 1) * total


def _F_z3_head(t2, t3, o23, g1, g2, g3, g23, params: OlbfParams) -> np.ndarray:
    """z-CDF at order 3 on the branch t1 >= t2 + t3, given o23 = 1 - t2 - t3."""
    M, mp = params.M, params.mp
    gs = upper_incomplete_gamma
    total = 0.0
    for i in range(M):
        c = math.comb(M - 1, i) * (-1) ** i * mp ** i
        p2 = (1.0 - t2) ** (M - i - 1)
        p3 = (1.0 - t3) ** (M - i - 1)
        p23 = np.maximum(o23, 0.0) ** (M - i - 1)
        block = (
            gs(M - i, mp)
            - p2 * g2(M - i)
            - p3 * g3(M - i)
            + p23 * g23(M - i)
            - (1.0 - p2 - p3 + p23) * g1(M - i)
        )
        total = total + c * block
    return math.exp(mp) / math.gamma(M) * total


def olbf_eta(x: float, t1: float, t3: float, params: OlbfParams) -> float:
    """Closed form of int_0^x int_{z2+t3}^{t1} f(z1, z2, z3=t3) dz1 dz2.

    Requires M >= 3 and x + t3 <= t1 <= 1.
    """
    if params.M < 3:
        raise ValueError("third-order candidacy needs M >= 3")
    if x < 0 or x + t3 > t1 + 1e-12:
        raise ValueError("need 0 <= x and x + t3 <= t1")
    oxt3 = 1.0 - x - t3
    g1, g3, gx3 = (_point(om, params) for om in (1.0 - t1, 1.0 - t3, oxt3))
    return float(_eta(oxt3, t3, g1, g3, gx3, params))


def olbf_xi(k: int, ts, params: OlbfParams, spec: QuadratureSpec = _DEFAULT_SPEC) -> float:
    """xi_k evaluated at ts = (t_1, ..., t_k) with 0 <= t_i <= t_1 <= 1.

    xi_k integrates the unordered z-density over the candidacy region of
    step k with z_k pinned at t_k.  Orders 1-3 are closed form; k >= 4
    uses nested quadrature over z_2..z_{k-1}.
    """
    ts = np.asarray(ts, dtype=float)
    if len(ts) != k or not 1 <= k <= params.M:
        raise ValueError("need len(ts) == k and 1 <= k <= M")
    if np.any(ts < 0) or np.any(ts[1:] > ts[0]) or ts[0] > 1.0:
        raise ValueError("need 0 <= t_i <= t_1 <= 1")

    if k == 1:
        return _z1_pdf(ts[0], params)

    if k == 2:
        t1, t2 = ts
        return float(_xi2(t2, _point(1.0 - t1, params), _point(1.0 - t2, params), params))

    if k == 3:
        t1, t2, t3 = ts
        x = t2 if t1 >= t2 + t3 else t1 - t3
        return olbf_eta(x, t1, t3, params)

    # k >= 4: integrate the unordered density over
    #   z_j in [0, t_j] for j = 2..k-1, z_1 in [z_2+...+z_{k-1}+t_k, t_1]
    tk = float(ts[-1])
    if k == 4:
        t1, t2, t3 = float(ts[0]), float(ts[1]), float(ts[2])

        def f(z2, z3, z1):
            return olbf_unordered_pdf_z([z1, z2, z3, tk], params)

        return integrate_nested(
            f,
            [(0.0, t2), (0.0, t3), (lambda z2, z3: z2 + z3 + tk, t1)],
            spec,
        )
    raise NotImplementedError("candidacy integrals implemented for k <= 4")


def _cross_section(z1: float, tails, params: OlbfParams) -> float:
    """int_0^{t_n}..int_0^{t_2} f(z_1, z_2, .., z_n) dz_2..dz_n for z_1 >= sum(tails).

    Inclusion-exclusion collapses the box integral to an alternating sum
    over subsets of the upper limits.
    """
    M = params.M
    acc = 0.0
    for size in range(len(tails) + 1):
        for S in combinations(tails, size):
            rem = z1 - math.fsum(S)
            acc += (-1) ** size * rem ** (M - 1)
    return (
        math.exp(-params.mp * z1 / (1.0 - z1))
        * params.mp ** M
        / (1.0 - z1) ** (M + 1)
        * acc
        / math.gamma(M)
    )


def _W(z1: float, tails, params: OlbfParams) -> float:
    """Pr-density of z_1 jointly with z_i <= t_i for the given tails."""
    if not tails:
        return _z1_pdf(z1, params)
    if z1 >= math.fsum(tails):
        return _cross_section(z1, tails, params)
    acc = 0.0
    n = len(tails)
    for size in range(n):  # proper subsets only
        for S in combinations(tails, size):
            acc += (-1) ** size * _W_bar(z1, S, params)
    return acc


def _W_bar(z1: float, tails, params: OlbfParams) -> float:
    """Pr-density of z_1 jointly with z_i > t_i for the given tails."""
    if z1 < math.fsum(tails):
        return 0.0
    acc = 0.0
    for size in range(len(tails) + 1):
        for S in combinations(tails, size):
            acc += (-1) ** size * _W(z1, S, params)
    return acc


def _cdf_head_recursive(
    t1: float, tails, params: OlbfParams, spec: QuadratureSpec
) -> float:
    """Head-branch z-CDF by integrating the cross-section density over z_1.

    The integrand is piecewise smooth with breakpoints at the partial
    sums of every subset of the tails; each segment is integrated
    separately.
    """
    cuts = {0.0, t1}
    for size in range(1, len(tails) + 1):
        for S in combinations(tails, size):
            s = math.fsum(S)
            if 0.0 < s < t1:
                cuts.add(s)
    knots = sorted(cuts)
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        total += integrate_1d(lambda z1: _W(z1, tails, params), a, b, spec)
    return total


def olbf_cdf_z(
    ts,
    params: OlbfParams,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    method: str = "closed",
) -> float:
    """Joint CDF of (z_1, ..., z_n) at ts = (t_1, ..., t_n).

    ``method="closed"`` uses the closed forms for n <= 3 (and for the
    complementary branch at any n, which expands into them);
    ``method="recursive"`` forces the generic cross-section integration,
    which is slower but covers the head branch at any order and serves
    as an independent check of the closed forms.
    """
    ts = np.asarray(ts, dtype=float)
    n = ts.size
    if not 1 <= n <= params.M:
        raise ValueError("need 1 <= n <= M")
    if np.any(ts < 0) or np.any(ts[1:] > ts[0] + 1e-15) or ts[0] > 1.0:
        raise ValueError("need 0 <= t_i <= t_1 <= 1")
    if method not in ("closed", "recursive"):
        raise ValueError("method must be 'closed' or 'recursive'")
    t1 = float(ts[0])
    tails = [float(t) for t in ts[1:]]

    if n == 1:
        return float(_F_z1(t1, params))
    if n == 2:
        # z_2 <= z_1 always holds, so the CDF has a single analytic piece
        if method == "recursive":
            return _cdf_head_recursive(t1, tails, params, spec)
        t2 = tails[0]
        return float(_F_z2(t2, _point(1.0 - t1, params), _point(1.0 - t2, params), params))

    if t1 >= math.fsum(tails):
        if method == "closed" and n == 3:
            t2, t3 = tails
            o23 = 1.0 - t2 - t3
            g1, g2, g3, g23 = (_point(om, params) for om in (1.0 - t1, 1.0 - t2, 1.0 - t3, o23))
            return float(_F_z3_head(t2, t3, o23, g1, g2, g3, g23, params))
        return _cdf_head_recursive(t1, tails, params, spec)
    # complementary branch: expand over proper subsets of the tails
    acc = 0.0
    for size in range(n - 1):
        for S in combinations(tails, size):
            acc += (-1) ** size * olbf_survival_z(
                [t1] + list(S), params, spec, method
            )
    return acc


def olbf_survival_z(
    ts,
    params: OlbfParams,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    method: str = "closed",
) -> float:
    """Pr(z_1 <= t_1, z_2 > t_2, ..., z_n > t_n) at ts = (t_1, ..., t_n)."""
    ts = np.asarray(ts, dtype=float)
    t1 = float(ts[0])
    tails = [float(t) for t in ts[1:]]
    if not tails:
        return olbf_cdf_z([t1], params, spec, method)
    if t1 < math.fsum(tails):
        return 0.0
    acc = 0.0
    for size in range(len(tails) + 1):
        for S in combinations(tails, size):
            acc += (-1) ** size * olbf_cdf_z([t1] + list(S), params, spec, method)
    return acc


def olbf_joint_pdf_t(
    ts,
    params: OlbfParams,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    method: str = "closed",
) -> float:
    """Joint density of the first n scheduled transformed SINRs at ts."""
    ts = np.asarray(ts, dtype=float)
    n = ts.size
    if not 1 <= n <= params.M:
        raise ValueError("need 1 <= n <= M")
    if np.any(ts < 0) or np.any(ts[1:] > ts[0]) or ts[0] > 1.0:
        return 0.0
    K = params.K
    cdf = olbf_cdf_z(ts, params, spec, method)
    if cdf < 0.0:
        if cdf < -_CDF_CLAMP:
            raise ArithmeticError(f"z-CDF evaluated to {cdf}, beyond roundoff")
        cdf = 0.0
    val = math.perm(K, n) * cdf ** (K - n)
    for k in range(1, n + 1):
        val *= olbf_xi(k, ts[:k], params, spec)
    return float(val)


def olbf_joint_pdf_sinr(
    ys,
    params: OlbfParams,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    method: str = "closed",
) -> float:
    """Joint density of the first n scheduled SINRs at ys (actual scale)."""
    ys = np.asarray(ys, dtype=float)
    if np.any(ys < 0) or np.any(ys[1:] > ys[0]):
        return 0.0
    ts = v_to_z(ys)
    jac = float(np.prod((1.0 + ys) ** 2))
    return olbf_joint_pdf_t(ts, params, spec, method) / jac


def olbf_marginal_pdf_t(
    n: int,
    s: float,
    params: OlbfParams,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> float:
    """Marginal density of the n-th scheduled transformed SINR (reference path).

    Adaptive quadrature over the free variables; the t_2 integral at
    order 3 is split at the branch point t_2 = t_1 - s.
    """
    if not 0.0 <= s <= 1.0:
        return 0.0
    if not 1 <= n <= params.M:
        raise ValueError("need 1 <= n <= M")
    if n == 1:
        return params.K * olbf_cdf_z([s], params, spec) ** (params.K - 1) * _z1_pdf(
            s, params
        )
    if n == 2:
        return integrate_1d(
            lambda t1: olbf_joint_pdf_t([t1, s], params, spec), s, 1.0, spec
        )
    if n == 3:
        def inner(t1):
            split = t1 - s
            inner_spec = spec.tightened()
            head = integrate_1d(
                lambda t2: olbf_joint_pdf_t([t1, t2, s], params, inner_spec),
                0.0,
                split,
                inner_spec,
            )
            tail = integrate_1d(
                lambda t2: olbf_joint_pdf_t([t1, t2, s], params, inner_spec),
                split,
                t1,
                inner_spec,
            )
            return head + tail

        return integrate_1d(inner, s, 1.0, spec)
    raise NotImplementedError("marginals implemented for n <= 3")


# ---------------------------------------------------------------------------
# Vectorised grid evaluation
# ---------------------------------------------------------------------------


def _z1_pdf_vec(t1: np.ndarray, params: OlbfParams) -> np.ndarray:
    """``_z1_pdf`` on arrays; 1 - t_1 is taken as inf at t_1 = 1, giving the limit 0."""
    M, mp = params.M, params.mp
    om = np.where(t1 < 1.0, 1.0 - t1, np.inf)
    return np.exp(-mp * t1 / om) * mp ** M / om ** (M + 1) * t1 ** (M - 1) / math.gamma(M)


def _head_segment(s, t1, g1, gs, base, w, ww, params: OlbfParams) -> np.ndarray:
    """t_2-integral over [0, t_1 - s], the branch t_1 >= t_2 + s."""
    M, K = params.M, params.K
    t2 = (t1 - s) * w
    o23 = 1.0 - t2 - s
    g2 = _ladder(1.0 - t2, params)
    g23 = _ladder(o23, params, 2 - M)
    F = np.clip(_F_z3_head(t2, s, o23, g1, g2, gs, g23, params), 0.0, None)
    f = F ** (K - 3) * base * _xi2(t2, g1, g2, params) * _eta(
        o23, s, g1, gs, g23, params
    )
    return np.sum(f * (t1 - s) * ww, axis=2, keepdims=True)


def _split_segment(s, t1, g1, gs, base, w, ww, params: OlbfParams) -> np.ndarray:
    """t_2-integral over [t_1 - s, t_1], the branch t_1 < t_2 + s."""
    M, K = params.M, params.K
    t2 = (t1 - s) + s * w
    g2 = _ladder(1.0 - t2, params, 1 - M)
    F = np.clip(
        _F_z2(t2, g1, g2, params) + _F_z2(s, g1, gs, params) - _F_z1(t1, params),
        0.0,
        None,
    )
    # eta at x = t_1 - s, where 1 - x - s = 1 - t_1
    f = F ** (K - 3) * base * _xi2(t2, g1, g2, params) * _eta(
        1.0 - t1, s, g1, gs, g1, params
    )
    return np.sum(f * s * ww, axis=2, keepdims=True)


def olbf_marginal_pdf_t_grid(n: int, ss, params: OlbfParams) -> np.ndarray:
    """Marginal density of the n-th scheduled transformed SINR on a grid.

    Fixed-order Gauss-Legendre quadrature (``_INNER_NODES`` per free
    variable) with the t_2 integral split at the branch point, evaluating
    the closed forms vectorised over grid x node tensors.  Each distinct
    argument mp/(1 - t) gets one ``GammaLadder``; rank 3 is built in blocks
    of ``GRID_CHUNK`` grid points to bound the (points, nodes, nodes) tensors.
    """
    ss = np.atleast_1d(np.asarray(ss, dtype=float))
    if np.any((ss < 0) | (ss > 1)):
        raise ValueError("grid points must lie in [0, 1]")
    M, K = params.M, params.K
    if n == 1:
        F = _F_z1(ss, params)
        return K * F ** (K - 1) * _z1_pdf_vec(ss, params)
    u, wu = gauss_legendre_nodes(_INNER_NODES, 0.0, 1.0)
    if n == 2:
        s = ss[:, None]
        t1 = s + (1.0 - s) * u[None, :]
        jac = (1.0 - s) * wu[None, :]
        g1 = _ladder(1.0 - t1, params)
        gs = _ladder(1.0 - s, params, 1 - M)
        F = np.clip(_F_z2(s, g1, gs, params), 0.0, None)
        f = (
            math.perm(K, 2)
            * F ** (K - 2)
            * _z1_pdf_vec(t1, params)
            * _xi2(s, g1, gs, params)
        )
        return np.sum(f * jac, axis=1)
    if n != 3:
        raise NotImplementedError("grid marginals implemented for n <= 3")
    w = u[None, None, :]
    ww = wu[None, None, :]

    def block(sb: np.ndarray) -> np.ndarray:
        s = sb[:, None, None]
        t1 = s + (1.0 - s) * u[None, :, None]
        jac1 = (1.0 - s) * wu[None, :, None]
        g1 = _ladder(1.0 - t1, params, 2 - M)
        gs = _ladder(1.0 - s, params, 1 - M)
        base = _z1_pdf_vec(t1, params)
        seg = _head_segment(s, t1, g1, gs, base, w, ww, params)
        seg = seg + _split_segment(s, t1, g1, gs, base, w, ww, params)
        return math.perm(K, 3) * np.sum(seg * jac1, axis=1)[:, 0]

    return map_chunks(block, ss)


def olbf_marginal_pdf_sinr_grid(n: int, ys, params: OlbfParams) -> np.ndarray:
    """Marginal density of the n-th scheduled SINR (actual scale) on a grid."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(ys < 0):
        raise ValueError("grid points must be nonnegative")
    ts = ys / (1.0 + ys)
    return olbf_marginal_pdf_t_grid(n, ts, params) / (1.0 + ys) ** 2


@lru_cache(maxsize=32)
def olbf_sinr_grid(n: int, params: OlbfParams) -> DistributionGrid:
    """Distribution of the n-th scheduled SINR, tabulated once per (n, params); u is t itself."""
    return DistributionGrid.tabulate(lambda t: olbf_marginal_pdf_t_grid(n, t, params))


def olbf_mean_sum_rate(params: OlbfParams) -> float:
    """Average sum rate sum_n E[ln(1 + y_n)] in nats, read off each rank's ``olbf_sinr_grid``."""
    if params.M > 3:
        raise NotImplementedError("mean sum rate implemented for M <= 3")
    return sum(olbf_sinr_grid(n, params).mean_log1p() for n in range(1, params.M + 1))
