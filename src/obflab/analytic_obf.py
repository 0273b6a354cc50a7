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
* phi_1, phi_2, phi_3 and I_3 have closed forms in upper incomplete
  gamma functions; higher orders fall back to nested quadrature.

Marginals and the average sum rate are obtained by integrating the joint
density numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    GammaLadder,
    QuadratureSpec,
    gauss_legendre_nodes,
    integrate_1d,
    integrate_nested,
    integrate_semi_infinite,
    map_chunks,
    upper_incomplete_gamma,
    upper_incomplete_gamma_array,
)

__all__ = [
    "ObfParams",
    "obf_x_to_v",
    "obf_v_to_x",
    "obf_unordered_pdf",
    "obf_phi",
    "obf_I2",
    "obf_I3",
    "obf_selection_cdf",
    "obf_joint_pdf_scheduled",
    "obf_marginal_pdf",
    "obf_marginal_pdf_grid",
    "obf_marginal_cdf",
    "obf_mean_sum_rate",
]

_DEFAULT_SPEC = QuadratureSpec()


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
        if self.P <= 0:
            raise ValueError("P must be positive")

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


def obf_phi(n: int, ys, params: ObfParams, spec: QuadratureSpec = _DEFAULT_SPEC) -> float:
    """phi_n evaluated at ys = (y_1, ..., y_n), y_1 >= ... >= y_n >= 0.

    phi_n integrates the unordered density over the candidacy region of
    step n with v_n pinned at y_n.  Orders 1-3 use the closed forms; n=4
    uses nested quadrature (three levels).
    """
    ys = _check_ordered(ys)
    if len(ys) != n or not 1 <= n <= params.r:
        raise ValueError("need len(ys) == n and 1 <= n <= r")
    M, rp = params.M, params.rp

    if n == 1:
        y1 = ys[0]
        return rp ** M * y1 ** (M - 1) / math.gamma(M) * math.exp(-y1 * rp)

    if n == 2:
        y1, y2 = ys
        num = upper_incomplete_gamma(M, rp * (1.0 + y2)) - upper_incomplete_gamma(M, rp * (1.0 + y1))
        return math.exp(rp) * y2 ** (M - 2) * num / (math.gamma(M - 1) * (1.0 + y2) ** M)

    if n == 3:
        y1, y2, y3 = ys
        g = upper_incomplete_gamma
        core = (
            g(M, rp * (1.0 + y3)) / (1.0 + y3)
            - g(M, rp * (1.0 + y2)) / (1.0 + y2)
            - (y2 - y3) / ((1.0 + y2) * (1.0 + y3)) * g(M, rp * (1.0 + y1))
            + rp * (g(M - 1, rp * (1.0 + y2)) - g(M - 1, rp * (1.0 + y3)))
        )
        pref = math.exp(rp) / math.gamma(M - 2) * y3 ** (M - 3) / (1.0 + y3) ** (M - 1)
        return pref * core

    if n > 4:
        raise NotImplementedError("quadrature fallback supports n <= 4")
    # n == 4: integrate the unordered density over
    #   v_3 in [y_4, y_3], v_2 in [v_3, y_2], v_1 in [v_2, y_1]
    y1, y2, y3, y4 = ys

    def joint(v3, v2, v1):
        return obf_unordered_pdf([v1, v2, v3, y4], params)

    return integrate_nested(
        joint, [(y4, y3), (lambda v3: v3, y2), (lambda v3, v2: v2, y1)], spec
    )


def obf_I2(y2: float, y1: float, params: ObfParams) -> float:
    """Closed form of int_0^{y2} phi_2(alpha, y1) d alpha.

    Expanding alpha^(M-2)/(1+alpha)^M binomially in u = 1 + alpha reduces
    the integral to incomplete gamma functions of integer order (both
    signs), mirroring the structure of the third-order result.
    """
    if not (y1 >= y2 >= 0):
        raise ValueError("need y1 >= y2 >= 0")
    M, rp = params.M, params.rp
    g = upper_incomplete_gamma
    u1, u2 = 1.0 + y1, 1.0 + y2
    gM_y1 = g(M, rp * u1)
    fact_M1 = math.gamma(M)  # (M-1)!
    inv_mfact = [1.0 / math.gamma(m + 1) for m in range(M)]
    terms = []
    for i in range(M - 1):
        c = math.comb(M - 2, i) * (-1) ** i
        a = fact_M1 * rp ** (i + 1) * math.fsum(
            inv_mfact[m] * (g(m - 1 - i, rp) - g(m - 1 - i, rp * u2))
            for m in range(M)
        )
        b = gM_y1 * (1.0 - u2 ** (-(i + 1))) / (i + 1)
        terms.append(c * (a - b))
    return math.exp(rp) / math.gamma(M - 1) * math.fsum(terms)


def obf_I3(y3: float, y2: float, y1: float, params: ObfParams) -> float:
    """Closed form of int_0^{y3} phi_3(alpha, y2, y1) d alpha."""
    if not (y1 >= y2 >= y3 >= 0):
        raise ValueError("need y1 >= y2 >= y3 >= 0")
    M, rp = params.M, params.rp
    g = upper_incomplete_gamma
    u3, u2, u1 = 1.0 + y3, 1.0 + y2, 1.0 + y1
    gM_y1 = g(M, rp * u1)
    gM_y2 = g(M, rp * u2)
    gM_y3 = g(M, rp * u3)
    gM1_y2 = g(M - 1, rp * u2)
    gM1_y3 = g(M - 1, rp * u3)
    gM_0 = g(M, rp)
    gM1_0 = g(M - 1, rp)
    terms = []
    for i in range(M - 2):
        c = math.comb(M - 3, i) * (-1) ** i
        a1 = (u3 ** (i + 1) - 1.0) / (u3 ** (i + 1) * (i + 1))
        a2 = (u3 ** (i + 2) - 1.0) / (u3 ** (i + 2) * (i + 2))
        block = a1 * (rp * gM1_y2 + (gM_y1 - gM_y2) / u2) - a2 * gM_y1
        block += (
            rp * gM1_y3 / (u3 ** (i + 1) * (i + 1))
            - gM_y3 / (u3 ** (i + 2) * (i + 2))
            - rp ** (i + 2) * g(M - i - 2, rp * u3) / ((i + 1) * (i + 2))
        )
        block -= rp * gM1_0 / (i + 1) - gM_0 / (i + 2) - rp ** (i + 2) * g(M - i - 2, rp) / (
            (i + 1) * (i + 2)
        )
        terms.append(c * block)
    return math.exp(rp) / math.gamma(M - 2) * math.fsum(terms)


def obf_selection_cdf(
    n: int, ys, params: ObfParams, spec: QuadratureSpec = _DEFAULT_SPEC
) -> float:
    """I_n(ys) = int_0^{y_n} phi_n(alpha, y_{n-1}, ..., y_1) d alpha.

    This is the joint CDF of one unscheduled user's candidacy SINRs
    evaluated at the scheduled values; it enters the joint density with
    exponent K-n.  n=1 and n=3 are closed form, the rest quadrature.
    """
    ys = _check_ordered(ys)
    if len(ys) != n:
        raise ValueError("len(ys) must equal n")
    M, rp = params.M, params.rp
    if n == 1:
        return 1.0 - upper_incomplete_gamma(M, rp * ys[0]) / math.gamma(M)
    if n == 2:
        return obf_I2(ys[1], ys[0], params)
    if n == 3:
        return obf_I3(ys[2], ys[1], ys[0], params)
    head = list(ys[:-1])
    return integrate_1d(
        lambda a: obf_phi(n, head + [a], params, spec), 0.0, ys[-1], spec
    )


def obf_joint_pdf_scheduled(
    ys, params: ObfParams, spec: QuadratureSpec = _DEFAULT_SPEC
) -> float:
    """Joint density of the first n scheduled users' SINRs at ys = (y_1..y_n)."""
    ys = np.asarray(ys, dtype=float)
    n = ys.size
    if not 1 <= n <= params.r:
        raise ValueError("need 1 <= n <= r")
    if ys[-1] < 0 or np.any(np.diff(ys) > 0):
        return 0.0
    K = params.K
    cdf = obf_selection_cdf(n, ys, params, spec)
    val = math.perm(K, n) * cdf ** (K - n)
    for i in range(1, n + 1):
        val *= obf_phi(i, ys[:i], params, spec)
    return float(val)


def obf_marginal_pdf(
    n: int, y: float, params: ObfParams, spec: QuadratureSpec = _DEFAULT_SPEC
) -> float:
    """Marginal density of the n-th scheduled user's SINR."""
    if y < 0:
        return 0.0
    if not 1 <= n <= params.r:
        raise ValueError("need 1 <= n <= r")
    if n == 1:
        return params.K * obf_selection_cdf(1, [y], params) ** (params.K - 1) * obf_phi(
            1, [y], params
        )
    if n == 2:
        return integrate_semi_infinite(
            lambda y1: obf_joint_pdf_scheduled([y1, y], params, spec.tightened()), y, spec
        )
    if n == 3:
        def inner(y2):
            return integrate_semi_infinite(
                lambda y1: obf_joint_pdf_scheduled([y1, y2, y], params, spec.tightened(2)),
                y2,
                spec.tightened(),
            )

        return integrate_semi_infinite(inner, y, spec)
    raise NotImplementedError("marginals implemented for n <= 3")


def _phi1_vec(y1: np.ndarray, params: ObfParams) -> np.ndarray:
    M, rp = params.M, params.rp
    return rp ** M * y1 ** (M - 1) / math.gamma(M) * np.exp(-y1 * rp)


def _ladder(y: np.ndarray, params: ObfParams, lowest: int = 1) -> GammaLadder:
    """Gamma(s, (r/P)(1 + y)) for s >= lowest."""
    return GammaLadder(params.rp * (1.0 + y), lowest)


# The closed forms below take ladders g1, g2, g3 at (r/P)(1 + y_k), so a
# grid builds each distinct argument tensor once and shares it across
# every order and form.


def _phi2_vec(y2, g1: GammaLadder, g2: GammaLadder, params: ObfParams) -> np.ndarray:
    M, rp = params.M, params.rp
    num = g2(M) - g1(M)
    return math.exp(rp) * y2 ** (M - 2) * num / (math.gamma(M - 1) * (1.0 + y2) ** M)


def _phi3_vec(y2, y3, g1: GammaLadder, g2: GammaLadder, g3: GammaLadder,
              params: ObfParams) -> np.ndarray:
    M, rp = params.M, params.rp
    u2, u3 = 1.0 + y2, 1.0 + np.asarray(y3, dtype=float)
    core = (
        g3(M) / u3
        - g2(M) / u2
        - (u2 - u3) / (u2 * u3) * g1(M)
        + rp * (g2(M - 1) - g3(M - 1))
    )
    pref = math.exp(rp) / math.gamma(M - 2) * (u3 - 1.0) ** (M - 3) / u3 ** (M - 1)
    return pref * core


def _I2_vec(y2, g1: GammaLadder, g2: GammaLadder, params: ObfParams) -> np.ndarray:
    """obf_I2(y2, y1); g2 needs orders >= 1 - M."""
    M, rp = params.M, params.rp
    u2 = 1.0 + np.asarray(y2, dtype=float)
    gM_y1 = g1(M)
    fact_M1 = math.gamma(M)
    inv_mfact = [1.0 / math.gamma(m + 1) for m in range(M)]
    const = [upper_incomplete_gamma(m - 1 - i, rp) for m in range(M) for i in range(M - 1)]
    total = 0.0
    for i in range(M - 1):
        c = math.comb(M - 2, i) * (-1) ** i
        a = sum(
            inv_mfact[m] * (const[m * (M - 1) + i] - g2(m - 1 - i))
            for m in range(M)
        )
        a = fact_M1 * rp ** (i + 1) * a
        b = gM_y1 * (1.0 - u2 ** (-(i + 1))) / (i + 1)
        total = total + c * (a - b)
    return math.exp(rp) / math.gamma(M - 1) * total


def _I3_vec(y3, y2, g1: GammaLadder, g2: GammaLadder, g3: GammaLadder,
            params: ObfParams) -> np.ndarray:
    M, rp = params.M, params.rp
    gs = upper_incomplete_gamma
    u3 = 1.0 + np.asarray(y3, dtype=float)
    u2 = 1.0 + y2
    gM_y1 = g1(M)
    gM_y2 = g2(M)
    gM_y3 = g3(M)
    gM1_y2 = g2(M - 1)
    gM1_y3 = g3(M - 1)
    gM_0 = gs(M, rp)
    gM1_0 = gs(M - 1, rp)
    total = 0.0
    for i in range(M - 2):
        c = math.comb(M - 3, i) * (-1) ** i
        p1 = u3 ** (i + 1)
        p2 = u3 ** (i + 2)
        a1 = (p1 - 1.0) / (p1 * (i + 1))
        a2 = (p2 - 1.0) / (p2 * (i + 2))
        block = a1 * (rp * gM1_y2 + (gM_y1 - gM_y2) / u2) - a2 * gM_y1
        block = block + (
            rp * gM1_y3 / (p1 * (i + 1))
            - gM_y3 / (p2 * (i + 2))
            - rp ** (i + 2) * g3(M - i - 2) / ((i + 1) * (i + 2))
        )
        block = block - (
            rp * gM1_0 / (i + 1)
            - gM_0 / (i + 2)
            - rp ** (i + 2) * gs(M - i - 2, rp) / ((i + 1) * (i + 2))
        )
        total = total + c * block
    return math.exp(rp) / math.gamma(M - 2) * total


def obf_marginal_pdf_grid(
    n: int, ys, params: ObfParams, nodes: int = 96
) -> np.ndarray:
    """Marginal density of the n-th scheduled SINR on a whole grid at once.

    Fixed-order Gauss-Legendre quadrature on the rational map
    t -> y + t/(1-t) replaces adaptive subdivision and agrees with
    ``obf_marginal_pdf`` to well below the grid resolution.  Each distinct
    argument (r/P)(1 + y) gets one ``GammaLadder``; rank 3 evaluates
    (points, nodes, nodes) tensors in blocks of ``GRID_CHUNK`` grid points.
    Rank 3 takes 0.5-0.8 s for 800 points at M = 3 on one core of a
    2-core x86-64 machine.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(ys < 0):
        raise ValueError("grid points must be nonnegative")
    M, K = params.M, params.K
    if n == 1:
        F1 = 1.0 - upper_incomplete_gamma_array(M, params.rp * np.maximum(ys, 1e-300)) / math.gamma(M)
        return K * F1 ** (K - 1) * _phi1_vec(ys, params)
    t, wt = gauss_legendre_nodes(nodes, 0.0, 1.0)
    if n == 2:
        y2 = ys[:, None]
        y1 = y2 + t[None, :] / (1.0 - t[None, :])
        jac = wt[None, :] / (1.0 - t[None, :]) ** 2
        g1, g2 = _ladder(y1, params), _ladder(y2, params, 1 - M)
        f = (
            math.perm(K, 2)
            * _I2_vec(y2, g1, g2, params) ** (K - 2)
            * _phi1_vec(y1, params)
            * _phi2_vec(y2, g1, g2, params)
        )
        return np.sum(f * jac, axis=1)
    if n != 3:
        raise NotImplementedError("grid marginals implemented for n <= 3")
    tu = t[None, :, None]
    tw = t[None, None, :]
    jac = (wt[None, :, None] / (1.0 - tu) ** 2) * (wt[None, None, :] / (1.0 - tw) ** 2)

    def block(yb: np.ndarray) -> np.ndarray:
        y3 = yb[:, None, None]
        y2 = y3 + tu / (1.0 - tu)
        y1 = y2 + tw / (1.0 - tw)
        g1, g2, g3 = _ladder(y1, params), _ladder(y2, params), _ladder(y3, params)
        f = (
            math.perm(K, 3)
            * _I3_vec(y3, y2, g1, g2, g3, params) ** (K - 3)
            * _phi1_vec(y1, params)
            * _phi2_vec(y2, g1, g2, params)
            * _phi3_vec(y2, y3, g1, g2, g3, params)
        )
        return np.sum(f * jac, axis=(1, 2))

    return map_chunks(block, ys)


def obf_marginal_cdf(
    n: int, y: float, params: ObfParams, spec: QuadratureSpec = _DEFAULT_SPEC
) -> float:
    """Marginal CDF of the n-th scheduled user's SINR."""
    if y <= 0:
        return 0.0
    if n == 1:
        return obf_selection_cdf(1, [y], params) ** params.K
    return integrate_1d(lambda t: obf_marginal_pdf(n, t, params, spec), 0.0, y, spec)


def obf_mean_sum_rate(params: ObfParams, nodes: int = 96) -> float:
    """Average sum rate sum_n E[ln(1 + y_n)] in nats.

    Each marginal expectation is taken with fixed-order Gauss-Legendre
    quadrature on the map t -> t/(1-t), reusing the vectorised grid
    evaluator for the marginal densities.
    """
    t, wt = gauss_legendre_nodes(nodes, 0.0, 1.0)
    # scale the rational map to the magnitude of the top SINR (~ M/(r/P))
    # so high-SNR and small-r cases keep their nodes where the mass is
    scale = max(1.0, params.M / params.rp)
    y = scale * t / (1.0 - t)
    jac = scale * wt / (1.0 - t) ** 2
    weight = np.log1p(y) * jac
    total = 0.0
    for n in range(1, params.r + 1):
        total += float(np.dot(weight, obf_marginal_pdf_grid(n, y, params, nodes)))
    return total
