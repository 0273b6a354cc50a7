"""Reference oracles the tests check the package against.

Adaptive quadrature (``scipy.integrate.quad``) of the package's joint
densities gives reference marginals for the grid integrator of both
schemes, and the recursive OLBF z-CDF integrates the cross-section
density over z_1, an independent check of the closed-form subset sums.
None of them reads a closed form it checks: the recursive CDF is built
from the unordered z-density alone.

The scalar ``upper_incomplete_gamma`` is a reference the tests check
``numerics.lower_gamma_ladder`` (as 1 - Gamma(s, x)/(s-1)!) and the rank-1
CDFs against.  It also serves the non-positive orders, from
``scipy.special.exp1`` and ``expn``, which criterion 9 checks by
quadrature and recurrence; the package has no upper gamma at all.

Every adaptive integral runs at rel ``RTOL``, abs ``ATOL`` with ``LIMIT``
subdivisions, and the inner integral of a nested one a decade tighter
(``INNER_RTOL``, ``INNER_ATOL``).  A tolerance not met raises
``QuadratureError``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Callable

from scipy import integrate, special

from obflab.analytic_obf import ObfParams, obf_joint_pdf_scheduled, obf_phi, obf_selection_cdf
from obflab.analytic_olbf import OlbfParams, olbf_cdf_z, olbf_joint_pdf_t
from obflab.numerics import QuadratureError

RTOL, ATOL, LIMIT = 1e-8, 1e-12, 2000
INNER_RTOL, INNER_ATOL = 1e-9, 1e-13

# Non-positive orders of the scalar routine descend from E1 at or below
# this argument and use x^s E_{1-s}(x) above it.  Against a quadrature
# oracle over s in -5..0, x in [1e-3, 600] the worst relative error of the
# descent was 3e-13 with the switch at 0.5, 2e-14 at 1 and 2e-15 at 2.5 or 3.
_LADDER_SPLIT = 2.5


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


def integrate_1d(f: Callable[[float], float], a: float, b: float,
                 rtol: float = RTOL, atol: float = ATOL) -> float:
    """Adaptive quadrature of f over the finite interval [a, b]."""
    if a > b:
        raise ValueError("integrate_1d requires a <= b")
    if a == b:
        return 0.0
    out = integrate.quad(f, a, b, epsabs=atol, epsrel=rtol, limit=LIMIT, full_output=1)
    value, err = out[0], out[1]
    if len(out) > 3:  # warning slot populated -> tolerance not met
        raise QuadratureError("integrate_1d did not converge", value, err)
    return value


def integrate_semi_infinite(f: Callable[[float], float], a: float = 0.0,
                            rtol: float = RTOL, atol: float = ATOL) -> float:
    """Integrate f over [a, inf) via the substitution y = a + u/(1-u).

    The substitution maps [0, 1) onto the half line and concentrates
    nodes near a, which suits the exponentially decaying densities here.
    """
    if a < 0:
        raise ValueError("integrate_semi_infinite requires a >= 0")

    def g(u: float) -> float:
        w = 1.0 - u
        return f(a + u / w) / (w * w)

    return integrate_1d(g, 0.0, 1.0, rtol, atol)


def obf_marginal_pdf(n: int, y: float, params: ObfParams) -> float:
    """Marginal density of the n-th scheduled OBF SINR, by adaptive quadrature."""
    if y < 0:
        return 0.0
    if not 1 <= n <= params.r:
        raise ValueError("need 1 <= n <= r")
    if n == 1:
        return params.K * obf_selection_cdf(1, [y], params) ** (params.K - 1) * obf_phi(
            1, [y], params
        )
    if n == 2:
        return integrate_semi_infinite(lambda y1: obf_joint_pdf_scheduled([y1, y], params), y)
    if n == 3:
        def inner(y2):
            return integrate_semi_infinite(
                lambda y1: obf_joint_pdf_scheduled([y1, y2, y], params), y2,
                INNER_RTOL, INNER_ATOL,
            )

        return integrate_semi_infinite(inner, y)
    raise NotImplementedError("marginals implemented for n <= 3")


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


def olbf_marginal_pdf_t(n: int, s: float, params: OlbfParams) -> float:
    """Marginal density of the n-th scheduled OLBF transformed SINR, by adaptive quadrature.

    The t_2 integral at order 3 is split at the branch point t_2 = t_1 - s.
    """
    if not 0.0 <= s <= 1.0:
        return 0.0
    if not 1 <= n <= params.M:
        raise ValueError("need 1 <= n <= M")
    if n == 1:
        return params.K * olbf_cdf_z([s], params) ** (params.K - 1) * _z1_pdf(s, params)
    if n == 2:
        return integrate_1d(lambda t1: olbf_joint_pdf_t([t1, s], params), s, 1.0)
    if n == 3:
        def inner(t1):
            head = integrate_1d(
                lambda t2: olbf_joint_pdf_t([t1, t2, s], params), 0.0, t1 - s,
                INNER_RTOL, INNER_ATOL,
            )
            tail = integrate_1d(
                lambda t2: olbf_joint_pdf_t([t1, t2, s], params), t1 - s, t1,
                INNER_RTOL, INNER_ATOL,
            )
            return head + tail

        return integrate_1d(inner, s, 1.0)
    raise NotImplementedError("marginals implemented for n <= 3")


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


def olbf_cdf_recursive(t1: float, tails, params: OlbfParams) -> float:
    """z-CDF at (t_1, *tails) by integrating the cross-section density ``_W`` over z_1 in [0, t_1].

    ``_W`` covers z_1 below sum(tails) too, so this holds on either branch.
    The integrand is piecewise smooth with breakpoints at the partial
    sums of every subset of the tails; each piece between them is integrated
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
        total += integrate_1d(lambda z1: _W(z1, tails, params), a, b)
    return total
