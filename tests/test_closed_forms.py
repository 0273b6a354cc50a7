"""The closed forms' one route: the point API runs the grids' bodies.

Each closed form has one body, and the scalar API is a thin wrapper over
it.  Both schemes' bodies are nonnegative sums of one integral,
G_p(sigma; tau) = int_sigma^tau f_1(z) (z - sigma)^p / p! dz
(``numerics.lower_gamma_moment``), read off regularised lower gammas
P(s, X) (``numerics.lower_gamma_ladder``): OBF's per pair of points of
its chain, OLBF's per corner of the box of the tails, the same on the
grids as at one point.  These tests check that the point API equals the
bodies on arrays, that every Gamma call of either scheme is at order M,
that OBF's phi_n and I_n, OLBF's G_p and F_n hold their digits against
40-digit references, that the t_1 = 1 endpoint and SINRs past e^(-c y) = 0
are handled, and that the rank-1 CDFs (regularised lower incomplete
gammas) hold full precision.
"""

import math
import warnings
from itertools import combinations

import mpmath
import numpy as np
import pytest

from obflab import analytic_obf as obf
from obflab import analytic_olbf as olbf
from obflab import numerics
from obflab.montecarlo import _max_norm_cdf

P15 = 10.0 ** 1.5


def _close(point, body):
    np.testing.assert_allclose(point, body, rtol=1e-12, atol=1e-14)


def _obf_columns(M, seed, count=20):
    """y_1..y_M columns of ordered points, and their gaps y_k - y_{k+1}."""
    ys = -np.sort(-np.random.default_rng(seed).exponential(4.0, size=(count, M)), axis=1)
    columns = list(ys.T)
    return ys, columns, [a - b for a, b in zip(columns, columns[1:])]


@pytest.mark.parametrize("M", [3, 4])
def test_obf_scalar_api_matches_ladder_route(M):
    params = obf.ObfParams(M=M, K=10, P=P15, r=M)
    ys, columns, gaps = _obf_columns(M, 300 + M)
    for n in range(2, M + 1):
        chain = obf._Chain(columns[:n], gaps[:n - 1], params)
        _close([obf.obf_phi(n, y[:n], params) for y in ys], chain.phi(n))
        _close([obf.obf_selection_cdf(n, y[:n], params) for y in ys], chain.cdf())


def _mp_obf_phi3_I3(ys, params):
    """phi_3 and I_3 to 40 digits, from J_1 alone and one quadrature each.

    With t = y/(1 + y), J_1(z) = int_z^{t_1} f_1 = e^c [Gamma(M, c/(1 - z)) -
    Gamma(M, c u_1)], taken as one generalised incomplete gamma.  Then
    phi_3 = t_3^(M-3)/(M-3)! int_{t_3}^{t_2} J_1 / u_3^2 and, swapping the
    order of I_3 = int_0^{t_3} s^(M-3)/(M-3)! int_s^{t_2} J_1 dz ds,
    I_3 = int_0^{t_2} J_1(z) min(z, t_3)^(M-2)/(M-2)! dz.
    """
    M = params.M
    with mpmath.workdps(40):
        c = mpmath.mpf(params.r) / mpmath.mpf(params.P)
        y1, y2, y3 = (mpmath.mpf(float(y)) for y in ys)
        t2, t3 = y2 / (1 + y2), y3 / (1 + y3)

        def J1(z):
            return mpmath.e ** c * mpmath.gammainc(M, c / (1 - z), c * (1 + y1))

        phi = (t3 ** (M - 3) / mpmath.factorial(M - 3) * mpmath.quad(J1, [t3, t2])
               / (1 + y3) ** 2)
        cdf = mpmath.quad(lambda z: J1(z) * min(z, t3) ** (M - 2) / mpmath.factorial(M - 2),
                          [0, t3, t2])
        return float(phi), float(cdf)


def test_obf_phi3_and_I3_hold_their_digits():
    # at the close, small point below, differences of upper gammas of one order
    # left phi_3 off by 5.3e-7, 2.9e-5 and 1.3e-3 at M = 3, 4 and 5; as sums of
    # nonnegative G_p nothing cancels
    cases = [(M, 10.0 ** 1.5, (0.0195371996681926, 0.0187780289350489, 0.0183))
             for M in (3, 4, 5)]
    rng = np.random.default_rng(390)
    cases += [(5, 1000.0, tuple(-np.sort(-rng.exponential(3.0, 3)))) for _ in range(20)]
    for M, P, ys in cases:
        params = obf.ObfParams(M=M, K=10, P=P, r=3)
        phi, cdf = _mp_obf_phi3_I3(ys, params)
        assert obf.obf_phi(3, ys, params) == pytest.approx(phi, rel=1e-12, abs=0), (M, ys)
        assert obf.obf_selection_cdf(3, ys, params) == pytest.approx(cdf, rel=1e-12, abs=0), (M, ys)


def _olbf_points(M, rng, count=20):
    """(t_1, ..., t_M) rows: half with t_1 >= t_2 + ... + t_M, half with t_1 below that sum."""
    t1 = rng.uniform(0.1, 0.99, (2, count // 2, 1))
    head = t1[0] * rng.uniform(0.0, 1.0, (count // 2, M - 1)) / (M - 1)
    split = t1[1] * rng.uniform(0.5, 1.0, (count // 2, M - 1))
    return np.vstack([np.hstack([t1[0], head]), np.hstack([t1[1], split])])


@pytest.mark.parametrize("M", [3, 4, 5])
def test_olbf_scalar_api_matches_ladder_route(M):
    params = olbf.OlbfParams(M=M, K=10, P=P15)
    ts = _olbf_points(M, np.random.default_rng(310 + M))
    corners = olbf._Corners(list(ts.T), params)
    for n in range(2, M + 1):
        _close([olbf.olbf_xi(n, t[:n], params) for t in ts], corners.xi(n))
    for n in range(1, M + 1):
        _close([olbf.olbf_cdf_z(t[:n], params) for t in ts], corners.cdf(n))


@pytest.mark.parametrize("M", [3, 4])
def test_joint_pdfs_match_the_ladder_route(M):
    # each scheme's joint density has one body, _scheduled, which the scalar
    # API runs one point at a time and the grids on arrays
    oparams = obf.ObfParams(M=M, K=10, P=P15, r=M)
    ys, columns, gaps = _obf_columns(M, 360 + M)
    lparams = olbf.OlbfParams(M=M, K=10, P=P15)
    ts = _olbf_points(M, np.random.default_rng(370 + M))  # both branches
    for n in range(1, M + 1):
        _close([obf.obf_joint_pdf_scheduled(y[:n], oparams) for y in ys],
               obf._scheduled(columns[:n], gaps[:n - 1], oparams))
        _close([olbf.olbf_joint_pdf_t(t[:n], lparams) for t in ts],
               olbf._scheduled(list(ts.T[:n]), lparams))


def test_olbf_scalar_api_reads_no_gamma_order_below_one(monkeypatch):
    # every Gamma call of either scheme, on the grids and at one point, is one
    # P(M, X) of numerics.lower_gamma_ladder; the lower orders add terms to it
    gammainc = numerics.special.gammainc
    orders = []

    def recording(s, x):
        orders.append(s)
        return gammainc(s, x)

    monkeypatch.setattr(numerics.special, "gammainc", recording)
    for M in (2, 3, 4, 5):
        lparams = olbf.OlbfParams(M=M, K=10, P=P15)
        oparams = obf.ObfParams(M=M, K=10, P=P15, r=M)
        orders.clear()
        for t in _olbf_points(M, np.random.default_rng(330 + M), count=4):
            for n in range(1, M + 1):
                olbf.olbf_xi(n, t[:n], lparams)
                olbf.olbf_cdf_z(t[:n], lparams)
                olbf.olbf_joint_pdf_t(t[:n], lparams)
        olbf.olbf_marginal_pdf_t_grid(min(M, 3), [0.3], lparams)
        for y in _obf_columns(M, 380 + M, count=4)[0]:
            for n in range(1, M + 1):
                obf.obf_phi(n, y[:n], oparams)
                obf.obf_selection_cdf(n, y[:n], oparams)
                obf.obf_joint_pdf_scheduled(y[:n], oparams)
        obf.obf_marginal_pdf_grid(min(M, 3), [0.3], oparams)
        _max_norm_cdf(M, 10, lparams.mp)(np.array([0.3, 3.0]))
        assert orders and set(orders) == {M}, (M, sorted(set(orders)))


def _mp_cdf(ts, params):
    """F_n to 40 digits: mpmath quadrature over z_1 of f_1(z_1) times the volume
    sum_S (-1)^|S| (z_1 - sum S)_+^(M-1) / (M-1)! of the tails' box, split at
    every corner below t_1."""
    M = params.M
    with mpmath.workdps(40):
        c = mpmath.mpf(M) / mpmath.mpf(params.P)
        t1, *tails = (mpmath.mpf(float(t)) for t in ts)
        corners = [((-1) ** k, mpmath.fsum(S))
                   for k in range(len(tails) + 1) for S in combinations(tails, k)]

        def f(z):
            volume = mpmath.fsum(sign * max(z - s, 0) ** (M - 1) for sign, s in corners)
            return (c ** M * mpmath.exp(-c * z / (1 - z)) / (1 - z) ** (M + 1)
                    * volume / mpmath.factorial(M - 1))

        return float(mpmath.quad(f, sorted({0, t1, *(s for _, s in corners if 0 < s < t1)})))


def test_olbf_cdf_holds_its_digits_at_m5():
    # the first two points are where the forms with Gamma orders down to 1 - M
    # lost 2e-6, and the differences of upper gammas on the grids 2.7e-6 at
    # the second; the point API now runs the grids' body
    params = olbf.OlbfParams(M=5, K=10, P=P15)
    rng = np.random.default_rng(340)
    pts = [[0.2, 0.02], [0.25, 0.0125, 0.005]]
    for _ in range(20):
        t1 = rng.uniform(0.25, 0.95)
        t2, t3 = t1 * rng.uniform(0.02, 1.0, 2)
        pts += [[t1, t2], [t1, t2, t3]]
    for ts in pts:
        assert olbf.olbf_cdf_z(ts, params) == pytest.approx(_mp_cdf(ts, params), rel=1e-6, abs=0), ts


def _mp_G(p, sigma, t1, params):
    """G_p(sigma; t_1) = int_sigma^t_1 f_1(z) (z - sigma)^p / p! dz to 40 digits."""
    M = params.M
    with mpmath.workdps(40):
        c = mpmath.mpf(M) / mpmath.mpf(params.P)
        sigma, t1 = mpmath.mpf(float(sigma)), mpmath.mpf(float(t1))

        def f(z):
            return (c ** M * mpmath.exp(-c * z / (1 - z)) / (1 - z) ** (M + 1)
                    * (z - sigma) ** p / mpmath.factorial(p))

        return float(mpmath.quad(f, [sigma, t1]))


def test_olbf_G_and_F_vs_mpmath():
    # G_p at small t_1 and close to sigma = t_1 is where differences of upper
    # gammas of one order lost up to all their digits; as lower gammas G_p is
    # a sum of nonnegative terms.  F_n adds the scan region at M = 5, 15 dB
    rng = np.random.default_rng(350)
    for M in (2, 3, 5):
        params = olbf.OlbfParams(M=M, K=10, P=P15)
        t1 = np.concatenate([[0.05, 0.05, 0.3], rng.uniform(0.05, 0.97, 5)])
        sigma = t1 * np.concatenate([[0.99, 0.01, 0.99], rng.uniform(0.0, 0.99, 5)])
        corners = olbf._Corners([t1, sigma], params)
        for p in (M - 1, M - 2):
            want = [_mp_G(p, s, t, params) for s, t in zip(sigma, t1)]
            np.testing.assert_allclose(corners._G(p, (1,)), want, rtol=1e-12, atol=0)
        # xi_2(t_1, t_2) is G_{M-2}(t_2; t_1)
        np.testing.assert_allclose([olbf.olbf_xi(2, [t, s], params) for s, t in zip(sigma, t1)],
                                   [_mp_G(M - 2, s, t, params) for s, t in zip(sigma, t1)],
                                   rtol=1e-12, atol=0)
    params = olbf.OlbfParams(M=5, K=10, P=P15)
    # close pairs where xi_2 came out negative (-5.4e-16 against 1.4e-18) or 3.6e-6 off
    for t1, t2 in ((0.2452624345088565, 0.24475817823888182),
                   (0.39936843982417214, 0.372612892522346)):
        assert olbf.olbf_xi(2, [t1, t2], params) == pytest.approx(
            _mp_G(3, t2, t1, params), rel=1e-12, abs=0)
    pts = [[0.25, 0.0125, 0.005], [0.05, 0.0495], [0.05, 0.03, 0.015]]
    for t1 in (0.2, 0.3, 0.4):
        tails = t1 * rng.uniform(0.003, 0.9, 3)
        pts += [[t1, tails[0]], [t1, *tails[1:]]]
    for ts in pts:
        want = _mp_cdf(ts, params)
        assert olbf.olbf_cdf_z(ts, params) == pytest.approx(want, rel=1e-9, abs=0), ts
        body = olbf._Corners([np.array([t]) for t in ts], params).cdf(len(ts))
        assert body[0] == pytest.approx(want, rel=1e-9, abs=0), ts


@pytest.mark.parametrize("M", [3, 4])
def test_olbf_t1_endpoint_is_finite_and_continuous(M):
    params = olbf.OlbfParams(M=M, K=10, P=P15)
    near = 1.0 - 1e-12
    t2, t3 = 0.3, 0.2
    cases = [
        lambda t1: olbf.olbf_xi(2, [t1, t2], params),
        lambda t1: olbf.olbf_xi(3, [t1, 0.25, t3], params),  # head branch
        lambda t1: olbf.olbf_xi(3, [t1, 0.7, 0.6], params),  # complementary branch
        lambda t1: olbf.olbf_cdf_z([t1], params),
        lambda t1: olbf.olbf_cdf_z([t1, t2], params),
        lambda t1: olbf.olbf_cdf_z([t1, t2, t3], params),  # head branch
        lambda t1: olbf.olbf_cdf_z([t1, 0.7, 0.6], params),  # complementary branch
        # the grid marginals at s = t1: every t1 node of ranks 2 and 3 sits at 1
        *(lambda s, n=n: olbf.olbf_marginal_pdf_t_grid(n, [s], params)[0] for n in (1, 2, 3)),
    ]
    for f in cases:
        at_one = f(1.0)
        assert math.isfinite(at_one)
        assert at_one == pytest.approx(f(near), rel=1e-9, abs=0)


@pytest.mark.parametrize("y", [1e154, 1e200, 1e300])
def test_huge_sinrs_give_density_zero(y):
    # e^(-c y) is 0 there, and the powers of y and 1 + y next to it overflowed:
    # OBF gave NaN on the grids and in its unordered density, and raised
    # OverflowError at a point
    op, lp = obf.ObfParams(M=3, K=10, P=P15, r=3), olbf.OlbfParams(M=3, K=10, P=P15)
    t = y / (1.0 + y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3):
            assert obf.obf_phi(n, [y] * n, op) == 0.0
            assert obf.obf_unordered_pdf([y] * n, op) == 0.0
            assert obf.obf_joint_pdf_scheduled([y] * n, op) == 0.0
            assert obf.obf_selection_cdf(n, [y] * n, op) == 1.0
            assert olbf.olbf_joint_pdf_t([t] * n, lp) == 0.0
            for pdf in (obf.obf_marginal_pdf_grid(n, [1.0, y], op),
                        olbf.olbf_marginal_pdf_sinr_grid(n, [1.0, y], lp)):
                assert pdf[1] == 0.0 and math.isfinite(pdf[0])
        # huge leading SINRs leave the terms of the finite ones: their own
        # terms carry e^(-c y), which is 1e-206 already at y = 5000
        for f in (lambda v: obf.obf_phi(3, [v, v, 1.0], op),
                  lambda v: obf.obf_phi(2, [v, 1.0], op),
                  lambda v: obf.obf_selection_cdf(3, [v, v, 1.0], op),
                  lambda v: obf.obf_selection_cdf(2, [v, 1.0], op)):
            assert f(y) == pytest.approx(f(5000.0), rel=1e-12, abs=0) and f(y) > 0


def _P(M, x):
    """Regularised lower incomplete gamma P(M, x) to 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.gammainc(M, 0, x, regularized=True))


@pytest.mark.parametrize("t", [0.0025, 0.01, 0.5, 0.9999, 1.0])
@pytest.mark.parametrize("M", [2, 3, 4])
def test_rank1_cdfs_vs_mpmath(M, t):
    # F(t) = P(M, mp t/(1 - t)); the old difference-of-gammas form lost
    # up to half its value at t = 0.0025
    params = olbf.OlbfParams(M=M, K=10, P=P15)
    with mpmath.workdps(50):
        want = 1.0 if t == 1.0 else _P(M, params.mp * mpmath.mpf(t) / (1 - mpmath.mpf(t)))
    assert olbf.olbf_cdf_z([t], params) == pytest.approx(want, rel=1e-12, abs=0)
    if t == 1.0:
        return
    # the OBF and Monte-Carlo rank-1 CDFs at y = t/(1 - t)
    y = t / (1.0 - t)
    rank1 = obf.ObfParams(M=M, K=10, P=P15, r=1)
    assert obf.obf_selection_cdf(1, [y], rank1) == pytest.approx(
        _P(M, mpmath.mpf(rank1.rp) * y), rel=1e-12, abs=0)
    assert float(_max_norm_cdf(M, 1, params.mp)(y)) == pytest.approx(
        _P(M, mpmath.mpf(params.mp) * y), rel=1e-12, abs=0)
