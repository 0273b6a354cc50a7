"""The closed forms' two routes: one point at a time and whole ladders.

Each closed form has one body that reads Gamma(s, x) through a callable.
The scalar API feeds it the cached scalar routine one point at a time;
the grids feed it ``GammaLadder``s over argument arrays.  These tests
check that both routes agree, that the t_1 = 1 endpoint is handled, and
that the rank-1 CDFs (regularised lower incomplete gammas) hold full
precision where their old difference-of-gammas form cancelled.
"""

import math
from itertools import combinations

import mpmath
import numpy as np
import pytest

from obflab import analytic_obf as obf
from obflab import analytic_olbf as olbf
from obflab.montecarlo import _max_norm_cdf
from obflab.numerics import upper_incomplete_gamma

P15 = 10.0 ** 1.5


def _close(scalar, ladder):
    np.testing.assert_allclose(scalar, ladder, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("M", [3, 4])
def test_obf_scalar_api_matches_ladder_route(M):
    params = obf.ObfParams(M=M, K=10, P=P15, r=M)
    rng = np.random.default_rng(300 + M)
    ys = -np.sort(-rng.exponential(4.0, size=(20, M)), axis=1)
    columns = list(ys.T)
    gs = [obf._ladder(y, params) for y in columns]
    for n in range(2, M + 1):
        phi = obf._phi(columns[:n], gs[:n], params)
        _close([obf.obf_phi(n, y[:n], params) for y in ys], phi)
        _close([obf.obf_selection_cdf(n, y[:n], params) for y in ys],
               obf._I(columns[:n], gs[:n], phi, params))


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
    corners = olbf._Corners(list(ts.T), olbf._ladder, params)
    for n in range(2, M + 1):
        _close([olbf.olbf_xi(n, t[:n], params) for t in ts], corners.xi(n))
        _close([olbf.olbf_cdf_z(t[:n], params) for t in ts], corners.cdf(n))
    _close([olbf.olbf_cdf_z(t[:1], params) for t in ts], olbf._F_z1(ts[:, 0], params))


@pytest.mark.parametrize("M", [3, 4])
def test_joint_pdfs_match_the_ladder_route(M):
    # each scheme's joint density has one body, _scheduled; the scalar API
    # feeds it one point at a time and the grids feed it ladders
    oparams = obf.ObfParams(M=M, K=10, P=P15, r=M)
    ys = -np.sort(-np.random.default_rng(360 + M).exponential(4.0, size=(20, M)), axis=1)
    columns = list(ys.T)
    gs = [obf._ladder(y, oparams) for y in columns]
    lparams = olbf.OlbfParams(M=M, K=10, P=P15)
    ts = _olbf_points(M, np.random.default_rng(370 + M))  # both branches
    for n in range(1, M + 1):
        _close([obf.obf_joint_pdf_scheduled(y[:n], oparams) for y in ys],
               obf._scheduled(columns[:n], gs[:n], oparams))
        _close([olbf.olbf_joint_pdf_t(t[:n], lparams) for t in ts],
               olbf._scheduled(list(ts.T[:n]), olbf._ladder, lparams))


def test_olbf_scalar_api_reads_no_gamma_order_below_one(monkeypatch):
    orders = set()

    def recording(s, x):
        orders.add(s)
        return upper_incomplete_gamma(s, x)

    monkeypatch.setattr(olbf, "upper_incomplete_gamma", recording)
    for M in (2, 3, 4, 5):
        params = olbf.OlbfParams(M=M, K=10, P=P15)
        for t in _olbf_points(M, np.random.default_rng(330 + M), count=4):
            for n in range(1, M + 1):
                olbf.olbf_xi(n, t[:n], params)
                olbf.olbf_cdf_z(t[:n], params)
    assert orders == set(range(1, 6))


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
    # lost 2e-6.  At t_1 below about 0.3, most of all with tails under a few %
    # of t_1, the Gamma differences of G_p lose as many digits (ROADMAP)
    params = olbf.OlbfParams(M=5, K=10, P=P15)
    rng = np.random.default_rng(340)
    pts = [[0.2, 0.02], [0.25, 0.0125, 0.005]]
    for _ in range(20):
        t1 = rng.uniform(0.25, 0.95)
        t2, t3 = t1 * rng.uniform(0.02, 1.0, 2)
        pts += [[t1, t2], [t1, t2, t3]]
    for ts in pts:
        assert olbf.olbf_cdf_z(ts, params) == pytest.approx(_mp_cdf(ts, params), rel=1e-6, abs=0), ts


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
