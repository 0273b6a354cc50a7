"""The closed forms' two routes: one point at a time and whole ladders.

Each closed form has one body that reads Gamma(s, x) through a callable.
The scalar API feeds it the cached scalar routine one point at a time;
the grids feed it ``GammaLadder``s over argument arrays.  These tests
check that both routes agree, that the t_1 = 1 endpoint is handled, and
that the rank-1 CDFs (regularised lower incomplete gammas) hold full
precision where their old difference-of-gammas form cancelled.
"""

import math

import mpmath
import numpy as np
import pytest

from obflab import analytic_obf as obf
from obflab import analytic_olbf as olbf
from obflab.montecarlo import _max_norm_cdf

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


@pytest.mark.parametrize("M", [3, 4])
def test_olbf_scalar_api_matches_ladder_route(M):
    params = olbf.OlbfParams(M=M, K=10, P=P15)
    rng = np.random.default_rng(310 + M)
    t1 = rng.uniform(0.1, 0.99, 20)
    t3 = t1 * rng.uniform(0.0, 0.5, 20)
    t2 = (t1 - t3) * rng.uniform(0.0, 1.0, 20)  # head branch: t1 >= t2 + t3
    x = (t1 - t3) * rng.uniform(0.0, 1.0, 20)
    o23, oxt3 = 1.0 - t2 - t3, 1.0 - x - t3
    g1 = olbf._ladder(1.0 - t1, params)
    g2 = olbf._ladder(1.0 - t2, params, 1 - M)
    g3 = olbf._ladder(1.0 - t3, params, 2 - M)
    g23 = olbf._ladder(o23, params)
    gx3 = olbf._ladder(oxt3, params, 2 - M)
    pts = list(zip(t1, t2, t3))
    _close([olbf.olbf_xi(2, [a, b], params) for a, b, _ in pts], olbf._xi2(t2, g1, g2, params))
    _close([olbf.olbf_eta(xx, a, c, params) for xx, (a, _, c) in zip(x, pts)],
           olbf._eta(oxt3, t3, g1, g3, gx3, params))
    # xi_3 on the head branch is eta at x = t2
    _close([olbf.olbf_xi(3, list(p), params) for p in pts],
           olbf._eta(o23, t3, g1, g3, olbf._ladder(o23, params, 2 - M), params))
    _close([olbf.olbf_cdf_z([a], params) for a in t1], olbf._F_z1(t1, params))
    _close([olbf.olbf_cdf_z([a, b], params) for a, b, _ in pts], olbf._F_z2(t2, g1, g2, params))
    _close([olbf.olbf_cdf_z(list(p), params) for p in pts],
           olbf._F_z3_head(t2, t3, o23, g1, g2, g3, g23, params))


@pytest.mark.parametrize("M", [3, 4])
def test_olbf_t1_endpoint_is_finite_and_continuous(M):
    params = olbf.OlbfParams(M=M, K=10, P=P15)
    near = 1.0 - 1e-12
    t2, t3 = 0.3, 0.2
    cases = [
        lambda t1: olbf.olbf_xi(2, [t1, t2], params),
        lambda t1: olbf.olbf_eta(0.25, t1, t3, params),
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
