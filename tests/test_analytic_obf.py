import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from obflab.analytic_obf import (
    ObfParams,
    obf_joint_pdf_scheduled,
    obf_marginal_pdf_grid,
    obf_mean_sum_rate,
    obf_phi,
    obf_selection_cdf,
    obf_unordered_pdf,
    obf_v_to_x,
    obf_x_to_v,
)
from oracles import obf_marginal_pdf, upper_incomplete_gamma

P15 = 10.0 ** 1.5


def _params(M=3, K=10, r=3, P=P15):
    return ObfParams(M=M, K=K, P=P, r=r)


# ---------------------------------------------------------------- transforms


def _random_v(rng, r):
    # strictly decreasing with comfortable gaps so FD stencils stay inside
    gaps = rng.uniform(0.05, 1.5, size=r)
    return np.cumsum(gaps)[::-1].copy()


def test_transform_roundtrip_100_points():
    rng = np.random.default_rng(21)
    for _ in range(100):
        r = int(rng.integers(1, 5))
        params = _params(M=4, r=r)
        xs = rng.uniform(0.01, 3.0, size=r)
        vs = obf_x_to_v(xs, params)
        back, _ = obf_v_to_x(vs, params)
        assert np.allclose(back, xs, rtol=1e-10, atol=1e-13)
        vs2 = obf_x_to_v(back, params)
        assert np.allclose(vs2, vs, rtol=1e-10, atol=1e-13)


def test_transform_jacobian_fd_100_points():
    rng = np.random.default_rng(22)
    for _ in range(100):
        r = int(rng.integers(2, 5))
        params = _params(M=4, r=r)
        vs = _random_v(rng, r)
        _, det = obf_v_to_x(vs, params)
        J = np.empty((r, r))
        for j in range(r):
            h = 1e-6 * max(1.0, vs[j])
            up = vs.copy()
            up[j] += h
            dn = vs.copy()
            dn[j] -= h
            xu, _ = obf_v_to_x(up, params)
            xd, _ = obf_v_to_x(dn, params)
            J[:, j] = (xu - xd) / (2 * h)
        assert abs(np.linalg.det(J)) == pytest.approx(det, rel=1e-6)


def test_unordered_pdf_normalizes_r2():
    # r = 2: direct 2-D quadrature over v2 <= v1
    for M in (2, 4):
        params = _params(M=M, r=2)

        def inner(u1):
            v1 = u1 / (1.0 - u1)
            val, _ = integrate.quad(
                lambda v2: obf_unordered_pdf([v1, v2], params), 0.0, v1,
                epsrel=1e-10, limit=200,
            )
            return val / (1.0 - u1) ** 2

        total, _ = integrate.quad(inner, 0.0, 1.0, epsrel=1e-8, limit=200)
        assert total == pytest.approx(1.0, abs=1e-5)


def test_unordered_marginal_consistency():
    # integrating v3 out of the 3-coordinate density gives the 2-coordinate one
    params = _params(M=4, r=3)
    rng = np.random.default_rng(23)
    for _ in range(20):
        v2, gap = rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.0)
        v1 = v2 + gap
        val, _ = integrate.quad(
            lambda v3: obf_unordered_pdf([v1, v2, v3], params), 0.0, v2,
            epsrel=1e-11, limit=200,
        )
        assert val == pytest.approx(
            obf_unordered_pdf([v1, v2], params), rel=1e-8
        )


# ------------------------------------------------------------ phi and I_n


def _phi2_oracle(y1, y2, params):
    val, _ = integrate.quad(
        lambda v1: obf_unordered_pdf([v1, y2], params), y2, y1,
        epsrel=1e-11, limit=200,
    )
    return val


def _phi3_oracle(y1, y2, y3, params):
    def inner(v2):
        val, _ = integrate.quad(
            lambda v1: obf_unordered_pdf([v1, v2, y3], params), v2, y1,
            epsrel=1e-10, limit=120,
        )
        return val

    val, _ = integrate.quad(inner, y3, y2, epsrel=1e-9, limit=120)
    return val


def _ordered_point(rng, n, scale=4.0):
    ys = np.sort(rng.uniform(0.01, scale, size=n))[::-1]
    return ys


@pytest.mark.parametrize("M", [2, 3, 4])
def test_phi2_closed_vs_quadrature_oracle(M):
    params = _params(M=M, r=min(M, 3))
    rng = np.random.default_rng(31 + M)
    for _ in range(40):
        y1, y2 = _ordered_point(rng, 2)
        got = obf_phi(2, [y1, y2], params)
        want = _phi2_oracle(y1, y2, params)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("M", [3, 4])
def test_phi3_closed_vs_quadrature_oracle(M):
    params = _params(M=M, r=3)
    rng = np.random.default_rng(41 + M)
    for _ in range(50):
        y1, y2, y3 = _ordered_point(rng, 3)
        got = obf_phi(3, [y1, y2, y3], params)
        want = _phi3_oracle(y1, y2, y3, params)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-14)


def test_phi1_is_scaled_gamma_density():
    params = _params(M=3)
    rng = np.random.default_rng(51)
    c = params.c
    for _ in range(20):
        y = float(rng.uniform(0.05, 8.0))
        want = c ** 3 * y ** 2 * math.exp(-c * y) / math.gamma(3)
        assert obf_phi(1, [y], params) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("M", [2, 3, 4])
def test_I2_closed_vs_quadrature_of_phi2(M):
    params = _params(M=M, r=min(M, 3))
    rng = np.random.default_rng(61 + M)
    for _ in range(40):
        y1, y2 = _ordered_point(rng, 2)
        got = obf_selection_cdf(2, [y1, y2], params)
        want, _ = integrate.quad(
            lambda a: obf_phi(2, [y1, a], params), 0.0, y2,
            epsrel=1e-11, limit=200,
        )
        assert got == pytest.approx(want, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("M", [3, 4])
def test_I3_closed_vs_quadrature_of_phi3(M):
    params = _params(M=M, r=3)
    rng = np.random.default_rng(71 + M)
    for _ in range(50):
        y1, y2, y3 = _ordered_point(rng, 3)
        got = obf_selection_cdf(3, [y1, y2, y3], params)
        want, _ = integrate.quad(
            lambda a: obf_phi(3, [y1, y2, a], params), 0.0, y3,
            epsrel=1e-11, limit=200,
        )
        assert got == pytest.approx(want, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("M", [4, 5])
def test_I4_closed_vs_quadrature_of_phi4(M):
    params = _params(M=M, r=4)
    rng = np.random.default_rng(75 + M)
    for _ in range(50):
        y1, y2, y3, y4 = _ordered_point(rng, 4)
        got = obf_selection_cdf(4, [y1, y2, y3, y4], params)
        want, _ = integrate.quad(
            lambda a: obf_phi(4, [y1, y2, y3, a], params), 0.0, y4,
            epsrel=1e-11, limit=200,
        )
        assert got == pytest.approx(want, rel=1e-6, abs=1e-14)


def _I2_mpmath(y1, y2, params):
    # I_2 = int_0^{y2} phi_2 at 30 digits
    with mpmath.workdps(30):
        M, c = params.M, mpmath.mpf(params.c)
        g1 = mpmath.gammainc(M, c * (1 + mpmath.mpf(y1)))

        def phi2(a):
            u = 1 + a
            return (mpmath.e ** c / mpmath.factorial(M - 2) * (a / u) ** (M - 2) / u ** 2
                    * (mpmath.gammainc(M, c * u) - g1))

        return float(mpmath.quad(phi2, [0, mpmath.mpf(y2)]))


@pytest.mark.parametrize("M", [3, 4, 5])
def test_selection_cdf_holds_its_digits_at_small_y(M):
    # at small, close y_1 and y_2 the old binomial I_2 lost all of its
    # digits at M = 5 (relative error 7.5)
    params = _params(M=M, r=3)
    y1, y2 = 0.0195371996681926, 0.0187780289350489
    got = obf_selection_cdf(2, [y1, y2], params)
    assert got == pytest.approx(_I2_mpmath(y1, y2, params), rel=1e-6, abs=0)
    assert obf_selection_cdf(2, [y1, 0.0], params) == 0.0
    assert obf_selection_cdf(3, [y1, y2, 0.0], params) == 0.0


def test_phi4_nested_quadrature_consistency():
    # phi_4 must integrate the 4-coordinate density over the step-4 region;
    # cross-check against an independently coded integration order
    params = ObfParams(M=4, K=10, P=P15, r=4)
    rng = np.random.default_rng(81)
    for _ in range(10):
        y1, y2, y3, y4 = _ordered_point(rng, 4, scale=2.5)
        got = obf_phi(4, [y1, y2, y3, y4], params)

        def lvl1(v1, v2, v3):
            return obf_unordered_pdf([v1, v2, v3, y4], params)

        def lvl2(v2, v3):
            val, _ = integrate.quad(lambda v1: lvl1(v1, v2, v3), v2, y1,
                                    epsrel=1e-9, limit=80)
            return val

        def lvl3(v3):
            val, _ = integrate.quad(lambda v2: lvl2(v2, v3), v3, y2,
                                    epsrel=1e-8, limit=80)
            return val

        want, _ = integrate.quad(lvl3, y4, y3, epsrel=1e-7, limit=80)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-14)


def test_selection_cdf_rank1_closed_form():
    params = _params(M=3)
    rng = np.random.default_rng(91)
    for _ in range(20):
        y = float(rng.uniform(0.05, 10.0))
        want = 1.0 - upper_incomplete_gamma(3, params.c * y) / math.gamma(3)
        assert obf_selection_cdf(1, [y], params) == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------- joint/marginal/means


def test_joint_scheduled_normalizes_n2():
    params = _params(M=3, r=3)

    def inner(u1):
        y1 = u1 / (1.0 - u1)
        val, _ = integrate.quad(
            lambda y2: obf_joint_pdf_scheduled([y1, y2], params), 0.0, y1,
            epsrel=1e-9, limit=100,
        )
        return val / (1.0 - u1) ** 2

    total, _ = integrate.quad(inner, 0.0, 1.0, epsrel=1e-8, limit=100)
    assert total == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_marginal_mass_is_one(n):
    params = _params(M=3, K=10, r=3)
    total, _ = integrate.quad(
        lambda u: obf_marginal_pdf_grid(n, np.array([u / (1 - u)]), params)[0]
        / (1 - u) ** 2,
        0.0, 1.0, epsabs=1e-10, epsrel=1e-9, limit=200,
    )
    assert total == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("n", [2, 3])
def test_marginal_grid_matches_adaptive_reference(n):
    params = _params(M=3, K=10, r=3)
    ys = np.array([0.5, 2.0, 6.0])
    grid = obf_marginal_pdf_grid(n, ys, params)
    for y, g in zip(ys, grid):
        ref = obf_marginal_pdf(n, float(y), params)
        assert g == pytest.approx(ref, rel=5e-6, abs=1e-12)


def test_mean_sum_rate_single_user_reference():
    # K = r = M = 1 at P = 1: E[log(1+SINR)] = e * E1(1)
    params = ObfParams(M=1, K=1, P=1.0, r=1)
    want = math.e * float(special.exp1(1.0))
    assert obf_mean_sum_rate(params) == pytest.approx(want, rel=1e-8)


def test_mean_sum_rate_rank1_vs_direct_quadrature():
    params = ObfParams(M=3, K=10, P=P15, r=1)
    c = params.c

    def integrand(u):
        y = u / (1.0 - u)
        F = 1.0 - upper_incomplete_gamma(3, c * y) / math.gamma(3)
        f = c ** 3 * y ** 2 * math.exp(-c * y) / math.gamma(3)
        return 10.0 * F ** 9 * f * math.log1p(y) / (1.0 - u) ** 2

    want, _ = integrate.quad(integrand, 0.0, 1.0, epsrel=1e-10, limit=200)
    assert obf_mean_sum_rate(params) == pytest.approx(want, rel=1e-7)


def test_joint_pdf_scheduled_outside_region_is_zero():
    params = _params(M=3, r=3)
    assert obf_joint_pdf_scheduled([1.0, 2.0], params) == 0.0
    assert obf_joint_pdf_scheduled([2.0, 1.0, -0.5], params) == 0.0


@pytest.mark.parametrize("M", [3, 4])
def test_joint_pdf_scheduled_is_the_public_api_product(M):
    # validating once and evaluating each phi_k once leaves every factor as it was
    params = _params(M=M, r=M)
    rng = np.random.default_rng(350 + M)
    for ys in -np.sort(-rng.exponential(3.0, size=(20, M)), axis=1):
        for n in range(1, M + 1):
            want = math.perm(params.K, n) * obf_selection_cdf(n, ys[:n], params) ** (params.K - n)
            for k in range(1, n + 1):
                want *= obf_phi(k, ys[:k], params)
            assert obf_joint_pdf_scheduled(ys[:n], params) == want
