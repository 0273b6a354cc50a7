import math

import numpy as np
import pytest
from scipy import integrate

from obflab.analytic_obf import ObfParams, obf_marginal_pdf_grid, obf_mean_sum_rate
from obflab.analytic_olbf import (
    OlbfParams,
    olbf_cdf_z,
    olbf_joint_pdf_t,
    olbf_marginal_pdf_sinr_grid,
    olbf_marginal_pdf_t_grid,
    olbf_mean_sum_rate,
    olbf_unordered_pdf_z,
    olbf_v_to_x,
    olbf_x_to_v,
    olbf_xi,
)
from oracles import olbf_cdf_recursive, olbf_marginal_pdf_t

P15 = 10.0 ** 1.5


def _params(M=3, K=10, P=P15):
    return OlbfParams(M=M, K=K, P=P)


# ---------------------------------------------------------------- transforms


def test_transform_roundtrip_100_points():
    rng = np.random.default_rng(121)
    for _ in range(100):
        M = int(rng.integers(2, 6))
        params = _params(M=M, K=max(10, M))
        xs = rng.uniform(0.01, 3.0, size=M)
        vs = olbf_x_to_v(xs, params)
        back, _ = olbf_v_to_x(vs, params)
        assert np.allclose(back, xs, rtol=1e-10, atol=1e-13)
        zs = vs / (1.0 + vs)
        assert np.allclose(zs / (1.0 - zs), vs, rtol=1e-12)


def test_transform_jacobian_fd_100_points():
    rng = np.random.default_rng(122)
    count = 0
    while count < 100:
        M = int(rng.integers(2, 5))
        params = _params(M=M, K=max(10, M))
        xs = rng.uniform(0.05, 2.0, size=M)
        vs = olbf_x_to_v(xs, params)
        _, det = olbf_v_to_x(vs, params)
        J = np.empty((M, M))
        ok = True
        for j in range(M):
            h = 1e-6 * max(1.0, vs[j])
            up, dn = vs.copy(), vs.copy()
            up[j] += h
            dn[j] -= h
            try:
                xu, _ = olbf_v_to_x(up, params)
                xd, _ = olbf_v_to_x(dn, params)
            except ValueError:
                ok = False
                break
            J[:, j] = (xu - xd) / (2 * h)
        if not ok:
            continue
        assert abs(np.linalg.det(J)) == pytest.approx(det, rel=1e-6)
        count += 1


def test_unordered_z_density_normalizes():
    # full M = 2 density over its region, and the z1 marginal for M = 3
    params2 = _params(M=2)

    def inner(z1):
        val, _ = integrate.quad(
            lambda z2: olbf_unordered_pdf_z([z1, z2], params2), 0.0, z1,
            epsrel=1e-10, limit=200,
        )
        return val

    total, _ = integrate.quad(inner, 0.0, 1.0, epsrel=1e-8, limit=200)
    assert total == pytest.approx(1.0, abs=1e-5)

    params3 = _params(M=3)
    total, _ = integrate.quad(
        lambda z1: olbf_unordered_pdf_z([z1], params3), 0.0, 1.0,
        epsrel=1e-10, limit=200,
    )
    assert total == pytest.approx(1.0, abs=1e-5)


def test_unordered_z_marginal_consistency():
    # integrating z3 out of the 3-coordinate density gives the 2-coordinate one
    params = _params(M=3)
    rng = np.random.default_rng(123)
    for _ in range(20):
        z1 = float(rng.uniform(0.3, 0.9))
        z2 = float(rng.uniform(0.0, z1 * 0.6))
        val, _ = integrate.quad(
            lambda z3: olbf_unordered_pdf_z([z1, z2, z3], params),
            0.0, z1 - z2, epsrel=1e-11, limit=200,
        )
        assert val == pytest.approx(
            olbf_unordered_pdf_z([z1, z2], params), rel=1e-8
        )


# --------------------------------------------------------------- xi and eta


def _xi2_oracle(t1, t2, params):
    val, _ = integrate.quad(
        lambda z1: olbf_unordered_pdf_z([z1, t2], params), t2, t1,
        epsrel=1e-11, limit=200,
    )
    return val


def _xi3_oracle(t1, t2, t3, params):
    def inner(z2):
        val, _ = integrate.quad(
            lambda z1: olbf_unordered_pdf_z([z1, z2, t3], params), z2 + t3, t1,
            epsrel=1e-11, limit=200,
        )
        return val

    # stop at t1 - t3 where the inner integral vanishes, so the outer
    # quadrature never straddles that kink
    hi = min(t2, t1 - t3)
    if hi <= 0.0:
        return 0.0
    val, _ = integrate.quad(inner, 0.0, hi, epsrel=1e-10, limit=200)
    return val


@pytest.mark.parametrize("M", [3, 4, 5])
def test_xi2_closed_vs_quadrature_oracle(M):
    params = _params(M=M, K=max(10, M))
    rng = np.random.default_rng(131 + M)
    for _ in range(40):
        t1 = float(rng.uniform(0.2, 0.95))
        t2 = float(rng.uniform(0.0, t1))
        got = olbf_xi(2, [t1, t2], params)
        want = _xi2_oracle(t1, t2, params)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("M", [3, 4])
def test_eta_both_branches_vs_quadrature_oracle(M):
    params = _params(M=M, K=max(10, M))
    rng = np.random.default_rng(141 + M)
    head = split = 0
    while head < 25 or split < 25:
        t1 = float(rng.uniform(0.3, 0.95))
        t2 = float(rng.uniform(0.02, t1))
        t3 = float(rng.uniform(0.02, t1))
        if t1 >= t2 + t3:
            head += 1
        else:
            split += 1
        got = olbf_xi(3, [t1, t2, t3], params)
        want = _xi3_oracle(t1, t2, t3, params)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-14)


def test_eta_evaluates_branch_argument():
    params = _params(M=4, K=10)
    t1, t3 = 0.8, 0.3
    # the split branch t2 >= t1 - t3 pins the integration width at t1 - t3:
    # the G(t2 + t3) term drops out exactly, so xi_3 no longer moves with t2
    split = olbf_xi(3, [t1, t1 - t3, t3], params)
    assert olbf_xi(3, [t1, 0.6, t3], params) == split
    assert olbf_xi(3, [t1, 0.7, t3], params) == split
    # the head branch grows with the width t2
    assert olbf_xi(3, [t1, 0.3, t3], params) < olbf_xi(3, [t1, 0.4, t3], params) < split


def test_xi4_nested_quadrature_consistency():
    rng = np.random.default_rng(151)
    for M in (4, 4, 4, 5, 5, 5):
        params = _params(M=M, K=10)
        t1 = float(rng.uniform(0.5, 0.9))
        t2, t3, t4 = (float(rng.uniform(0.02, t1 / 2)) for _ in range(3))
        got = olbf_xi(4, [t1, t2, t3, t4], params)

        def inner(z2, z3):
            lo = z2 + z3 + t4
            if lo >= t1:
                return 0.0
            val, _ = integrate.quad(
                lambda z1: olbf_unordered_pdf_z([z1, z2, z3, t4], params),
                lo, t1, epsrel=1e-9, limit=80,
            )
            return val

        want, _ = integrate.dblquad(
            inner, 0.0, t3, 0.0, t2, epsabs=1e-13, epsrel=1e-8
        )
        assert got == pytest.approx(want, rel=1e-5, abs=1e-14)


# ------------------------------------------------------------------- CDFs


def _F_oracle(ts, params):
    """Nested-quadrature oracle for the joint CDF of (z_1, ..., z_n)."""
    ts = list(ts)
    t1, tails = ts[0], ts[1:]
    if not tails:
        val, _ = integrate.quad(
            lambda z1: olbf_unordered_pdf_z([z1], params), 0.0, t1,
            epsrel=1e-11, limit=200,
        )
        return val
    if len(tails) == 1:
        def inner(z2):
            val, _ = integrate.quad(
                lambda z1: olbf_unordered_pdf_z([z1, z2], params), z2, t1,
                epsrel=1e-10, limit=120,
            )
            return val

        val, _ = integrate.quad(inner, 0.0, tails[0], epsrel=1e-9, limit=120)
        return val
    assert len(tails) == 2

    def inner2(z2, z3):
        val, _ = integrate.quad(
            lambda z1: olbf_unordered_pdf_z([z1, z2, z3], params), z2 + z3, t1,
            epsrel=1e-9, limit=80,
        )
        return val

    # clip the z2 range at t1 - z3 so the integrand never goes flat zero
    val, _ = integrate.dblquad(
        inner2, 0.0, tails[1],
        0.0, lambda z3: min(tails[0], max(t1 - z3, 0.0)),
        epsabs=1e-13, epsrel=1e-8,
    )
    return val


@pytest.mark.parametrize("M", [3, 4])
def test_F_z2_closed_vs_quadrature_oracle(M):
    params = _params(M=M, K=max(10, M))
    rng = np.random.default_rng(161 + M)
    for _ in range(40):
        t1 = float(rng.uniform(0.15, 0.95))
        t2 = float(rng.uniform(0.0, t1))
        got = olbf_cdf_z([t1, t2], params)
        want = _F_oracle([t1, t2], params)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-14)
        rec = olbf_cdf_recursive(t1, [t2], params)
        assert got == pytest.approx(rec, rel=1e-8, abs=1e-14)


@pytest.mark.slow
@pytest.mark.parametrize("M", [3, 4])
def test_F_z3_both_branches_vs_quadrature_oracle(M):
    params = _params(M=M, K=max(10, M))
    rng = np.random.default_rng(171 + M)
    head = split = 0
    while head < 25 or split < 25:
        t1 = float(rng.uniform(0.3, 0.95))
        t2 = float(rng.uniform(0.02, t1))
        t3 = float(rng.uniform(0.02, t1))
        if t1 >= t2 + t3:
            head += 1
        else:
            split += 1
        got = olbf_cdf_z([t1, t2, t3], params)
        want = _F_oracle([t1, t2, t3], params)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-12)
        rec = olbf_cdf_recursive(t1, [t2, t3], params)
        assert got == pytest.approx(rec, rel=1e-7, abs=1e-12)


def test_F_z4_recursion_vs_nested_quadrature_oracle():
    # M = 4: the 4-coordinate density depends on z_2..z_4 only through
    # the region, so the CDF is the z1-integral of the density times the
    # box-truncated simplex volume, here computed by nested quadrature
    params = _params(M=4, K=10)
    rng = np.random.default_rng(181)

    def oracle(t1, t2, t3, t4):
        def depth(a):
            # int_0^{t3} clip(a - z3, 0, t4) dz3, done by elementary calculus
            b = min(max(a - t4, 0.0), t3)
            c = min(max(a, 0.0), t3)
            return t4 * b + a * (c - b) - 0.5 * (c * c - b * b)

        def volume(z1):
            val, _ = integrate.quad(
                lambda z2: depth(z1 - z2), 0.0, t2, epsrel=1e-10, limit=100
            )
            return val

        val, _ = integrate.quad(
            lambda z1: olbf_unordered_pdf_z([z1, 0.0, 0.0, 0.0], params)
            * volume(z1),
            0.0, t1, epsrel=1e-9, limit=100,
        )
        return val

    for _ in range(100):
        t1 = float(rng.uniform(0.3, 0.95))
        t2, t3, t4 = (float(rng.uniform(0.05, t1 * 0.7)) for _ in range(3))
        got = olbf_cdf_z([t1, t2, t3, t4], params)
        want = oracle(t1, t2, t3, t4)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-12)
        rec = olbf_cdf_recursive(t1, [t2, t3, t4], params)
        assert got == pytest.approx(rec, rel=1e-5, abs=1e-12)


def test_F_z5_closed_vs_recursive_both_branches():
    # M = 5: the subset sum over the 16 corners of the tails' box against the
    # cross-section integration, on both sides of t1 = t2 + ... + t5
    params = _params(M=5, K=10)
    rng = np.random.default_rng(191)
    counts = {"head": 0, "split": 0}
    while min(counts.values()) < 4:
        t1 = float(rng.uniform(0.3, 0.95))
        tails = [float(rng.uniform(0.02, t1 * 0.6)) for _ in range(4)]
        branch = "head" if t1 >= sum(tails) else "split"
        if counts[branch] == 4:
            continue
        counts[branch] += 1
        got = olbf_cdf_z([t1, *tails], params)
        rec = olbf_cdf_recursive(t1, tails, params)
        assert got == pytest.approx(rec, rel=1e-6, abs=0)  # values down to 1e-9


# ----------------------------------------------------- joint/marginal/means


def test_joint_pdf_t_outside_support_is_zero():
    params = _params(M=3)
    assert olbf_joint_pdf_t([0.5, 0.7, 0.1], params) == 0.0
    assert olbf_joint_pdf_t([0.5, 0.2, -0.1], params) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_marginal_t_mass_is_one(n):
    params = _params(M=3, K=10)
    total, _ = integrate.quad(
        lambda t: olbf_marginal_pdf_t_grid(n, np.array([t]), params)[0],
        0.0, 1.0, epsabs=1e-10, epsrel=1e-9, limit=200,
    )
    assert total == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("n", [2, 3])
def test_marginal_grid_matches_adaptive_reference(n):
    params = _params(M=3, K=10)
    for t in (0.3, 0.6, 0.85):
        grid = olbf_marginal_pdf_t_grid(n, np.array([t]), params)[0]
        ref = olbf_marginal_pdf_t(n, t, params)
        assert grid == pytest.approx(ref, rel=5e-6, abs=1e-12)


def test_m2_obf_and_olbf_marginals_agree():
    # for two antennas the two schemes are the same algorithm, so the
    # analytic per-rank densities and mean rates must coincide
    K, P = 10, P15
    ob = ObfParams(M=2, K=K, P=P, r=2)
    ol = OlbfParams(M=2, K=K, P=P)
    ys = np.array([0.2, 1.0, 4.0, 15.0, 60.0])
    for n in (1, 2):
        a = obf_marginal_pdf_grid(n, ys, ob)
        b = olbf_marginal_pdf_sinr_grid(n, ys, ol)
        assert np.allclose(a, b, rtol=1e-5, atol=1e-12)
    assert obf_mean_sum_rate(ob) == pytest.approx(
        olbf_mean_sum_rate(ol), rel=1e-5
    )


def test_mean_sum_rate_unsupported_order():
    with pytest.raises(NotImplementedError):
        olbf_mean_sum_rate(OlbfParams(M=4, K=10, P=10.0))
