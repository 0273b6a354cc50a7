import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from obflab.numerics import QuadratureError, inner_rule, lower_gamma_ladder, lower_gamma_moment
from oracles import integrate_1d, integrate_semi_infinite, upper_incomplete_gamma


def _gamma_oracle(s: int, x: float) -> float:
    """Quadrature oracle for the upper incomplete gamma function."""
    val, err = integrate.quad(
        lambda t: t ** (s - 1) * math.exp(-t), x, np.inf,
        epsabs=1e-300, epsrel=1e-13, limit=400,
    )
    return val


X_GRID = [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 80.0]


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 8])
def test_upper_gamma_positive_order_vs_oracle(s):
    for x in X_GRID:
        got = upper_incomplete_gamma(s, x)
        want = _gamma_oracle(s, x)
        assert got == pytest.approx(want, rel=1e-10, abs=0)  # Gamma(s, 80) ~ 1e-35


@pytest.mark.parametrize("s", [0, -1, -2, -3, -5])
def test_upper_gamma_nonpositive_order_vs_oracle(s):
    for x in X_GRID:
        got = upper_incomplete_gamma(s, x)
        want = _gamma_oracle(s, x)
        assert got == pytest.approx(want, rel=1e-10, abs=0)  # Gamma(-5, 80) ~ 1e-46


def test_upper_gamma_recurrence_identity():
    # Gamma(s+1, x) = s * Gamma(s, x) + x^s e^{-x}
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = int(rng.integers(-5, 6))
        x = float(rng.uniform(0.01, 20.0))
        lhs = upper_incomplete_gamma(s + 1, x)
        rhs = s * upper_incomplete_gamma(s, x) + x ** s * math.exp(-x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


def test_exp_integral_vs_scipy_and_oracle():
    # E1(x) is served by the order-0 incomplete gamma
    for x in X_GRID:
        got = upper_incomplete_gamma(0, x)
        assert got == pytest.approx(float(special.exp1(x)), rel=1e-12, abs=0)  # E1(80) ~ 2e-37
        want, _ = integrate.quad(
            lambda t: math.exp(-t) / t, x, np.inf,
            epsabs=1e-300, epsrel=1e-13, limit=400,
        )
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_gamma_zero_order_is_e1():
    x = np.array(X_GRID)
    want = special.exp1(x)
    for v, w in zip(X_GRID, want):
        assert upper_incomplete_gamma(0, v) == pytest.approx(float(w), rel=1e-12, abs=0)


def test_upper_gamma_array_matches_scalar():
    # the ladder's P(s, x) is 1 - Gamma(s, x)/(s-1)! of the scalar reference
    rng = np.random.default_rng(5)
    x = rng.uniform(0.01, 40.0, size=500)
    ladder = lower_gamma_ladder(6, x, 1)
    for s in (1, 3, 6):
        want = np.array([1.0 - upper_incomplete_gamma(s, v) / math.gamma(s) for v in x])
        assert np.allclose(ladder[s], want, rtol=1e-12, atol=1e-15)


def _scaled_gamma_oracle(s: int, x: float) -> float:
    """e^x Gamma(s, x) = int_x^inf e^-(t-x) t^(s-1) dt, clear of underflow.

    Split at t = 2x so quad resolves the peak of t^(s-1) at small x.
    """
    def f(t):
        return math.exp(x - t) * t ** (s - 1)

    head, _ = integrate.quad(f, x, 2.0 * x, epsabs=0.0, epsrel=1e-13, limit=400)
    tail, _ = integrate.quad(f, 2.0 * x, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return head + tail


def test_ladder_nonpositive_orders_vs_oracle():
    # the scalar reference's non-positive orders, on both sides of its switch
    # from the downward recurrence to x^s E_{1-s}(x), and at large x, where a
    # downward-only recurrence loses log10(x) digits a step; the package's
    # ladder has no order below 1
    x = np.geomspace(1e-3, 600.0, 61)
    for s in range(-5, 1):
        want = np.array([_scaled_gamma_oracle(s, v) for v in x])
        scalar = np.array([upper_incomplete_gamma(s, v) for v in x]) * np.exp(x)
        assert np.allclose(scalar, want, rtol=1e-12, atol=0.0), s


def test_ladder_positive_orders_match_regularised_gamma():
    # every order of one ladder against scipy's own P(s, x); the top order is that call
    x = np.geomspace(1e-3, 700.0, 200)
    ladder = lower_gamma_ladder(8, x, 1)
    assert sorted(ladder) == list(range(1, 9))
    for s in range(1, 9):
        assert np.allclose(ladder[s], special.gammainc(s, x), rtol=1e-13, atol=0.0), s


def _mp_P(s, x):
    """P(s, x) to 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.gammainc(s, 0, mpmath.mpf(x), regularized=True))


X_LADDER = [1e-300, 1e-8, 0.5, 50.0, 700.0, 1e300]


@pytest.mark.parametrize("s", range(1, 9))
def test_ladder_vs_mpmath(s):
    # P(s, X) read off a ladder from order 8 down, and as the top order of its
    # own; X = s puts P near its median
    x = np.array(X_LADDER + [float(s)])
    want = [_mp_P(s, v) for v in x]
    for got in (lower_gamma_ladder(8, x, 1)[s], lower_gamma_ladder(s, x)[s]):
        for g, w, v in zip(got, want, x):
            assert g == pytest.approx(w, rel=1e-13, abs=0), (s, v)


def test_ladder_edge_values():
    # exactly 0 at X = 0 and exactly 1 where X is infinite, with no warning
    x = np.array([0.0, 745.0, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in range(1, 8):
            ladder = lower_gamma_ladder(M, x, 1)
            for s in range(1, M + 1):
                assert ladder[s][0] == 0.0 and ladder[s][-1] == 1.0, (M, s, ladder[s])
                assert np.all(ladder[s][1:] == 1.0), (M, s, ladder[s])


def test_ladder_order_below_lowest_and_domain():
    # the lowest order is 1, and the ladder holds exactly the orders asked for
    for lowest in (0, -1, -5):
        with pytest.raises(ValueError, match="below 1"):
            lower_gamma_ladder(4, np.array([1.0]), lowest)
    with pytest.raises(ValueError, match="below 1"):
        lower_gamma_ladder(3, 1.0, 4)
    assert sorted(lower_gamma_ladder(5, np.ones((2, 3)), 3)) == [3, 4, 5]
    assert sorted(lower_gamma_ladder(5, 2.0)) == [5]
    with pytest.raises(ValueError, match="nonnegative"):
        lower_gamma_ladder(3, np.array([-1.0]))


@pytest.mark.parametrize("M", [2, 3, 5])
def test_lower_gamma_moment_vs_quadrature(M):
    # G_p(sigma; tau) = int_sigma^tau f_1(z) (z - sigma)^p / p! dz for every p < M
    c = 0.3
    rng = np.random.default_rng(20 + M)
    tau = rng.uniform(0.05, 0.95, 6)
    sigma = tau * rng.uniform(0.0, 0.999, 6)
    o = 1.0 - sigma
    X = c * (tau - sigma) / ((1.0 - tau) * o)
    ladder = lower_gamma_ladder(M, X, 1)
    for p in range(M):
        got = lower_gamma_moment(p, M, c, np.exp(c - c / o), o, ladder)
        for g, a, b in zip(got, sigma, tau):
            want, _ = integrate.quad(
                lambda z: (c ** M * math.exp(-c * z / (1 - z)) / (1 - z) ** (M + 1)
                           * (z - a) ** p / math.factorial(p)),
                a, b, epsabs=0.0, epsrel=1e-13, limit=200)
            assert g == pytest.approx(want, rel=1e-11, abs=0), (p, a, b)


def test_integrate_1d_known_value():
    got = integrate_1d(lambda t: math.sin(t), 0.0, math.pi)
    assert got == pytest.approx(2.0, rel=1e-10)


def test_integrate_semi_infinite_exponential():
    got = integrate_semi_infinite(lambda t: math.exp(-t), 0.0)
    assert got == pytest.approx(1.0, rel=1e-9)
    got = integrate_semi_infinite(lambda t: t * math.exp(-t), 1.0)
    assert got == pytest.approx(2.0 / math.e, rel=1e-9)


def test_quadrature_error_carries_estimate():
    err = QuadratureError("failed", estimate=1.5, error_bound=0.1)
    assert err.estimate == 1.5
    assert err.error_bound == 0.1


def test_gauss_legendre_exactness():
    # the n-point inner rule is exact on [0, 1] for polynomials up to degree 2n-1
    nodes, weights = inner_rule()
    for deg in range(2 * nodes.size):
        got = float(np.dot(weights, nodes ** deg))
        assert got == pytest.approx(1.0 / (deg + 1), rel=1e-12, abs=1e-12)
