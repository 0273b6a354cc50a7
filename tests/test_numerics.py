import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from obflab.numerics import (
    GammaLadder,
    QuadratureError,
    QuadratureSpec,
    exp_integral_e1,
    gauss_legendre_nodes,
    integrate_1d,
    integrate_nested,
    integrate_semi_infinite,
    upper_incomplete_gamma,
    upper_incomplete_gamma_array,
)


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
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("s", [0, -1, -2, -3, -5])
def test_upper_gamma_nonpositive_order_vs_oracle(s):
    for x in X_GRID:
        got = upper_incomplete_gamma(s, x)
        want = _gamma_oracle(s, x)
        assert got == pytest.approx(want, rel=1e-10)


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
    for x in X_GRID:
        got = exp_integral_e1(x)
        assert got == pytest.approx(float(special.exp1(x)), rel=1e-12)
        want, _ = integrate.quad(
            lambda t: math.exp(-t) / t, x, np.inf,
            epsabs=1e-300, epsrel=1e-13, limit=400,
        )
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_gamma_zero_order_is_e1():
    for x in X_GRID:
        assert upper_incomplete_gamma(0, x) == pytest.approx(
            exp_integral_e1(x), rel=1e-12
        )


def test_upper_gamma_array_matches_scalar():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.01, 40.0, size=500)
    for s in (-4, -1, 0, 1, 3, 6):
        got = upper_incomplete_gamma_array(s, x)
        want = np.array([upper_incomplete_gamma(s, v) for v in x])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


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
    # both sides of the switch between the downward and upward recurrences,
    # and large x, where a downward-only recurrence loses log10(x) digits a step
    x = np.geomspace(1e-3, 600.0, 61)
    ladder = GammaLadder(x, lowest=-5)
    for s in range(-5, 1):
        want = np.array([_scaled_gamma_oracle(s, v) for v in x])
        got = ladder(s) * np.exp(x)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), s
        scalar = np.array([upper_incomplete_gamma(s, v) for v in x]) * np.exp(x)
        assert np.allclose(scalar, want, rtol=1e-12, atol=0.0), s


def test_ladder_positive_orders_match_regularised_gamma():
    x = np.geomspace(1e-3, 700.0, 200)
    ladder = GammaLadder(x)
    for s in range(1, 9):
        want = special.gammaincc(s, x) * math.gamma(s)  # itself off by 1e-13 near x = 600
        assert np.allclose(ladder(s), want, rtol=1e-12, atol=0.0), s


def test_ladder_edge_values():
    x = np.array([745.0, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in range(-4, 7):
            got = GammaLadder(x, lowest=min(s, 1))(s)
            assert np.all(got == 0.0), (s, got)
        zero = GammaLadder(np.zeros(3))
        for s in range(1, 7):
            assert np.all(zero(s) == math.factorial(s - 1)), s


def test_ladder_order_below_lowest_and_domain():
    with pytest.raises(ValueError):
        GammaLadder(np.array([1.0]), lowest=-1)(-2)
    with pytest.raises(ValueError):
        GammaLadder(np.array([0.0, 1.0]), lowest=0)
    with pytest.raises(ValueError):
        GammaLadder(np.array([-1.0]))


def test_integrate_1d_known_value():
    spec = QuadratureSpec()
    got = integrate_1d(lambda t: math.sin(t), 0.0, math.pi, spec)
    assert got == pytest.approx(2.0, rel=1e-10)


def test_integrate_semi_infinite_exponential():
    spec = QuadratureSpec()
    got = integrate_semi_infinite(lambda t: math.exp(-t), 0.0, spec)
    assert got == pytest.approx(1.0, rel=1e-9)
    got = integrate_semi_infinite(lambda t: t * math.exp(-t), 1.0, spec)
    assert got == pytest.approx(2.0 / math.e, rel=1e-9)


def test_integrate_nested_separable():
    spec = QuadratureSpec()
    got = integrate_nested(
        lambda a, b, c: a * b * c,
        [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)],
        spec,
    )
    assert got == pytest.approx(0.5 * 2.0 * 4.5, rel=1e-9)


def test_integrate_nested_dependent_bounds():
    spec = QuadratureSpec()
    # volume of the simplex a + b <= 1 in the unit square
    got = integrate_nested(
        lambda a, b: 1.0, [(0.0, 1.0), (0.0, lambda a: 1.0 - a)], spec
    )
    assert got == pytest.approx(0.5, rel=1e-10)


def test_quadrature_spec_validation_and_tighten():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1.0)
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
    tight = spec.tightened(2)
    assert tight.rel_tol == pytest.approx(1e-8)
    assert tight.abs_tol == pytest.approx(1e-11)


def test_quadrature_error_carries_estimate():
    err = QuadratureError("failed", estimate=1.5, error_bound=0.1)
    assert err.estimate == 1.5
    assert err.error_bound == 0.1


def test_gauss_legendre_exactness():
    # n-point rule is exact for polynomials up to degree 2n-1
    nodes, weights = gauss_legendre_nodes(8, -1.0, 3.0)
    for deg in range(16):
        got = float(np.dot(weights, nodes ** deg))
        want = (3.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
