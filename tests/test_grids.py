"""The marginal grids and their self-sizing Chebyshev tables: regression pins, outer-rule
checks, inner-rule mass checks, rank checks, the CDF clamp, block invariance and memory
bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from obflab import analytic_obf, analytic_olbf, numerics
from obflab.analytic_obf import ObfParams, obf_marginal_pdf_grid, obf_mean_sum_rate, obf_sinr_grid
from obflab.analytic_olbf import (
    OlbfParams,
    olbf_joint_pdf_t,
    olbf_marginal_pdf_t_grid,
    olbf_mean_sum_rate,
    olbf_sinr_grid,
)
from obflab.grids import CHEB_CAP, CHEB_TOL, MASS_TOL, DistributionGrid
from obflab.numerics import QuadratureError

P15 = 10 ** 1.5
PEAK_MB = 4.0


def test_tabulate_resolves_a_smooth_density():
    # the exponential density of y on u = y/(1+y); E[ln(1+y)] = e E1(1)
    grid = DistributionGrid.tabulate(lambda u: np.exp(-u / (1.0 - u)) / (1.0 - u) ** 2)
    assert grid.n == 64
    assert 0.0 < grid.error < CHEB_TOL
    assert grid.mass == pytest.approx(1.0, rel=1e-12, abs=0)
    assert grid.mean_log1p() == pytest.approx(math.e * float(special.exp1(1.0)), rel=1e-12, abs=0)
    y = np.array([0.0, 1.0 / 3.0, 1.0, np.inf])
    want = np.array([0.0, 1.0 - math.exp(-1.0 / 3.0), 1.0 - math.exp(-1.0), 1.0])
    assert np.allclose(grid.cdf_at(y), want, rtol=0, atol=1e-10)


def test_tabulate_raises_when_unresolved():
    calls = []

    def step(u):
        calls.append(u.size)
        return (u < 0.3).astype(float)

    with pytest.raises(QuadratureError):
        DistributionGrid.tabulate(step)
    # one call per doubling up to the cap, each on the new points only
    assert calls == [16, 16, 32, 64, 128, 256, 512, 1024, CHEB_CAP // 2]


def test_tabulate_refuses_a_resolved_table_off_its_mass():
    # resolved at n = 64 like the exponential density above, but with mass 1 + 1e-5
    with pytest.raises(QuadratureError, match="mass off 1"):
        DistributionGrid.tabulate(lambda u: (1.0 + 1e-5) * np.exp(-u / (1.0 - u)) / (1.0 - u) ** 2)
    grid = DistributionGrid.tabulate(lambda u: (1.0 + MASS_TOL / 2) * np.exp(-u / (1.0 - u))
                                     / (1.0 - u) ** 2)
    assert grid.mass == pytest.approx(1.0 + MASS_TOL / 2, rel=1e-12, abs=0)


def test_tabulate_finds_a_peak_between_its_first_points():
    # at 25 dB the rank-1 density sits within 0.01 of u = 1, and the first
    # 17 points see at most 2e-8 of it: a table that stopped there would
    # carry no mass
    grid = obf_sinr_grid(1, ObfParams(M=3, K=10, P=10 ** 2.5, r=3))
    assert grid.n == 2048
    assert grid.mass == pytest.approx(1.0, rel=1e-12, abs=0)


def test_mean_sum_rate_pins():
    # the values test_mean_sum_rate_matches_adaptive_quadrature confirms; a 96-node
    # inner rule on the same maps gives both within 3.5e-10 relative
    assert olbf_mean_sum_rate(OlbfParams(M=3, K=10, P=P15)) == pytest.approx(
        6.666199992657418, rel=1e-12
    )
    assert obf_mean_sum_rate(ObfParams(M=3, K=10, P=P15, r=3)) == pytest.approx(
        7.773190036522534, rel=1e-12
    )


@pytest.mark.parametrize("snr_db", [15, 25])
@pytest.mark.parametrize("grid, params", [
    (olbf_sinr_grid, lambda P: OlbfParams(M=3, K=10, P=P)),
    (obf_sinr_grid, lambda P: ObfParams(M=3, K=10, P=P, r=3)),
], ids=["olbf", "obf"])
def test_inner_rule_keeps_the_mass(grid, params, snr_db):
    # the inner maps scale with the SNR, so the 48-node rule holds the mass
    # above 15 dB too; with unscaled maps OBF lost 5.9e-2 of it at 25 dB
    for n in (2, 3):
        assert abs(grid(n, params(10 ** (snr_db / 10))).mass - 1.0) <= 1e-8


@pytest.mark.parametrize("snr_db", [0, 15, 25, 30])
def test_m2_obf_and_olbf_tables_agree(snr_db):
    # at M = 2 the two schemes are one algorithm; with unscaled inner maps
    # their rates differed by 4.1 % at 25 dB
    P = 10 ** (snr_db / 10)
    ob, ol = ObfParams(M=2, K=10, P=P, r=2), OlbfParams(M=2, K=10, P=P)
    assert obf_mean_sum_rate(ob) == pytest.approx(olbf_mean_sum_rate(ol), rel=1e-6, abs=0)
    y = P * np.linspace(0.05, 5.0, 100)
    a, b = obf_sinr_grid(2, ob).cdf_at(y), olbf_sinr_grid(2, ol).cdf_at(y)
    assert np.allclose(a, b, rtol=1e-6, atol=0)


@pytest.mark.parametrize("n", [2, 3])
def test_olbf_grid_at_its_endpoints(n):
    # s = 1 maps t_1 to 1 with weight 0 and the density to exactly 0
    values = olbf_marginal_pdf_t_grid(n, [0.0, 1.0], OlbfParams(M=3, K=10, P=P15))
    assert np.all(np.isfinite(values))
    assert values[1] == 0.0


@pytest.mark.parametrize("module, name, rate, params", [
    (analytic_obf, "obf_sinr_grid", obf_mean_sum_rate, ObfParams(M=4, K=10, P=10.0, r=4)),
    (analytic_olbf, "olbf_sinr_grid", olbf_mean_sum_rate, OlbfParams(M=4, K=10, P=10.0)),
], ids=["obf", "olbf"])
def test_mean_sum_rate_checks_the_cap_before_any_table(module, name, rate, params, monkeypatch):
    calls, grid = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return grid(*args)

    monkeypatch.setattr(module, name, counted)
    with pytest.raises(NotImplementedError):
        rate(params)
    assert calls == []


@pytest.mark.parametrize("error, call", [
    (ValueError, lambda: obf_marginal_pdf_grid(3, [1.0], ObfParams(M=3, K=10, P=P15, r=2))),
    (ValueError, lambda: obf_marginal_pdf_grid(0, [1.0], ObfParams(M=3, K=10, P=P15, r=3))),
    (ValueError, lambda: olbf_marginal_pdf_t_grid(3, [0.5], OlbfParams(M=2, K=10, P=P15))),
    (ValueError, lambda: olbf_marginal_pdf_t_grid(0, [0.5], OlbfParams(M=3, K=10, P=P15))),
    (NotImplementedError,
     lambda: obf_marginal_pdf_grid(4, [1.0], ObfParams(M=4, K=10, P=P15, r=4))),
    (NotImplementedError,
     lambda: olbf_marginal_pdf_t_grid(4, [0.5], OlbfParams(M=4, K=10, P=P15))),
], ids=["obf-above-r", "obf-zero", "olbf-above-m", "olbf-zero", "obf-above-cap", "olbf-above-cap"])
def test_grid_rank_out_of_range_raises(error, call):
    with pytest.raises(error):
        call()


def test_olbf_cdf_roundoff_counts_as_zero_and_beyond_raises(monkeypatch):
    # F_n below 1e-3 is replaced by a constant: -1e-12 is roundoff and must
    # give exactly what 0 gives; -1e-8 is not, on the grid as at one point
    params = OlbfParams(M=3, K=10, P=P15)
    ss = np.array([0.05, 0.3, 0.6, 0.9])
    cdf = analytic_olbf._Corners.cdf

    def patched(value):
        def low_to(self, n):
            F = cdf(self, n)
            return np.where(F < 1e-3, value, F)

        monkeypatch.setattr(analytic_olbf._Corners, "cdf", low_to)

    for n in (2, 3):
        patched(0.0)
        want = olbf_marginal_pdf_t_grid(n, ss, params)
        assert np.all(want > 0)
        patched(-1e-12)
        assert np.array_equal(olbf_marginal_pdf_t_grid(n, ss, params), want)
        patched(-1e-8)
        with pytest.raises(ArithmeticError):
            olbf_marginal_pdf_t_grid(n, ss, params)
    with pytest.raises(ArithmeticError):
        olbf_joint_pdf_t([0.3, 0.1, 0.05], params)


def _olbf_log_rate(n, params):
    return integrate.quad(
        lambda t: -math.log1p(-t) * olbf_marginal_pdf_t_grid(n, np.array([t]), params)[0],
        0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=200,
    )[0]


def _obf_log_rate(n, params):
    return integrate.quad(
        lambda y: math.log1p(y) * obf_marginal_pdf_grid(n, np.array([y]), params)[0],
        0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=200,
    )[0]


@pytest.mark.parametrize("rate, log_rate, params", [
    (olbf_mean_sum_rate, _olbf_log_rate, OlbfParams(M=3, K=10, P=P15)),
    (olbf_mean_sum_rate, _olbf_log_rate, OlbfParams(M=3, K=50, P=P15)),
    (obf_mean_sum_rate, _obf_log_rate, ObfParams(M=3, K=10, P=P15, r=3)),
], ids=["olbf-3-10", "olbf-3-50", "obf-3-10"])
def test_mean_sum_rate_matches_adaptive_quadrature(rate, log_rate, params):
    # the same marginal densities integrated by adaptive quadrature: checks
    # the outer rule alone
    want = sum(log_rate(n, params) for n in range(1, params.r + 1))
    assert rate(params) == pytest.approx(want, rel=1e-9, abs=0)


@pytest.mark.parametrize("grid, params", [
    (olbf_sinr_grid, OlbfParams(M=3, K=10, P=P15)),
    (obf_sinr_grid, ObfParams(M=3, K=10, P=P15, r=3)),
], ids=["olbf", "obf"])
def test_tables_are_resolved(grid, params):
    for n in (1, 2, 3):
        g = grid(n, params)
        assert g.error <= CHEB_TOL
        assert g.mass == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(g.cdf_at([-1.0, 0.0]), 0.0, rtol=0, atol=1e-15)
        assert g.cdf_at(np.inf) == pytest.approx(g.mass, rel=1e-14, abs=0)
        y = np.linspace(0.0, 200.0, 2001)
        assert np.all(np.diff(g.cdf_at(y)) > -1e-9)
        # the lookup against the series itself, summed at each value
        series = np.polynomial.chebyshev.chebval((y - 1.0) / (y + 1.0), g.cdf)
        assert np.allclose(g.cdf_at(y), series, rtol=0, atol=1e-7)


@pytest.mark.parametrize("M", [2, 3])
def test_cdf_at_reads_the_series_exact_ends(M):
    # the FFT lookup's end values carried roundoff, so cdf_at(0) read between
    # -2.2e-16 and 1.7e-16 and `analytic` could print a negative CDF
    for db in (0.0, 15.0, 25.0):
        P = 10.0 ** (db / 10.0)
        for n in range(1, M + 1):
            for g in (obf_sinr_grid(n, ObfParams(M=M, K=10, P=P, r=M)),
                      olbf_sinr_grid(n, OlbfParams(M=M, K=10, P=P))):
                assert g.cdf_at([0.0, 1e300, np.inf]).tolist() == [0.0, g.mass, g.mass]


def _obf_density(n, u, params):
    return obf_marginal_pdf_grid(n, u / (1.0 - u), params) / (1.0 - u) ** 2


CASES = {
    "olbf": (olbf_sinr_grid, olbf_marginal_pdf_t_grid, OlbfParams(M=3, K=10, P=P15)),
    "obf": (obf_sinr_grid, _obf_density, ObfParams(M=3, K=10, P=P15, r=3)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def rank3(request):
    """The rank-3 grid, built from an empty cache, and the traced peak memory of building it."""
    grid_fn, pdf_fn, params = CASES[request.param]
    grid_fn.cache_clear()
    tracemalloc.start()
    try:
        grid = grid_fn(3, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return request.param, pdf_fn, params, grid, peak


def test_rank3_grid_peak_memory(rank3):
    kind, _, _, _, peak = rank3
    assert peak / 1e6 <= PEAK_MB, f"{kind}: {peak / 1e6:.1f} MB"


def _assert_block_invariant(pdf_fn, n, params, grid):
    # the grid's values came in doublings of 16, 16, 32, 64, ... points;
    # slices whose edges line up with neither those nor the blocks agree bit for bit
    u = grid.points[1:]  # u = 1 is not evaluated
    edges = (0, 1, 50, 97, u.size)
    parts = np.concatenate([pdf_fn(n, u[a:b], params) for a, b in zip(edges[:-1], edges[1:])])
    assert np.array_equal(parts, grid.values[1:])


def test_rank3_grid_chunk_invariance(rank3):
    _, pdf_fn, params, grid, _ = rank3
    _assert_block_invariant(pdf_fn, 3, params, grid)


def test_olbf_rank2_grid_chunk_invariance(monkeypatch):
    # a rank-2 block holds 341 points, so each doubling of the table is one
    # block; in blocks of 13 points they split, and no value moves
    params = OlbfParams(M=3, K=10, P=P15)
    grid = olbf_sinr_grid(2, params)
    _assert_block_invariant(olbf_marginal_pdf_t_grid, 2, params, grid)
    monkeypatch.setattr(numerics, "GRID_BLOCK_BYTES", 13 * 8 * numerics.INNER_NODES)
    _assert_block_invariant(olbf_marginal_pdf_t_grid, 2, params, grid)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_one_point_blocks_give_the_same_values(kind, n, monkeypatch):
    grid_fn, pdf_fn, params = CASES[kind]
    grid = grid_fn(n, params)
    monkeypatch.setattr(numerics, "GRID_BLOCK_BYTES", 1)  # every block is one point
    assert np.array_equal(pdf_fn(n, grid.points[1:], params), grid.values[1:])


@pytest.mark.parametrize("module, kind", [(analytic_olbf, "olbf"), (analytic_obf, "obf")],
                         ids=["olbf", "obf"])
def test_node_tensors_stay_within_the_budget(module, kind, monkeypatch):
    grid_fn, _, params = CASES[kind]
    sizes = []

    def measured(n, r, points, pieces, joint):
        def sized(variables):
            f = joint(variables)
            sizes.append(f.nbytes)
            return f

        return numerics.marginal_grid(n, r, points, pieces, sized)

    monkeypatch.setattr(module, "marginal_grid", measured)
    grid_fn.cache_clear()
    for n in (2, 3):
        grid_fn(n, params)
    assert sizes and max(sizes) <= numerics.GRID_BLOCK_BYTES
