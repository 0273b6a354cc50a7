"""Regression pins, chunk invariance and memory bounds of the analytic grids."""

import tracemalloc

import numpy as np
import pytest

from obflab.analytic_obf import ObfParams, obf_marginal_pdf_grid, obf_mean_sum_rate
from obflab.analytic_olbf import OlbfParams, olbf_marginal_pdf_t_grid, olbf_mean_sum_rate
from obflab.grids import _compressed_axis, obf_sinr_grid, olbf_sinr_grid

P15 = 10 ** 1.5
POINTS = 800
SLICES = (0, 1, 150, 433, POINTS)  # block edges that do not line up with the chunking
PEAK_MB = 150.0


def test_mean_sum_rate_pins():
    assert olbf_mean_sum_rate(OlbfParams(M=3, K=10, P=P15)) == pytest.approx(
        6.666209591441985, rel=1e-12
    )
    assert obf_mean_sum_rate(ObfParams(M=3, K=10, P=P15, r=3)) == pytest.approx(
        7.773191758344928, rel=1e-12
    )


CASES = {
    "olbf": (olbf_sinr_grid, olbf_marginal_pdf_t_grid, OlbfParams(M=3, K=10, P=P15)),
    "obf": (obf_sinr_grid, obf_marginal_pdf_grid, ObfParams(M=3, K=10, P=P15, r=3)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def rank3(request):
    """The rank-3 grid at 800 points and the traced peak memory of building it."""
    grid_fn, pdf_fn, params = CASES[request.param]
    tracemalloc.start()
    try:
        grid = grid_fn(3, params, POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return request.param, pdf_fn, params, grid, peak


def test_rank3_grid_peak_memory(rank3):
    kind, _, _, _, peak = rank3
    assert peak / 1e6 <= PEAK_MB, f"{kind}: {peak / 1e6:.0f} MB"


def test_rank3_grid_chunk_invariance(rank3):
    kind, pdf_fn, params, grid, _ = rank3
    u, y = _compressed_axis(POINTS, 0.9995)
    axis = u if kind == "olbf" else y
    parts = np.concatenate(
        [pdf_fn(3, axis[a:b], params) for a, b in zip(SLICES[:-1], SLICES[1:])]
    )
    if kind == "olbf":
        parts = parts * (1.0 - u) ** 2
    assert np.allclose(parts, grid.pdf, rtol=1e-14, atol=0.0)
