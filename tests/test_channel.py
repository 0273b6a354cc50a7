import numpy as np
import pytest
from scipy import stats

from obflab import channel
from obflab.channel import (
    BeamformerMatrix,
    ChannelSet,
    SystemParams,
    draw_channel_batch,
    draw_channel_blocks,
    null_space_basis,
    substream,
)
from obflab.channel import null_space_basis_batch


def test_system_params_validation():
    SystemParams(M=3, K=10, P=1.0, r=3)
    with pytest.raises(ValueError):
        SystemParams(M=0, K=10, P=1.0, r=1)
    with pytest.raises(ValueError):
        SystemParams(M=3, K=2, P=1.0, r=3)
    with pytest.raises(ValueError):
        SystemParams(M=3, K=10, P=-1.0, r=3)


@pytest.mark.parametrize("P", [0.0, float("nan"), float("inf")])
def test_params_records_refuse_a_power_that_is_not_finite_and_positive(P):
    # NaN passed the old P <= 0 check; the audits then failed on NaN SINRs
    from obflab.analytic_obf import ObfParams
    from obflab.analytic_olbf import OlbfParams

    for record in (lambda: SystemParams(M=3, K=10, P=P, r=3), lambda: ObfParams(3, 10, P, 3),
                   lambda: OlbfParams(3, 10, P)):
        with pytest.raises(ValueError, match="P must be positive and finite"):
            record()


def test_substream_determinism_and_independence():
    a = substream(42, 0).standard_normal(8)
    b = substream(42, 0).standard_normal(8)
    c = substream(42, 1).standard_normal(8)
    d = substream(43, 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("count,block_entries", [
    pytest.param(1, channel.BLOCK_ENTRIES, id="1"),
    pytest.param(4096, channel.BLOCK_ENTRIES, id="4096"),  # one block
    pytest.param(100, 90, id="100-slices-of-90"),  # blocks of 3 trials, and a last one of 1
    pytest.param(7, 20, id="7-slices-of-20"),  # one trial per block, K*M > block_entries
])
def test_draw_matches_the_complex_formula_bit_for_bit(count, block_entries):
    # the whole batch, and the blocks a chunk of trials is drawn in, take each
    # entry's real and then imaginary part from the stream; the stream and
    # every bit must match one (re, im) draw of the whole batch, and the
    # random picks drawn after it too
    ref_rng = substream(5, 3)
    pairs = ref_rng.standard_normal((count, 10, 3, 2)) * (1.0 / np.sqrt(2.0))
    ref = pairs[..., 0] + 1j * pairs[..., 1]
    after = ref_rng.random()

    rng = substream(5, 3)
    H = draw_channel_batch(10, 3, rng, count)
    assert H.dtype == np.complex128 and H.shape == ref.shape
    assert np.array_equal(H.view(np.uint64), ref.view(np.uint64))
    assert rng.random() == after

    step = max(1, block_entries // 30)
    rng = substream(5, 3)
    blocks = [(lo, H.copy()) for lo, H in draw_channel_blocks(10, 3, rng, count, step)]
    assert [lo for lo, _ in blocks] == list(range(0, count, step))
    H = np.concatenate([H for _, H in blocks])
    assert np.array_equal(H.view(np.uint64), ref.view(np.uint64))
    assert rng.random() == after


def test_channel_entry_statistics():
    # unit-variance complex Gaussian entries: Re/Im each variance 1/2
    H = draw_channel_batch(4, 3, substream(1, 0), count=5000).reshape(-1)
    assert np.mean(H.real) == pytest.approx(0.0, abs=0.02)
    assert np.var(H.real) == pytest.approx(0.5, rel=0.05)
    assert np.var(H.imag) == pytest.approx(0.5, rel=0.05)
    assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, rel=0.05)


def test_squared_norm_is_gamma_M():
    # ||h||^2 for an M-vector of unit-variance complex Gaussians ~ Gamma(M, 1)
    M = 3
    H = draw_channel_batch(1, M, substream(2, 0), count=20000)[:, 0, :]
    norms = np.sum(np.abs(H) ** 2, axis=1)
    d, p = stats.kstest(norms, "gamma", args=(M,))
    assert p > 1e-3, (d, p)


def test_projection_direction_statistics_unitarily_invariant():
    # the squared gain after projecting off one fixed direction ~ Gamma(M-1)
    M = 3
    rng = substream(3, 0)
    H = draw_channel_batch(1, M, rng, count=20000)[:, 0, :]
    e1 = np.zeros(M, dtype=complex)
    e1[0] = 1.0
    W = e1.reshape(M, 1)
    gains = []
    for h in H:
        residual = h - e1 * (e1.conj() @ h)
        gains.append(float(np.sum(np.abs(residual) ** 2)))
    d, p = stats.kstest(np.array(gains), "gamma", args=(M - 1,))
    assert p > 1e-3, (d, p)


def test_null_space_basis_properties_and_determinism():
    rng = substream(5, 0)
    M = 4
    for _ in range(50):
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        v = v / np.linalg.norm(v)
        B1 = null_space_basis(v)
        B2 = null_space_basis(v)
        assert B1.shape == (M, M - 1)
        assert np.array_equal(B1, B2)
        assert np.max(np.abs(B1.conj().T @ v)) < 1e-10
        assert np.allclose(B1.conj().T @ B1, np.eye(M - 1), atol=1e-12)


def test_null_space_basis_batch_matches_scalar():
    rng = substream(6, 0)
    M = 3
    V = rng.standard_normal((20, M)) + 1j * rng.standard_normal((20, M))
    V = V / np.linalg.norm(V, axis=1, keepdims=True)
    batch = null_space_basis_batch(V)
    for i in range(20):
        assert np.allclose(batch[i], null_space_basis(V[i]), atol=1e-12)


def test_beamformer_matrix_validation():
    M = 3
    q, _ = np.linalg.qr(
        substream(7, 0).standard_normal((M, 2))
        + 1j * substream(7, 1).standard_normal((M, 2))
    )
    BeamformerMatrix(W=q[:, :2])
    with pytest.raises(ValueError):
        BeamformerMatrix(W=2.0 * q[:, :2])


def test_channel_set_validation():
    with pytest.raises(ValueError):
        ChannelSet(H=np.zeros((3,), dtype=complex))
