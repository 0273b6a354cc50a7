import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from obflab import batch, channel, grids, montecarlo, schedulers
from obflab.analytic_obf import ObfParams
from obflab.channel import SystemParams, draw_channel_batch, substream
from obflab.montecarlo import (
    CHUNK,
    ExperimentConfig,
    ExperimentReport,
    attach_analysis,
    ks_distance,
    run_experiment,
)

P15 = 10.0 ** 1.5


def _config(scheme="adaptive-obf", M=2, K=4, P=10.0, trials=1000, seed=1, force_r=None):
    return ExperimentConfig(
        params=SystemParams(M=M, K=K, P=P, r=M),
        scheme=scheme,
        trials=trials,
        seed=seed,
        force_r=force_r,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        _config(scheme="nope")
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(scheme="olbf", force_r=2)
    assert _config(scheme="adaptive-obf", force_r=2).effective_r == 2


def test_empirical_distribution_sorts_and_validates():
    # ks_distance sorts the samples into their empirical CDF and refuses empty or NaN ones
    seen = []

    def uniform(x):
        seen.append(x.copy())
        return x

    assert ks_distance(np.array([0.9, 0.1, 0.5]), uniform) == pytest.approx(1 / 3 - 0.1)
    assert np.array_equal(seen[0], [0.1, 0.5, 0.9])
    for bad in ([np.nan, 1.0], [], [[0.5]]):
        with pytest.raises(ValueError):
            ks_distance(np.array(bad), uniform)


def test_ks_distance_trivial_cases():
    # a single sample at the median of the distribution: D = 1/2
    assert ks_distance(np.array([0.5]), lambda x: x) == pytest.approx(0.5)
    # samples exactly on the uniform quantile midpoints minimize D, in any order
    n = 10
    mids = (np.arange(n) + 0.5) / n
    assert ks_distance(mids[::-1], lambda x: x) == pytest.approx(0.5 / n)
    # degenerate CDF far away: D = 1
    assert ks_distance(np.array([0.2, 0.1]), np.zeros_like) == 1.0


def test_ks_distance_matches_scipy():
    rng = np.random.default_rng(7)
    x = rng.exponential(size=500)
    got = ks_distance(x, lambda v: 1.0 - np.exp(-v))
    want = stats.kstest(x, "expon").statistic
    assert got == pytest.approx(want, rel=1e-12)


def test_report_shapes_and_stats():
    config = _config(trials=2500, seed=3)
    report = run_experiment(config)
    assert report.users.shape == (2500, 2)
    assert report.sinrs.shape == (2500, 2)
    assert report.sum_rates.shape == (2500,)
    want = float(np.mean(report.sum_rates))
    assert report.mean_sum_rate == pytest.approx(want, rel=1e-12)
    sem = float(np.std(report.sum_rates, ddof=1) / math.sqrt(2500))
    assert report.stderr_sum_rate == pytest.approx(sem, rel=1e-9)
    assert np.allclose(
        report.sum_rates, np.sum(np.log1p(report.sinrs), axis=1), rtol=1e-12
    )


def test_serial_and_parallel_bit_identical():
    config = _config(trials=2 * CHUNK + 500, seed=11)
    serial = run_experiment(config, threads=1)
    parallel = run_experiment(config, threads=4)
    assert np.array_equal(serial.sinrs, parallel.sinrs)
    assert np.array_equal(serial.users, parallel.users)
    assert np.array_equal(serial.sum_rates, parallel.sum_rates)
    assert serial.mean_sum_rate == parallel.mean_sum_rate


def test_audit_sees_each_audited_trials_own_channels(monkeypatch):
    config = _config(scheme="zfdp", trials=2 * CHUNK + 17, seed=13)
    real, calls = montecarlo._audit_trial, []

    def record(cfg, H_row, users, sinrs):
        calls.append((H_row, users, sinrs))
        real(cfg, H_row, users, sinrs)

    monkeypatch.setattr(montecarlo, "_audit_trial", record)
    report = run_experiment(config, threads=2)
    audited = list(range(0, config.trials, 1000))
    assert len(calls) == math.ceil(config.trials / 1000) == len(audited)
    sizes = [CHUNK, CHUNK, 17]
    local = []
    for t, (H_row, users, sinrs) in zip(audited, calls):
        c, i = divmod(t, CHUNK)
        local.append((c, i))
        H = draw_channel_batch(config.params.K, config.params.M, substream(config.seed, c),
                               sizes[c])
        assert np.array_equal(H_row, H[i]), t
        assert np.array_equal(users, report.users[t]) and np.array_equal(sinrs, report.sinrs[t])
    assert (1, 904) in local  # chunk 1's first audited trial, t = 5000


def test_run_memory_does_not_grow_with_the_channels():
    # only the outputs and the audited channel rows outlive a chunk, so six
    # more chunks cost their users, SINRs and rates (1.7 MiB) plus at most
    # 1 MiB of slack, not their 150 MiB of channels
    def peak(chunks):
        config = ExperimentConfig(params=SystemParams(M=4, K=100, P=P15, r=4), scheme="olbf",
                                  trials=chunks * CHUNK, seed=21)
        tracemalloc.start()
        try:
            run_experiment(config, threads=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2), peak(8)
    outputs = 6 * CHUNK * (4 * 8 + 4 * 8 + 8)  # per trial: 4 int64 users, 4 SINRs, 1 rate
    assert large - small <= outputs + 2**20, ((large - small) / 2**20, outputs / 2**20)


def test_run_peak_memory_stays_near_its_outputs():
    # the chunks write into the preallocated outputs; keeping the chunks'
    # results and their concatenation alive together peaked at 3.2 times them
    config = ExperimentConfig(params=SystemParams(M=3, K=10, P=P15, r=3), scheme="zfdp",
                              trials=64 * CHUNK, seed=4)
    tracemalloc.start()
    try:
        report = run_experiment(config, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = report.users.nbytes + report.sinrs.nbytes + report.sum_rates.nbytes
    assert peak <= 2.5 * outputs, peak / outputs


@pytest.mark.parametrize("scheme", montecarlo.SCHEMES)
@pytest.mark.parametrize("block_entries,trials", [
    pytest.param(1000, CHUNK + 300, id="blocks-of-27-uneven"),
    pytest.param(30, 300, id="one-trial-per-block"),  # K*M = 36 > block_entries
])
def test_blocked_chunks_match_one_kernel_call(monkeypatch, scheme, block_entries, trials):
    # the pinned rates run at K <= 10, where a chunk is one block; here the
    # chunks split, and every row must be that of one whole-chunk kernel call,
    # whose random picks come from the first child of the chunk's substream
    monkeypatch.setattr(channel, "BLOCK_ENTRIES", block_entries)
    config = _config(scheme=scheme, M=3, K=12, P=P15, trials=trials, seed=31)
    report = run_experiment(config, threads=2)
    p, spec = config.params, config.spec
    for c in range(math.ceil(trials / CHUNK)):
        rows = slice(c * CHUNK, min((c + 1) * CHUNK, trials))
        H = draw_channel_batch(p.K, p.M, substream(config.seed, c), rows.stop - rows.start)
        picks = substream(config.seed, c).spawn(1)[0]
        users, sinrs, rates = spec.kernel(H, p.P, config.effective_r, picks)
        assert np.array_equal(report.users[rows], users), c
        assert np.array_equal(report.sinrs[rows].view(np.uint64), sinrs.view(np.uint64)), c
        assert np.array_equal(report.sum_rates[rows].view(np.uint64), rates.view(np.uint64)), c


@pytest.mark.parametrize("block_entries", [
    pytest.param(30, id="one-trial-per-block"),  # K*M = 36 > block_entries
    pytest.param(1000, id="blocks-of-27-uneven"),  # 2500 = 92 * 27 + 16
    pytest.param(channel.BLOCK_ENTRIES, id="one-block"),
])
def test_chunk_blocks_are_the_whole_chunk_draw(monkeypatch, block_entries):
    # a chunk is drawn a block at a time, each block overwriting the last; the
    # kernel must see, and the audit get, the bits of one whole-chunk draw
    monkeypatch.setattr(channel, "BLOCK_ENTRIES", block_entries)
    config = _config(scheme="zfdp", M=3, K=12, trials=CHUNK + 2500, seed=8)
    seen = []

    def kernel(H, P, r, rng):
        seen.append(H.copy())
        return np.zeros((len(H), r), dtype=np.int64), np.zeros((len(H), r)), np.zeros(len(H))

    monkeypatch.setitem(montecarlo.SCHEME_TABLE, "zfdp",
                        dataclasses.replace(config.spec, kernel=kernel))
    count = 2500
    users, sinrs, rates = np.empty((count, 3), dtype=np.int64), np.empty((count, 3)), np.empty(count)
    audited = montecarlo._run_chunk(config, 1, users, sinrs, rates)
    H = draw_channel_batch(12, 3, substream(config.seed, 1), count)
    step = max(1, block_entries // 36)
    assert [len(b) for b in seen] == [min(step, count - lo) for lo in range(0, count, step)]
    assert np.array_equal(np.concatenate(seen).view(np.uint64), H.view(np.uint64))
    # chunk 1 starts at trial 4096, so its audited trials 5000 and 6000 are rows 904 and 1904
    assert np.array_equal(audited.view(np.uint64), H[904::1000].view(np.uint64))


@pytest.mark.parametrize("scheme", montecarlo.SCHEMES)
def test_chunk_peak_memory_is_about_its_channels(scheme):
    # a worker holds one complex block and its kernel temporaries, 0.14 to 0.25
    # times the chunk's channels; holding the chunk's real parts too peaked at
    # 0.64 to 0.75 times them, the whole complex chunk at 1.07 to 1.16 times, and
    # one kernel call on the whole chunk at 1.8 to 5.2 times
    config = ExperimentConfig(params=SystemParams(M=4, K=100, P=P15, r=4), scheme=scheme,
                              trials=CHUNK, seed=22)
    r = config.effective_r
    users, sinrs, rates = np.empty((CHUNK, r), dtype=np.int64), np.empty((CHUNK, r)), np.empty(CHUNK)
    tracemalloc.start()
    try:
        montecarlo._run_chunk(config, 0, users, sinrs, rates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    channels = CHUNK * 100 * 4 * np.dtype(complex).itemsize
    assert peak <= 0.3 * channels, peak / channels


def test_thread_env_fallback(monkeypatch):
    config = _config(trials=CHUNK + 50, seed=12)
    monkeypatch.setenv("OBFLAB_THREADS", "3")
    a = run_experiment(config)  # picks 3 workers from the environment
    monkeypatch.delenv("OBFLAB_THREADS")
    b = run_experiment(config)
    assert np.array_equal(a.sinrs, b.sinrs)


@pytest.mark.parametrize("threads,env,source", [
    (0, None, "threads"), (-2, None, "threads"),
    (None, "0", "OBFLAB_THREADS"), (None, "abc", "OBFLAB_THREADS"),
])
def test_bad_thread_counts_are_refused(monkeypatch, threads, env, source):
    # a count below 1 used to run one worker, and a non-integer variable
    # ended in int()'s ValueError, which named neither
    if env is not None:
        monkeypatch.setenv("OBFLAB_THREADS", env)
    with pytest.raises(ValueError, match=f"^{source} must be"):
        run_experiment(_config(trials=50), threads=threads)


def test_chunks_reach_the_sink_in_order_after_their_audits(monkeypatch):
    # eight workers on fewer cores, switching threads often: the calling thread
    # must see each chunk whole, after its audits, while later chunks still run
    config = _config(scheme="zfdp", trials=11 * CHUNK + 5, seed=14)
    events = []
    real = montecarlo._audit_trial

    def audit(cfg, H_row, users, sinrs):
        events.append("a")
        real(cfg, H_row, users, sinrs)

    monkeypatch.setattr(montecarlo, "_audit_trial", audit)
    blocks = []

    def sink(first, users, sinrs, rates):
        events.append("C")
        blocks.append((first, users.copy(), sinrs.copy(), rates.copy()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_experiment(config, threads=8, on_chunk=sink)
    finally:
        sys.setswitchinterval(interval)
    order = "".join(events)
    serial = run_experiment(config, threads=1)
    assert [first for first, *_ in blocks] == [c * CHUNK for c in range(12)]
    for first, users, sinrs, rates in blocks:
        rows = slice(first, first + CHUNK)
        assert np.array_equal(users, serial.users[rows])
        assert np.array_equal(sinrs, serial.sinrs[rows])
        assert np.array_equal(rates, serial.sum_rates[rows])
    assert np.array_equal(report.sinrs, serial.sinrs)
    # each chunk's audited trials (t = 0 mod 1000) come before its block
    audits = [len(range(-c * CHUNK % 1000, min(CHUNK, config.trials - c * CHUNK), 1000))
              for c in range(12)]
    assert order == "".join("a" * n + "C" for n in audits)


def test_same_seed_same_channels_across_schemes():
    # schemes share the channel stream, so rank-1 gains line up exactly
    a = run_experiment(_config(scheme="adaptive-obf", trials=400, seed=5))
    b = run_experiment(_config(scheme="olbf", trials=400, seed=5))
    assert np.allclose(a.sinrs[:, 0], b.sinrs[:, 0], rtol=1e-12)


@pytest.mark.parametrize("scheme", ["zfs", "zfdp", "random-obf", "random-olbf"])
def test_all_schemes_run(scheme):
    config = _config(scheme=scheme, M=3, K=6, trials=800, seed=6)
    report = run_experiment(config)
    assert np.all(np.isfinite(report.sinrs))
    assert np.all(report.sinrs >= 0)
    assert report.mean_sum_rate > 0


def test_random_obf_rank1_is_scaled_gamma():
    # under random selection the first candidacy SINR is ||h||^2 P/r with
    # ||h||^2 ~ Gamma(M)
    M, P = 3, 10.0
    config = _config(scheme="random-obf", M=M, K=6, P=P, trials=20000, seed=8)
    report = run_experiment(config)
    scaled = report.sinrs[:, 0] * (M / P)
    d, p = stats.kstest(scaled, "gamma", args=(M,))
    assert p > 1e-3, (d, p)


def test_random_olbf_region_holds():
    config = _config(scheme="random-olbf", M=3, K=6, trials=5000, seed=9)
    report = run_experiment(config)
    z = report.sinrs / (1.0 + report.sinrs)
    assert np.all(z[:, 1:].sum(axis=1) <= z[:, 0] + 1e-9)


def test_attach_analysis_fills_ks_and_mean():
    config = _config(scheme="adaptive-obf", M=2, K=10, P=P15, trials=20000, seed=10)
    report = attach_analysis(run_experiment(config))
    assert report.ks_per_user is not None and len(report.ks_per_user) == 2
    assert all(k < 0.02 for k in report.ks_per_user), report.ks_per_user
    assert report.analytic_mean_sum_rate == pytest.approx(
        report.mean_sum_rate, rel=0.02
    )


@pytest.mark.parametrize("scheme,M,force_r", [
    pytest.param("zfs", 3, None, id="zfs"),
    pytest.param("zfdp", 3, None, id="zfdp"),
    pytest.param("random-obf", 3, None, id="random-obf"),
    pytest.param("random-olbf", 3, None, id="random-olbf"),
    # rank 4 lies beyond the closed forms
    pytest.param("adaptive-obf", 4, 4, id="adaptive-obf-r4"),
    pytest.param("olbf", 4, None, id="olbf-m4"),
])
def test_attach_analysis_skips_unsupported(scheme, M, force_r):
    config = _config(scheme=scheme, M=M, K=6, trials=100, seed=2, force_r=force_r)
    report = attach_analysis(run_experiment(config))
    assert report.ks_per_user is None
    assert report.analytic_mean_sum_rate is None


# same-seed mean sum rates at M=3, K=6, P=10 over 2*CHUNK trials: they move only
# if a kernel, the samples per trial or the RNG draw order changes
PINNED_RATES = {
    ("adaptive-obf", None): 5.293667550878053,
    ("adaptive-obf", 2): 5.197301324263653,
    ("olbf", None): 4.632092154221721,
    ("zfs", None): 5.987539253292326,
    ("zfdp", None): 6.844842052956065,
    ("random-obf", None): 3.693101947866417,
    ("random-olbf", None): 3.059570601357967,
}


@pytest.mark.parametrize("scheme,force_r", list(PINNED_RATES))
def test_same_seed_rates_are_pinned(scheme, force_r):
    config = _config(scheme=scheme, M=3, K=6, P=10.0, trials=2 * CHUNK, seed=2024,
                     force_r=force_r)
    report = run_experiment(config)
    assert report.mean_sum_rate == pytest.approx(PINNED_RATES[scheme, force_r], rel=1e-9, abs=0)
    assert report.sinrs.shape[1] == config.effective_r


def test_scheme_table_looks_names_up_when_called(monkeypatch):
    # tracers rebind these module attributes; the table must call the rebound names
    seen = set()

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: seen.add(name) or real(*a, **k))

    for name in ("draw_channel_blocks", "obf_sinr_grid", "obf_mean_sum_rate"):
        spy(montecarlo, name)
    spy(batch, "batch_adaptive_obf")
    spy(schedulers, "adaptive_obf")
    attach_analysis(run_experiment(_config(M=2, K=4, trials=1500, seed=3)))
    assert seen == {"draw_channel_blocks", "obf_sinr_grid", "obf_mean_sum_rate",
                    "batch_adaptive_obf", "adaptive_obf"}

    # the benchmark's checks read these calls: an analysed run of rank r calls
    # <kind>_sinr_grid once for each rank 2..r, and each grid carries its mass;
    # its tracer also imports obflab.grids
    for scheme, kind in (("adaptive-obf", "obf"), ("olbf", "olbf")):
        calls = []
        real = getattr(montecarlo, f"{kind}_sinr_grid")

        def record(*args, real=real, calls=calls):
            grid = real(*args)
            assert isinstance(grid, grids.DistributionGrid)
            calls.append((args[0], grid.mass))
            return grid

        monkeypatch.setattr(montecarlo, f"{kind}_sinr_grid", record)
        report = attach_analysis(run_experiment(_config(scheme=scheme, M=3, K=4, trials=500)))
        assert [rank for rank, _ in calls] == [2, 3], scheme
        for _, mass in calls:
            assert isinstance(mass, float) and abs(mass - 1.0) <= 1e-3, (scheme, mass)
        assert report.analytic_mean_sum_rate is not None


def test_report_validation():
    config = _config(trials=10, seed=1)
    report = run_experiment(config)
    with pytest.raises(ValueError):
        ExperimentReport(
            config=config,
            users=report.users,
            sinrs=report.sinrs,
            sum_rates=report.sum_rates,
            mean_sum_rate=report.mean_sum_rate,
            stderr_sum_rate=-1.0,
        )
