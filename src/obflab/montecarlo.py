"""Seeded Monte-Carlo harness with worker-count-invariant determinism.

Trials are processed in fixed-size chunks; chunk c of a run always draws
its channels from the substream (seed, c), and any selection randomness
from that substream's first child, so the sample stream is bit-identical
on any number of workers.  Each chunk writes its own rows of the
preallocated outputs, so they are in trial order before any reduction.
A worker holds one kernel block of ``channel.BLOCK_ENTRIES`` complex
channel entries and that block's kernel temporaries (see ``_run_chunk``).

The run is a pipeline: the chunks run on a pool of worker threads, while
the calling thread takes the finished chunks in chunk order.  For each
one it re-runs the chunk's audited trials (1 in 1000) through the scalar
schedulers as a structural audit, then hands the chunk's rows to the
caller's ``on_chunk`` (``obflab sim`` writes its CSV block there).  The
audit checks that scheduled sets match the batch kernels, that
beamforming matrices are orthonormal where the scheme guarantees it, and
that SINR/region invariants hold.  Any error cancels the chunks not yet
started.

What the harness knows of each scheme sits in one ``Scheme`` record of
``SCHEME_TABLE``; the code below reads the record, never the scheme name.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from . import batch as _batch
from . import channel as _channel
from . import schedulers as _sched
from .channel import BeamformerMatrix, ChannelSet, SystemParams, draw_channel_blocks, substream
from .numerics import MAX_ANALYTIC_RANK, QuadratureError, lower_gamma_ladder
from .analytic_obf import ObfParams, obf_marginal_pdf_grid, obf_mean_sum_rate, obf_sinr_grid
from .analytic_olbf import (
    OlbfParams, olbf_marginal_pdf_sinr_grid, olbf_mean_sum_rate, olbf_sinr_grid,
)

__all__ = [
    "SCHEMES",
    "SCHEME_TABLE",
    "Scheme",
    "Analytic",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "worker_count",
    "ks_distance",
    "attach_analysis",
]

CHUNK = 4096  # trials per RNG substream; fixed so worker count cannot matter

_AUDIT_STRIDE = 1000


@dataclass(frozen=True)
class Analytic:
    """A scheme's closed forms; the members take what ``params`` builds.

    The rank-1 CDF is the same max-norm CDF for every scheme, read at the
    per-stream noise r/P, so no member gives it.
    """

    params: Callable         # (M, K, P, r) -> ObfParams or OlbfParams
    grid: Callable           # (n, params) -> n-th SINR DistributionGrid, cached per (n, params)
    pdf: Callable            # (n, ys, params) -> n-th marginal pdf at the SINRs ys
    mean_sum_rate: Callable  # params -> mean sum rate in nats


@dataclass(frozen=True)
class Scheme:
    """One scheme's samples per trial, batch kernel, scalar audit and analysis.

    The callables look kernels, schedulers and closed forms up by module
    attribute when called, so a rebound name (a tracer, a test double) runs.
    """

    samples: Callable                    # ExperimentConfig -> SINRs per trial
    kernel: Callable                     # (H, P, r, rng) -> (users, sinrs, rates)
    oracle: Optional[Callable] = None    # (ChannelSet, P, r) -> scalar ScheduleOutcome
    orthonormal: bool = False            # the oracle's W has orthonormal columns
    check: Optional[Callable] = None     # sinrs -> None, the audit where no oracle exists
    analytic: Optional[Analytic] = None  # None: no closed forms
    forceable: bool = False              # takes ExperimentConfig.force_r
    min_m: int = 1                       # fewest antennas the scheme is defined for


# random selection has no scalar counterpart tied to the same RNG draws;
# its audit checks structural invariants of the batch output only
def _check_nonnegative(sinrs) -> None:
    if np.any(np.asarray(sinrs) < 0):
        raise AssertionError("negative SINR sample")


def _check_olbf_region(sinrs) -> None:
    _check_nonnegative(sinrs)
    z = sinrs / (1.0 + sinrs)
    if z[1:].sum() > z[0] + 1e-9:
        raise AssertionError("transformed samples left their region")


_OBF = Analytic(
    params=lambda M, K, P, r: ObfParams(M=M, K=K, P=P, r=r),
    grid=lambda *args: obf_sinr_grid(*args),
    pdf=lambda *args: obf_marginal_pdf_grid(*args),
    mean_sum_rate=lambda ap: obf_mean_sum_rate(ap),
)


def _olbf_params(M, K, P, r) -> OlbfParams:
    if r != M:
        raise ValueError(f"OLBF serves all M = {M} beams, so r must be {M}, not {r}")
    return OlbfParams(M=M, K=K, P=P)


_OLBF = Analytic(
    params=_olbf_params,
    grid=lambda *args: olbf_sinr_grid(*args),
    pdf=lambda *args: olbf_marginal_pdf_sinr_grid(*args),
    mean_sum_rate=lambda ap: olbf_mean_sum_rate(ap),
)

_R_SAMPLES, _M_SAMPLES = attrgetter("params.r"), attrgetter("params.M")

SCHEME_TABLE = {
    "adaptive-obf": Scheme(
        lambda c: c.params.r if c.force_r is None else c.force_r,
        lambda H, P, r, rng: _batch.batch_adaptive_obf(H, P, r),
        oracle=lambda ch, P, r: _sched.adaptive_obf(ch, P, force_r=r),
        orthonormal=True, analytic=_OBF, forceable=True,
    ),
    "olbf": Scheme(_M_SAMPLES, lambda H, P, r, rng: _batch.batch_olbf(H, P),
                   oracle=lambda ch, P, r: _sched.olbf(ch, P), orthonormal=True, analytic=_OLBF,
                   min_m=2),
    "zfs": Scheme(_R_SAMPLES, lambda H, P, r, rng: _batch.batch_zfs(H, P, r),
                  oracle=lambda ch, P, r: _sched.zfs_schedule(ch, P, r)),
    "zfdp": Scheme(_R_SAMPLES, lambda H, P, r, rng: _batch.batch_zfdp(H, P, r),
                   oracle=lambda ch, P, r: _sched.greedy_zfdp_schedule(ch, P, r)),
    "random-obf": Scheme(_R_SAMPLES, lambda H, P, r, rng: _batch.batch_random_obf(H, P, r, rng),
                         check=_check_nonnegative),
    "random-olbf": Scheme(_M_SAMPLES, lambda H, P, r, rng: _batch.batch_random_olbf(H, P, rng),
                          check=_check_olbf_region, min_m=2),
}

SCHEMES = tuple(SCHEME_TABLE)


@dataclass(frozen=True)
class ExperimentConfig:
    params: SystemParams
    scheme: str
    trials: int
    seed: int
    force_r: Optional[int] = None

    def __post_init__(self):
        if self.scheme not in SCHEME_TABLE:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.force_r is not None and not self.spec.forceable:
            raise ValueError("force_r applies to adaptive-obf only")
        if self.params.M < self.spec.min_m:
            # the OLBF beam set needs a null space next to the first user's beam
            raise ValueError(f"{self.scheme} needs M >= {self.spec.min_m}, got M={self.params.M}")

    @property
    def spec(self) -> Scheme:
        return SCHEME_TABLE[self.scheme]

    @property
    def effective_r(self) -> int:
        """Number of SINR samples recorded per trial."""
        return self.spec.samples(self)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    users: np.ndarray        # (trials, r) scheduled/selected user indices
    sinrs: np.ndarray        # (trials, r) per-rank SINR samples
    sum_rates: np.ndarray    # (trials,) per-trial sum rate, nats
    mean_sum_rate: float
    stderr_sum_rate: float
    ks_per_user: Optional[tuple] = None
    analytic_mean_sum_rate: Optional[float] = None

    def __post_init__(self):
        if self.stderr_sum_rate < 0:
            raise ValueError("standard error must be nonnegative")
        if self.ks_per_user is not None and any(
            not 0.0 <= k <= 1.0 for k in self.ks_per_user
        ):
            raise ValueError("KS distances must lie in [0, 1]")


def _run_chunk(config: ExperimentConfig, chunk_index: int, users: np.ndarray, sinrs: np.ndarray,
               rates: np.ndarray) -> np.ndarray:
    """Run one chunk into its rows of users, sinrs and rates; return its audited channels.

    The kernel runs on consecutive blocks of at most
    ``channel.BLOCK_ENTRIES`` channel entries (at least one trial), drawn
    by ``draw_channel_blocks``: the worker holds one block, and the
    kernel's temporaries stay one block's size.  The kernels treat trials
    independently, so the rows are those of one whole-chunk call.  The
    chunk's substream still owes the later blocks while a block's kernel
    runs, so a random kernel takes its picks, block by block, from the
    substream's first child.  Each block's audited rows are copied out
    before the next block overwrites them.
    """
    p = config.params
    rng = substream(config.seed, chunk_index)
    picks = rng.spawn(1)[0]
    first = -chunk_index * CHUNK % _AUDIT_STRIDE  # local index of the chunk's first audited trial
    want = np.arange(first, rates.size, _AUDIT_STRIDE)
    audited = np.empty((want.size, p.K, p.M), dtype=complex)
    step = max(1, _channel.BLOCK_ENTRIES // (p.K * p.M))
    for lo, H in draw_channel_blocks(p.K, p.M, rng, rates.size, step):
        rows = slice(lo, lo + len(H))
        users[rows], sinrs[rows], rates[rows] = config.spec.kernel(H, p.P, config.effective_r,
                                                                   picks)
        mine = (want >= lo) & (want < rows.stop)
        audited[mine] = H[want[mine] - lo]
    return audited


def _audit_trial(config: ExperimentConfig, H_row: np.ndarray, users, sinrs) -> None:
    """Re-run one trial through the scalar scheduler and verify it."""
    spec = config.spec
    if spec.oracle is None:
        spec.check(sinrs)
        return
    out = spec.oracle(ChannelSet(H=H_row), config.params.P, config.effective_r)
    if tuple(out.users) != tuple(int(u) for u in users):
        raise AssertionError("batch kernel disagrees with scalar scheduler")
    if not np.allclose(out.sinrs, sinrs, rtol=1e-9, atol=1e-12):
        raise AssertionError("batch SINRs disagree with scalar scheduler")
    if np.any(out.sinrs < 0):
        raise AssertionError("negative SINR")
    if spec.orthonormal:
        BeamformerMatrix(W=out.W)  # validates orthonormal columns


def worker_count(threads: Optional[int]) -> int:
    """The number of workers asked for: ``threads``, or else ``OBFLAB_THREADS`` (default 1).

    Raises ``ValueError``, naming where the count came from, unless it is
    an integer of at least 1.
    """
    source, value = (("threads", threads) if threads is not None
                     else ("OBFLAB_THREADS", os.environ.get("OBFLAB_THREADS", "1")))
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{source} must be an integer of at least 1, got {value!r}")
    return count


def run_experiment(config: ExperimentConfig, threads: Optional[int] = None,
                   on_chunk: Optional[Callable] = None) -> ExperimentReport:
    """Run all trials; deterministic for a given seed, any thread count.

    ``threads`` workers (see ``worker_count``) run the chunks.  The calling
    thread takes each finished chunk in chunk order, audits its audited
    trials, then calls ``on_chunk(first_trial, users, sinrs, rates)`` with
    the chunk's rows.  On an error, in a worker, an audit or ``on_chunk``,
    the chunks not yet started are cancelled and the error is raised once
    the running ones end.
    """
    n_chunks = (config.trials + CHUNK - 1) // CHUNK
    threads = min(worker_count(threads), n_chunks)

    users = np.empty((config.trials, config.effective_r), dtype=np.int64)
    sinrs = np.empty((config.trials, config.effective_r))
    rates = np.empty(config.trials)

    def rows(c):
        return slice(c * CHUNK, min((c + 1) * CHUNK, config.trials))

    def work(c):  # chunk c fills its own rows, so the chunks may run in any order
        own = rows(c)
        return _run_chunk(config, c, users[own], sinrs[own], rates[own])

    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        for c, audited in enumerate(pool.map(work, range(n_chunks))):
            done = rows(c)
            # the chunk's audited rows are those of its trials t = 0 mod 1000
            first = done.start + -done.start % _AUDIT_STRIDE
            for t, H_row in zip(range(first, done.stop, _AUDIT_STRIDE), audited, strict=True):
                _audit_trial(config, H_row, users[t], sinrs[t])
            if on_chunk is not None:
                on_chunk(done.start, users[done], sinrs[done], rates[done])
    finally:
        pool.shutdown(cancel_futures=True)

    return _build_report(config, users, sinrs, rates)


def _build_report(config: ExperimentConfig, users: np.ndarray, sinrs: np.ndarray,
                  rates: np.ndarray) -> ExperimentReport:
    """Report with the samples, the sum-rate mean and its standard error."""
    def values():  # floats, 8192 at a time: fsum over numpy scalars takes twice as long
        return itertools.chain.from_iterable(rates[i:i + 8192].tolist()
                                             for i in range(0, rates.size, 8192))

    mean = math.fsum(values()) / rates.size
    if rates.size > 1:
        var = math.fsum((x - mean) ** 2 for x in values()) / (rates.size - 1)
        stderr = math.sqrt(var / rates.size)
    else:
        stderr = 0.0
    return ExperimentReport(
        config=config,
        users=users,
        sinrs=sinrs,
        sum_rates=rates,
        mean_sum_rate=mean,
        stderr_sum_rate=stderr,
    )


def ks_distance(samples, cdf: Callable) -> float:
    """Kolmogorov-Smirnov distance between a 1-D sample set and a vectorised CDF.

    sup over the sorted samples x_i of max(|i/N - F(x_i)|,
    |(i-1)/N - F(x_i)|).  The samples must be nonempty and finite.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("need a nonempty 1-D sample set")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    x = np.sort(x)
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    d = float(np.max(np.maximum(np.abs(hi - F), np.abs(lo - F))))
    return min(max(d, 0.0), 1.0)


def _max_norm_cdf(M: int, K: int, noise: float) -> Callable:
    """Exact CDF of the first scheduled SINR (scaled maximum of K norms).

    One user's norm stays below y with probability P(M, noise * y), the
    regularised lower incomplete gamma.
    """

    def cdf(y):
        y = np.maximum(np.asarray(y, dtype=float), 0.0)
        return lower_gamma_ladder(M, noise * y)[M] ** K

    return cdf


def attach_analysis(report: ExperimentReport) -> ExperimentReport:
    """Fill in per-user KS distances and the analytic mean sum rate.

    Supported for the schemes with closed forms, adaptive-obf and olbf, up
    to ``MAX_ANALYTIC_RANK`` samples per trial; other reports are returned
    unchanged.  Ranks 2..r are compared with their cached marginal tables,
    which the mean sum rate reads too, so each rank is tabulated once.  A
    table that cannot be resolved, or whose mass is off 1 by more than
    ``grids.MASS_TOL``, leaves both fields None, with a warning.
    """
    config = report.config
    analytic = config.spec.analytic
    r = config.effective_r
    if analytic is None or r > MAX_ANALYTIC_RANK:
        return report
    p = config.params
    ap = analytic.params(p.M, p.K, p.P, r)
    cdfs = [_max_norm_cdf(p.M, p.K, r / p.P)]  # OBF's rp, OLBF's mp (r = M)
    try:
        cdfs += [analytic.grid(n, ap).cdf_at for n in range(2, r + 1)]
        mean_rate = analytic.mean_sum_rate(ap)
    except QuadratureError as exc:
        warnings.warn(f"analysis skipped: {exc}", RuntimeWarning, stacklevel=2)
        return report
    report.ks_per_user = tuple(ks_distance(report.sinrs[:, j], cdf) for j, cdf in enumerate(cdfs))
    report.analytic_mean_sum_rate = mean_rate
    return report
