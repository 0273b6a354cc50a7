"""Seeded Monte-Carlo harness with worker-count-invariant determinism.

Trials are processed in fixed-size chunks; chunk c of a run always draws
its channels (and any selection randomness) from the substream
(seed, c), so the sample stream is bit-identical whether chunks are
executed serially or on a thread pool.  Results are assembled in chunk
order before any reduction.

A small fraction of trials (1 in 1000) is re-run through the scalar
schedulers as a structural audit: scheduled sets must match the batch
kernels, beamforming matrices must be orthonormal where the scheme
guarantees it, and SINR/region invariants must hold.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import special

from . import batch as _batch
from . import schedulers as _sched
from .channel import BeamformerMatrix, ChannelSet, SystemParams, draw_channel_batch, substream
from .grids import DistributionGrid, obf_sinr_grid, olbf_sinr_grid
from .analytic_obf import ObfParams, obf_mean_sum_rate
from .analytic_olbf import OlbfParams, olbf_mean_sum_rate

__all__ = [
    "SCHEMES",
    "ExperimentConfig",
    "EmpiricalDistribution",
    "ExperimentReport",
    "run_experiment",
    "ks_distance",
    "mean_sum_rate_mc",
    "attach_analysis",
]

SCHEMES = ("adaptive-obf", "olbf", "zfs", "zfdp", "random-obf", "random-olbf")

CHUNK = 4096  # trials per RNG substream; fixed so worker count cannot matter

_AUDIT_STRIDE = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    params: SystemParams
    scheme: str
    trials: int
    seed: int
    force_r: Optional[int] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.scheme in ("olbf", "random-olbf") and self.params.K < self.params.M:
            raise ValueError("OLBF needs K >= M")
        if self.force_r is not None and self.scheme != "adaptive-obf":
            raise ValueError("force_r applies to adaptive-obf only")

    @property
    def effective_r(self) -> int:
        """Number of SINR samples recorded per trial."""
        if self.scheme in ("olbf", "random-olbf"):
            return self.params.M
        if self.scheme == "adaptive-obf":
            return self.force_r if self.force_r is not None else self.params.r
        return self.params.r


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample set with its empirical CDF."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("need a nonempty 1-D sample set")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        if np.any(np.diff(s) < 0):
            s = np.sort(s)
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.size


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    users: np.ndarray        # (trials, r) scheduled/selected user indices
    sinrs: np.ndarray        # (trials, r) per-rank SINR samples
    sum_rates: np.ndarray    # (trials,) per-trial sum rate, nats
    per_user: tuple          # EmpiricalDistribution per rank
    mean_sum_rate: float
    stderr_sum_rate: float
    runtime_seconds: float
    ks_per_user: Optional[tuple] = None
    analytic_mean_sum_rate: Optional[float] = None

    def __post_init__(self):
        if self.stderr_sum_rate < 0:
            raise ValueError("standard error must be nonnegative")
        if self.ks_per_user is not None and any(
            not 0.0 <= k <= 1.0 for k in self.ks_per_user
        ):
            raise ValueError("KS distances must lie in [0, 1]")


def _run_chunk(config: ExperimentConfig, chunk_index: int, count: int):
    p = config.params
    rng = substream(config.seed, chunk_index)
    H = draw_channel_batch(p.K, p.M, rng, count)
    scheme = config.scheme
    if scheme == "adaptive-obf":
        r = config.force_r if config.force_r is not None else p.r
        users, sinrs, rates = _batch.batch_adaptive_obf(H, p.P, r)
    elif scheme == "olbf":
        users, sinrs, rates = _batch.batch_olbf(H, p.P)
    elif scheme == "zfs":
        users, sinrs, rates = _batch.batch_zfs(H, p.P, p.r)
    elif scheme == "zfdp":
        users, sinrs, rates = _batch.batch_zfdp(H, p.P, p.r)
    elif scheme == "random-obf":
        sinrs = _batch.batch_random_obf(H, p.P, p.r, rng)
        users = np.zeros(sinrs.shape, dtype=np.int64)
        rates = np.sum(np.log1p(sinrs), axis=1)
    else:  # random-olbf
        sinrs = _batch.batch_random_olbf(H, p.P, rng)
        users = np.zeros(sinrs.shape, dtype=np.int64)
        rates = np.sum(np.log1p(sinrs), axis=1)
    return H, users, sinrs, rates


def _audit_trial(config: ExperimentConfig, H_row: np.ndarray, users, sinrs) -> None:
    """Re-run one trial through the scalar schedulers and verify it."""
    p = config.params
    channels = ChannelSet(H=H_row)
    scheme = config.scheme
    if scheme == "adaptive-obf":
        r = config.force_r if config.force_r is not None else p.r
        out = _sched.adaptive_obf(channels, p.P, force_r=r)
    elif scheme == "olbf":
        out = _sched.olbf(channels, p.P)
    elif scheme == "zfs":
        out = _sched.zfs_schedule(channels, p.P, p.r)
    elif scheme == "zfdp":
        out = _sched.greedy_zfdp_schedule(channels, p.P, p.r)
    else:
        # random schemes have no scalar counterpart tied to the same RNG
        # draws; audit the structural invariants on the batch output only
        if np.any(np.asarray(sinrs) < 0):
            raise AssertionError("negative SINR sample")
        if scheme == "random-olbf":
            z = sinrs / (1.0 + sinrs)
            if z[1:].sum() > z[0] + 1e-9:
                raise AssertionError("transformed samples left their region")
        return
    if tuple(out.users) != tuple(int(u) for u in users):
        raise AssertionError("batch kernel disagrees with scalar scheduler")
    if not np.allclose(out.sinrs, sinrs, rtol=1e-9, atol=1e-12):
        raise AssertionError("batch SINRs disagree with scalar scheduler")
    if np.any(out.sinrs < 0):
        raise AssertionError("negative SINR")
    if scheme in ("adaptive-obf", "olbf"):
        BeamformerMatrix(W=out.W)  # validates orthonormal columns


def run_experiment(config: ExperimentConfig, threads: Optional[int] = None) -> ExperimentReport:
    """Run all trials; deterministic for a given seed, any thread count."""
    t0 = time.perf_counter()
    n_chunks = (config.trials + CHUNK - 1) // CHUNK
    sizes = [min(CHUNK, config.trials - c * CHUNK) for c in range(n_chunks)]
    if threads is None:
        threads = int(os.environ.get("OBFLAB_THREADS", "1"))
    threads = max(1, min(threads, n_chunks))

    def work(c):
        return _run_chunk(config, c, sizes[c])

    if threads == 1:
        results = [work(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, range(n_chunks)))

    users = np.concatenate([r[1] for r in results], axis=0)
    sinrs = np.concatenate([r[2] for r in results], axis=0)
    rates = np.concatenate([r[3] for r in results], axis=0)

    # structural audit on a deterministic sparse subset of trials
    for t in range(0, config.trials, _AUDIT_STRIDE):
        c, i = divmod(t, CHUNK)
        _audit_trial(config, results[c][0][i], users[t], sinrs[t])

    report = _build_report(config, users, sinrs, rates)
    report.runtime_seconds = time.perf_counter() - t0
    return report


def _build_report(config: ExperimentConfig, users: np.ndarray, sinrs: np.ndarray,
                  rates: np.ndarray) -> ExperimentReport:
    """Report with the sum-rate mean, its standard error and the per-rank samples."""
    mean = math.fsum(rates) / rates.size
    if rates.size > 1:
        var = math.fsum((x - mean) ** 2 for x in rates) / (rates.size - 1)
        stderr = math.sqrt(var / rates.size)
    else:
        stderr = 0.0
    per_user = tuple(EmpiricalDistribution(np.sort(sinrs[:, j])) for j in range(sinrs.shape[1]))
    return ExperimentReport(
        config=config,
        users=users,
        sinrs=sinrs,
        sum_rates=rates,
        per_user=per_user,
        mean_sum_rate=mean,
        stderr_sum_rate=stderr,
        runtime_seconds=0.0,
    )


def ks_distance(emp: EmpiricalDistribution, cdf: Callable) -> float:
    """Kolmogorov-Smirnov distance between a sample set and a CDF.

    sup over the sorted samples x_i of max(|i/N - F(x_i)|,
    |(i-1)/N - F(x_i)|).
    """
    x = emp.samples
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    if F.shape != x.shape:
        F = np.array([float(cdf(v)) for v in x])
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    d = float(np.max(np.maximum(np.abs(hi - F), np.abs(lo - F))))
    return min(max(d, 0.0), 1.0)


def mean_sum_rate_mc(config: ExperimentConfig, threads: Optional[int] = None) -> tuple[float, float]:
    """(mean, stderr) of the per-trial sum rate in nats."""
    report = run_experiment(config, threads)
    return report.mean_sum_rate, report.stderr_sum_rate


def _max_norm_cdf(M: int, K: int, noise: float) -> Callable:
    """Exact CDF of the first scheduled SINR (scaled maximum of K norms).

    One user's norm stays below y with probability P(M, noise * y), the
    regularised lower incomplete gamma.
    """

    def cdf(y):
        y = np.maximum(np.asarray(y, dtype=float), 0.0)
        return special.gammainc(M, noise * y) ** K

    return cdf


def attach_analysis(report: ExperimentReport, points: int = 800) -> ExperimentReport:
    """Fill in per-user KS distances and the analytic mean sum rate.

    Supported for adaptive-obf (fixed r <= 3) and olbf (M <= 3); other
    schemes are returned unchanged.
    """
    config = report.config
    p = config.params
    scheme = config.scheme
    if scheme == "adaptive-obf":
        r = config.force_r if config.force_r is not None else p.r
        if r > 3:
            return report
        ap = ObfParams(M=p.M, K=p.K, P=p.P, r=r)
        noise = ap.rp
        cdfs = [_max_norm_cdf(p.M, p.K, noise)]
        cdfs += [obf_sinr_grid(n, ap, points).cdf_at for n in range(2, r + 1)]
        analytic = obf_mean_sum_rate(ap)
    elif scheme == "olbf":
        if p.M > 3:
            return report
        ap = OlbfParams(M=p.M, K=p.K, P=p.P)
        cdfs = [_max_norm_cdf(p.M, p.K, ap.mp)]
        cdfs += [olbf_sinr_grid(n, ap, points).cdf_at for n in range(2, p.M + 1)]
        analytic = olbf_mean_sum_rate(ap)
    else:
        return report
    ks = tuple(ks_distance(emp, cdf) for emp, cdf in zip(report.per_user, cdfs))
    report.ks_per_user = ks
    report.analytic_mean_sum_rate = analytic
    return report
