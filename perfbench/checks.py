"""Output checks for the benchmark; every one holds for any seed.

Each check adds one to ``attempted`` and, when it does not hold, records
a failure with its reason.  ``failed / attempted`` is the benchmark's
``failed_frac``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

KS_MAX = 0.01        # per-rank KS distance at 10^5 trials (acceptance criteria 1/2)
RATE_REL = 0.01      # analytic vs Monte-Carlo mean sum rate (criterion 5) ...
RATE_SIGMAS = 3.0    # ... or this many standard errors, whichever is wider
MASS_TOL = 1e-3      # |grid mass - 1|
AUDIT_STRIDE = 1000  # run_experiment re-runs every 1000th trial through the scalar schedulers


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def sim_call(self, label: str, sim, seed: int, trials: int, csv_path: Path, error,
                 grid_masses: list[float], full: bool) -> None:
        """Check one `obflab sim` call from the artifacts it left on disk.

        ``error`` is the exception the call raised, if any; an AssertionError
        is a failed scalar audit.  ``grid_masses`` are the raw masses of the
        grids attach_analysis built during the call.  ``full`` also reads the
        CSV back and checks the samples in it.
        """
        kind = "scalar audit" if isinstance(error, AssertionError) else "call"
        if not self.check(error is None, f"{label}: {kind} raised {error!r}"):
            return
        summary = json.loads(csv_path.with_suffix(csv_path.suffix + ".summary.json").read_text())
        if full:
            self._csv(label, sim, seed, trials, csv_path, summary)
        if sim.analysis:
            self._analysis(label, sim, summary, grid_masses)

    def _csv(self, label: str, sim, seed: int, trials: int, csv_path: Path,
             summary: dict) -> None:
        from obflab.cli import read_report_csv

        try:
            manifest, report = read_report_csv(csv_path)
        except ValueError as exc:
            self.check(False, f"{label}: CSV does not round-trip: {exc}")
            return
        self.check(
            manifest["seed"] == seed and report.sinrs.shape == (trials, sim.r),
            f"{label}: CSV holds {report.sinrs.shape} samples for seed {manifest['seed']}",
        )
        self.check(report.mean_sum_rate == summary["mean_sum_rate"],
                   f"{label}: CSV and summary mean sum rates differ")
        users, sinrs = report.users, report.sinrs
        distinct = np.all(np.diff(np.sort(users, axis=1), axis=1) != 0)
        self.check(
            bool(np.all(np.isfinite(sinrs)) and np.all(sinrs >= 0) and distinct
                 and users.min() >= 0 and users.max() < sim.k),
            f"{label}: SINRs or scheduled users out of range",
        )

    def _analysis(self, label: str, sim, summary: dict, grid_masses: list[float]) -> None:
        ks = summary["ks_per_user"]
        if not self.check(ks is not None and len(ks) == sim.r, f"{label}: analysis missing"):
            return
        for rank, d in enumerate(ks, 1):
            self.check(d <= KS_MAX, f"{label}: rank-{rank} KS {d:.5f} > {KS_MAX}")
        analytic, mc = summary["analytic_mean_sum_rate"], summary["mean_sum_rate"]
        tol = max(RATE_REL * analytic, RATE_SIGMAS * summary["stderr_sum_rate"])
        self.check(abs(analytic - mc) <= tol,
                   f"{label}: analytic rate {analytic:.6f} vs Monte-Carlo {mc:.6f}")
        self.check(len(grid_masses) == sim.r - 1,
                   f"{label}: {len(grid_masses)} grids built for {sim.r} ranks")
        for mass in grid_masses:
            self.check(abs(mass - 1.0) <= MASS_TOL, f"{label}: grid mass {mass!r}")

    def thread_invariance(self, sims, seed: int, snr_db: float) -> None:
        """Same seed, threads 1 and 2: users and SINRs must be bit-identical."""
        from obflab import montecarlo
        from obflab.channel import SystemParams

        for sim in sims:
            config = montecarlo.ExperimentConfig(
                params=SystemParams(M=sim.m, K=sim.k, P=10.0 ** (snr_db / 10.0), r=sim.r),
                scheme=sim.scheme, trials=2 * montecarlo.CHUNK, seed=seed, force_r=sim.force_r,
            )
            digests = []
            for threads in (1, 2):
                try:
                    report = montecarlo.run_experiment(config, threads=threads)
                except AssertionError as exc:
                    self.check(False, f"{sim.scheme} threads={threads}: scalar audit raised {exc!r}")
                    break
                digests.append((_digest(report.users), _digest(report.sinrs)))
            else:
                self.check(digests[0] == digests[1],
                           f"{sim.scheme}: threads 1 and 2 give different samples")

    def same_artifact(self, label: str, a: Path, b: Path) -> None:
        """Two calls with the same flags and seed must write byte-identical CSVs."""
        same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
        self.check(same, f"{label}: same-seed artifacts differ")

    def audit_count(self, label: str, audited: int, trials: int) -> None:
        expected = math.ceil(trials / AUDIT_STRIDE)
        self.check(audited == expected, f"{label}: {audited} trials audited, expected {expected}")
