#!/usr/bin/env python3
"""obflab benchmark: closed-loop `obflab sim` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sim-olbf --seed 1 --seconds 10 --trace 0

One client in this process calls ``obflab.cli.main(["sim", ...])``, one
invocation after another, for as many iterations of the workload as fit
in ``--seconds`` (at least one).  Every iteration draws fresh inputs from
``--seed`` and starts with obflab's functools caches empty, as a fresh
``obflab sim`` process does.  Before the timed loop the benchmark measures
set-up in fresh processes, warms up, and checks that threads 1 and 2 give
bit-identical samples.  After it, the outputs are checked (see checks.py); the CSVs of
the first iteration are also read back in full.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs one untraced and one traced iteration on the same
inputs and prints the per-layer metrics; the spans go to
``.perfbench_work/<workload>-seed<n>-trace1/spans.json``.

Human-readable lines go to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SNR_DB = 15.0
TRIALS = 100_000
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Sim:
    """One `obflab sim` call of a workload."""

    scheme: str
    m: int
    k: int
    threads: int
    force_r: Optional[int] = None
    analysis: bool = False   # attach_analysis must yield KS and the analytic rate

    @property
    def r(self) -> int:
        if self.force_r is not None:
            return self.force_r
        return min(self.m, self.k)

    def argv(self, seed: int, out: Path, trials: int = TRIALS) -> list[str]:
        argv = ["sim", "--scheme", self.scheme, "--m", str(self.m), "--k", str(self.k),
                "--snr-db", str(SNR_DB), "--trials", str(trials), "--seed", str(seed),
                "--threads", str(self.threads), "--out", str(out)]
        if self.force_r is not None:
            argv += ["--force-r", str(self.force_r)]
        return argv


WORKLOADS = {
    "sim-obf": (Sim("adaptive-obf", 3, 10, 1, force_r=3, analysis=True),),
    "sim-olbf": (Sim("olbf", 3, 10, 1, analysis=True),),
    "sim-zf": (Sim("zfs", 3, 10, 1), Sim("zfdp", 3, 10, 1)),
    "sim-large-k": (Sim("adaptive-obf", 4, 100, 2, force_r=4), Sim("olbf", 4, 100, 2)),
}

# set-up = import of obflab, numpy and scipy plus one small warm-up call
WARMUP = Sim("zfdp", 3, 10, 1)
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, scipy, scipy.integrate, scipy.special
from obflab import cli
cli.main(sys.argv[2:])
print(time.perf_counter() - t0)
"""


def iteration_seed(seed: int, iteration: int) -> int:
    return seed * 1000 + iteration


def measure_setup(work: Path, seed: int) -> list[float]:
    samples = []
    for i in range(SETUP_REPEATS):
        argv = WARMUP.argv(seed, work / f"setup{i}.csv", trials=1000)
        done = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(SRC), *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.splitlines()[-1]))
    return samples


def clear_caches() -> None:
    """Empty every functools cache in the loaded obflab modules.

    An iteration repeats the analytic inputs of the last one, so a cache that
    outlives a call would make the loop faster than any real `obflab sim`
    process.  Hooked names are followed through ``__wrapped__``.
    """
    for name, module in list(sys.modules.items()):
        if name != "obflab" and not name.startswith("obflab."):
            continue
        for value in list(vars(module).values()):
            while value is not None:
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
                value = getattr(value, "__wrapped__", None)


def run_iteration(tracer, sims, seed: int, work: Path, tag: str):
    """All sim calls of one workload iteration, started with cold caches.

    Returns the wall time and, per call, (invocation id, sim, CSV path, exception or None).
    """
    from obflab import cli

    clear_caches()
    calls = []
    t0 = time.perf_counter()
    for j, sim in enumerate(sims):
        out = work / f"{tag}-call{j}.csv"
        tracer.invocation += 1
        error = None
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = tracer.call("cli.main", "cli", cli.main, sim.argv(seed, out))
            if code != 0:
                error = RuntimeError(f"exit code {code}")
        except Exception as exc:  # an audit AssertionError or any crash is a failed check
            error = exc
        calls.append((tracer.invocation, sim, out, error))
    return time.perf_counter() - t0, calls


def check_iteration(checks, tracer, seed: int, calls, full: bool) -> None:
    for invocation, sim, out, error in calls:
        masses = [s.attrs["mass"] for s in tracer.spans
                  if s.invocation == invocation and s.name.endswith("_sinr_grid") and s.attrs]
        checks.sim_call(f"{sim.scheme} seed {seed}", sim, seed, TRIALS, out, error, masses, full)


def trials_per_s(spans) -> float:
    """Trials simulated per second spent inside run_experiment (0 if every call failed)."""
    runs = [s for s in spans if s.name == "montecarlo.run_experiment" and s.attrs]
    return sum(s.attrs["trials"] for s in runs) / sum(s.duration for s in runs) if runs else 0.0


def per_layer(tracer, traced_wall: float, untraced_wall: float) -> dict:
    from spans import LAYERS, self_times

    spans = tracer.spans
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def dur(name):
        return sum(s.duration for s in named(name))

    m = {
        "analysis_s": dur("montecarlo.attach_analysis"),
        "montecarlo.trials_per_s": trials_per_s(spans),
        "trace_overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": traced_wall - sum(selfs.values()),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.layer == layer)
    gamma = named("numerics.gamma_array")
    m["numerics.gamma_array.calls"] = len(gamma)
    m["numerics.gamma_array.s"] = sum(s.duration for s in gamma)
    m["numerics.gamma_array.elems"] = sum(s.attrs.get("elems", 0) for s in gamma)
    for kind in ("obf", "olbf"):
        grids = named(f"grids.{kind}_sinr_grid")
        for rank in (2, 3):
            m[f"grids.{kind}_sinr_grid.r{rank}.s"] = sum(
                s.duration for s in grids if s.attrs.get("rank") == rank)
        m[f"grids.{kind}.mass_err"] = max(
            (abs(s.attrs["mass"] - 1.0) for s in grids if s.attrs), default=0.0)
        m[f"analytic_{kind}.mean_sum_rate.s"] = dur(f"analytic_{kind}.mean_sum_rate")
    for kernel in ("adaptive_obf", "olbf", "zfs", "zfdp"):
        m[f"batch.{kernel}.s"] = dur(f"batch.{kernel}")
    draws = named("channel.draw")
    m["channel.draw.s"] = sum(s.duration for s in draws)
    m["channel.draw.bytes"] = sum(s.attrs.get("bytes", 0) for s in draws)
    runs = {s.id: s for s in named("montecarlo.run_experiment")}
    busy = sum(s.duration for s in spans
               if s.parent in runs and s.layer in ("channel", "batch"))
    capacity = sum(s.attrs.get("threads", 1) * s.duration for s in runs.values())
    m["montecarlo.pool_util"] = busy / capacity if capacity else 0.0
    m["montecarlo.run_experiment.self_s"] = sum(selfs[i] for i in runs)
    audits = [s for s in spans if s.layer == "schedulers"]
    m["schedulers.audit.s"] = sum(s.duration for s in audits)
    m["schedulers.audit.trials"] = len(audits)
    m["montecarlo.ks_distance.s"] = dur("montecarlo.ks_distance")
    csvs = named("cli.write_report_csv")
    m["cli.write_report_csv.s"] = sum(s.duration for s in csvs)
    m["cli.artifact_bytes"] = sum(s.attrs.get("bytes", 0) for s in csvs)
    m["cli.rows"] = sum(s.attrs.get("rows", 0) for s in csvs)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "obflab" / "__init__.py").is_file():
        print(f"perfbench: no obflab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import obflab

    if Path(obflab.__file__).resolve().parent != SRC / "obflab":
        print(f"perfbench: imported obflab from {obflab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import Checks
    from obflab import cli
    from spans import BOUNDARY_HOOKS, FULL_HOOKS, LAYERS, Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sims = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = [] if args.trace else measure_setup(work, args.seed)
    import scipy.special  # noqa: F401  obflab imports it on first use; part of set-up

    with contextlib.redirect_stdout(sys.stderr):
        cli.main(WARMUP.argv(args.seed, work / "warmup.csv", trials=1000))
    checks = Checks()
    checks.thread_invariance(sims, iteration_seed(args.seed, 0), SNR_DB)

    tracer = Tracer()
    tracer.install(BOUNDARY_HOOKS)
    walls, iterations = [], []
    start = time.perf_counter()
    try:
        # one iteration in the traced run; otherwise as many as fit in --seconds
        while not walls or (not args.trace and time.perf_counter() - start
                            + statistics.median(walls) <= args.seconds):
            seed = iteration_seed(args.seed, len(walls))
            wall, calls = run_iteration(tracer, sims, seed, work, f"iter{len(walls)}")
            walls.append(wall)
            iterations.append((seed, calls))
    finally:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        traced = Tracer()
        traced.install(FULL_HOOKS)
        try:
            traced_wall, calls = run_iteration(traced, sims, iterations[0][0], work, "traced")
        finally:
            traced.uninstall()
        check_iteration(checks, traced, iterations[0][0], calls, full=False)
        for (invocation, sim, out, _), (_, _, first, _) in zip(calls, iterations[0][1]):
            checks.same_artifact(sim.scheme, first, out)
            audited = sum(1 for s in traced.spans
                          if s.invocation == invocation and s.layer == "schedulers")
            checks.audit_count(sim.scheme, audited, TRIALS)
        metrics = per_layer(traced, traced_wall, walls[0])
        (work / "spans.json").write_text(json.dumps(traced.dump()) + "\n")
    for i, (seed, calls) in enumerate(iterations):
        check_iteration(checks, tracer, seed, calls, full=i == 0)
    for path in work.glob("*.csv*"):
        path.unlink()

    analysis = [sum(s.duration for s in tracer.spans if s.name == "montecarlo.attach_analysis"
                    and s.invocation in {c[0] for c in calls}) for _, calls in iterations]
    # seven end-to-end figures; BENCHMARK.json bounds only those that are
    # non-zero and steady on every workload (see README.md)
    summary = [
        ("wall_s", statistics.median(walls), "s",
         f"median of {len(walls)} iterations: " + ", ".join(f"{w:.4f}" for w in walls)),
        ("trials_per_s", trials_per_s(tracer.spans), "1/s",
         f"over {len(walls) * len(sims)} run_experiment calls"),
        ("analysis_s", statistics.median(analysis), "s", "median per iteration"),
        ("peak_rss_mb", rss_mb, "MB", "after the timed loop"),
        ("setup_s", statistics.median(setup) if setup else None, "s",
         "median of fresh processes: " + ", ".join(f"{v:.4f}" for v in setup)),
        ("failed_frac", checks.failed / checks.attempted, "ratio",
         f"{checks.failed} of {checks.attempted} checks failed"),
        ("trace_overhead_s", metrics["trace_overhead_s"] if args.trace else None, "s",
         "traced minus untraced iteration wall"),
    ]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(walls)} iterations x {len(sims)} sim calls, {TRIALS} trials each")
    for name, value, unit, note in summary:
        if value is not None:
            print(f"  {name:<17} {f'{value:.6g} {unit}':<18} {note}")
    for reason in checks.failures:
        print(f"  FAILED: {reason}")
    if args.trace:
        print("  self time by layer: " + ", ".join(
            f"{layer} {metrics[f'{layer}.self_s']:.4f}" for layer in LAYERS)
            + f"; traced wall {traced_wall:.4f} s")
        for entry in wanted:
            print(f"  {entry['name']:<36} {metrics[entry['name']]:.6g} {entry['unit']}")
    else:
        metrics = {name: value for name, value, _, _ in summary}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
