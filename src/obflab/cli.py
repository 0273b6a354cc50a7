"""Command-line interface and artifact persistence.

Three subcommands:

* ``obflab sim``      — run a seeded Monte-Carlo experiment and write the
  per-trial samples plus a summary;
* ``obflab analytic`` — tabulate an analytic marginal pdf/cdf on a grid,
  or print the analytic mean sum rate;
* ``obflab figure``   — produce the bundled CSV data behind the four
  standard plots (per-user density overlays and sum-rate sweeps).

Each subcommand first checks its flags and returns the job that does the
work; ``main`` turns a ``ValueError`` raised by the checks into exit 2,
before any file or directory is made, and, raised by the job, a
``NotImplementedError`` (a rank above the analytic laws' cap) into exit 3
and a ``QuadratureError`` into exit 4.

Artifacts are UTF-8 CSV (or JSON for ``sim --format json``).  Every
artifact embeds its RunManifest as a leading comment line (``_artifact``
lays out every CSV; ``sim`` streams its rows after it, one ``_csv_block``
per chunk as the chunk finishes); the manifest deliberately excludes
wall-clock fields so that re-running with the same flags and seed
reproduces the file byte for byte.  ``read_report_csv`` reads a ``sim``
CSV back.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, textfmt
from .channel import SystemParams
from .grids import rank_law
from .numerics import QuadratureError
from .montecarlo import (
    SCHEME_TABLE,
    SCHEMES,
    ExperimentConfig,
    ExperimentReport,
    _build_report,
    attach_analysis,
    run_experiment,
    worker_count,
)

__all__ = [
    "RunManifest",
    "main",
    "read_report_csv",
]

LN2 = math.log(2.0)

ANALYTIC_SCHEMES = {"obf": "adaptive-obf", "olbf": "olbf"}  # `analytic --scheme` names
FIG4_SCHEMES = ("adaptive-obf", "olbf", "zfs")
FIG5_SCHEMES = ("zfdp", "adaptive-obf", "olbf")
SIM_HEADER = "trial,user_rank,user_index,sinr,sum_rate_trial"


@dataclass(frozen=True)
class RunManifest:
    """Provenance record embedded in every artifact.

    ``content_hash`` is a SHA-256 over the canonical JSON of the config
    echo, so identical inputs hash identically on any platform.
    """

    command: str
    config: dict
    seed: int
    version: str = __version__

    @property
    def content_hash(self) -> str:
        blob = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_embedded_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config,
            "content_hash": self.content_hash,
            "seed": self.seed,
            "version": self.version,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def parse_embedded(line: str) -> dict:
        prefix = "# manifest: "
        if not line.startswith(prefix):
            raise ValueError("artifact does not start with a manifest line")
        return json.loads(line[len(prefix):])


def _artifact(manifest: RunManifest, header: str, rows=()) -> bytes:
    """A CSV artifact's bytes: the manifest comment, the header, then one line per row.

    A row's strings are written as they are, its numbers by ``repr``;
    every line ends in a newline.
    """
    lines = [f"# manifest: {manifest.to_embedded_json()}", header]
    lines += [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _csv_block(first_trial: int, users: np.ndarray, sinrs: np.ndarray, rates: np.ndarray,
               scale: float) -> bytes:
    """The CSV rows of consecutive trials from ``first_trial``, laid out by ``textfmt``.

    One row per (trial, user_rank): trial,user_rank,user_index,sinr,sum_rate_trial,
    with the bytes ``str`` and ``repr`` give; ``obflab sim`` writes one block
    per chunk, as the chunk finishes.
    """
    trials, r = sinrs.shape
    return textfmt.join_rows([  # (trials, 1), (r,) and (trials, r) columns
        textfmt.int_field(np.arange(first_trial, first_trial + trials)[:, None]),
        textfmt.int_field(np.arange(1, r + 1)),
        textfmt.int_field(users),
        textfmt.float_field(sinrs),
        textfmt.float_field(rates[:, None] * scale),
    ])


def read_report_csv(path: Path) -> tuple[dict, ExperimentReport]:
    """Rebuild (manifest dict, ExperimentReport) from a sim CSV artifact.

    The rows are parsed by ``np.loadtxt`` straight into one array of the
    user_index, sinr and sum_rate_trial columns.  Raises ``ValueError``
    unless there are exactly trials x r of them, r being the config's
    samples per trial.
    """
    with open(path, encoding="utf-8") as f:
        manifest = RunManifest.parse_embedded(f.readline().rstrip("\n"))
        if f.readline().rstrip("\n") != SIM_HEADER:
            raise ValueError("unexpected CSV header")
        columns = np.loadtxt(f, delimiter=",", usecols=(2, 3, 4), ndmin=2)
    cfg = manifest["config"]
    trials = cfg["trials"]
    config = ExperimentConfig(
        params=SystemParams(M=cfg["m"], K=cfg["k"], P=cfg["p_linear"], r=cfg["r"]),
        scheme=cfg["scheme"],
        trials=trials,
        seed=manifest["seed"],
        force_r=cfg.get("force_r"),
    )
    r = config.params.r
    if columns.shape[0] != trials * r:
        raise ValueError(f"CSV holds {columns.shape[0]} rows, not {trials} trials x {r} ranks")
    users = columns[:, 0].astype(np.int64).reshape(trials, r)
    sinrs = columns[:, 1].reshape(trials, r)
    scale = LN2 if cfg.get("bits") else 1.0
    rates = columns[::r, 2] * scale
    return manifest, _build_report(config, users, sinrs, rates)


def _write_json(path: Path, manifest: RunManifest, payload: dict, indent=None) -> None:
    """A JSON artifact: the payload's keys and the manifest under "manifest", sorted."""
    payload = {"manifest": json.loads(manifest.to_embedded_json()), **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=indent) + "\n", encoding="utf-8")


def _linear_power(snr_db: float) -> float:
    """10^(snr_db/10), or inf past the float range; the parameter records refuse inf."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


def cmd_sim(args):
    """Check the sim flags; return the job that runs the experiment and writes it."""
    p_linear = _linear_power(args.snr_db)
    r = args.force_r if args.force_r is not None else min(args.m, args.k)
    config = ExperimentConfig(
        params=SystemParams(M=args.m, K=args.k, P=p_linear, r=r),
        scheme=args.scheme,
        trials=args.trials,
        seed=args.seed,
        force_r=args.force_r,
    )
    threads = worker_count(args.threads)
    manifest = RunManifest(command="sim", seed=args.seed, config={
        "scheme": args.scheme,
        "m": args.m,
        "k": args.k,
        "snr_db": args.snr_db,
        "p_linear": p_linear,
        "r": r,
        "force_r": args.force_r,
        "trials": args.trials,
        "bits": args.bits,
    })
    out = Path(args.out) if args.out else Path(f"sim_{args.scheme}_{args.seed}.{args.format}")
    scale = 1.0 / LN2 if args.bits else 1.0

    def job() -> int:
        if args.format == "csv":
            # each chunk's block is written as soon as the chunk is audited; a
            # failed run leaves no CSV behind
            try:
                with open(out, "wb") as f:
                    f.write(_artifact(manifest, SIM_HEADER))
                    report = run_experiment(
                        config, threads=threads,
                        on_chunk=lambda lo, *rows: f.write(_csv_block(lo, *rows, scale)))
                report = attach_analysis(report)
            except BaseException:
                out.unlink(missing_ok=True)
                raise
        else:
            report = attach_analysis(run_experiment(config, threads=threads))
            _write_json(out, manifest, {
                "trial": list(range(args.trials)),
                "users": report.users.tolist(),
                "sinrs": report.sinrs.tolist(),
                "sum_rate_trial": (report.sum_rates * scale).tolist(),
            })
        analytic = report.analytic_mean_sum_rate
        _write_json(out.with_suffix(out.suffix + ".summary.json"), manifest, {
            "mean_sum_rate": report.mean_sum_rate * scale,
            "stderr_sum_rate": report.stderr_sum_rate * scale,
            "rate_unit": "bits" if args.bits else "nats",
            "ks_per_user": list(report.ks_per_user) if report.ks_per_user else None,
            "analytic_mean_sum_rate": None if analytic is None else analytic * scale,
        }, indent=2)
        print(f"wrote {out}")
        return 0

    return job


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ValueError(f"bad grid spec {spec!r}, expected start:stop:count") from exc
    if not (math.isfinite(start) and math.isfinite(stop) and min(start, stop) >= 0 and count >= 1):
        raise ValueError("grid must be finite, nonnegative and nonempty")
    return np.linspace(start, stop, count)


def cmd_analytic(args):
    """Check the analytic flags; return the job that prints the rate or writes the table."""
    p_linear = _linear_power(args.snr_db)
    analytic = SCHEME_TABLE[ANALYTIC_SCHEMES[args.scheme]].analytic
    params = analytic.params(args.m, args.k, p_linear, args.m if args.r is None else args.r)
    rank = params.r if args.sum_rate else args.user_rank  # the highest rank to tabulate
    if rank is None:
        raise ValueError("--user-rank is required unless --sum-rate is given")
    if not 1 <= rank <= params.r:
        raise ValueError(f"user rank must lie in 1..{params.r}")
    grid = None if args.sum_rate else _parse_grid(args.grid)

    def job() -> int:
        if args.sum_rate:
            rate = analytic.mean_sum_rate(params)
            print(repr(rate / LN2 if args.bits else rate))
            return 0
        pdf = analytic.pdf(rank, grid, params)
        cdf = rank_law(rank, params, analytic.grid).cdf_at(grid)
        manifest = RunManifest(command="analytic", seed=0, config={
            "scheme": args.scheme,
            "m": args.m,
            "k": args.k,
            "snr_db": args.snr_db,
            "p_linear": p_linear,
            "r": params.r,
            "user_rank": rank,
            "grid": args.grid,
        })
        out = Path(args.out) if args.out else Path(f"analytic_{args.scheme}_rank{rank}.csv")
        out.write_bytes(_artifact(manifest, "y,pdf,cdf",
                                  zip(grid.tolist(), pdf.tolist(), cdf.tolist())))
        print(f"wrote {out}")
        return 0

    return job


def _run_fixed_r(scheme, M, K, P, r, trials, seed, threads) -> ExperimentReport:
    """Run with r SINRs per trial."""
    config = ExperimentConfig(params=SystemParams(M=M, K=K, P=P, r=r), scheme=scheme,
                              trials=trials, seed=seed)
    return run_experiment(config, threads=threads)


def _rate_fields(report: ExperimentReport) -> tuple:
    """A sum-rate figure row's nats, bits and stderr (nats) fields."""
    return report.mean_sum_rate, report.mean_sum_rate / LN2, report.stderr_sum_rate


def _figure_overlay(scheme: str, out_dir: Path, trials: int, seed: int, threads) -> None:
    """fig1 / fig3 data: per-rank histogram plus analytic pdf, M in {2, 3}."""
    P = 10.0 ** 1.5
    K = 10
    analytic = SCHEME_TABLE[scheme].analytic
    for M in (2, 3):
        report = _run_fixed_r(scheme, M, K, P, M, trials, seed, threads)
        manifest = RunManifest(
            command="figure", config={"scheme": scheme, "m": M, "k": K,
                                      "snr_db": 15.0, "trials": trials},
            seed=seed,
        )
        params = analytic.params(M, K, P, M)
        hist_rows, pdf_rows = [], []
        for rank in range(1, M + 1):
            density, edges = np.histogram(report.sinrs[:, rank - 1], bins=100, density=True)
            hist_rows += [(rank, *row) for row in zip(edges[:-1].tolist(), edges[1:].tolist(),
                                                      density.tolist())]
            ys = np.linspace(0.0, float(edges[-1]), 200)
            pdf = analytic.pdf(rank, ys, params)
            pdf_rows += [(rank, *row) for row in zip(ys.tolist(), pdf.tolist())]
        (out_dir / f"hist_m{M}.csv").write_bytes(
            _artifact(manifest, "user_rank,bin_left,bin_right,density", hist_rows))
        (out_dir / f"analytic_m{M}.csv").write_bytes(
            _artifact(manifest, "user_rank,y,pdf", pdf_rows))


def _figure_rate_vs_power(out_dir: Path, trials: int, seed: int, threads) -> None:
    """fig4 data: sum rate vs P for M = r in {2, 4}, K = M."""
    manifest = RunManifest(command="figure", config={"name": "fig4", "trials": trials},
                           seed=seed)
    rows = []
    for M in (2, 4):
        for p_db in range(-10, 22, 2):
            P = 10.0 ** (p_db / 10.0)
            for scheme in FIG4_SCHEMES:
                rep = _run_fixed_r(scheme, M, M, P, M, trials, seed, threads)
                rows.append((p_db, M, scheme, *_rate_fields(rep)))
    (out_dir / "fig4.csv").write_bytes(_artifact(
        manifest, "p_db,m,scheme,sum_rate_nats,sum_rate_bits,stderr_nats", rows))


def _figure_rate_vs_users(out_dir: Path, trials: int, seed: int, threads) -> None:
    """fig5 data: sum rate vs K for M = r = 3, P in {0, 10} dB."""
    manifest = RunManifest(command="figure", config={"name": "fig5", "trials": trials},
                           seed=seed)
    rows, ratio_rows = [], []
    for p_db in (0, 10):
        P = 10.0 ** (p_db / 10.0)
        for K in range(3, 21):
            means = {}
            for scheme in FIG5_SCHEMES:
                rep = _run_fixed_r(scheme, 3, K, P, 3, trials, seed, threads)
                means[scheme] = rep.mean_sum_rate
                analytic = SCHEME_TABLE[scheme].analytic
                rate = "" if analytic is None else analytic.mean_sum_rate(
                    analytic.params(3, K, P, 3))
                rows.append((K, p_db, scheme, *_rate_fields(rep), rate))
            ratio_rows.append((K, p_db, means["adaptive-obf"] / means["zfdp"],
                               means["olbf"] / means["zfdp"]))
    (out_dir / "fig5.csv").write_bytes(_artifact(
        manifest, "k,p_db,scheme,sum_rate_nats,sum_rate_bits,stderr_nats,analytic_nats", rows))
    (out_dir / "fig5_ratios.csv").write_bytes(_artifact(
        manifest, "k,p_db,ratio_adaptive_obf,ratio_olbf", sorted(ratio_rows)))


FIGURES = {  # `figure` name -> writer(out_dir, trials, seed, threads)
    "fig1": partial(_figure_overlay, "adaptive-obf"),
    "fig3": partial(_figure_overlay, "olbf"),
    "fig4": _figure_rate_vs_power,
    "fig5": _figure_rate_vs_users,
}


def cmd_figure(args):
    """Check the figure flags; return the job that runs the figure and writes its files."""
    threads = worker_count(args.threads)
    # every run of a figure takes these trials and this seed: check them on one config
    ExperimentConfig(params=SystemParams(M=1, K=1, P=1.0, r=1), scheme="zfdp",
                     trials=args.trials, seed=args.seed)
    out_dir = Path(args.out_dir) / args.name

    def job() -> int:
        out_dir.mkdir(parents=True, exist_ok=True)
        FIGURES[args.name](out_dir, args.trials, args.seed, threads)
        print(f"wrote {out_dir}/")
        return 0

    return job


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obflab",
        description="Simulation and exact analysis of greedy orthogonal beamforming schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="run a seeded Monte-Carlo experiment")
    sim.add_argument("--scheme", required=True, choices=SCHEMES)
    sim.add_argument("--m", required=True, type=int)
    sim.add_argument("--k", required=True, type=int)
    sim.add_argument("--snr-db", required=True, type=float)
    sim.add_argument("--trials", required=True, type=int)
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--force-r", type=int, default=None)
    sim.add_argument("--out", default=None)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--threads", type=int, default=None)
    sim.add_argument("--bits", action="store_true")
    sim.set_defaults(func=cmd_sim)

    ana = sub.add_parser("analytic", help="tabulate analytic marginal pdf/cdf")
    ana.add_argument("--scheme", required=True, choices=tuple(ANALYTIC_SCHEMES))
    ana.add_argument("--m", required=True, type=int)
    ana.add_argument("--k", required=True, type=int)
    ana.add_argument("--snr-db", required=True, type=float)
    ana.add_argument("--r", type=int, default=None)
    ana.add_argument("--user-rank", type=int, default=None)
    ana.add_argument("--grid", default="0:20:200")
    ana.add_argument("--out", default=None)
    ana.add_argument("--sum-rate", action="store_true")
    ana.add_argument("--bits", action="store_true")
    ana.set_defaults(func=cmd_analytic)

    fig = sub.add_parser("figure", help="emit the CSV bundle behind a standard plot")
    fig.add_argument("name", choices=tuple(FIGURES))
    fig.add_argument("--trials", type=int, default=100000)
    fig.add_argument("--seed", type=int, default=1)
    fig.add_argument("--out-dir", default="figures")
    fig.add_argument("--threads", type=int, default=None)
    fig.set_defaults(func=cmd_figure)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        job = args.func(args)  # the flags' checks; nothing is written yet
    except ValueError as exc:  # a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return job()
    except (NotImplementedError, QuadratureError) as exc:  # rank over the cap; table unresolved
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NotImplementedError) else 4


if __name__ == "__main__":
    sys.exit(main())
