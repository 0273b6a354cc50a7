import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from obflab import cli, montecarlo
from obflab.channel import SystemParams
from obflab.cli import SIM_HEADER, RunManifest, _artifact, _csv_block, main, read_report_csv
from obflab.montecarlo import CHUNK, ExperimentConfig, _build_report


def run_main(args):
    return main(args)


def test_sim_csv_roundtrip(tmp_path):
    out = tmp_path / "run.csv"
    code = run_main([
        "sim", "--scheme", "adaptive-obf", "--m", "2", "--k", "3",
        "--snr-db", "10", "--trials", "200", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    manifest, report = read_report_csv(out)
    assert manifest["config"]["scheme"] == "adaptive-obf"
    assert manifest["seed"] == 7
    assert report.sinrs.shape == (200, 2)
    assert np.allclose(
        report.sum_rates, np.sum(np.log1p(report.sinrs), axis=1), rtol=1e-12
    )
    summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
    assert summary["mean_sum_rate"] == pytest.approx(report.mean_sum_rate)
    assert summary["manifest"]["content_hash"] == manifest["content_hash"]


def test_sim_csv_cut_short_is_refused(tmp_path):
    # 200 of 300 trials at r = 3 are 600 rows, which divide by 300 trials too:
    # the reader must not take them for 300 trials of 2 ranks
    out = tmp_path / "run.csv"
    assert run_main([
        "sim", "--scheme", "zfdp", "--m", "3", "--k", "10", "--snr-db", "15",
        "--trials", "300", "--seed", "1", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines(keepends=True)
    for rows in (600, 899):  # 200 whole trials; a last trial missing one rank
        out.write_text("".join(lines[:2 + rows]))
        with pytest.raises(ValueError, match="rows"):
            read_report_csv(out)


def test_sim_rerun_byte_identical(tmp_path):
    args = [
        "sim", "--scheme", "olbf", "--m", "2", "--k", "4",
        "--snr-db", "5", "--trials", "150", "--seed", "3",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_main(args + ["--out", str(a)]) == 0
    assert run_main(args + ["--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.summary.json").read_bytes() == (
        tmp_path / "b.csv.summary.json"
    ).read_bytes()


def _reference_csv(report, path, manifest, bits):
    # the row-at-a-time formatter that the column-wise writer must match byte for byte
    scale = 1.0 / math.log(2.0) if bits else 1.0
    lines = [f"# manifest: {manifest.to_embedded_json()}",
             "trial,user_rank,user_index,sinr,sum_rate_trial"]
    trials, r = report.sinrs.shape
    for t in range(trials):
        rate = repr(float(report.sum_rates[t]) * scale)
        for j in range(r):
            lines.append(
                f"{t},{j + 1},{report.users[t, j]},{float(report.sinrs[t, j])!r},{rate}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _block_csv(report, path, manifest, bits=False):
    # the bytes `obflab sim` streams: the artifact's head, then one block per chunk
    scale = 1.0 / math.log(2.0) if bits else 1.0
    with open(path, "wb") as f:
        f.write(_artifact(manifest, SIM_HEADER))
        for lo in range(0, report.sum_rates.size, CHUNK):
            rows = slice(lo, lo + CHUNK)
            f.write(_csv_block(lo, report.users[rows], report.sinrs[rows],
                               report.sum_rates[rows], scale))


@pytest.mark.parametrize("bits", [False, True], ids=["nats", "bits"])
@pytest.mark.parametrize("r", [1, 4])
def test_csv_writer_matches_the_row_formatter(r, bits, tmp_path):
    trials, K = CHUNK + 3, 10
    rng = np.random.default_rng(r)
    sinrs = rng.exponential(10.0, (trials, r)) * 10.0 ** rng.integers(-6, 12, (trials, r))
    # every branch of float repr: zero, subnormal, both exponent thresholds, long fixed
    special = [0.0, 5e-324, 1e-05, 0.0001, 1e16, 123456789.123456]
    sinrs.flat[:len(special)] = special
    sinrs.flat[-len(special):] = special  # in the last, 3-trial block too
    users = rng.integers(0, K, (trials, r))
    rates = np.log1p(sinrs).sum(axis=1)
    config = ExperimentConfig(params=SystemParams(M=4, K=K, P=10.0, r=r), scheme="zfs",
                              trials=trials, seed=3)
    report = _build_report(config, users, sinrs, rates)
    manifest = RunManifest(command="sim", seed=3, version="test", config={
        "scheme": "zfs", "m": 4, "k": K, "snr_db": 10.0, "p_linear": 10.0, "r": r,
        "force_r": None, "trials": trials, "bits": bits,
    })
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    _block_csv(report, out, manifest, bits=bits)
    _reference_csv(report, ref, manifest, bits)
    assert out.read_bytes() == ref.read_bytes()
    _, back = read_report_csv(out)
    assert np.array_equal(back.users, users)
    assert np.array_equal(back.sinrs.view(np.uint64), sinrs.view(np.uint64))
    if bits:
        assert np.allclose(back.sum_rates, rates, rtol=1e-15, atol=0)
    else:
        assert np.array_equal(back.sum_rates, rates)

    # ranks left unscheduled (user -1, SINR NaN), as a stopping rule leaves them
    users, sinrs = users.copy(), sinrs.copy()
    users[1::2, r - 1], sinrs[1::2, r - 1] = -1, np.nan
    rates = np.log1p(np.nan_to_num(sinrs)).sum(axis=1)
    padded = _build_report(config, users, sinrs, rates)
    _block_csv(padded, out, manifest, bits=bits)
    _reference_csv(padded, ref, manifest, bits)
    assert out.read_bytes() == ref.read_bytes()


def test_csv_reader_peak_memory(tmp_path):
    # the reader parses the columns it keeps into one array; reading every
    # line into lists of strings peaked at 11 times the file's size
    trials, r = 20000, 3
    rng = np.random.default_rng(5)
    sinrs = rng.exponential(30.0, (trials, r))
    rates = np.log1p(sinrs).sum(axis=1)
    config = ExperimentConfig(params=SystemParams(M=3, K=10, P=10.0, r=r), scheme="zfs",
                              trials=trials, seed=5)
    report = _build_report(config, rng.integers(0, 10, (trials, r)), sinrs, rates)
    manifest = RunManifest(command="sim", seed=5, version="test", config={
        "scheme": "zfs", "m": 3, "k": 10, "snr_db": 10.0, "p_linear": 10.0, "r": r,
        "force_r": None, "trials": trials, "bits": False,
    })
    out = tmp_path / "run.csv"
    _block_csv(report, out, manifest)
    tracemalloc.start()
    try:
        _, back = read_report_csv(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.sinrs, sinrs)
    assert peak <= 2 * out.stat().st_size


# SHA-256 of the CSV and summary of `obflab sim` at M=3, K=10, 15 dB, 5000
# trials, seed 7; the manifest embeds the package version, so a version bump
# changes them
SIM_ARTIFACT_HASHES = {
    "adaptive-obf": ("2958255f0c960cb9e5bbcbd2357b9c8d2c14dc30e6dc1364c35ce70bb601f853",
                     "96b3070005bc556ea27d3d537f1ef85d05474ea28289a7d45266b103c81090ff"),
    "olbf": ("3b6aeb4169f09c80bced018f1bad6ead77d838473a79140a4b4cf3c380c49131",
             "ad40988de92dff09851242d4ae20f055e660b75e92e26b19cce5b0a7e317f5c9"),
    "zfs": ("5177df0bddc638ade492518b61446d16e7373da533717f13bc4cc84e85e9faa7",
            "a256ee241345a6f6c2d8a2edbe597f1bfb947fded56efad8123b1287a1818286"),
    "zfdp": ("591501703a337767bdadd1b82ff3f711001a0bec2e61ebd5410c04773e300e83",
             "9f64ed69f76adba0cab295ba41e8ff5589fd5c87ff3415a4fbffa7436aa40c44"),
    "random-obf": ("6179e30ee5cd5b155e10807164aee2a4f0e744708681158c73579bf6c0e844a1",
                   "4e57d6e3478959135cef729beb3f44a194e7ecac186462115a6a46dc747b23b3"),
    "random-olbf": ("652d85fa593ed363f6c6d3ad82dc13b9f0d164735783dcbba698f093822e1d73",
                    "e15e90ddd321c71bfa68a1b646a72e5585fb2555d5132caecf168ee017eeea4a"),
}


# SHA-256 of each file of `obflab figure NAME --trials 200 --seed 1`
FIGURE_HASHES = {
    "fig1": {
        "analytic_m2.csv": "4c49598d3b56ac4a884bf713c91b3a1bb446fdadded0143c1548e0fe10271331",
        "analytic_m3.csv": "f828e909ff2c1c85689e90d648ed06667c53ceac0e4cc8c4a76f2a6b4d1f8628",
        "hist_m2.csv": "ca35c816c1d7c8993258fd24204115c426e40d1b07a919bf3b26494f562a468e",
        "hist_m3.csv": "b9a9ca6028080f654f37db9a5c71b375a97a46f071a32b1cd0e35dddeba4b6f9",
    },
    "fig3": {
        "analytic_m2.csv": "0a66f519b09e741f16b975b9edcdc92677c973d008d18f508013415bbcdb8d06",
        "analytic_m3.csv": "54691f9b4722a4a299c56e71ebd45c2e4d544f43c83d051ecd023ff7b98d45c1",
        "hist_m2.csv": "2193f5e4583825e46e7eff782080d1006cdc1e5d3edea4f09a908329edc84d40",
        "hist_m3.csv": "fcb8b3237d762dff21d0aa950849bb6482f47ad684c58cab65f6986fed6b350d",
    },
    "fig4": {
        "fig4.csv": "bec146d57aae90aa17d1d6015b45b56fea2e66c59bab322e9d263a2888567242",
    },
    "fig5": {
        "fig5.csv": "21270fbd44bb63c66f9857ee80bfb0bf93384741858e1e10e1d02672155a30ae",
        "fig5_ratios.csv": "17c1273d86f02a1db9a071b94e0581bf42eedb8edb1864b96286beb701319ccc",
    },
}

# SHA-256 of the `analytic --m 3 --k 10 --snr-db 15` CSV at --user-rank 2
# --grid 0:20:50, and of its --sum-rate stdout
ANALYTIC_HASHES = {
    "obf": ("efa2395188b59de4f551006bd2e5e2b85a859dcb07adc6d3f2927fbd5f173f08",
            "7c61c660e1ec142d64f8479b10193b60a5f6b12a85777fdce2ea675bc9153811"),
    "olbf": ("6726fe90ad309d2793c5c366754279b09054837b5994a10241d8e7e6c9a1227c",
             "4116f744daf9b540be21bc1d52f0928e23237d9d8cb17583591d9029cace9ceb"),
}

# SHA-256 of the JSON and summary of the adaptive-obf run of SIM_ARTIFACT_HASHES
# with --format json
SIM_JSON_HASHES = ("3d6fb0748bf3dea7decc335408b1520e77bb915a3c51f6bc3bd3a66c28c260e5",
                   "96b3070005bc556ea27d3d537f1ef85d05474ea28289a7d45266b103c81090ff")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(FIGURE_HASHES))
def test_figure_artifacts_are_pinned(name, tmp_path):
    assert run_main(["figure", name, "--trials", "200", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
    assert {p.name: _sha256(p.read_bytes())
            for p in (tmp_path / name).iterdir()} == FIGURE_HASHES[name]


@pytest.mark.parametrize("scheme", list(ANALYTIC_HASHES))
def test_analytic_artifacts_are_pinned(scheme, tmp_path, capsys):
    argv = ["analytic", "--scheme", scheme, "--m", "3", "--k", "10", "--snr-db", "15"]
    out = tmp_path / "pdf.csv"
    assert run_main(argv + ["--user-rank", "2", "--grid", "0:20:50", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_main(argv + ["--sum-rate"]) == 0
    digests = (_sha256(out.read_bytes()), _sha256(capsys.readouterr().out.encode()))
    assert digests == ANALYTIC_HASHES[scheme]


def test_sim_json_artifacts_are_pinned(tmp_path):
    out = tmp_path / "run.json"
    assert run_main([
        "sim", "--scheme", "adaptive-obf", "--m", "3", "--k", "10", "--snr-db", "15",
        "--trials", "5000", "--seed", "7", "--format", "json", "--out", str(out),
    ]) == 0
    digests = tuple(_sha256(p.read_bytes())
                    for p in (out, tmp_path / "run.json.summary.json"))
    assert digests == SIM_JSON_HASHES


@pytest.mark.parametrize("scheme", list(SIM_ARTIFACT_HASHES))
def test_sim_artifacts_are_pinned(scheme, tmp_path):
    out = tmp_path / "run.csv"
    assert run_main([
        "sim", "--scheme", scheme, "--m", "3", "--k", "10", "--snr-db", "15",
        "--trials", "5000", "--seed", "7", "--out", str(out),
    ]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (out, tmp_path / "run.csv.summary.json"))
    assert digests == SIM_ARTIFACT_HASHES[scheme]


@pytest.mark.parametrize("bits", [[], ["--bits"]], ids=["nats", "bits"])
@pytest.mark.parametrize("threads", ["1", "3"])
def test_streamed_csv_matches_the_report_writer(threads, bits, monkeypatch, tmp_path):
    # sim writes each chunk's block as it finishes; the last chunk holds 7 trials.
    # The blocks must read as the row-at-a-time reference writes the whole report
    reports = []

    def run(*args, **kwargs):
        reports.append(montecarlo.run_experiment(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "run_experiment", run)
    out, ref = tmp_path / "run.csv", tmp_path / "ref.csv"
    assert run_main([
        "sim", "--scheme", "zfdp", "--m", "3", "--k", "10", "--snr-db", "15",
        "--trials", str(2 * CHUNK + 7), "--seed", "5", "--threads", threads,
        "--out", str(out), *bits,
    ]) == 0
    with open(out, encoding="utf-8") as f:
        embedded = RunManifest.parse_embedded(f.readline().rstrip("\n"))
    manifest = RunManifest(command=embedded["command"], config=embedded["config"],
                           seed=embedded["seed"], version=embedded["version"])
    _reference_csv(reports[0], ref, manifest, bool(bits))
    assert out.read_bytes() == ref.read_bytes()


def test_failed_sim_leaves_no_csv_and_no_threads(monkeypatch, tmp_path):
    argv = ["sim", "--scheme", "zfdp", "--m", "3", "--k", "10", "--snr-db", "15",
            "--trials", str(6 * CHUNK), "--seed", "2", "--threads", "1"]
    before = threading.active_count()
    assert run_main(argv + ["--out", str(tmp_path / "good.csv")]) == 0
    assert threading.active_count() == before

    real_chunk, chunks, failed = montecarlo._run_chunk, [], threading.Event()

    def run_chunk(config, c, *rows):
        chunks.append(c)
        if c >= 2:  # hold the worker until the audit of chunk 1 has failed
            failed.wait(timeout=30)
        return real_chunk(config, c, *rows)

    real_audit, audited = montecarlo._audit_trial, []

    def audit(config, H_row, users, sinrs):
        audited.append(H_row)
        if len(audited) == 6:  # trial 5000, the first audited trial of chunk 1
            failed.set()
            raise AssertionError("audit failed in chunk 1")
        real_audit(config, H_row, users, sinrs)

    monkeypatch.setattr(montecarlo, "_run_chunk", run_chunk)
    monkeypatch.setattr(montecarlo, "_audit_trial", audit)
    out = tmp_path / "bad.csv"
    with pytest.raises(AssertionError, match="chunk 1"):
        run_main(argv + ["--out", str(out)])
    assert not out.exists()
    assert not (tmp_path / "bad.csv.summary.json").exists()
    assert len(chunks) < 6, chunks  # the queued chunks were cancelled
    assert threading.active_count() == before


@pytest.mark.parametrize("argv,env", [
    (["sim", "--threads", "0"], None),
    (["sim", "--threads", "-2"], None),
    (["sim"], "abc"),
    (["figure", "fig4", "--threads", "0"], None),
    (["figure", "fig4"], "abc"),
    # numpy's SeedSequence used to refuse a negative seed inside a worker, and
    # figure made its directory before its first run refused 0 trials
    (["sim", "--seed", "-1"], None),
    (["figure", "fig1", "--seed", "-3"], None),
    (["figure", "fig4", "--trials", "0"], None),
])
def test_bad_thread_count_is_a_usage_error(argv, env, monkeypatch, tmp_path, capsys):
    # the message names the environment variable or the last flag of argv
    named = "OBFLAB_THREADS" if env else argv[-2].lstrip("-")
    if env is not None:
        monkeypatch.setenv("OBFLAB_THREADS", env)
    if argv[0] == "sim":
        rest = {"--scheme": "zfdp", "--m": "3", "--k": "10", "--snr-db": "15",
                "--trials": "100", "--seed": "1", "--out": str(tmp_path / "run.csv")}
    else:
        rest = {"--trials": "100", "--out-dir": str(tmp_path)}
    argv = argv + [a for flag, value in rest.items() if flag not in argv for a in (flag, value)]
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("snr_db", ["nan", "inf", "4000"])
@pytest.mark.parametrize("command", ["sim", "sum-rate", "cdf"])
def test_non_finite_snr_is_a_usage_error(command, snr_db, tmp_path, capsys):
    # nan used to fail the scalar audit and inf to write Infinity into the
    # summary; analytic divided by zero at inf and tabulated up to the cap at
    # nan; 4000 dB overflowed 10 ** (dB / 10) with a traceback
    out = tmp_path / "out.csv"
    if command == "sim":
        argv = ["sim", "--scheme", "adaptive-obf", "--m", "3", "--k", "10",
                "--trials", "100", "--seed", "1"]
    else:
        argv = ["analytic", "--scheme", "obf", "--m", "3", "--k", "10",
                *(["--sum-rate"] if command == "sum-rate" else ["--user-rank", "2"])]
    assert run_main(argv + ["--snr-db", snr_db, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: P must be positive and finite")
    assert not out.exists()


def test_sim_json_format(tmp_path):
    out = tmp_path / "run.json"
    code = run_main([
        "sim", "--scheme", "zfdp", "--m", "3", "--k", "5",
        "--snr-db", "10", "--trials", "50", "--seed", "2",
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["manifest"]["config"]["scheme"] == "zfdp"
    assert len(payload["sum_rate_trial"]) == 50


def test_sim_bits_flag_scales_rates(tmp_path):
    base = [
        "sim", "--scheme", "adaptive-obf", "--m", "2", "--k", "3",
        "--snr-db", "10", "--trials", "50", "--seed", "9",
    ]
    nats, bits = tmp_path / "n.csv", tmp_path / "b.csv"
    run_main(base + ["--out", str(nats)])
    run_main(base + ["--out", str(bits), "--bits"])
    sn = json.loads((tmp_path / "n.csv.summary.json").read_text())
    sb = json.loads((tmp_path / "b.csv.summary.json").read_text())
    assert sb["rate_unit"] == "bits"
    assert sb["mean_sum_rate"] == pytest.approx(
        sn["mean_sum_rate"] / math.log(2.0)
    )


def test_sim_usage_error_exit_code(capsys):
    # OLBF with K < M is invalid
    code = run_main([
        "sim", "--scheme", "olbf", "--m", "5", "--k", "3",
        "--snr-db", "10", "--trials", "10", "--seed", "1",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["olbf", "random-olbf"])
def test_sim_olbf_single_antenna_is_a_usage_error(scheme, tmp_path, capsys):
    # the OLBF beam set needs a null space, which M = 1 does not have
    code = run_main([
        "sim", "--scheme", scheme, "--m", "1", "--k", "3",
        "--snr-db", "10", "--trials", "50", "--seed", "1",
        "--out", str(tmp_path / "run.csv"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {scheme} needs M >= 2, got M=1\n"
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("scheme", ["adaptive-obf", "olbf"])
def test_sim_keeps_its_output_when_the_analysis_is_unresolved(scheme, tmp_path):
    # at 50 dB the rank-2 table is not resolved at the 4096 cap
    out = tmp_path / "run.csv"
    with pytest.warns(RuntimeWarning, match="analysis skipped: density not resolved"):
        code = run_main([
            "sim", "--scheme", scheme, "--m", "2", "--k", "10",
            "--snr-db", "50", "--trials", "200", "--seed", "1", "--out", str(out),
        ])
    assert code == 0
    _, report = read_report_csv(out)
    assert report.sinrs.shape == (200, 2)
    summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
    assert summary["mean_sum_rate"] == pytest.approx(report.mean_sum_rate)
    assert summary["ks_per_user"] is None
    assert summary["analytic_mean_sum_rate"] is None


def test_analytic_csv_and_grid(tmp_path):
    out = tmp_path / "pdf.csv"
    code = run_main([
        "analytic", "--scheme", "obf", "--m", "3", "--k", "10",
        "--snr-db", "15", "--user-rank", "2", "--grid", "0:10:21",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    manifest = RunManifest.parse_embedded(lines[0])
    assert manifest["config"]["user_rank"] == 2
    assert lines[1] == "y,pdf,cdf"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert rows.shape == (21, 3)
    assert np.allclose(rows[:, 0], np.linspace(0, 10, 21))
    assert np.all(rows[:, 1] >= 0)
    assert np.all(np.diff(rows[:, 2]) >= -1e-12)  # CDF nondecreasing


def test_analytic_sum_rate_prints_value(capsys):
    code = run_main([
        "analytic", "--scheme", "olbf", "--m", "2", "--k", "10",
        "--snr-db", "10", "--sum-rate",
    ])
    assert code == 0
    val = float(capsys.readouterr().out.strip())
    assert 0.0 < val < 20.0


@pytest.mark.parametrize("scheme", ["obf", "olbf"])
@pytest.mark.parametrize("ask", [
    ["--snr-db", "50", "--sum-rate"],  # rank 1's rate is closed form; rank 2's table
    ["--snr-db", "50", "--user-rank", "2"],  # rank 1's CDF is closed form; rank 2's table
], ids=["sum-rate", "cdf"])
def test_analytic_unresolved_table_is_an_error(scheme, ask, tmp_path, capsys):
    out = tmp_path / "pdf.csv"
    code = run_main([
        "analytic", "--scheme", scheme, "--m", "2", "--k", "10", "--out", str(out), *ask,
    ])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: density not resolved at n = 4096")
    assert not out.exists()


def test_analytic_sum_rate_answers_where_ranks_2_and_3_resolve(capsys):
    # at 40 dB OLBF's rank-2 and rank-3 tables resolve, but a rank-1 table
    # did not (off by 2.4e-5 at n = 4096), so `--sum-rate` exited 4
    assert run_main(["analytic", "--scheme", "olbf", "--m", "3", "--k", "10",
                     "--snr-db", "40", "--sum-rate"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(12.717995017209, rel=1e-12, abs=0)


def test_sim_analyses_olbf_at_40_db(tmp_path):
    # with a rank-1 table the analysis was skipped here; at seed 11 the KS
    # read 0.0021, 0.0023, 0.0025 and Monte-Carlo 12.71876 +- 0.00281 against 12.71800
    out = tmp_path / "run.csv"
    assert run_main(["sim", "--scheme", "olbf", "--m", "3", "--k", "10", "--snr-db", "40",
                     "--trials", "100000", "--seed", "11", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
    assert summary["ks_per_user"] is not None and len(summary["ks_per_user"]) == 3
    assert max(summary["ks_per_user"]) <= 0.01, summary["ks_per_user"]
    z = (summary["mean_sum_rate"] - summary["analytic_mean_sum_rate"]) / summary["stderr_sum_rate"]
    assert abs(z) <= 4.0, z


@pytest.mark.parametrize("scheme", ["obf", "olbf"])
@pytest.mark.parametrize("snr_db", [25, 40])
def test_analytic_rank1_cdf_is_the_max_norm_law(scheme, snr_db, tmp_path):
    # the rank-1 CDF is P(M, (r/P) y)^K; read off the rank-1 table it
    # exited 4 at 40 dB and reached 1.0000000000000127 at 25 dB
    out = tmp_path / "rank1.csv"
    code = run_main([
        "analytic", "--scheme", scheme, "--m", "3", "--k", "10", "--snr-db", str(snr_db),
        "--user-rank", "1", "--grid", "0:20000:41", "--out", str(out),
    ])
    assert code == 0
    y, _, cdf = np.loadtxt(out, delimiter=",", skiprows=2, unpack=True)
    want = special.gammainc(3, 3.0 / 10.0 ** (snr_db / 10.0) * y) ** 10
    assert np.allclose(cdf, want, rtol=1e-14, atol=0)
    assert cdf.max() <= 1.0


def test_analytic_refuses_a_table_off_its_mass(capsys):
    # at 30 dB the OBF rank-3 table resolves but misses 3.7e-6 of its mass;
    # unchecked it gave 9.671 against a Monte-Carlo mean of 12.17
    code = run_main([
        "analytic", "--scheme", "obf", "--m", "3", "--k", "10",
        "--snr-db", "30", "--sum-rate",
    ])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: density mass off 1 by more than 1e-06")


def test_analytic_sum_rate_at_25_db(capsys):
    # the Monte-Carlo mean at 10^5 trials (seed 11) is 10.8704 +- 0.0038
    code = run_main([
        "analytic", "--scheme", "obf", "--m", "3", "--k", "10",
        "--snr-db", "25", "--sum-rate",
    ])
    assert code == 0
    assert float(capsys.readouterr().out) == pytest.approx(10.8696, abs=1e-4)


def test_sim_nulls_the_analysis_off_its_mass(tmp_path):
    out = tmp_path / "run.csv"
    with pytest.warns(RuntimeWarning, match="analysis skipped: density mass off 1"):
        code = run_main([
            "sim", "--scheme", "adaptive-obf", "--m", "3", "--k", "10",
            "--snr-db", "30", "--trials", "200", "--seed", "1", "--out", str(out),
        ])
    assert code == 0
    summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
    assert summary["ks_per_user"] is None
    assert summary["analytic_mean_sum_rate"] is None


def test_analytic_olbf_rejects_r_below_m(tmp_path, capsys):
    # OLBF always serves all M beams; an --r it cannot honour is a usage error
    code = run_main([
        "analytic", "--scheme", "olbf", "--m", "3", "--k", "10",
        "--snr-db", "15", "--r", "2", "--sum-rate",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: OLBF serves all M = 3 beams")


_RANK_CAP_ERROR = "error: analytic laws cover ranks 1-3, not rank 4\n"


def test_analytic_rank_above_three_notice(tmp_path, capsys):
    out = tmp_path / "pdf.csv"
    code = run_main([
        "analytic", "--scheme", "obf", "--m", "4", "--k", "10",
        "--snr-db", "10", "--r", "4", "--user-rank", "4", "--out", str(out),
    ])
    assert code == 3
    assert capsys.readouterr() == ("", _RANK_CAP_ERROR)
    assert not out.exists()


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_analytic_ranks_below_the_cap_answer_at_m4(rank, tmp_path, capsys):
    out = tmp_path / "pdf.csv"
    assert run_main([
        "analytic", "--scheme", "obf", "--m", "4", "--k", "10", "--snr-db", "10", "--r", "4",
        "--user-rank", str(rank), "--grid", "0:10:5", "--out", str(out),
    ]) == 0
    assert len(out.read_text().splitlines()) == 2 + 5


@pytest.mark.parametrize("scheme", ["obf", "olbf"])
def test_analytic_sum_rate_above_rank_three_notice(scheme, tmp_path, capsys, monkeypatch):
    # the sum rate needs every rank's law, and rank 4 has none
    monkeypatch.chdir(tmp_path)
    code = run_main([
        "analytic", "--scheme", scheme, "--m", "4", "--k", "10",
        "--snr-db", "10", "--sum-rate",
    ])
    assert code == 3
    assert capsys.readouterr() == ("", _RANK_CAP_ERROR)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,message", [
    pytest.param([], "--user-rank is required unless --sum-rate is given", id="no-rank"),
    pytest.param(["--user-rank", "0"], "user rank must lie in 1..3", id="rank-0"),
    pytest.param(["--user-rank", "4"], "user rank must lie in 1..3", id="rank-r-plus-1"),
])
def test_analytic_rank_usage_errors(flags, message, tmp_path, capsys):
    out = tmp_path / "pdf.csv"
    code = run_main(["analytic", "--scheme", "obf", "--m", "3", "--k", "10", "--snr-db", "15",
                     *flags, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_analytic_bad_grid_exit_code(capsys):
    code = run_main([
        "analytic", "--scheme", "obf", "--m", "3", "--k", "10",
        "--snr-db", "10", "--user-rank", "1", "--grid", "oops",
    ])
    assert code == 2


@pytest.mark.parametrize("grid", ["0:inf:3", "nan:1:3", "1:nan:3", "0:-inf:3"])
def test_analytic_non_finite_grid_is_a_usage_error(grid, tmp_path, capsys):
    # these wrote NaN rows and exited 0
    out = tmp_path / "pdf.csv"
    code = run_main([
        "analytic", "--scheme", "obf", "--m", "3", "--k", "10", "--snr-db", "15",
        "--user-rank", "2", "--grid", grid, "--out", str(out),
    ])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_usage_error_exit_code_from_argparse():
    proc = subprocess.run(
        [sys.executable, "-m", "obflab.cli", "sim", "--scheme", "bogus"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_sim_csv_does_not_depend_on_blas_threads(tmp_path):
    # the kernels call BLAS from the pool workers; one BLAS thread must give the same bytes
    args = ["sim", "--scheme", "olbf", "--m", "4", "--k", "100", "--snr-db", "15",
            "--trials", "9000", "--seed", "3", "--threads", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    with pytest.warns(RuntimeWarning, match="analytic laws cover ranks 1-3, not rank 4"):
        assert run_main(args + ["--out", str(a)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "obflab.cli", *args, "--out", str(b)],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert _sha256(b.read_bytes()) == _sha256(a.read_bytes())


def test_figure_fig1_outputs(tmp_path):
    code = run_main([
        "figure", "fig1", "--trials", "500", "--seed", "4",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = tmp_path / "fig1"
    for name in ("hist_m2.csv", "hist_m3.csv", "analytic_m2.csv", "analytic_m3.csv"):
        lines = (out / name).read_text().splitlines()
        RunManifest.parse_embedded(lines[0])
        assert len(lines) > 10


def test_manifest_hash_stable_and_timestamp_excluded():
    m1 = RunManifest(command="sim", config={"a": 1}, seed=5, version="0.1.0")
    m2 = RunManifest(command="sim", config={"a": 1}, seed=5, version="0.1.0")
    assert m1.content_hash == m2.content_hash
    assert m1.to_embedded_json() == m2.to_embedded_json()
    assert "timestamp" not in m1.to_embedded_json()
