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

from obflab import cli, montecarlo
from obflab.channel import SystemParams
from obflab.cli import RunManifest, main, read_report_csv, write_report_csv
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
    write_report_csv(report, out, manifest, bits=bits)
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
    write_report_csv(padded, out, manifest, bits=bits)
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
    write_report_csv(report, out, manifest)
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
    "adaptive-obf": ("c72dade383d102ce2b66a85f0f0962dcc67808a1135867f49caa8123c8977521",
                     "b3938a52a563b36e4b28cc248e9f53634d535263b9e9911a1b92dbad52a7c093"),
    "olbf": ("7ebbef9a949e245abe06bef85b13d1b3b16dd065c645a300ca4326895e02a77e",
             "be43113607ef1fffc6c44a2eea39edebfd4abfcfb7d44f0b5c50a5637245761c"),
    "zfs": ("48ed05287ce343b3fb3310cd251a0a854a69e72de2dfe906113972b269ba02aa",
            "029ecfee123754e3c546d23de2122ef5b11f10940f9c75c068aa3e361d52e095"),
    "zfdp": ("8281c8ac045d78f621ad1621dc04ab16205c149616e64f2d6ea6cc31a7f389ad",
             "09d752d0e019709f4c048d7281c64d9dff0ce6192ccb952377c2b0810c0a80f8"),
    "random-obf": ("bb38916b21c9bdb068066b6c250167359aee3b9371ce25cdccc2feaef5f516b1",
                   "9f16e1a5f87479696b1967fa10e02344dde66646eb24d7f61f704b5de72229dc"),
    "random-olbf": ("7895e0734cd678760aed949fdf721a1195978abc8c1b3b83c3f911070de89567",
                    "7ca557dcd136a97a74a6fc79810db948e5e03a6e084272784960195e578a6f82"),
}


# SHA-256 of each file of `obflab figure NAME --trials 200 --seed 1`
FIGURE_HASHES = {
    "fig1": {
        "analytic_m2.csv": "6243294df50d22158c269cf1344dc3656850e205da085ea1d918e31ea73ab708",
        "analytic_m3.csv": "d8fecb9b9d5ce5674e313a0535f08b7e066c74caa8d453298df0a3af9b0b0655",
        "hist_m2.csv": "8692251cc962d77005e3fff0c86b882f3607895b3f9e370a2743a7f5d5ca7a39",
        "hist_m3.csv": "c657f8f5bcdd0f73615b4e7d3826f5c1508c3c7e5c6d2906bb22f34e03f880d5",
    },
    "fig3": {
        "analytic_m2.csv": "6cec695c923b0e74edec237b23d05809302db9ea5bbd38d7a62d476540e1808c",
        "analytic_m3.csv": "bc6f750c5218677dffe39f1551e15f83ac48e4ea7389630a697e1a6fe7c7bdf2",
        "hist_m2.csv": "0e506a821e402a7481d7f34604415616700d2c80d722a9f083035e24ee3e843a",
        "hist_m3.csv": "7d6b2f78b71eaf521faf20d0e809e93e943b51c83d69be48aa43072967655527",
    },
    "fig4": {
        "fig4.csv": "3690b026eee06266237bb6fd8bc93b02e6ae4c7754783b8a24466862594fbc05",
    },
    "fig5": {
        "fig5.csv": "4accb61a212a63c30e86613376de826fd0b6c98a8e1c54164a106f568ca5453e",
        "fig5_ratios.csv": "bd0b30b9743f9b98499ef973116ed74c6f4e1304d9b8b81315c20c83b52beb80",
    },
}

# SHA-256 of the `analytic --m 3 --k 10 --snr-db 15` CSV at --user-rank 2
# --grid 0:20:50, and of its --sum-rate stdout
ANALYTIC_HASHES = {
    "obf": ("26c119f35e40a666da8cbc95fe28743da8a2982dc2dd78afe9fa9cda7a988f96",
            "c07127f6f87223e8595f12402b212ce30630b9306cf58e9b13623a290cd17a14"),
    "olbf": ("12a9374367ceb365620ce3e1e78222c61b200da235db7e59e46f99ca57796a9c",
             "b21f208ba2850909473bd7ce69d519415902be177f39eee87846801c9f3f7910"),
}

# SHA-256 of the JSON and summary of the adaptive-obf run of SIM_ARTIFACT_HASHES
# with --format json
SIM_JSON_HASHES = ("c9c80a18b133c1025a1300466e49023cf2bd8fff8b83682895ab3e31094c5e5f",
                   "b3938a52a563b36e4b28cc248e9f53634d535263b9e9911a1b92dbad52a7c093")


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
    # sim writes each chunk's block as it finishes; the last chunk holds 7 trials
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
    write_report_csv(reports[0], ref, manifest, bits=bool(bits))
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
    # at 40 dB the rank-1 table is not resolved at the 4096 cap
    out = tmp_path / "run.csv"
    with pytest.warns(RuntimeWarning, match="analysis skipped: density not resolved"):
        code = run_main([
            "sim", "--scheme", scheme, "--m", "2", "--k", "10",
            "--snr-db", "40", "--trials", "200", "--seed", "1", "--out", str(out),
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
@pytest.mark.parametrize("ask", [["--sum-rate"], ["--user-rank", "1"]], ids=["sum-rate", "cdf"])
def test_analytic_unresolved_table_is_an_error(scheme, ask, tmp_path, capsys):
    out = tmp_path / "pdf.csv"
    code = run_main([
        "analytic", "--scheme", scheme, "--m", "2", "--k", "10",
        "--snr-db", "40", "--out", str(out), *ask,
    ])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: density not resolved at n = 4096")
    assert not out.exists()


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


def test_analytic_rank_above_three_notice(capsys):
    code = run_main([
        "analytic", "--scheme", "obf", "--m", "4", "--k", "10",
        "--snr-db", "10", "--r", "4", "--user-rank", "4",
    ])
    assert code == 3
    assert "numeric fallback" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["obf", "olbf"])
def test_analytic_sum_rate_above_rank_three_notice(scheme, capsys):
    # the sum rate needs every rank's table, and rank 4 has none
    code = run_main([
        "analytic", "--scheme", scheme, "--m", "4", "--k", "10",
        "--snr-db", "10", "--sum-rate",
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numeric fallback" in captured.err


def test_analytic_bad_grid_exit_code(capsys):
    code = run_main([
        "analytic", "--scheme", "obf", "--m", "3", "--k", "10",
        "--snr-db", "10", "--user-rank", "1", "--grid", "oops",
    ])
    assert code == 2


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
