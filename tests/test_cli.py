import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from obflab.cli import RunManifest, main, read_report_csv


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


def test_analytic_rank_above_three_notice(capsys):
    code = run_main([
        "analytic", "--scheme", "obf", "--m", "4", "--k", "10",
        "--snr-db", "10", "--r", "4", "--user-rank", "4",
    ])
    assert code == 3
    assert "numeric fallback" in capsys.readouterr().err


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
