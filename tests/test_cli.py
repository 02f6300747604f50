"""Command-line contract: exit codes, canonical certificates, job files,
and re-verification of emitted certificates through the library."""

import json
import subprocess
import sys

import pytest

from spectile import PeriodicSet, is_tiling_of_Z
from spectile.cli import (canonical_json, parse_interval_union, parse_rational,
                          run, InputError)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--output", str(out)])
    return code, json.loads(out.read_text())


def test_exit_zero_on_verified(tmp_path, capsys):
    code = run(["utc-verify", "--p", "2", "--gamma", "0,1",
                "--n-max", "5", "--m-max", "8"])
    assert code == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "verified-with-certificate"
    assert cert["result"]["certificate"] == {"residues": [0], "period": 2}

    code = run(["check-spectrum", "--gamma", "0,1/2", "--b", "0,1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "true"

    code = run(["verify-omega", "--omega", "[0,3/4);[7/4,2)",
                "--t-residues", "0", "--t-period", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "true"


def test_exit_two_on_negative_and_inconclusive(capsys):
    assert run(["check-spectrum", "--gamma", "0,1/2", "--b", "0,2"]) == 2
    assert run(["find-complement", "--a", "0,2", "--m", "2"]) == 2
    assert run(["utc-verify", "--p", "2", "--gamma", "0,1",
                "--n-max", "5", "--m-max", "1"]) == 2
    assert run(["verify-omega", "--omega", "[0,1)",
                "--t-residues", "0", "--t-period", "2"]) == 2
    capsys.readouterr()


def test_exit_one_on_invalid_input(capsys):
    cases = [
        ["check-spectrum", "--gamma", "0,0.5", "--b", "0,1"],
        ["check-spectrum", "--gamma", "0,1e-3", "--b", "0,1"],
        ["check-spectrum", "--gamma", "", "--b", "0,1"],
        ["enum-spectra", "--gamma", "0,1", "--p", "0", "--n-max", "5"],
        ["find-complement", "--a", "0,x", "--m", "4"],
        ["verify-omega", "--omega", "[0,1", "--t-residues", "0",
         "--t-period", "1"],
        ["verify-omega", "--omega", "[0,1);[1/2,2)", "--t-residues", "0",
         "--t-period", "1"],
        ["utc-verify", "--p", "2", "--gamma", "0,1"],
        ["roundtrip", "--p", "2", "--gamma", "0,1", "--family", "0,1;0,2",
         "--breakpoints", "0,1/4,1/2", "--m-max", "4"],
        ["build-omega", "--p", "2", "--family", "0,1", "--breakpoints", "0,1"],
        ["gram-check", "--omega", "[0,1)", "--p", "1"],
        ["no-such-command"],
        [],
    ]
    for argv in cases:
        assert run(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:")


def test_diagnostics_name_the_field(capsys):
    run(["check-spectrum", "--gamma", "0,0.5", "--b", "0,1"])
    assert "--gamma" in capsys.readouterr().err
    run(["verify-omega", "--omega", "oops", "--t-residues", "0",
         "--t-period", "1"])
    assert "--omega" in capsys.readouterr().err


def test_certificates_are_deterministic(tmp_path):
    argv = ["utc-verify", "--p", "2", "--gamma", "0,1",
            "--n-max", "5", "--m-max", "8"]
    code1, cert1 = run_to_file(tmp_path, "a.json", argv)
    code2, cert2 = run_to_file(tmp_path, "b.json", argv)
    assert code1 == code2 == 0
    assert cert1["input_hash"] == cert2["input_hash"]
    cert1.pop("timing_seconds")
    cert2.pop("timing_seconds")
    assert cert1 == cert2


def test_certificate_round_trips_byte_identically(tmp_path):
    out = tmp_path / "cert.json"
    run(["roundtrip", "--p", "2", "--gamma", "0,1", "--family", "0,1;0,3",
         "--breakpoints", "0,1/4,1/2", "--m-max", "4",
         "--output", str(out)])
    raw = out.read_text()
    assert canonical_json(json.loads(raw)) == raw


def test_emitted_certificate_reverifies(tmp_path):
    code, cert = run_to_file(tmp_path, "utc.json",
                             ["utc-verify", "--p", "4", "--gamma", "0,1,2,3",
                              "--n-max", "7", "--m-max", "8"])
    assert code == 0
    claimed = cert["result"]["certificate"]
    complement = PeriodicSet.of(claimed["residues"], claimed["period"])
    for member in cert["result"]["spectra"]:
        assert is_tiling_of_Z(member, complement)


def test_enum_spectra_and_build_omega_payloads(tmp_path):
    code, cert = run_to_file(tmp_path, "enum.json",
                             ["enum-spectra", "--gamma", "0,1", "--p", "2",
                              "--n-max", "5"])
    assert code == 0
    assert cert["result"]["spectra"] == [[0, 1], [0, 3], [0, 5]]
    assert cert["result"]["count"] == 3

    code, cert = run_to_file(tmp_path, "omega.json",
                             ["build-omega", "--p", "2", "--family", "0,1;0,3",
                              "--breakpoints", "0,1/4,1/2"])
    assert code == 0
    assert cert["result"]["omega"] == ["[0,3/4)", "[7/4,2)"]
    assert cert["result"]["measure"] == "1"


def test_gram_check_modes(tmp_path):
    code, cert = run_to_file(tmp_path, "gram.json",
                             ["gram-check", "--omega", "[0,3/4);[7/4,2)",
                              "--p", "4", "--gamma", "0,1,2,3",
                              "--lam", "0", "--lam-prime", "1"])
    assert code == 0
    assert cert["verdict"] == "within-tolerance"
    assert cert["result"]["period_identity_residual"] < 1e-9
    assert cert["result"]["max_off_diagonal"] < 1e-8
    assert cert["result"]["max_diagonal_deviation"] < 1e-8

    # a non-spectrum produces visible off-diagonal mass
    code, cert = run_to_file(tmp_path, "gram-bad.json",
                             ["gram-check", "--omega", "[0,1)", "--p", "2",
                              "--gamma", "0,1/2"])
    assert code == 2
    assert cert["verdict"] == "tolerance-exceeded"
    assert cert["result"]["max_off_diagonal"] > 1e-2


def test_job_file_runs_and_validates(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "command": "check-spectrum",
        "args": {"gamma": "0,1/2", "b": "0,1"},
    }))
    assert run(["--job", str(job)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "true"

    # a list that starts with '-' must still reach its flag as a value
    job.write_text(json.dumps({
        "command": "check-spectrum",
        "args": {"gamma": "0,1/2", "b": "-1,0"},
    }))
    assert run(["--job", str(job)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "true"

    job.write_text(json.dumps({"command": "nope", "args": {}}))
    assert run(["--job", str(job)]) == 1
    capsys.readouterr()
    assert run(["--job", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    job.write_text("not json")
    assert run(["--job", str(job)]) == 1
    capsys.readouterr()


def test_summary_goes_to_stderr(capsys):
    code = run(["check-spectrum", "--gamma", "0,1/2", "--b", "0,1",
                "--summary"])
    assert code == 0
    captured = capsys.readouterr()
    assert "check-spectrum: true" in captured.err
    assert json.loads(captured.out)["verdict"] == "true"


def test_parse_helpers_reject_loose_input():
    assert parse_rational("-7/2", "f") == -3.5
    for bad in ["1.5", "1/0", "1/-2", "", "two"]:
        with pytest.raises(InputError):
            parse_rational(bad, "f")
    with pytest.raises(InputError):
        parse_interval_union("[1,0)", "f")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spectile", "check-spectrum",
         "--gamma", "0,1/2", "--b", "0,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "true"
