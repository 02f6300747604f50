"""Command-line contract: exit codes, canonical certificates, job files,
and re-verification of emitted certificates through the library."""

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import stat
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectile.cli
import spectile.utc
from spectile import (INCONCLUSIVE, FinitePointSet, IntervalUnion, IntSet,
                      PeriodicSet, is_tiling_of_Z)
from spectile.cli import (_exact, build_parser, canonical_json, input_hash,
                          parse_interval_union, parse_rational, run,
                          InputError)
from test_golden import GOLDEN


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


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


def test_zero_time_budget_is_spent(tmp_path):
    # as in the library, 0 is a spent budget, not invalid input: the
    # search ends at once with the inconclusive verdict and a certificate
    utc = ["utc-verify", "--gamma", "0,1/3", "--p", "2", "--n-max", "6",
           "--m-max", "6", "--time-budget", "0"]
    trip = ["roundtrip", "--p", "2", "--gamma", "0,1", "--family", "0,1;0,3",
            "--breakpoints", "0,1/4,1/2", "--m-max", "8", "--time-budget", "0"]
    code, cert = run_to_file(tmp_path, "utc.json", utc)
    assert code == 2 and cert["verdict"] == INCONCLUSIVE
    assert cert["result"] == {"spectra": [], "certificate": None}
    code, cert = run_to_file(tmp_path, "trip.json", trip)
    assert code == 2 and cert["verdict"] == INCONCLUSIVE
    assert cert["result"]["complement"] is None


@pytest.mark.parametrize("where", ["common search", "listing"])
def test_budget_that_ends_after_the_cliques_lists_nothing(tmp_path,
                                                          monkeypatch, where):
    # utc_verify finds Z_9's one clique; the clock then jumps past the
    # deadline as the common search starts, or once the listing of the
    # 4^8 spectra wraps its first chunk.  The listing runs last, so either
    # way it finds the deadline passed and the certificate is the
    # spent-budget one, byte for byte the one a budget of 0 gives, timing
    # aside
    argv = ["utc-verify", "--gamma", "0,1,2,3,4,5,6,7,8", "--p", "9",
            "--n-max", "36", "--m-max", "81", "--time-budget"]
    assert run_to_file(tmp_path, "spent.json", argv + ["0"])[0] == 2
    jumped, real_clock = [], time.monotonic
    if where == "common search":
        real_cover = spectile.utc._first_common_cover

        def cover(*args):
            jumped.append(where)
            return real_cover(*args)

        monkeypatch.setattr(spectile.utc, "_first_common_cover", cover)
    else:
        real_many = IntSet._many

        def wrapped(chunk):
            made = real_many(chunk)
            jumped.append(where)
            return made

        monkeypatch.setattr(IntSet, "_many", staticmethod(wrapped))
    monkeypatch.setattr(time, "monotonic",
                        lambda: real_clock() + 1e9 * bool(jumped))
    code, cert = run_to_file(tmp_path, "jumped.json", argv + ["3600"])
    assert code == 2 and jumped
    assert cert["verdict"] == INCONCLUSIVE
    assert cert["result"] == {"spectra": [], "certificate": None}
    spent, written = (re.sub(r'"timing_seconds": .*', "",
                             (tmp_path / name).read_text())
                      for name in ("spent.json", "jumped.json"))
    assert written == spent


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
        ["gram-check", "--omega", "[0,1)", "--p", "1", "--lam", "0"],
        # 2Z is orthogonal on [0,1) but has one point per period, not two
        ["gram-check", "--omega", "[0,1)", "--p", "2", "--gamma", "0"],
        ["no-such-command"],
        [],
    ]
    # a non-finite float would switch the deadline or the check off; a
    # float flag names itself when its value is refused
    bad_floats = [
        (["utc-verify", "--p", "2", "--gamma", "0,1", "--n-max", "5",
          "--m-max", "8", "--time-budget", "nan"], "--time-budget"),
        (["utc-verify", "--p", "2", "--gamma", "0,1", "--n-max", "5",
          "--m-max", "8", "--time-budget", "abc"], "--time-budget"),
        (["utc-verify", "--p", "2", "--gamma", "0,1", "--n-max", "5",
          "--m-max", "8", "--time-budget", "-1"], "--time-budget"),
        (["roundtrip", "--p", "2", "--gamma", "0,1", "--family", "0,1;0,3",
          "--breakpoints", "0,1/4,1/2", "--m-max", "4",
          "--time-budget", "inf"], "--time-budget"),
        (["gram-check", "--omega", "[0,1)", "--p", "1", "--lam", "0",
          "--lam-prime", "2", "--tolerance", "nan"], "--tolerance"),
        (["gram-check", "--omega", "[0,1)", "--p", "1", "--lam", "0",
          "--lam-prime", "2", "--tolerance", "inf"], "--tolerance"),
        (["gram-check", "--omega", "[0,1)", "--p", "2", "--gamma", "0,1/2",
          "--gram-tolerance", "-inf"], "--gram-tolerance"),
    ]
    for argv in cases + [argv for argv, _ in bad_floats]:
        assert run(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:")
    for argv, flag in bad_floats:
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument {flag}:"), argv
    # a value that no float holds is named in one line, not a traceback
    big = str(10**400)
    unfit = [
        ["gram-check", "--omega", "[0,1)", "--p", "1", "--lam", big,
         "--lam-prime", "0"],
        ["gram-check", "--omega", f"[0,{big})", "--p", "1", "--gamma", "0"],
        ["gram-check", "--omega", f"[0,1/{big})", "--p", "1", "--gamma", "0"],
        # each value fits a float, but the phase 2 pi mu b does not
        ["gram-check", "--omega", f"[0,{10**200})", "--p", "1",
         "--lam", str(10**200), "--lam-prime", "0"],
    ]
    for argv in unfit:
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:"), argv
        assert captured.err.count("\n") == 1
    # an overlap is named by its endpoints as rationals
    assert run(["verify-omega", "--omega", "[0,1/2);[1/3,1)", "--t-residues",
                "0", "--t-period", "1"]) == 1
    assert "[1/3, 1)" in capsys.readouterr().err


def test_exit_three_on_internal_error(monkeypatch, capsys):
    # a certificate that fails its own re-verification is a fault of the
    # program, not of the input, so it must not read as exit code 1
    monkeypatch.setattr("spectile.utc.is_tiling_of_Z", lambda a, c: False)
    code = run(["utc-verify", "--gamma", "0,1/2,2,5/2", "--p", "4",
                "--n-max", "9", "--m-max", "16"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
    assert captured.err.count("\n") == 1


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


def _stdlib_json(obj):
    """The reference form of a certificate: the standard library's
    pure-Python encoder, which indent=2 selects."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=_exact) + "\n"


_SMALL = st.integers(-9, 9)
# quotes, escapes, control, non-ASCII and astral characters
_TEXT = st.text("a\"\\/\n\t\x00\x1f\x7f\xe9\u2028\u20ac\U0001f600",
                max_size=6)
_EXACT_LEAVES = st.one_of(
    st.fractions(max_denominator=10**6),
    st.lists(_SMALL, max_size=5).map(IntSet.of),
    st.lists(_RATIONALS, max_size=4).map(FinitePointSet.of),
    st.builds(PeriodicSet.of, st.lists(_SMALL, max_size=4),
              st.integers(1, 9)),
    st.lists(_RATIONALS, max_size=6, unique=True).map(
        lambda xs: IntervalUnion.of(zip(*[iter(sorted(xs))] * 2))),
)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**40, 10**40),
    st.floats(allow_nan=False, allow_infinity=False), _TEXT,
    st.lists(st.integers(), min_size=1, max_size=6), _EXACT_LEAVES)
_TREES = st.recursive(_JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4),
    st.dictionaries(_SMALL | st.booleans(), children, max_size=3)),
    max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(_TREES)
def test_canonical_json_matches_the_stdlib_encoder(tree):
    assert canonical_json(tree) == _stdlib_json(tree)


@pytest.mark.parametrize("bad", [
    float("nan"), {"a": [0, float("inf")]}, [float("-inf")],
    {float("nan"): 0}, {(0, 1): 0}, [object()], {"x": {1, 2}},
])
def test_canonical_json_fails_as_the_stdlib_encoder(bad):
    with pytest.raises((TypeError, ValueError)) as ours:
        canonical_json(bad)
    with pytest.raises((TypeError, ValueError)) as reference:
        _stdlib_json(bad)
    assert type(ours.value) is type(reference.value)
    assert str(ours.value) == str(reference.value)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=12), st.dictionaries(_TEXT, _TREES, max_size=3),
       st.dictionaries(_TEXT, _TREES, max_size=3))
def test_input_hash_is_hashlibs_sha256(command, inputs, bounds):
    blob = canonical_json(
        {"bounds": bounds, "command": command, "inputs": inputs})
    assert input_hash(command, inputs, bounds) == \
        "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


# the input hashes of the golden jobs, with CPython's SHA-256 modules
# blocked before spectile.cli is imported, so that it falls back to hashlib
HASHES_WITHOUT_BUILTIN_SHA256 = """
import contextlib, hashlib, io, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import spectile.cli
assert spectile.cli._sha256 is hashlib.sha256
hashes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        spectile.cli.run(argv)
    hashes.append(json.loads(out.getvalue())["input_hash"])
print(json.dumps(hashes))
"""


def test_hashlib_fallback_writes_the_same_input_hash():
    jobs = [argv for argv, _, _ in GOLDEN]
    proc = subprocess.run(
        [sys.executable, "-c", HASHES_WITHOUT_BUILTIN_SHA256,
         json.dumps(jobs)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        _certificate_of(argv)[1]["input_hash"] for argv in jobs]


def test_unencodable_result_writes_nothing(tmp_path, monkeypatch, capsys):
    # the whole certificate is encoded before its first byte is written
    text, flags, _ = spectile.cli._COMMANDS["check-spectrum"]
    monkeypatch.setitem(spectile.cli._COMMANDS, "check-spectrum", (
        text, flags, lambda ns: ("true", 0, {}, {}, {"x": float("nan")})))
    out = tmp_path / "cert.json"
    for extra in ([], ["--output", str(out)]):
        assert run(["check-spectrum", "--gamma", "0", "--b", "0"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Out of range float values")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target, reason", [
    ("missing/x.json", "No such file or directory"),
    ("directory", "Is a directory")])
def test_output_write_failure_is_one_error_line(tmp_path, capsys, target,
                                                reason):
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    argv = ["check-spectrum", "--gamma", "0,1/2", "--b", "0,1", "--summary",
            "--output", str(path)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --output: cannot write {path}: {reason}\n"
    # no .tmp file and no partial certificate is left behind
    assert list(tmp_path.iterdir()) == [tmp_path / "directory"]
    assert list((tmp_path / "directory").iterdir()) == []


def test_output_file_mode_follows_the_umask(tmp_path):
    # as a shell redirect does: 0o666 less the umask, for a new certificate
    # and for one written over an existing file of another mode
    path = tmp_path / "c.json"
    argv = ["check-spectrum", "--gamma", "0,1/2", "--b", "0,1",
            "--output", str(path)]
    previous = os.umask(0o022)
    try:
        assert run(argv) == 0
        new_mode = stat.S_IMODE(path.stat().st_mode)
        path.chmod(0o600)
        assert run(argv) == 0
        overwritten_mode = stat.S_IMODE(path.stat().st_mode)
    finally:
        os.umask(previous)
    assert (new_mode, overwritten_mode) == (0o644, 0o644)
    assert list(tmp_path.iterdir()) == [path]


def test_empty_output_path_is_invalid_input(tmp_path, monkeypatch, capsys):
    # as a flag or as a job-file key, an empty --output is refused before
    # any work: it must not fall back to stdout or leave a .tmp file
    monkeypatch.chdir(tmp_path)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "command": "check-spectrum",
        "args": {"gamma": "0,1/2", "b": "0,1"}, "output": ""}))
    for argv in (["check-spectrum", "--gamma", "0,1/2", "--b", "0,1",
                  "--output="],
                 ["check-spectrum", "--gamma", "0,1/2", "--b", "0,1",
                  "--output", ""],
                 ["--job", str(job)]):
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --output: empty file name\n"
    assert list(tmp_path.iterdir()) == [job]


def test_closed_stdout_is_one_error_line():
    # the reader goes away before the certificate (about 0.5 MB, more than
    # a pipe holds) is written: one error line, no traceback, exit 1
    with subprocess.Popen(
            [sys.executable, "-m", "spectile", "enum-spectra",
             "--gamma", "0,1,2,3,4,5,6,7,8", "--p", "9", "--n-max", "27"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err.startswith("error: stdout: cannot write: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


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


def test_gram_check_frequencies_are_gamma_plus_pz_within_3p(tmp_path,
                                                           capsys):
    code, cert = run_to_file(tmp_path, "freq.json",
                             ["gram-check", "--omega", "[0,1)", "--p", "2",
                              "--gamma", "0,1"])
    assert code == 0
    assert cert["result"]["frequencies"] == [str(k) for k in range(-6, 7)]
    _, cert = run_to_file(tmp_path, "freq-half.json",
                          ["gram-check", "--omega", "[0,1)", "--p", "2",
                           "--gamma", "0,3/2"])
    assert cert["result"]["frequencies"] == [str(x) for x in sorted(
        [Fraction(k) for k in range(-6, 7, 2)]
        + [Fraction(k, 2) for k in range(-9, 12, 4)])]
    # the base must hold 0 and lie in [0, p)
    for gamma, message in [("1", "must contain 0"),
                           ("0,3", r"base point 3 outside \[0, 2\)")]:
        p = str(len(gamma.split(",")))
        assert run(["gram-check", "--omega", "[0,1)", "--p", p,
                    "--gamma", gamma]) == 1
        assert re.search(message, capsys.readouterr().err)


def test_job_file_runs_and_validates(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "command": "check-spectrum",
        "args": {"gamma": "0,1/2", "b": "0,1"},
    }))
    assert run(["--job", str(job)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "true"
    assert run([f"--job={job}"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "true"

    # the job replaces every other argument, in either form of the flag
    for flag in (["--job", str(job)], [f"--job={job}"]):
        assert run(flag + ["check-spectrum", "--gamma", "0,1/2",
                           "--b", "0,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    # top-level output and summary keys read as entries of args
    out = tmp_path / "cert.json"
    job.write_text(json.dumps({
        "command": "check-spectrum",
        "args": {"gamma": "0,1/2", "b": "0,1"},
        "output": str(out), "summary": True,
    }))
    assert run([f"--job={job}"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and "check-spectrum: true" in captured.err
    assert json.loads(out.read_text())["verdict"] == "true"

    # a list that starts with '-' must still reach its flag as a value
    job.write_text(json.dumps({
        "command": "check-spectrum",
        "args": {"gamma": "0,1/2", "b": "-1,0"},
    }))
    assert run(["--job", str(job)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "true"

    for text in [json.dumps({"command": "nope", "args": {}}), "not json",
                 json.dumps(["check-spectrum", "--gamma", "0,1/2"]),
                 json.dumps({"command": "check-spectrum",
                             "args": ["--gamma", "0,1/2", "--b", "0,1"]})]:
        job.write_text(text)
        assert run(["--job", str(job)]) == 1, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --job:")
    assert run(["--job", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_job_file_rejects_non_scalar_values(tmp_path, capsys):
    job = tmp_path / "job.json"
    for value, kind in [(["0", "1/2"], "a list"), ({"a": 1}, "an object"),
                        (None, "null")]:
        job.write_text(json.dumps({
            "command": "check-spectrum",
            "args": {"gamma": value, "b": "0,1"},
        }))
        assert run(["--job", str(job)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'gamma' is {kind}" in captured.err
        assert "only strings, numbers and booleans" in captured.err


def _no_full_parser():
    raise AssertionError("built the parser of every subcommand")


# valid argv for every subcommand: the golden jobs, an abbreviated flag,
# flags in another order, and defaults left out
PARSED_ARGV = [argv for argv, _, _ in GOLDEN] + [
    ["check-spectrum", "--gam", "0,1/2", "--b", "0,1", "--sum"],
    ["find-complement", "--output=c.json", "--m", "4", "--a", "0,2"],
    ["verify-omega", "--omega", "[0,1)", "--t-residues", "0",
     "--t-period", "1"],
]


def test_parsed_argv_cover_every_subcommand():
    assert {argv[0] for argv in PARSED_ARGV} == set(spectile.cli._COMMANDS)


@pytest.mark.parametrize("argv", PARSED_ARGV, ids=" ".join)
def test_command_parser_gives_the_full_parsers_namespace(argv, monkeypatch):
    expected = build_parser().parse_args(argv)
    monkeypatch.setattr(spectile.cli, "build_parser", _no_full_parser)
    assert spectile.cli._parse(argv) == expected


@pytest.mark.parametrize("argv", [["--help"]] + [
    [name, "--help"] for name in spectile.cli._COMMANDS], ids=" ".join)
def test_help_is_the_full_parsers(argv, capsys):
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as ours:
        run(argv)
    assert ours.value.code == full.value.code == 0
    assert capsys.readouterr() == expected
    assert expected.out.startswith("usage: spectile")


@pytest.mark.parametrize("argv", [
    ["check-spectrum", "--gamma", "0,1/2"],
    ["check-spectrum", "--gamma", "0,1/2", "--b", "0,1", "--frob", "1"],
    ["find-complement", "--a", "0,1", "--m", "0"],
    ["check-spectrum", "--gamma", "-1,0", "--b", "0,1"],
    ["check-spectrum", "--job", "bad-args.json"],
    ["check-spectrum"],
    ["frobnicate"],
    [],
    ["--job", "missing.json"],
    ["--job", "bad-args.json", "check-spectrum"],
    ["--job", "bad-args.json"],
    ["--job"],
    ["--summary"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_invalid_argv_fails_as_with_the_full_parser(argv, tmp_path,
                                                    monkeypatch, capsys):
    # the oracle is run() with every argv read by the full parser
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad-args.json").write_text(json.dumps({
        "command": "check-spectrum", "args": {"gamma": "0,0.5", "b": "0,1"}}))
    with monkeypatch.context() as patch:
        patch.setattr(spectile.cli, "_parse",
                      lambda args: build_parser().parse_args(args))
        expected = run(argv), capsys.readouterr()
    assert (run(argv), capsys.readouterr()) == expected
    code, captured = expected
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_summary_goes_to_stderr(capsys):
    code = run(["check-spectrum", "--gamma", "0,1/2", "--b", "0,1",
                "--summary"])
    assert code == 0
    captured = capsys.readouterr()
    assert "check-spectrum: true" in captured.err
    assert json.loads(captured.out)["verdict"] == "true"


def test_parse_helpers_reject_loose_input():
    assert parse_rational("-7/2") == -3.5
    for bad in ["1.5", "1/0", "1/-2", "", "two"]:
        with pytest.raises(InputError):
            parse_rational(bad)
    with pytest.raises(InputError):
        parse_interval_union("[1,0)")


def _csv(values):
    return ",".join(str(v) for v in values)


@st.composite
def cli_jobs(draw):
    """argv for one small job whose inputs are rational lists, integer
    families or interval unions, given unsorted and with repeats."""
    kind = draw(st.sampled_from(
        ["check-spectrum", "utc-verify", "build-omega", "verify-omega"]))
    if kind == "check-spectrum":
        gamma, b = (draw(st.lists(_RATIONALS, min_size=1, max_size=4))
                    for _ in range(2))
        return [kind, f"--gamma={_csv(gamma)}", f"--b={_csv(b)}"]
    p = draw(st.integers(1, 3))
    if kind == "utc-verify":
        rest = draw(st.sets(
            st.fractions(0, p, max_denominator=4).filter(lambda x: 0 < x < p),
            min_size=p - 1, max_size=p - 1))
        return [kind, f"--gamma={_csv([0, *rest])}", f"--p={p}",
                f"--n-max={draw(st.integers(0, 8))}",
                f"--m-max={draw(st.integers(1, 8))}"]
    k = draw(st.integers(1, 3))
    family = draw(st.lists(st.lists(st.integers(-4, 9), min_size=p,
                                    max_size=p, unique=True),
                           min_size=k, max_size=k))
    step = Fraction(1, p)
    cuts = sorted(draw(st.sets(
        st.fractions(0, step, max_denominator=12).filter(
            lambda x: 0 < x < step),
        min_size=k - 1, max_size=k - 1)))
    breakpoints = [0, *cuts, step]
    if kind == "build-omega":
        return [kind, f"--p={p}",
                f"--family={';'.join(_csv(a) for a in family)}",
                f"--breakpoints={_csv(breakpoints)}"]
    # the union of the lifted cells, listed piece by piece and unmerged
    pieces = [f"[{lo + Fraction(a, p)},{hi + Fraction(a, p)})"
              for lo, hi, members in zip(breakpoints, breakpoints[1:], family)
              for a in members]
    residues = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
    return [kind, f"--omega={';'.join(pieces)}", f"--p={p}",
            f"--t-residues={_csv(residues)}",
            f"--t-period={draw(st.integers(1, 8))}"]


def _flag_text(value):
    """A certificate value written back as flag text."""
    if not isinstance(value, list):
        return str(value)
    if isinstance(value[0], list):
        return ";".join(_csv(v) for v in value)
    return (";" if str(value[0]).startswith("[") else ",").join(
        str(v) for v in value)


def _argv_from_certificate(cert):
    argv = [cert["command"]]
    for key, value in {**cert["inputs"], **cert["bounds"]}.items():
        if key == "t":
            argv += [f"--t-residues={_flag_text(value['residues'])}",
                     f"--t-period={value['period']}"]
        else:
            argv.append(f"--{key.replace('_', '-')}={_flag_text(value)}")
    return argv


def _certificate_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code in (0, 2), argv
    return code, json.loads(out.getvalue())


@settings(max_examples=60, deadline=None)
@given(cli_jobs())
def test_certificate_inputs_read_back_to_the_same_job(argv):
    """The flag readers and the certificate writer are inverse: the inputs
    a certificate echoes, passed back as flags, make the same job."""
    code, cert = _certificate_of(argv)
    again_code, again = _certificate_of(_argv_from_certificate(cert))
    assert again_code == code
    assert again["input_hash"] == cert["input_hash"]
    assert again["verdict"] == cert["verdict"]
    assert again["inputs"] == cert["inputs"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spectile", "check-spectrum",
         "--gamma", "0,1/2", "--b", "0,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "true"


def test_enum_spectra_runs_past_the_recursion_limit():
    # one spectrum of 1100 elements: the enumeration runs deeper than the
    # interpreter's default recursion limit and still exits 0
    points = ",".join(map(str, range(1100)))
    proc = subprocess.run(
        [sys.executable, "-m", "spectile", "enum-spectra", "--gamma", points,
         "--p", "1100", "--n-max", "1099"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["spectra"] == [list(range(1100))]


def _cap_address_space():
    cap = 2**30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_prime_order_near_a_billion_runs_in_small_memory():
    # Sum of two roots of unity of order 10^9 + 7: a dense mask would need
    # gigabytes, so under a 1 GiB address-space cap a regression fails here
    # instead of exhausting the host.
    proc = subprocess.run(
        [sys.executable, "-m", "spectile", "check-spectrum",
         "--gamma", "0,1", "--b", "0,1/1000000007"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "false"


# the sorted spectile.* modules a fresh process holds after one run(argv),
# and on a second line hashlib and _hashlib (OpenSSL) if run() loaded them:
# counted against what start-up already loaded, which a site hook can extend
LOADED_AFTER_RUN = """
import contextlib, io, sys
started = set(sys.modules)
import spectile.cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = spectile.cli.run(sys.argv[1:])
print(code, *sorted(n for n in sys.modules if n.startswith("spectile.")))
print("hashing:", *sorted({"hashlib", "_hashlib"} & (set(sys.modules)
                                                    - started)))
"""

_PARSING = ("spectile.cli", "spectile.cyclotomic", "spectile.spectra")
_TILINGS = _PARSING + ("spectile.tilings",)
_INTERVALS = _TILINGS + ("spectile.intervals",)


@pytest.mark.parametrize("argv, code, modules", [
    ("check-spectrum --gamma 0,1/2 --b 0,1", 0, _PARSING),
    ("enum-spectra --gamma 0,1/3 --p 2 --n-max 6", 0, _PARSING),
    ("find-complement --a 0,2 --m 4", 0, _TILINGS),
    ("utc-verify --gamma 0,1/3 --p 2 --n-max 6 --m-max 6", 0,
     _INTERVALS + ("spectile.utc",)),
    ("build-omega --p 2 --family 0,1;0,3 --breakpoints 0,1/4,1/2", 0,
     _INTERVALS),
    ("verify-omega --omega [0,3/4);[7/4,2) --t-residues 0 --t-period 2 "
     "--p 2", 0, _INTERVALS),
    ("roundtrip --p 2 --gamma 0,1 --family 0,1;0,3 "
     "--breakpoints 0,1/4,1/2 --m-max 8", 0, _INTERVALS + ("spectile.utc",)),
    ("gram-check --omega [0,1) --lam 0 --lam-prime 2 --p 1 "
     "--tolerance 1e-9", 0, _INTERVALS),
    ("frobnicate", 1, _PARSING),
    ("check-spectrum --gamma 0,0.5 --b 0,1", 1, _PARSING),
    ("--job missing-job.json", 1, _PARSING),
])
def test_each_subcommand_loads_only_its_modules(argv, code, modules):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, *argv.split()],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, hashing = proc.stdout.splitlines()
    got_code, *got = loaded.split()
    assert int(got_code) == code
    assert got == sorted(modules)
    assert hashing.split() == ["hashing:"]


def test_no_process_imports_dataclasses():
    # the value types are slotted classes on one base, so no spectile
    # module loads dataclasses or, through it, inspect; spectile.utc
    # imports every other layer.  Counted against what start-up already
    # loaded, which a site hook can extend
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; started = set(sys.modules)\n"
         "import spectile.cli, spectile.utc\n"
         "print(*sorted({'dataclasses', 'inspect'} & "
         "(set(sys.modules) - started)))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_import_spectile_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spectile; print(*sorted("
         "n for n in sys.modules if n.startswith('spectile.')))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
