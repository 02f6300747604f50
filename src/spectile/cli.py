"""Command-line front end emitting canonical JSON certificates.

Exit codes: 0 for verified/true verdicts, 2 for inconclusive or negative
verdicts (bounded search exhausted, tiling check false, tolerance
exceeded), 1 for invalid input.  Exact data crosses the boundary as
integers or "num/den" strings only; floats appear solely in measured
numerical results and tolerances.  Certificates are deterministic:
re-running an identical job reproduces the file byte for byte except for
the timing field, which is excluded from the input hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
import time
from fractions import Fraction
from typing import Optional, Sequence

from .intervals import (IntervalUnion, PeriodicSpectrum, build_omega,
                        gram_matrix, measure, period_identity_residual,
                        verify_omega_tiling)
from .spectra import FinitePointSet, IntSet, enumerate_spectra, is_spectrum
from .tilings import PeriodicSet, find_complements
from .utc import VERIFIED, roundtrip, utc_verify

SCHEMA = "spectile-certificate/1"

_RATIONAL = r"[+-]?\d+(?:/[1-9]\d*)?"
_RATIONAL_RE = re.compile(rf"^{_RATIONAL}$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_INTERVAL_RE = re.compile(rf"^\[({_RATIONAL}),({_RATIONAL})\)$")


class InputError(Exception):
    """Invalid command-line or job-file input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which this tool reserves
    # for inconclusive verdicts; route everything through InputError instead
    def error(self, message):
        raise InputError(message)


def parse_rational(text: str, field: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise InputError(
            f"{field}: {text!r} is not an exact rational; use 'num' or 'num/den'")
    return Fraction(text)


def parse_rational_list(text: str, field: str) -> list[Fraction]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise InputError(f"{field}: empty list")
    return [parse_rational(p, field) for p in parts]


def parse_int(text: str, field: str) -> int:
    text = text.strip()
    if not _INT_RE.match(text):
        raise InputError(f"{field}: {text!r} is not an integer")
    return int(text)


def parse_int_list(text: str, field: str) -> list[int]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise InputError(f"{field}: empty list")
    return [parse_int(p, field) for p in parts]


def parse_positive_int(text: str, field: str, minimum: int = 1) -> int:
    value = parse_int(text, field)
    if value < minimum:
        raise InputError(f"{field}: {value} is below the minimum of {minimum}")
    return value


def parse_float(text: str, field: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{field}: {text!r} is not a number") from None
    if value <= 0:
        raise InputError(f"{field}: must be positive")
    return value


def parse_family(text: str, field: str) -> list[IntSet]:
    groups = [g for g in text.split(";") if g.strip()]
    if not groups:
        raise InputError(f"{field}: empty family")
    return [IntSet.of(parse_int_list(g, field)) for g in groups]


def parse_interval_union(text: str, field: str) -> IntervalUnion:
    pairs = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        m = _INTERVAL_RE.match(piece)
        if not m:
            raise InputError(
                f"{field}: {piece!r} is not a half-open interval '[a,b)'")
        pairs.append((Fraction(m.group(1)), Fraction(m.group(2))))
    if not pairs:
        raise InputError(f"{field}: empty interval union")
    try:
        return IntervalUnion.of(pairs)
    except ValueError as exc:
        raise InputError(f"{field}: {exc}") from None


def frac_str(value: Fraction) -> str:
    return str(value)


def intervals_json(omega: IntervalUnion) -> list[str]:
    return [f"[{a},{b})" for a, b in omega.intervals]


def periodic_set_json(pset: Optional[PeriodicSet]):
    if pset is None:
        return None
    return {"residues": list(pset.residues), "period": pset.period}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def input_hash(command: str, inputs: dict, bounds: dict) -> str:
    blob = canonical_json(
        {"bounds": bounds, "command": command, "inputs": inputs})
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_parser() -> _Parser:
    parser = _Parser(prog="spectile",
                     description="Exact verifiers and bounded searches for "
                                 "spectral sets and integer tilings")
    parser.add_argument("--job", metavar="FILE",
                        help="read the job from a JSON file instead of flags")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--output", metavar="FILE",
                       help="write the certificate here instead of stdout")
        p.add_argument("--summary", action="store_true",
                       help="print a one-line human summary to stderr")

    p = sub.add_parser("check-spectrum", help="exact spectral-pair verdict")
    p.add_argument("--gamma", required=True, help="rational list, e.g. 0,1/2")
    p.add_argument("--b", required=True, help="rational list, e.g. 0,1")
    common(p)

    p = sub.add_parser("enum-spectra",
                       help="all integer spectra of gamma within a bound")
    p.add_argument("--gamma", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--n-max", required=True)
    common(p)

    p = sub.add_parser("find-complement",
                       help="all complements of a tile in Z_m containing 0")
    p.add_argument("--a", required=True, help="integer list, e.g. 0,1")
    p.add_argument("--m", required=True)
    common(p)

    p = sub.add_parser("utc-verify",
                       help="common-complement search over all spectra in bounds")
    p.add_argument("--gamma", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--n-max", required=True)
    p.add_argument("--m-max", required=True)
    p.add_argument("--time-budget", help="wall-clock seconds before giving up")
    common(p)

    p = sub.add_parser("build-omega",
                       help="measure-one interval union from a family and breakpoints")
    p.add_argument("--p", required=True)
    p.add_argument("--family", required=True,
                   help="semicolon-separated integer lists, e.g. '0,1;0,3'")
    p.add_argument("--breakpoints", required=True,
                   help="rational list running 0..1/p")
    common(p)

    p = sub.add_parser("verify-omega",
                       help="exact tiling check of R by omega + (1/p)(R + mZ)")
    p.add_argument("--omega", required=True,
                   help="intervals, e.g. '[0,3/4);[7/4,2)'")
    p.add_argument("--t-residues", required=True)
    p.add_argument("--t-period", required=True)
    p.add_argument("--p", default="1")
    common(p)

    p = sub.add_parser("roundtrip",
                       help="spectral family -> omega -> tiling of R, verified")
    p.add_argument("--gamma", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--breakpoints", required=True)
    p.add_argument("--m-max", required=True)
    p.add_argument("--time-budget")
    common(p)

    p = sub.add_parser("gram-check",
                       help="floating-point Gram cross-checks for an interval union")
    p.add_argument("--omega", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--gamma",
                   help="base of the spectrum for the truncated Gram matrix")
    p.add_argument("--lam", help="frequency for the period-identity residual")
    p.add_argument("--lam-prime")
    p.add_argument("--tolerance", default="1e-9",
                   help="bound for the period-identity residual")
    p.add_argument("--gram-tolerance", default="1e-8",
                   help="bound for Gram off-diagonal and diagonal deviation")
    common(p)

    return parser


def _cmd_check_spectrum(ns):
    gamma = FinitePointSet.of(parse_rational_list(ns.gamma, "--gamma"))
    b = FinitePointSet.of(parse_rational_list(ns.b, "--b"))
    ok = is_spectrum(gamma, b)
    inputs = {"gamma": [frac_str(g) for g in gamma],
              "b": [frac_str(x) for x in b]}
    result = {"is_spectrum": ok}
    return ("true" if ok else "false", 0 if ok else 2, inputs, {}, result)


def _cmd_enum_spectra(ns):
    p = parse_positive_int(ns.p, "--p")
    n_max = parse_positive_int(ns.n_max, "--n-max", minimum=0)
    gamma = FinitePointSet.of(parse_rational_list(ns.gamma, "--gamma"))
    sets = enumerate_spectra(gamma, p, n_max)
    inputs = {"gamma": [frac_str(g) for g in gamma], "p": p}
    bounds = {"n_max": n_max}
    result = {"spectra": [list(a) for a in sets], "count": len(sets)}
    return ("complete-within-bounds", 0, inputs, bounds, result)


def _cmd_find_complement(ns):
    a = IntSet.of(parse_int_list(ns.a, "--a"))
    m = parse_positive_int(ns.m, "--m")
    found = find_complements(a, m)
    inputs = {"a": list(a), "m": m}
    result = {"complements": [list(r) for r in found], "count": len(found)}
    verdict = "found" if found else "none-at-this-period"
    return (verdict, 0 if found else 2, inputs, {}, result)


def _cmd_utc_verify(ns):
    p = parse_positive_int(ns.p, "--p")
    n_max = parse_positive_int(ns.n_max, "--n-max", minimum=0)
    m_max = parse_positive_int(ns.m_max, "--m-max")
    budget = parse_float(ns.time_budget, "--time-budget") \
        if ns.time_budget else None
    gamma = FinitePointSet.of(parse_rational_list(ns.gamma, "--gamma"))
    report = utc_verify(p, gamma, n_max, m_max, time_budget=budget)
    inputs = {"gamma": [frac_str(g) for g in gamma], "p": p}
    bounds = {"n_max": n_max, "m_max": m_max}
    result = {"spectra": [list(a) for a in report.spectra_found],
              "certificate": periodic_set_json(report.certificate)}
    code = 0 if report.verdict == VERIFIED else 2
    return (report.verdict, code, inputs, bounds, result)


def _cmd_build_omega(ns):
    p = parse_positive_int(ns.p, "--p")
    family = parse_family(ns.family, "--family")
    breakpoints = parse_rational_list(ns.breakpoints, "--breakpoints")
    omega = build_omega(p, family, breakpoints)
    inputs = {"p": p, "family": [list(a) for a in family],
              "breakpoints": [frac_str(r) for r in breakpoints]}
    result = {"omega": intervals_json(omega),
              "measure": frac_str(measure(omega))}
    return ("constructed", 0, inputs, {}, result)


def _cmd_verify_omega(ns):
    omega = parse_interval_union(ns.omega, "--omega")
    residues = parse_int_list(ns.t_residues, "--t-residues")
    period = parse_positive_int(ns.t_period, "--t-period")
    p = parse_positive_int(ns.p, "--p")
    pset = PeriodicSet.of(residues, period)
    ok = verify_omega_tiling(omega, pset, p)
    inputs = {"omega": intervals_json(omega),
              "t": periodic_set_json(pset), "p": p}
    result = {"tiles": ok}
    return ("true" if ok else "false", 0 if ok else 2, inputs, {}, result)


def _cmd_roundtrip(ns):
    p = parse_positive_int(ns.p, "--p")
    m_max = parse_positive_int(ns.m_max, "--m-max")
    budget = parse_float(ns.time_budget, "--time-budget") \
        if ns.time_budget else None
    gamma = FinitePointSet.of(parse_rational_list(ns.gamma, "--gamma"))
    family = parse_family(ns.family, "--family")
    breakpoints = parse_rational_list(ns.breakpoints, "--breakpoints")
    report = roundtrip(p, gamma, family, breakpoints, m_max,
                       time_budget=budget)
    inputs = {"gamma": [frac_str(g) for g in gamma], "p": p,
              "family": [list(a) for a in report.family],
              "breakpoints": [frac_str(r) for r in report.breakpoints]}
    bounds = {"m_max": m_max}
    result = {"omega": intervals_json(report.omega),
              "spectral_ok": report.spectral_ok,
              "complement": periodic_set_json(report.projected_complement),
              "consistency": report.consistency}
    if report.consistency:
        return ("consistent", 0, inputs, bounds, result)
    return ("inconclusive-no-complement-in-bounds", 2, inputs, bounds, result)


def _cmd_gram_check(ns):
    omega = parse_interval_union(ns.omega, "--omega")
    p = parse_positive_int(ns.p, "--p")
    tol = parse_float(ns.tolerance, "--tolerance")
    gram_tol = parse_float(ns.gram_tolerance, "--gram-tolerance")
    if not ns.gamma and not (ns.lam or ns.lam_prime):
        raise InputError("gram-check needs --gamma and/or --lam/--lam-prime")
    inputs = {"omega": intervals_json(omega), "p": p}
    bounds = {"tolerance": tol, "gram_tolerance": gram_tol}
    result = {}
    ok = True
    if ns.lam or ns.lam_prime:
        if not (ns.lam and ns.lam_prime):
            raise InputError("--lam and --lam-prime must be given together")
        lam = parse_rational(ns.lam, "--lam")
        lam_prime = parse_rational(ns.lam_prime, "--lam-prime")
        residual = period_identity_residual(omega, p, lam, lam_prime)
        inputs["lam"] = frac_str(lam)
        inputs["lam_prime"] = frac_str(lam_prime)
        result["period_identity_residual"] = residual
        ok = ok and residual < tol
    if ns.gamma:
        gamma = parse_rational_list(ns.gamma, "--gamma")
        spectrum = PeriodicSpectrum.of(gamma, p)
        lambdas = spectrum.points_within(3 * p)
        entries = gram_matrix(omega, lambdas)
        off = max((abs(entries[i][j])
                   for i in range(len(lambdas)) for j in range(len(lambdas))
                   if i != j), default=0.0)
        diag = max((abs(entries[i][i] - 1) for i in range(len(lambdas))),
                   default=0.0)
        inputs["gamma"] = [frac_str(g) for g in spectrum.gamma]
        result["frequencies"] = [frac_str(x) for x in lambdas]
        result["max_off_diagonal"] = off
        result["max_diagonal_deviation"] = diag
        ok = ok and off < gram_tol and diag < gram_tol
    verdict = "within-tolerance" if ok else "tolerance-exceeded"
    return (verdict, 0 if ok else 2, inputs, bounds, result)


_HANDLERS = {
    "check-spectrum": _cmd_check_spectrum,
    "enum-spectra": _cmd_enum_spectra,
    "find-complement": _cmd_find_complement,
    "utc-verify": _cmd_utc_verify,
    "build-omega": _cmd_build_omega,
    "verify-omega": _cmd_verify_omega,
    "roundtrip": _cmd_roundtrip,
    "gram-check": _cmd_gram_check,
}


def _argv_from_job(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            job = json.load(handle)
    except OSError as exc:
        raise InputError(f"--job: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"--job: {path} is not valid JSON: {exc}") from None
    if not isinstance(job, dict) or "command" not in job:
        raise InputError("--job: file must be an object with a 'command' key")
    command = job["command"]
    if command not in _HANDLERS:
        raise InputError(f"--job: unknown command {command!r}")
    argv = [command]
    args = job.get("args", {})
    if not isinstance(args, dict):
        raise InputError("--job: 'args' must be an object")
    # --flag=value keeps a value that starts with '-' from reading as a flag
    for key, value in sorted(args.items()):
        flag = f"--{key}"
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.append(f"{flag}={value}")
    for key in ("output", "summary"):
        if key in job:
            if key == "summary":
                if job[key]:
                    argv.append("--summary")
            else:
                argv.append(f"--{key}={job[key]}")
    return argv


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if "--job" in argv:
            at = argv.index("--job")
            if at + 1 >= len(argv):
                raise InputError("--job: missing file argument")
            if len(argv) != 2:
                raise InputError("--job replaces all other arguments")
            argv = _argv_from_job(argv[at + 1])
        parser = build_parser()
        ns = parser.parse_args(argv)
        if not ns.command:
            raise InputError("no command given; see --help")
        started = time.monotonic()
        verdict, code, inputs, bounds, result = _HANDLERS[ns.command](ns)
        certificate = {
            "schema": SCHEMA,
            "command": ns.command,
            "inputs": inputs,
            "bounds": bounds,
            "verdict": verdict,
            "result": result,
            "input_hash": input_hash(ns.command, inputs, bounds),
            "timing_seconds": round(time.monotonic() - started, 6),
        }
        text = canonical_json(certificate)
        if ns.output:
            _write_atomic(ns.output, text)
        else:
            sys.stdout.write(text)
        if ns.summary:
            print(f"{ns.command}: {verdict}", file=sys.stderr)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
