"""Command-line front end emitting canonical JSON certificates.

Exit codes: 0 for verified/true verdicts, 2 for inconclusive or negative
verdicts (bounded search exhausted, tiling check false, tolerance
exceeded), 1 for invalid input, with a message that names the flag, and
3 for an internal error: a result that failed its own re-verification.
Exact data crosses the boundary as integers or "num/den" strings only:
each flag is read by the converter given as its argparse ``type``, and
every exact value is written by ``canonical_json``.  Floats appear solely
in measured numerical results and tolerances.  Certificates are
deterministic: re-running an identical job reproduces the file byte for
byte except for the timing field, which is excluded from the input hash.
They are written by spectile's own encoder, byte for byte the
``json.dumps(sort_keys=True, indent=2)`` form, one chunk per row: the
standard library's indented form would join a string per token.

Each process starts cold, so it loads only the layers its command runs:
the flag parsers need spectra, and every other layer is imported by the
handler or parser that calls it.  The value types are plain slotted
classes, so no command imports dataclasses or, through it, inspect.  A
process builds the argparse parser of its own subcommand alone (see
``_parse``), and hashes with CPython's built-in SHA-256, not OpenSSL's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Optional, Sequence

from .spectra import (FinitePointSet, IntSet, SearchTimeout, _deadline,
                      enumerate_spectra, is_spectrum, spectrum_base)

if TYPE_CHECKING:
    from .intervals import IntervalUnion

try:  # CPython's own SHA-256: hashlib would load OpenSSL for the same digest
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

SCHEMA = "spectile-certificate/1"

_RATIONAL = r"[+-]?\d+(?:/[1-9]\d*)?"
_RATIONAL_RE = re.compile(rf"^{_RATIONAL}$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_INTERVAL_RE = re.compile(rf"^\[({_RATIONAL}),({_RATIONAL})\)$")


class InputError(argparse.ArgumentTypeError):
    """Invalid command-line or job-file input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which this tool reserves
    # for inconclusive verdicts; route everything through InputError instead
    def error(self, message):
        raise InputError(message)


def _split(text: str, sep: str, what: str) -> list[str]:
    parts = [p for p in text.split(sep) if p.strip()]
    if not parts:
        raise InputError(f"empty {what}")
    return parts


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise InputError(
            f"{text!r} is not an exact rational; use 'num' or 'num/den'")
    return Fraction(text)


def parse_rational_list(text: str) -> list[Fraction]:
    return [parse_rational(p) for p in _split(text, ",", "list")]


def parse_point_set(text: str) -> FinitePointSet:
    return FinitePointSet.of(parse_rational_list(text))


def parse_int(text: str) -> int:
    text = text.strip()
    if not _INT_RE.match(text):
        raise InputError(f"{text!r} is not an integer")
    return int(text)


def parse_int_set(text: str) -> IntSet:
    return IntSet.of(parse_int(p) for p in _split(text, ",", "list"))


def parse_family(text: str) -> list[IntSet]:
    return [parse_int_set(g) for g in _split(text, ";", "family")]


def parse_positive_int(text: str, minimum: int = 1) -> int:
    value = parse_int(text)
    if value < minimum:
        raise InputError(f"{value} is below the minimum of {minimum}")
    return value


def parse_non_negative_int(text: str) -> int:
    return parse_positive_int(text, minimum=0)


def parse_positive_float(text: str, zero: bool = False) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{text!r} is not a number") from None
    # nan would switch a deadline or a tolerance check off without a word
    if not math.isfinite(value):
        raise InputError(f"{text!r} is not a finite number")
    if value < 0 or not (zero or value):
        raise InputError("must be nonnegative" if zero else "must be positive")
    return value


def parse_interval_union(text: str) -> IntervalUnion:
    from .intervals import IntervalUnion
    pairs = []
    for piece in _split(text, ";", "interval union"):
        m = _INTERVAL_RE.match(piece.strip())
        if not m:
            raise InputError(
                f"{piece.strip()!r} is not a half-open interval '[a,b)'")
        pairs.append((Fraction(m.group(1)), Fraction(m.group(2))))
    try:
        return IntervalUnion.of(pairs)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _exact(value):
    """The certificate form of an exact value: "num/den" strings for
    rationals, "[a,b)" strings for intervals, lists for point sets."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, IntSet):
        return value.elements
    if isinstance(value, FinitePointSet):
        return [str(x) for x in value.points]
    # each import below is of a module already loaded: a PeriodicSet comes
    # from tilings, and an IntervalUnion from intervals, which loads tilings
    from .tilings import PeriodicSet
    if isinstance(value, PeriodicSet):
        return {"residues": value.residues, "period": value.period}
    from .intervals import IntervalUnion
    if isinstance(value, IntervalUnion):
        return [f"[{a},{b})" for a, b in value.intervals]
    raise TypeError(f"{type(value).__name__} has no certificate form")


def _inline(value) -> Optional[str]:
    """The JSON text of a scalar; None for a container or an exact value."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError("Out of range float values are not JSON compliant: "
                         + repr(value))
    return None


def _encode(value, out: list[str], head: str, indent: str) -> None:
    """Append head and then value's JSON text to out; indent is a newline
    and two spaces per level of value's own line.  A scalar or a list of
    plain ints is one chunk, the list joined in C, so a big certificate
    costs one chunk per row, not one per token."""
    text = _inline(value)
    if text is not None:
        out.append(head + text)
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        if not value:
            out.append(head + "[]")
        elif {*map(type, value)} == {int}:
            out.append(f"{head}[{inner}"
                       f"{(',' + inner).join(map(int.__repr__, value))}"
                       f"{indent}]")
        else:
            head, sep = head + "[" + inner, "," + inner
            for item in value:
                _encode(item, out, head, inner)
                head = sep
            out.append(indent + "]")
    elif isinstance(value, dict):
        inner = indent + "  "
        if not value:
            out.append(head + "{}")
        else:
            head, sep = head + "{" + inner, "," + inner
            for key, item in sorted(value.items()):
                name = key if isinstance(key, str) else _inline(key)
                if name is None:
                    raise TypeError(f"keys must be str, int, float, bool or "
                                    f"None, not {key.__class__.__name__}")
                _encode(item, out, head + _quote(name) + ": ", inner)
                head = sep
            out.append(indent + "}")
    else:
        _encode(_exact(value), out, head, indent)


def _json_chunks(obj) -> list[str]:
    """canonical_json's text as a list of row-sized chunks, complete before
    any of it is written, so an encoding error writes nothing."""
    out: list[str] = []
    _encode(obj, out, "", "\n")
    out.append("\n")
    return out


def canonical_json(obj) -> str:
    """The certificate text of obj, byte for byte
    json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
    default=_exact) and a newline.  Not json.dumps itself: an indent keeps
    it on the pure-Python encoder, which yields one string per token."""
    return "".join(_json_chunks(obj))


def input_hash(command: str, inputs: dict, bounds: dict) -> str:
    blob = canonical_json(
        {"bounds": bounds, "command": command, "inputs": inputs})
    return "sha256:" + _sha256(blob.encode("utf-8")).hexdigest()


def _write_atomic(path: str, chunks: list[str]) -> None:
    # a fresh file next to the target, made with mode 0o666 so that the
    # umask applies, as it does to a shell redirect, then moved over it
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# the subcommands by name, in --help order: (help text, flags, handler),
# each flag a (name, add_argument keywords) pair; all end in _COMMON
_COMMANDS: dict = {}
_COMMON = (
    ("--output", dict(metavar="FILE",
                      help="write the certificate here instead of stdout")),
    ("--summary", dict(action="store_true",
                       help="print a one-line human summary to stderr")))
_POINTS = dict(type=parse_point_set, required=True)
_POSITIVE = dict(type=parse_positive_int, required=True)
_N_MAX = ("--n-max", dict(type=parse_non_negative_int, required=True))
_FAMILY = ("--family", dict(
    type=parse_family, required=True,
    help="semicolon-separated integer lists, e.g. '0,1;0,3'"))
_BREAKPOINTS = ("--breakpoints", dict(type=parse_rational_list, required=True,
                                      help="rational list running 0..1/p"))
_OMEGA = ("--omega", dict(type=parse_interval_union, required=True,
                          help="intervals, e.g. '[0,3/4);[7/4,2)'"))
_BUDGET = ("--time-budget", dict(  # 0 is spent at entry, as in the library
    type=lambda text: parse_positive_float(text, zero=True),
    help="wall-clock seconds before giving up; 0 is spent"))


def _command(name: str, text: str, *flags):
    def register(handler):
        _COMMANDS[name] = (text, flags + _COMMON, handler)
        return handler
    return register


@_command("check-spectrum", "exact spectral-pair verdict",
          ("--gamma", dict(_POINTS, help="rational list, e.g. 0,1/2")),
          ("--b", dict(_POINTS, help="rational list, e.g. 0,1")))
def _cmd_check_spectrum(ns):
    ok = is_spectrum(ns.gamma, ns.b)
    inputs = {"gamma": ns.gamma, "b": ns.b}
    result = {"is_spectrum": ok}
    return ("true" if ok else "false", 0 if ok else 2, inputs, {}, result)


@_command("enum-spectra", "all integer spectra of gamma within a bound",
          ("--gamma", _POINTS), ("--p", _POSITIVE), _N_MAX)
def _cmd_enum_spectra(ns):
    sets = enumerate_spectra(ns.gamma, ns.p, ns.n_max)
    inputs = {"gamma": ns.gamma, "p": ns.p}
    bounds = {"n_max": ns.n_max}
    result = {"spectra": sets, "count": len(sets)}
    return ("complete-within-bounds", 0, inputs, bounds, result)


@_command("find-complement", "all complements of a tile in Z_m containing 0",
          ("--a", dict(type=parse_int_set, required=True,
                       help="integer list, e.g. 0,1")),
          ("--m", _POSITIVE))
def _cmd_find_complement(ns):
    from .tilings import find_complements
    found = find_complements(ns.a, ns.m)
    inputs = {"a": ns.a, "m": ns.m}
    result = {"complements": found, "count": len(found)}
    verdict = "found" if found else "none-at-this-period"
    return (verdict, 0 if found else 2, inputs, {}, result)


@_command("utc-verify", "common-complement search over all spectra in bounds",
          ("--gamma", _POINTS), ("--p", _POSITIVE), _N_MAX,
          ("--m-max", _POSITIVE), _BUDGET)
def _cmd_utc_verify(ns):
    from .utc import INCONCLUSIVE, VERIFIED, utc_verify
    deadline = _deadline(time.monotonic(), ns.time_budget)
    report = utc_verify(ns.p, ns.gamma, ns.n_max, ns.m_max,
                        time_budget=ns.time_budget)
    inputs = {"gamma": ns.gamma, "p": ns.p}
    bounds = {"n_max": ns.n_max, "m_max": ns.m_max}
    verdict, certificate = report.verdict, report.certificate
    try:  # the family is listed under what is left of the budget
        spectra = report._lift(deadline)
    except SearchTimeout:  # the spent-budget verdict, as in the library
        verdict, certificate, spectra = INCONCLUSIVE, None, ()
    result = {"spectra": spectra, "certificate": certificate}
    return (verdict, 0 if verdict == VERIFIED else 2, inputs, bounds, result)


@_command("build-omega",
          "measure-one interval union from a family and breakpoints",
          ("--p", _POSITIVE), _FAMILY, _BREAKPOINTS)
def _cmd_build_omega(ns):
    from .intervals import build_omega, measure
    omega = build_omega(ns.p, ns.family, ns.breakpoints)
    inputs = {"p": ns.p, "family": ns.family, "breakpoints": ns.breakpoints}
    result = {"omega": omega, "measure": measure(omega)}
    return ("constructed", 0, inputs, {}, result)


@_command("verify-omega", "exact tiling check of R by omega + (1/p)(R + mZ)",
          _OMEGA, ("--t-residues", dict(type=parse_int_set, required=True)),
          ("--t-period", _POSITIVE),
          ("--p", dict(type=parse_positive_int, default="1")))
def _cmd_verify_omega(ns):
    from .intervals import verify_omega_tiling
    from .tilings import PeriodicSet
    pset = PeriodicSet.of(ns.t_residues, ns.t_period)
    ok = verify_omega_tiling(ns.omega, pset, ns.p)
    inputs = {"omega": ns.omega, "t": pset, "p": ns.p}
    result = {"tiles": ok}
    return ("true" if ok else "false", 0 if ok else 2, inputs, {}, result)


@_command("roundtrip", "spectral family -> omega -> tiling of R, verified",
          ("--gamma", _POINTS), ("--p", _POSITIVE), _FAMILY, _BREAKPOINTS,
          ("--m-max", _POSITIVE), _BUDGET)
def _cmd_roundtrip(ns):
    from .utc import INCONCLUSIVE, roundtrip
    report = roundtrip(ns.p, ns.gamma, ns.family, ns.breakpoints, ns.m_max,
                       time_budget=ns.time_budget)
    inputs = {"gamma": ns.gamma, "p": ns.p, "family": report.family,
              "breakpoints": report.breakpoints}
    bounds = {"m_max": ns.m_max}
    result = {"omega": report.omega,
              "spectral_ok": report.spectral_ok,
              "complement": report.projected_complement,
              "consistency": report.consistency}
    if report.consistency:
        return ("consistent", 0, inputs, bounds, result)
    return (INCONCLUSIVE, 2, inputs, bounds, result)


@_command("gram-check",
          "floating-point Gram cross-checks for an interval union",
          _OMEGA, ("--p", _POSITIVE),
          ("--gamma", dict(
              type=parse_point_set,
              help="base of the spectrum for the truncated Gram matrix")),
          ("--lam", dict(type=parse_rational,
                         help="frequency for the period-identity residual")),
          ("--lam-prime", dict(type=parse_rational)),
          ("--tolerance", dict(type=parse_positive_float, default="1e-9",
                               help="bound for the period-identity residual")),
          ("--gram-tolerance", dict(
              type=parse_positive_float, default="1e-8",
              help="bound for Gram off-diagonal and diagonal deviation")))
def _cmd_gram_check(ns):
    from .intervals import gram_matrix, period_identity_residual
    if ns.gamma is None and ns.lam is None and ns.lam_prime is None:
        raise InputError("gram-check needs --gamma and/or --lam/--lam-prime")
    if (ns.lam is None) != (ns.lam_prime is None):
        raise InputError("--lam and --lam-prime must be given together")
    inputs = {"omega": ns.omega, "p": ns.p}
    bounds = {"tolerance": ns.tolerance, "gram_tolerance": ns.gram_tolerance}
    result = {}
    ok = True
    if ns.lam is not None:
        residual = period_identity_residual(ns.omega, ns.p, ns.lam, ns.lam_prime)
        inputs["lam"] = ns.lam
        inputs["lam_prime"] = ns.lam_prime
        result["period_identity_residual"] = residual
        ok = ok and residual < ns.tolerance
    if ns.gamma is not None:
        # the points of Gamma + pZ in [-3p, 3p], Gamma inside [0, p)
        gamma, p = spectrum_base(ns.gamma, ns.p)
        lambdas = sorted(g + p * t for g in gamma for t in range(-3, 4)
                         if g + p * t <= 3 * p)
        entries = gram_matrix(ns.omega, lambdas)
        off = max((abs(entries[i][j])
                   for i in range(len(lambdas)) for j in range(len(lambdas))
                   if i != j), default=0.0)
        diag = max((abs(entries[i][i] - 1) for i in range(len(lambdas))),
                   default=0.0)
        inputs["gamma"] = ns.gamma
        result["frequencies"] = lambdas
        result["max_off_diagonal"] = off
        result["max_diagonal_deviation"] = diag
        ok = ok and off < ns.gram_tolerance and diag < ns.gram_tolerance
    verdict = "within-tolerance" if ok else "tolerance-exceeded"
    return (verdict, 0 if ok else 2, inputs, bounds, result)


def _fill(parser: _Parser, name: str) -> _Parser:
    for flag, options in _COMMANDS[name][1]:
        parser.add_argument(flag, **options)
    return parser


def build_parser() -> _Parser:
    """The parser of every subcommand, for an argv that does not start with
    one: top-level help, --job before its file is read, and errors."""
    parser = _Parser(prog="spectile",
                     description="Exact verifiers and bounded searches for "
                                 "spectral sets and integer tilings")
    parser.add_argument("--job", metavar="FILE",
                        help="read the job from a JSON file instead of flags")
    sub = parser.add_subparsers(dest="command")
    for name, (text, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=text), name)
    return parser


def _parse(args: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(args), building only the subparser that
    args[0] names when it names one: the full parser hands it the rest."""
    if not args or args[0] not in _COMMANDS:
        return build_parser().parse_args(args)
    parser = _fill(_Parser(prog=f"spectile {args[0]}"), args[0])
    ns = parser.parse_args(args[1:])
    ns.job, ns.command = None, args[0]
    return ns


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
    if command not in _COMMANDS:
        raise InputError(f"--job: unknown command {command!r}")
    args = job.get("args", {})
    if not isinstance(args, dict):
        raise InputError("--job: 'args' must be an object")
    args = {**args, **{k: job[k] for k in ("output", "summary") if k in job}}
    for key, value in args.items():
        if not isinstance(value, (str, int, float)):  # bool is an int
            kind = {list: "a list", dict: "an object"}.get(type(value), "null")
            raise InputError(
                f"--job: {key!r} is {kind}; only strings, numbers and "
                f"booleans are allowed")
    # --flag=value keeps a value that starts with '-' from reading as a flag
    return [command] + [f"--{key}" if value is True else f"--{key}={value}"
                        for key, value in sorted(args.items())
                        if value is not False]


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = _parse(sys.argv[1:] if argv is None else list(argv))
        if ns.job is not None:
            if ns.command:
                raise InputError("--job replaces all other arguments")
            ns = _parse(_argv_from_job(ns.job))
        if not ns.command:
            raise InputError("no command given; see --help")
        if ns.output == "":
            raise InputError("--output: empty file name")
        started = time.monotonic()
        verdict, code, inputs, bounds, result = _COMMANDS[ns.command][2](ns)
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
        chunks = _json_chunks(certificate)
        if ns.output:
            try:
                _write_atomic(ns.output, chunks)
            except OSError as exc:
                raise InputError(f"--output: cannot write {ns.output}: "
                                 f"{exc.strerror or exc}") from None
        else:
            try:
                sys.stdout.writelines(chunks)
                sys.stdout.flush()
            except OSError as exc:
                # what is still buffered would fail again at exit
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise InputError(f"stdout: cannot write: "
                                 f"{exc.strerror or exc}") from None
        if ns.summary:
            print(f"{ns.command}: {verdict}", file=sys.stderr)
        return code
    except (InputError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
