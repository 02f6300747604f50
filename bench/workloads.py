"""The four seeded workloads.

Each workload turns a seed into a fixed batch of operations against the
public API or the `spectile` command, an expected answer for every
operation, and a staged replay of its pipelines for the traced run.  The
program under test only ever receives the generated inputs; the expected
answers come from construction and from oracle.py.  Building a plan makes
only the inputs: every expected answer that costs more than a closed form is
wrapped in later() and computed at its first check, so that set-up time is
import plus input generation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

import oracle

VERIFIED = "verified-with-certificate"
INCONCLUSIVE = "inconclusive-no-complement-in-bounds"


@dataclass
class Op:
    """One operation: run() is timed, check(result) returns None when the
    answer is right and otherwise says what is wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Plan:
    ops: list[Op]
    warmup: Op
    # replay(tracer, untraced op times) stages the batch one layer at a time
    replay: Callable
    # peak RSS is the largest child's (subprocess workloads)
    children: bool = False
    memory_probe: Optional[Callable[[], float]] = None


def later(fn, *args) -> Callable[[], object]:
    """fn(*args), computed once on first call: an expected answer that set-up
    does not pay for."""
    return functools.cache(functools.partial(fn, *args))


def _fr(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def reduction(points, delta: Fraction) -> tuple[int, list[int]]:
    """Modulus and exponents of sum_g e^(2 pi i delta g) as m-th roots of
    unity, the residue multiset a vanishing test works on."""
    terms = [delta * g for g in points]
    m = math.lcm(*(t.denominator for t in terms))
    return m, [(t.numerator * (m // t.denominator)) % m for t in terms]


def cold_cyclotomic(sp, tracer, reductions) -> None:
    """Fill the cyclotomic cache from empty for every modulus the batch's
    vanishing tests need."""
    moduli = sorted({m for m, _ in reductions})
    sp.cyclotomic_poly.cache_clear()
    with tracer.span("cyclotomic.cyclotomic_poly", calls=len(moduli)):
        for m in moduli:
            sp.cyclotomic_poly(m)
    tracer.add("cyclotomic.cyclotomic_poly.cold_s",
               tracer.values.pop("cyclotomic.cyclotomic_poly.busy_s"))


def root_sums(sp, tracer, reductions) -> None:
    multisets = [sp.ResidueMultiset.of(m, e) for m, e in reductions]
    with tracer.span("cyclotomic.root_sum_is_zero", calls=len(multisets)):
        zero = sum(map(sp.root_sum_is_zero, multisets))
    tracer.add("cyclotomic.root_sum_is_zero.zero", zero)
    tracer.ratio("cyclotomic.root_sum_is_zero.vanishing_ratio",
                 "cyclotomic.root_sum_is_zero.zero",
                 "cyclotomic.root_sum_is_zero")


def rotate(gamma, p: int, rng: random.Random) -> list[Fraction]:
    """A seeded copy of gamma that has the same integer spectra:
    translating by -g_j and reflecting mod p change no vanishing sum at
    integer differences."""
    shift = rng.choice(gamma)
    sign = rng.choice((1, -1))
    return sorted((sign * (g - shift)) % p for g in gamma)


def _cut_points(rng: random.Random, count: int, top: Fraction,
                den_lo: int, den_hi: int) -> list[Fraction]:
    """0 = r_0 < ... < r_count = top with seeded interior points."""
    cuts: set[Fraction] = set()
    while len(cuts) < count - 1:
        den = rng.randrange(den_lo, den_hi)
        x = Fraction(rng.randrange(1, den), den) * top
        cuts.add(x)
    return [Fraction(0)] + sorted(cuts) + [top]


def _pieces(p: int, family, breakpoints) -> list[tuple[Fraction, Fraction]]:
    return [(r1 + Fraction(k, p), r2 + Fraction(k, p))
            for (r1, r2), a in zip(zip(breakpoints, breakpoints[1:]), family)
            for k in a]


# ----------------------------------------------------------------- utc-sweep

@dataclass(frozen=True)
class UtcBase:
    name: str
    gamma: tuple[Fraction, ...]
    p: int
    n_max: int
    n_small: int
    m_max: int
    count: Callable[[int], int]   # integer spectra in {0..n}, closed form
    period: int                   # minimal common-complement period


UTC_BASES = (
    # every difference not divisible by 9 is admissible: one element per
    # residue class, 4^8 = 65,536 spectra at n = 36
    UtcBase("Z9", tuple(_fr(range(9))), 9, 36, 18, 81,
            lambda n: oracle.count_complete_residue_sets(n, 9), 9),
    UtcBase("p8", tuple(_fr(["0", "1/2", "2", "5/2", "4", "9/2", "6",
                             "13/2"])), 8, 52, 20, 64,
            oracle.count_paired_classes, 16),
    # admissible iff 6 | d and d/6 is not 0 mod 6: spectra are 6 times a
    # complete residue system mod 6, common complement {0..5} mod 36
    UtcBase("p6", tuple(_fr(["0", "1/2", "1/3", "5/6", "2/3", "7/6"])),
            6, 250, 60, 72,
            lambda n: oracle.count_complete_residue_sets(n // 6, 6), 36),
)


def _check_utc(base: UtcBase, gamma, n_max: int):
    expected = base.count(n_max)
    table = later(oracle.admissible_table, gamma, base.p, n_max)
    # the hash of the last answer that passed: an equal answer needs no
    # second pass, and no copy of the family outlives the check
    passed = []

    def check(report) -> Optional[str]:
        if report.verdict != VERIFIED:
            return f"verdict {report.verdict}"
        family, cert = report.spectra_found, report.certificate
        key = hash((tuple(a.elements for a in family), cert))
        if passed == [key]:
            return None
        ordered = sorted(a.elements for a in family)
        if len(ordered) != expected or any(
                x == y for x, y in zip(ordered, ordered[1:])):
            return f"{len(ordered)} spectra or repeats, expected {expected}"
        bad = next((a for a in family if not oracle.is_integer_spectrum(
            a, base.p, n_max, table())), None)
        if bad is not None:
            return f"{bad} is not a spectrum"
        if cert.period != base.period:
            return f"period {cert.period}, expected {base.period}"
        if not all(oracle.tiles_once(a, cert.residues, cert.period)
                   for a in family):
            return "certificate fails the coverage count"
        passed[:] = [key]
        return None

    return check


def utc_sweep(sp, seed: int, small: bool, workdir: str) -> Plan:
    rng = random.Random(seed)
    cases = [(base, rotate(base.gamma, base.p, rng),
              base.n_small if small else base.n_max) for base in UTC_BASES]
    ops = [Op(f"utc_verify:{base.name}",
              lambda b=base, g=gamma, n=n_max: sp.utc_verify(b.p, g, n, b.m_max),
              _check_utc(base, gamma, n_max))
           for base, gamma, n_max in cases]

    def replay(tracer, pipeline_times):
        reductions = [reduction(gamma, Fraction(d, base.p))
                      for base, gamma, n_max in cases
                      for d in range(1, n_max + 1)]
        cold_cyclotomic(sp, tracer, reductions)
        root_sums(sp, tracer, reductions)
        for base, gamma, n_max in cases:
            with tracer.span("spectra.admissible_differences"):
                allowed = sp.admissible_differences(gamma, base.p, n_max)
            tracer.add("spectra.admissible_differences.count", len(allowed))
            with tracer.span("spectra.enumerate_spectra"):
                family = sp.enumerate_spectra(gamma, base.p, n_max)
            tracer.add("spectra.enumerate_spectra.spectra", len(family))
            with tracer.span("tilings.find_common_complement"):
                cert = sp.find_common_complement(family, base.m_max)
            _record_period(tracer, cert, base.p)
            with tracer.span("tilings.is_tiling_of_Z", calls=len(family)):
                for a in family:
                    sp.is_tiling_of_Z(a, cert)
        # admissible_differences runs again inside enumerate_spectra, so
        # only the three calls utc_verify makes count as staged
        staged = sum(tracer.values[layer + ".busy_s"] for layer in (
            "spectra.enumerate_spectra", "tilings.find_common_complement",
            "tilings.is_tiling_of_Z"))
        pipeline = sum(pipeline_times)
        tracer.add("utc.utc_verify.busy_s", pipeline)
        tracer.add("utc.unaccounted_s", pipeline - staged)

    sizes = [base.count(n_max) for base, _, n_max in cases]

    def memory_probe() -> float:
        """Peak traced allocation while enumerating the largest family;
        tracemalloc slows enumeration about fivefold, so only once."""
        base, gamma, n_max = cases[sizes.index(max(sizes))]
        tracemalloc.start()
        try:
            sp.enumerate_spectra(gamma, base.p, n_max)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return Plan(ops, ops[sizes.index(min(sizes))], replay,
                memory_probe=memory_probe)


def _record_period(tracer, cert, p: int) -> None:
    if cert is None:
        return
    tracer.values["tilings.find_common_complement.period"] = max(
        tracer.values.get("tilings.find_common_complement.period", 0),
        cert.period)
    tracer.add("tilings.find_common_complement.periods_tried",
               cert.period // p)


# ------------------------------------------------------------ roundtrip-wide

GAMMA4 = tuple(_fr(["0", "1/2", "2", "5/2"]))
# a difference is admissible for GAMMA4 iff it is odd or 4 mod 8, so no two
# elements of a spectrum differ by 2 mod 8 and {0, 2} + 8Z is a common
# complement of every spectrum; {0,1,4,5} is not distinct mod 4, so no
# smaller period works for a family holding it
FORCE_PERIOD_8 = (0, 1, 4, 5)


def spectra4(n_max: int) -> list[tuple[int, ...]]:
    table = oracle.admissible_table(GAMMA4, 4, n_max)
    return [(0,) + rest for rest in combinations(range(1, n_max + 1), 3)
            if oracle.is_integer_spectrum((0,) + rest, 4, n_max, table)]


# the integer spectra of GAMMA4 in {0..60}, which the families are sampled
# from; they do not depend on the seed, so they are made once, on import
SPECTRA4 = spectra4(60)
TABLE4 = oracle.admissible_table(GAMMA4, 4, 12)


def pool4(n_max: int) -> list[tuple[int, ...]]:
    return [a for a in SPECTRA4 if a[-1] <= n_max]


def _family(rng, pool, k: int) -> list[tuple[int, ...]]:
    family = rng.sample([a for a in pool if a != FORCE_PERIOD_8], k - 1)
    family.insert(rng.randrange(k), FORCE_PERIOD_8)
    return family


def _check_roundtrip(family, breakpoints):
    omega = later(oracle.merged, _pieces(4, family, breakpoints))

    def check(report) -> Optional[str]:
        if list(report.omega.intervals) != omega():
            return "omega differs from the union of the lifted cells"
        if not (report.spectral_ok and report.consistency):
            return "round trip not consistent"
        comp = report.projected_complement
        if comp is None or comp.period != 8:
            return f"complement {comp}, expected period 8"
        if not all(oracle.tiles_once(a, comp.residues, 8) for a in family):
            return "complement fails the coverage count"
        if report.omega_tiling is None:
            return "no tiling of R"
        return None

    return check


def roundtrip_wide(sp, seed: int, small: bool, workdir: str) -> Plan:
    rng = random.Random(seed)
    pool = pool4(60)
    k = 8 if small else 96
    cases = []
    for _ in range(5):
        family = _family(rng, pool, k)
        cases.append((family, _cut_points(rng, k, Fraction(1, 4),
                                          10**5, 10**6)))
    ops = [Op(f"roundtrip:k={k}",
              lambda f=family, b=bps: sp.roundtrip(4, GAMMA4, f, b, 16),
              _check_roundtrip(family, bps))
           for family, bps in cases]

    def replay(tracer, pipeline_times):
        # spectral_verdict and assemble_tiling each make their own fibers()
        # pass, so most of their busy time is the same sweep as the
        # explicit fibers stage
        for family, bps in cases:
            with tracer.span("spectra.is_spectrum", calls=len(family)):
                ok = sum(sp.is_spectrum(GAMMA4, [Fraction(x, 4) for x in a])
                         for a in family)
            tracer.add("spectra.is_spectrum.true", ok)
            with tracer.span("intervals.build_omega"):
                omega = sp.build_omega(4, family, bps)
            with tracer.span("intervals.spectral_verdict"):
                sp.spectral_verdict(omega, GAMMA4, 4)
            with tracer.span("intervals.fibers"):
                decomposition = sp.fibers(omega, 4)
                fibers = decomposition.fiber_family()
            tracer.add("intervals.fibers.cells", len(decomposition.cells))
            tracer.add("intervals.fibers.distinct", len(fibers))
            with tracer.span("tilings.find_common_complement"):
                comp = sp.find_common_complement(fibers, 16)
            _record_period(tracer, comp, 4)
            with tracer.span("intervals.assemble_tiling"):
                sp.assemble_tiling(omega, 4, comp.residues, comp.period)
            with tracer.span("tilings.is_tiling_of_Z", calls=len(family)):
                for a in family:
                    sp.is_tiling_of_Z(a, comp)
        tracer.ratio("spectra.is_spectrum.true_ratio",
                     "spectra.is_spectrum.true", "spectra.is_spectrum")
        staged = sum(tracer.values[layer + ".busy_s"] for layer in (
            "spectra.is_spectrum", "intervals.build_omega",
            "intervals.spectral_verdict", "intervals.fibers",
            "tilings.find_common_complement", "intervals.assemble_tiling",
            "tilings.is_tiling_of_Z"))
        pipeline = sum(pipeline_times)
        tracer.add("utc.roundtrip.busy_s", pipeline)
        tracer.add("utc.unaccounted_s", pipeline - staged)

    return Plan(ops, ops[0], replay)


# ----------------------------------------------------------- spectral-checks

def lifted_pair(rng, p: int, positive: bool):
    """G = c + {j/q}, B = {q(k + p n_k)/p}: every difference of B sums the
    p-th roots of unity over G, so (G, B) is a spectral pair.  A negative
    moves one point of B by q(u/v)/p, which leaves a pair whose float sum
    has modulus at least sin(pi/v); negative_confirmed() checks that."""
    q = rng.randint(1, 4)
    c = Fraction(rng.randint(0, 40), rng.randint(1, 8))
    g = [c + Fraction(j, q) for j in range(p)]
    b = [Fraction(q * (k + p * rng.randint(-3, 3)), p) for k in range(p)]
    if not positive:
        v = rng.randint(2, 4)
        i = rng.randrange(p)
        b[i] += Fraction(q * rng.randint(1, v - 1), p * v)
    rng.shuffle(b)
    return g, b


def negative_confirmed(g, b) -> Optional[str]:
    """None when some difference of b has a float sum over g that clears
    the margin, so (g, b) is not a spectral pair."""
    if any(oracle.exp_sum_abs(g, y - x) > oracle.MARGIN
           for x, y in combinations(b, 2)):
        return None
    return "negative pair not confirmed by the float sum"


def _check_pair(g, b, positive: bool, answer: Callable[[object], bool]):
    """check(result) for an is_spectrum decision; answer(result) is the
    decision the program gave."""
    confirmed = (lambda: None) if positive else later(negative_confirmed, g, b)

    def check(result) -> Optional[str]:
        got = answer(result)
        if got is not positive:
            return f"is_spectrum {got}, expected {positive}"
        return confirmed()
    return check


def _gram_case(rng, pool, positive: bool, bound: int):
    k = rng.randint(2, 3)
    family = rng.sample(pool, k)
    if not positive:
        while True:
            bad = (0,) + tuple(sorted(rng.sample(range(1, 13), 3)))
            if not oracle.is_integer_spectrum(bad, 4, 12, TABLE4):
                break
        family[rng.randrange(k)] = bad
    bps = _cut_points(rng, k, Fraction(1, 4), 5, 60)
    pieces = _pieces(4, family, bps)
    lambdas = sorted(g + 4 * t for g in GAMMA4
                     for t in range(-bound // 4 - 1, bound // 4 + 1)
                     if abs(g + 4 * t) <= bound)
    return pieces, lambdas


def _check_gram(pieces, lambdas, positive: bool):
    # a union with a non-spectrum fiber is confirmed non-spectral by its
    # closed-form Gram matrix on the frequencies in [-4, 4]
    window = [x for x in lambdas if abs(x) <= 4]
    window_off = later(oracle.gram_off_diagonal, pieces, window)

    def check(result) -> Optional[str]:
        verdict, off, diag = result
        if not positive and window_off() <= oracle.MARGIN:
            return "non-spectral union not confirmed by the float Gram sum"
        if verdict is not positive:
            return f"spectral_verdict {verdict}, expected {positive}"
        if diag > 1e-8:
            return f"Gram diagonal off by {diag:.3g}"
        if positive and off > 1e-8:
            return f"Gram off-diagonal {off:.3g} on a spectral union"
        if not positive and off <= oracle.MARGIN:
            return f"Gram off-diagonal {off:.3g} on a non-spectral union"
        return None

    return check


def spectral_checks(sp, seed: int, small: bool, workdir: str) -> Plan:
    rng = random.Random(seed)
    n_pairs, n_gram, bound = (20, 2, 8) if small else (600, 20, 16)
    pairs = []
    for i in range(n_pairs):
        # two positives to one negative keeps the median among positives;
        # p cycles through 4..16 so that every seed has the same mix of
        # sizes and the seed moves only the points
        positive = i % 3 != 2
        pairs.append((*lifted_pair(rng, 4 + i % 13, positive), positive))
    pool = pool4(24)
    unions = []
    for i in range(n_gram):
        positive = i % 4 != 3
        pieces, lambdas = _gram_case(rng, pool, positive, bound)
        unions.append((sp.IntervalUnion.of(pieces), lambdas, positive,
                       _check_gram(pieces, lambdas, positive)))

    def gram_op(omega, lambdas):
        verdict = sp.spectral_verdict(omega, GAMMA4, 4)
        matrix = sp.gram_matrix(omega, lambdas)
        n = len(lambdas)
        off = max(abs(matrix[i][j]) for i in range(n) for j in range(n)
                  if i != j)
        diag = max(abs(matrix[i][i] - 1) for i in range(n))
        return verdict, off, diag

    ops = [Op(f"is_spectrum:p={len(g)}",
              lambda g=g, b=b: sp.is_spectrum(g, b),
              _check_pair(g, b, positive, lambda got: got))
           for g, b, positive in pairs]
    ops += [Op("gram", lambda o=omega, lam=lambdas: gram_op(o, lam), check)
            for omega, lambdas, _, check in unions]
    rng.shuffle(ops)

    def tested_differences():
        """The differences is_spectrum tests, in its order, up to the
        first that does not vanish."""
        deltas = []
        for g, b, positive in pairs:
            for x, y in combinations(sorted(b), 2):
                deltas.append((g, y - x))
                if not positive and not oracle.vanishes(g, y - x):
                    break
        return deltas

    deltas = later(tested_differences)

    def replay(tracer, pipeline_times):
        reductions = [reduction(g, d) for g, d in deltas()]
        cold_cyclotomic(sp, tracer, reductions)
        root_sums(sp, tracer, reductions)
        with tracer.span("spectra.exponential_sum_vanishes",
                         calls=len(deltas())):
            for g, d in deltas():
                sp.exponential_sum_vanishes(g, d)
        with tracer.span("spectra.is_spectrum", calls=len(pairs)):
            ok = sum(sp.is_spectrum(g, b) for g, b, _ in pairs)
        tracer.add("spectra.is_spectrum.true", ok)
        tracer.ratio("spectra.is_spectrum.true_ratio",
                     "spectra.is_spectrum.true", "spectra.is_spectrum")
        with tracer.span("intervals.spectral_verdict", calls=len(unions)):
            for omega, _, _, _ in unions:
                sp.spectral_verdict(omega, GAMMA4, 4)
        with tracer.span("intervals.gram_matrix", calls=len(unions)):
            for omega, lambdas, _, _ in unions:
                sp.gram_matrix(omega, lambdas)
        tracer.add("intervals.gram_matrix.entries",
                   sum(len(lam) ** 2 for _, lam, _, _ in unions))

    first = next(op for op in ops if op.name.startswith("is_spectrum"))
    return Plan(ops, first, replay)


# ------------------------------------------------------------------ cli-jobs

@dataclass
class Job:
    command: str
    args: dict                       # flag name -> value, passed as --flag=value
    code: Optional[int]              # the README's contract: 0, 2 or 1
    verdict: Optional[str] = None
    result: Optional[Callable[[dict], Optional[str]]] = None
    output: Optional[str] = None     # certificate file instead of stdout
    # (code, verdict, result) computed at the first check instead, for jobs
    # whose exit code itself needs an oracle count
    expected: Optional[Callable[[], tuple]] = None
    probe: tuple = ()                # inputs the staged replay calls a layer on
    argv: Optional[list[str]] = None  # set by cli_job_list

    def command_line(self) -> list[str]:
        return [self.command] + [f"--{k}={v}" for k, v in self.args.items()]


def _spectra_ok(gamma, p: int, n: int, count: int):
    """The listed spectra are `count` distinct integer spectra of gamma
    within {0..n}."""
    table = later(oracle.admissible_table, gamma, p, n)

    def check(r) -> Optional[str]:
        family = [tuple(a) for a in r["spectra"]]
        if len(family) != count or len(set(family)) != count:
            return f"{len(family)} spectra, expected {count}"
        if not all(oracle.is_integer_spectrum(a, p, n, table())
                   for a in family):
            return "a listed set is not a spectrum"
        return None
    return check


def _complements_ok(tile, m: int, expected: int):
    def check(r) -> Optional[str]:
        found = r["complements"]
        if len(found) != expected or r["count"] != expected:
            return f"{len(found)} complements, expected {expected}"
        if len({tuple(c) for c in found}) != expected:
            return "repeated complement"
        if not all(c[0] == 0 and oracle.tiles_once(tile, c, m)
                   for c in found):
            return "complement fails the coverage count"
        return None
    return check


def _cert_tiles(family, period: int, key: str):
    def check(r) -> Optional[str]:
        cert = r[key]
        if cert is None or cert["period"] != period:
            return f"certificate {cert}, expected period {period}"
        if not all(oracle.tiles_once(a, cert["residues"], period)
                   for a in family):
            return "certificate fails the coverage count"
        return None
    return check


def _omega_is(pieces):
    expected = later(lambda: [f"[{a},{b})" for a, b in oracle.merged(pieces)])
    return lambda r: None if r["omega"] == expected() and r["measure"] == "1" \
        else "omega differs from the union of the lifted cells"


def _complement_job(tile, m: int) -> tuple:
    count = oracle.count_complements(tile, m)
    return (0 if count else 2, "found" if count else "none-at-this-period",
            _complements_ok(tile, m, count))


def _omega_text(pieces) -> str:
    return ";".join(f"[{a},{b})" for a, b in sorted(pieces))


def cli_job_list(rng: random.Random, small: bool, workdir: str) -> list[Job]:
    """About a hundred jobs over all eight subcommands (a handful when
    small), each with the exit code and verdict the README's contract
    gives."""
    jobs: list[Job] = []
    pool = pool4(40)

    def family4(k):
        return _family(rng, pool, k), _cut_points(rng, k, Fraction(1, 4),
                                                  20, 200)

    for i in range(3 if small else 24):
        positive = i % 3 != 2
        g, b = lifted_pair(rng, rng.randint(2, 6), positive)
        jobs.append(Job("check-spectrum", {"gamma": _csv(g), "b": _csv(b)},
                        0 if positive else 2, "true" if positive else "false",
                        _check_pair(g, b, positive,
                                    lambda r: r["is_spectrum"]),
                        probe=(g, b)))

    for _ in range(1 if small else 12):
        p = rng.randint(2, 4)
        n = rng.randint(p, 14)
        jobs.append(Job("enum-spectra", {"gamma": _csv(range(p)), "p": p,
                                         "n-max": n}, 0,
                        "complete-within-bounds", _spectra_ok(
                            range(p), p, n,
                            oracle.count_complete_residue_sets(n, p))))
    big_n = 20 if small else 44
    gamma8 = rotate(UTC_BASES[1].gamma, 8, rng)
    jobs.append(Job("enum-spectra", {"gamma": _csv(gamma8), "p": 8,
                                     "n-max": big_n}, 0,
                    "complete-within-bounds", _spectra_ok(
                        gamma8, 8, big_n, oracle.count_paired_classes(big_n)),
                    output="enum-big.json"))

    tiles = [([0, s], 2 * s) for s in rng.sample(range(2, 7), 1 if small else 5)]
    for _ in range(0 if small else 5):
        k = rng.randint(2, 4)
        tiles.append((list(range(k)), k * rng.randint(1, 4)))
    tiles += [([0, 1, 3], 6), ([0, 2, 5], 10), ([0, 1, 3], 12)]
    for tile, m in tiles:
        jobs.append(Job("find-complement", {"a": _csv(tile), "m": m}, None,
                        expected=later(_complement_job, tile, m),
                        probe=(tile, m)))
    # {0, h} mod 2h: one of each pair {u, u + h}, 2^(h-1) complements
    half = 8 if small else 16
    jobs.append(Job("find-complement", {"a": f"0,{half}", "m": 2 * half}, 0,
                    "found",
                    _complements_ok([0, half], 2 * half, 2 ** (half - 1)),
                    output="complements-big.json", probe=([0, half], 2 * half)))

    for i in range(2 if small else 12):
        p = rng.randint(2, 5)
        n = rng.randint(p, 3 * p + 2)
        # no period up to m_max = p - 1 can hold a complement
        inconclusive = i % 6 == 1
        listed = _spectra_ok(range(p), p, n,
                             oracle.count_complete_residue_sets(n, p))

        def spectra_ok(r, p=p, listed=listed, inconclusive=inconclusive):
            wrong = listed(r)
            if wrong or inconclusive:
                return wrong or (None if r["certificate"] is None
                                 else "certificate beyond m_max")
            return _cert_tiles(r["spectra"], p, "certificate")(r)

        jobs.append(Job("utc-verify", {"gamma": _csv(range(p)), "p": p,
                                       "n-max": n,
                                       "m-max": p - 1 if inconclusive else 2 * p},
                        2 if inconclusive else 0,
                        INCONCLUSIVE if inconclusive else VERIFIED,
                        spectra_ok))

    for _ in range(1 if small else 10):
        family, bps = family4(rng.randint(2, 5))
        jobs.append(Job("build-omega", {"p": 4, "family": ";".join(
            _csv(a) for a in family), "breakpoints": _csv(bps)}, 0,
            "constructed", _omega_is(_pieces(4, family, bps))))

    for i in range(2 if small else 10):
        # {0,2} + 8Z complements every spectrum of GAMMA4; {0,1} + 8Z
        # overlaps on the fiber {0,1,4,5} that every family holds
        family, bps = family4(rng.randint(2, 5))
        tiles_r = i % 5 != 1
        jobs.append(Job("verify-omega", {
            "omega": _omega_text(_pieces(4, family, bps)),
            "t-residues": "0,2" if tiles_r else "0,1", "t-period": 8, "p": 4},
            0 if tiles_r else 2, "true" if tiles_r else "false",
            lambda r, v=tiles_r: None if r["tiles"] is v else "wrong tiles"))

    for _ in range(1 if small else 8):
        family, bps = family4(rng.randint(3, 6))
        jobs.append(Job("roundtrip", {
            "p": 4, "gamma": _csv(GAMMA4),
            "family": ";".join(_csv(a) for a in family),
            "breakpoints": _csv(bps), "m-max": 16}, 0, "consistent",
            _cert_tiles(family, 8, "complement")))

    for i in range(2 if small else 8):
        if i % 2 == 0:
            # every endpoint of [0,1) is on the grid Z, so the period
            # identity holds up to roundoff
            lam = rng.randint(-20, 20)
            args = {"omega": "[0,1)", "p": 1, "lam": lam,
                    "lam-prime": lam + rng.choice((-1, 1)) * rng.randint(2, 9)}
            check = lambda r: None if r["period_identity_residual"] < 1e-9 \
                else "residual too large"
        else:
            family, bps = family4(rng.randint(2, 4))
            args = {"omega": _omega_text(_pieces(4, family, bps)), "p": 4,
                    "gamma": _csv(GAMMA4)}
            check = lambda r: None if r["max_off_diagonal"] < 1e-8 \
                else "Gram off-diagonal too large"
        jobs.append(Job("gram-check", args, 0, "within-tolerance", check))

    for n, job in enumerate(jobs):
        if job.output is None and n % 5 == 0:
            job.output = f"cert-{n}.json"
        if job.output is not None:
            job.output = os.path.join(workdir, job.output)
            job.args["output"] = job.output
        job.argv = job.command_line()
    # find-complement and enum-spectra jobs also go through --job files
    for n, job in enumerate(j for j in jobs
                            if j.command in ("find-complement", "enum-spectra")):
        if n % 4 == 0:
            path = os.path.join(workdir, f"job-{n}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"command": job.command, "args": job.args}, handle)
            job.argv = ["--job", path]

    invalid = [
        ["check-spectrum", "--gamma=0,0.5", "--b=0,1"],
        ["find-complement", "--a=0,1", "--m=0"],
        ["enum-spectra", "--gamma=0,1/2", "--p=3", "--n-max=4"],
        ["verify-omega", "--omega=[0,1", "--t-residues=0", "--t-period=1"],
        ["frobnicate"],
        ["--job", os.path.join(workdir, "missing-job.json")],
    ]
    for argv in invalid[:2] if small else invalid:
        jobs.append(Job(argv[0], {}, 1, argv=argv))
    rng.shuffle(jobs)
    return jobs


def _check_job(job: Job):
    def check(result) -> Optional[str]:
        if job.expected is not None:
            job.code, job.verdict, job.result = job.expected()
        code, stdout, stderr = result
        if code != job.code:
            return f"exit {code}, expected {job.code}: {stderr[-200:]!r}"
        if job.code == 1:
            return None if not stdout and stderr.startswith("error:") else \
                "invalid input did not fail cleanly"
        text = stdout
        if job.output is not None:
            with open(job.output, encoding="utf-8") as handle:
                text = handle.read()
        cert = json.loads(text)
        if cert["command"] != job.command or cert["verdict"] != job.verdict:
            return f"{cert['command']} {cert['verdict']}, expected " \
                   f"{job.command} {job.verdict}"
        return job.result(cert["result"]) if job.result else None
    return check


def cli_jobs(sp, seed: int, small: bool, workdir: str) -> Plan:
    rng = random.Random(seed)
    jobs = cli_job_list(rng, small, workdir)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cli = importlib.import_module("spectile.cli")

    def run_job(job: Job):
        proc = subprocess.run([sys.executable, "-m", "spectile", *job.argv],
                              capture_output=True, text=True, env=env,
                              cwd=workdir, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    ops = [Op(job.command, lambda j=job: run_job(j), _check_job(job))
           for job in jobs]
    pairs = [job.probe for job in jobs if job.command == "check-spectrum"
             and job.probe]
    tiles = [job.probe for job in jobs if job.command == "find-complement"
             and job.probe]

    def replay(tracer, pipeline_times):
        cold_cyclotomic(sp, tracer, [reduction(g, y - x) for g, b in pairs
                                     for x, y in combinations(sorted(b), 2)])
        written = 0
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), tracer.span("cli.run"):
                cli.run(job.argv)
            written += len(out.getvalue().encode("utf-8"))
            if job.output is not None:
                written += os.path.getsize(job.output)
        tracer.add("cli.cert_bytes", written)
        tracer.add("cli.process_overhead_s",
                   sum(pipeline_times) - tracer.values["cli.run.busy_s"])
        for tile, m in tiles:
            with tracer.span("tilings.find_complements"):
                found = sp.find_complements(tile, m)
            tracer.add("tilings.find_complements.solutions", len(found))

    warm = next(op for op in ops if op.name == "check-spectrum")
    return Plan(ops, warm, replay, children=True)


WORKLOADS = {
    "utc-sweep": utc_sweep,
    "roundtrip-wide": roundtrip_wide,
    "spectral-checks": spectral_checks,
    "cli-jobs": cli_jobs,
}
