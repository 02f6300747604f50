"""Acceptance gate: nine property/oracle criteria at pinned tolerances.

Each test prints one machine-greppable PASS/FAIL line.  Tolerances and
runtime budgets are stated inline; exact verdicts are checked with zero
tolerance.
"""

import random
import time
from fractions import Fraction as F

from corpus import NEGATIVE_CORPUS, OMEGA_2, SPECTRAL_CORPUS, UNIT
from oracles import brute_force_spectra, is_p_tile, root_sum_value
from spectile import (IntervalUnion, IntSet, ResidueMultiset,
                      assemble_tiling, build_omega, enumerate_spectra, fibers,
                      find_common_complement, find_complements, gram_matrix,
                      is_tiling_of_Z, period_identity_residual,
                      root_sum_is_zero, roundtrip, spectral_verdict,
                      tiles_cyclic, utc_verify, verify_omega_tiling)


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def random_multiset(rng: random.Random) -> ResidueMultiset:
    """Mix of unstructured multisets and engineered vanishing sums (cosets
    of cyclic subgroups), sometimes perturbed by extra entries."""
    m = rng.randint(1, 60)
    if rng.random() < 0.55 or m == 1:
        entries = [rng.randrange(m) for _ in range(rng.randint(0, 10))]
    else:
        divisors = [d for d in range(2, m + 1) if m % d == 0]
        q = rng.choice(divisors)
        entries = []
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(m)
            entries.extend((j + k * (m // q)) % m for k in range(q))
        if rng.random() < 0.3:
            entries.extend(rng.randrange(m) for _ in range(rng.randint(1, 3)))
    return ResidueMultiset.of(m, entries)


def test_criterion_1_exact_float_agreement():
    """10^4 random multisets with m <= 60: the exact zero-test must agree
    with |float sum| < 1e-9; runtime budget 10 s."""
    rng = random.Random(1001)
    start = time.monotonic()
    checked = vanishing = 0
    for _ in range(10_000):
        ms = random_multiset(rng)
        exact = root_sum_is_zero(ms)
        floats = abs(root_sum_value(ms)) < 1e-9
        assert exact == floats, (ms.modulus, ms.entries)
        checked += 1
        vanishing += exact
    elapsed = time.monotonic() - start
    report(1, checked == 10_000 and elapsed < 10.0,
           f"exact/float agreement on {checked} multisets "
           f"({vanishing} vanishing), {elapsed:.2f}s < 10s")


def test_criterion_2_spectra_oracle_equivalence():
    """Backtracking enumeration equals the brute-force oracle set-for-set
    for three bases at n_max = 12; runtime budget 30 s."""
    start = time.monotonic()
    cases = [([0, 1], 2, 12),
             ([0, 1, 2, 3], 4, 12),
             ([0, F(1, 2), 1, F(3, 2)], 4, 12)]
    total = 0
    for gamma, p, n_max in cases:
        fast = enumerate_spectra(gamma, p, n_max)
        slow = brute_force_spectra(gamma, p, n_max)
        assert fast == slow, (gamma, p, n_max)
        total += len(fast)
    elapsed = time.monotonic() - start
    report(2, elapsed < 30.0,
           f"enumeration == brute force on 3 bases ({total} spectra), "
           f"{elapsed:.2f}s < 30s")


def test_criterion_3_utc_desk_instances():
    """Two desk instances verify with the expected certificates, each
    re-verified member-by-member; runtime budget 5 s each."""
    expected = [((2, [0, 1], 5, 8), ((0,), 2)),
                ((4, [0, 1, 2, 3], 7, 8), ((0,), 4))]
    details = []
    for (p, gamma, n_max, m_max), cert in expected:
        start = time.monotonic()
        rep = utc_verify(p, gamma, n_max, m_max)
        elapsed = time.monotonic() - start
        assert rep.verdict == "verified-with-certificate"
        assert (rep.certificate.residues, rep.certificate.period) == cert
        for member in rep.spectra_found:
            assert tiles_cyclic(member, rep.certificate.residues,
                                rep.certificate.period)
        assert elapsed < 5.0
        details.append(f"p={p} cert={cert} {elapsed:.2f}s")
    report(3, True, "; ".join(details) + " (each < 5s)")


def test_criterion_4_round_trip_worked_instance():
    """The worked construction yields the expected union, a true spectral
    verdict, and an exact tiling by Z; zero tolerance, budget 1 s."""
    start = time.monotonic()
    rep = roundtrip(2, [0, 1], [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)], 4)
    expected = IntervalUnion.of([(0, F(3, 4)), (F(7, 4), 2)])
    ok = (rep.omega == expected and rep.spectral_ok
          and verify_omega_tiling(rep.omega,
                                  rep.projected_complement, 2)
          and rep.projected_complement.period == 2
          and rep.consistency)
    elapsed = time.monotonic() - start
    report(4, ok and elapsed < 1.0,
           f"omega == [0,3/4) u [7/4,2), spectral and tiled by Z exactly, "
           f"{elapsed:.2f}s < 1s")


def test_criterion_5_period_identity():
    """100 random unions with endpoints on (1/p)Z, p in 1..4, frequencies
    drawn uniformly from [0, 10] (redrawn while a frequency gap is under
    0.05, which caps float amplification): residual < 1e-9 every trial."""
    rng = random.Random(20260819)
    worst = 0.0
    for _ in range(100):
        p = rng.randint(1, 4)
        count = 2 * rng.randint(1, 3)
        ks = sorted(rng.sample(range(-12, 13), count))
        omega = IntervalUnion.of(
            [(F(ks[i], p), F(ks[i + 1], p)) for i in range(0, count, 2)])
        while True:
            lam = rng.uniform(0.0, 10.0)
            lam_prime = rng.uniform(0.0, 10.0)
            if abs(lam - lam_prime) > 0.05 and \
                    abs(lam + p - lam_prime) > 0.05:
                break
        residual = period_identity_residual(omega, p, lam, lam_prime)
        assert residual < 1e-9, (omega, p, lam, lam_prime, residual)
        worst = max(worst, residual)
    report(5, True,
           f"period identity residual < 1e-9 on 100 trials "
           f"(worst {worst:.2e})")


def test_criterion_6_spectral_implies_p_tile():
    """Every corpus instance with a true spectral verdict is a p-tile;
    zero exceptions."""
    checked = 0
    for omega, gamma, p in SPECTRAL_CORPUS + NEGATIVE_CORPUS:
        if spectral_verdict(omega, gamma, p):
            assert is_p_tile(omega, p), (omega, gamma, p)
            checked += 1
    assert checked == len(SPECTRAL_CORPUS)
    report(6, True,
           f"spectral verdict implies p-tile on all {checked} "
           f"spectral corpus instances")


def test_criterion_7_assembly_on_random_instances():
    """50 random (p <= 3, family, breakpoints) instances built to admit a
    common complement within m_max = 12: assembly succeeds and the
    partition check is exact."""
    rng = random.Random(7007)
    built = 0
    while built < 50:
        p = rng.randint(1, 3)
        m0 = p * rng.randint(1, 12 // p)
        rest = rng.sample(range(1, m0), p - 1) if p > 1 else []
        base = IntSet.of([0] + rest)
        if not find_complements(base, m0):
            continue
        members = rng.randint(1, 3)
        family = []
        for _ in range(members):
            shift = rng.randrange(m0)
            family.append(IntSet.of(
                [(a + shift) % m0 + m0 * rng.randint(0, 2) for a in base]))
        cuts = sorted(rng.sample(range(1, 24), members - 1))
        rs = [F(0)] + [F(s, 24 * p) for s in cuts] + [F(1, p)]
        omega = build_omega(p, family, rs)
        complement = find_common_complement(
            fibers(omega, p).fiber_family(), 12)
        assert complement is not None, (p, family, rs)
        certificate = assemble_tiling(omega, p, complement.residues,
                                      complement.period)
        assert verify_omega_tiling(omega, certificate.complement, p)
        built += 1
    report(7, True,
           "assembly and exact partition on 50 random instances "
           "(m_max = 12)")


def test_criterion_8_truncated_gram_cross_check():
    """For every spectral corpus instance, the float Gram matrix over
    (Gamma + pZ) within [-3p, 3p] has off-diagonal < 1e-8 and diagonal
    within 1e-8 of 1."""
    worst = 0.0
    for omega, gamma, p in SPECTRAL_CORPUS:
        assert spectral_verdict(omega, gamma, p)
        lambdas = sorted(F(g) + p * t for g in gamma for t in range(-6, 7)
                         if abs(F(g) + p * t) <= 3 * p)
        entries = gram_matrix(omega, lambdas)
        for i in range(len(lambdas)):
            assert abs(entries[i][i] - 1) < 1e-8
            for j in range(len(lambdas)):
                if i != j:
                    assert abs(entries[i][j]) < 1e-8, \
                        (omega, lambdas[i], lambdas[j])
                    worst = max(worst, abs(entries[i][j]))
    report(8, True,
           f"Gram off-diagonal < 1e-8 and diagonal == 1 on "
           f"{len(SPECTRAL_CORPUS)} instances (worst off-diag {worst:.2e})")


def test_criterion_9_negative_controls():
    """Known non-spectrum and non-tiling inputs must fail exactly."""
    bad_spectrum = spectral_verdict(UNIT, [0, F(1, 2)], 2)
    bad_tiling = tiles_cyclic([0, 2], [0], 2)
    report(9, not bad_spectrum and not bad_tiling,
           "non-spectrum and non-tiling controls both rejected")


def test_corpus_sanity():
    # the corpus itself must witness both verdicts
    assert all(spectral_verdict(o, g, p) for o, g, p in SPECTRAL_CORPUS)
    assert not any(spectral_verdict(o, g, p) for o, g, p in NEGATIVE_CORPUS)
    assert is_tiling_of_Z([0, 1], find_common_complement([[0, 1]], 2))
    assert spectral_verdict(OMEGA_2, [0, 1], 2)
