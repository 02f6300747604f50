"""End-to-end common-complement instances and the spectral-to-tiling
round trip."""

import gc
import math
import random
import re
import time
import tracemalloc
import weakref
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spectile.cli
import spectile.intervals
import spectile.spectra
import spectile.tilings
import spectile.utc
from spectile import (INCONCLUSIVE, NO_SPECTRA, VERIFIED, IntSet,
                      InvalidFamilyError, OmegaTilingCertificate,
                      PeriodicSet, RoundTripReport, assemble_tiling,
                      build_omega, enumerate_spectra, fibers,
                      find_common_complement, find_complements, is_spectrum,
                      is_tiling_of_Z, measure, roundtrip, spectral_verdict,
                      utc_verify, verify_omega_tiling)
from corpus import OMEGA_2, bases, bases_and_bounds
from oracles import brute_common_complement, brute_common_complements

P8_GAMMA = [0, F(1, 2), 2, F(5, 2), 4, F(9, 2), 6, F(13, 2)]
# admissible iff 6 | d and d/6 is not 0 mod 6: one clique mod M = 36
P6_GAMMA = [0, F(1, 2), F(1, 3), F(5, 6), F(2, 3), F(7, 6)]


def _assert_derived(report):
    """The report's derived values equal their definitions."""
    tiling = report.omega_tiling
    assert report.consistency == (report.spectral_ok and tiling is not None)
    if tiling is None:
        assert report.projected_complement is None
    else:
        assert report.projected_complement == tiling.complement
        assert tiling.checked_domain == \
            (F(0), F(tiling.complement.period, tiling.p))


def test_utc_verify_desk_instances():
    report = utc_verify(2, [0, 1], 5, 8)
    assert report.verdict == VERIFIED
    assert (report.certificate.residues, report.certificate.period) == ((0,), 2)
    assert [tuple(a) for a in report.spectra_found] == [(0, 1), (0, 3), (0, 5)]

    report = utc_verify(4, [0, 1, 2, 3], 7, 8)
    assert report.verdict == VERIFIED
    assert (report.certificate.residues, report.certificate.period) == ((0,), 4)
    assert len(report.spectra_found) == 8


def test_utc_verify_third_base():
    # 1 + e^(pi i d/3) vanishes only for d = 3 mod 6, so the family within
    # n_max = 6 is just {0,3}, and 2Z already tiles with it
    report = utc_verify(2, [0, F(1, 3)], 6, 6)
    assert report.verdict == VERIFIED
    assert [tuple(a) for a in report.spectra_found] == [(0, 3)]
    assert (report.certificate.residues, report.certificate.period) == ((0,), 2)


def test_utc_verify_certificates_reverify():
    for p, gamma, n_max, m_max in [(2, [0, 1], 5, 8),
                                   (4, [0, 1, 2, 3], 7, 8),
                                   (2, [0, F(1, 3)], 6, 6)]:
        report = utc_verify(p, gamma, n_max, m_max)
        assert report.verdict == VERIFIED
        for a in report.spectra_found:
            assert is_tiling_of_Z(a, report.certificate)
        assert report.timing >= 0


def test_utc_verify_no_spectra_verdict():
    report = utc_verify(2, [0, F(1, 3)], 2, 6)
    assert report.verdict == NO_SPECTRA
    assert report.spectra_found == ()
    assert report.certificate is None


def test_utc_verify_inconclusive_verdict():
    report = utc_verify(2, [0, 1], 5, 1)
    assert report.verdict == INCONCLUSIVE
    assert len(report.spectra_found) == 3
    assert report.certificate is None


def test_utc_verify_time_budget_exhaustion():
    report = utc_verify(2, [0, 1], 5, 8, time_budget=0.0)
    assert report.verdict == INCONCLUSIVE
    assert report.certificate is None


def test_utc_verify_budget_bounds_enumeration():
    # 65,536 spectra without a budget; a spent budget stops the enumeration
    report = utc_verify(9, range(9), 36, 81, time_budget=0)
    assert report.verdict == INCONCLUSIVE
    assert report.spectra_found == ()
    assert report.certificate is None
    assert (report.modulus, report.cliques) == (None, ())
    assert report.spectra_count == 0


def test_utc_verify_budget_ends_in_the_common_search(monkeypatch):
    # Z_9 within {0..18} lifts its one clique to 256 spectra; the clock
    # then jumps past every deadline as the common-complement search
    # starts, so only the search can notice it, and the report keeps the
    # spectra found before it
    state = {"searching": False}
    real_cover, real_clock = spectile.utc._first_common_cover, time.monotonic

    def cover(*args):
        state["searching"] = True
        return real_cover(*args)

    monkeypatch.setattr(spectile.utc, "_first_common_cover", cover)
    monkeypatch.setattr(spectile.spectra.time, "monotonic",
                        lambda: real_clock() + 1e9 * state["searching"])
    report = utc_verify(9, range(9), 18, 81, time_budget=3600)
    assert state["searching"]
    assert report.verdict == INCONCLUSIVE and report.certificate is None
    assert report.spectra_found == tuple(enumerate_spectra(range(9), 9, 18))
    assert len(report.spectra_found) == 256


def test_utc_verify_budget_ends_in_the_recheck(monkeypatch):
    # the common search returns the real certificate for Z_9 within
    # {0..18}; the clock then jumps past every deadline, so only the
    # re-check's first poll can notice it.  The verdict is inconclusive
    # with no certificate, and the report keeps the one clique
    state = {"found": False}
    real_cover, real_clock = spectile.utc._first_common_cover, time.monotonic

    def cover(*args):
        found = real_cover(*args)
        state["found"] = True
        return found

    monkeypatch.setattr(spectile.utc, "_first_common_cover", cover)
    monkeypatch.setattr(spectile.spectra.time, "monotonic",
                        lambda: real_clock() + 1e9 * state["found"])
    report = utc_verify(9, range(9), 18, 81, time_budget=3600)
    assert state["found"]
    assert report.verdict == INCONCLUSIVE and report.certificate is None
    assert (report.modulus, report.cliques) == (9, (tuple(range(9)),))
    assert len(report.spectra_found) == 256


def test_time_budget_refuses_nan_and_negative():
    # a NaN deadline never passes, so it would switch the budget off; all
    # four bounded searches refuse it, and a negative budget, alike
    family, rs = [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)]
    for budget in (float("nan"), -1):
        for call in (lambda: utc_verify(9, range(9), 27, 81,
                                        time_budget=budget),
                     lambda: roundtrip(2, [0, 1], family, rs, 8,
                                       time_budget=budget),
                     lambda: enumerate_spectra(range(9), 9, 36,
                                               time_budget=budget),
                     lambda: find_common_complement(family, 8,
                                                    time_budget=budget)):
            with pytest.raises(ValueError,
                               match="^time_budget must be nonnegative, not "):
                call()
    # the budget is the one keyword: no absolute deadline is taken
    with pytest.raises(TypeError):
        enumerate_spectra(range(9), 9, 36, deadline=0.0)
    with pytest.raises(TypeError):
        find_common_complement(family, 8, deadline=0.0)
    consistent = roundtrip(2, [0, 1], family, rs, 8)
    assert consistent.consistency
    spent = roundtrip(2, [0, 1], family, rs, 8, time_budget=0)
    assert spent.projected_complement is None and spent.omega_tiling is None
    assert not spent.consistency
    _assert_derived(consistent)
    _assert_derived(spent)


def test_utc_verify_monotonicity():
    small = utc_verify(2, [0, 1], 3, 8)
    large = utc_verify(2, [0, 1], 7, 8)
    assert set(small.spectra_found) <= set(large.spectra_found)
    wide = utc_verify(2, [0, 1], 5, 16)
    assert wide.verdict == VERIFIED


def test_utc_verify_input_validation():
    with pytest.raises(ValueError):
        utc_verify(2, [0, 1, 2], 5, 8)
    with pytest.raises(ValueError):
        utc_verify(2, [1, 2], 5, 8)
    with pytest.raises(ValueError):
        utc_verify(2, [0, 2], 5, 8)
    with pytest.raises(TypeError):
        utc_verify(2, [0, 0.5], 5, 8)
    # both bounds are converted at entry, before anything is found
    with pytest.raises(ValueError, match="1/2 is not an integer"):
        utc_verify(2, [0, 1], 0, F(1, 2))
    report = utc_verify(2, [0, 1], F(10, 2), F(16, 2))
    assert report.verdict == VERIFIED
    assert (type(report.n_max), type(report.m_max)) == (int, int)
    assert (report.n_max, report.m_max) == (5, 8)
    with pytest.raises(ValueError, match="^m_max must be positive$"):
        utc_verify(2, [0, 1], 5, 0)


def test_m_max_below_one_is_refused_at_entry(monkeypatch):
    # a bound that holds no period raises before anything is enumerated
    def unreached(*args, **kwargs):
        raise AssertionError("enumerated before m_max was checked")

    monkeypatch.setattr(spectile.utc, "_spectrum_cliques", unreached)
    monkeypatch.setattr(spectile.utc, "build_omega", unreached)
    family, rs = [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)]
    for m_max in (0, -3, F(-6, 2)):
        for call in (lambda: utc_verify(2, [0, F(1, 2)], 6, m_max),
                     lambda: roundtrip(2, [0, 1], family, rs, m_max),
                     lambda: find_common_complement(family, m_max)):
            with pytest.raises(ValueError, match="^m_max must be positive$"):
                call()


def test_utc_verify_checks_each_residue_class_once(monkeypatch):
    # all 256 spectra of Z_9 within {0..18} are one class mod 9
    calls = {"tiles_cyclic": 0}
    _counting(monkeypatch, calls, "tiles_cyclic", spectile.tilings)
    searched = []
    real_covers = spectile.tilings._exact_covers

    def recording(tables, *args):
        searched.append(len(tables))
        return real_covers(tables, *args)

    monkeypatch.setattr(spectile.tilings, "_exact_covers", recording)
    report = utc_verify(9, range(9), 18, 81)
    assert report.verdict == VERIFIED and len(report.spectra_found) == 256
    assert calls == {"tiles_cyclic": 1}
    assert searched == [1]
    # the p = 8 base has 8 cliques mod 16 and 27 spectra within {0..20};
    # at period 16 each lift keeps its residue, so each clique is one class
    calls["tiles_cyclic"] = 0
    report = utc_verify(8, P8_GAMMA, 20, 64)
    assert report.verdict == VERIFIED and len(report.spectra_found) == 27
    assert report.certificate.period == 16
    assert len({frozenset(x % 16 for x in a)
                for a in report.spectra_found}) == 8
    assert calls == {"tiles_cyclic": 8}


def test_utc_verify_recheck_reaches_a_late_class(monkeypatch, capsys):
    # {0, 2} mod 4 tiles Z with {0, d} for every odd d, so it passes every
    # spectrum of {0, 1} and fails only on a last clique of another class:
    # {0, 2}, or {0, 4}, which is not even distinct mod 4.  The search
    # ignores the cliques here, so a late clique reaches only the re-check
    def wrong(p, m_max, members, deadline=None):
        return PeriodicSet.of([0, 2], 4)

    monkeypatch.setattr(spectile.utc, "_first_common_cover", wrong)
    assert utc_verify(2, [0, 1], 9, 8).certificate == PeriodicSet.of([0, 2], 4)
    real = spectile.utc._spectrum_cliques
    for late in [(0, 2), (0, 4)]:
        def with_late_clique(*args, **kwargs):
            cliques, modulus = real(*args, **kwargs)
            return cliques + [late], modulus

        monkeypatch.setattr(spectile.utc, "_spectrum_cliques",
                            with_late_clique)
        with pytest.raises(AssertionError,
                           match=re.escape(f"re-verification on {late}")):
            utc_verify(2, [0, 1], 9, 8)
        # a failed re-verification is the program's fault: exit 3
        assert spectile.cli.run(["utc-verify", "--gamma", "0,1", "--p", "2",
                                 "--n-max", "9", "--m-max", "8"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")


def _members(p, gamma, n_max, clique):
    """The spectra of gamma within {0..n_max}, or with a clique given, its
    lifts: 0 stays 0, and r takes r, r + M, ... up to n_max."""
    if clique is None:
        return enumerate_spectra(gamma, p, n_max)
    modulus = p * math.lcm(*(F(g).denominator for g in gamma))
    return list(product([0], *(range(r, n_max + 1, modulus)
                               for r in clique[1:])))


@st.composite
def _stubbed_certificates(draw):
    """(p, gamma, n_max, clique, certificate): a base with p <= 4; None,
    or a tuple (0, r, ...) with each r <= n_max, distinct mod M, that need
    not be a clique; and residues mod a multiple of p, drawn at random or
    as a complement of the first member or of a random one, so that
    certificates pass and fail the re-check alike."""
    gamma, p, n_max = draw(bases_and_bounds().filter(lambda c: c[1] <= 4))
    modulus = p * math.lcm(*(g.denominator for g in gamma))
    clique = None
    if n_max >= p - 1 and draw(st.booleans()):
        rest = draw(st.sets(st.integers(1, n_max),
                            min_size=p - 1, max_size=p - 1))
        assume(len({r % modulus for r in rest}) == p - 1)
        clique = (0, *sorted(rest))
    m = p * draw(st.integers(1, 6))
    members = _members(p, gamma, n_max, clique)
    source = draw(st.sampled_from(["first", "any", "random"]))
    complements = []
    if members and source != "random":
        complements = find_complements(
            members[0] if source == "first" else draw(st.sampled_from(members)),
            m)
    residues = (draw(st.sampled_from(complements)) if complements else
                draw(st.sets(st.integers(0, m - 1), min_size=1)))
    return p, gamma, n_max, clique, PeriodicSet.of(residues, m)


@settings(max_examples=200, deadline=None)
@given(_stubbed_certificates())
# (0, 3) tiles with the certificate, and its lift (0, 5) does not
@example((2, [0, 1], 9, (0, 3), PeriodicSet.of([0, 1, 2, 6, 7, 8], 12)))
# the same with (0, 5) the last lift: 3 + M = n_max still shifts
@example((2, [0, 1], 5, (0, 3), PeriodicSet.of([0, 1, 2, 6, 7, 8], 12)))
def test_utc_verify_recheck_matches_every_member(case):
    # the per-member check is the oracle: the re-check on cliques refuses
    # a certificate exactly when some member does not tile with it.  The
    # members are the spectra, or the lifts of a drawn tuple that stands
    # in for the cliques: on the spectra of small bases no certificate
    # passed a clique's first lift and failed a later one, so only the
    # drawn tuples catch a re-check that skips a class
    p, gamma, n_max, clique, certificate = case
    members = _members(p, gamma, n_max, clique)
    real = spectile.utc._spectrum_cliques
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectile.utc, "_first_common_cover",
                      lambda *args: certificate)
        if clique is not None:
            patch.setattr(spectile.utc, "_spectrum_cliques",
                          lambda *args: ([clique], real(*args)[1]))
        try:
            verdict = utc_verify(p, gamma, n_max, certificate.period).verdict
        except AssertionError:
            verdict = None
    if not members:
        assert verdict == NO_SPECTRA
    else:
        assert (verdict is None) == any(not is_tiling_of_Z(a, certificate)
                                        for a in members)


def _searches(call):
    """call()'s result and the (period, classes) of every search it ran,
    classes as a set: their order cannot change what is found."""
    searched = []
    real = spectile.tilings._cliques

    def recording(allowed, k, deadline, what, blocks, modulus):
        searched.append((modulus, frozenset(map(tuple, blocks))))
        return real(allowed, k, deadline, what, blocks, modulus)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectile.tilings, "_cliques", recording)
        return call(), searched


def _shift(report):
    """Whether some residue r > 0 of the report's cliques lifts to
    r + M <= n_max."""
    return any(0 < r <= report.n_max - report.modulus
               for clique in report.cliques for r in clique)


def test_utc_verify_decides_on_cliques_in_small_memory(monkeypatch):
    # Z_9 within {0..44} is 5^8 = 390,625 spectra but one clique mod 9,
    # and the verdict reads that clique at period 9: nothing is lifted
    def unreached(*args):
        raise AssertionError("utc_verify lifted the family")

    monkeypatch.setattr(spectile.utc, "_lifted", unreached)
    tracemalloc.start()
    try:
        report = utc_verify(9, range(9), 44, 81)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == VERIFIED
    assert report.certificate == PeriodicSet((0,), 9)
    assert (report.modulus, report.cliques) == (9, (tuple(range(9)),))
    assert peak < 2 ** 20, peak


@settings(max_examples=100, deadline=None)
@given(bases_and_bounds())
@example(([0, F(1, 4)], 2, 13))  # M = 8: (0, 4) lifts to (0, 12)
@example(([0, 1, 2, 3], 4, 12))  # M = 4: 3^3 lifts of one clique
def test_spectra_found_is_the_enumerated_family(case):
    gamma, p, n_max = case
    report = utc_verify(p, gamma, n_max, 2 * p)
    family = report.spectra_found
    assert family == tuple(enumerate_spectra(gamma, p, n_max))
    assert report.spectra_found is family
    assert report.spectra_count == len(family)


def test_report_family_is_freed_without_the_collector():
    # the lifted family hangs off the report alone, so it dies with the
    # report even while the cyclic collector is off
    gc.disable()
    try:
        report = utc_verify(9, range(9), 36, 81)
        member = weakref.ref(report.spectra_found[0])
        del report
        assert member() is None
    finally:
        gc.enable()


def test_utc_verify_skips_a_period_for_a_lift():
    # 1 + e^(pi i d/4) vanishes iff d = 4 mod 8, so M = 8 and the one
    # clique (0, 4) lifts to (0, 4) and (0, 12).  Periods 2 and 4 are
    # skipped for the clique itself; 6 only for the lift, as 12 = 0 mod 6
    short, searched = _searches(lambda: utc_verify(2, [0, F(1, 4)], 4, 8))
    assert [m for m, _ in searched] == [6, 8]
    assert short.certificate == PeriodicSet.of([0, 1, 2, 3], 8)
    lifted, searched = _searches(lambda: utc_verify(2, [0, F(1, 4)], 13, 8))
    assert [tuple(a) for a in lifted.spectra_found] == [(0, 4), (0, 12)]
    assert [m for m, _ in searched] == [8]
    assert lifted.certificate == short.certificate
    # below period 8 both end inconclusive, one after a failed search at
    # 6 and one with every period skipped
    for n_max, periods in [(4, [6]), (13, [])]:
        report, searched = _searches(
            lambda: utc_verify(2, [0, F(1, 4)], n_max, 7))
        assert report.verdict == INCONCLUSIVE and report.spectra_found
        assert [m for m, _ in searched] == periods


@st.composite
def _utc_instances(draw):
    """(p, gamma, n_max, m_max), m_max from p to 8p."""
    gamma, p, n_max = draw(bases_and_bounds())
    return p, gamma, n_max, draw(st.integers(p, 8 * p))


@settings(max_examples=150, deadline=None)
@given(_utc_instances())
@example((2, [0, F(1, 4)], 13, 8))  # period 6 skipped for a lift
@example((2, [0, F(1, 4)], 13, 7))  # every period skipped
@example((2, [0, F(1, 4)], 4, 7))  # searched, inconclusive
@example((4, [0, F(1, 2), 2, F(5, 2)], 20, 32))  # period 4 skipped
def test_utc_verify_matches_the_member_search(case):
    # the member path of find_common_complement is the oracle: the same
    # certificate, from the same searches, on the reported family
    p, gamma, n_max, m_max = case
    report, searched = _searches(lambda: utc_verify(p, gamma, n_max, m_max))
    if not report.spectra_found:
        assert report.verdict == NO_SPECTRA and searched == []
        return
    certificate, oracle = _searches(
        lambda: find_common_complement(report.spectra_found, m_max))
    assert (report.verdict, report.certificate) == \
        (VERIFIED if certificate else INCONCLUSIVE, certificate)
    # under shift the periods that do not divide M are skipped unsearched
    assert searched == [(m, tables) for m, tables in oracle
                        if not (_shift(report) and report.modulus % m)]


@st.composite
def _shift_bases(draw):
    """(p, gamma, n_max, m_max): a base with p <= 4 and spectra, M <= 24,
    n_max within 3 of r + M, r the least nonzero residue of its cliques
    (its spectra within {0..M - 1}), so that shift holds on one side and
    not on the other, and m_max from p to 16."""
    gamma, p = draw(bases().filter(lambda base: base[1] <= 4))
    modulus = p * math.lcm(*(g.denominator for g in gamma))
    assume(modulus <= 24)
    residues = [x for a in enumerate_spectra(gamma, p, modulus - 1)
                for x in a if x]
    assume(residues)
    n_max = min(residues) + modulus + draw(st.integers(-3, 3))
    return p, gamma, n_max, draw(st.integers(p, 16))


@settings(max_examples=60, deadline=None)
@given(_shift_bases())
@example((2, [0, 1], 3, 8))  # shift: (0, 1) and (0, 3), M = 2
@example((2, [0, F(1, 4)], 13, 16))  # shift: (0, 4) and (0, 12), M = 8
@example((2, [0, F(1, 4)], 11, 16))  # no shift: (0, 4) alone
@example((2, [0, 1], 0, 2))  # no spectra
def test_utc_verify_matches_brute_force(case):
    # the brute-force oracle tries every complement at every period on the
    # family; utc_verify, which skips periods that do not divide M under
    # shift and re-checks on the cliques, gives its verdict and certificate
    p, gamma, n_max, m_max = case
    report = utc_verify(p, gamma, n_max, m_max)
    family = enumerate_spectra(gamma, p, n_max)
    assert report.spectra_found == tuple(family)
    if not family:
        assert report.verdict == NO_SPECTRA
        return
    brute = brute_common_complement(family, m_max)
    assert (report.verdict, report.certificate) == \
        (VERIFIED if brute else INCONCLUSIVE, brute)


@settings(max_examples=60, deadline=None)
@given(_shift_bases())
@example((2, [0, 1], 3, 8))  # {0, 2} mod 4, {0, 2, 4} mod 6, ... off M = 2
def test_common_complements_off_M_have_period_gcd(case):
    # the shift lemma: under shift, every common complement R + mZ of the
    # family at a period m that does not divide M is invariant under
    # h = gcd(M, m), so it has period h
    p, gamma, n_max, m_max = case
    report = utc_verify(p, gamma, n_max, m_max)
    if not _shift(report):
        return
    family = report.spectra_found
    for m in range(p, m_max + 1, p):
        h = math.gcd(report.modulus, m)
        if h == m:
            continue
        for residues in brute_common_complements(family, m):
            assert {(r + h) % m for r in residues} == set(residues), \
                (m, residues)


def test_periods_off_M_are_skipped_under_shift(monkeypatch):
    # the p = 6 base within {0..250} is the clique of the multiples of 6
    # mod 36, each residue r > 0 lifted 7 times, so shift holds: the loop
    # is offered only the periods that divide 36, skips 6, 12 and 18, at
    # which the clique is not distinct, and searches at 36
    offered = []
    real = spectile.utc._first_common_cover

    def cover(sets, periods, deadline=None):
        offered.extend(periods)
        return real(sets, periods, deadline)

    monkeypatch.setattr(spectile.utc, "_first_common_cover", cover)
    report, searched = _searches(lambda: utc_verify(6, P6_GAMMA, 250, 72))
    assert report.verdict == VERIFIED
    assert report.certificate == PeriodicSet((0, 1, 2, 3, 4, 5), 36)
    assert offered == [6, 12, 18, 36]
    assert [m for m, _ in searched] == [36]


def test_spectra_count_needs_no_lift(monkeypatch):
    # the p = 6 base's one clique mod 36 lifts four of its residues 2,778
    # times within {0..10**5} and 30 only 2,777 times: the report counts
    # those spectra without lifting one, and decides at period 36
    def unreached(*args):
        raise AssertionError("the count lifted the family")

    monkeypatch.setattr(spectile.utc, "_lifted", unreached)
    report = utc_verify(6, P6_GAMMA, 10**5, 72, time_budget=60)
    assert report.verdict == VERIFIED
    assert report.certificate == PeriodicSet((0, 1, 2, 3, 4, 5), 36)
    assert report.spectra_count == 2778 ** 4 * 2777 == 165388323678893712


def test_roundtrip_worked_example():
    report = roundtrip(2, [0, 1], [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)], 4)
    assert report.omega == OMEGA_2
    assert report.spectral_ok
    assert (report.projected_complement.residues,
            report.projected_complement.period) == ((0,), 2)
    assert report.omega_tiling is not None
    assert report.consistency
    assert verify_omega_tiling(report.omega, report.projected_complement, 2)
    assert report.omega_tiling.checked_domain == (F(0), F(1))
    _assert_derived(report)


def test_reports_store_only_what_was_checked():
    # consistency, projected_complement and checked_domain are derived:
    # neither constructor takes them, so none can claim an unchecked tiling
    report = roundtrip(2, [0, 1], [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)], 4)
    tiling = report.omega_tiling
    assert RoundTripReport._fields == ("p", "gamma", "family", "breakpoints",
                                       "omega", "spectral_ok", "omega_tiling")
    assert OmegaTilingCertificate._fields == ("omega", "p", "complement")
    stored = [getattr(report, name) for name in report._fields]
    with pytest.raises(TypeError, match="takes 7 arguments, not 9"):
        RoundTripReport(*stored[:6], report.projected_complement, tiling,
                        report.consistency)
    with pytest.raises(TypeError, match="takes 3 arguments, not 4"):
        OmegaTilingCertificate(tiling.omega, tiling.p, tiling.complement,
                               tiling.checked_domain)
    assert RoundTripReport(*stored) == report
    # no stored tiling, no consistency, whatever spectral_ok says
    untiled = RoundTripReport(*stored[:6], None)
    assert untiled.spectral_ok and not untiled.consistency
    assert untiled.projected_complement is None
    for name in ("consistency", "projected_complement"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)
    with pytest.raises(AttributeError):
        tiling.checked_domain = (F(0), F(1))


def test_roundtrip_trivial_instance():
    report = roundtrip(1, [0], [[0]], [0, 1], 2)
    assert report.consistency
    assert measure(report.omega) == 1


def test_roundtrip_rejects_non_spectrum_member():
    with pytest.raises(InvalidFamilyError) as err:
        roundtrip(2, [0, 1], [[0, 1], [0, 2]], [0, F(1, 4), F(1, 2)], 4)
    assert "(0, 2)" in str(err.value)


def test_roundtrip_inconclusive_when_bound_too_small():
    report = roundtrip(2, [0, 1], [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)], 1)
    assert report.spectral_ok
    assert report.projected_complement is None
    assert report.omega_tiling is None
    assert not report.consistency
    _assert_derived(report)


def test_roundtrip_consistency_on_verified_subfamilies():
    # whenever the bounded common-complement search verifies a base, the
    # round trip must be consistent on any subfamily and any breakpoints
    rng = random.Random(59)
    for p, gamma, n_max, m_max in [(2, [0, 1], 7, 8),
                                   (3, [0, 1, 2], 5, 9)]:
        report = utc_verify(p, gamma, n_max, m_max)
        assert report.verdict == VERIFIED
        pool = list(report.spectra_found)
        for _ in range(5):
            size = rng.randint(1, min(3, len(pool)))
            family = [pool[i] for i in sorted(rng.sample(range(len(pool)), size))]
            cuts = sorted(rng.sample(range(1, 12), size - 1))
            rs = [F(0)] + [F(s, 12 * p) for s in cuts] + [F(1, p)]
            trip = roundtrip(p, gamma, family, rs, m_max)
            assert trip.consistency, (p, family, rs)


def test_roundtrip_family_must_match_enumeration():
    found = enumerate_spectra([0, 1], 2, 9)
    assert IntSet.of([0, 7]) in found
    trip = roundtrip(2, [0, 1], [[0, 7]], [0, F(1, 2)], 4)
    assert trip.consistency


def test_roundtrip_makes_one_fiber_pass(monkeypatch):
    calls = []
    real = spectile.intervals.fibers

    def counting(omega, p):
        calls.append(p)
        return real(omega, p)

    monkeypatch.setattr(spectile.intervals, "fibers", counting)
    monkeypatch.setattr(spectile.utc, "fibers", counting)
    report = roundtrip(2, [0, 1], [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)], 8)
    assert report.consistency and report.omega_tiling is not None
    assert calls == [2]


def _counting(monkeypatch, calls, name, *modules):
    real = getattr(modules[0], name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)


def test_roundtrip_checks_each_distinct_member_once(monkeypatch):
    # (0, 1) repeats adjacently and again after (0, 3): three fiber cells,
    # two distinct members, one order cache for both, and one tiling check
    # per distinct fiber
    calls = dict.fromkeys(["spectrum predicate", "_vanishing_test",
                           "is_tiling_of_Z", "tiles_cyclic",
                           "verify_omega_tiling"], 0)
    real_test = spectile.spectra._spectrum_test

    def counted_test(*args):
        predicate = real_test(*args)

        def counted(a):
            calls["spectrum predicate"] += 1
            return predicate(a)
        return counted

    for module in (spectile.spectra, spectile.utc, spectile.intervals):
        monkeypatch.setattr(module, "_spectrum_test", counted_test)
    _counting(monkeypatch, calls, "_vanishing_test", spectile.spectra)
    _counting(monkeypatch, calls, "is_tiling_of_Z",
              spectile.utc, spectile.tilings)
    _counting(monkeypatch, calls, "tiles_cyclic", spectile.intervals)
    _counting(monkeypatch, calls, "verify_omega_tiling", spectile.intervals)
    family = [[0, 1], [0, 1], [0, 3], [0, 1]]
    rs = [0, F(1, 8), F(1, 4), F(3, 8), F(1, 2)]
    report = roundtrip(2, [0, 1], family, rs, 8)
    assert report.spectral_ok and report.consistency
    assert calls == {"spectrum predicate": 2, "_vanishing_test": 1,
                     "is_tiling_of_Z": 0, "tiles_cyclic": 2,
                     "verify_omega_tiling": 1}

    # a repeated invalid member is reported at its first index
    with pytest.raises(InvalidFamilyError) as err:
        roundtrip(2, [0, 1], [[0, 1], [0, 2], [0, 3], [0, 2]],
                  [0, F(1, 8), F(1, 4), F(3, 8), F(1, 2)], 8)
    assert "member 1 = (0, 2)" in str(err.value)


_BASES = [(2, (0, 1), 7), (3, (0, 1, 2), 5), (4, (0, F(1, 2), 2, F(5, 2)), 12)]
_POOLS = [enumerate_spectra(gamma, p, n_max) for p, gamma, n_max in _BASES]


@st.composite
def _roundtrip_instances(draw):
    i = draw(st.integers(0, len(_BASES) - 1))
    p, gamma, _ = _BASES[i]
    family = draw(st.lists(st.sampled_from(_POOLS[i]), min_size=1,
                           max_size=5))
    cuts = sorted(draw(st.sets(st.integers(1, 23), min_size=len(family) - 1,
                               max_size=len(family) - 1)))
    rs = [F(0)] + [F(c, 24 * p) for c in cuts] + [F(1, p)]
    return p, gamma, family, rs, draw(st.integers(1, 16))


def _composed_roundtrip(p, gamma, family, rs, m_max):
    """The round trip as its stages compose, each deciding for itself."""
    for a in family:
        assert is_spectrum(gamma, [F(k, p) for k in a])
    omega = build_omega(p, family, rs)
    spectral_ok = spectral_verdict(omega, gamma, p)
    complement = find_common_complement(fibers(omega, p).fiber_family(), m_max)
    if complement is None:
        return spectral_ok, None, None, False
    tiling = assemble_tiling(omega, p, complement.residues, complement.period)
    consistency = spectral_ok and all(is_tiling_of_Z(a, complement)
                                      for a in family)
    return spectral_ok, complement, tiling, consistency


@settings(max_examples=150, deadline=None)
@given(_roundtrip_instances())
def test_roundtrip_matches_composed_stages(instance):
    report = roundtrip(*instance)
    assert (report.spectral_ok, report.projected_complement,
            report.omega_tiling, report.consistency) == \
        _composed_roundtrip(*instance)
    _assert_derived(report)
