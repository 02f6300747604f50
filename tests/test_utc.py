"""End-to-end common-complement instances and the spectral-to-tiling
round trip."""

import random
from fractions import Fraction as F

import pytest

import spectile.intervals
import spectile.utc
from spectile import (INCONCLUSIVE, NO_SPECTRA, VERIFIED, IntSet,
                      InvalidFamilyError, enumerate_spectra, is_tiling_of_Z,
                      measure, roundtrip, utc_verify, verify_omega_tiling)
from corpus import OMEGA_2


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


def test_roundtrip_worked_example():
    report = roundtrip(2, [0, 1], [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)], 4)
    assert report.omega == OMEGA_2
    assert report.spectral_ok
    assert (report.projected_complement.residues,
            report.projected_complement.period) == ((0,), 2)
    assert report.omega_tiling is not None
    assert report.consistency
    assert verify_omega_tiling(report.omega, report.projected_complement, 2)


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
