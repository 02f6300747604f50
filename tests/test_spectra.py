"""Spectral-pair verdicts and bounded spectrum enumeration."""

import random
import time
from fractions import Fraction as F

import pytest

from spectile import (FinitePointSet, IntSet, ResourceLimitError,
                      SearchTimeout, admissible_differences, as_fraction,
                      brute_force_spectra, enumerate_spectra,
                      exponential_sum_vanishes, is_spectrum)


def test_as_fraction_rejects_floats():
    assert as_fraction("3/4") == F(3, 4)
    assert as_fraction(2) == 2
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_point_set_sorting_and_dedup():
    ps = FinitePointSet.of(["1/2", 0, F(1, 2), 3])
    assert ps.points == (F(0), F(1, 2), F(3))
    assert F(1, 2) in ps
    assert len(ps) == 3
    with pytest.raises(ValueError):
        FinitePointSet((F(1), F(1)))


def test_point_set_transforms():
    ps = FinitePointSet.of([1, 3])
    assert ps.canonicalize().points == (F(0), F(2))
    assert ps.translate(-1).points == (F(0), F(2))
    assert ps.scale(F(1, 2)).points == (F(1, 2), F(3, 2))
    with pytest.raises(ValueError):
        ps.scale(0)


def test_int_set_basics():
    a = IntSet.of([3, 0, 3, 1])
    assert a.elements == (0, 1, 3)
    assert a.canonicalize() == a
    assert IntSet.of([5, 7]).canonicalize().elements == (0, 2)
    with pytest.raises(ValueError):
        IntSet((2, 2))


def test_exponential_sum_vanishes_known_cases():
    assert exponential_sum_vanishes([F(0), F(1, 2)], F(1))
    assert not exponential_sum_vanishes([F(0), F(1, 2)], F(2))
    assert exponential_sum_vanishes([], F(5))
    assert not exponential_sum_vanishes([F(0)], F(0))


def test_is_spectrum_examples():
    assert is_spectrum([0, F(1, 2)], [0, 1])
    assert not is_spectrum([0, F(1, 2)], [0, 2])
    assert is_spectrum([0, 1, 2, 3], [0, F(1, 4), F(1, 2), F(3, 4)])
    assert not is_spectrum([0, 1], [0, 1, 2])
    assert is_spectrum([], [])


def test_is_spectrum_symmetry_and_invariance():
    rng = random.Random(11)
    for _ in range(40):
        size = rng.randint(1, 3)
        g = FinitePointSet.of(
            {F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(size)})
        b = FinitePointSet.of(
            {F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(size)})
        verdict = is_spectrum(g, b)
        assert verdict == is_spectrum(b, g)
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        assert verdict == is_spectrum(g.translate(c), b)
        assert verdict == is_spectrum(g, b.translate(c))
        scale = F(rng.randint(1, 5), rng.randint(1, 5))
        assert verdict == is_spectrum(g.scale(scale), b.scale(1 / scale))


def test_admissible_differences_examples():
    assert admissible_differences([0, 1], 2, 5) == (-5, -3, -1, 1, 3, 5)
    assert admissible_differences([0, 1, 2, 3], 4, 5) == \
        (-5, -3, -2, -1, 1, 2, 3, 5)
    assert admissible_differences([0, F(1, 2), 1, F(3, 2)], 4, 8) == \
        (-6, -4, -2, 2, 4, 6)


def test_admissible_differences_symmetry():
    ds = admissible_differences([0, F(1, 3)], 2, 12)
    assert ds == tuple(sorted(-d for d in ds))
    assert all(d != 0 for d in ds)


def test_admissible_differences_errors():
    with pytest.raises(ValueError):
        admissible_differences([0, 1], 3, 5)
    with pytest.raises(ValueError):
        admissible_differences([0, 1], 2, 0)
    with pytest.raises(ValueError):
        admissible_differences([], 0, 5)


def test_enumerate_spectra_examples():
    out = enumerate_spectra([0, 1], 2, 5)
    assert [tuple(a) for a in out] == [(0, 1), (0, 3), (0, 5)]
    out4 = enumerate_spectra([0, 1, 2, 3], 4, 7)
    assert [tuple(a) for a in out4] == [
        (0, 1, 2, 3), (0, 1, 2, 7), (0, 1, 3, 6), (0, 1, 6, 7),
        (0, 2, 3, 5), (0, 2, 5, 7), (0, 3, 5, 6), (0, 5, 6, 7)]
    assert enumerate_spectra([0, 1], 2, 0) == []
    assert [tuple(a) for a in enumerate_spectra([0], 1, 3)] == [(0,)]


def test_enumerate_spectra_sorted_lexicographically():
    out = enumerate_spectra([0, 1, 2, 3], 4, 9)
    assert out == sorted(out)


def test_enumerate_matches_brute_force():
    cases = [([0, 1], 2, 9),
             ([0, F(1, 3)], 2, 12),
             ([0, 1, 2], 3, 8),
             ([0, F(1, 2), 1, F(3, 2)], 4, 10)]
    for gamma, p, n_max in cases:
        assert enumerate_spectra(gamma, p, n_max) == \
            brute_force_spectra(gamma, p, n_max)


def test_enumerate_spectra_deadline():
    with pytest.raises(SearchTimeout):
        enumerate_spectra(range(9), 9, 36, deadline=time.monotonic() - 1)
    # a deadline that does not pass leaves the output unchanged, across
    # more than one poll interval of search nodes
    gamma = [0, F(1, 2), 2, F(5, 2)]
    assert enumerate_spectra(gamma, 4, 80, deadline=time.monotonic() + 3600) \
        == enumerate_spectra(gamma, 4, 80)


def test_brute_force_pigeonhole_and_guard():
    assert brute_force_spectra([0, 1, 2], 3, 1) == []
    with pytest.raises(ResourceLimitError):
        brute_force_spectra([0, 1, 2, 3], 4, 2000)


def test_spectrum_size_must_match_p():
    with pytest.raises(ValueError):
        enumerate_spectra([0, 1, 2], 2, 5)
    with pytest.raises(ValueError):
        brute_force_spectra([0, 1], 3, 5)
