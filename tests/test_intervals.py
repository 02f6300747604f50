"""Interval unions: construction, fibers, exact tiling checks, and the
floating-point Gram cross-checks."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import NEGATIVE_CORPUS, OMEGA_2, SPECTRAL_CORPUS, UNIT, iu
from oracles import covers_once, is_p_tile
import spectile
from spectile import (CommonComplementError, FiberCell,
                      FiberDecomposition, IntervalUnion, IntSet, PeriodicSet,
                      assemble_tiling, build_omega,
                      enumerate_spectra, fibers, gram_entry,
                      gram_matrix, measure,
                      period_identity_residual, spectral_verdict,
                      tiles_cyclic, verify_omega_tiling)


def test_canonicalization_merges_adjacent_and_rejects_overlap():
    assert iu((0, F(1, 2)), (F(1, 2), 1)) == iu((0, 1))
    assert iu((1, 2), (0, F(1, 2))).intervals == \
        ((F(0), F(1, 2)), (F(1), F(2)))
    with pytest.raises(ValueError, match=r"\[1/2, 2\) and \[0, 1\)"):
        iu((0, 1), (F(1, 2), 2))
    # reversed and empty intervals are refused, also where a merge with
    # the interval before would hide them
    with pytest.raises(ValueError, match=r"reversed interval \[1, 1/2\)"):
        iu((0, 1), (1, F(1, 2)))
    with pytest.raises(ValueError):
        iu((1, 1), (1, 2))
    with pytest.raises(ValueError):
        iu((1, 1))
    with pytest.raises(TypeError):
        iu((0.0, 1.0))


def sort_merge_reference(pairs):
    """Reference for IntervalUnion.of on Fractions: sort, refuse a reversed
    interval before a merge could hide it, merge adjacent intervals, then
    refuse overlapping or adjacent ones among the merged."""
    merged = []
    for a, b in sorted((F(a), F(b)) for a, b in pairs):
        if not a < b:
            raise ValueError(f"empty or reversed interval [{a}, {b})")
        if merged and a == merged[-1][1]:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    for (a1, b1), (a2, b2) in zip(merged, merged[1:]):
        if not b1 < a2:
            raise ValueError(f"overlapping or adjacent intervals "
                             f"[{a2}, {b2}) and [{a1}, {b1})")
    return tuple(map(tuple, merged))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*2 * [st.builds(F, st.integers(-8, 8),
                                          st.integers(1, 6))]),
                max_size=6))
def test_of_matches_the_sort_merge_reference(pairs):
    def outcome(build):
        try:
            return build(pairs)
        except ValueError as err:
            return str(err)

    union = outcome(IntervalUnion.of)
    assert outcome(sort_merge_reference) == \
        (union if isinstance(union, str) else union.intervals)
    assert isinstance(union, str) or IntervalUnion(union.den, union.ends) == union


def test_equal_unions_have_equal_fields():
    halves = iu((F(1, 2), 1), (0, F(1, 2)))
    assert halves == UNIT and hash(halves) == hash(UNIT)
    assert (halves.den, halves.ends) == (1, ((0, 1),))
    # the translate's endpoints are halves; its union is on the grid Z
    moved = IntervalUnion.of((a - F(1, 2), b - F(1, 2))
                             for a, b in iu((F(1, 2), F(3, 2))).intervals)
    assert moved == UNIT and hash(moved) == hash(UNIT)
    assert OMEGA_2 == IntervalUnion(4, ((0, 3), (7, 8)))
    assert len({UNIT, halves, moved, OMEGA_2}) == 2


def test_direct_construction_takes_only_the_canonical_grid():
    assert IntervalUnion(4, ((0, 3), (7, 8))).intervals == \
        ((F(0), F(3, 4)), (F(7, 4), F(2)))
    assert IntervalUnion(1, ()).is_empty
    for den, ends in [(2, ((0, 2),)), (2, ((0, 4), (6, 8))), (2, ()),
                      (0, ()), (-1, ((0, 1),))]:
        with pytest.raises(ValueError, match="lowest terms"):
            IntervalUnion(den, ends)
    with pytest.raises(ValueError, match=r"reversed interval \[1, 1/2\)"):
        IntervalUnion(2, ((2, 1),))
    with pytest.raises(ValueError, match=r"reversed interval \[1, 1\)"):
        IntervalUnion(1, ((1, 1),))
    with pytest.raises(ValueError, match=r"\[1/2, 2\) and \[0, 1\)"):
        IntervalUnion(2, ((0, 2), (1, 4)))
    with pytest.raises(ValueError, match=r"adjacent intervals \[1, 2\)"):
        IntervalUnion(1, ((0, 1), (1, 2)))
    with pytest.raises(TypeError):
        IntervalUnion(1, ((0.0, 1.0),))


def test_membership_and_transforms():
    om = iu((0, F(3, 4)), (F(7, 4), 2))
    assert F(1, 2) in om and F(7, 4) in om
    assert F(3, 4) not in om and 2 not in om

    def translate(c):
        return IntervalUnion.of((a + c, b + c) for a, b in om.intervals)

    assert translate(F(1, 4)).intervals == ((F(1, 4), F(1)), (F(2), F(9, 4)))
    assert translate(F(-7, 4)) == iu((F(-7, 4), -1), (0, F(1, 4)))
    with pytest.raises(TypeError):
        translate(0.25)


def test_measure_examples():
    assert measure(iu((0, 1))) == 1
    assert measure(OMEGA_2) == 1
    assert measure(IntervalUnion(1, ())) == 0
    assert measure(iu((F(-1, 3), F(1, 2)))) == F(5, 6)


def test_build_omega_examples():
    assert OMEGA_2 == iu((0, F(3, 4)), (F(7, 4), 2))
    assert build_omega(1, [[0]], [0, 1]) == UNIT
    assert build_omega(2, [[0, 1]], [0, F(1, 2)]) == UNIT
    assert measure(OMEGA_2) == 1


def test_build_omega_contract_violations():
    with pytest.raises(ValueError):
        build_omega(2, [[0, 1]], [0, F(1, 4), F(1, 2)])
    with pytest.raises(ValueError):
        build_omega(2, [[0, 1]], [F(1, 8), F(1, 2)])
    with pytest.raises(ValueError):
        build_omega(2, [[0, 1]], [0, F(1, 3)])
    with pytest.raises(ValueError):
        build_omega(2, [[0, 1], [0, 3]], [0, F(1, 2), F(1, 4)])
    with pytest.raises(ValueError):
        build_omega(2, [[0, 1, 2]], [0, F(1, 2)])
    with pytest.raises(ValueError):
        build_omega(2, [], [0])


def test_fibers_examples():
    dec = fibers(OMEGA_2, 2)
    assert [(c.lo, c.hi, tuple(c.fiber)) for c in dec.cells] == [
        (F(0), F(1, 4), (0, 1)), (F(1, 4), F(1, 2), (0, 3))]
    one = fibers(UNIT, 1)
    assert [(c.lo, c.hi, tuple(c.fiber)) for c in one.cells] == [
        (F(0), F(1), (0,))]
    two = fibers(UNIT, 2)
    assert [(c.lo, c.hi, tuple(c.fiber)) for c in two.cells] == [
        (F(0), F(1, 2), (0, 1))]
    assert sum((c.hi - c.lo for c in dec.cells), F(0)) == F(1, 2)


def test_fibers_of_empty_union():
    dec = fibers(IntervalUnion(1, ()), 3)
    assert len(dec.cells) == 1
    assert dec.cells[0].fiber == IntSet.of([])


def test_fiber_round_trip_random():
    # fibers(build_omega(...)) must return exactly A_i over [r_i, r_{i+1})
    rng = random.Random(47)
    for _ in range(40):
        p = rng.randint(1, 4)
        n = rng.randint(1, 3)
        family = []
        for _ in range(n):
            lo = rng.randint(-6, 6)
            family.append(IntSet.of(rng.sample(range(lo, lo + 12), p)))
        cuts = sorted(rng.sample(range(1, 24), n - 1))
        rs = [F(0)] + [F(s, 24 * p) for s in cuts] + [F(1, p)]
        omega = build_omega(p, family, rs)
        assert measure(omega) == 1
        for cell in fibers(omega, p).cells:
            mid = (cell.lo + cell.hi) / 2
            owner = max(i for i in range(n) if rs[i] <= mid)
            assert cell.fiber == family[owner], (family, rs, cell)


def midpoint_fibers(omega, p):
    """Oracle for fibers: cut [0, 1/p) at every endpoint reduced mod 1/p
    and read each cell's fiber off at its midpoint, scanning every
    interval for every cell."""
    step = F(1, p)
    cuts = {F(0)}
    for a, b in omega.intervals:
        cuts.add(a % step)
        cuts.add(b % step)
    bounds = sorted(cuts) + [step]
    cells = []
    for lo, hi in zip(bounds, bounds[1:]):
        x = (lo + hi) / 2
        ks = []
        for a, b in omega.intervals:
            ks.extend(range(math.ceil((a - x) * p), math.ceil((b - x) * p)))
        cells.append(FiberCell(lo, hi, IntSet.of(ks)))
    return FiberDecomposition(p, tuple(cells))


@st.composite
def unions_with_p(draw):
    """A period p in 1..9 and a union whose endpoints lie on the grid
    (1/p)Z or off it, may be negative, and may be more than 1/p apart;
    fewer than two endpoints give the empty union."""
    p = draw(st.integers(1, 9))
    ends = draw(st.lists(
        st.builds(F, st.integers(-30, 30), st.sampled_from([1, p, 2 * p, 7])),
        max_size=12, unique=True))
    ends.sort()
    return IntervalUnion.of(zip(ends[::2], ends[1::2])), p


@settings(max_examples=300, deadline=None)
@given(unions_with_p())
def test_fibers_match_midpoint_oracle(case):
    omega, p = case
    assert fibers(omega, p) == midpoint_fibers(omega, p)


def test_fibers_of_a_96_member_family_are_its_members_in_order():
    gamma = [0, F(1, 2), 2, F(5, 2)]
    family = enumerate_spectra(gamma, 4, 40)[:96]
    assert len(family) == 96
    rs = [F(i, 4 * 96) for i in range(97)]
    dec = fibers(build_omega(4, family, rs), 4)
    assert [(c.lo, c.hi) for c in dec.cells] == list(zip(rs, rs[1:]))
    assert [c.fiber for c in dec.cells] == family


def test_is_p_tile_examples():
    assert is_p_tile(UNIT, 2)
    assert is_p_tile(iu((0, F(1, 2)), (F(3, 2), 2)), 2)
    assert not is_p_tile(iu((0, F(1, 2))), 2)
    assert not is_p_tile(iu((0, F(3, 2))), 2)
    assert not is_p_tile(iu(), 1)


@st.composite
def _unions_and_p(draw):
    """A union on (1/6)Z, rarely a p-tile, or one built from p-sets."""
    p = draw(st.integers(1, 4))
    if draw(st.booleans()):
        ends = sorted(draw(st.lists(st.integers(-24, 24), max_size=8,
                                    unique=True)))
        return iu(*((F(a, 6), F(b, 6))
                    for a, b in zip(ends[::2], ends[1::2]))), p
    n = draw(st.integers(1, 3))
    family = [draw(st.lists(st.integers(-6, 6), min_size=p, max_size=p,
                            unique=True)) for _ in range(n)]
    cuts = sorted(draw(st.sets(st.integers(1, 11), min_size=n - 1,
                               max_size=n - 1)))
    rs = [0, *(F(c, 12 * p) for c in cuts), F(1, p)]
    return build_omega(p, family, rs), p


@settings(max_examples=200, deadline=None)
@given(_unions_and_p())
def test_p_tile_oracle_matches_the_fiber_cells(case):
    # what replaces the removed intervals.is_p_tile: every fiber cell has
    # p elements, which the oracle decides without the fiber sweep
    omega, p = case
    cells = fibers(omega, p).cells
    assert is_p_tile(omega, p) == all(len(c.fiber) == p for c in cells)


def test_spectral_verdict_examples():
    assert spectral_verdict(UNIT, [0], 1)
    assert spectral_verdict(OMEGA_2, [0, 1], 2)
    assert not spectral_verdict(UNIT, [0, F(1, 2)], 2)


def test_spectral_verdict_corpus():
    for omega, gamma, p in SPECTRAL_CORPUS:
        assert spectral_verdict(omega, gamma, p), (omega, gamma, p)
    for omega, gamma, p in NEGATIVE_CORPUS:
        assert not spectral_verdict(omega, gamma, p), (omega, gamma, p)


def test_spectral_verdict_input_validation():
    with pytest.raises(ValueError):
        spectral_verdict(UNIT, [0, 1], 1)
    with pytest.raises(ValueError):
        spectral_verdict(UNIT, [1], 1)
    with pytest.raises(ValueError):
        spectral_verdict(UNIT, [0, 5], 2)
    with pytest.raises(TypeError):
        spectral_verdict(UNIT, [0.0, 1.0], 2)


def test_assemble_tiling_examples():
    cert = assemble_tiling(OMEGA_2, 2, [0], 2)
    assert cert.complement == PeriodicSet.of([0], 2)
    assert cert.checked_domain == (F(0), F(1))
    assemble_tiling(UNIT, 1, [0], 1)
    assemble_tiling(iu((0, F(1, 2)), (F(3, 2), 2)), 2, [0], 2)


def test_assemble_tiling_names_offending_cell():
    with pytest.raises(CommonComplementError) as err:
        assemble_tiling(UNIT, 2, [0, 1], 2)
    assert "[0, 1/2)" in str(err.value)
    assert "(0, 1)" in str(err.value)
    # a fiber too small for the period fails before any m-bit mask is made
    with pytest.raises(CommonComplementError, match="mod 1000000000000$"):
        assemble_tiling(UNIT, 1, [10**12 - 1], 10**12)


@st.composite
def cells_and_complements(draw):
    """(p, family, breakpoints, residues, m): a family of integer sets,
    some repeated across cells, the cuts 0 = r_0 < ... < r_n = 1/p of
    their cells, and a complement R mod m.  Half the draws take R = a *
    {0..b-1} mod m = ab and offer members that lift a translate of
    {0..a-1}, so that some fibers tile, and the family may open with
    such a member; the others take any R, and any member may repeat a
    residue mod m or miss |A||R| = m."""
    p = draw(st.integers(1, 3))
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    m = a * b
    if draw(st.booleans()):
        residues = list(range(0, m, a))
    else:
        residues = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    tiles = st.builds(
        lambda t, lifts: sorted(x + t + m * k for x, k in enumerate(lifts)),
        st.integers(-3, 6), st.lists(st.integers(-1, 2), min_size=a,
                                     max_size=a))
    anything = st.lists(st.integers(-4, 12), max_size=4, unique=True)
    pool = draw(st.lists(tiles, min_size=1, max_size=2)) + draw(
        st.lists(anything.map(sorted), max_size=2))
    family = [pool[0]] * draw(st.integers(0, 2)) + draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    grid = 12 * len(family)
    inner = sorted(draw(st.sets(st.integers(1, grid - 1),
                                min_size=len(family) - 1,
                                max_size=len(family) - 1)))
    breakpoints = [F(c, p * grid) for c in [0, *inner, grid]]
    return p, family, breakpoints, residues, m


@settings(max_examples=300, deadline=None)
@given(cells_and_complements())
# three translates of {0} mod 2 carry into 2^2 - 1: only |A||R| = m refuses
@example((1, [[0, 2, 4]], [F(0), F(1)], [0], 2))
def test_assemble_tiling_fails_iff_a_fiber_fails_the_cover_count(instance):
    # the cells of the construction are the runs of equal members; the
    # re-check must refuse the complement iff some run's member fails the
    # brute-force cover count, naming the first such run as a cell
    p, family, breakpoints, residues, m = instance
    omega = IntervalUnion.of(
        (lo + F(k, p), hi + F(k, p))
        for lo, hi, a in zip(breakpoints, breakpoints[1:], family)
        for k in a)
    runs = []  # [lo, hi, fiber]
    for lo, hi, a in zip(breakpoints, breakpoints[1:], family):
        if runs and runs[-1][2] == a:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, a])
    failing = [run for run in runs if not covers_once(run[2], residues, m)]
    if not failing:
        cert = assemble_tiling(omega, p, residues, m)
        assert cert.complement == PeriodicSet(tuple(residues), m)
        return
    lo, hi, a = failing[0]
    with pytest.raises(CommonComplementError) as err:
        assemble_tiling(omega, p, residues, m)
    assert str(err.value) == (
        f"fiber {tuple(a)} on cell [{lo}, {hi}) does not tile Z by "
        f"residues {tuple(residues)} mod {m}")


def test_verify_omega_tiling_examples():
    assert verify_omega_tiling(UNIT, PeriodicSet.of([0], 1))
    assert not verify_omega_tiling(UNIT, PeriodicSet.of([0], 2))
    assert verify_omega_tiling(OMEGA_2, PeriodicSet.of([0], 1))


def test_verify_omega_tiling_scaled_and_negative():
    # omega + (1/2)(Z) with omega of measure 1/2
    half = iu((0, F(1, 2)))
    assert verify_omega_tiling(half, PeriodicSet.of([0], 1), 2)
    assert not verify_omega_tiling(half, PeriodicSet.of([0], 1), 1)
    # translate overlap: [0,1) + {0, 3/2} + 2Z double-covers [0,1/2)
    assert not verify_omega_tiling(UNIT, PeriodicSet.of([0, 3], 4), 2)
    # wrap-around across the fundamental domain boundary
    assert verify_omega_tiling(iu((F(1, 2), F(3, 2))), PeriodicSet.of([0], 1))
    assert not verify_omega_tiling(IntervalUnion(1, ()), PeriodicSet.of([0], 1))


def wrap_and_split_tiling(omega, complement, p=1):
    """Oracle for verify_omega_tiling: reduce each translate omega + r/p
    mod L = m/p, split the ones that wrap past L, and confirm that the
    sorted pieces chain across [0, L) with no gap and no overlap."""
    length = F(complement.period, p)
    if measure(omega) * len(complement.residues) != length:
        return False
    pieces = []
    for a, b in omega.intervals:
        for r in complement.residues:
            start = (a + F(r, p)) % length
            size = b - a
            if start + size <= length:
                pieces.append((start, start + size))
            else:
                pieces.append((start, length))
                pieces.append((F(0), start + size - length))
    pieces.sort()
    if not pieces or pieces[0][0] != 0:
        return False
    for (_, b1), (a2, _) in zip(pieces, pieces[1:]):
        if b1 != a2:
            return False
    return pieces[-1][1] == length


@st.composite
def omega_tiling_cases(draw):
    """(omega, R + mZ, p), half of them built to tile: over cells cut from
    [0, 1/p), fibers that are complete residue systems mod c, with the
    complement cZ + s mod m, the whole union translated by a rational;
    optionally spoiled by moving one fiber element.  The other half pair
    a union from unions_with_p with any residue set, the empty one
    included, mod any m from 1 to 12."""
    if draw(st.booleans()):
        omega, p = draw(unions_with_p())
        m = draw(st.integers(1, 12))
        return omega, PeriodicSet.of(draw(st.sets(st.integers(0, m - 1))),
                                     m), p
    p, c = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    m = c * draw(st.integers(1, 4))
    cuts = draw(st.sets(st.integers(1, 23), max_size=3))
    bounds = [F(0)] + [F(k, 24 * p) for k in sorted(cuts)] + [F(1, p)]
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        ks = {j + c * draw(st.integers(-3, 3)) for j in range(c)}
        if draw(st.booleans()):
            ks = ks - {max(ks)} | {max(ks) + 1}
        pieces.extend((lo + F(k, p), hi + F(k, p)) for k in ks)
    shift = draw(st.builds(F, st.integers(-30, 30),
                           st.sampled_from([1, p, 2 * p, 7])))
    s = draw(st.integers(0, m - 1))
    complement = PeriodicSet.of((c * i + s for i in range(m // c)), m)
    return (IntervalUnion.of((a + shift, b + shift) for a, b in pieces),
            complement, p)


@settings(max_examples=300, deadline=None)
@given(omega_tiling_cases())
def test_verify_omega_tiling_matches_oracle_and_fibers(case):
    omega, complement, p = case
    by_fibers = all(tiles_cyclic(cell.fiber, complement.residues,
                                 complement.period)
                    for cell in fibers(omega, p).cells)
    assert verify_omega_tiling(omega, complement, p) == \
        wrap_and_split_tiling(omega, complement, p) == by_fibers


def test_gram_entry_examples():
    assert abs(gram_entry(UNIT, 0, 1)) < 1e-12
    assert abs(gram_entry(OMEGA_2, 0, 1)) < 1e-12
    assert gram_entry(OMEGA_2, F(1, 3), F(1, 3)) == 1
    assert gram_entry(UNIT, 0.25, 0.25) == 1
    with pytest.raises(ValueError):
        gram_entry(IntervalUnion(1, ()), 0, 1)


def test_gram_entry_against_quadrature():
    xs = np.linspace(0.0, 0.75, 40001)
    ys = np.linspace(1.75, 2.0, 20001)
    for lam, lam_prime in [(0, 1), (F(1, 2), 2), (3, F(1, 4))]:
        mu = float(lam) - float(lam_prime)
        direct = (np.trapezoid(np.exp(2j * np.pi * mu * xs), xs)
                  + np.trapezoid(np.exp(2j * np.pi * mu * ys), ys))
        assert abs(gram_entry(OMEGA_2, lam, lam_prime) - direct) < 1e-6


def test_gram_matrix_conjugate_symmetry():
    lambdas = [0, F(1, 2), 1, F(5, 2)]
    entries = gram_matrix(OMEGA_2, lambdas)
    for i in range(len(lambdas)):
        assert entries[i][i] == 1
        for j in range(len(lambdas)):
            assert abs(entries[i][j] - entries[j][i].conjugate()) < 1e-12


def test_period_identity_examples():
    assert period_identity_residual(UNIT, 1, 0.3, 0.9) < 1e-10
    assert period_identity_residual(OMEGA_2, 4, 0, 1) < 1e-10
    assert period_identity_residual(UNIT, 1, 0, 0) < 1e-10


def test_gram_functions_take_a_float_with_an_exact_string():
    # each frequency converts on its own: "1/2" is exact beside a float
    assert gram_entry(OMEGA_2, 0.5, "1/2") == gram_entry(OMEGA_2, F(1, 2),
                                                         F(1, 2)) == 1
    assert gram_entry(OMEGA_2, "3/4", 0.25) == gram_entry(OMEGA_2, F(3, 4),
                                                          F(1, 4))
    assert period_identity_residual(UNIT, 1, 0.5, "1/4") == \
        period_identity_residual(UNIT, 1, F(1, 2), F(1, 4))
    with pytest.raises(ValueError, match="must differ"):
        period_identity_residual(UNIT, 1, 0.5, "3/2")
    with pytest.raises(ValueError, match="must differ"):
        period_identity_residual(UNIT, 1, F(1, 2), F(3, 2))


def test_a_phase_past_the_float_range_is_named():
    # mu and every endpoint are finite floats; only 2 pi mu b is not
    big = 10**200
    omega = iu((0, big))
    for call in (lambda: gram_entry(omega, big, 0),
                 lambda: period_identity_residual(omega, 1, big, 0)):
        with pytest.raises(ValueError) as err:
            call()
        message = str(err.value)
        assert message.startswith(f"phase at endpoint {big} with ")
        assert "lam - lam_prime = " in message
        assert message.endswith("is outside the float range")


def test_period_identity_preconditions():
    with pytest.raises(ValueError, match="endpoint 1/3 is not a multiple"):
        period_identity_residual(iu((0, F(1, 3))), 2, 0, 1)
    with pytest.raises(ValueError):
        period_identity_residual(UNIT, 1, 0, 1)
    with pytest.raises(ValueError):
        period_identity_residual(UNIT, 0, 0, 1)


def test_fiber_family_deduplicates_in_order():
    omega = build_omega(2, [[0, 1], [0, 3], [0, 1]],
                        [0, F(1, 6), F(1, 3), F(1, 2)])
    fam = fibers(omega, 2).fiber_family()
    assert fam == [IntSet.of([0, 1]), IntSet.of([0, 3])]


OPTIMIZED_INVARIANTS = """
from fractions import Fraction as F
import spectile.cyclotomic as cyclotomic
import spectile.intervals as intervals

merged = intervals._merged
intervals._merged = lambda den, pairs: merged(2 * den, pairs)
try:
    intervals.build_omega(2, [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)])
except AssertionError:
    pass
else:
    raise SystemExit("build_omega accepted a union of the wrong measure")

for den, ends in [(2, ((0, 2), (1, 4))), (2, ((0, 2),))]:
    try:
        intervals.IntervalUnion(den, ends)
    except ValueError:
        pass
    else:
        raise SystemExit("IntervalUnion accepted the grid %r" % ((den, ends),))

import spectile.spectra as spectra
for bad in [(0, 2, 2), (0, 3, 1)]:
    try:
        spectra.IntSet._many([(0, 1, 2), bad, (0, 1, 3)])
    except ValueError:
        pass
    else:
        raise SystemExit("IntSet._many accepted %r" % (bad,))

for label, call, error in [
        ("FinitePointSet accepted a repeated point",
         lambda: spectra.FinitePointSet((F(1), F(1))), ValueError),
        ("is_spectrum accepted a float",
         lambda: spectra.is_spectrum([0, 0.5], [0, 1]), TypeError)]:
    try:
        call()
    except error:
        pass
    else:
        raise SystemExit(label)

import spectile.tilings as tilings
import spectile.utc as utc
# {0, 1} mod 4 fails every spectrum of {0, 1}; the re-check must say so
utc._first_common_cover = lambda *args: tilings.PeriodicSet.of([0, 1], 4)
try:
    utc.utc_verify(2, [0, 1], 5, 8)
except AssertionError:
    pass
else:
    raise SystemExit("utc_verify accepted a certificate that fails its "
                     "re-check")

cyclotomic._cyclotomic_divides = lambda m, terms: False
try:
    cyclotomic.cyclotomic_poly(2)
except AssertionError:
    pass
else:
    raise SystemExit("cyclotomic_poly accepted a polynomial that fails its "
                     "self-check")
"""


def test_invariant_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(spectile.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_INVARIANTS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
