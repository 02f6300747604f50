"""Cyclic tiling verdicts and complement searches, with a brute-force
oracle for completeness at small periods."""

import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectile import (IntervalUnion, IntSet, PeriodicSet, SearchTimeout,
                      find_common_complement, find_complements, is_tiling_of_Z,
                      tiles_cyclic, verify_omega_tiling)
from spectile.cli import canonical_json
from spectile.spectra import _POLL_INTERVAL
from spectile.tilings import _exact_covers


def brute_force_complements(tile, m):
    """Every R inside [0, m) with 0 in R, |R| = m/|tile|, tiling Z_m."""
    tile = IntSet.of(tile)
    if m % len(tile):
        return []
    size = m // len(tile)
    out = []
    for rest in combinations(range(1, m), size - 1):
        r = (0,) + rest
        if tiles_cyclic(tile, r, m):
            out.append(r)
    return out


def packed_exact_covers(members, m, deadline=None):
    """Reference exact-cover search: every residue set R with 0 in R such
    that each member + (R + mZ) tiles Z, in search order.

    The coverage tables of all K members sit side by side in one integer,
    member j owning bits [j*m, (j+1)*m), so one AND tests a translate
    against every table.  Search: place the translate 0 first, then take
    the smallest residue u uncovered in the first table and branch on the
    translates u - a mod m, a in the first member, in ascending order.
    Each valid R is reached by exactly one branch sequence.  Every member
    has the same size and is distinct mod m, so each field fills at the
    same rate and a full first table means every table is full.
    """
    p = len(members[0])
    if not p or m % p:
        return
    bits = ["0"] * (len(members) * m)
    for offset, a in zip(range(0, len(bits), m), members):
        for x in a.elements:
            bits[offset + x % m] = "1"
    if bits.count("1") != len(bits) // m * p:
        return  # some member is not distinct mod m
    base = int("".join(reversed(bits)), 2)
    first_field = (1 << m) - 1
    full = (1 << len(bits)) - 1
    rep = full // first_field
    masks = []  # masks[t]: every field rotated left by t
    for t in range(m):
        low = rep * ((1 << t) - 1)  # bits [0, t) of every field
        masks.append(((base << t) & (full ^ low)) | ((base >> (m - t)) & low))
    # branches[u]: translates covering u in the first table, descending,
    # so that they pop off the stack in ascending order
    branches = [sorted(((u - x) % m for x in members[0]), reverse=True)
                for u in range(m)]
    nodes = 0
    stack = [(masks[0], (0,))]
    while stack:
        if (deadline is not None and nodes % _POLL_INTERVAL == 0
                and time.monotonic() > deadline):
            raise SearchTimeout(
                f"common-complement search passed its deadline at period {m}")
        nodes += 1
        covered, chosen = stack.pop()
        gap = (covered & first_field) ^ first_field
        if not gap:
            yield tuple(sorted(chosen))
            continue
        u = (gap & -gap).bit_length() - 1
        for t in branches[u]:
            mask = masks[t]
            if not mask & covered:
                stack.append((covered | mask, chosen + (t,)))


def frozenset_common_complement(family, m_max):
    """Reference grouping for find_common_complement: at each period, the
    first member of each residue set mod m (a frozenset), in family order,
    searched by packed_exact_covers for the smallest cover; a member that
    is not distinct mod m skips the period."""
    sets = [IntSet.of(a) for a in family]
    p = len(sets[0])
    for m in range(p, m_max + 1, p):
        reps = {}
        for s in sets:
            key = frozenset(x % m for x in s.elements)
            if len(key) < p:
                break
            reps.setdefault(key, s)
        else:
            found = min(packed_exact_covers(list(reps.values()), m),
                        default=None)
            if found is not None:
                return PeriodicSet(found, m)
    return None


def test_periodic_set_validation():
    ps = PeriodicSet.of([5, -1, 2], 4)
    assert ps.residues == (1, 2, 3) and ps.period == 4
    assert 6 in ps and 4 not in ps
    assert len(ps) == 3
    with pytest.raises(ValueError):
        PeriodicSet((0, 4), 4)
    with pytest.raises(ValueError, match="period must be positive"):
        PeriodicSet((0,), 0)
    with pytest.raises(ValueError, match="residues must be strictly increasing"):
        PeriodicSet((2, 1), 4)
    # the constructor refuses what PeriodicSet.of refuses: floats with
    # TypeError, values that are not integers with ValueError
    for residues, period in [((0, 0.5), 1), ((0,), 2.0), ((0, 1.0), 2)]:
        with pytest.raises(TypeError):
            PeriodicSet(residues, period)
    for residues, period in [((0, Fraction(1, 2)), 1), ((0,), Fraction(5, 2))]:
        with pytest.raises(ValueError, match="is not an integer"):
            PeriodicSet(residues, period)
    # an exact verdict is never given on a float residue
    with pytest.raises(TypeError):
        verify_omega_tiling(IntervalUnion.of([(0, Fraction(1, 2))]),
                            PeriodicSet((0, 0.5), 1))
    # integral Fractions are stored as ints, so the certificate form is one
    ps = PeriodicSet([0, Fraction(2, 2)], Fraction(4, 2))
    assert ps == PeriodicSet((0, 1), 2)
    assert type(ps.period) is int and ps.residues == (0, 1)
    assert all(type(r) is int for r in ps.residues)
    assert canonical_json(ps) == canonical_json(PeriodicSet((0, 1), 2))


def test_tiles_cyclic_examples():
    assert tiles_cyclic([0, 1], [0], 2)
    assert tiles_cyclic([0, 5], [0], 2)
    assert not tiles_cyclic([0, 2], [0], 2)
    assert not tiles_cyclic([0, 1], [0, 1], 2)
    assert tiles_cyclic([0, 1, 2, 3], [0, 4], 8)
    with pytest.raises(ValueError):
        tiles_cyclic([0, 1], [0], 0)


def test_tiles_cyclic_translation_invariance():
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(2, 14)
        size = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        tile = rng.sample(range(m), size)
        residues = rng.sample(range(m), m // size)
        c = rng.randint(-10, 10)
        shifted = [a + c for a in tile]
        assert tiles_cyclic(tile, residues, m) == \
            tiles_cyclic(shifted, residues, m)


def test_find_complements_examples():
    assert find_complements([0, 1], 4) == [(0, 2)]
    # {0,2} has both interleaved complements mod 4; the brute-force oracle
    # below confirms the pair is exhaustive
    assert find_complements([0, 2], 4) == [(0, 1), (0, 3)]
    assert find_complements([0, 1, 2, 3], 4) == [(0,)]
    assert find_complements([0], 1) == [(0,)]


def test_find_complements_degenerate_inputs():
    assert find_complements([0, 1], 3) == []
    assert find_complements([0, 2], 2) == []
    assert find_complements([], 4) == []


def test_find_complements_matches_brute_force():
    rng = random.Random(23)
    cases = [([0, 1], 4), ([0, 2], 4), ([0, 1], 6), ([0, 3], 6),
             ([0, 1, 2], 6), ([0, 2, 4], 6), ([0, 1, 4, 5], 8),
             ([0, 1, 2, 3], 8), ([0, 2], 16), ([0, 1, 8, 9], 16)]
    for _ in range(20):
        m = rng.randint(2, 12)
        size = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        cases.append((sorted(rng.sample(range(m), size)), m))
    for tile, m in cases:
        found = find_complements(tile, m)
        assert found == brute_force_complements(tile, m), (tile, m)
        for r in found:
            assert tiles_cyclic(tile, r, m)


@settings(max_examples=200, deadline=None)
@given(tile=st.sets(st.integers(-12, 24), min_size=1, max_size=6),
       m=st.integers(1, 12))
def test_find_complements_property_matches_brute_force(tile, m):
    assert find_complements(tile, m) == brute_force_complements(tile, m)


@st.composite
def cyclic_tiles(draw):
    """A translate of a tile A of Z_m with |A| <= 6 and m <= 24, built
    digit by digit: m is a product of radices, A takes every digit at some
    levels and 0 at the rest, and each element moves by a multiple of m."""
    radices = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)
                   .filter(lambda rs: math.prod(rs) <= 24))
    levels = draw(st.lists(st.booleans(), min_size=len(radices),
                           max_size=len(radices))
                  .filter(lambda ls: math.prod(
                      r for r, own in zip(radices, ls) if own) <= 6))
    m, shift, weights = math.prod(radices), draw(st.integers(-9, 9)), []
    for r, own in zip(radices, levels):
        weights.append([d * math.prod(radices[:len(weights)])
                        for d in range(r if own else 1)])
    return [shift + sum(digits) + m * draw(st.integers(-2, 2))
            for digits in product(*weights)], m


@settings(max_examples=100, deadline=None)
@given(case=cyclic_tiles())
@example(case=([0, 1, 4, 5], 16))
@example(case=([0, 8, 16, 18, 26, 34], 48))
def test_a_unit_of_the_tiles_size_keeps_its_complements(case):
    # Tijdeman (1995): if A + C = Z_m and t is coprime to |A|, then
    # tA + C = Z_m, so every complement of A is one of tA.  m stays small:
    # 16·{0, 1, 2} in Z_48 has 3^15 complements
    tile, m = case
    found = set(find_complements(tile, m))
    assert found
    for t in range(1, m):
        if math.gcd(t, len(tile)) == 1:
            assert found <= set(find_complements([t * a for a in tile], m))


@st.composite
def reordered(draw, cases):
    """A drawn (family, m_max) and the same family in a drawn order."""
    family, m_max = draw(cases)
    return family, m_max, draw(st.permutations(family))


@st.composite
def families(draw):
    p = draw(st.integers(1, 4))
    member = st.lists(st.integers(0, 20), min_size=p, max_size=p, unique=True)
    return draw(st.lists(member, min_size=1, max_size=5)), draw(
        st.integers(1, 16))


@settings(max_examples=150, deadline=None)
@given(case=reordered(families()))
def test_find_common_complement_property_matches_brute_force(case):
    # the certificate is the smallest common cover at the first period
    # that has one, in every order of the family
    family, m_max, shuffled = case
    p = len(family[0])
    sets = [IntSet.of(a) for a in family]
    expected = None
    for m in range(p, m_max + 1, p):
        covers = [r for r in brute_force_complements(family[0], m)
                  if all(tiles_cyclic(a, r, m) for a in family)]
        # the packed K-member search lists exactly the common covers
        assert sorted(packed_exact_covers(sets, m)) == covers, (family, m)
        if covers and expected is None:
            expected = m, covers
    got = find_common_complement(family, m_max)
    assert find_common_complement(shuffled, m_max) == got
    if expected is None:
        assert got is None
    else:
        assert (got.period, got.residues) == (expected[0], expected[1][0])


@st.composite
def shifted_families(draw):
    """Translated base members and copies of them with each element shifted
    by a multiple of m, all shuffled: many members in few classes mod m.
    Some bases share a complement of a drawn tile of Z_m, when it has one;
    random ones are often not distinct mod the smaller periods."""
    p = draw(st.integers(1, 4))
    m = p * draw(st.integers(1, 4))
    member = st.lists(st.integers(0, 20), min_size=p, max_size=p, unique=True)
    shifts = st.lists(st.integers(-2, 3), min_size=p, max_size=p)
    bases = draw(st.lists(member, max_size=2))
    tile = draw(st.lists(st.integers(1, max(m - 1, 1)), min_size=p - 1,
                         max_size=p - 1, unique=True))
    covers = find_complements([0] + tile, m)
    if covers:
        partners = find_complements(draw(st.sampled_from(covers)), m)
        bases += draw(st.lists(st.sampled_from(partners), max_size=3))
    family = []
    for base in bases or [draw(member)]:
        t = draw(st.integers(0, m - 1))
        family.append([x + t for x in base])
        for ks in draw(st.lists(shifts, max_size=4)):
            shifted = {x + t + k * m for x, k in zip(base, ks)}
            if len(shifted) == p:
                family.append(sorted(shifted))
    return draw(st.permutations(family)), draw(st.integers(1, 3 * m))


# {0, 2, 8, 10} and {5, 11, 13, 19} share their first covers at period 16.
# A search led by one member meets them in an order of its own: the packed
# search meets (0, 1, 4, 5) first when {0, 2, 8, 10} leads, and
# (0, 3, 4, 7) when {5, 11, 13, 19} does.  The certificate is the smallest
# of them, (0, 1, 4, 5), whichever member comes first
EXAMPLES = [([[0, 2, 8, 10], [5, 11, 13, 19], [0, 18, 8, 10]], 16,
             [[5, 11, 13, 19], [0, 18, 8, 10], [0, 2, 8, 10]]),
            ([[5, 11, 13, 19], [0, 2, 8, 10], [5, 27, 13, 19]], 16,
             [[0, 2, 8, 10], [5, 27, 13, 19], [5, 11, 13, 19]])]


@settings(max_examples=200, deadline=None)
@given(case=reordered(shifted_families()))
@example(case=EXAMPLES[0])
@example(case=EXAMPLES[1])
def test_find_common_complement_matches_search_over_every_member(case):
    # the per-class search returns the smallest cover the search over all
    # members finds, at the first period that has one, in any member order
    family, m_max, shuffled = case
    sets = [IntSet.of(a) for a in family]
    p = len(sets[0])
    expected = None
    for m in range(p, m_max + 1, p):
        covers = sorted(packed_exact_covers(sets, m))
        if covers:
            expected = PeriodicSet(covers[0], m)
            break
    assert find_common_complement(family, m_max) == expected
    assert find_common_complement(shuffled, m_max) == expected


@settings(max_examples=300, deadline=None)
@given(case=reordered(st.one_of(families(), shifted_families())))
@example(case=EXAMPLES[0])
@example(case=EXAMPLES[1])
def test_exact_covers_match_the_packed_search_in_order(case):
    # the clique search lists the covers the packed search over every
    # member finds, in lexicographic order, whatever the order of the tables
    family, m_max, shuffled = case
    sets = [IntSet.of(a) for a in family]
    p = len(sets[0])
    for m in range(p, m_max + 1, p):
        # both list nothing when some member is not distinct mod m
        expected = sorted(packed_exact_covers(sets, m))
        assert list(_exact_covers(sets, m)) == expected, (family, m)
        assert list(_exact_covers(shuffled, m)) == expected, (shuffled, m)


@st.composite
def signed_families(draw):
    """Members with negative elements, and copies of earlier members with
    each element moved by a multiple of a small period, so that members
    share classes at some periods and repeat a residue at others."""
    p = draw(st.integers(1, 4))
    member = st.lists(st.integers(-40, 40), min_size=p, max_size=p,
                      unique=True)
    family = draw(st.lists(member, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        base = draw(st.sampled_from(family))
        step = p * draw(st.integers(1, 4))
        ks = draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
        moved = {x + k * step for x, k in zip(base, ks)}
        if len(moved) == p:
            family.append(sorted(moved))
    return draw(st.permutations(family)), draw(st.integers(1, 24))


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(families(), shifted_families(), signed_families()))
@example(case=([[0, 2, 8, 10], [5, 11, 13, 19], [0, 18, 8, 10]], 16))
@example(case=([[0, 24], [0, 1]], 24))
@example(case=([[-3, 5], [1, 9], [-7, 2]], 12))
@example(case=([[3, 11, 13, 5]], 16))  # first packed cover (0, 3, 4, 7)
def test_find_common_complement_matches_the_frozenset_grouping(case):
    # grouping members by m-bit masks finds the same certificate as
    # grouping them by frozensets of residues
    family, m_max = case
    assert find_common_complement(family, m_max) == \
        frozenset_common_complement(family, m_max)


def test_exact_covers_read_each_set_mod_m():
    # an unreduced table once yielded 8,388,608 duplicate covers of Z_24;
    # a set that is not distinct mod m now yields none, at once
    start = time.monotonic()
    assert list(_exact_covers([IntSet.of([0, 24])], 24)) == []
    assert time.monotonic() - start < 0.5
    assert list(_exact_covers([(0, 1), (0, 2)], 4)) == []
    assert list(_exact_covers([(0, 1), (0, 3)], 4)) == [(0, 2)]
    # residue m - 1 is the last residue: 3 and 7 are one class mod 4
    assert list(_exact_covers([(3,), (7,)], 4)) == [(0, 1, 2, 3)]


def test_exact_covers_yield_nothing_without_an_m_bit_integer():
    # 3 does not divide m = 10**8 + 1, and 10**8 + 2 repeats the residue
    # 0 mod m = 10**8 + 2: neither period is searched, and neither check
    # allocates anything near 2**m (12.5 MB)
    for sets, m in [([(0, 1, 2)], 10**8 + 1), ([(0, 10**8 + 2)], 10**8 + 2)]:
        tracemalloc.start()
        try:
            assert list(_exact_covers(sets, m)) == [], m
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6, (m, peak)


def test_find_complements_sorted_output():
    found = find_complements([0, 4], 8)
    assert found == sorted(found)
    assert all(r[0] == 0 for r in found)


def test_find_common_complement_examples():
    a, b = [0, 2, 8, 10], [5, 11, 13, 19]
    assert find_common_complement([a, b], 16) == \
        find_common_complement([b, a], 16) == PeriodicSet((0, 1, 4, 5), 16)
    got = find_common_complement([[0, 1], [0, 3], [0, 5]], 8)
    assert (got.residues, got.period) == ((0,), 2)
    got = find_common_complement([[0, 1, 2, 3], [0, 5, 2, 7]], 8)
    assert (got.residues, got.period) == ((0,), 4)
    got = find_common_complement([[0, 2, 4, 6], [0, 2, 4, 14]], 16)
    assert (got.residues, got.period) == ((0, 1), 8)


def test_find_common_complement_soundness_and_minimality():
    family = [[0, 2, 4, 6], [0, 2, 4, 14]]
    got = find_common_complement(family, 16)
    assert got.period == 8
    for member in family:
        assert is_tiling_of_Z(member, got)
    # the only smaller admissible period is 4, where neither member tiles
    for member in family:
        assert brute_force_complements(member, 4) == []


def test_find_common_complement_bounds_and_errors():
    assert find_common_complement([[0, 1]], 1) is None
    assert find_common_complement([[0, 2], [0, 1]], 12) is None
    for family, message in [([], "family must be nonempty"),
                            ([[]], "family members must be nonempty"),
                            ([[0, 1], [0, 1, 2]], "one cardinality")]:
        with pytest.raises(ValueError, match=message):
            find_common_complement(family, 8)


def test_find_common_complement_deadline():
    with pytest.raises(SearchTimeout):
        find_common_complement([[0, 1], [0, 3]], 8, time_budget=0)


def test_searches_with_no_complement_end_fast():
    # no complement at any period: {0, 1, 3} tiles no Z_m, and [0, 1],
    # [0, 2] share none.  A lexicographic clique search without the
    # tables' bound walks exponentially many prefixes on these, past any
    # deadline here
    deadline = time.monotonic() + 5.0
    for m in (48, 72, 96, 300):
        assert list(_exact_covers([(0, 1, 3)], m, deadline)) == []
        assert find_complements([0, 1, 3], m) == []
    # what is left of that one deadline, as a budget that cannot be negative
    for family, m_max in (([[0, 1], [0, 2]], 100),
                          ([[0, 1, 3], [0, 2, 4]], 150)):
        left = max(0.0, deadline - time.monotonic())
        assert find_common_complement(family, m_max, time_budget=left) is None


def test_is_tiling_of_Z_examples():
    assert is_tiling_of_Z([0, 1], PeriodicSet.of([0], 2))
    assert not is_tiling_of_Z([0, 1], PeriodicSet.of([0, 1], 2))
    assert is_tiling_of_Z([0, 3], PeriodicSet.of([0], 2))


def test_counting_invariant():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(2, 12)
        size = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        tile = sorted(rng.sample(range(m), size))
        for r in find_complements(tile, m):
            assert len(tile) * len(r) == m
