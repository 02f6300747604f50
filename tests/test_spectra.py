"""Spectral-pair verdicts and bounded spectrum enumeration."""

import copy
import dataclasses
import gc
import math
import operator
import pickle
import random
import time
import tracemalloc
import weakref
from fractions import Fraction as F
from itertools import combinations

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectile.spectra
import spectile.utc
from spectile import (INCONCLUSIVE, VERIFIED, FinitePointSet, IntervalUnion,
                      IntSet, PeriodicSet, ResidueMultiset, SearchTimeout,
                      UtcReport, admissible_differences, as_fraction,
                      build_omega, enumerate_spectra,
                      exponential_sum_vanishes, fibers,
                      find_common_complement, find_complements, is_spectrum,
                      root_sum_is_zero, roundtrip, spectral_verdict,
                      tiles_cyclic, utc_verify, verify_omega_tiling)
from spectile.spectra import (_POLL_INTERVAL, _as_int, _base_points,
                              _cliques, _point_grid, _vanishing_test)
from corpus import bases, bases_and_bounds
from oracles import ResourceLimitError, brute_force_spectra, root_sum_value

X = sympy.Symbol("x")


def stack_dfs_spectra(g, p, n_max, *, deadline=None):
    """Reference enumeration: the depth-first search over {0, ..., n_max}
    that enumerate_spectra ran before it searched residue cliques mod M
    and lifted them.  Depth-first on a stack of prefixes with bitsets of
    their next candidates, ascending, so the output is sorted
    lexicographically; a prefix one short of p completes with each of its
    candidates."""
    g, p = _base_points(g, p)
    n_max = _as_int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    vanishes = _vanishing_test(*_point_grid(g), p)
    allowed = sum(1 << d for d in range(1, n_max + 1) if vanishes((d,)))
    results: list[IntSet] = []
    stack = [((0,), allowed)]
    nodes = 0
    while stack:
        if (deadline is not None and nodes % _POLL_INTERVAL == 0
                and time.monotonic() > deadline):
            raise SearchTimeout(f"spectrum enumeration passed its deadline "
                                f"after {len(results)} spectra")
        nodes += 1
        chosen, cand = stack.pop()
        if len(chosen) == p:  # p = 1: the root is the one spectrum
            results.append(IntSet(chosen))
        elif len(chosen) == p - 1:
            while cand:
                low = cand & -cand
                results.append(IntSet(chosen + (low.bit_length() - 1,)))
                cand ^= low
        else:  # push, largest first, each c that leaves enough candidates
            need, rest = p - len(chosen) - 1, cand
            while rest:
                c = rest.bit_length() - 1
                rest ^= 1 << c
                after = cand & (allowed << c)
                if after.bit_count() >= need:
                    stack.append((chosen + (c,), after))
    return results


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
    # membership coerces as IntervalUnion's does: strings are read exactly
    # and floats are refused
    assert "1/2" in ps and 3 in ps and "1/3" not in ps
    assert "1/2" in IntervalUnion.of([(0, 1)])
    for container in (ps, IntervalUnion.of([(0, 1)])):
        with pytest.raises(TypeError, match="float input is not exact"):
            0.5 in container
    with pytest.raises(ValueError, match="points must be strictly increasing"):
        FinitePointSet((F(1), F(1)))


def test_int_set_basics():
    a = IntSet.of([3, 0, 3, 1])
    assert a.elements == (0, 1, 3)
    assert IntSet.of(a) is a
    assert (0 in a, 3 in a, 2 in a, -1 in a) == (True, True, False, False)
    assert IntSet.of(e - 5 for e in IntSet.of([7, 5])).elements == (0, 2)
    assert IntSet((0, 1)) != FinitePointSet.of([0, 1])
    with pytest.raises(TypeError):
        IntSet((0, 1)) < FinitePointSet.of([0, 1])
    with pytest.raises(ValueError, match="elements must be strictly increasing"):
        IntSet((2, 2))


def test_integer_inputs_refuse_non_integers():
    with pytest.raises(TypeError):
        tiles_cyclic([0, 1.5], [0], 2)
    with pytest.raises(TypeError):
        tiles_cyclic([0, 1], [0.5], 2)
    with pytest.raises(TypeError):
        build_omega(2, [[0, 1.2], [0, 3]], [0, F(1, 4), F(1, 2)])
    with pytest.raises(ValueError):
        IntSet.of([0, F(1, 2)])
    with pytest.raises(ValueError):
        PeriodicSet.of(["1/2"], 2)
    # a float modulus, period or period bound is refused like any other
    for call in [lambda: tiles_cyclic([0, 1], [0], 2.0),
                 lambda: PeriodicSet.of([0], 2.0),
                 lambda: find_complements([0, 1], 2.0),
                 lambda: find_common_complement([[0, 1]], 4.0)]:
        with pytest.raises(TypeError, match="float input is not exact"):
            call()
    assert IntSet.of([F(4, 2), "3", 0]).elements == (0, 2, 3)
    assert PeriodicSet.of([F(-1), 2], 4).residues == (2, 3)
    assert PeriodicSet.of([0], F(4, 2)).period == 2


def test_integer_parameters_follow_the_exactness_policy():
    # p, n_max and d_max are read like every other integer input: an
    # integral Fraction works, another Fraction raises ValueError and a
    # float raises TypeError
    gamma, family, rs = [0, F(1, 2)], [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)]
    omega = build_omega(2, family, rs)

    def check(call, *ints):
        expected = call(*ints)
        for i, k in enumerate(ints):
            def with_value(v):
                return call(*ints[:i], v, *ints[i + 1:])
            assert with_value(F(k)) == expected
            with pytest.raises(ValueError, match="is not an integer"):
                with_value(F(2 * k + 1, 2))
            with pytest.raises(TypeError, match="float input is not exact"):
                with_value(float(k))

    check(lambda p, n: enumerate_spectra(gamma, p, n), 2, 4)
    check(lambda p, n: brute_force_spectra(gamma, p, n), 2, 4)
    check(lambda p, d: admissible_differences(gamma, p, d), 2, 4)
    check(lambda p, n: utc_verify(p, gamma, n, 4).spectra_found, 2, 4)
    check(lambda p: build_omega(p, family, rs), 2)
    check(lambda p: fibers(omega, p), 2)
    assert type(fibers(omega, F(2)).p) is int
    check(lambda p: verify_omega_tiling(omega, PeriodicSet.of([0], 2), p=p), 2)
    check(lambda p: spectral_verdict(omega, [0, 1], p), 2)
    check(lambda p: roundtrip(p, [0, 1], family, rs, 8), 2)
    # p, d_max, moduli and periods are at least 1 and n_max at least 0; a
    # smaller value, also an integral Fraction, raises ValueError naming it
    for name, call in [
            ("p", lambda: enumerate_spectra(gamma, 0, 4)),
            ("p", lambda: admissible_differences(gamma, F(0), 4)),
            ("p", lambda: build_omega(0, family, rs)),
            ("p", lambda: fibers(omega, 0)),
            ("n_max", lambda: enumerate_spectra(gamma, 2, -1)),
            ("n_max", lambda: brute_force_spectra(gamma, 2, F(-1))),
            ("n_max", lambda: utc_verify(2, gamma, -1, 4)),
            ("d_max", lambda: admissible_differences(gamma, 2, 0)),
            ("period", lambda: PeriodicSet.of([0], 0)),
            ("modulus", lambda: tiles_cyclic([0, 1], [0], 0)),
            ("modulus", lambda: find_complements([0, 1], F(0)))]:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call()


def test_exponential_sum_vanishes_known_cases():
    assert exponential_sum_vanishes([F(0), F(1, 2)], F(1))
    assert not exponential_sum_vanishes([F(0), F(1, 2)], F(2))
    assert exponential_sum_vanishes([], F(5))
    assert not exponential_sum_vanishes([F(0)], F(0))


def test_exponential_sum_vanishes_exactness_policy():
    # floats are refused like everywhere else; strings are read exactly
    with pytest.raises(TypeError):
        exponential_sum_vanishes([0, 0.5], F(1))
    with pytest.raises(TypeError):
        exponential_sum_vanishes([F(0), F(1, 2)], 1.0)
    for points, delta in [(["0", "1/2"], "1"), (["0", "1/2"], "2"),
                          (["1/3", "1", "5/3"], "1/2"), ([0, "7/4"], 2)]:
        assert exponential_sum_vanishes(points, delta) == \
            exponential_sum_vanishes([F(x) for x in points], F(delta))


def test_large_orders_are_decided_on_their_terms():
    # {0, 10^9} with B = {0, 1/10^9} sums 1 + 1 at order 10^9
    assert is_spectrum([0, 10**9], [0, F(1, 10**9)]) is False
    assert is_spectrum([0, 10**9], [0, F(1, 2 * 10**9)]) is True
    assert is_spectrum([F(1, 3), 1, F(5, 3)], [0, F(1, 2), 1]) is True
    assert exponential_sum_vanishes([F(7, 10**6), F(7, 10**6) + 5], F(1, 10))
    # a two-term sum of prime order 10^7 + 19 allocates nothing of that size
    tracemalloc.start()
    try:
        assert is_spectrum([0, 1], [0, F(1, 10**7 + 19)]) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak} bytes"
    # a prime order near 10^9 and the order 2*3*5*...*23 (nine primes)
    assert is_spectrum([0, 1], [0, F(1, 10**9 + 7)]) is False
    primorial = 223092870
    assert is_spectrum([F(1, primorial), F(1, primorial) + F(1, 2)], [0, 1])
    assert not is_spectrum([F(1, primorial), F(1, primorial) + F(1, 3)], [0, 1])


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
        assert verdict == is_spectrum(FinitePointSet.of(x + c for x in g), b)
        assert verdict == is_spectrum(g, FinitePointSet.of(x + c for x in b))
        scale = F(rng.randint(1, 5), rng.randint(1, 5))
        assert verdict == is_spectrum(FinitePointSet.of(x * scale for x in g),
                                      FinitePointSet.of(x / scale for x in b))


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


@settings(max_examples=200, deadline=None)
@given(bases(), st.integers(1, 60))
@example(([F(0), F(1, 3)], 2), 12)
@example(([F(0), F(1, 2), F(1), F(3, 2)], 4), 8)
def test_admissible_differences_match_a_float_scan(base, d_max):
    # the exact scan tests only d > 0 and mirrors it; the float oracle
    # sums e^(2 pi i g d / p) over G at every d from -d_max to d_max, as
    # the roots zeta_M^(D g d) with D the lcm of G's denominators
    gamma, p = base
    den = math.lcm(*(g.denominator for g in gamma))
    modulus = p * den
    expected = tuple(
        d for d in range(-d_max, d_max + 1)
        if d and abs(root_sum_value(ResidueMultiset.of(
            modulus, (int(g * den) * d for g in gamma)))) < 1e-9)
    assert admissible_differences(gamma, p, d_max) == expected


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
    assert out == sorted(out, key=lambda a: a.elements)


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
        enumerate_spectra(range(9), 9, 36, time_budget=0)
    # a budget that does not run out leaves the output unchanged, across
    # more than one poll interval of search nodes
    gamma = [0, F(1, 2), 2, F(5, 2)]
    assert enumerate_spectra(gamma, 4, 80, time_budget=3600) \
        == enumerate_spectra(gamma, 4, 80)


def test_enumerate_spectra_polls_the_deadline_at_p_1():
    # the deadline is checked before the first node, even when that node
    # is the whole search
    with pytest.raises(SearchTimeout):
        enumerate_spectra([0], 1, 5, time_budget=0)


def test_a_spent_budget_stops_before_the_admissibility_test(monkeypatch):
    # {0, 1/10^7} at n_max 2 * 10^7 has 2 * 10^7 - 1 differences to test
    # before the clique search starts; the deadline is checked before the
    # first of them, so a spent budget decides no order
    decided = []
    real_divides = spectile.spectra._cyclotomic_divides

    def divides(*args):
        decided.append(args[0])
        return real_divides(*args)

    monkeypatch.setattr(spectile.spectra, "_cyclotomic_divides", divides)
    gamma, n_max = [0, F(1, 10**7)], 2 * 10**7
    with pytest.raises(SearchTimeout):
        enumerate_spectra(gamma, 2, n_max, time_budget=0)
    report = utc_verify(2, gamma, n_max, 4, time_budget=0)
    assert report.verdict == INCONCLUSIVE
    assert (report.modulus, report.cliques) == (None, ())
    assert report.certificate is None
    assert decided == []


def test_enumerate_spectra_has_no_recursion_limit():
    # Z_1100 has one spectrum within {0..1099}, found 1100 levels deep,
    # past the interpreter's default recursion limit
    assert enumerate_spectra(range(1100), 1100, 1099) == \
        [IntSet(tuple(range(1100)))]


def test_enumerated_family_is_freed_without_the_collector():
    # the search leaves no reference cycle, so the family dies with its
    # last reference even while the cyclic collector is off
    gc.disable()
    try:
        family = enumerate_spectra(range(9), 9, 36)
        member = weakref.ref(family[0])
        del family
        assert member() is None
    finally:
        gc.enable()


def _two_values():
    """Two unequal instances of each value type, by class name."""
    gamma, family = [0, 1], [[0, 1], [0, 3]]
    rt = roundtrip(2, gamma, family, [0, F(1, 4), F(1, 2)], 8)
    rt2 = roundtrip(2, gamma, family[:1], [0, F(1, 2)], 8)
    dec, dec2 = fibers(rt.omega, 2), fibers(rt2.omega, 2)
    pairs = [
        (ResidueMultiset.of(4, [0, 1, 1]), ResidueMultiset.of(4, [0, 2])),
        (FinitePointSet.of([0, F(1, 2)]), FinitePointSet.of([0, 1])),
        (IntSet.of([3, -1, 2]), IntSet.of([0, 1])),
        (PeriodicSet.of([0, 2], 4), PeriodicSet.of([0, 1], 4)),
        (rt.omega, rt2.omega), (dec.cells[0], dec.cells[1]), (dec, dec2),
        (rt.omega_tiling, rt2.omega_tiling), (rt, rt2),
        (utc_verify(2, [0, F(1, 3)], 6, 6), utc_verify(2, gamma, 5, 8)),
    ]
    return {type(a).__name__: (a, b) for a, b in pairs}


_VALUE_TYPES = [  # the stored fields, as @dataclass(frozen=True) declares them
    ("ResidueMultiset", "modulus entries"),
    ("FinitePointSet", "points"),
    ("IntSet", "elements"),
    ("PeriodicSet", "residues period"),
    ("IntervalUnion", "den ends"),
    ("FiberCell", "lo hi fiber"),
    ("FiberDecomposition", "p cells"),
    ("OmegaTilingCertificate", "omega p complement"),
    ("UtcReport", "p gamma n_max m_max modulus cliques verdict certificate "
     "timing"),
    ("RoundTripReport", "p gamma family breakpoints omega spectral_ok "
     "omega_tiling"),
]


@pytest.mark.parametrize("name, fields", _VALUE_TYPES,
                         ids=[row[0] for row in _VALUE_TYPES])
def test_value_types_behave_as_frozen_dataclasses(name, fields):
    a, b = _two_values()[name]
    cls, fields = type(a), fields.split()
    twin = dataclasses.make_dataclass(name, fields, frozen=True)

    def as_twin(x):
        return twin(*(getattr(x, f) for f in fields))

    ta, tb = as_twin(a), as_twin(b)
    assert (a == b, a != b, a == a) == (ta == tb, ta != tb, ta == ta)
    assert hash(a) == hash(ta) and hash(b) == hash(tb)
    assert repr(a) == repr(ta) and repr(b) == repr(tb)
    # no order is defined: sort values by a field, such as .elements
    comparisons = (operator.lt, operator.le, operator.gt, operator.ge)
    for op in comparisons:
        for x, y in ((a, b), (ta, tb)):
            with pytest.raises(TypeError):
                op(x, y)
    # another class with the same field values: never equal, never ordered
    lookalike = type(name, (cls,), {"__slots__": ()})(
        *(getattr(a, f) for f in fields))
    for other in (ta, lookalike):
        assert a != other and other != a and not a == other
        for op in comparisons:
            with pytest.raises(TypeError):
                op(a, other)
    for attr in (*fields, "other"):
        for change in (lambda x: setattr(x, attr, 0),
                       lambda x: delattr(x, attr)):
            with pytest.raises(AttributeError) as ours:
                change(a)
            with pytest.raises(dataclasses.FrozenInstanceError) as theirs:
                change(ta)
            assert str(ours.value) == str(theirs.value)
    assert hasattr(a, "__dict__") == (cls in (IntervalUnion, UtcReport))
    assert weakref.ref(a)() is a
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                   copy.deepcopy(a)):
        assert type(copied) is cls and copied == a and repr(copied) == repr(a)


def test_brute_force_pigeonhole_and_guard():
    assert brute_force_spectra([0, 1, 2], 3, 1) == []
    with pytest.raises(ResourceLimitError):
        brute_force_spectra([0, 1, 2, 3], 4, 2000)


def test_spectrum_size_must_match_p():
    with pytest.raises(ValueError):
        enumerate_spectra([0, 1, 2], 2, 5)
    with pytest.raises(ValueError):
        brute_force_spectra([0, 1], 3, 5)


def sympy_sum_vanishes(points, delta) -> bool:
    """Definition-level oracle: write the delta*g as m-th roots of unity for
    one modulus m and divide their mask polynomial by Phi_m in sympy."""
    terms = [delta * g for g in points]
    m = math.lcm(*(t.denominator for t in terms))
    mask = [0] * m
    for t in terms:
        mask[t.numerator * (m // t.denominator) % m] += 1
    f = sympy.Poly(list(reversed(mask)), X)
    return f.rem(sympy.Poly(sympy.cyclotomic_poly(m, X), X)).is_zero


# integer sets H with a spectrum K
INTEGER_PAIRS = [
    (range(n), [F(j, n) for j in range(n)]) for n in range(1, 6)] + [
    ([0, 1, 4, 5], [0, F(1, 8), F(1, 2), F(5, 8)]),
    ([0, 1, 2, 6, 7, 8], [0, F(1, 12), F(1, 3), F(5, 12), F(2, 3), F(3, 4)]),
]
RATIONALS = st.builds(F, st.integers(-12, 12), st.integers(1, 7))


@st.composite
def candidate_pairs(draw):
    """G = c*H + t with B = K/c + u, each frequency moved by a multiple of
    1/c (a spectral pair), then perhaps one frequency moved off it."""
    h, k = draw(st.sampled_from(INTEGER_PAIRS))
    c = draw(st.builds(F, st.integers(1, 4), st.integers(1, 5)))
    c *= draw(st.sampled_from([1, -1]))
    t, u = draw(RATIONALS), draw(RATIONALS)
    g = [c * x + t for x in h]
    b = [x / c + u + draw(st.integers(-3, 3)) / c for x in k]
    if draw(st.booleans()):
        b[draw(st.integers(0, len(b) - 1))] += draw(RATIONALS)
    return g, b


@settings(max_examples=200, deadline=None)
@given(candidate_pairs())
@example(([0, F(2, 3), F(4, 3)], [0, F(1, 2), 1]))  # G inside (2/3)Z
@example(([0, F(2, 3), F(8, 3), F(10, 3)], [0, F(3, 16), F(3, 4), F(15, 16)]))
def test_is_spectrum_matches_sympy_oracle(case):
    g, b = case
    g, b = FinitePointSet.of(g), FinitePointSet.of(b)
    expected = len(g) == len(b) and all(
        sympy_sum_vanishes(g.points, y - x)
        for x, y in combinations(b.points, 2))
    assert is_spectrum(g, b) == expected


def unreduced_sum(points, delta) -> ResidueMultiset:
    """sum_g e^(2 pi i delta g) as m-th roots of unity, m the lcm of the
    denominators of the delta*g, not reduced to its order."""
    terms = [delta * g for g in points]
    m = math.lcm(*(t.denominator for t in terms))
    return ResidueMultiset.of(m, [t.numerator * (m // t.denominator)
                                  for t in terms])


# one large prime per example: an order is factored by trial division up
# to its square root, about 3*10^4 steps for 10^9 + 7; 2^61 - 1 only
# scales G down and B up, so that no order keeps it
LARGE_PRIMES = [2**31 - 1, 10**9 + 7]
HUGE_PRIME = 2**61 - 1


@st.composite
def order_sharing_pairs(draw):
    """(G, B) as lists with negatives, repeated points and a large prime
    denominator, most of whose pairs share a few orders: G is c times
    {0, ..., n-1} or n distinct integers, shifted by t, and B is
    {k/(n c) + u} for integers k, perhaps with one point moved off it."""
    n = draw(st.integers(1, 7))
    big = draw(st.sampled_from(LARGE_PRIMES))
    c = draw(st.sampled_from([1, -1, 2, -3, F(1, 5), F(-1, big)]))
    h = range(n) if draw(st.booleans()) else draw(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))
    t = F(draw(st.integers(-big, big)), draw(st.sampled_from([1, 7, big])))
    g = [c * x + t for x in h]
    u = draw(RATIONALS)
    b = [F(k, n) / c + u for k in draw(
        st.lists(st.integers(-3 * n, 3 * n), min_size=n, max_size=n))]
    if draw(st.booleans()):
        b[draw(st.integers(0, n - 1))] += F(draw(st.integers(-5, 5)),
                                            draw(st.sampled_from([2, 3])))
    if draw(st.booleans()):
        g, b = [x / HUGE_PRIME for x in g], [x * HUGE_PRIME for x in b]
    g += draw(st.lists(st.sampled_from(g), max_size=2))
    b += draw(st.lists(st.sampled_from(b), max_size=2))
    return g, b


@settings(max_examples=200, deadline=None)
@given(order_sharing_pairs())
@example(([0, F(1, HUGE_PRIME)], [0, HUGE_PRIME]))
@example((list(range(6)) + [0], [F(k, 6) for k in range(-9, 9, 3)]))
@example((list(range(6)), [F(k, 6) for k in range(-7, 11, 3)]))
def test_set_test_matches_the_per_pair_path(case):
    # the set test decides each distinct order once, ascending; the
    # per-pair path builds a test for each difference on its own, and the
    # kernel on the unreduced terms shares neither order nor verdict cache
    g, b = case
    gs, bs = FinitePointSet.of(g).points, FinitePointSet.of(b).points
    pairs = list(combinations(bs, 2))
    expected = len(gs) == len(bs) and all(
        exponential_sum_vanishes(gs, y - x) for x, y in pairs)
    assert is_spectrum(g, b) == expected
    assert expected == (len(gs) == len(bs) and all(
        root_sum_is_zero(unreduced_sum(gs, y - x)) for x, y in pairs))


def test_each_order_is_decided_once_and_no_modulus_is_factored(monkeypatch):
    decided, factored = [], []
    real_divides = spectile.spectra._cyclotomic_divides
    real_factors = spectile.cyclotomic._prime_factors

    def divides(m, terms):
        decided.append(m)
        return real_divides(m, terms)

    def factors(m):
        factored.append(m)
        return real_factors(m)

    monkeypatch.setattr(spectile.spectra, "_cyclotomic_divides", divides)
    monkeypatch.setattr(spectile.cyclotomic, "_prime_factors", factors)
    # G = {0, 1, 2, 3}/P and q = 4, so M = 4P; the sets lie in PZ, so
    # their orders divide 4 and M is never an order
    big = 10**9 + 7
    test = spectile.spectra._spectrum_test([F(j, big) for j in range(4)], 4)
    verdicts = [test([0, big, 2 * big, 3 * big]),  # orders 4, 2
                test([0, 3 * big, 6 * big, 9 * big]),  # orders 4, 2 again
                test([0, big, 2 * big, 4 * big]),  # order 1 first: false
                test([-5 * big, -big, 0, 2 * big])]  # decided by the cache
    assert verdicts == [True, True, False, False]
    assert decided == [2, 4, 1]
    assert 4 * big not in factored and set(factored) <= {1, 2, 4}
    # is_spectrum makes its own test, so it decides its orders again
    decided.clear()
    assert is_spectrum([F(j, big) for j in range(4)],
                       [0, F(big, 4), F(big, 2), F(3 * big, 4)])
    assert decided == [2, 4]
    # M = 2^61 - 1 is prime, but the one difference has order 1: nothing
    # is trial-divided up to 2^30.5
    decided.clear()
    factored.clear()
    assert is_spectrum([0, F(1, HUGE_PRIME)], [0, HUGE_PRIME]) is False
    assert decided == [1] and factored == [1]


def _spelled(draw, values):
    """values as a caller may pass them: a FinitePointSet, or a list of
    Fractions, "p/q" strings and, for whole values, ints, with repeats,
    in any order."""
    if draw(st.integers(0, 3)) == 0:
        return FinitePointSet.of(values)
    repeats = draw(st.lists(st.sampled_from(values), max_size=3))
    spelled = []
    for x in draw(st.permutations(values + repeats)):
        form = draw(st.sampled_from(["fraction", "string", "int"]))
        if form == "string":
            spelled.append(f"{x.numerator}/{x.denominator}")
        elif form == "int" and x.denominator == 1:
            spelled.append(x.numerator)
        else:
            spelled.append(x)
    return spelled


@st.composite
def spelled_pairs(draw):
    """(G, B, spoiled): a candidate pair spelled as callers may, and the
    two as lists with a float put somewhere in one of them."""
    g, b = draw(candidate_pairs())
    g, b = _spelled(draw, g), _spelled(draw, b)
    spoiled = [list(g), list(b)]
    side = spoiled[draw(st.integers(0, 1))]
    side.insert(draw(st.integers(0, len(side))), draw(st.floats()))
    return g, b, spoiled


@settings(max_examples=200, deadline=None)
@given(spelled_pairs())
@example(([0, "1/2", "1/2"], [1, 0], [[0, "1/2", "1/2"], [1, 0.0]]))
@example(([0, F(1, 2)], FinitePointSet.of([0, 1]), [[0, 0.5], [0, 1]]))
def test_raw_point_sets_match_their_point_set_forms(case):
    # is_spectrum reads raw iterables straight onto their integer grids;
    # the verdict is the one on the FinitePointSets, whose points are the
    # sorted distinct Fractions
    g, b, spoiled = case
    assert is_spectrum(g, b) == \
        is_spectrum(FinitePointSet.of(g), FinitePointSet.of(b))
    for raw in (g, b):
        assert FinitePointSet.of(raw).points == \
            tuple(sorted(set(map(as_fraction, raw))))
    # a float anywhere in either argument is refused
    with pytest.raises(TypeError, match="float input is not exact"):
        is_spectrum(*spoiled)


@settings(max_examples=80, deadline=None)
@given(bases(), st.integers(0, 14))
def test_enumerate_spectra_matches_brute_force_on_random_bases(base, n_max):
    gamma, p = base
    assert enumerate_spectra(gamma, p, n_max) == \
        brute_force_spectra(gamma, p, n_max)


@st.composite
def graphs(draw):
    """(n, allowed, blocks, modulus): a graph on the vertices {0, ..., n},
    n <= 13, that joins x < y when bit y - x of allowed is set; without
    blocks (modulus 0), or on Z_modulus (n = modulus - 1) joined at a
    symmetric set of differences, with up to three residue sets whose
    differences it never joins as blocks."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 13))
        return n, draw(st.integers(0, (1 << n) - 1)) << 1, (), 0
    m = draw(st.integers(1, 14))
    blocks = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1,
                                    max_size=4, unique=True), max_size=3))
    banned = {(x - y) % m for b in blocks for x in b for y in b} | {0}
    joined = draw(st.sets(st.integers(1, max(1, m // 2))))
    allowed = sum({1 << d % m for j in joined for d in (j, -j)
                   if d % m not in banned})
    return m - 1, allowed, blocks, m


@settings(max_examples=500, deadline=None)
@given(graph=graphs(), k=st.integers(1, 6))
@example(graph=(13, 0, (), 0), k=1)
@example(graph=(13, 0, (), 0), k=2)
@example(graph=(5, 0b111110, (), 0), k=6)
@example(graph=(13, (1 << 14) - 2, (), 0), k=6)
@example(graph=(11, 0b111110000, [[0, 1, 3]], 12), k=4)  # Z_12 has no cover
@example(graph=(15, 0b1011101010111010, [[0, 2, 8, 10], [3, 5, 11, 13]], 16),
         k=4)
def test_cliques_match_the_combinations_filter(graph, k):
    # the kernel on graphs neither the spectrum nor the complement search
    # builds: every k-set through 0 with each positive difference allowed,
    # in lexicographic order; blocks end only prefixes with no clique
    n, allowed, blocks, modulus = graph
    expected = [c for c in ((0,) + rest
                            for rest in combinations(range(1, n + 1), k - 1))
                if all(allowed >> (y - x) & 1 for x, y in combinations(c, 2))]
    assert list(_cliques(allowed, k, None, "clique search",
                         blocks, modulus)) == expected


def test_cliques_deadline_names_the_search():
    with pytest.raises(SearchTimeout,
                       match="^clique search passed its deadline$"):
        next(_cliques(0b110, 2, time.monotonic() - 1, "clique search"))


@settings(max_examples=150, deadline=None)
@given(bases_and_bounds())
@example(([0, F(1, 4)], 2, 13))  # M = 8: (0, 4) lifts to (0, 12)
@example(([0, 1, 2, 3], 4, 12))  # M = 4: 3^3 lifts of one clique
def test_enumerate_spectra_matches_the_stack_dfs(case):
    gamma, p, n_max = case
    assert enumerate_spectra(gamma, p, n_max) == \
        stack_dfs_spectra(gamma, p, n_max)


def test_enumerate_spectra_deadline_during_lifting(monkeypatch):
    # the clique search for Z_9 ends within its first poll; the clock then
    # jumps past every deadline, so only the first poll of the one pass
    # that lifts the cliques and wraps the lifts can notice it.
    # utc_verify lifts nothing: its common search notices the jump, and
    # the report keeps the one clique, lifted in full when it is read
    state = {"lifting": False}
    real_cliques, real_clock = spectile.spectra._spectrum_cliques, time.monotonic

    def cliques(*args):
        found = real_cliques(*args)
        state["lifting"] = True
        return found

    monkeypatch.setattr(spectile.spectra, "_spectrum_cliques", cliques)
    monkeypatch.setattr(spectile.utc, "_spectrum_cliques", cliques)
    monkeypatch.setattr(spectile.spectra.time, "monotonic",
                        lambda: real_clock() + 1e9 * state["lifting"])
    with pytest.raises(SearchTimeout):
        enumerate_spectra(range(9), 9, 36, time_budget=3600)
    assert state["lifting"]
    state["lifting"] = False
    report = utc_verify(9, range(9), 36, 81, time_budget=3600)
    assert state["lifting"]
    assert report.verdict == INCONCLUSIVE and report.certificate is None
    assert report.cliques == (tuple(range(9)),) and report.modulus == 9
    assert len(report.spectra_found) == 4 ** 8


def test_enumerate_spectra_deadline_while_wrapping(monkeypatch):
    # Z_9 within {0..27} has 3^8 lifts; the clock passes every deadline
    # once the pass has lifted and wrapped its first chunk, so only the
    # poll before its second chunk can notice it, before the final sort.
    # utc_verify wraps no lift, so the clock never jumps for it; reading
    # the report's spectra then wraps every lift, with no deadline
    built = []
    real_many, real_clock = IntSet._many, time.monotonic

    def counted(chunk):
        made = real_many(chunk)
        built.extend(made)
        return made

    monkeypatch.setattr(IntSet, "_many", staticmethod(counted))
    monkeypatch.setattr(spectile.spectra.time, "monotonic",
                        lambda: real_clock() + 1e9 * bool(built))
    with pytest.raises(SearchTimeout):
        enumerate_spectra(range(9), 9, 27, time_budget=3600)
    assert 0 < len(built) <= _POLL_INTERVAL
    built.clear()
    report = utc_verify(9, range(9), 27, 81, time_budget=3600)
    assert not built
    assert report.verdict == VERIFIED
    assert report.certificate == PeriodicSet((0,), 9)
    assert len(report.spectra_found) == len(built) == 3 ** 8


def test_enumerate_spectra_refuses_a_bad_lift(monkeypatch):
    # a clique handed to the lifts with a repeated residue: (0, 1, 1) mod
    # 3 lifts to (0, 1, 1), which the batch check must refuse as IntSet does
    real_cliques = spectile.spectra._spectrum_cliques

    def colliding(*args):
        _, modulus = real_cliques(*args)
        return [(0, 1, 1)], modulus

    monkeypatch.setattr(spectile.spectra, "_spectrum_cliques", colliding)
    with pytest.raises(ValueError, match="strictly increasing"):
        enumerate_spectra(range(3), 3, 8)


def _runs_of_increasing_tuples():
    """Chunks of strictly increasing int tuples: runs of one length, as
    _lifted makes them, of mixed lengths from 0 to 4."""
    def run(k):
        return st.lists(st.sets(st.integers(-40, 40), min_size=k, max_size=k)
                        .map(lambda s: tuple(sorted(s))), min_size=1,
                        max_size=5)
    return st.lists(st.integers(0, 4).flatmap(run), max_size=5).map(
        lambda runs: [t for r in runs for t in r])


@settings(max_examples=300, deadline=None)
@given(_runs_of_increasing_tuples())
@example([(), (), (0, 1, 2), (0, 1, 3), (5,), (), (1, 2)])
def test_intset_many_matches_one_by_one(chunk):
    made, one = IntSet._many(chunk), [IntSet(t) for t in chunk]
    assert all(type(a) is IntSet for a in made)
    assert made == one and list(map(hash, made)) == list(map(hash, one))
    assert list(map(repr, made)) == list(map(repr, one))
    for copied in (pickle.loads(pickle.dumps(made)), list(map(copy.copy, made)),
                   copy.deepcopy(made)):
        assert copied == one
        assert list(map(repr, copied)) == list(map(repr, one))


@pytest.mark.parametrize("bad", [(0, 2, 2), (0, 3, 1)],
                         ids=["repeat", "descent"])
@pytest.mark.parametrize("fill", [[(0, 1, 2)] * 4,
                                  [(), (0, 1, 2), (5,), (1, 4), (0, 1, 2)]],
                         ids=["one-length", "mixed"])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_intset_many_refuses_what_intset_refuses(bad, fill, at):
    with pytest.raises(ValueError) as one:
        IntSet(bad)
    where = {"first": 0, "middle": len(fill) // 2, "last": len(fill)}[at]
    chunk = fill[:where] + [bad] + fill[where:]
    with pytest.raises(ValueError) as many:
        IntSet._many(chunk)
    assert str(many.value) == str(one.value)
