"""Cyclotomic polynomials and vanishing sums of roots of unity,
cross-checked against sympy and direct float evaluation."""

import doctest
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectile import cyclotomic
from spectile.cyclotomic import (ResidueMultiset, cyclotomic_poly,
                                 root_sum_is_zero)
from oracles import root_sum_value


def test_doctests_pass():
    failed, attempted = doctest.testmod(cyclotomic)
    assert attempted > 0
    assert failed == 0


def test_cyclotomic_matches_sympy():
    x = sympy.Symbol("x")
    for m in range(1, 211):
        ours = cyclotomic_poly(m)
        theirs = tuple(reversed(sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()))
        assert ours == theirs, f"cyclotomic mismatch at m={m}"


def test_cyclotomic_degree_is_totient():
    for m in range(1, 40):
        coeffs = cyclotomic_poly(m)
        assert coeffs[-1] == 1
        assert len(coeffs) - 1 == sympy.totient(m)


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)
    with pytest.raises(ValueError):
        cyclotomic_poly(-3)


def test_residue_multiset_validation():
    ms = ResidueMultiset.of(6, [7, 1, -2, 4])
    assert ms.entries == (1, 1, 4, 4)
    assert len(ms) == 4
    with pytest.raises(ValueError):
        ResidueMultiset(0, ())
    with pytest.raises(ValueError):
        ResidueMultiset(4, (4,))
    # modulus and entries follow the one integer policy of the package
    with pytest.raises(TypeError, match="float input is not exact"):
        ResidueMultiset.of(4, [0, 1.5])
    with pytest.raises(TypeError, match="float input is not exact"):
        ResidueMultiset.of(2.0, [0, 1.5])
    with pytest.raises(ValueError, match="1/2 is not an integer"):
        ResidueMultiset.of(4, ["1/2"])
    with pytest.raises(ValueError, match="modulus must be positive"):
        ResidueMultiset.of(0, [])
    # the constructor stores integral Fractions as ints
    ms = ResidueMultiset(Fraction(6, 2), (0, Fraction(4, 2)))
    assert ms == ResidueMultiset(3, (0, 2))
    assert type(ms.modulus) is int and all(type(e) is int for e in ms.entries)


def test_known_vanishing_sums():
    # full group, subgroup cosets, and the empty sum all vanish
    assert root_sum_is_zero(ResidueMultiset.of(1, []))
    assert root_sum_is_zero(ResidueMultiset.of(5, range(5)))
    assert root_sum_is_zero(ResidueMultiset.of(6, [0, 2, 4]))
    assert root_sum_is_zero(ResidueMultiset.of(6, [1, 3, 5]))
    assert root_sum_is_zero(ResidueMultiset.of(12, [1, 4, 7, 10]))
    # sums of two disjoint vanishing sets vanish
    assert root_sum_is_zero(ResidueMultiset.of(6, [0, 3, 1, 3, 5]))
    assert not root_sum_is_zero(ResidueMultiset.of(6, [0]))
    assert not root_sum_is_zero(ResidueMultiset.of(4, [0, 1]))
    assert not root_sum_is_zero(ResidueMultiset.of(1, [0, 0]))


def test_vanishing_invariant_under_rotation():
    rng = random.Random(303)
    for _ in range(100):
        m = rng.randint(1, 30)
        entries = [rng.randrange(m) for _ in range(rng.randint(0, 6))]
        ms = ResidueMultiset.of(m, entries)
        shift = rng.randrange(m)
        rotated = ResidueMultiset.of(m, (e + shift for e in ms.entries))
        assert root_sum_is_zero(ms) == root_sum_is_zero(rotated)


def test_exact_and_float_agree_on_random_multisets():
    rng = random.Random(404)
    for _ in range(500):
        m = rng.randint(1, 40)
        entries = [rng.randrange(m) for _ in range(rng.randint(0, 8))]
        ms = ResidueMultiset.of(m, entries)
        assert root_sum_is_zero(ms) == (abs(root_sum_value(ms)) < 1e-9)


def test_float_value_matches_direct_sum():
    ms = ResidueMultiset.of(7, [0, 2, 3, 3])
    direct = sum(complex(math.cos(2 * math.pi * e / 7),
                         math.sin(2 * math.pi * e / 7)) for e in ms.entries)
    assert abs(root_sum_value(ms) - direct) < 1e-12


def sympy_root_sum_is_zero(ms: ResidueMultiset) -> bool:
    x = sympy.Symbol("x")
    mask = [0] * ms.modulus
    for e in ms.entries:
        mask[e] += 1
    f = sympy.Poly(list(reversed(mask)), x)
    return f.rem(sympy.Poly(sympy.cyclotomic_poly(ms.modulus, x), x)).is_zero


def test_root_sum_matches_sympy_remainder():
    # unions of rotated prime cosets, plus for moduli with three primes
    # q1, q2, q3 the vanishing sum (nontrivial q1-th roots) * (nontrivial
    # q2-th roots) + (nontrivial q3-th roots) = (-1)(-1) + (-1), which is
    # no union of prime cosets; noise makes about half of them nonzero
    rng = random.Random(505)
    moduli = [30, 60, 105, 210] * 15 + [rng.randint(1, 210) for _ in range(140)]
    verdicts = []
    for m in moduli:
        primes = sympy.primefactors(m)
        entries = []
        for _ in range(rng.randint(0, 2) if primes else 0):
            q, r = rng.choice(primes), rng.randrange(m)
            entries += [r + k * (m // q) for k in range(q)]
        if len(primes) >= 3 and rng.random() < 0.8:
            q1, q2, q3 = rng.sample(primes, 3)
            r = rng.randrange(m)
            entries += [r + i * (m // q1) + j * (m // q2)
                        for i in range(1, q1) for j in range(1, q2)]
            entries += [r + k * (m // q3) for k in range(1, q3)]
        if rng.random() < 0.4:
            entries += [rng.randrange(m) for _ in range(rng.randint(1, 3))]
        ms = ResidueMultiset.of(m, entries)
        verdicts.append(root_sum_is_zero(ms))
        assert verdicts[-1] == sympy_root_sum_is_zero(ms), (m, ms.entries)
    assert 50 < sum(verdicts) < len(verdicts) - 50


def dense_cyclotomic_divides(m: int, terms: dict[int, int]) -> bool:
    """Oracle for the sparse kernel: the same shift-and-subtract per prime
    of m, run on the dense length-m mask."""
    mask = [0] * m
    for e, c in terms.items():
        mask[e] += c
    for q in sympy.primefactors(m):
        k = m // q
        mask = [a - b for a, b in zip(mask[k:] + mask[:k], mask)]
    return not any(mask)


@st.composite
def signed_sums(draw):
    """(m, terms) with m <= 30030: signed rotated prime cosets, which
    vanish, plus repeated exponents, terms that cancel to a zero
    coefficient, and noise."""
    m = draw(st.one_of(st.integers(1, 30030),
                       st.sampled_from([1, 2, 12, 210, 2310, 30030])))
    primes = sympy.primefactors(m)
    terms: dict[int, int] = {}

    def add(e, c):
        terms[e % m] = terms.get(e % m, 0) + c

    coefficients = st.sampled_from([-2, -1, 1, 2])
    for _ in range(draw(st.integers(0, 3)) if primes else 0):
        q, r, c = (draw(st.sampled_from(primes)),
                   draw(st.integers(0, m - 1)), draw(coefficients))
        for j in range(q):
            add(r + j * (m // q), c)
    for e in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        c = draw(coefficients)
        add(e, c)
        add(e, -c)
    for e in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        for _ in range(draw(st.integers(1, 3))):
            add(e, draw(coefficients))
    return m, terms


@settings(max_examples=200, deadline=None)
@given(signed_sums())
@example((30030, {0: 1, 15015: 1}))  # 1 + (-1)
@example((30030, {0: 1, 10010: 1, 20020: 1, 1: 0}))  # a coset and a zero
@example((30030, {0: 1, 1: -1}))
@example((1, {0: 0}))
def test_sparse_kernel_matches_dense_mask(case):
    m, terms = case
    assert cyclotomic._cyclotomic_divides(m, dict(terms)) == \
        dense_cyclotomic_divides(m, terms)


def test_prime_factors_match_sympy_and_the_cache_is_bounded():
    for m in list(range(1, 400)) + [223092870, 10**9 + 7, 2**31 - 1,
                                    4 * (10**9 + 7), 2**10 * 3**7]:
        assert cyclotomic._prime_factors(m) == tuple(sympy.primefactors(m))
    assert isinstance(cyclotomic._prime_factors.cache_info().maxsize, int)
