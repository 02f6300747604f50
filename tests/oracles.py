"""Independent oracles that the tests check the exact code against.

brute_force_spectra tests every candidate set directly,
brute_common_complement every candidate complement, covers_once counts
the covers of each residue by a tile and its complement, root_sum_value
evaluates a sum of roots of unity in floating point, and is_p_tile counts
translates at sample points; none shares a search, a divisibility test or
the fiber sweep with the code under test.
"""

import cmath
import math
from fractions import Fraction
from itertools import combinations

from spectile import FinitePointSet, IntSet, PeriodicSet, is_spectrum
from spectile.cyclotomic import ResidueMultiset
from spectile.spectra import _as_int, _base_points

BRUTE_FORCE_GUARD = 10**7


class ResourceLimitError(RuntimeError):
    """Raised when a brute-force enumeration would exceed its safety guard."""


def brute_force_spectra(g, p: int, n_max: int) -> list[IntSet]:
    """Independent oracle for enumerate_spectra: test every p-subset of
    {0, ..., n_max} containing 0 directly with is_spectrum."""
    g, p = _base_points(g, p)
    n_max = _as_int(n_max, "n_max", 0)
    if math.comb(n_max, p - 1) > BRUTE_FORCE_GUARD:
        raise ResourceLimitError(
            f"C({n_max}, {p - 1}) subsets exceed the guard of {BRUTE_FORCE_GUARD}")
    out = []
    for rest in combinations(range(1, n_max + 1), p - 1):
        a = (0,) + rest
        scaled = FinitePointSet.of(Fraction(x, p) for x in a)
        if is_spectrum(g, scaled):
            out.append(IntSet(a))
    return out


def covers_once(a, residues, m: int) -> bool:
    """Does A + (R + mZ) cover every integer exactly once?  Counts the
    covers of each residue of Z_m by the sums x + r, x in A, r in R."""
    counts = [0] * m
    for x in a:
        for r in residues:
            counts[(x + r) % m] += 1
    return counts == [1] * m


def brute_common_complements(family, m: int):
    """Every R with 0 in R and |R| = m/p in Z_m, in lexicographic order,
    such that each member A of the family (p elements each) covers every
    residue of Z_m exactly once with A + R, by counting the covers."""
    p = len(family[0])
    for rest in combinations(range(1, m), m // p - 1):
        residues = (0,) + rest
        if all(covers_once(a, residues, m) for a in family):
            yield residues


def brute_common_complement(family, m_max: int):
    """Independent oracle for the common-complement searches: at each
    period m = p, 2p, ..., m_max in turn, the first R that
    brute_common_complements lists, as R + mZ; None if no period has one."""
    p = len(family[0])
    for m in range(p, m_max + 1, p):
        for residues in brute_common_complements(family, m):
            return PeriodicSet(residues, m)
    return None


def root_sum_value(multiset: ResidueMultiset) -> complex:
    """Floating-point value of  sum_e e^(2 pi i e / m),  the cross-check
    oracle for root_sum_is_zero."""
    m = multiset.modulus
    return sum((cmath.exp(2j * cmath.pi * e / m) for e in multiset.entries), 0j)


def is_p_tile(omega, p: int) -> bool:
    """Does omega cover almost every real point exactly p times under
    (1/p)Z-translations?  The count is constant between the endpoints
    reduced mod 1/p, so it is taken once at the midpoint x of each such
    cell: [a, b) holds x + k/p for ceil(p(a - x)) <= k < ceil(p(b - x)).
    The library reads the same verdict off its fibers:
    all(len(c.fiber) == p for c in fibers(omega, p).cells)."""
    step = Fraction(1, p)
    cuts = sorted({x % step for pair in omega.intervals for x in pair}
                  | {Fraction(0), step})
    for lo, hi in zip(cuts, cuts[1:]):
        x = (lo + hi) / 2
        if p != sum(math.ceil(p * (b - x)) - math.ceil(p * (a - x))
                    for a, b in omega.intervals):
            return False
    return True
