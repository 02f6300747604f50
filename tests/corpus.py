"""Shared instances used across test modules.

SPECTRAL_CORPUS entries are (omega, gamma, p) triples whose periodic
spectrum verdict is exactly true; NEGATIVE_CORPUS entries are triples
whose verdict is exactly false.  bases() and bases_and_bounds() draw
random spectrum bases for the property tests.
"""

import math
from fractions import Fraction as F

from hypothesis import assume
from hypothesis import strategies as st

import spectile as sp


def iu(*pairs):
    return sp.IntervalUnion.of(pairs)


UNIT = iu((0, 1))
OMEGA_2 = sp.build_omega(2, [[0, 1], [0, 3]], [0, F(1, 4), F(1, 2)])
OMEGA_SHIFT = iu((0, F(1, 2)), (F(3, 2), 2))
OMEGA_3 = sp.build_omega(3, [[0, 1, 2], [0, 1, 5]], [0, F(1, 6), F(1, 3)])
OMEGA_HALF = sp.build_omega(2, [[0, 2], [0, 6]], [0, F(1, 4), F(1, 2)])

SPECTRAL_CORPUS = [
    (UNIT, (0,), 1),
    (UNIT, (0, 1), 2),
    (OMEGA_2, (0, 1), 2),
    (OMEGA_SHIFT, (0, 1), 2),
    (OMEGA_3, (0, 1, 2), 3),
    (OMEGA_HALF, (0, F(1, 2)), 2),
]

NEGATIVE_CORPUS = [
    (UNIT, (0, F(1, 2)), 2),
    (iu((0, F(1, 2))), (0, 1), 2),
    (OMEGA_2, (0, F(1, 2)), 2),
]


@st.composite
def bases(draw):
    """p points of [0, p) with denominators 1-4, one of them 0; half are
    sums of two progressions, which have more spectra than random sets."""
    p = draw(st.integers(2, 6))
    if draw(st.booleans()):
        p1 = draw(st.sampled_from([d for d in range(1, p + 1) if p % d == 0]))
        x, y = (F(draw(st.integers(1, 4 * p - 1)), draw(st.integers(1, 4)))
                for _ in range(2))
        points = {(x * i + y * j) % p for i in range(p1)
                  for j in range(p // p1)}
    else:
        points = {F(0)} | set(draw(st.lists(
            st.builds(lambda n, d: F(n % (p * d), d),
                      st.integers(1, 24), st.integers(1, 4)),
            min_size=p - 1, max_size=p - 1)))
    assume(len(points) == p)
    return sorted(points), p


@st.composite
def bases_and_bounds(draw):
    """(gamma, p, n_max): a base from bases() and n_max up to 3M, capped
    at 48, where M = p * lcm(denominators), so that the spectra are often
    lifts of residue cliques mod M."""
    gamma, p = draw(bases())
    modulus = p * math.lcm(*(g.denominator for g in gamma))
    return gamma, p, draw(st.integers(0, min(3 * modulus, 48)))
