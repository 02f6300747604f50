"""Expected answers from construction and independent arithmetic.

Nothing in this module imports spectile.  Vanishing of exponential sums is
decided here by floating-point sums that must clear a stated margin, and
tilings by an exact-once coverage count, so a wrong verdict from the code
under test cannot also make its own expected answer.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations

# A float sum below ZERO_TOL counts as vanishing and one above MARGIN as
# nonzero; anything in between is refused rather than guessed.
ZERO_TOL = 1e-9
MARGIN = 1e-6


def exp_sum_abs(points, delta: Fraction) -> float:
    """|sum_g e^(2 pi i delta g)|, reducing delta*g mod 1 exactly first."""
    return abs(sum(cmath.exp(2j * math.pi * float((delta * g) % 1))
                   for g in points))


def vanishes(points, delta: Fraction) -> bool:
    value = exp_sum_abs(points, delta)
    if ZERO_TOL < value < MARGIN:
        raise ArithmeticError(
            f"float sum {value:.3g} at delta={delta} is inside the margin")
    return value <= ZERO_TOL


def admissible_table(gamma, p: int, d_max: int) -> list[bool]:
    """table[d] tells whether the difference d (0 < d <= d_max) is allowed
    between elements of an integer spectrum A of gamma, (1/p)A a spectrum."""
    return [False] + [vanishes(gamma, Fraction(d, p))
                      for d in range(1, d_max + 1)]


def is_integer_spectrum(a, p: int, n_max: int, table) -> bool:
    a = tuple(a)
    return (len(a) == p and a[0] == 0 and a[-1] <= n_max
            and all(x < y for x, y in zip(a, a[1:]))
            and all(table[a[j] - a[i]]
                    for i in range(p) for j in range(i + 1, p)))


def tiles_once(tile, residues, m: int) -> bool:
    """Exact-once coverage count: every residue mod m is hit by exactly one
    sum a + r."""
    hits = [0] * m
    for a in tile:
        for r in residues:
            hits[(a + r) % m] += 1
    return all(h == 1 for h in hits)


def count_complements(tile, m: int) -> int:
    """Brute force over every residue set R containing 0 with
    |tile| * |R| = m; only for small m."""
    if m % len(tile):
        return 0
    return sum(tiles_once(tile, (0,) + rest, m)
               for rest in combinations(range(1, m), m // len(tile) - 1))


def count_complete_residue_sets(n: int, p: int) -> int:
    """Subsets of {0..n} containing 0 that hold one element of each residue
    class mod p: the integer spectra of a base whose admissible differences
    are exactly those not divisible by p."""
    return math.prod(len(range(r, n + 1, p)) for r in range(1, p))


def count_paired_classes(n: int) -> int:
    """Integer spectra of {0,1/2} + {0,2,4,6} with p = 8.  A difference d is
    admissible iff 4 does not divide d or d = 8 mod 16, so each class mod 4
    holds exactly two elements that differ by 8 mod 16."""
    partner_of_zero = len(range(8, n + 1, 16))

    def pairs(r: int) -> int:
        return sum(len(range(r, n + 1 - gap, 4))
                   for gap in range(8, n + 1, 16))

    return partner_of_zero * pairs(1) * pairs(2) * pairs(3)


def merged(pieces) -> list[tuple[Fraction, Fraction]]:
    """Disjoint [a, b) pieces with touching ones joined, in order."""
    out: list[list[Fraction]] = []
    for a, b in sorted(pieces):
        if out and out[-1][1] == a:
            out[-1][1] = b
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def gram_off_diagonal(pieces, lambdas) -> float:
    """Largest |<e_l, e_l'>| over distinct frequencies on a measure-one
    union of [a, b) pieces, summed in closed form."""
    worst = 0.0
    for i, li in enumerate(lambdas):
        for lj in lambdas[i + 1:]:
            mu = float(li - lj)
            total = sum(cmath.exp(2j * math.pi * mu * float(b))
                        - cmath.exp(2j * math.pi * mu * float(a))
                        for a, b in pieces)
            worst = max(worst, abs(total / (2j * math.pi * mu)))
    return worst
