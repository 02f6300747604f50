"""Spectra of finite point sets.

A finite set B is a spectrum of a finite set G when the exponentials
e^(2 pi i b x), b in B, are mutually orthogonal over the counting measure
on G and |B| = |G|.  For rational data every orthogonality question reduces
to a vanishing sum of roots of unity, decided exactly by the cyclotomic
module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional, Union

from .cyclotomic import ResidueMultiset, root_sum_is_zero

RationalLike = Union[Fraction, int, str]

BRUTE_FORCE_GUARD = 10**7

# deadline polls happen once per this many search nodes
_POLL_INTERVAL = 1024


class ResourceLimitError(RuntimeError):
    """Raised when a brute-force enumeration would exceed its safety guard."""


class SearchTimeout(RuntimeError):
    """Raised when a spectrum enumeration or a complement search passes its
    cooperative deadline."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction; floats are refused so no inexact value
    can sneak into an exact verdict."""
    if isinstance(value, float):
        raise TypeError("float input is not exact; pass a Fraction, int, or 'num/den' string")
    return Fraction(value)


@dataclass(frozen=True, order=True)
class FinitePointSet:
    """Sorted tuple of distinct rationals."""

    points: tuple[Fraction, ...]

    def __post_init__(self):
        for a, b in zip(self.points, self.points[1:]):
            if not a < b:
                raise ValueError("points must be strictly increasing")

    @classmethod
    def of(cls, points: Iterable[RationalLike]) -> "FinitePointSet":
        if isinstance(points, FinitePointSet):
            return points
        return cls(tuple(sorted(set(as_fraction(p) for p in points))))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, value) -> bool:
        return value in self.points

    def translate(self, c: RationalLike) -> "FinitePointSet":
        c = as_fraction(c)
        return FinitePointSet(tuple(p + c for p in self.points))

    def scale(self, c: RationalLike) -> "FinitePointSet":
        c = as_fraction(c)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        return FinitePointSet.of(p * c for p in self.points)

    def canonicalize(self) -> "FinitePointSet":
        """Translate so the minimum is 0."""
        if not self.points:
            return self
        return self.translate(-self.points[0])


@dataclass(frozen=True, order=True)
class IntSet:
    """Sorted tuple of distinct integers."""

    elements: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.elements, self.elements[1:]):
            if not a < b:
                raise ValueError("elements must be strictly increasing")

    @classmethod
    def of(cls, elements: Iterable[int]) -> "IntSet":
        if isinstance(elements, IntSet):
            return elements
        return cls(tuple(sorted(set(int(e) for e in elements))))

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value) -> bool:
        return value in self.elements

    def canonicalize(self) -> "IntSet":
        if not self.elements:
            return self
        base = self.elements[0]
        return IntSet(tuple(e - base for e in self.elements))


def exponential_sum_vanishes(points: Iterable[Fraction], delta: Fraction) -> bool:
    """Exact test of  sum_{g in points} e^(2 pi i delta g) == 0."""
    terms = [delta * g for g in points]
    if not terms:
        return True
    m = math.lcm(*(t.denominator for t in terms))
    entries = ((t.numerator * (m // t.denominator)) % m for t in terms)
    return root_sum_is_zero(ResidueMultiset.of(m, entries))


def is_spectrum(g: FinitePointSet | Iterable[RationalLike],
                b: FinitePointSet | Iterable[RationalLike]) -> bool:
    """Exact spectral-pair verdict: |B| = |G| and every pair b != b' in B
    satisfies  sum_{g in G} e^(2 pi i (b - b') g) == 0."""
    g = FinitePointSet.of(g)
    b = FinitePointSet.of(b)
    if len(g) != len(b):
        return False
    for b1, b2 in combinations(b.points, 2):
        if not exponential_sum_vanishes(g.points, b2 - b1):
            return False
    return True


def _base_points(g: FinitePointSet | Iterable[RationalLike],
                 p: int) -> FinitePointSet:
    """G as a point set, checked to have p elements for a positive p."""
    g = FinitePointSet.of(g)
    if p < 1:
        raise ValueError("p must be positive")
    if len(g) != p:
        raise ValueError(f"point set has {len(g)} elements, expected p = {p}")
    return g


def admissible_differences(g: FinitePointSet | Iterable[RationalLike],
                           p: int, d_max: int) -> tuple[int, ...]:
    """All nonzero integers d with |d| <= d_max such that
    sum_{g in G} e^(2 pi i g d / p) vanishes exactly.

    These are precisely the differences allowed between elements of an
    integer set A for which (1/p)A is a spectrum of G.
    """
    g = _base_points(g, p)
    if d_max < 1:
        raise ValueError("d_max must be positive")
    out = []
    for d in range(1, d_max + 1):
        # conjugation makes the test symmetric in d -> -d
        if exponential_sum_vanishes(g.points, Fraction(d, p)):
            out.append(-d)
            out.append(d)
    return tuple(sorted(out))


def enumerate_spectra(g: FinitePointSet | Iterable[RationalLike],
                      p: int, n_max: int, *,
                      deadline: Optional[float] = None) -> list[IntSet]:
    """All A within {0, ..., n_max} with 0 in A, |A| = p, and every pairwise
    difference admissible; equivalently all A for which (1/p)A is a spectrum
    of G.  Backtracking over candidates in ascending order, so the output is
    already sorted lexicographically.

    deadline is an absolute time.monotonic() value, checked before the
    first node and then every _POLL_INTERVAL nodes; passing it raises
    SearchTimeout.
    """
    g = _base_points(g, p)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    allowed = (set(d for d in admissible_differences(g, p, n_max) if d > 0)
               if n_max >= 1 else set())
    results: list[IntSet] = []
    chosen = [0]
    nodes = 0

    def extend(start: int) -> None:
        nonlocal nodes
        if deadline is not None:
            if nodes % _POLL_INTERVAL == 0 and time.monotonic() > deadline:
                raise SearchTimeout(
                    f"spectrum enumeration passed its deadline after "
                    f"{len(results)} spectra")
            nodes += 1
        if len(chosen) == p:
            results.append(IntSet(tuple(chosen)))
            return
        room = p - len(chosen)
        for c in range(start, n_max - room + 2):
            if all(c - a in allowed for a in chosen):
                chosen.append(c)
                extend(c + 1)
                chosen.pop()

    extend(1)
    return results


def brute_force_spectra(g: FinitePointSet | Iterable[RationalLike],
                        p: int, n_max: int) -> list[IntSet]:
    """Independent oracle for enumerate_spectra: test every p-subset of
    {0, ..., n_max} containing 0 directly with is_spectrum."""
    g = _base_points(g, p)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if math.comb(max(n_max, 0), p - 1) > BRUTE_FORCE_GUARD:
        raise ResourceLimitError(
            f"C({n_max}, {p - 1}) subsets exceed the guard of {BRUTE_FORCE_GUARD}")
    out = []
    for rest in combinations(range(1, n_max + 1), p - 1):
        a = (0,) + rest
        scaled = FinitePointSet.of(Fraction(x, p) for x in a)
        if is_spectrum(g, scaled):
            out.append(IntSet(a))
    return out
