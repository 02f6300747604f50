"""Spectra of finite point sets.

A finite set B is a spectrum of a finite set G when the exponentials
e^(2 pi i b x), b in B, are mutually orthogonal over the counting measure
on G and |B| = |G|.  For rational data every orthogonality question reduces
to a vanishing sum of roots of unity, decided exactly by the cyclotomic
module.
"""

from __future__ import annotations

import math
import operator
import time
from collections import Counter, deque
from fractions import Fraction
from itertools import (chain, combinations, groupby, islice, product, repeat,
                       starmap)
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .cyclotomic import (RationalLike, _as_int, _cyclotomic_divides, _Value,
                         as_fraction)

# deadline polls happen once per this many search nodes
_POLL_INTERVAL = 1024


class SearchTimeout(RuntimeError):
    """Raised when a spectrum enumeration or a complement search passes its
    cooperative deadline."""


def _deadline(start: float, time_budget: Optional[float]) -> Optional[float]:
    """start + time_budget, None for no budget; 0 is a spent budget.  A NaN
    deadline would never pass, so NaN, like a negative budget, raises."""
    if time_budget is None:
        return None
    if not time_budget >= 0:
        raise ValueError(f"time_budget must be nonnegative, not {time_budget}")
    return start + time_budget


def _check_increasing(values: tuple, what: str) -> None:
    """Raise ValueError unless values is strictly increasing."""
    if not all(map(operator.lt, values, values[1:])):
        raise ValueError(f"{what} must be strictly increasing")


class FinitePointSet(_Value):
    """Sorted tuple of distinct rationals."""

    __slots__ = _fields = ("points",)
    points: tuple[Fraction, ...]

    def __post_init__(self):
        _check_increasing(self.points, "points")

    @classmethod
    def of(cls, points: Iterable[RationalLike]) -> "FinitePointSet":
        """The distinct points, ascending, deduped and ordered as ints on
        their common grid rather than as Fractions."""
        if isinstance(points, FinitePointSet):
            return points
        values = tuple(map(as_fraction, points))
        by_key = dict(zip(_over_common_denominator(values)[1], values))
        return cls(tuple(map(by_key.__getitem__, sorted(by_key))))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, value) -> bool:
        return as_fraction(value) in self.points


class IntSet(_Value):
    """Sorted tuple of distinct integers."""

    __slots__ = _fields = ("elements",)
    elements: tuple[int, ...]

    # a family can hold tens of thousands of these, and roundtrip compares
    # and hashes its fibers, so the one-field methods skip the base's loops
    def __init__(self, elements: tuple[int, ...]):
        object.__setattr__(self, "elements", elements)
        self.__post_init__()

    def __post_init__(self):
        _check_increasing(self.elements, "elements")

    @classmethod
    def _many(cls, chunk: Sequence[tuple[int, ...]]) -> list["IntSet"]:
        """[cls(t) for t in chunk], without a Python frame per set.

        Each run of tuples of one length k is flattened once and checked
        column by column, element j of every tuple below its element
        j + 1, raising the ValueError cls(t) raises; the sets are then
        made by object.__new__ and the slot's setter."""
        for k, run in groupby(chunk, len):
            flat = list(chain.from_iterable(run))
            if not all(all(map(operator.lt, flat[j::k], flat[j + 1::k]))
                       for j in range(k - 1)):
                raise ValueError("elements must be strictly increasing")
        out = list(map(object.__new__, repeat(cls, len(chunk))))
        deque(map(cls.elements.__set__, out, chunk), 0)
        return out

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self):
        return hash((self.elements,))

    @classmethod
    def of(cls, elements: Iterable[int]) -> "IntSet":
        if isinstance(elements, IntSet):
            return elements
        return cls(tuple(sorted(set(_as_int(e) for e in elements))))

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value) -> bool:
        return value in self.elements


def _over_common_denominator(points: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """(D, [D*x for x in points]) with D the lcm of the denominators."""
    ratios = list(map(Fraction.as_integer_ratio, points))
    den = math.lcm(*(d for _, d in ratios))
    return den, [n * (den // d) for n, d in ratios]


def _point_grid(points: FinitePointSet | Iterable[RationalLike],
                ) -> tuple[int, list[int]]:
    """(D, the distinct D*x for x in points, ascending) with D the lcm of
    the denominators: the points read once onto the grid (1/D)Z, where
    they are deduped and sorted as ints."""
    values = (points.points if isinstance(points, FinitePointSet)
              else tuple(map(as_fraction, points)))
    den, numerators = _over_common_denominator(values)
    return den, sorted(set(numerators))


def _vanishing_test(den: int, numerators: Sequence[int],
                    q: int) -> Callable[[Iterable[int]], bool]:
    """Test of whether  sum_{g in G} e^(2 pi i g d / q) == 0  for every d
    in an iterable of integers, with G the points n/den for n in
    numerators (a multiset).

    With M = q*den and n_g = den*g, the sum is
    sum_g zeta_M^(n_g d).  Write s = M / gcd(d, M) and d = (M/s) d' with
    gcd(d', s) = 1: the sum is the image of  sum_g zeta_s^(n_g)  under the
    Galois automorphism zeta_s -> zeta_s^d', which is injective, so the
    answer depends on d only through its order s; s = 1 gives the point
    count.  So the differences are reduced by C-level maps to their
    distinct orders, which are decided in ascending order up to the first
    that does not vanish.  A plain dict keeps each order's verdict, so
    every order is decided once per (G, q) however many calls share the
    test, and _prime_factors, behind the shift test, factors it once per
    process.  M is factored only if it is itself a tested order.  The
    shift test reads only the exponents n_g mod s, whatever the size of s.
    """
    modulus = q * den
    decided: dict[int, bool] = {}

    def order_vanishes(s: int) -> bool:
        if s not in decided:
            decided[s] = _cyclotomic_divides(
                s, Counter(map(s.__rmod__, numerators)))
        return decided[s]

    def vanishes(differences: Iterable[int]) -> bool:
        orders = set(map(modulus.__floordiv__,
                         map(math.gcd, differences, repeat(modulus))))
        return all(map(order_vanishes, sorted(orders)))

    return vanishes


def exponential_sum_vanishes(points: Iterable[RationalLike],
                             delta: RationalLike) -> bool:
    """Exact test of  sum_{g in points} e^(2 pi i delta g) == 0."""
    delta = as_fraction(delta)
    den, numerators = _over_common_denominator(tuple(map(as_fraction, points)))
    return _vanishing_test(den, numerators, delta.denominator)(
        (delta.numerator,))


def _spectrum_test(g: FinitePointSet | Iterable[RationalLike],
                   q: int) -> Callable[[Sequence[int]], bool]:
    """Test of whether (1/q)A is a spectrum of G for sets A of distinct
    integers.  G is read onto its grid once, and one _vanishing_test
    serves every set tested: each set's pairwise differences are reduced
    to their distinct orders, and each order is decided once per (G, q)."""
    den, numerators = _point_grid(g)
    vanishes = _vanishing_test(den, numerators, q)
    return lambda a: len(a) == len(numerators) and vanishes(
        starmap(operator.sub, combinations(a, 2)))


def is_spectrum(g: FinitePointSet | Iterable[RationalLike],
                b: FinitePointSet | Iterable[RationalLike]) -> bool:
    """Exact spectral-pair verdict: |B| = |G| and every pair b != b' in B
    satisfies  sum_{g in G} e^(2 pi i (b - b') g) == 0.

    Both sets are read once onto their integer grids, so plain iterables
    are never built into FinitePointSets: with B = {m/D}, the pairs are
    tested as the integer set {m} at q = D."""
    den, numerators = _point_grid(b)
    return _spectrum_test(g, den)(numerators)


def _base_points(g: FinitePointSet | Iterable[RationalLike],
                 p: int) -> tuple[FinitePointSet, int]:
    """G as a point set and p as an int, checked: p > 0 points in G."""
    g, p = FinitePointSet.of(g), _as_int(p, "p", 1)
    if len(g) != p:
        raise ValueError(f"point set has {len(g)} elements, expected p = {p}")
    return g, p


def spectrum_base(gamma, p: int) -> tuple[FinitePointSet, int]:
    """(Gamma, p) checked to be the base and period of a candidate spectrum
    Gamma + pZ: p points in [0, p), one of them 0; p as an int."""
    gamma, p = _base_points(gamma, p)
    if Fraction(0) not in gamma.points:
        raise ValueError("spectrum base must contain 0")
    for g in gamma:
        if not 0 <= g < p:
            raise ValueError(f"base point {g} outside [0, {p})")
    return gamma, p


def admissible_differences(g: FinitePointSet | Iterable[RationalLike],
                           p: int, d_max: int) -> tuple[int, ...]:
    """All nonzero integers d with |d| <= d_max such that
    sum_{g in G} e^(2 pi i g d / p) vanishes exactly.

    These are precisely the differences allowed between elements of an
    integer set A for which (1/p)A is a spectrum of G.  The sum at -d is
    the conjugate of the sum at d, so only d > 0 is tested (_admissible).
    """
    g, p = _base_points(g, p)
    positive = _admissible(*_point_grid(g), p, _as_int(d_max, "d_max", 1))
    return (*(-d for d in reversed(positive)), *positive)


def _poll_chunks(items: Iterable, deadline: Optional[float],
                 what: str) -> Iterator[list]:
    """items in lists of at most _POLL_INTERVAL, with the deadline checked
    before each list, the first included; passing it raises SearchTimeout
    naming what passed it."""
    items = iter(items)
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout(f"{what} passed its deadline")
        chunk = list(islice(items, _POLL_INTERVAL))
        if not chunk:
            return
        yield chunk


def _cliques(allowed: int, k: int, deadline: Optional[float], what: str,
             blocks: Sequence[Sequence[int]] = (), modulus: int = 0,
             ) -> Iterator[tuple[int, ...]]:
    """Every k-set of nonnegative integers containing 0 whose positive
    differences are all bits of allowed (bit d for the difference d; bit
    0 is clear), as ascending tuples in lexicographic order: the k-cliques
    through 0 of the graph that joins x < y when bit y - x is set.

    Depth-first on a stack of prefixes with bitsets of their candidates,
    the vertices above a prefix joined to all of it.  A prefix takes its
    smallest candidate and then drops it, so the cliques come out in
    lexicographic order; with just as many candidates as members short,
    it takes them all if they are a clique, and with fewer it ends.

    blocks are residue sets B mod modulus (the vertices then lie in
    [0, modulus)) with no d in B - B that has bit d or bit modulus - d in
    allowed.  The translates q + B of a clique's members are then disjoint
    mod modulus, so a prefix whose candidates C have |C + B| below |B|
    times the members it is short ends too.  On the tables of a tiling
    this is the exact-cover test: each residue the prefix's translates
    leave uncovered lies in a candidate's translate.  Without it a search
    with no clique could take time exponential in k.  The deadline is
    checked before the first node and then every _POLL_INTERVAL nodes;
    passing it raises SearchTimeout naming what.
    """
    full = (1 << modulus) - 1
    stack = [((0,), allowed)]
    nodes = 0
    while stack:
        if (deadline is not None and nodes % _POLL_INTERVAL == 0
                and time.monotonic() > deadline):
            raise SearchTimeout(f"{what} passed its deadline")
        nodes += 1
        chosen, cand = stack.pop()
        need, size = k - len(chosen), cand.bit_count()
        if not need:  # k = 1: the root is the one clique
            yield chosen
        elif size == need:  # all the candidates, if they are a clique
            tail = []
            while cand:
                low = cand & -cand
                cand ^= low
                tail.append(low.bit_length() - 1)
                if cand >> tail[-1] & ~allowed:
                    break
            else:
                yield chosen + tuple(tail)
        elif size > need:
            twice = cand << modulus | cand  # twice << t: C + t in bits
            # modulus to 2 * modulus - 1, mod modulus
            for block in blocks:
                spread = 0
                for t in block:
                    spread |= twice << t
                if (spread >> modulus & full).bit_count() < need * len(block):
                    break
            else:
                low = cand & -cand
                c = low.bit_length() - 1
                stack.append((chosen, cand ^ low))  # then without c
                stack.append((chosen + (c,), cand & allowed << c))


def _admissible(den: int, numerators: Sequence[int], p: int, d_max: int,
                deadline: Optional[float] = None) -> list[int]:
    """The d in 1..d_max, ascending, at which the sum over the points
    n/den, n in numerators, of e^(2 pi i n d / (p den)) vanishes, tested in
    chunks of _POLL_INTERVAL with the deadline checked before each, the
    first included."""
    vanishes = _vanishing_test(den, numerators, p)
    return [d for chunk in _poll_chunks(range(1, d_max + 1), deadline,
                                        "spectrum enumeration")
            for d in chunk if vanishes((d,))]


def _spectrum_cliques(g: FinitePointSet, p: int, n_max: int,
                      deadline: Optional[float] = None,
                      ) -> tuple[list[tuple[int, ...]], int]:
    """(cliques, M), M = p * lcm(denominators of G): every p-clique mod M
    among the residues {0, ..., min(n_max, M - 1)}, ascending, in
    lexicographic order, from _cliques on the admissible differences."""
    den, numerators = _point_grid(g)
    modulus = p * den
    allowed = sum(1 << d for d in _admissible(
        den, numerators, p, min(n_max, modulus - 1), deadline))
    return (list(_cliques(allowed, p, deadline, "spectrum enumeration")),
            modulus)


def _lift_ranges(clique: tuple[int, ...], modulus: int,
                 n_max: int) -> list[range]:
    """The lifts of each residue of the clique, in its order: 0 stays 0,
    and r > 0 takes every r + kM <= n_max, k >= 0, M = modulus."""
    return [range(r, n_max + 1, modulus) if r else range(1) for r in clique]


def _lifted(cliques: Iterable[tuple[int, ...]], modulus: int, n_max: int,
            deadline: Optional[float] = None) -> list[IntSet]:
    """Every choice of lifts of each clique (_lift_ranges) as IntSets,
    sorted lexicographically, in one pass over chunks of _POLL_INTERVAL
    with the deadline checked before each and no Python frame per member:
    each chunk's tuples are sorted by C-level maps and wrapped by
    IntSet._many, which checks them strictly increasing.  The one sort of
    all the sets, at the end, is not polled."""
    lifts = chain.from_iterable(product(*_lift_ranges(c, modulus, n_max))
                                for c in cliques)
    out: list[IntSet] = []
    # sorted drops each product tuple at once, so product reuses it
    for chunk in _poll_chunks(map(tuple, map(sorted, lifts)), deadline,
                              "spectrum enumeration"):
        out += IntSet._many(chunk)
    out.sort(key=operator.attrgetter("elements"))
    return out


def enumerate_spectra(g: FinitePointSet | Iterable[RationalLike],
                      p: int, n_max: int, *,
                      time_budget: Optional[float] = None) -> list[IntSet]:
    """All A within {0, ..., n_max} with 0 in A, |A| = p, and every pairwise
    difference admissible; equivalently all A for which (1/p)A is a spectrum
    of G.  Sorted lexicographically.

    The search runs on residues mod M = p*D, D the lcm of the denominators
    of G, and lifts what it finds.  Lemma: A is such a set iff A mod M is
    a p-clique C, that is a p-set of residues with 0 in it and every
    pairwise difference admissible, and A takes 0 for the residue 0 and
    some r + kM <= n_max, k >= 0, for every other residue r of C.
    Proof.  With n_g = D*g, the sum for a difference d is
    sum_g e^(2 pi i n_g d / M), a function of d mod M; at d = 0 mod M it is
    p != 0.  So the elements of A are pairwise distinct mod M, A mod M has
    p residues, and a difference of two of them is admissible iff the
    difference of their elements in A is: A mod M is a p-clique, and 0 is
    the one element of A divisible by M.  Conversely any such choice of
    lifts is a p-set with 0 whose differences are admissible, by the same
    periodicity.  Every residue of C has a lift only if it is at most
    n_max, so the cliques are searched among {0, ..., min(n_max, M - 1)},
    which for n_max < M is the whole search and every clique is its own
    one lift.  Distinct (C, lift) pairs give distinct sets, since A
    determines both.

    time_budget, in seconds from entry (0 is spent; NaN or negative
    raises ValueError), is checked before every _POLL_INTERVAL
    differences of the admissibility test, the first included, then
    every _POLL_INTERVAL nodes of the clique search, then before every
    _POLL_INTERVAL sets of the one pass that lifts and wraps them (see
    _lifted), whose final sort is not polled; passing it raises
    SearchTimeout.  A bad lift raises ValueError as it is wrapped.
    """
    deadline = _deadline(time.monotonic(), time_budget)
    g, p = _base_points(g, p)
    n_max = _as_int(n_max, "n_max", 0)
    cliques, modulus = _spectrum_cliques(g, p, n_max, deadline)
    return _lifted(cliques, modulus, n_max, deadline)
