"""Tilings of the integers by finite sets with periodic complements.

A finite set A of integers tiles Z by a periodic complement R + mZ exactly
when A is distinct mod m and the residues (a + r) mod m cover Z_m once each.
Everything here reduces to that cyclic check, so all verdicts are exact.
By the difference criterion, the complements R with 0 in R shared by
residue classes T mod m (the cyclic check reads A only mod m) are the
(m/p)-cliques through 0 of Z_m joined at each difference in no T - T.
Both complement searches hand their integer sets to _exact_covers, the
one place that turns them into class masks, which lists the cliques with
spectra._cliques, the kernel that finds the spectra too, in lexicographic
order, bounded by the classes' translates as an exact-cover search is: a
certificate is the smallest common complement at the first of the periods
it is offered that has one, whatever the order of the members.  A search
that finds nothing within its periods is inconclusive, never a refutation.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Optional, Sequence

from .cyclotomic import _Value
from .spectra import (IntSet, _as_int, _check_increasing, _cliques,
                      _deadline, _poll_chunks)


class PeriodicSet(_Value):
    """The set R + mZ, stored as sorted residues R inside [0, m)."""

    __slots__ = _fields = ("residues", "period")
    residues: tuple[int, ...]
    period: int

    def __post_init__(self):
        period = _as_int(self.period, "period", 1)
        residues = tuple(map(_as_int, self.residues))
        for r in residues:
            if not 0 <= r < period:
                raise ValueError(f"residue {r} outside [0, {period})")
        _check_increasing(residues, "residues")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", residues)

    @classmethod
    def of(cls, residues: Iterable[int], period: int) -> "PeriodicSet":
        period = _as_int(period, "period", 1)
        return cls(tuple(sorted(set(_as_int(r) % period for r in residues))), period)

    def __contains__(self, n: int) -> bool:
        return n % self.period in self.residues

    def __len__(self) -> int:
        return len(self.residues)


def tiles_cyclic(tile, residues: Iterable[int], m: int) -> bool:
    """Exact test of A + (R + mZ) = Z with every integer covered once:
    |A||R| = m, and the m-bit masks of R turned by each a in A (bit
    (r + a) % m for each r in R) sum to 2^m - 1.  A sum of integers has
    at most as many bits set as its terms together, and just as many only
    when no two terms share a bit.  The turned masks have |A||R| = m bits
    together, and 2^m - 1 has m: so the sum is 2^m - 1 iff A is distinct
    mod m and the translates a + R are disjoint mod m and cover Z_m.  No
    mask is made unless |A||R| = m, which bounds m."""
    m = _as_int(m, "modulus", 1)
    a = IntSet.of(tile).elements
    r = set(_as_int(x) % m for x in residues)
    if len(a) * len(r) != m:
        return False
    mask, full = sum(1 << x for x in r), (1 << m) - 1
    twice = mask << m | mask  # a turns the mask: twice >> (m - a % m)
    return sum(twice >> (m - x % m) & full for x in a) == full


def is_tiling_of_Z(tile, complement: PeriodicSet) -> bool:
    """Does tile + complement partition Z?  Reduces to the cyclic check."""
    return tiles_cyclic(tile, complement.residues, complement.period)


class _Bits(dict):
    """x -> 1 << (x % m), each entry made when it is first read, so no
    pass over the members collects their points first."""

    def __init__(self, m: int):
        self.m = m

    def __missing__(self, x: int) -> int:
        bit = self[x] = 1 << (x % self.m)
        return bit


def _exact_covers(sets: Sequence[Sequence[int]], m: int,
                  deadline: Optional[float] = None,
                  ) -> Iterator[tuple[int, ...]]:
    """Every residue set R with 0 in R such that A + (R + mZ) tiles Z for
    every A in sets, a nonempty sequence of p-element integer sets,
    ascending, in lexicographic order; nothing unless p divides m.

    Each set is written as the m-bit mask of its residues, the sum of its
    points' bits from one point -> bit table (_Bits), so the mask has p
    bits set iff the set is distinct mod m: a repeated residue carries
    into a higher bit, and then nothing is yielded.  The sets of one mask
    are one class T, read from one of them.  By the difference criterion,
    T + R covers Z_m once iff |T||R| = m and (T - T) and (R - R) share
    only 0, so the covers are the (m/p)-cliques of _cliques on the
    differences in no T - T, and the order of the sets cannot change
    them.  The classes are its blocks: a prefix ends once some residue it
    leaves uncovered lies in no candidate's translate of some class, so a
    period with no cover is refuted early.  deadline, an absolute
    time.monotonic() value, is checked before every _POLL_INTERVAL sets
    and inside the search, as _cliques checks it.
    """
    p, what = len(sets[0]), f"common-complement search at period {m}"
    if m % p:
        return
    bit, classes = _Bits(m).__getitem__, {}
    for chunk in _poll_chunks(sets, deadline, what):
        fresh = dict(zip([sum(map(bit, s)) for s in chunk], chunk))
        if any(mask.bit_count() < p for mask in fresh):
            return  # some set is not distinct mod m
        classes |= fresh
    blocks = [sorted({x % m for x in s}) for s in classes.values()]
    differences = 0  # every T - T mod m: T turned back by each residue
    for t, block in zip(classes, blocks):
        for x in block:
            differences |= t >> x | t << (m - x)
    yield from _cliques(~differences & (1 << m) - 1, m // p, deadline, what,
                        blocks, m)


def find_complements(tile, m: int) -> list[tuple[int, ...]]:
    """All residue sets R with 0 in R and tiles_cyclic(tile, R, m), sorted
    lexicographically: the (m/|tile|)-cliques through 0 of Z_m joined at
    each difference the tile's residues do not have."""
    m = _as_int(m, "modulus", 1)
    tile = IntSet.of(tile)
    return list(_exact_covers([tile.elements], m)) if tile else []


def find_common_complement(family, m_max: int, *,
                           time_budget: Optional[float] = None,
                           ) -> Optional[PeriodicSet]:
    """Smallest-period complement shared by every member of the family.

    Tries periods m = p, 2p, ..., m_max (p the common cardinality; other
    periods cannot satisfy |A|*|R| = m) and returns the lexicographically
    smallest R shared by all members at the first period that has one,
    which therefore has minimal period; None when the bound is exhausted.
    The members enter the search only through their difference sets, so
    the certificate does not depend on their order.

    Whether A + (R + mZ) tiles Z depends only on A mod m, so each period
    searches one m-bit mask per class of the members' elements (see
    _exact_covers); a period at which some member is not distinct mod m
    has no common complement.

    time_budget, in seconds from entry (0 is spent; NaN or negative
    raises ValueError), is polled through the search; passing it raises
    SearchTimeout so the caller can report an honest partial result.
    """
    deadline = _deadline(time.monotonic(), time_budget)
    m_max = _as_int(m_max, "m_max", 1)
    members = [IntSet.of(s).elements for s in family]
    if not members:
        raise ValueError("family must be nonempty")
    p = len(members[0])
    if p < 1:
        raise ValueError("family members must be nonempty")
    if any(len(a) != p for a in members):
        raise ValueError("family members must share one cardinality")
    return _first_common_cover(members, range(p, m_max + 1, p), deadline)


def _first_common_cover(sets: Sequence[Sequence[int]],
                        periods: Iterable[int],
                        deadline: Optional[float] = None,
                        ) -> Optional[PeriodicSet]:
    """The lexicographically smallest exact cover shared by the p-element
    integer sets (see _exact_covers), which need hold only one set of each
    of the family's classes mod m, in any order, at the first of the
    periods that has one; None when the periods run out."""
    for m in periods:
        found = next(_exact_covers(sets, m, deadline), None)
        if found is not None:
            return PeriodicSet(found, m)
    return None
