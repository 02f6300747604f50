"""Tilings of the integers by finite sets with periodic complements.

A finite set A of integers tiles Z by a periodic complement R + mZ exactly
when A is distinct mod m and the residues (a + r) mod m cover Z_m once each.
Everything here reduces to that cyclic check, so all verdicts are exact.
Both complement searches run one backtracking cover of Z_m by translates
of the first member, on m-bit masks; each other residue class mod m among
the members (the cyclic check reads A only mod m), itself one m-bit mask,
only forbids translates.
A search that finds nothing within its period bound is inconclusive,
never a refutation.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .cyclotomic import _Value
from .spectra import (_POLL_INTERVAL, IntSet, SearchTimeout, _as_int,
                      _check_increasing, _poll_chunks)


class PeriodicSet(_Value, order=True):
    """The set R + mZ, stored as sorted residues R inside [0, m)."""

    __slots__ = _fields = ("residues", "period")
    residues: tuple[int, ...]
    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be positive")
        for r in self.residues:
            if not 0 <= r < self.period:
                raise ValueError(f"residue {r} outside [0, {self.period})")
        _check_increasing(self.residues, "residues")

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
    A distinct mod m, |A|*|R| = m, and the sums (a + r) mod m pairwise
    distinct."""
    m = _as_int(m, "modulus", 1)
    a = IntSet.of(tile).elements
    r = set(_as_int(x) % m for x in residues)
    a_mod = set(x % m for x in a)
    if len(a_mod) != len(a) or len(a) * len(r) != m:
        return False
    return len({(x + t) % m for t in r for x in a_mod}) == m


def is_tiling_of_Z(tile, complement: PeriodicSet) -> bool:
    """Does tile + complement partition Z?  Reduces to the cyclic check."""
    return tiles_cyclic(tile, complement.residues, complement.period)


def _exact_covers(tables: Sequence[int], m: int,
                  deadline: Optional[float] = None,
                  ) -> Iterator[tuple[int, ...]]:
    """Every residue set R with 0 in R such that T + R covers Z_m once
    for every table T, in search order.

    tables are residue sets mod m as m-bit masks (bit x for residue x),
    all of one popcount p dividing m, lead first; anything else raises
    ValueError when the search starts.  By the difference criterion,
    T + R covers Z_m once iff |T||R| = m and (T - T) and (R - R) share
    only 0.  So the search covers Z_m with translates of the lead alone:
    place the translate 0 first, then take the smallest uncovered residue
    u and branch on the translates u - a mod m, a in the lead, in
    ascending order; each valid R is reached by exactly one branch
    sequence.  A translate t may join only if its coverage misses the
    lead's so far and t is not forbidden, that is, not at a nonzero
    difference of another table from a chosen translate.  The other
    tables enter only through that forbidden set, so only the lead's
    position among the tables matters.

    deadline is an absolute time.monotonic() value, checked before the
    first node and then every _POLL_INTERVAL nodes; passing it raises
    SearchTimeout.
    """
    if not (tables
            and all(isinstance(t, int) and 0 < t < 1 << m for t in tables)
            and len({t.bit_count() for t in tables}) == 1
            and m % tables[0].bit_count() == 0):
        raise ValueError(f"tables must be nonzero masks below 2**{m} with "
                         f"one popcount dividing {m}")
    full = (1 << m) - 1
    lead, *others = ([x for x in range(m) if t >> x & 1] for t in tables)
    diffs = {(x - y) % m for r in others for x in r for y in r} - {0}
    # cover[t], forbid[t]: lead and other tables' differences, rotated by t
    cover, forbid = ([((b << t) | (b >> (m - t))) & full for t in range(m)]
                     for b in (tables[0], sum(1 << d for d in diffs)))
    # branches[u]: translates covering u, descending, so that they pop off
    # the stack in ascending order
    branches = [sorted(((u - x) % m for x in lead), reverse=True)
                for u in range(m)]
    nodes = 0
    stack = [(cover[0], forbid[0], (0,))]
    while stack:
        if (deadline is not None and nodes % _POLL_INTERVAL == 0
                and time.monotonic() > deadline):
            raise SearchTimeout(
                f"common-complement search passed its deadline at period {m}")
        nodes += 1
        covered, forbidden, chosen = stack.pop()
        gap = covered ^ full
        if not gap:
            yield tuple(sorted(chosen))
            continue
        u = (gap & -gap).bit_length() - 1
        for t in branches[u]:
            if not (cover[t] & covered or forbidden >> t & 1):
                stack.append((covered | cover[t], forbidden | forbid[t],
                              chosen + (t,)))


def find_complements(tile, m: int) -> list[tuple[int, ...]]:
    """All residue sets R with 0 in R and tiles_cyclic(tile, R, m), sorted
    lexicographically; the single-table case of the exact-cover search."""
    m = _as_int(m, "modulus", 1)
    tile = IntSet.of(tile)
    mask = sum({1 << (x % m) for x in tile.elements})
    if not tile or m % len(tile) or mask.bit_count() < len(tile):
        return []
    return sorted(_exact_covers([mask], m))


def find_common_complement(family, m_max: int, *,
                           deadline: Optional[float] = None,
                           ) -> Optional[PeriodicSet]:
    """Smallest-period complement shared by every member of the family.

    Tries periods m = p, 2p, ..., m_max (p the common cardinality; other
    periods cannot satisfy |A|*|R| = m) and returns the first exact cover
    found for all members at once, which therefore has minimal period;
    None when the bound is exhausted.

    Whether A + (R + mZ) tiles Z depends only on A mod m, so each period
    writes every member as an m-bit mask of its residues, from one
    point -> bit table over the family's distinct points, and searches
    one mask per class, led by the first member's; the others only forbid
    translates, so no other member's position in the family can change
    the cover found.  A period at which some member is not distinct mod m
    is skipped.

    deadline is an absolute time.monotonic() value; passing it raises
    SearchTimeout so the caller can report an honest partial result.
    """
    m_max = _as_int(m_max)
    sets = [IntSet.of(s) for s in family]
    if not sets:
        raise ValueError("family must be nonempty")
    p = len(sets[0])
    if p < 1:
        raise ValueError("family members must be nonempty")
    if any(len(s) != p for s in sets):
        raise ValueError("family members must share one cardinality")
    points = {x for s in sets for x in s.elements}

    def masks(m: int) -> Iterator[int]:
        bit = {x: 1 << (x % m) for x in points}.__getitem__
        return (sum(map(bit, s.elements)) for s in sets)

    return _first_common_cover(p, m_max, masks, deadline)


def _first_common_cover(p: int, m_max: int,
                        masks: Callable[[int], Iterable[int]],
                        deadline: Optional[float] = None,
                        ) -> Optional[PeriodicSet]:
    """The period loop of the common-complement search: at m = p, 2p, ...,
    m_max, the first exact cover shared by the m-bit masks masks(m), which
    are the members' residue sets mod m, the lead's first; None when the
    bound is exhausted.

    A mask is the sum of its member's p bits, so it has p bits set iff the
    member is distinct mod m: a repeated residue carries into a higher
    bit.  A period with a mask of fewer bits is skipped unsearched, once
    that mask is read; otherwise the distinct masks, in order of first
    appearance, are searched.  The deadline is checked before every
    _POLL_INTERVAL masks and inside the search.
    """
    for m in range(p, m_max + 1, p):
        classes = {}
        for chunk in _poll_chunks(masks(m), deadline,
                                  f"common-complement search at period {m}"):
            fresh = dict.fromkeys(chunk)
            if any(mask.bit_count() < p for mask in fresh):
                break  # some member is not distinct mod m
            classes.update(fresh)
        else:
            found = next(_exact_covers(list(classes), m, deadline), None)
            if found is not None:
                return PeriodicSet(found, m)
    return None
