"""Tilings of the integers by finite sets with periodic complements.

A finite set A of integers tiles Z by a periodic complement R + mZ exactly
when A is distinct mod m and the residues (a + r) mod m cover Z_m once each.
Everything here reduces to that cyclic check, so all verdicts are exact.
Both complement searches run one backtracking exact cover over Z_m, with
coverage tables packed into one integer bitmask, one table per residue
class mod m among the members, since the cyclic check reads A only mod m.
A search that finds nothing within its period bound is inconclusive,
never a refutation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .spectra import _POLL_INTERVAL, IntSet, SearchTimeout, _as_int


@dataclass(frozen=True, order=True)
class PeriodicSet:
    """The set R + mZ, stored as sorted residues R inside [0, m)."""

    residues: tuple[int, ...]
    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be positive")
        for r in self.residues:
            if not 0 <= r < self.period:
                raise ValueError(f"residue {r} outside [0, {self.period})")
        for a, b in zip(self.residues, self.residues[1:]):
            if not a < b:
                raise ValueError("residues must be strictly increasing")

    @classmethod
    def of(cls, residues: Iterable[int], period: int) -> "PeriodicSet":
        period = _as_int(period)
        if period < 1:
            raise ValueError("period must be positive")
        return cls(tuple(sorted(set(_as_int(r) % period for r in residues))), period)

    def __contains__(self, n: int) -> bool:
        return n % self.period in self.residues

    def __len__(self) -> int:
        return len(self.residues)


@dataclass(frozen=True)
class TilingCertificate:
    """A verified tiling of Z: tile + (complement.residues + period*Z) = Z.

    checked_window records the residue range [lo, hi) that was covered
    exactly once; periodicity extends the check to all of Z.
    """

    tile: IntSet
    complement: PeriodicSet
    checked_window: tuple[int, int]


def tiles_cyclic(tile, residues: Iterable[int], m: int) -> bool:
    """Exact test of A + (R + mZ) = Z with every integer covered once:
    A distinct mod m, |A|*|R| = m, and the sums (a + r) mod m pairwise
    distinct."""
    m = _as_int(m)
    if m < 1:
        raise ValueError("modulus must be positive")
    a = IntSet.of(tile).elements
    r = set(_as_int(x) % m for x in residues)
    a_mod = set(x % m for x in a)
    if len(a_mod) != len(a) or len(a) * len(r) != m:
        return False
    return len({(x + t) % m for t in r for x in a_mod}) == m


def is_tiling_of_Z(tile, complement: PeriodicSet) -> bool:
    """Does tile + complement partition Z?  Reduces to the cyclic check."""
    return tiles_cyclic(tile, complement.residues, complement.period)


def certify_tiling(tile, complement: PeriodicSet) -> TilingCertificate:
    """Verify and package a tiling of Z; raises ValueError if it fails."""
    tile = IntSet.of(tile)
    if not is_tiling_of_Z(tile, complement):
        raise ValueError(
            f"{tuple(tile)} does not tile Z by residues {complement.residues} "
            f"mod {complement.period}")
    return TilingCertificate(tile, complement, (0, complement.period))


def _exact_covers(members: Sequence[IntSet], m: int,
                  deadline: Optional[float] = None,
                  ) -> Iterator[tuple[int, ...]]:
    """Every residue set R with 0 in R such that each member + (R + mZ)
    tiles Z, in search order.

    The coverage tables of all K members sit side by side in one integer,
    member j owning bits [j*m, (j+1)*m), so one AND tests a translate
    against every table.  Search: place the translate 0 first, then take
    the smallest residue u uncovered in the first table and branch on the
    translates u - a mod m, a in the first member, in ascending order.
    Each valid R is reached by exactly one branch sequence.  Every member
    has the same size and is distinct mod m, so each field fills at the
    same rate and a full first table means every table is full.

    deadline is an absolute time.monotonic() value, checked before the
    first node and then every _POLL_INTERVAL nodes; passing it raises
    SearchTimeout.
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


def find_complements(tile, m: int) -> list[tuple[int, ...]]:
    """All residue sets R with 0 in R and tiles_cyclic(tile, R, m), sorted
    lexicographically; the single-member case of the exact-cover search."""
    m = _as_int(m)
    if m < 1:
        raise ValueError("modulus must be positive")
    return sorted(_exact_covers([IntSet.of(tile)], m))


def find_common_complement(family, m_max: int, *,
                           deadline: Optional[float] = None,
                           ) -> Optional[PeriodicSet]:
    """Smallest-period complement shared by every member of the family.

    Tries periods m = p, 2p, ..., m_max (p the common cardinality; other
    periods cannot satisfy |A|*|R| = m) and returns the first exact cover
    found for all members at once, which therefore has minimal period;
    None when the bound is exhausted.

    Whether A + (R + mZ) tiles Z depends only on A mod m, so each period
    searches the first member of each residue class, in family order: the
    first member leads, so the first cover is the whole family's first.

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
    for m in range(p, m_max + 1, p):
        reps = {}  # residue set mod m -> its first member
        for s in sets:
            key = frozenset([x % m for x in s.elements])
            if len(key) < p:
                break  # s is not distinct mod m: no cover of period m
            reps.setdefault(key, s)
        else:
            found = next(_exact_covers(list(reps.values()), m, deadline), None)
            if found is not None:
                return PeriodicSet(found, m)
    return None
