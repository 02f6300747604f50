"""End-to-end verifiers for shared tiling complements across all spectra.

For a p-element rational base Gamma, the property under test says: every
finite family of integer sets A with (1/p)A a spectrum of Gamma admits one
common complement R + mZ tiling Z with every member.  Both entry points
run bounded searches and report honestly: a certificate is re-verified
before it is returned, and exhausting a bound yields an inconclusive
verdict, never a refutation.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .cyclotomic import _Value
from .intervals import (IntervalUnion, OmegaTilingCertificate,
                        _assemble_from_cells, build_omega, fibers)
from .spectra import (FinitePointSet, IntSet, SearchTimeout, _as_int,
                      _deadline, _lift_ranges, _lifted, _poll_chunks,
                      _spectrum_cliques, _spectrum_test, as_fraction,
                      spectrum_base)
from .tilings import PeriodicSet, _first_common_cover, is_tiling_of_Z

VERIFIED = "verified-with-certificate"
INCONCLUSIVE = "inconclusive-no-complement-in-bounds"
NO_SPECTRA = "no-spectra-in-bounds"


class InvalidFamilyError(ValueError):
    """A family member is not a spectrum base for the given Gamma."""


class UtcReport(_Value):
    """Outcome of one bounded common-complement verification.

    The spectra are stored as the residue cliques mod M = modulus that
    enumerate_spectra lifts; spectra_found lifts them on first read."""

    _fields = ("p", "gamma", "n_max", "m_max", "modulus", "cliques",
               "verdict", "certificate", "timing")
    __slots__ = (*_fields, "__dict__")  # __dict__ holds the lifted spectra
    p: int
    gamma: FinitePointSet
    n_max: int
    m_max: int
    modulus: Optional[int]  # None when the budget ends in the clique search
    cliques: tuple[tuple[int, ...], ...]
    verdict: str
    certificate: Optional[PeriodicSet]
    timing: float

    def _lift(self, deadline: Optional[float] = None) -> tuple[IntSet, ...]:
        """Every spectrum within {0..n_max}, sorted lexicographically, as
        enumerate_spectra lifts and wraps them, polled against deadline."""
        return tuple(_lifted(self.cliques, self.modulus, self.n_max,
                             deadline))

    @cached_property
    def spectra_found(self) -> tuple[IntSet, ...]:
        """Every spectrum within {0..n_max}, lifted without a deadline on
        first read: the caller asked for the family."""
        return self._lift()

    @property
    def spectra_count(self) -> int:
        """len(spectra_found), counted without lifting: each clique lifts
        to the product of its residues' numbers of lifts (_lift_ranges).
        0 with no cliques, as when modulus is None."""
        return sum(math.prod(map(len, _lift_ranges(clique, self.modulus,
                                                   self.n_max)))
                   for clique in self.cliques)


class RoundTripReport(_Value):
    """Outcome of the spectral-set-tiles round trip on one instance."""

    __slots__ = _fields = ("p", "gamma", "family", "breakpoints", "omega",
                           "spectral_ok", "omega_tiling")
    p: int
    gamma: FinitePointSet
    family: tuple[IntSet, ...]
    breakpoints: tuple[Fraction, ...]
    omega: IntervalUnion
    spectral_ok: bool
    omega_tiling: Optional[OmegaTilingCertificate]

    @property
    def projected_complement(self) -> Optional[PeriodicSet]:
        """The verified tiling's complement R + mZ, None without one."""
        return self.omega_tiling and self.omega_tiling.complement

    @property
    def consistency(self) -> bool:
        """Omega is spectral and its tiling of R is verified."""
        return self.spectral_ok and self.omega_tiling is not None


def utc_verify(p: int, gamma, n_max: int, m_max: int, *,
               time_budget: Optional[float] = None) -> UtcReport:
    """Find the residue cliques mod M of every integer spectrum of Gamma
    within {0..n_max} (see enumerate_spectra), then search for one
    complement R + mZ (m <= m_max) tiling Z with all of those spectra.

    Whether A + (R + mZ) tiles Z depends only on A mod m, so the search
    reads the cliques in place of their lifts, by the following lemma.
    Say shift holds when some residue r > 0 of some clique has
    r + M <= n_max.  Without shift no residue lifts twice, and each clique
    is its own one lift: the cliques are the family.  Shift lemma: with
    shift, every common complement R + mZ of the family equals R' + hZ
    with h = gcd(M, m).  Proof.  The family holds A and A' that differ
    only in r against r + M.  If both tile with R + mZ, then
    (A - {r}) + R + mZ misses exactly r + R + mZ, and also exactly
    r + M + R + mZ, so R + M = R mod m: R is invariant under M and m, so
    under h.  So with shift a common complement at a period m that does
    not divide M is also one at the period h below it, a multiple of p
    as |A||R'| = h, and the loop has stopped at h or before; such an m is
    not offered to the search.  At a period m dividing M every member is
    its clique mod m.
    Either way the search finds the certificate find_common_complement
    finds on the family, the smallest common complement at the first
    period that has one.

    The verdict is verified-with-certificate only after a re-check that
    does not rely on the search, by integer code: with shift, the
    certificate R + mZ must equal R + M + mZ, and then is_tiling_of_Z must
    hold on every clique.  The re-check is exact.  Invariance under M and
    m gives R + mZ = R' + hZ; each member is its clique mod h, so it tiles
    iff the clique does.  Conversely, if every member tiles, the lemma
    forces the invariance, and the cliques are themselves members.

    The verdict never lifts the family: the report keeps the cliques and
    M, and its spectra_found lifts them on first read, with no deadline,
    so timing covers the verdict alone.  Exhausting m_max, or the optional
    wall-clock budget in seconds, gives an inconclusive verdict; the
    budget bounds the admissibility test, the clique search, the common
    search and the re-check, and a budget that ends before the clique
    search is done leaves the report no cliques, so no spectra, and
    modulus None.
    """
    start = time.monotonic()
    gamma, p = spectrum_base(gamma, p)
    n_max, m_max = _as_int(n_max, "n_max", 0), _as_int(m_max, "m_max", 1)
    deadline = _deadline(start, time_budget)
    cliques, modulus, verdict, certificate = (), None, INCONCLUSIVE, None
    try:
        cliques, modulus = _spectrum_cliques(gamma, p, n_max, deadline)
        cliques = tuple(cliques)
        if not cliques:
            verdict = NO_SPECTRA
        else:
            shift = any(len(lifts) > 1 for clique in cliques
                        for lifts in _lift_ranges(clique, modulus, n_max))
            periods = range(p, m_max + 1, p)
            if shift:  # by the shift lemma, only the periods dividing M
                periods = [m for m in range(p, min(m_max, modulus) + 1, p)
                           if not modulus % m]
            found = _first_common_cover(cliques, periods, deadline)
            if found is not None:
                if shift and found != PeriodicSet.of(
                        (r + modulus for r in found.residues), found.period):
                    raise AssertionError(
                        f"certificate {found} failed re-verification: "
                        f"not invariant under {modulus}")
                for chunk in _poll_chunks(cliques, deadline,
                                          "certificate re-check"):
                    for clique in chunk:
                        if not is_tiling_of_Z(clique, found):
                            raise AssertionError(
                                f"certificate {found} failed "
                                f"re-verification on {clique}")
                verdict, certificate = VERIFIED, found
    except SearchTimeout:
        pass  # inconclusive, with the cliques found before the deadline
    return UtcReport(p, gamma, n_max, m_max, modulus, cliques, verdict,
                     certificate, time.monotonic() - start)


def roundtrip(p: int, gamma, family, breakpoints, m_max: int, *,
              time_budget: Optional[float] = None) -> RoundTripReport:
    """Run one instance of the construction that turns a spectral family
    into a tiling of R.

    Checks that each distinct (1/p)A_i is a spectrum of Gamma, builds the
    measure-one union omega from the breakpoints, and computes its fibers.
    By the fiber criterion Gamma + pZ is a spectrum of omega iff every
    fiber is, so spectral_ok holds when the distinct fibers are exactly the
    members just checked, in order.  It then searches the fibers for a
    common complement within m_max and, on success, checks it on every
    distinct fiber (hence on every cell and every member) and exactly
    verifies the tiling of R by (1/p)(R + mZ).  The report derives
    consistency and the projected complement from those verdicts, so it
    cannot claim more than they do.

    The members are read as sorted tuples by C-level maps and wrapped in
    one IntSet._many call, not one IntSet.of per member; the distinct
    members and fibers are told apart by their element tuples.
    """
    start = time.monotonic()
    gamma, p = spectrum_base(gamma, p)
    m_max = _as_int(m_max, "m_max", 1)
    deadline = _deadline(start, time_budget)
    read = [tuple(sorted(set(map(_as_int, a)))) for a in family]
    sets = tuple(IntSet._many(read))
    members = list(dict.fromkeys(read))
    is_spectral = _spectrum_test(gamma, p)
    for a in members:
        if not is_spectral(a):
            raise InvalidFamilyError(
                f"family member {read.index(a)} = {a} scaled by 1/{p} "
                f"is not a spectrum of the base")
    rs = tuple(as_fraction(r) for r in breakpoints)
    omega = build_omega(p, sets, rs)
    decomposition = fibers(omega, p)
    fiber_family = decomposition.fiber_family()
    spectral_ok = [fiber.elements for fiber in fiber_family] == members
    try:  # build_omega gave every fiber p elements
        complement = _first_common_cover(
            fiber_family, range(p, m_max + 1, p), deadline)
    except SearchTimeout:
        complement = None
    certificate = None if complement is None else _assemble_from_cells(
        omega, decomposition, complement)
    return RoundTripReport(p, gamma, sets, rs, omega, spectral_ok, certificate)
