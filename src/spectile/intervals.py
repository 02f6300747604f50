"""Finite unions of rational half-open intervals on the line.

The central objects are measure-one unions Omega built from a family of
integer sets lifted to the grid (1/p)Z, their fiber decomposition

    fiber(x) = {k in Z : x + k/p in Omega},  x in [0, 1/p),

which is constant on the rational cells cut out by the interval endpoints,
and the resulting exact verdicts: spectrum of Gamma + pZ, and tilings
of R by (1/p)(R + mZ).  A union is stored on its integer grid,
as integer endpoints over one denominator in lowest terms; Fraction
appears only at the API boundary, in IntervalUnion.of and the intervals
view.  The Gram checks at the bottom are the only float code, a
cross-check only.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence, Union

from .cyclotomic import _Value
from .spectra import (IntSet, RationalLike, _as_int, _over_common_denominator,
                      _spectrum_test, as_fraction, spectrum_base)
from .tilings import PeriodicSet, tiles_cyclic

NumberLike = Union[Fraction, int, float, str]


class CommonComplementError(ValueError):
    """A claimed common complement fails on at least one fiber cell."""


class IntervalUnion(_Value):
    """Disjoint sorted half-open intervals [a/den, b/den), stored as the
    integer pairs (a, b) on the grid (1/den)Z with den in lowest terms, so
    equal unions have equal fields.  IntervalUnion.of merges adjacent
    intervals; direct construction takes them already merged.
    """

    _fields = ("den", "ends")
    __slots__ = (*_fields, "__dict__")  # __dict__ holds the cached intervals
    den: int
    ends: tuple[tuple[int, int], ...]

    def __post_init__(self):
        den, ends = self.den, self.ends
        if not (den >= 1 and math.gcd(den, *(x for e in ends for x in e)) == 1):
            raise ValueError(f"denominator {den} must be positive and in "
                             f"lowest terms for the endpoints")
        for a, b in ends:
            if not a < b:
                raise _reversed(den, a, b)
        for first, second in zip(ends, ends[1:]):
            if not first[1] < second[0]:
                raise _overlapping(den, first, second)

    @classmethod
    def of(cls, pairs: Iterable[tuple[RationalLike, RationalLike]],
           ) -> "IntervalUnion":
        """Canonicalize: sort, merge adjacent, reject overlapping input."""
        den, grid = _over_common_denominator(tuple(
            as_fraction(x) for pair in pairs for x in pair))
        return _merged(den, list(zip(grid[::2], grid[1::2])))

    @cached_property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The intervals as Fraction pairs (a, b)."""
        return tuple((Fraction(a, self.den), Fraction(b, self.den))
                     for a, b in self.ends)

    @property
    def is_empty(self) -> bool:
        return not self.ends

    def __contains__(self, x) -> bool:
        x = as_fraction(x)
        return any(a <= x < b for a, b in self.intervals)


def _shown(den: int, a: int, b: int) -> str:
    """The interval [a/den, b/den) as error messages write it."""
    return f"[{Fraction(a, den)}, {Fraction(b, den)})"


def _reversed(den: int, a: int, b: int) -> ValueError:
    """The error for an empty or reversed interval [a/den, b/den)."""
    return ValueError(f"empty or reversed interval {_shown(den, a, b)}")


def _overlapping(den: int, first: Sequence[int],
                 second: Sequence[int]) -> ValueError:
    """The error for an interval pair (a1, b1), (a2, b2) with b1 >= a2."""
    return ValueError(f"overlapping or adjacent intervals "
                      f"{_shown(den, *second)} and {_shown(den, *first)}")


def _merged(den: int, pairs: list[tuple[int, int]]) -> IntervalUnion:
    """The union of the intervals [a/den, b/den), den >= 1, in one pass
    that leaves the constructor nothing to check.  One integer sort, then
    adjacent intervals merge.  A merge would hide a reversed interval, so
    each is refused first.  An interval that starts before the end of the
    last one overlaps it: the first such pair is refused once the loop is
    done, as the two merged intervals the constructor would name, since
    an interval's start never moves and its end moves only until the next
    one is appended.  Dividing by g = gcd(den, endpoints) puts the union
    in lowest terms, and IntervalUnion._unchecked builds it."""
    merged: list[list[int]] = []
    overlap = 0  # the first interval that overlaps the one before; 0: none
    for a, b in sorted(pairs):
        if not a < b:
            raise _reversed(den, a, b)
        if merged and a == merged[-1][1]:
            merged[-1][1] = b
            continue
        if merged and a < merged[-1][1] and not overlap:
            overlap = len(merged)
        merged.append([a, b])
    if overlap:
        raise _overlapping(den, merged[overlap - 1], merged[overlap])
    g = math.gcd(den, *chain.from_iterable(merged))
    if g > 1:
        den, merged = den // g, [(a // g, b // g) for a, b in merged]
    return IntervalUnion._unchecked([den], [tuple(map(tuple, merged))])[0]


def _on_grid(omega: IntervalUnion, p: int) -> tuple[int, list[tuple[int, int]]]:
    """(N, [(a, b), ...]): omega's intervals [a/N, b/N) on the grid (1/N)Z
    with N = lcm(den, p), where 1/p is N // p steps."""
    den = math.lcm(omega.den, p)
    scale = den // omega.den
    return den, [(a * scale, b * scale) for a, b in omega.ends]


def measure(omega: IntervalUnion) -> Fraction:
    """Exact total length."""
    return sum((b - a for a, b in omega.intervals), Fraction(0))


class FiberCell(_Value):
    """One cell [lo, hi) of [0, 1/p) together with its constant fiber."""

    __slots__ = _fields = ("lo", "hi", "fiber")
    lo: Fraction
    hi: Fraction
    fiber: IntSet


class FiberDecomposition(_Value):
    """Partition of [0, 1/p) into cells of constant fiber."""

    __slots__ = _fields = ("p", "cells")
    p: int
    cells: tuple[FiberCell, ...]

    def fiber_family(self) -> list[IntSet]:
        """Distinct fibers in cell order, told apart by their element
        tuples, which hash and compare without a Python frame."""
        family: dict[tuple[int, ...], IntSet] = {}
        for cell in self.cells:
            family.setdefault(cell.fiber.elements, cell.fiber)
        return list(family.values())


class OmegaTilingCertificate(_Value):
    """A verified tiling of R: omega + (1/p)(R + mZ) = R, checked exactly
    on the fundamental domain [0, m/p)."""

    __slots__ = _fields = ("omega", "p", "complement")
    omega: IntervalUnion
    p: int
    complement: PeriodicSet

    @property
    def checked_domain(self) -> tuple[Fraction, Fraction]:
        """The fundamental domain [0, m/p) of the translation set."""
        return Fraction(0), Fraction(self.complement.period, self.p)


def build_omega(p: int, family: Sequence, breakpoints: Sequence[RationalLike],
                ) -> IntervalUnion:
    """Union of the translated cells [r_i, r_{i+1}) + (1/p)A_i.

    breakpoints must run 0 = r_1 < ... < r_{n+1} = 1/p with n = len(family),
    and every family member must have exactly p elements; the result then
    has measure 1 and fiber A_i over each cell [r_i, r_{i+1}).
    """
    rs = [as_fraction(r) for r in breakpoints]
    p = _as_int(p, "p", 1)
    den, grid = _over_common_denominator((*rs, Fraction(1, p)))
    cells, step = list(zip(grid[:-1], grid[1:-1])), grid[-1]
    sets = [IntSet.of(a) for a in family]
    if not sets:
        raise ValueError("family must be nonempty")
    if len(rs) != len(sets) + 1:
        raise ValueError(
            f"expected {len(sets) + 1} breakpoints for {len(sets)} sets, "
            f"got {len(rs)}")
    if cells[0][0] != 0 or cells[-1][1] != step or any(
            not lo < hi for lo, hi in cells):
        raise ValueError(f"breakpoints must run 0 = r_1 < ... < 1/{p}")
    for i, a in enumerate(sets):
        if len(a) != p:
            raise ValueError(f"family member {i} has {len(a)} elements, "
                             f"expected {p}")
    omega = _merged(den, [(lo + k * step, hi + k * step)
                          for (lo, hi), a in zip(cells, sets) for k in a])
    length = sum(b - a for a, b in omega.ends)
    if length != omega.den:
        raise AssertionError(
            f"built union has measure {Fraction(length, omega.den)}, not 1")
    return omega


def fibers(omega: IntervalUnion, p: int) -> FiberDecomposition:
    """Decompose [0, 1/p) into cells on which the fiber of omega is constant.

    One sweep over the endpoints reduced mod 1/p, on the integer grid.
    Write each endpoint as a = q_a/p + r_a with 0 <= r_a < 1/p.  For x in
    [0, 1/p) the interval [a, b) puts k in the fiber exactly when

        q_a + [x < r_a] <= k < q_b + [x < r_b],

    so the fiber changes only at the residues: at r_a the integer q_a joins,
    at r_b the integer q_b leaves.  The intervals are disjoint and
    non-adjacent, so an integer that joins is absent just before and one
    that leaves is present: each such event flips one integer.  The sweep
    starts from the fiber at 0, then walks the distinct nonzero residues in
    ascending order, emitting one cell per gap and applying that residue's
    flips between cells.  Cost: O(n log n) for n intervals, plus the size
    of the output.  The empty union has one cell with the empty fiber.

    The sweep collects each cell's fiber as the sorted tuple of its set,
    and its upper end as an integer.  The integer ends over den become the
    cells' Fraction bounds, one IntSet._many call wraps the tuples, and
    FiberCell._unchecked builds the cells, with no Python frame per fiber
    or per cell.
    """
    p = _as_int(p, "p", 1)
    den, ends = _on_grid(omega, p)
    step = den // p
    fiber: set[int] = set()
    flips: dict[int, list[int]] = {}
    for a, b in ends:
        (q_a, r_a), (q_b, r_b) = divmod(a, step), divmod(b, step)
        fiber.update(range(q_a + (r_a > 0), q_b + (r_b > 0)))
        for q, r in ((q_a, r_a), (q_b, r_b)):
            if r:
                flips.setdefault(r, []).append(q)
    cuts = sorted(flips) + [step]
    sweep = []
    for r in cuts:
        sweep.append(tuple(sorted(fiber)))
        fiber.symmetric_difference_update(flips.get(r, ()))
    bounds = [Fraction(r, den) for r in cuts]
    return FiberDecomposition(p, tuple(FiberCell._unchecked(
        [Fraction(0), *bounds[:-1]], bounds, IntSet._many(sweep))))


def spectral_verdict(omega: IntervalUnion, gamma, p: int) -> bool:
    """Exact test of whether Gamma + pZ is a spectrum of omega.

    By the fiber criterion this holds iff on every cell the pair
    (Gamma, (1/p)fiber) is a spectral pair, which the spectra module
    decides through vanishing sums of roots of unity.  Each distinct fiber
    is tested once, however many cells carry it.
    """
    is_spectral = _spectrum_test(*spectrum_base(gamma, p))
    return all(map(is_spectral, fibers(omega, p).fiber_family()))


def assemble_tiling(omega: IntervalUnion, p: int, residues: Iterable[int],
                    m: int) -> OmegaTilingCertificate:
    """Tile R by omega with the translation set (1/p)(R + mZ).

    Requires every fiber of omega to tile Z by R + mZ; the assembled tiling
    is then re-verified exactly before the certificate is returned.
    """
    complement = PeriodicSet.of(residues, m)
    return _assemble_from_cells(omega, fibers(omega, p), complement)


def _assemble_from_cells(omega: IntervalUnion,
                         decomposition: FiberDecomposition,
                         complement: PeriodicSet) -> OmegaTilingCertificate:
    """The certificate for omega + (1/p)(R + mZ), once every fiber of the
    decomposition tiles Z by R + mZ and verify_omega_tiling holds.

    Cells that carry one fiber share its verdict, so tiles_cyclic checks
    each distinct fiber once, in cell order: exact integer code that
    shares nothing with the search.  The first fiber that fails is the
    fiber of the first cell that fails, and the error names that cell.
    verify_omega_tiling then checks the tiling of R on omega itself."""
    p, m = decomposition.p, complement.period
    for fiber in decomposition.fiber_family():
        if not tiles_cyclic(fiber, complement.residues, m):
            cell = next(c for c in decomposition.cells if c.fiber == fiber)
            raise CommonComplementError(
                f"fiber {tuple(cell.fiber)} on cell [{cell.lo}, {cell.hi}) "
                f"does not tile Z by residues {complement.residues} mod {m}")
    if not verify_omega_tiling(omega, complement, p):
        raise AssertionError("tiling verification failed after fiber checks")
    return OmegaTilingCertificate(omega, p, complement)


def verify_omega_tiling(omega: IntervalUnion, complement: PeriodicSet,
                        p: int = 1) -> bool:
    """Exact check that omega + (1/p)(R + mZ) partitions R.

    The translation set has period L = m/p.  On the circle R/LZ each
    interval [a, b) and residue r give an arc of length b - a at
    (a + r/p) mod L; sorted by start, the arcs partition the circle iff
    their lengths sum to L and each ends where the next one starts.

    >>> omega = IntervalUnion.of([(0, Fraction(3, 4)), (Fraction(7, 4), 2)])
    >>> verify_omega_tiling(omega, PeriodicSet.of([0], 2), p=2)
    True
    >>> unit = IntervalUnion.of([(0, 1)])  # (1/2)({0, 3} + 4Z): overlaps
    >>> verify_omega_tiling(unit, PeriodicSet.of([0, 3], 4), p=2)
    False
    """
    p = _as_int(p, "p", 1)
    den, ends = _on_grid(omega, p)
    step = den // p
    circle = complement.period * step
    arcs = sorted(((a + r * step) % circle, b - a)
                  for a, b in ends for r in complement.residues)
    if sum(size for _, size in arcs) != circle:
        return False
    return all(start + size == nxt
               for (start, size), (nxt, _) in zip(arcs, arcs[1:]))


def _frequency(x: NumberLike) -> Union[Fraction, float]:
    """A float stays a float; anything else becomes an exact Fraction,
    which Python converts with float() where it meets a float."""
    return x if isinstance(x, float) else as_fraction(x)


def _outside_floats(named: Iterable[tuple[str, NumberLike]]) -> ValueError:
    """The error naming the first value whose float overflows, or else the
    last value, which is then the one whose float underflowed to 0."""
    for name, x in named:
        try:
            float(x)
        except OverflowError:
            break
    return ValueError(f"{name} {x} is outside the float range")


def gram_entry(omega: IntervalUnion, lam: NumberLike,
               lam_prime: NumberLike) -> complex:
    """Normalized inner product of the exponentials e_lam and e_lam' over
    omega, in double precision:

        (1/|omega|) sum_i (e^(2 pi i mu b_i) - e^(2 pi i mu a_i)) / (2 pi i mu)

    with mu = lam - lam'; equal frequencies give exactly 1.  A value that
    no float holds raises ValueError naming it."""
    if omega.is_empty:
        raise ValueError("omega must have positive measure")
    lam, lam_prime = _frequency(lam), _frequency(lam_prime)
    try:
        mu = float(lam - lam_prime)
    except OverflowError:
        raise ValueError(f"lam - lam_prime = {lam} - {lam_prime} is outside "
                         f"the float range") from None
    if mu == 0.0:
        return complex(1.0)
    total = 0j
    try:
        for a, b in omega.intervals:
            total += cmath.exp(2j * math.pi * mu * float(b))
            total -= cmath.exp(2j * math.pi * mu * float(a))
        size = float(measure(omega))
    except OverflowError:
        size = 0.0  # named below, like a measure that underflows
    except ValueError:  # cmath.exp of a phase past the float range
        x = next(x for a, b in omega.intervals for x in (b, a)
                 if math.isinf(2 * math.pi * mu * float(x)))
        raise ValueError(f"phase at endpoint {x} with lam - lam_prime = "
                         f"{lam - lam_prime} is outside the float range"
                         ) from None
    if not size:
        raise _outside_floats(
            [*(("endpoint", x) for pair in omega.intervals for x in pair),
             ("measure of omega", measure(omega))])
    return total / (2j * math.pi * mu) / size


def gram_matrix(omega: IntervalUnion, lambdas: Sequence[NumberLike],
                ) -> list[list[complex]]:
    """Matrix of gram_entry over all frequency pairs."""
    return [[gram_entry(omega, li, lj) for lj in lambdas] for li in lambdas]


def period_identity_residual(omega: IntervalUnion, p: int, lam: NumberLike,
                             lam_prime: NumberLike) -> float:
    """Defect of the period identity

        <e_{lam+p}, e_lam'> = ((lam - lam') / (lam + p - lam')) <e_lam, e_lam'>

    which holds exactly whenever every endpoint of omega lies on the grid
    (1/p)Z; the returned magnitude is float roundoff only."""
    p = _as_int(p, "p", 1)
    if p % omega.den:
        off = next(x for i in omega.intervals for x in i if p % x.denominator)
        raise ValueError(f"endpoint {off} is not a multiple of 1/{p}")
    lam, lam_prime = _frequency(lam), _frequency(lam_prime)
    shifted = lam + p
    try:
        denom = float(shifted) - float(lam_prime)
        numer = float(lam) - float(lam_prime)
    except OverflowError:
        raise _outside_floats([("lam", lam), ("lam_prime", lam_prime),
                               ("lam + p", shifted)]) from None
    if denom == 0.0:
        raise ValueError("lam + p must differ from lam_prime")
    factor = numer / denom
    lhs = gram_entry(omega, shifted, lam_prime)
    rhs = factor * gram_entry(omega, lam, lam_prime)
    return abs(lhs - rhs)
