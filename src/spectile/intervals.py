"""Finite unions of rational half-open intervals on the line.

The central objects are measure-one unions Omega built from a family of
integer sets lifted to the grid (1/p)Z, their fiber decomposition

    fiber(x) = {k in Z : x + k/p in Omega},  x in [0, 1/p),

which is constant on the rational cells cut out by the interval endpoints,
and the resulting exact verdicts: p-tile, spectrum of Gamma + pZ, and
tilings of R by (1/p)(R + mZ).  Set arithmetic is exact over Fraction;
the Gram-matrix checks at the bottom are the only floating-point code and
serve as an independent numerical cross-check, never as the verdict.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .spectra import (FinitePointSet, IntSet, RationalLike, _base_points,
                      as_fraction, is_spectrum)
from .tilings import PeriodicSet, tiles_cyclic

NumberLike = Union[Fraction, int, float, str]


class CommonComplementError(ValueError):
    """A claimed common complement fails on at least one fiber cell."""


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint sorted half-open intervals [a, b) with rational endpoints.

    Adjacent intervals are merged on construction, so equality of unions is
    equality of the canonical representation.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for a, b in self.intervals:
            if not a < b:
                raise ValueError(f"empty or reversed interval [{a}, {b})")
        for (_, b1), (a2, _) in zip(self.intervals, self.intervals[1:]):
            if not b1 < a2:
                raise ValueError("intervals must be disjoint and non-adjacent "
                                 "after merging; use IntervalUnion.of")

    @classmethod
    def of(cls, pairs: Iterable[tuple[RationalLike, RationalLike]],
           ) -> "IntervalUnion":
        """Canonicalize: sort, merge adjacent, reject overlapping input."""
        raw = []
        for a, b in pairs:
            a, b = as_fraction(a), as_fraction(b)
            if not a < b:
                raise ValueError(f"empty or reversed interval [{a}, {b})")
            raw.append((a, b))
        raw.sort()
        merged: list[list[Fraction]] = []
        for a, b in raw:
            if merged and a < merged[-1][1]:
                raise ValueError(
                    f"overlapping intervals at [{a}, {b}) and "
                    f"[{merged[-1][0]}, {merged[-1][1]})")
            if merged and a == merged[-1][1]:
                merged[-1][1] = b
            else:
                merged.append([a, b])
        return cls(tuple((a, b) for a, b in merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __contains__(self, x) -> bool:
        x = as_fraction(x)
        return any(a <= x < b for a, b in self.intervals)

    def translate(self, c: RationalLike) -> "IntervalUnion":
        c = as_fraction(c)
        return IntervalUnion(tuple((a + c, b + c) for a, b in self.intervals))

    def scale(self, c: RationalLike) -> "IntervalUnion":
        c = as_fraction(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return IntervalUnion(tuple((a * c, b * c) for a, b in self.intervals))


def measure(omega: IntervalUnion) -> Fraction:
    """Exact total length."""
    return sum((b - a for a, b in omega.intervals), Fraction(0))


@dataclass(frozen=True)
class FiberCell:
    """One cell [lo, hi) of [0, 1/p) together with its constant fiber."""

    lo: Fraction
    hi: Fraction
    fiber: IntSet

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class FiberDecomposition:
    """Partition of [0, 1/p) into cells of constant fiber."""

    p: int
    cells: tuple[FiberCell, ...]

    def fiber_family(self) -> list[IntSet]:
        """Distinct fibers in cell order."""
        return list(dict.fromkeys(cell.fiber for cell in self.cells))


@dataclass(frozen=True)
class PeriodicSpectrum:
    """The candidate spectrum Gamma + pZ with base Gamma inside [0, p)."""

    gamma: FinitePointSet
    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be positive")
        if Fraction(0) not in self.gamma.points:
            raise ValueError("spectrum base must contain 0")
        for g in self.gamma:
            if not 0 <= g < self.period:
                raise ValueError(f"base point {g} outside [0, {self.period})")

    @classmethod
    def of(cls, gamma: Iterable[RationalLike], period: int) -> "PeriodicSpectrum":
        return cls(FinitePointSet.of(gamma), period)

    def points_within(self, bound: RationalLike) -> list[Fraction]:
        """All points of Gamma + pZ inside [-bound, bound], sorted."""
        bound = as_fraction(bound)
        out = []
        for g in self.gamma:
            t_lo = math.ceil((-bound - g) / self.period)
            t_hi = math.floor((bound - g) / self.period)
            out.extend(g + self.period * t for t in range(t_lo, t_hi + 1))
        return sorted(out)


@dataclass(frozen=True)
class OmegaTilingCertificate:
    """A verified tiling of R: omega + (1/p)(R + mZ) = R, checked exactly
    on the fundamental domain [0, m/p)."""

    omega: IntervalUnion
    p: int
    complement: PeriodicSet
    checked_domain: tuple[Fraction, Fraction]


def build_omega(p: int, family: Sequence, breakpoints: Sequence[RationalLike],
                ) -> IntervalUnion:
    """Union of the translated cells [r_i, r_{i+1}) + (1/p)A_i.

    breakpoints must run 0 = r_1 < ... < r_{n+1} = 1/p with n = len(family),
    and every family member must have exactly p elements; the result then
    has measure 1 and fiber A_i over each cell [r_i, r_{i+1}).
    """
    if p < 1:
        raise ValueError("p must be positive")
    sets = [IntSet.of(a) for a in family]
    if not sets:
        raise ValueError("family must be nonempty")
    rs = [as_fraction(r) for r in breakpoints]
    if len(rs) != len(sets) + 1:
        raise ValueError(
            f"expected {len(sets) + 1} breakpoints for {len(sets)} sets, "
            f"got {len(rs)}")
    if rs[0] != 0:
        raise ValueError("first breakpoint must be 0")
    if rs[-1] != Fraction(1, p):
        raise ValueError(f"last breakpoint must be 1/{p}")
    for r1, r2 in zip(rs, rs[1:]):
        if not r1 < r2:
            raise ValueError("breakpoints must be strictly increasing")
    for i, a in enumerate(sets):
        if len(a) != p:
            raise ValueError(f"family member {i} has {len(a)} elements, "
                             f"expected {p}")
    pieces = []
    for (r1, r2), a in zip(zip(rs, rs[1:]), sets):
        for k in a:
            pieces.append((r1 + Fraction(k, p), r2 + Fraction(k, p)))
    omega = IntervalUnion.of(pieces)
    if measure(omega) != 1:
        raise AssertionError(f"built union has measure {measure(omega)}, not 1")
    return omega


def fibers(omega: IntervalUnion, p: int) -> FiberDecomposition:
    """Decompose [0, 1/p) into cells on which the fiber of omega is constant.

    One sweep over the interval endpoints reduced mod 1/p.  Write each
    endpoint as a = q_a/p + r_a with 0 <= r_a < 1/p.  For x in [0, 1/p) the
    interval [a, b) puts k in the fiber exactly when

        q_a + [x < r_a] <= k < q_b + [x < r_b],

    so the fiber changes only at the residues: at r_a the integer q_a joins,
    at r_b the integer q_b leaves.  The sweep starts from the fiber at 0,
    then walks the distinct nonzero residues in ascending order, emitting
    one cell per gap and applying that residue's leaves and joins between
    cells.  The intervals are disjoint and non-adjacent, so no integer
    leaves and joins at the same residue.  Cost: O(n log n) for n
    intervals, plus the size of the output.  The empty union has one cell
    with the empty fiber.
    """
    if p < 1:
        raise ValueError("p must be positive")
    step = Fraction(1, p)
    fiber: set[int] = set()
    joins: dict[Fraction, list[int]] = {}
    leaves: dict[Fraction, list[int]] = {}
    for a, b in omega.intervals:
        q_a, r_a = divmod(a, step)
        q_b, r_b = divmod(b, step)
        fiber.update(range(q_a + (r_a > 0), q_b + (r_b > 0)))
        if r_a:
            joins.setdefault(r_a, []).append(q_a)
        if r_b:
            leaves.setdefault(r_b, []).append(q_b)
    cells = []
    lo = Fraction(0)
    for hi in sorted(joins.keys() | leaves.keys()) + [step]:
        cells.append(FiberCell(lo, hi, IntSet(tuple(sorted(fiber)))))
        fiber.difference_update(leaves.get(hi, ()))
        fiber.update(joins.get(hi, ()))
        lo = hi
    return FiberDecomposition(p, tuple(cells))


def is_p_tile(omega: IntervalUnion, p: int) -> bool:
    """Does omega cover almost every real point exactly p times under
    (1/p)Z-translations?  True iff every fiber cell has p elements."""
    verdict = all(len(cell.fiber) == p for cell in fibers(omega, p).cells)
    if verdict and measure(omega) != 1:
        raise AssertionError(
            f"every fiber has {p} elements but the measure is {measure(omega)}")
    return verdict


def spectrum_base(gamma, p: int) -> FinitePointSet:
    """Gamma as a point set, checked to be the base of a candidate spectrum
    Gamma + pZ: p points in [0, p), one of them 0."""
    gamma = _base_points(gamma, p)
    PeriodicSpectrum(gamma, p)
    return gamma


def spectral_verdict(omega: IntervalUnion, gamma, p: int) -> bool:
    """Exact test of whether Gamma + pZ is a spectrum of omega.

    By the fiber criterion this holds iff on every cell the pair
    (Gamma, (1/p)fiber) is a spectral pair, which the spectra module
    decides through vanishing sums of roots of unity.  Each distinct fiber
    is tested once, however many cells carry it.
    """
    gamma = spectrum_base(gamma, p)
    return all(is_spectrum(gamma, [Fraction(k, p) for k in a])
               for a in fibers(omega, p).fiber_family())


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
    p, m = decomposition.p, complement.period
    for cell in decomposition.cells:
        if not tiles_cyclic(cell.fiber, complement.residues, m):
            raise CommonComplementError(
                f"fiber {tuple(cell.fiber)} on cell [{cell.lo}, {cell.hi}) "
                f"does not tile Z by residues {complement.residues} mod {m}")
    if not verify_omega_tiling(omega, complement, p):
        raise AssertionError("tiling verification failed after fiber checks")
    domain = (Fraction(0), Fraction(m, p))
    return OmegaTilingCertificate(omega, p, complement, domain)


def verify_omega_tiling(omega: IntervalUnion, complement: PeriodicSet,
                        p: int = 1) -> bool:
    """Exact check that omega + (1/p)(R + mZ) partitions R.

    The translation set has period L = m/p, so it suffices to reduce the
    translates omega + r/p mod L and confirm they chain across [0, L)
    with no gap and no overlap.  All arithmetic is exact.
    """
    if p < 1:
        raise ValueError("p must be positive")
    length = Fraction(complement.period, p)
    if measure(omega) * len(complement.residues) != length:
        return False
    pieces = []
    for a, b in omega.intervals:
        for r in complement.residues:
            start = (a + Fraction(r, p)) % length
            size = b - a
            if start + size <= length:
                pieces.append((start, start + size))
            else:
                pieces.append((start, length))
                pieces.append((Fraction(0), start + size - length))
    pieces.sort()
    if not pieces or pieces[0][0] != 0:
        return False
    for (_, b1), (a2, _) in zip(pieces, pieces[1:]):
        if b1 != a2:
            return False
    return pieces[-1][1] == length


def gram_entry(omega: IntervalUnion, lam: NumberLike,
               lam_prime: NumberLike) -> complex:
    """Normalized inner product of the exponentials e_lam and e_lam' over
    omega, in double precision:

        (1/|omega|) sum_i (e^(2 pi i mu b_i) - e^(2 pi i mu a_i)) / (2 pi i mu)

    with mu = lam - lam'; equal frequencies give exactly 1."""
    if omega.is_empty:
        raise ValueError("omega must have positive measure")
    exact = not (isinstance(lam, float) or isinstance(lam_prime, float))
    if exact:
        mu = float(as_fraction(lam) - as_fraction(lam_prime))
    else:
        mu = float(lam) - float(lam_prime)
    if mu == 0.0:
        return complex(1.0)
    total = 0j
    for a, b in omega.intervals:
        total += cmath.exp(2j * math.pi * mu * float(b))
        total -= cmath.exp(2j * math.pi * mu * float(a))
    return total / (2j * math.pi * mu) / float(measure(omega))


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
    if p < 1:
        raise ValueError("p must be positive")
    for a, b in omega.intervals:
        for endpoint in (a, b):
            if (endpoint * p).denominator != 1:
                raise ValueError(
                    f"endpoint {endpoint} is not a multiple of 1/{p}")
    exact = not (isinstance(lam, float) or isinstance(lam_prime, float))
    if exact:
        lam, lam_prime = as_fraction(lam), as_fraction(lam_prime)
    shifted = lam + p
    denom = float(shifted) - float(lam_prime)
    if denom == 0.0:
        raise ValueError("lam + p must differ from lam_prime")
    factor = (float(lam) - float(lam_prime)) / denom
    lhs = gram_entry(omega, shifted, lam_prime)
    rhs = factor * gram_entry(omega, lam, lam_prime)
    return abs(lhs - rhs)


def normalize(omega: IntervalUnion) -> tuple[IntervalUnion, Fraction]:
    """Rescale to measure 1; returns (omega / |omega|, |omega|).  Spectra
    transform contravariantly: Lambda maps to |omega| * Lambda."""
    total = measure(omega)
    if total == 0:
        raise ValueError("cannot normalize an empty union")
    return omega.scale(1 / total), total

