"""Exact arithmetic for vanishing sums of roots of unity.

A sum of roots of unity  sum_e zeta_m^e  (over a multiset of exponents e)
vanishes exactly when the m-th cyclotomic polynomial divides the mask
polynomial  sum_e x^e.  Everything here runs on Python integers, so the
zero/nonzero verdicts carry no rounding error.  A floating-point evaluator
is provided alongside as an independent cross-check.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients stored lowest degree first.

    >>> IntPolynomial.of([-1, 0, 1]).degree
    2
    >>> IntPolynomial.of([0, 0]).is_zero()
    True
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient is zero; build via IntPolynomial.of")

    @classmethod
    def of(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        # the zero polynomial gets degree -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial.of(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial.of(out)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return IntPolynomial.of(out)

    def __divmod__(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Quotient and remainder; the divisor must be monic so that the
        division stays inside the integers."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if not divisor.is_monic():
            raise ValueError("divisor must be monic for exact integer division")
        rem = list(self.coeffs)
        d = divisor.coeffs
        dn = len(d)
        if len(rem) < dn:
            return IntPolynomial(()), IntPolynomial.of(rem)
        quot = [0] * (len(rem) - dn + 1)
        for i in range(len(rem) - dn, -1, -1):
            c = rem[i + dn - 1]
            if c == 0:
                continue
            quot[i] = c
            for j in range(dn):
                rem[i + j] -= c * d[j]
        return IntPolynomial.of(quot), IntPolynomial.of(rem[: dn - 1])

    def evaluate(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _x_power_minus_one(m: int) -> IntPolynomial:
    return IntPolynomial.of([-1] + [0] * (m - 1) + [1])


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial, computed by dividing x^m - 1 by the
    cyclotomic polynomials of the proper divisors of m.  Cached per process.

    >>> cyclotomic_poly(1).coeffs
    (-1, 1)
    >>> cyclotomic_poly(4).coeffs
    (1, 0, 1)
    >>> cyclotomic_poly(6).coeffs
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("modulus must be a positive integer")
    if m == 1:
        return IntPolynomial((-1, 1))
    numerator = _x_power_minus_one(m)
    product = IntPolynomial((1,))
    for d in range(1, m):
        if m % d == 0:
            product = product * cyclotomic_poly(d)
    quot, rem = divmod(numerator, product)
    if not rem.is_zero():
        raise AssertionError(f"x^{m} - 1 is not divisible by its proper "
                             f"cyclotomic factors")
    return quot


@dataclass(frozen=True)
class ResidueMultiset:
    """Multiset of exponents modulo m, the input to the vanishing-sum tests.

    Entries are stored sorted; repeated entries mean repeated roots in the sum.
    """

    modulus: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        for e in self.entries:
            if not 0 <= e < self.modulus:
                raise ValueError(f"entry {e} outside [0, {self.modulus})")

    @classmethod
    def of(cls, modulus: int, entries: Iterable[int]) -> "ResidueMultiset":
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        return cls(modulus, tuple(sorted(e % modulus for e in entries)))

    def shifted(self, c: int) -> "ResidueMultiset":
        return ResidueMultiset.of(self.modulus, (e + c for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)


def root_sum_is_zero(multiset: ResidueMultiset) -> bool:
    """Exact test of  sum_e zeta_m^e == 0  via cyclotomic divisibility of the
    mask polynomial.  The empty sum counts as zero.

    >>> root_sum_is_zero(ResidueMultiset.of(2, [0, 1]))
    True
    >>> root_sum_is_zero(ResidueMultiset.of(4, [0, 1]))
    False
    """
    if not multiset.entries:
        return True
    m = multiset.modulus
    mask = [0] * m
    for e in multiset.entries:
        mask[e] += 1
    _, rem = divmod(IntPolynomial.of(mask), cyclotomic_poly(m))
    return rem.is_zero()


def root_sum_value(multiset: ResidueMultiset) -> complex:
    """Floating-point value of  sum_e e^(2 pi i e / m),  the cross-check
    oracle for root_sum_is_zero."""
    m = multiset.modulus
    return sum((cmath.exp(2j * cmath.pi * e / m) for e in multiset.entries), 0j)
