"""Exact arithmetic for vanishing sums of roots of unity.

A sum of roots of unity  sum_e zeta_m^e  (over a multiset of exponents e)
vanishes exactly when the m-th cyclotomic polynomial divides the mask
polynomial  sum_e x^e,  decided by one cyclic shift-and-subtract per prime
of m on the nonzero terms alone.  Everything runs on Python integers, so the
verdicts carry no rounding error; the tests cross-check them against the
float evaluator in tests/oracles.py.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction; floats are refused so no inexact value
    can sneak into an exact verdict.  A Fraction is returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("float input is not exact; pass a Fraction, int, or 'num/den' string")
    return Fraction(value)


def _as_int(value, name: str = "", minimum: Optional[int] = None) -> int:
    """Coerce to an exact int: ints pass through, floats raise TypeError,
    and other values that are not integers raise ValueError, as does one
    below minimum (0 or 1), with a message naming the parameter."""
    if not isinstance(value, int):
        value = as_fraction(value)
        if value.denominator != 1:
            raise ValueError(f"{value} is not an integer")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(
            f"{name} must be {'positive' if minimum else 'nonnegative'}")
    return value


class _Value:
    """Base of spectile's immutable value types, standing in for a frozen
    dataclass so that no spectile import loads dataclasses (and with it
    inspect).  A subclass lists its fields, in order, as _fields and in
    __slots__.  The constructor takes the fields positionally, then calls
    __post_init__.  Equality, hashing and repr read the field tuple, and
    equality holds between instances of the same class only, as the
    dataclass methods do; no order is defined.  Assigning or deleting an
    attribute raises AttributeError.
    """

    __slots__ = ("__weakref__",)  # weak references, as dataclasses allow
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes "
                            f"{len(self._fields)} arguments, not {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Validate the fields; the base accepts any values."""

    def _key(self) -> tuple:
        """The field values, in order."""
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which validates again,
        # since restoring the slots would go through __setattr__
        return type(self), self._key()


@lru_cache(maxsize=1024)
def _prime_factors(m: int) -> tuple[int, ...]:
    """The distinct primes dividing m, ascending, by trial division.

    The bounded process-wide cache factors each root-of-unity order that
    the spectral tests decide once per process, however many point sets
    share it.  Nothing factors their modulus M = q*D up front, since M
    can hold a large prime that no tested order has."""
    primes, q = [], 2
    while m > 1:
        q = next((d for d in range(q, math.isqrt(m) + 1) if m % d == 0), m)
        primes.append(q)
        while m % q == 0:
            m //= q
    return tuple(primes)


def _cyclotomic_divides(m: int, terms: dict[int, int]) -> bool:
    """Does Phi_m divide f = sum_e terms[e] x^e, exponents in [0, m)?

    x^m - 1 is squarefree, the product of Phi_d over the d dividing m, and
    P = prod_{q | m prime} (x^(m/q) - 1) has every such factor but Phi_m.
    So Phi_m divides f iff x^m - 1 divides f * P.  Mod x^m - 1, multiplying
    by x^(-k) - 1 (a unit times x^k - 1) is a cyclic shift-and-subtract,
    done on a dict of at most len(terms) * 2^omega(m) terms, never a mask.
    """
    for q in _prime_factors(m):
        k, shifted = m // q, {}
        for e, c in terms.items():
            shifted[e] = shifted.get(e, 0) - c
            r = (e - k) % m
            shifted[r] = shifted.get(r, 0) + c
        terms = shifted
    return not any(terms.values())


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial as its coefficients, lowest degree
    first.  For m > 1 it is the Moebius product
    prod_{k | m squarefree} (1 - x^(m/k))^mu(k), a polynomial of degree
    phi(m) < m, so it is built as a power series mod x^m from (1 - x^d)
    steps alone.  Cached per process.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    m = _as_int(m, "modulus", 1)
    if m == 1:
        return (-1, 1)
    steps = [(m, 1)]  # (m/k, mu(k)) over the squarefree divisors k of m
    for q in _prime_factors(m):
        steps += [(d // q, -mu) for d, mu in steps]
    coeffs = [1] + [0] * (m - 1)
    for d, mu in steps:
        # times (1 - x^d) runs downwards, over (1 - x^d) runs upwards
        for i in range(m - 1, d - 1, -1) if mu > 0 else range(d, m):
            coeffs[i] -= mu * coeffs[i - d]
    while coeffs[-1] == 0:
        coeffs.pop()
    if coeffs[-1] != 1 or not _cyclotomic_divides(m, dict(enumerate(coeffs))):
        raise AssertionError(f"cyclotomic_poly({m}) failed its self-check")
    return tuple(coeffs)


class ResidueMultiset(_Value):
    """Multiset of exponents modulo m, the input to the vanishing-sum tests.

    Entries are stored sorted; repeated entries mean repeated roots in the sum.
    """

    __slots__ = _fields = ("modulus", "entries")
    modulus: int
    entries: tuple[int, ...]

    def __post_init__(self):
        modulus = _as_int(self.modulus, "modulus", 1)
        entries = tuple(map(_as_int, self.entries))
        for e in entries:
            if not 0 <= e < modulus:
                raise ValueError(f"entry {e} outside [0, {modulus})")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def of(cls, modulus: int, entries: Iterable[int]) -> "ResidueMultiset":
        modulus = _as_int(modulus, "modulus", 1)
        return cls(modulus, tuple(sorted(_as_int(e) % modulus for e in entries)))

    def __len__(self) -> int:
        return len(self.entries)


def root_sum_is_zero(multiset: ResidueMultiset) -> bool:
    """Exact test of  sum_e zeta_m^e == 0,  that is of Phi_m dividing the
    mask polynomial, by the shift test.  The empty sum counts as zero.

    >>> root_sum_is_zero(ResidueMultiset.of(2, [0, 1]))
    True
    >>> root_sum_is_zero(ResidueMultiset.of(4, [0, 1]))
    False
    """
    return _cyclotomic_divides(multiset.modulus, Counter(multiset.entries))
