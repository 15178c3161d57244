"""Exact cyclotomic arithmetic: Phi_n over the integers and sorou residues.

Vanishing is decided exactly.  Each term nu_o^p of a sorou of order N lifts
to the monomial x^(p*N/o); the sum of those monomials reduces modulo Phi_N to
a unique integer vector of length phi(N), which is zero exactly when the
complex value is zero (Gauss's lemma: Phi_N divides an integer polynomial
over Q iff it does over Z).

A floating-point prefilter may skip the reduction: up to PREFILTER_MAX_WEIGHT
terms the rounding error of the floating sum stays far below 1e-6, so
|numeric| >= 1e-6 proves the value nonzero.  The exact test remains the
authority whenever the numeric value is small or the sorou is heavier.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cache

from minvan.arith import divisors, euler_phi
from minvan.sorou import SUBSET_GUARD_WEIGHT, Sorou, order, subtract

NUMERIC_PREFILTER_LIMIT = 1e-6
# Error of numeric_value for weight w, with u = 2**-53: each term's angle
# 2*pi*p/o is rounded three times and exp adds a few ulps, under 32u per
# term; recursive summation adds at most |partial sum| <= k ulps (times
# sqrt(2) for the two components) at step k, under w**2 * u in all.  At
# w = 1000 that is (32e3 + 1e6) * 1.1e-16 < 1.2e-10, four orders of
# magnitude below NUMERIC_PREFILTER_LIMIT.
PREFILTER_MAX_WEIGHT = 1000


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, lowest degree first, no trailing zeros."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self.coefficients and self.coefficients[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _poly_divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials; raises if a remainder is left."""
    num = list(num)
    d = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c % lead:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        out[i - d] = q
        if q:
            for j, dc in enumerate(den):
                num[i - d + j] -= q * dc
    if any(num[:d]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@cache
def cyclotomic_poly(n: int) -> IntPolynomial:
    """Phi_n computed by exact division of x^n - 1 by all lower Phi_d."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n == 1:
        return IntPolynomial((-1, 1))
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n):
        if d < n:
            num = _poly_divexact(num, cyclotomic_poly(d).coefficients)
    poly = IntPolynomial(tuple(num))
    if poly.degree != euler_phi(n):
        raise AssertionError(f"Phi_{n} degree {poly.degree} != phi({n})")
    return poly


@cache
def _monomial_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_n for k in range(n), as phi(n)-vectors."""
    phi = cyclotomic_poly(n).coefficients
    d = len(phi) - 1
    rows = [(1,) + (0,) * (d - 1)]
    for _ in range(1, n):
        prev = rows[-1]
        carry = prev[-1]
        row = [0] + list(prev[:-1])
        if carry:
            for i in range(d):
                row[i] -= carry * phi[i]
        rows.append(tuple(row))
    return tuple(rows)


@cache
def _packed_rows(n: int) -> tuple[int, tuple[int, ...]]:
    """(width, rows): each x^k mod Phi_n packed into one int by signed
    Kronecker substitution, coefficient i weighted by 2**(i * width).

    Packing is linear, so a sub-sum packs to the sum of its rows.  It is
    injective on vectors whose coefficients differ by less than 2**width:
    the lowest nonzero difference would have to be a multiple of 2**width.
    Sub-sums of at most SUBSET_GUARD_WEIGHT rows therefore pack to equal
    ints exactly when their residues are equal, and to 0 exactly when zero.
    """
    rows = _monomial_rows(n)
    bound = SUBSET_GUARD_WEIGHT * max(abs(c) for row in rows for c in row)
    width = (2 * bound).bit_length() + 1
    if 1 << (width - 1) <= 2 * bound:
        raise AssertionError(f"packing width {width} does not cover 2 * {bound} plus a sign bit")
    return width, tuple(sum(c << (i * width) for i, c in enumerate(row)) for row in rows)


@dataclass(frozen=True)
class Residue:
    """Value of a sorou as the remainder of its lift modulo Phi_N."""

    modulus_order: int
    coefficients: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coefficients)


def residue(s: Sorou, modulus: int | None = None) -> Residue:
    """Exact value of s in Z[x]/(Phi_N); N defaults to the order of s.

    Every term order must divide N.  The empty sorou has the zero residue
    (at an explicit modulus only).
    """
    n = order(s) if modulus is None else modulus
    rows = _monomial_rows(n)
    acc = [0] * len(rows[0])
    for o, p in s:
        row = rows[p * (n // o) % n]
        for i, c in enumerate(row):
            acc[i] += c
    return Residue(n, tuple(acc))


@cache
def _unit_value(o: int, p: int) -> complex:
    return cmath.exp(2j * cmath.pi * p / o)


def numeric_value(s: Sorou) -> complex:
    """Floating sum of the terms; a prefilter only, never the authority."""
    return sum(map(_unit_value, *zip(*s))) if s else 0j


def is_vanishing(s: Sorou) -> bool:
    """Exact vanishing test (numeric shortcut only when provably safe)."""
    if not s:
        raise ValueError("empty sorou")
    if len(s) <= PREFILTER_MAX_WEIGHT and abs(numeric_value(s)) >= NUMERIC_PREFILTER_LIMIT:
        return False
    return residue(s).is_zero()


def values_equal(s1: Sorou, s2: Sorou) -> bool:
    """Exact equality of sorou values, via vanishing of s1 - s2."""
    if not s1 or not s2:
        raise ValueError("empty sorou")
    diff = subtract(s1, s2)
    return not diff or is_vanishing(diff)
