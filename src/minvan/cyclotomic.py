"""Exact cyclotomic arithmetic: the vanishing test, tower coordinates for
comparing values, and Phi_n over the integers.

Vanishing is decided exactly by descending the cyclotomic tower (de Bruijn
1953; Lam-Leung 2000), with no cyclotomic polynomial built.  A sorou of
order N is a map from exponents e mod N to integer multiplicities of
zeta_N^e.  Let p be the smallest prime of N and M = N/p:

* if p | M, then [Q(zeta_N) : Q(zeta_M)] = p, so 1, zeta_N, ..., zeta_N^(p-1)
  is a basis of Q(zeta_N) over Q(zeta_M); the sum vanishes iff each group of
  terms with the same exponent mod p vanishes at order M;
* if p does not divide M, then Q(zeta_N) = Q(zeta_M)(zeta_p) with zeta_p of
  degree p - 1 over Q(zeta_M), so the only linear relation over Q(zeta_M)
  among 1, zeta_p, ..., zeta_p^(p-1) is that their sum is zero.  As
  zeta_p * zeta_M is a primitive N-th root of unity, the automorphism
  taking zeta_N to it turns zeta_N^e into zeta_p^(e mod p) zeta_M^(e mod M)
  and preserves vanishing.  So, with g_j the terms of exponent j mod p
  read at order M, the sum vanishes iff every g_j - g_0 vanishes at order M
  (at M = 1: iff all p coefficients are equal);
* at order 1 the sum is an integer.

The recursion is at most as deep as the number of prime factors of N.  Any
prime of N would do; peeling the smallest first leaves the largest, whose
p - 1 differences cost the most, to the integer test at the leaf.

The same automorphism at every prime power p^a exactly dividing N gives
coordinates (Bosma 1990; the Zumbroich basis at squarefree N): zeta_N^e is
the tensor product over those p^a of zeta_(p^a)^i zeta_p^k, where e mod p^a
= k p^(a-1) + i: block i of the basis zeta_(p^a)^i, i < p^(a-1), over
Q(zeta_p) that the case "p divides M" peels, holding zeta_p^k in the basis
zeta_p^1 .. zeta_p^(p-1), where zeta_p^0 is minus their sum.  Every root's
coordinates are 0 or +-1, packed into one int (`_packed_tower_row`) to
compare sub-sums.  Phi_n is built only for `minvan phi`, as a product of
binomials x^d - 1 and their exact quotients (`cyclotomic_poly`).

Floating point never decides: `numeric_value` is there to print values and
to let the brute-force oracle skip sub-sums far from zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from minvan.arith import euler_phi, prime_factors
from minvan.sorou import SUBSET_GUARD_WEIGHT, Sorou, order, subtract


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


@cache
def cyclotomic_poly(n: int) -> IntPolynomial:
    """Phi_n as the product over d | n of (x^d - 1)^mu(n/d).  Only the d
    with n/d squarefree count: each binomial with mu = +1 is multiplied in,
    then each with mu = -1 is divided out exactly by the recurrence
    q_i = q_(i-d) - a_i, whose remainder must be zero."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    primes = prime_factors(n)
    binomials: tuple[list[int], list[int]] = ([], [])  # mu(n/d) = +1, -1
    for k in range(len(primes) + 1):
        binomials[k % 2].extend(n // math.prod(c) for c in combinations(primes, k))
    coeffs = [1]
    for d in binomials[0]:
        coeffs = [a - b for a, b in zip([0] * d + coeffs, coeffs + [0] * d)]
    for d in binomials[1]:
        coeffs = [-c for c in coeffs]
        for i in range(d, len(coeffs)):
            coeffs[i] += coeffs[i - d]
        if any(coeffs[-d:]):
            raise ArithmeticError(f"non-exact division by x^{d} - 1")
        del coeffs[-d:]
    poly = IntPolynomial(tuple(coeffs))
    if poly.degree != euler_phi(n):
        raise AssertionError(f"Phi_{n} degree {poly.degree} != phi({n})")
    return poly


# Width of one packed tower coordinate.  Every coordinate of a row is 0 or
# +-1, so a sub-sum of at most SUBSET_GUARD_WEIGHT rows has coordinates of
# modulus at most SUBSET_GUARD_WEIGHT, and two such sub-sums differ by at
# most twice that in each coordinate; the width holds this plus a sign bit.
PACK_WIDTH = (2 * SUBSET_GUARD_WEIGHT).bit_length() + 1


@cache
def _packed_tower_row(n: int, e: int) -> int:
    """zeta_n^e in tower coordinates (see the module docstring), packed into
    one int by signed Kronecker substitution: coordinate i is weighted by
    2**(i * PACK_WIDTH), indexed in mixed radix over the prime powers p^a
    of n, smallest p fastest, and within p^a over (block, digit), digit
    fastest.  So the row is the product over the p^a of the packed factor of
    zeta_(p^a)^(e mod p^a), at a stride of the product of phi(q^b) over the
    smaller q^b.  At a squarefree n every block index is 0.

    Packing is linear and, on sub-sums of at most SUBSET_GUARD_WEIGHT rows,
    injective (see PACK_WIDTH): they pack to equal ints exactly when their
    values are equal, and to 0 exactly when they vanish.
    """
    row, step = 1, PACK_WIDTH
    for p in prime_factors(n):
        block = math.gcd(n, p ** n.bit_length()) // p  # p^(a-1), p^a exactly dividing n
        k, i = divmod(e % (block * p), block)
        if k:
            row <<= (i * (p - 1) + k - 1) * step
        else:
            row = (row << i * (p - 1) * step) * -sum(1 << (j * step) for j in range(p - 1))
        step *= block * (p - 1)
    return row


@cache
def _unit_value(o: int, p: int) -> complex:
    return cmath.exp(2j * cmath.pi * p / o)


def numeric_value(s: Sorou) -> complex:
    """Floating sum of the terms, for display and for the brute-force
    oracle; no exact verdict reads it."""
    return sum(map(_unit_value, *zip(*s))) if s else 0j


def _tower_vanishes(terms: dict[int, int], n: int) -> bool:
    """Whether sum(c * zeta_n**e for e, c in terms.items()) is zero, for a
    nonempty map of nonzero integer coefficients c, by peeling the smallest
    prime p of n (see the module docstring)."""
    if n == 1:
        return sum(terms.values()) == 0
    p = prime_factors(n)[0]
    m = n // p
    if m == 1:
        # 1, zeta_p, ..., zeta_p^(p-1) satisfy only the relation "sum = 0"
        return len(terms) == p and len(set(terms.values())) == 1
    # Only the classes mod p that hold a term are built: p can be as large
    # as the order a user types.
    groups: dict[int, dict[int, int]] = {}
    if m % p == 0:
        # zeta_n^e = zeta_n^(e mod p) * zeta_m^(e // p)
        for e, c in terms.items():
            groups.setdefault(e % p, {})[e // p] = c
        return all(_tower_vanishes(g, m) for g in groups.values())
    # zeta_p * zeta_m is a primitive n-th root of unity, so replacing zeta_n
    # by it is a field automorphism, which preserves vanishing
    for e, c in terms.items():
        groups.setdefault(e % p, {})[e % m] = c
    if len(groups) < p:
        # an empty class has value 0, so every g_j must vanish
        return all(_tower_vanishes(g, m) for g in groups.values())
    g0 = groups[0]
    for g in groups.values():
        if g == g0:
            continue
        diff = dict(g)
        for e, c in g0.items():
            d = diff.get(e, 0) - c
            if d:
                diff[e] = d
            else:
                del diff[e]
        if diff and not _tower_vanishes(diff, m):
            return False
    return True


def is_vanishing(s: Sorou) -> bool:
    """Exact vanishing test, descending the cyclotomic tower of order(s).

    With N = order(s) and p its smallest prime: when p divides M = N/p,
    zeta_N^0..zeta_N^(p-1) are a basis over Q(zeta_M), so each class of
    exponents mod p must vanish at order M; otherwise, up to the
    automorphism zeta_N -> zeta_p * zeta_M, s is sum_j zeta_p^j g_j with
    g_j in Q(zeta_M), where 1 + zeta_p + ... + zeta_p^(p-1) = 0 is the only
    relation, so every g_j - g_0 must vanish at order M.  Order 1 is an
    integer test.  No cyclotomic polynomial and no floating value is used.
    """
    if not s:
        raise ValueError("empty sorou")
    n = order(s)
    terms: dict[int, int] = {}
    for o, p in s:
        e = p * (n // o)
        terms[e] = terms.get(e, 0) + 1
    return _tower_vanishes(terms, n)


def values_equal(s1: Sorou, s2: Sorou) -> bool:
    """Exact equality of sorou values, via vanishing of s1 - s2."""
    if not s1 or not s2:
        raise ValueError("empty sorou")
    diff = subtract(s1, s2)
    return not diff or is_vanishing(diff)
