"""Small exact integer helpers shared across the package."""

from __future__ import annotations

import math
from functools import cache
from itertools import count


# Trial division covers every factor below this bound; what is left over,
# when it is not 1, has only prime factors at or above it.
_TRIAL_BOUND = 64

# The first 13 primes as Miller-Rabin bases decide primality for every n
# below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@cache
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1, ascending.

    Trial division finds the factors below `_TRIAL_BOUND`, which is all of
    them for n below its square.  A larger cofactor is split by Pollard-Brent
    rho until every piece passes `_is_prime`, so an order a user types with
    two ten-digit prime factors takes milliseconds, not hours.
    """
    out = set()
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or _is_prime(m):
            out.add(m)
        else:
            f = _pollard_brent(m)
            pending += [f, m // f]
    return tuple(sorted(out))


def _is_prime(n: int) -> bool:
    """Miller-Rabin on an odd n > 41 over `_MR_BASES`: deterministic below
    `_MR_BOUND`.  Above it, the bases are every integer up to 2 (ln n)^2, the
    Miller test, which is deterministic under the generalized Riemann
    hypothesis."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    if n < _MR_BOUND:
        bases = _MR_BASES
    else:
        bases = range(2, min(n - 1, 2 * math.floor(math.log(n) ** 2) + 1))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's variant of Pollard
    rho: x -> x^2 + c from x = 2, the gcd taken once per batch of steps; c
    = 1, 2, ... until a factor other than n turns up)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@cache
def is_squarefree(n: int) -> bool:
    return all(n % (p * p) for p in prime_factors(n))


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == (n,)


@cache
def primes_upto(n: int) -> tuple[int, ...]:
    return tuple(k for k in range(2, n + 1) if is_prime(k))


def primes_below(n: int) -> tuple[int, ...]:
    return primes_upto(n - 1)


def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


@cache
def units(n: int) -> tuple[int, ...]:
    """Residues coprime to n in [1, n]; (1,) for n = 1."""
    if n == 1:
        return (1,)
    return tuple(k for k in range(1, n) if math.gcd(k, n) == 1)
