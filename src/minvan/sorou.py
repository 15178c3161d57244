"""Sums of roots of unity (sorou) and their structural algebra.

A root of unity is a reduced pair ``(order, power)`` with ``0 <= power <
order`` and ``gcd(order, power) == 1``; the pair ``(1, 0)`` is the root 1 and
``(2, 1)`` is -1.  A sorou is a tuple of such pairs sorted ascending by
``(order, power)``, with multiplicity expressed by repetition.  All values are
immutable and safe to share across threads.

This module is purely structural: rotation, orders, parity, subtraction,
subsorou streams, canonical forms under rotation, and the subsidiary
decomposition at the top prime.  Deciding whether a sorou vanishes lives in
:mod:`minvan.cyclotomic`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Iterable, Iterator

from minvan.arith import is_squarefree, prime_factors

Root = tuple[int, int]
Sorou = tuple[Root, ...]

ONE: Root = (1, 0)
MINUS_ONE: Root = (2, 1)

# Subset streams are guarded: Prop-2.3 style checks only ever enumerate
# subsets of subsidiary parts, whose weights stay well below this in scope.
# The minimality criterion walks no `combinations`: its sub-multiset DP over
# packed residues sizes the packing width by this guard.  For the users of
# `sub_multisets_of_size` (`proper_nonempty_subsorous` and minimality's
# `_smallest_vanishing`) the guard bounds a stream at 2**24 combinations:
# `combinations` walks every index subset, so repeated terms cost as much as
# distinct ones.
SUBSET_GUARD_WEIGHT = 24


def make_root(order: int, power: int) -> Root:
    """Reduced root of unity e^(2*pi*i*power/order)."""
    if order <= 0:
        raise ValueError(f"root order must be positive, got {order}")
    power %= order
    if power == 0:
        return ONE
    g = math.gcd(order, power)
    return (order // g, power // g)


def root_mul(a: Root, b: Root) -> Root:
    l = a[0] * b[0] // math.gcd(a[0], b[0])
    return make_root(l, a[1] * (l // a[0]) + b[1] * (l // b[0]))


def root_inv(a: Root) -> Root:
    return (a[0], a[0] - a[1]) if a[1] else a


def root_neg(a: Root) -> Root:
    return root_mul(a, MINUS_ONE)


def sorou(terms: Iterable[tuple[int, int]]) -> Sorou:
    """Normalize an iterable of (order, power) pairs into a sorou."""
    return tuple(sorted(make_root(o, p) for o, p in terms))


def parse_sorou(text: str) -> Sorou:
    """Parse the ``ORDER:POWER(+ORDER:POWER)*`` grammar."""
    if not text:
        raise ValueError("sorou parse error at position 0: empty text")
    terms = []
    pos = 0
    for chunk in text.split("+"):
        o, sep, p = chunk.partition(":")
        if not sep or not o.isdigit() or not p.isdigit():
            raise ValueError(f"sorou parse error at position {pos}: bad term {chunk!r}")
        if int(o) <= 0:
            raise ValueError(f"sorou parse error at position {pos}: zero order")
        terms.append((int(o), int(p)))
        pos += len(chunk) + 1
    return sorou(terms)


def render_sorou(s: Sorou) -> str:
    return "+".join(f"{o}:{p}" for o, p in s)


def rotate(s: Sorou, z: Root) -> Sorou:
    return tuple(sorted(root_mul(t, z) for t in s))


def weight(s: Sorou) -> int:
    return len(s)


def height(s: Sorou) -> int:
    return max(Counter(s).values()) if s else 0


def order(s: Sorou) -> int:
    if not s:
        raise ValueError("empty sorou")
    return math.lcm(*(o for o, _ in s))


def relative_order(s: Sorou) -> int:
    # The lcm of all ratio orders equals the order of any term-anchored
    # rotation, since every ratio is a quotient of anchored ratios.
    return order(rotate(s, root_inv(s[0]))) if s else _raise_empty()


def _raise_empty():
    raise ValueError("empty sorou")


def parity(s: Sorou) -> tuple[int, int]:
    """Unordered (max, min) count of odd- versus even-order terms.

    Computed on a rotation representative whose order equals the relative
    order; defined only when that order is squarefree.
    """
    r = relative_order(s)
    if not is_squarefree(r):
        raise ValueError("parity undefined: relative order not squarefree")
    rep = rotate(s, root_inv(s[0]))
    odd = sum(1 for o, _ in rep if o % 2)
    return (max(odd, len(rep) - odd), min(odd, len(rep) - odd))


def subtract(a: Sorou, b: Sorou) -> Sorou:
    """a - b: cancel common terms with multiplicity, negate the rest of b."""
    remaining = Counter(a)
    negated = []
    for t in b:
        if remaining[t] > 0:
            remaining[t] -= 1
        else:
            negated.append(root_neg(t))
    return tuple(sorted(list(remaining.elements()) + negated))


def is_subsorou(g: Sorou, h: Sorou) -> bool:
    return Counter(g) <= Counter(h)


def sub_multisets_of_size(s: Sorou, k: int) -> Iterator[Sorou]:
    """Distinct sub-multisets of s with exactly k terms, each yielded once.

    s is sorted, so every combination is already a sorted sorou.  Only
    repeated terms produce duplicates; the dict that drops them holds a whole
    level (about 0.5 GB for 12 of 24 terms), so distinct terms skip it.
    """
    if len(set(s)) == len(s):
        return combinations(s, k)
    return iter(dict.fromkeys(combinations(s, k)))


def proper_nonempty_subsorous(s: Sorou) -> Iterator[Sorou]:
    """Each proper nonempty sub-multiset of s exactly once."""
    if weight(s) > SUBSET_GUARD_WEIGHT:
        raise ValueError(f"subset explosion: weight {weight(s)} exceeds guard")
    for k in range(1, weight(s)):
        yield from sub_multisets_of_size(s, k)


@cache
def _rank_table(n: int) -> tuple[tuple[int, ...], tuple[Root, ...]]:
    """(rank, roots) for the roots of order dividing n: rank[e] is the place
    of nu_n^e in (order, power) order, and roots[rank[e]] is that root."""
    roots = tuple(sorted(make_root(n, e) for e in range(n)))
    rank = [0] * n
    for i, (o, p) in enumerate(roots):
        rank[p * (n // o)] = i
    return tuple(rank), roots


def canonicalize(s: Sorou) -> Sorou:
    """Lexicographic minimum over all term-anchored rotations of s.

    Term-anchoring is complete for the rotation orbit: a rotation z*s whose
    sorted term list can be minimal must contain the root 1, which forces z
    to be the inverse of a term.

    Every term and every anchored rotation lives in N = order(s), so terms
    are exponents mod N and rotating by the inverse of the term nu_N^a
    subtracts a.  Ranks preserve (order, power) order, so the least sorted
    rank tuple is the least rotation.
    """
    if not s:
        raise ValueError("empty sorou")
    n = order(s)
    rank, roots = _rank_table(n)
    es = [p * (n // o) for o, p in s]
    best = min(tuple(sorted(rank[(e - a) % n] for e in es)) for a in dict.fromkeys(es))
    return tuple(roots[i] for i in best)


def equivalent(s1: Sorou, s2: Sorou) -> bool:
    return canonicalize(s1) == canonicalize(s2)


def split_root(r: Root, p: int) -> tuple[Root, Root]:
    """Split r into (power of nu_p, root of order coprime to p) by CRT."""
    o, q = r
    if o % p:
        return (ONE, r)
    m = o // p
    if m % p == 0:
        raise ValueError(f"cannot split root of order {o}: divisible by {p}^2")
    x = q * pow(m, -1, p) % p
    y = q * pow(p, -1, m) % m
    return (make_root(p, x), make_root(m, y))


@dataclass(frozen=True)
class SubsidiaryDecomposition:
    """Slot sorou f_0..f_{p-1} of h = sum_j nu_p^j f_j at the top prime p."""

    top_prime: int
    parts: tuple[Sorou, ...]

    def __post_init__(self):
        if len(self.parts) != self.top_prime:
            raise ValueError("subsidiary decomposition needs one part per slot")


def to_subsidiary(s: Sorou) -> SubsidiaryDecomposition:
    """Decompose s at its top prime, normalized so that f_0 is a nonempty
    part of minimal weight containing the root 1."""
    r = relative_order(s)
    if not is_squarefree(r):
        raise ValueError("subsidiary decomposition undefined: relative order not squarefree")
    if r == 1:
        raise ValueError("no top prime: relative order 1")
    rep = rotate(s, root_inv(s[0]))
    p = prime_factors(r)[-1]
    buckets: list[list[Root]] = [[] for _ in range(p)]
    for t in rep:
        head, tail = split_root(t, p)
        buckets[head[1] if head[0] == p else 0].append(tail)
    j0 = min((j for j in range(p) if buckets[j]), key=lambda j: (len(buckets[j]), j))
    shifted = [buckets[(j + j0) % p] for j in range(p)]
    u = root_inv(min(shifted[0]))
    parts = tuple(tuple(sorted(root_mul(t, u) for t in part)) for part in shifted)
    return SubsidiaryDecomposition(p, parts)


def from_subsidiary(d: SubsidiaryDecomposition) -> Sorou:
    out = []
    for j, part in enumerate(d.parts):
        z = make_root(d.top_prime, j)
        out.extend(root_mul(z, t) for t in part)
    return tuple(sorted(out))


def labeled_partitions(s: Sorou, m: int) -> Iterator[tuple[Sorou, ...]]:
    """Ordered partitions of the multiset s into m nonempty labeled parts, in
    lexicographic order of the per-root count vectors."""
    groups = sorted(Counter(s).items())
    splits = [
        [c for c in product(range(mult + 1), repeat=m) if sum(c) == mult] for _, mult in groups
    ]
    partitions = (
        tuple(
            tuple(root for (root, _), c in zip(groups, choice) for _ in range(c[j]))
            for j in range(m)
        )
        for choice in product(*splits)
    )
    return (parts for parts in partitions if all(parts))


def distinct_permutations(items: list) -> Iterator[tuple]:
    """Unique permutations of a multiset.

    Items need only equality, not order or hashing; equal items are grouped
    in first-seen order.  ``itertools`` has no multiset permutations, and
    deduplicating ``permutations`` would walk all n! orderings.
    """
    pool: list = []
    counts: list[int] = []
    for it in items:
        for i, existing in enumerate(pool):
            if existing == it:
                counts[i] += 1
                break
        else:
            pool.append(it)
            counts.append(1)
    n = len(items)
    out: list = [None] * n

    def rec(depth: int) -> Iterator[tuple]:
        if depth == n:
            yield tuple(out)
            return
        for i, it in enumerate(pool):
            if counts[i]:
                counts[i] -= 1
                out[depth] = it
                yield from rec(depth + 1)
                counts[i] += 1

    return rec(0)
