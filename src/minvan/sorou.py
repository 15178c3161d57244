"""Sums of roots of unity (sorou) and their structural algebra.

A root of unity is a reduced pair ``(order, power)`` with ``0 <= power <
order`` and ``gcd(order, power) == 1``; the pair ``(1, 0)`` is the root 1 and
``(2, 1)`` is -1.  A sorou is a tuple of such pairs sorted ascending by
``(order, power)``, with multiplicity expressed by repetition.  All values are
immutable and safe to share across threads.

This module is purely structural: rotation, orders, parity, subtraction,
subsorou streams, canonical forms under rotation (one least-rotation walk,
`least_rotation`), and the subsidiary decomposition at the top prime, both
computed on term exponents.  Deciding whether a sorou vanishes lives in
:mod:`minvan.cyclotomic`.

It keeps one memo per question: `_rank_table(n)` answers "which root has
rank i at order n?" with every column a caller reads (rank, root, exponent,
order, text), and `_chunk_root` answers "which root does this term text
name?" for `parse_sorou`, bounded like the other memos `verify` reads.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache, lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from minvan.arith import is_squarefree, prime_factors

Root = tuple[int, int]
Sorou = tuple[Root, ...]

ONE: Root = (1, 0)
MINUS_ONE: Root = (2, 1)

# Sub-multiset questions are guarded.  The library's one sub-multiset DP
# (`minimality._subsum_layers`) sums at most this many packed tower rows,
# whose coordinates are 0 or +-1, so the guard alone fixes the packing width
# (`cyclotomic.PACK_WIDTH`).  The streams below serve only the benchmark's
# tracer and the tests' subset oracles; for them the guard bounds a stream
# at 2**24 combinations: `combinations` walks every index subset, so
# repeated terms cost as much as distinct ones.
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


MAX_ORDER = 10**24  # `parse_sorou`'s bound: factoring an order below it takes under 1 s


def parse_sorou(text: str) -> Sorou:
    """Parse the ``ORDER:POWER(+ORDER:POWER)*`` grammar; terms are reduced
    and sorted as by `sorou`.  A bad term is refused with its position, and
    a sum of order above MAX_ORDER is refused."""
    if not text:
        raise ValueError("sorou parse error at position 0: empty text")
    terms = []
    pos = 0
    for chunk in text.split("+"):
        try:
            terms.append(_chunk_root(chunk))
        except ValueError as exc:
            raise ValueError(f"sorou parse error at position {pos}: {exc}") from None
        pos += len(chunk) + 1
    terms.sort()
    if math.lcm(*[o for o, _ in terms]) > MAX_ORDER:
        raise ValueError(f"sorou order is above the bound MAX_ORDER = {MAX_ORDER:.0e}")
    return tuple(terms)


@lru_cache(maxsize=4096)
def _chunk_root(chunk: str) -> Root:
    """The root one ``ORDER:POWER`` term names.  The memo holds the terms
    of each f0 `load_db` parses and each `verify` query; an exception is
    not cached, so a bad term is refused on every parse."""
    o, sep, p = chunk.partition(":")
    if not sep or not o.isdigit() or not p.isdigit():
        raise ValueError(f"bad term {chunk!r}")
    if int(o) <= 0:
        raise ValueError("zero order")
    return make_root(int(o), int(p))


def _root_text(r: Root) -> str:
    return f"{r[0]}:{r[1]}"


def render_sorou(s: Sorou) -> str:
    return "+".join(map(_root_text, s))


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
    """Order of the group generated by the term ratios of s: with terms
    nu_N^e_i, N = order(s), the subgroup of Z/N spanned by e_i - e_0."""
    return _anchored(s)[0]


def _anchored(s: Sorou) -> tuple[int, list[int]]:
    """(r, es): r = relative_order(s), and es the exponents mod r of the
    terms of s, in their order, once s is rotated to take s[0] to 1."""
    n = order(s)
    es = [p * (n // o) for o, p in s]
    g = math.gcd(n, *(e - es[0] for e in es))
    return n // g, [(e - es[0]) // g % (n // g) for e in es]


def _top_prime(r: int) -> int:
    if not is_squarefree(r):
        raise ValueError("subsidiary decomposition undefined: relative order not squarefree")
    if r == 1:
        raise ValueError("no top prime: relative order 1")
    return prime_factors(r)[-1]


def top_prime(s: Sorou) -> int:
    """Largest prime of relative_order(s), the prime `to_subsidiary` splits
    at, found without decomposing s."""
    return _top_prime(relative_order(s))


def parity(s: Sorou) -> tuple[int, int]:
    """Unordered (max, min) count of odd- versus even-order terms of s
    rotated to take s[0] to 1, whose order is the relative order; defined
    only when that order is squarefree."""
    return _parity(*_anchored(s))


def _parity(r: int, es: list[int]) -> tuple[int, int]:
    """`parity` on `_anchored(s)`: the term of exponent a has order r / gcd(r, a)."""
    if not is_squarefree(r):
        raise ValueError("parity undefined: relative order not squarefree")
    return _order_parity([r // math.gcd(r, a) for a in es])


def _order_parity(orders: Sequence[int]) -> tuple[int, int]:
    """Unordered (max, min) count of odd versus even orders."""
    odd = sum([o & 1 for o in orders])
    return (max(odd, len(orders) - odd), min(odd, len(orders) - odd))


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


def sub_multisets_of_size(s: Sorou, k: int) -> Iterator[Sorou]:
    """Distinct sub-multisets of s with exactly k terms, each yielded once:
    the tests' reference walk (the library walks no subsets).

    s is sorted, so every combination is already a sorted sorou.  Only
    repeated terms produce duplicates; the dict that drops them holds a whole
    level (about 0.5 GB for 12 of 24 terms), so distinct terms skip it.
    """
    if len(set(s)) == len(s):
        return combinations(s, k)
    return iter(dict.fromkeys(combinations(s, k)))


def proper_nonempty_subsorous(s: Sorou) -> Iterator[Sorou]:
    """Each proper nonempty sub-multiset of s exactly once (a test oracle)."""
    if weight(s) > SUBSET_GUARD_WEIGHT:
        raise ValueError(f"subset explosion: weight {weight(s)} exceeds guard")
    for k in range(1, weight(s)):
        yield from sub_multisets_of_size(s, k)


@cache
def _rank_table(n: int) -> tuple[tuple, ...]:
    """(rank, roots, exponents, orders, texts) for the roots of order
    dividing n: rank[e] is the place of nu_n^e in (order, power) order, and
    the other four give, in that order, each root, its exponent mod n, its
    order and its `render_sorou` text."""
    roots = tuple(sorted(make_root(n, e) for e in range(n)))
    exponents = tuple([p * (n // o) for o, p in roots])
    rank = [0] * n
    for i, e in enumerate(exponents):
        rank[e] = i
    return tuple(rank), roots, exponents, tuple([o for o, _ in roots]), tuple(map(_root_text, roots))


def _exponent_mask(es: Iterable[int]) -> int:
    """The integer with bit e set for each exponent e of es."""
    t = 0
    for e in es:
        t |= 1 << e
    return t


def least_rotation(es: list[int], n: int, mask: int = 0) -> list[int]:
    """Sorted ranks (see `_rank_table`) of the least term-anchored rotation
    of the exponent multiset es, every exponent in range(n).  A caller that
    has `_exponent_mask(es)` may pass it as mask.

    Rotating by the inverse of the term nu_n^a subtracts a, so anchor a's
    rotation holds rank r iff nu_n^(a + d_r) is a term, d_r the exponent of
    rank r (the exponents column of `_rank_table`).

    * Distinct terms: the mask walk.  Every rotation is a set of len(es)
      ranks, and of two such sets the one holding the least rank of their
      difference sorts first.  So a rank that some but not all surviving
      anchors reach keeps exactly those that reach it.  The survivors are
      one bitmask `live`, all terms at the start, and `live & (tt >> d_r)`
      is those that reach r, tt the terms' mask doubled to 2n bits so that
      the shift wraps around mod n.  The walk visits the ranks r = 1, 2,
      ... and stops when one anchor is left, or when the survivors have
      reached len(es) - 1 ranks: they agree on every rank visited, so
      their rotations are then equal and any one is least.  It visits at
      most len(es) ranks, since at a large n, where the terms may lie far
      apart, an uncapped walk could visit thousands; the anchors left then
      are compared by sorting their rotations.
    * Repeated terms: only a term of maximal multiplicity can anchor the
      least rotation, since rank 0 (the root 1) is the least rank and its
      count is the anchor's multiplicity.  Those anchors' rotations are
      compared by sorting.

    `rank[e - a]` is `rank[(e - a) % n]` by Python's negative indexing.
    """
    rank, _, exponents, _, _ = _rank_table(n)
    w = len(es)
    if (t := mask or _exponent_mask(es)).bit_count() == w:
        live, tt, need = t, t | t << n, w - 1
        for d in exponents[1 : w + 1]:
            reached = live & (tt >> d)
            if reached:
                if reached != live:
                    live = reached
                    if not live & (live - 1):
                        break
                need -= 1
                if not need:
                    live &= -live  # equal rotations: keep one
                    break
        if not live & (live - 1):  # one anchor left
            a = live.bit_length() - 1
            return sorted([rank[e - a] for e in es])
        anchors = [e for e in es if live >> e & 1]
    else:
        counts = Counter(es)
        top = max(counts.values())
        anchors = [a for a, c in counts.items() if c == top]
    return min(sorted([rank[e - a] for e in es]) for a in anchors)


def canonicalize(s: Sorou) -> Sorou:
    """Lexicographic minimum over all term-anchored rotations of s.

    Term-anchoring is complete for the rotation orbit: a rotation z*s whose
    sorted term list can be minimal must contain the root 1, which forces z
    to be the inverse of a term.

    Every term and every anchored rotation lives in N = order(s), so terms
    are exponents mod N, and `least_rotation` finds the least anchored
    rotation on them.  Ranks preserve (order, power) order, so the least
    sorted rank list is the least rotation.

    The result holds the root 1, which sorts first, as often as any term
    occurs, so `parity`, `height` and `relative_order` of a least rotation
    depend only on its term orders: `enumeration.type_statistics` reads
    them off those orders.
    """
    if not s:
        raise ValueError("empty sorou")
    n = order(s)
    _, roots, _, _, _ = _rank_table(n)
    return tuple([roots[i] for i in least_rotation([p * (n // o) for o, p in s], n)])


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


def to_subsidiary(s: Sorou) -> tuple[Sorou, ...]:
    """The slots f_0..f_{p-1} of s = sum_j nu_p^j f_j at its top prime p,
    one part per slot, normalized so that f_0 is a nonempty part of minimal
    weight containing the root 1.

    On the exponents a mod r = p m of s anchored at s[0] (`_anchored`): by
    CRT, nu_r^a = nu_p^(a x) nu_m^(a y) for x = m^-1 mod p and y = p^-1
    mod m, so a goes to slot a x mod p with tail exponent a y mod m.  Only
    slots that hold a term are built; tails become roots in the parts."""
    r, es = _anchored(s)
    p = _top_prime(r)
    m = r // p
    x, y = pow(m, -1, p), pow(p, -1, m)
    slots: dict[int, list[int]] = {}
    for a in es:
        slots.setdefault(a * x % p, []).append(a * y % m)
    j0 = min(slots, key=lambda j: (len(slots[j]), j))
    u = min(slots[j0], key=lambda b: make_root(m, b))
    shifted = (slots.get(j % p, ()) for j in range(j0, j0 + p))
    return tuple(tuple(sorted([make_root(m, b - u) for b in tails])) for tails in shifted)


def from_subsidiary(parts: tuple[Sorou, ...]) -> Sorou:
    """sum_j nu_p^j parts[j], p = len(parts)."""
    out = []
    for j, part in enumerate(parts):
        z = make_root(len(parts), j)
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
    """Unique permutations of a multiset of hashable items, equal items
    grouped in first-seen order.  ``itertools`` has no multiset
    permutations, and deduplicating ``permutations`` would walk all n!
    orderings.
    """
    counts = Counter(items)
    n = len(items)
    out: list = [None] * n

    def rec(depth: int) -> Iterator[tuple]:
        if depth == n:
            yield tuple(out)
            return
        for it, c in counts.items():
            if c:
                counts[it] = c - 1
                out[depth] = it
                yield from rec(depth + 1)
                counts[it] = c

    return rec(0)
