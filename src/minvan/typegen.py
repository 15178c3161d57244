"""Weight-by-weight generation of all minimal vanishing types.

For the next weight W, every prime p <= W and every f0 weight w0 with
p * w0 <= W is considered.  Each of the other p - 1 slots either repeats
f0 or holds a subsidiary type T of weight at least 2 * w0, drawn from sums
of already-classified minimal types with top prime below p; a type's
weight is p * w0 plus w(T) - 2 * w0 over its subtypes.  One multiset walk
draws both the components of each such sum and the subtypes of each
candidate.  A candidate with subtypes must contain at least one minimal
subsidiary type.  Each candidate is certified on its assemblies' slots: an
assembly's verdict reads only which slots it holds, not where they sit, so
certification tries one slot option per subtype occurrence, with f0 always
a slot, and never places them; it stops at the first choice that is
minimal.  Survivors form the complete list for weight W.  Each subtype
pool is built once per generated weight.

Whether types are collapsed to one representative per Galois family (the
classification table's y-parameter grouping) is read from the database
header.  A closed-form generator for relative orders dividing 2pq serves as
an independent oracle.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from minvan.arith import primes_below, primes_upto, units
from minvan.enumeration import SorouCache, has_minimal_realization
from minvan.minimality import _has_vanishing_subsorou
from minvan.sorou import (
    ONE,
    Sorou,
    canonicalize,
    sorou,
)
from minvan.types import (
    MinVanType,
    TypeSum,
    family_representative,
    minvan_key,
    minvan_weight,
    sum_key,
    type_weight,
)


@dataclass(frozen=True)
class GenerationConfig:
    target_weight: int

    def __post_init__(self):
        if self.target_weight < 2:
            raise ValueError("target weight must be at least 2")


def _f0_family_representative(f0: Sorou) -> Sorou:
    l = math.lcm(*(o for o, _ in f0))
    return min(
        canonicalize(sorou((o, p * k) for o, p in f0)) for k in units(l)
    )


@functools.cache  # one weight asks once per argument; weights 2-20 ask 242 times for 26
def candidate_f0s(w: int, p: int, collapse: bool) -> tuple[Sorou, ...]:
    """Weight-w candidates for the smallest subsidiary sorou at top prime p,
    sorted: 1 + nu_Q^{e_1} + ... over the full exponent range, Q the product
    of primes below p, excluding any f0 with a vanishing nonempty subsorou;
    with collapse, one f0 per Galois family."""
    if w == 1:
        return ((ONE,),)
    q = math.prod(primes_below(p))
    out = set()
    for exps in combinations(range(1, q), w - 1):
        f0 = sorou([(1, 0)] + [(q, e) for e in exps])
        if not _has_vanishing_subsorou(f0):
            out.add(canonicalize(f0))
    if collapse:
        out = {_f0_family_representative(f0) for f0 in out}
    return tuple(sorted(out))


def _multisets(items: list, gains: list[int], total: int, room: int) -> Iterator[tuple]:
    """Each multiset of at most room items whose nonnegative gains sum to
    total, as a tuple in item order.  A zero gain still takes room."""

    def rec(start: int, remaining: int, room: int) -> Iterator[tuple]:
        if remaining == 0:
            yield ()
        if room:
            for i in range(start, len(items)):
                if gains[i] <= remaining:
                    for rest in rec(i, remaining - gains[i], room - 1):
                        yield (items[i],) + rest

    return rec(0, total, room)


def _types_below(p: int, db) -> tuple[list[MinVanType], list[int]]:
    """The classified minimal types with top prime below p, in decreasing
    `minvan_key` order, so in decreasing weight, and their weights."""
    below = sorted(
        (m for m in (r.type.components[0] for r in db.records) if m.p < p),
        key=minvan_key,
        reverse=True,
    )
    return below, [minvan_weight(m) for m in below]


def _typesum_pool(
    below: tuple[list[MinVanType], list[int]], total_weight: int, max_components: int
) -> list[TypeSum]:
    """All type sums of exactly total_weight, at most max_components
    components, drawn from `_types_below` of a head p: the classified
    minimal types with top prime below p, which generation sorts once per
    head."""
    types, weights = below
    start = bisect.bisect_left(weights, -total_weight, key=operator.neg)  # skip heavier types
    sums = _multisets(types[start:], weights[start:], total_weight, max_components)
    return sorted((TypeSum(c) for c in sums if c), key=sum_key)


def _is_pure_r2_sum(t: TypeSum) -> bool:
    return all(m.p == 2 and not m.subtypes for m in t.components)


def _candidates(db, cfg: GenerationConfig) -> Iterator[MinVanType]:
    """Every candidate type of weight cfg.target_weight, before
    certification, Galois-collapsed if db.collapse: for each head p and
    f0 weight w0, the multisets of at most p - 1 subtypes whose weights
    beyond 2 * w0 make up the rest of the weight.  No subtype is a sum of
    R_2s only, and a nonempty multiset holds a minimal subtype."""
    w1 = cfg.target_weight
    for p in primes_upto(w1):
        below = _types_below(p, db)
        for w0 in range(1, w1 // p + 1):
            f0s = candidate_f0s(w0, p, db.collapse)
            if not f0s:
                continue
            rest = w1 - p * w0
            pool = [
                t
                for tw in range(2 * w0, 2 * w0 + rest + 1)
                for t in _typesum_pool(below, tw, w0)
                if not _is_pure_r2_sum(t)
            ]
            gains = [type_weight(t) - 2 * w0 for t in pool]
            for subtypes in _multisets(pool, gains, rest, p - 1):
                if subtypes and not any(t.is_minimal_claim for t in subtypes):
                    continue
                for f0 in f0s:
                    yield MinVanType(p, f0, subtypes)


def _certify(candidate: MinVanType, cache: SorouCache) -> bool:
    """A candidate type survives iff some sorou of that type is minimal
    vanishing; its assemblies are decided on their slots, reading the
    subtypes' classes from cache.  The candidate's own class list is never
    stored there.  `perfbench/spans.py` counts candidates and fallbacks by
    the calls to this function."""
    return has_minimal_realization(candidate, cache)


def generate_next_weight(
    db, cfg: GenerationConfig, cache: SorouCache | None = None
) -> list[MinVanType]:
    """All minimal vanishing types of cfg.target_weight, given a database
    complete through target_weight - 1.  Pass the cache that statistics use
    so certification reuses its class lists; None starts a fresh one.  The
    cache never changes the result.  Galois families are collapsed iff the
    database header says so (db.collapse)."""
    if cache is None:
        cache = SorouCache()
    w1 = cfg.target_weight
    if db.max_complete_weight != w1 - 1:
        raise ValueError(
            f"database complete through {db.max_complete_weight}, cannot generate weight {w1}"
        )
    out: dict = {}
    for m in _candidates(db, cfg):
        if not _certify(m, cache):
            continue
        t = TypeSum((m,))
        if db.collapse:
            t = family_representative(t)
        out[sum_key(t)] = t.components[0]
    return [out[k] for k in sorted(out)]


def types_2pq_oracle(p: int, q: int, weight_cap: int) -> list[MinVanType]:
    """Closed-form list of minimal types with relative order dividing 2pq:
    R_2, R_p, R_q and (R_q : sum_{i in I} nu_p^i : |J| R_p) over proper
    nonempty I containing 0 with |I| <= (p-1)/2 and 1 <= |J| <= q-1, one
    per Galois family."""
    if not (2 < p < q):
        raise ValueError("need odd primes p < q")
    found = []
    for head in (2, p, q):
        if head <= weight_cap:
            found.append(MinVanType(head, (ONE,)))
    rp = TypeSum((MinVanType(p, (ONE,)),))
    cache = SorouCache()
    for size in range(1, (p - 1) // 2 + 1):
        for rest in combinations(range(1, p), size - 1):
            f0 = sorou([(1, 0)] + [(p, e) for e in rest])
            for nj in range(1, q):
                if nj * (p - size) + (q - nj) * size > weight_cap:
                    continue
                cand = MinVanType(q, f0, (rp,) * nj)
                if _certify(cand, cache):
                    found.append(cand)
    out: dict = {}
    for m in found:
        t = family_representative(TypeSum((m,)))
        out[sum_key(t)] = t.components[0]
    return [out[k] for k in sorted(out)]
