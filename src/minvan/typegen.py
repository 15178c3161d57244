"""Weight-by-weight generation of all minimal vanishing types.

For the next weight W, every prime p <= W and every partition of W into p
positive parts is considered.  The smallest part is the weight of f0; each
other part x needs a subsidiary type of weight x + w(f0) drawn from sums of
already-classified minimal types with top prime below p (or, when x = w(f0),
the slot may simply repeat f0).  A candidate must contain at least one
minimal subsidiary type.  Each candidate is certified on its assemblies'
slots: an assembly's verdict reads only which slots it holds, not where
they sit, so certification tries one slot option per subtype occurrence,
with f0 always a slot, and never places them; it stops at the first choice
that is minimal.  Survivors form the complete list for weight W.  Each
subtype pool is built once per generated weight.

Whether types are collapsed to one representative per Galois family (the
classification table's y-parameter grouping) is read from the database
header.  A closed-form generator for relative orders dividing 2pq serves as
an independent oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
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
)


@dataclass(frozen=True)
class GenerationConfig:
    target_weight: int

    def __post_init__(self):
        if self.target_weight < 2:
            raise ValueError("target weight must be at least 2")


def partitions_into_parts(n: int, k: int) -> list[tuple[int, ...]]:
    """Nonincreasing k-tuples of positive integers summing to n."""
    if k < 1:
        raise ValueError("need at least one part")

    def rec(n: int, k: int, cap: int):
        if k == 0:
            if n == 0:
                yield ()
            return
        for first in range(min(n - k + 1, cap), 0, -1):
            for rest in rec(n - first, k - 1, first):
                yield (first,) + rest

    return list(rec(n, k, n))


def _f0_family_representative(f0: Sorou) -> Sorou:
    l = math.lcm(*(o for o, _ in f0))
    return min(
        canonicalize(sorou((o, p * k) for o, p in f0)) for k in units(l)
    )


def candidate_f0s(w: int, p: int, collapse: bool) -> list[Sorou]:
    """Weight-w candidates for the smallest subsidiary sorou at top prime p:
    1 + nu_Q^{e_1} + ... over the full exponent range, Q the product of
    primes below p, excluding any f0 with a vanishing nonempty subsorou;
    with collapse, one f0 per Galois family."""
    return list(_candidate_f0s(w, p, collapse))


@functools.cache  # generating weight 20 asks 258 times for about 20 arguments
def _candidate_f0s(w: int, p: int, collapse: bool) -> tuple[Sorou, ...]:
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


def typesum_pool(
    total_weight: int, p: int, max_components: int, db
) -> list[TypeSum]:
    """All type sums of exactly total_weight built from classified minimal
    types with top prime below p, at most max_components components."""
    cands = sorted(
        (
            m
            for m in (r.type.components[0] for r in db.records)
            if m.p < p and minvan_weight(m) <= total_weight
        ),
        key=minvan_key,
        reverse=True,
    )
    out: list[TypeSum] = []

    def rec(start: int, remaining: int, acc: list[MinVanType]):
        if remaining == 0:
            if acc:
                out.append(TypeSum(tuple(acc)))
            return
        if len(acc) == max_components or remaining < 2:
            return
        for i in range(start, len(cands)):
            w = minvan_weight(cands[i])
            if w <= remaining and (remaining == w or remaining - w >= 2):
                acc.append(cands[i])
                rec(i, remaining - w, acc)
                acc.pop()

    rec(0, total_weight, [])
    return sorted(out, key=sum_key)


def _is_pure_r2_sum(t: TypeSum) -> bool:
    return all(m.p == 2 and not m.subtypes for m in t.components)


def _subtype_combos(parts: tuple[int, ...], p: int, pool):
    """Candidate subtype multisets for the slot weights beyond slot 0;
    pool(total_weight, p, max_components) lists the subtypes to draw.  A
    nonempty multiset needs at least one minimal subtype."""
    w0 = parts[0]
    value_counts: dict[int, int] = {}
    for x in parts[1:]:
        value_counts[x] = value_counts.get(x, 0) + 1
    per_value = []
    for x in sorted(value_counts):
        options: list[TypeSum | None] = list(pool(x + w0, p, w0))
        if x == w0:
            options.append(None)  # slot repeats f0
        if not options:
            return
        per_value.append(list(combinations_with_replacement(options, value_counts[x])))
    for chosen in product(*per_value):
        subtypes = tuple(t for group in chosen for t in group if t is not None)
        if subtypes and not any(t.is_minimal_claim for t in subtypes):
            continue
        yield subtypes


def _candidates(db, cfg: GenerationConfig) -> Iterator[MinVanType]:
    """Every candidate type of weight cfg.target_weight, before
    certification, Galois-collapsed if db.collapse.  Each subtype pool is
    built once per call."""
    w1 = cfg.target_weight

    @functools.cache
    def pool(total_weight: int, p: int, max_components: int) -> list[TypeSum]:
        return [
            t for t in typesum_pool(total_weight, p, max_components, db) if not _is_pure_r2_sum(t)
        ]

    for p in primes_upto(w1):
        for partition in partitions_into_parts(w1, p):
            parts = tuple(sorted(partition))
            for f0 in candidate_f0s(parts[0], p, db.collapse):
                for subtypes in _subtype_combos(parts, p, pool):
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
