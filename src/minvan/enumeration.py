"""Enumeration of all sorou of a given type, up to rotation.

A minimal type is realized slot by slot: the first subtype is anchored at
slot 0 (a sound cyclic-symmetry reduction, validated against the unanchored
search), the remaining subtypes are placed injectively on the other slots,
and every placed subtype ranges over all rotations of all its sorou classes
that contain f0.  Non-minimal (sum) subtypes are enumerated anchored: f0's
terms are split among the minimal components, each component rotated to
contain its share — any sorou missing that property could only assemble into
a non-minimal parent.

Each assembly is decided minimal or not on its slots, which are the parts
of its subsidiary decomposition (minimality.assembly_criterion), so the
certification fallback builds no sorou of the candidate type, and
statistics enumerate a type once and ask the criterion about no class.
Each (subtype, f0) pair's slot options are built once per cache.

An assembled sorou is never built as (order, power) roots: each assembly
of a type is a list of exponents mod one order N for the whole type, with
their bitmask, and `sorou.least_rotation` finds its rotation class on them.
For distinct terms at an N of at most 256 per term it narrows the
candidate anchors as one bitmask, a shift and an AND per rank, until one
anchor is left or the survivors are equal rotations; the walk visits at
most weight-many ranks, and only the anchors left at that cap are sorted.
Only the yielded canonical form is converted back to roots, and the
statistics of a class (parity, height, relative order) are read off that
form, which contains the root 1 at maximal multiplicity; no rotation or
decomposition is built for them, and they are computed once per order
profile of the type's minimal classes.

Results are deduplicated by canonical form (true rotation classes) and
memoized per rendered type; the memo can be persisted through the store
module and is transparent to results.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, combinations_with_replacement, product

from minvan.minimality import assembly_criterion
from minvan.sorou import (
    Sorou,
    _exponent_mask,
    _form_statistics,
    _rank_table,
    distinct_permutations,
    least_rotation,
    order,
    subtract,
)
from minvan.types import (
    MinVanType,
    TypeRecord,
    TypeSum,
    _anchored_sums,
    render_type,
    type_weight,
    weight_partition,
)


class SorouCache:
    """Memo of rotation-class lists keyed by rendered type, and of the slot
    options of each (subtype, f0) pair."""

    def __init__(self, data: dict[str, tuple[Sorou, ...]] | None = None):
        self._classes: dict[str, tuple[Sorou, ...]] = dict(data or {})
        self._slots: dict[tuple[TypeSum, Sorou], tuple[Sorou, ...]] = {}

    def get(self, key: str) -> tuple[Sorou, ...] | None:
        return self._classes.get(key)

    def put(self, key: str, value: tuple[Sorou, ...]) -> None:
        self._classes.setdefault(key, value)

    def as_dict(self) -> dict[str, tuple[Sorou, ...]]:
        return dict(self._classes)


def sorou_of_typesum_anchored(t: TypeSum, f0: Sorou, cache: SorouCache) -> list[Sorou]:
    """The distinct rotations of sorou of type t that contain f0, sorted.

    For a minimal-claim t these are the rotations of its classes.  For a sum
    of two or more types, the sums whose every component holds a nonempty
    share of f0 are built first, and then rotated the same way.
    """
    pools = [sorou_of_minvan_type(c, cache) for c in t.components]
    pool = pools[0] if t.is_minimal_claim else sorted(_anchored_sums(pools, f0))
    return sorted(_anchored_sums([pool], f0))


def _slot_options(t: TypeSum, f0: Sorou, cache: SorouCache) -> tuple[Sorou, ...]:
    """The slots f0 - v that subtype t offers, built once per cache."""
    key = (t, f0)
    hit = cache._slots.get(key)
    if hit is None:
        options = tuple(subtract(f0, v) for v in sorou_of_typesum_anchored(t, f0, cache))
        hit = cache._slots.setdefault(key, options)
    return hit


def _slot_pools(m: MinVanType, cache: SorouCache) -> tuple[list[int], list[tuple[Sorou, ...]]]:
    """(labels, pools): the subtypes of m as indices into pools, numbered in
    first-seen order, and each distinct subtype's slot options; the last
    pool is (f0,), the slot that no subtype fills."""
    index: dict[TypeSum, int] = {}
    labels = [index.setdefault(t, len(index)) for t in m.subtypes]
    pools = [_slot_options(t, m.f0, cache) for t in index] + [(m.f0,)]
    return labels, pools


def _assemblies(m: MinVanType, cache: SorouCache, anchor: bool = True):
    """Lazily yield (slots, minimal) for every slot assembly of type m; the
    sorou is sum_j nu_p^j slots[j], never built here, and weighs w(m), as a
    slot f0 - v of subtype t weighs w(t) - w(f0).  Minimality is decided on
    the slots (see minimality.assembly_criterion).  Placements permute the
    small integer labels of `_slot_pools`."""
    p = m.p
    labels, pools = _slot_pools(m, cache)
    failing = assembly_criterion(m.f0, chain.from_iterable(pools[:-1]))
    empty = [len(pools) - 1] * (p - len(labels))
    if anchor and labels:
        placements = ((labels[0],) + rest for rest in distinct_permutations(labels[1:] + empty))
    else:
        placements = distinct_permutations(labels + empty)
    for placement in placements:
        for slots in product(*[pools[i] for i in placement]):
            yield slots, failing(slots) is None


def _iter_assembled(m: MinVanType, cache: SorouCache, anchor: bool = True):
    """Lazily yield (canonical form, minimal) for every slot assembly of
    type m (duplicates possible across assemblies).

    Every assembly of m lives in mu_n, n = lcm(p, orders of f0 and of every
    slot option), so a slot x at position j is the exponent list
    j*n/p + e mod n, e the exponents of x; each (j, x) list is built once,
    with its `sorou._exponent_mask`, and an assembly's mask, the OR of its
    slots' masks, goes to `least_rotation` with its exponents.
    `least_rotation` at n picks the same class as `canonicalize` at the
    assembly's own order, which divides n: its anchored rotations stay in
    that subgroup, and (order, power) ranks order it alike in both tables.
    """
    p = m.p
    _, pools = _slot_pools(m, cache)
    n = math.lcm(p, *(order(x) for pool in pools for x in pool))
    step = n // p
    _, roots = _rank_table(n)
    memo: dict[tuple[int, Sorou], tuple[list[int], int]] = {}
    for slots, minimal in _assemblies(m, cache, anchor):
        es: list[int] = []
        t = 0
        for key in enumerate(slots):
            hit = memo.get(key)
            if hit is None:
                j, x = key
                part = [(j * step + q * (n // o)) % n for o, q in x]
                hit = memo[key] = part, _exponent_mask(part)
            es += hit[0]
            t |= hit[1]
        yield tuple([roots[i] for i in least_rotation(es, n, t)]), minimal


def sorou_of_minvan_type(
    m: MinVanType, cache: SorouCache, anchor: bool = True
) -> tuple[Sorou, ...]:
    """All rotation-class representatives of sorou of minimal type m."""
    key = render_type(TypeSum((m,)))
    if anchor:
        hit = cache.get(key)
        if hit is not None:
            return hit
    result = tuple(sorted(dict(_iter_assembled(m, cache, anchor))))
    if anchor:
        cache.put(key, result)
    return result


def has_minimal_realization(m: MinVanType, cache: SorouCache) -> bool:
    """True when some sorou of type m is minimal vanishing; builds no sorou
    of type m.

    An assembly's verdict reads only the set of its slots
    (`minimality.assembly_criterion`), not where they sit, so placements
    are not walked: each occurrence of a subtype chooses one of its slot
    options, a multiset of options per distinct subtype, and f0 is always a
    slot (a type has at most p - 1 subtypes).  Every assembly has the slot
    set of one such choice, and every choice is the slot set of some
    assembly, so m has a minimal realization iff some choice passes.  The
    search stops at the first that does.
    """
    labels, pools = _slot_pools(m, cache)
    failing = assembly_criterion(m.f0, chain.from_iterable(pools[:-1]))
    choices = product(
        *(combinations_with_replacement(pools[i], c) for i, c in Counter(labels).items())
    )
    return any(failing((m.f0, *chain.from_iterable(choice))) is None for choice in choices)


def type_statistics(m: MinVanType, cache: SorouCache) -> TypeRecord:
    """Enumerate m once, store its class list in the cache, and aggregate
    the parities, heights, relative orders and equisigned flag of its
    minimal vanishing realizations.

    Each class is the least rotation `_iter_assembled` yields, so the three
    statistics are read off its terms (`sorou._form_statistics`): height is
    the count of the root 1, relative order the lcm of the term orders, and
    parity the odd/even split of the terms themselves.  All three read only
    the term orders, so they are computed once per order profile (the
    sorted tuple of term orders): the 12,732 minimal classes of weights 13
    to 17 have 229 profiles.
    """
    key = render_type(TypeSum((m,)))
    verdicts = dict(_iter_assembled(m, cache))
    classes = tuple(sorted(verdicts))
    cache.put(key, classes)
    minimal = [s for s in classes if verdicts[s]]
    if not minimal:
        raise ValueError(f"type has no minimal realization: {key}")
    w = type_weight(TypeSum((m,)))
    for s in minimal:
        if len(s) != w:
            raise AssertionError("minimal realization with wrong weight")
    profiles = {tuple([o for o, _ in s]): s for s in minimal}
    parities, heights, rel_orders = map(
        frozenset, zip(*map(_form_statistics, profiles.values()))
    )
    return TypeRecord(
        type=TypeSum((m,)),
        weight=w,
        top_prime=m.p,
        partition=weight_partition(m),
        relative_orders=rel_orders,
        parities=parities,
        heights=heights,
        equisigned=any(a == b for a, b in parities),
    )
