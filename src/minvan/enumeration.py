"""Enumeration of all sorou of a given type, up to rotation.

A minimal type is realized slot by slot: the first subtype is fixed at slot
0 (a cyclic shift of the slots is a rotation, and moves any slot to 0), the
remaining subtypes are placed injectively on the other slots, and every
placed subtype ranges over all rotations of all its sorou classes that
contain f0.  Non-minimal (sum) subtypes are enumerated anchored: f0's terms
are split among the minimal components, each component rotated to contain
its share — any sorou missing that property could only assemble into a
non-minimal parent.  There is no unanchored mode.

Each assembly is decided minimal or not on its slots, which are the parts
of its subsidiary decomposition (minimality.assembly_criterion), so the
certification fallback builds no sorou of the candidate type, and
statistics enumerate a type once and ask the criterion about no class.
Each (subtype, f0) pair's slot options are built once per cache, and each
type's criterion once per walk, with its pools (`_slot_pools`).

An assembled sorou is never built as (order, power) roots: each assembly
of a type is a list of exponents mod one order N for the whole type, with
their bitmask, and `sorou.least_rotation` finds its rotation class on them.
For distinct terms at an N of at most 256 per term it narrows the
candidate anchors as one bitmask, a shift and an AND per rank, until one
anchor is left or the survivors are equal rotations; the walk visits at
most weight-many ranks, and only the anchors left at that cap are sorted.
Only the yielded canonical form is converted back to roots.  The
statistics of a class (parity, height, relative order) are functions of
its order profile, so `parity`, `height` and `relative_order` are called
once per order profile of the type's minimal classes.

Results are deduplicated by canonical form (true rotation classes) and
memoized per rendered type, in memory: a run recomputes any list it needs.
The memo is transparent to results, and hands each new list over once
(`SorouCache.take_unsaved`) for `store.save_cache` to write out.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, combinations_with_replacement, product

from minvan.minimality import assembly_criterion
from minvan.sorou import (
    Sorou,
    _exponent_mask,
    _rank_table,
    distinct_permutations,
    height,
    least_rotation,
    order,
    parity,
    relative_order,
    subtract,
)
from minvan.types import (
    MinVanType,
    TypeRecord,
    TypeSum,
    _anchored_sums,
    render_minvan,
    type_weight,
)


class SorouCache:
    """Memo of rotation-class lists keyed by rendered type, and of the slot
    options of each (subtype, f0) pair.  It remembers which keys were put
    since `take_unsaved` last ran, so each list is written out once."""

    def __init__(self):
        self._classes: dict[str, tuple[Sorou, ...]] = {}
        self._slots: dict[tuple[TypeSum, Sorou], tuple[Sorou, ...]] = {}
        self._unsaved: list[str] = []

    def get(self, key: str) -> tuple[Sorou, ...] | None:
        return self._classes.get(key)

    def put(self, key: str, value: tuple[Sorou, ...]) -> None:
        if key not in self._classes:
            self._classes[key] = value
            self._unsaved.append(key)

    def as_dict(self) -> dict[str, tuple[Sorou, ...]]:
        return dict(self._classes)

    def take_unsaved(self) -> dict[str, tuple[Sorou, ...]]:
        """The class lists put since the last call."""
        unsaved = {k: self._classes[k] for k in self._unsaved}
        self._unsaved.clear()
        return unsaved


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


def _slot_pools(m: MinVanType, cache: SorouCache):
    """(labels, pools, failing): the subtypes of m as indices into pools,
    numbered in first-seen order; each distinct subtype's slot options, the
    last pool being (f0,), the slot that no subtype fills; and m's
    `assembly_criterion` on those options."""
    index: dict[TypeSum, int] = {}
    labels = [index.setdefault(t, len(index)) for t in m.subtypes]
    pools = [_slot_options(t, m.f0, cache) for t in index] + [(m.f0,)]
    return labels, pools, assembly_criterion(m.f0, chain.from_iterable(pools[:-1]))


def assembly_count(m: MinVanType, cache: SorouCache) -> int:
    """How many slot assemblies `_iter_assembled` walks for type m: the
    distinct placements of its subtypes, the first fixed at slot 0, times
    the product of their slot-pool sizes.  It builds the pools
    (`_slot_options`), which certification has usually built already, and
    no assembly."""
    rest = Counter(m.subtypes[1:])
    rest[None] = m.p - len(m.subtypes)  # the slots left to f0
    counts = rest.values()
    placements = math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))
    return placements * math.prod(len(_slot_options(t, m.f0, cache)) for t in m.subtypes)


def _assemblies(p: int, labels: list[int], pools: list[tuple[Sorou, ...]], failing):
    """Lazily yield (slots, minimal) for every slot assembly of a type m of
    top prime p, from its `_slot_pools`; the sorou is sum_j nu_p^j
    slots[j], never built here, and weighs w(m), as a slot f0 - v of
    subtype t weighs w(t) - w(f0).  `failing` decides minimality on the
    slots.  Placements permute the small integer labels of `_slot_pools`,
    the first subtype always at slot 0: a cyclic shift of the slots, which
    only rotates the sorou, moves any slot there."""
    empty = [len(pools) - 1] * (p - len(labels))
    for rest in distinct_permutations(labels[1:] + empty):
        for slots in product(*[pools[i] for i in (*labels[:1], *rest)]):
            yield slots, failing(slots) is None


def _iter_assembled(m: MinVanType, cache: SorouCache):
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
    labels, pools, failing = _slot_pools(m, cache)
    n = math.lcm(p, *(order(x) for pool in pools for x in pool))
    step = n // p
    _, roots = _rank_table(n)
    memo: dict[tuple[int, Sorou], tuple[list[int], int]] = {}
    for slots, minimal in _assemblies(p, labels, pools, failing):
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


def _enumerate(
    m: MinVanType, key: str, cache: SorouCache
) -> tuple[tuple[Sorou, ...], dict[Sorou, bool]]:
    """Enumerate m once and put its sorted class list in the cache under
    key, m's rendering; returns the classes and each one's verdict."""
    verdicts = dict(_iter_assembled(m, cache))
    classes = tuple(sorted(verdicts))
    cache.put(key, classes)
    return classes, verdicts


def sorou_of_minvan_type(m: MinVanType, cache: SorouCache) -> tuple[Sorou, ...]:
    """All rotation-class representatives of sorou of minimal type m."""
    key = render_minvan(m)
    hit = cache.get(key)
    return hit if hit is not None else _enumerate(m, key, cache)[0]


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
    labels, pools, failing = _slot_pools(m, cache)
    choices = product(
        *(combinations_with_replacement(pools[i], c) for i, c in Counter(labels).items())
    )
    return any(failing((m.f0, *chain.from_iterable(choice))) is None for choice in choices)


def type_statistics(m: MinVanType, cache: SorouCache) -> TypeRecord:
    """Enumerate m once, store its class list in the cache, and aggregate
    the parities, heights and relative orders of its minimal vanishing
    realizations; the record's other columns follow from m and the parities.

    Each class is the least rotation `_iter_assembled` yields, which
    contains the root 1, sorted first, as often as any term occurs.  So its
    height is its count of order-1 terms, its relative order the lcm of its
    term orders (1 is a term), and its parity the odd/even split of its
    term orders (`parity` rotates by the first term, 1).  All three are
    functions of the order profile (the sorted tuple of term orders), so
    `parity`, `height` and `relative_order` are called once per profile:
    the 12,732 minimal classes of weights 13 to 17 have 229 profiles.
    """
    key = render_minvan(m)
    classes, verdicts = _enumerate(m, key, cache)
    minimal = [s for s in classes if verdicts[s]]
    if not minimal:
        raise ValueError(f"type has no minimal realization: {key}")
    w = type_weight(TypeSum((m,)))
    for s in minimal:
        if len(s) != w:
            raise AssertionError("minimal realization with wrong weight")
    reps = {tuple([o for o, _ in s]): s for s in minimal}.values()  # one per profile
    return TypeRecord(
        type=TypeSum((m,)),
        relative_orders=frozenset(map(relative_order, reps)),
        parities=frozenset(map(parity, reps)),
        heights=frozenset(map(height, reps)),
    )
