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
of its subsidiary decomposition: `minimality.assembly_criterion` gives each
slot a mask, and the AND of an assembly's masks decides it.  So the
certification fallback builds no sorou of the candidate type, and
statistics ask the criterion about no class.  Each (subtype, f0) pair's
slot options are built once per cache, and each type's criterion once per
walk, with its pools (`_slot_pools`).

An assembled sorou is never built as (order, power) roots: every assembly
of a type lies in mu_n, n = `_modulus`, each slot option at each position
is one (exponents, exponent bitmask, slot mask) triple built once per type,
and `sorou.least_rotation` ranks the assembly's exponents.  A class is the
sorted tuple of its terms' ranks in `sorou._rank_table(n)`, so classes are
deduplicated and sorted as tuples of ints, which within one n is (order,
power) order.

Class lists are memoized per rendered type, in memory, as rank tuples: a
run recomputes any list it needs, and builds roots only for a caller that
asks for a class list.  `.cache` lines, and the order profiles that the
statistics of a class are read off, come from the texts and orders columns
of `sorou._rank_table(n)`, so statistics build no root.
`type_statistics` puts the list of the type it records, and `extend`
renders it into `.cache` at once, which takes it out of the memo; the lower
lists certification puts are already in the file.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, combinations_with_replacement, product
from typing import Iterator

from minvan.minimality import OK_BIT, assembly_criterion, slots_condition
from minvan.sorou import (
    Sorou,
    _exponent_mask,
    _order_parity,
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
    render_minvan,
    type_weight,
)


class SorouCache:
    """Memo of class lists keyed by rendered type, each kept as (n, sorted
    rank tuples at n), and of the slot options of each (subtype, f0) pair."""

    def __init__(self):
        self._classes: dict[str, tuple[int, list[tuple[int, ...]]]] = {}
        self._slots: dict[tuple[TypeSum, Sorou], tuple[Sorou, ...]] = {}

    def get(self, key: str) -> tuple[Sorou, ...] | None:
        hit = self._classes.get(key)
        return None if hit is None else _as_sorou(*hit)

    def put(self, key: str, n: int, classes: list[tuple[int, ...]]) -> None:
        self._classes.setdefault(key, (n, classes))

    def rendered(self, key: str) -> Iterator[str]:
        """The classes of key as `render_sorou` renders them, lazily, joined
        from the text of each rank (the texts column of `sorou._rank_table`).
        The list leaves the memo: a later caller recomputes it."""
        n, classes = self._classes.pop(key)
        _, _, _, _, texts = _rank_table(n)
        return ("+".join([texts[i] for i in s]) for s in classes)


def _as_sorou(n: int, classes: list[tuple[int, ...]]) -> tuple[Sorou, ...]:
    """Rank tuples at n as sorou."""
    _, roots, _, _, _ = _rank_table(n)
    return tuple([tuple([roots[i] for i in s]) for s in classes])


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
    """(labels, pools, mask): the subtypes of m as indices into pools,
    numbered in first-seen order; each distinct subtype's slot options, the
    last pool being (f0,), the slot that no subtype fills; and the slot
    masks of m's `assembly_criterion` on those options."""
    index: dict[TypeSum, int] = {}
    labels = [index.setdefault(t, len(index)) for t in m.subtypes]
    pools = [_slot_options(t, m.f0, cache) for t in index] + [(m.f0,)]
    return labels, pools, assembly_criterion(m.f0, chain.from_iterable(pools[:-1]))


def _modulus(m: MinVanType, cache: SorouCache) -> int:
    """The n with every assembly of m in mu_n: lcm(p, orders of f0 and options)."""
    options = (x for t in m.subtypes for x in _slot_options(t, m.f0, cache))
    return math.lcm(m.p, order(m.f0), *map(order, options))


def _iter_assembled(m: MinVanType, cache: SorouCache):
    """Lazily yield (ranks, minimal) for every slot assembly of type m,
    duplicates possible: the `least_rotation` at n = `_modulus(m, cache)` of
    sum_j nu_p^j slots[j], which weighs w(m) and is never built, and
    whether the AND of the slots' masks (`_slot_pools`) is OK_BIT.

    Placements permute the small integer labels of `_slot_pools`, the first
    subtype always at slot 0: a cyclic shift of the slots, which only
    rotates the sorou, moves any slot there.  A slot x at position j is the
    exponent list j*n/p + e mod n, e the exponents of x, built once per type
    with its `sorou._exponent_mask` and x's mask.  `least_rotation` at n
    picks the same class as `canonicalize` at the assembly's own order,
    which divides n: its anchored rotations stay in that subgroup, and
    (order, power) ranks order it alike in both tables.
    """
    p = m.p
    labels, pools, mask = _slot_pools(m, cache)
    n = _modulus(m, cache)
    step = n // p

    def triple(j: int, x: Sorou) -> tuple[list[int], int, int]:
        es = [(j * step + q * (n // o)) % n for o, q in x]
        return es, _exponent_mask(es), mask(x)

    rows = [[[triple(j, x) for x in pool] for pool in pools] for j in range(p)]
    empty = [len(pools) - 1] * (p - len(labels))
    for rest in distinct_permutations(labels[1:] + empty):
        for row in product(*[rows[j][i] for j, i in enumerate((*labels[:1], *rest))]):
            es, t, v = [], 0, -1
            for part, bits, verdict in row:
                es += part
                t |= bits
                v &= verdict
            yield tuple(least_rotation(es, n, t)), v == OK_BIT


def _enumerate(m: MinVanType, key: str, cache: SorouCache):
    """Enumerate m once and put its class list in the cache under key, m's
    rendering: its distinct rank tuples, sorted, which within one n is
    (order, power) order.  Returns (n, the classes, each one's verdict)."""
    n = _modulus(m, cache)
    verdicts = dict(_iter_assembled(m, cache))
    classes = sorted(verdicts)
    cache.put(key, n, classes)
    return n, classes, verdicts


def sorou_of_minvan_type(m: MinVanType, cache: SorouCache) -> tuple[Sorou, ...]:
    """All rotation-class representatives of sorou of minimal type m."""
    key = render_minvan(m)
    hit = cache.get(key)
    return hit if hit is not None else _as_sorou(*_enumerate(m, key, cache)[:2])


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
    labels, pools, mask = _slot_pools(m, cache)
    choices = product(
        *(combinations_with_replacement(pools[i], c) for i, c in Counter(labels).items())
    )
    return any(slots_condition(mask, (m.f0, *chain.from_iterable(c))) is None for c in choices)


def type_statistics(m: MinVanType, cache: SorouCache) -> TypeRecord:
    """Enumerate m once, store its class list in the cache, and aggregate
    the parities, heights and relative orders of its minimal vanishing
    realizations; the record's other columns follow from m and the parities.

    Each class is the least rotation `_iter_assembled` yields, which
    contains the root 1, sorted first, as often as any term occurs.  So all
    three are functions of its order profile, the sorted tuple of its term
    orders read off the ranks: its relative order is the lcm of the profile
    (1 is a term), its height the profile's count of order 1, and its parity
    the odd/even split of the profile (`parity` rotates by the first term,
    1).  They are read once per profile, and no root is built: the 12,732
    minimal classes of weights 13 to 17 have 229 profiles.
    """
    key = render_minvan(m)
    n, _, verdicts = _enumerate(m, key, cache)
    _, _, _, orders, _ = _rank_table(n)
    profiles = {tuple([orders[i] for i in s]) for s, minimal in verdicts.items() if minimal}
    if not profiles:
        raise ValueError(f"type has no minimal realization: {key}")
    w = type_weight(TypeSum((m,)))
    if any(len(profile) != w for profile in profiles):
        raise AssertionError("minimal realization with wrong weight")
    return TypeRecord(
        type=TypeSum((m,)),
        relative_orders=frozenset([math.lcm(*profile) for profile in profiles]),
        parities=frozenset(map(_order_parity, profiles)),
        heights=frozenset([profile.count(1) for profile in profiles]),
    )
