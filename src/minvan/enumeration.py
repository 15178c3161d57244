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

Results are deduplicated by canonical form (true rotation classes) and
memoized per rendered type; the memo can be persisted through the store
module and is transparent to results.
"""

from __future__ import annotations

from itertools import chain, product

from minvan.minimality import assembly_criterion
from minvan.sorou import (
    Sorou,
    SubsidiaryDecomposition,
    canonicalize,
    distinct_permutations,
    from_subsidiary,
    height,
    parity,
    relative_order,
    subtract,
    weight,
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
        self._slots: dict[tuple[str, Sorou], tuple[Sorou, ...]] = {}

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
    key = (render_type(t), f0)
    hit = cache._slots.get(key)
    if hit is None:
        options = tuple(subtract(f0, v) for v in sorou_of_typesum_anchored(t, f0, cache))
        hit = cache._slots.setdefault(key, options)
    return hit


def _assemblies(m: MinVanType, cache: SorouCache, anchor: bool = True):
    """Lazily yield (slots, minimal) for every slot assembly of type m of
    the right weight; the sorou is sum_j nu_p^j slots[j], never built here.
    Minimality is decided on the slots (see minimality.assembly_criterion)."""
    p, f0 = m.p, m.f0
    target = type_weight(TypeSum((m,)))
    slot_options = {t: _slot_options(t, f0, cache) for t in m.subtypes}
    minimal = assembly_criterion(p, f0, chain.from_iterable(slot_options.values()))
    labels = list(m.subtypes)
    if anchor and labels:
        placements = (
            (labels[0],) + rest
            for rest in distinct_permutations(labels[1:] + [None] * (p - len(labels)))
        )
    else:
        placements = distinct_permutations(labels + [None] * (p - len(labels)))
    for placement in placements:
        pools = [slot_options[t] if t is not None else (f0,) for t in placement]
        for slots in product(*pools):
            if sum(map(weight, slots)) == target:
                yield slots, minimal(slots)


def _iter_assembled(m: MinVanType, cache: SorouCache, anchor: bool = True):
    """Lazily yield (canonical form, minimal) for every slot assembly of
    type m (duplicates possible across assemblies)."""
    for slots, minimal in _assemblies(m, cache, anchor):
        yield canonicalize(from_subsidiary(SubsidiaryDecomposition(m.p, slots))), minimal


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
    """True when some sorou of type m is minimal vanishing; stops at the
    first witness and builds no sorou of type m."""
    return any(minimal for _, minimal in _assemblies(m, cache))


def type_statistics(m: MinVanType, cache: SorouCache) -> TypeRecord:
    """Enumerate m once, store its class list in the cache, and aggregate
    the parities, heights, relative orders and equisigned flag of its
    minimal vanishing realizations."""
    key = render_type(TypeSum((m,)))
    verdicts = dict(_iter_assembled(m, cache))
    classes = tuple(sorted(verdicts))
    cache.put(key, classes)
    minimal = [s for s in classes if verdicts[s]]
    if not minimal:
        raise ValueError(f"type has no minimal realization: {key}")
    w = type_weight(TypeSum((m,)))
    for s in minimal:
        if weight(s) != w:
            raise AssertionError("minimal realization with wrong weight")
    parities = frozenset(parity(s) for s in minimal)
    heights = frozenset(height(s) for s in minimal)
    rel_orders = frozenset(relative_order(s) for s in minimal)
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
