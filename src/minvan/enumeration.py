"""Enumeration of all sorou of a given type, up to rotation.

A minimal type is realized slot by slot: the first subtype is anchored at
slot 0 (a sound cyclic-symmetry reduction, validated against the unanchored
search), the remaining subtypes are placed injectively on the other slots,
and every placed subtype ranges over all rotations of all its sorou classes
that contain f0.  Non-minimal (sum) subtypes are enumerated anchored: f0's
terms are split among the minimal components, each component rotated to
contain its share — any sorou missing that property could only assemble into
a non-minimal parent.

Results are deduplicated by canonical form (true rotation classes) and
memoized per rendered type; the memo can be persisted through the store
module and is transparent to results.
"""

from __future__ import annotations

from itertools import product

from minvan.minimality import is_minimal_vanishing
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
    """Memo of rotation-class lists keyed by rendered type."""

    def __init__(self, data: dict[str, tuple[Sorou, ...]] | None = None):
        self._classes: dict[str, tuple[Sorou, ...]] = dict(data or {})
        self._anchored: dict[tuple[str, Sorou], tuple[Sorou, ...]] = {}

    def get(self, key: str) -> tuple[Sorou, ...] | None:
        return self._classes.get(key)

    def put(self, key: str, value: tuple[Sorou, ...]) -> None:
        self._classes.setdefault(key, value)

    def as_dict(self) -> dict[str, tuple[Sorou, ...]]:
        return dict(self._classes)


def sorou_of_typesum_anchored(t: TypeSum, f0: Sorou, cache: SorouCache) -> list[Sorou]:
    """For a sum of two or more types, all sorou of type t containing f0,
    deduplicated by exact equality (the anchored f0 breaks rotation
    symmetry).

    For a minimal-claim t (one component) it returns the component's
    rotation classes unanchored, as sorou_of_minvan_type lists them, so they
    need not contain f0: for (R5) and f0 = 1:0+15:2 it returns
    [1:0+5:1+5:2+5:3+5:4].  Callers that need f0 anchor the result
    themselves, as _iter_assembled does with _anchored_sums.
    """
    if t.is_minimal_claim:
        return list(sorou_of_minvan_type(t.components[0], cache))
    key = (render_type(t), f0)
    hit = cache._anchored.get(key)
    if hit is None:
        pools = [sorou_of_minvan_type(c, cache) for c in t.components]
        hit = cache._anchored.setdefault(key, tuple(sorted(_anchored_sums(pools, f0))))
    return list(hit)


def _iter_assembled(m: MinVanType, cache: SorouCache, anchor: bool = True):
    """Lazily yield canonical forms of every slot assembly of type m
    (duplicates possible across assemblies)."""
    p, f0 = m.p, m.f0
    target = type_weight(TypeSum((m,)))
    slot_options: dict[TypeSum, list[Sorou]] = {}
    for t in m.subtypes:
        if t not in slot_options:
            pool = sorou_of_typesum_anchored(t, f0, cache)
            slot_options[t] = [subtract(f0, v) for v in sorted(_anchored_sums([pool], f0))]
    labels = list(m.subtypes)
    if anchor and labels:
        placements = (
            (labels[0],) + rest
            for rest in distinct_permutations(labels[1:] + [None] * (p - len(labels)))
        )
    else:
        placements = distinct_permutations(labels + [None] * (p - len(labels)))
    for placement in placements:
        pools = [slot_options[t] if t is not None else [f0] for t in placement]
        for slots in product(*pools):
            g = from_subsidiary(SubsidiaryDecomposition(p, slots))
            if weight(g) == target:
                yield canonicalize(g)


def sorou_of_minvan_type(
    m: MinVanType, cache: SorouCache, anchor: bool = True
) -> tuple[Sorou, ...]:
    """All rotation-class representatives of sorou of minimal type m."""
    key = render_type(TypeSum((m,)))
    if anchor:
        hit = cache.get(key)
        if hit is not None:
            return hit
    result = tuple(sorted(set(_iter_assembled(m, cache, anchor))))
    if anchor:
        cache.put(key, result)
    return result


def has_minimal_realization(m: MinVanType, cache: SorouCache) -> bool:
    """True when some sorou of type m is minimal vanishing; stops at the
    first witness rather than materializing the class list."""
    key = render_type(TypeSum((m,)))
    hit = cache.get(key)
    candidates = hit if hit is not None else _iter_assembled(m, cache)
    seen = set()
    for g in candidates:
        if g in seen:
            continue
        seen.add(g)
        if is_minimal_vanishing(g).minimal:
            return True
    return False


def type_statistics(m: MinVanType, cache: SorouCache) -> TypeRecord:
    """Enumerate m, filter to minimal vanishing realizations, and aggregate
    parities, heights, relative orders and the equisigned flag."""
    classes = sorou_of_minvan_type(m, cache)
    minimal = [s for s in classes if is_minimal_vanishing(s).minimal]
    if not minimal:
        raise ValueError(f"type has no minimal realization: {render_type(TypeSum((m,)))}")
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
