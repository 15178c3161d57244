"""Minimal-vanishing certification and decomposition.

Two independent routes decide whether a vanishing sorou is minimal:

* the subsidiary criterion: decompose at the top prime and check that
  (i) the smallest part has nonzero value, (ii) no part contains a vanishing
  proper nonempty subsorou, and (iii) the parts share no common proper
  subsorou value.  Subsorou values are compared in tower coordinates at the
  squarefree lcm of the part orders, each packed into one integer
  (`cyclotomic._packed_tower_row`), so condition (iii) is a hash-set
  intersection of packed values.
* a definition-level brute force over all proper nonempty sub-multisets,
  kept deliberately naive as the oracle for the criterion path.

One sub-multiset DP, `_subsum_layers`, answers every "which sub-sum
vanishes?" question at any modulus: (ii), (iii), f0's check and
`decompose_into_minimal`'s least-weight parts.

Conditions (ii) and (iii) have one implementation, `assembly_criterion`,
which reads them on slots: enumeration gives it the slots it assembles, and
`is_minimal_vanishing` the parts of its subsidiary decomposition.  Both lie
in mu_Q, Q the product of the primes below the top prime, so the criterion
has one path and never calls back into `is_minimal_vanishing`.  It gives
each slot an integer mask, and an assembly is decided by their AND.

A vanishing sorou whose relative order is not squarefree cannot be minimal
(Mann), so it is refused without decomposing; one with fewer terms than its
top prime p has an empty slot, so every slot's value is 0, f0's too, and
it is refused without building p parts.  Verdicts (`_failing_condition`)
are memoised, 4096 at most: type inference asks about each slot again.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from minvan.arith import is_squarefree, prime_factors
from minvan.cyclotomic import _packed_tower_row, is_vanishing, numeric_value
from minvan.sorou import (
    SUBSET_GUARD_WEIGHT,
    Sorou,
    order,
    relative_order,
    render_sorou,
    subtract,
    to_subsidiary,
    weight,
)

FAIL_NOT_VANISHING = "not-vanishing"
FAIL_VALUE_ZERO_F0 = "value-zero-f0"
FAIL_INNER_VANISHING = "inner-vanishing-subsorou"
FAIL_COMMON_SUBVALUE = "common-subvalue"

OK_BIT = 1  # of a slot mask: no proper subsorou vanishes (`assembly_criterion`)


@dataclass(frozen=True)
class MinimalityVerdict:
    vanishing: bool
    minimal: bool
    failing_condition: str | None = None


def _subsum_layers(s: Sorou, modulus: int, least: bool = False) -> tuple[list, list[set]]:
    """The sub-multiset DP of s: groups[i] is (root, mult, packed tower row
    at `modulus`), and layers[i] the (count, packed value) states of the
    sub-multisets of groups[:i]; (k, 0) is a vanishing one of k terms.  At
    most 2**w states on w distinct terms: repeated terms share states.

    With `least`, once a layer holds a vanishing (k, 0), 0 < k < w, the
    layers keep only states of count below the least such k, and (k, 0)
    itself: counts only grow along a path, so no path to a least-weight
    vanishing sub-multiset passes through the states dropped."""
    n = cap = weight(s)
    if n > SUBSET_GUARD_WEIGHT:
        raise ValueError(f"subset explosion: weight {n} exceeds guard")
    groups, layers = [], [{(0, 0)}]
    for root, mult in Counter(s).items():
        row = _packed_tower_row(modulus, root[1] * (modulus // root[0]))
        groups.append((root, mult, row))
        layer = {(c + j, v + j * row) for c, v in layers[-1] for j in range(mult + 1)}
        if least:
            cap = next((k for k in range(1, cap) if (k, 0) in layer), cap)
            if cap < n:
                layer = {(c, v) for c, v in layer if c < cap or c == cap and not v}
        layers.append(layer)
    return groups, layers


def _proper_subsorou_values(part: Sorou, modulus: int) -> tuple[bool, frozenset]:
    """(some proper nonempty subsorou vanishes, set of their packed values)."""
    n = weight(part)
    values = frozenset(v for c, v in _subsum_layers(part, modulus)[1][-1] if 0 < c < n)
    return 0 in values, values


def _has_vanishing_subsorou(s: Sorou) -> bool:
    """Whether some nonempty sub-multiset of s, s itself included, vanishes."""
    return any(c and not v for c, v in _subsum_layers(s, order(s))[1][-1])


def is_minimal_vanishing(s: Sorou) -> MinimalityVerdict:
    """Certify s by the subsidiary criterion: conditions (ii) and (iii) are
    `assembly_criterion` on the parts of to_subsidiary(s)."""
    if not is_vanishing(s):
        return MinimalityVerdict(False, False, FAIL_NOT_VANISHING)
    failing = _failing_condition(s)
    return MinimalityVerdict(True, failing is None, failing)


@lru_cache(maxsize=4096)  # type inference asks again about each slot difference
def _failing_condition(s: Sorou) -> str | None:
    """The condition a vanishing s fails, or None when s is minimal."""
    r = relative_order(s)
    if r == 1 or not is_squarefree(r):
        return FAIL_INNER_VANISHING
    if weight(s) < prime_factors(r)[-1]:
        return FAIL_VALUE_ZERO_F0
    parts = to_subsidiary(s)
    f0 = parts[0]
    if is_vanishing(f0):
        return FAIL_VALUE_ZERO_F0
    return slots_condition(assembly_criterion(f0, parts), set(parts))


def assembly_criterion(f0: Sorou, options: Iterable[Sorou]) -> Callable[[Sorou], int]:
    """The minimality test of g = sum_j nu_p^j slots[j], read on the slots:
    the closure gives each slot's mask, and g is decided by the AND of its
    slots' masks (`slots_condition`).

    Every slot is f0 or one of `options`, each of f0's value, which is
    nonzero: enumeration offers f0 - v for a vanishing v that contains f0,
    and a subsidiary decomposition of a vanishing sorou has parts of equal
    value.  Precondition: f0 and every option lie in mu_Q, Q the product of
    the primes below p.  The parts of a subsidiary decomposition at p do,
    and so do the options of a type, whose subtypes have top primes below p
    (`types.MinVanType`).  Then g has squarefree relative order with top
    prime p, and the parts of to_subsidiary(g) are its slots up to a cyclic
    shift and one common rotation.  Conditions (ii) and (iii) do not
    change under either, so g is minimal iff no slot has a vanishing proper
    subsorou and the slots share no proper subsorou value.  Some slot is f0
    (a type has at most p - 1 subtypes, and f0 is the first part of a
    decomposition), so a shared value is one of f0's.

    A slot's mask, f0's too, is 0 when a proper subsorou of it vanishes,
    else OK_BIT plus a bit per value of f0 it shares: so the AND is 0 when
    some slot fails (ii), OK_BIT when g is minimal, and else names a shared
    value.  Masks are computed on first use, at the lcm of all slot orders,
    which divides Q and so is squarefree.

    A verdict reads only the set of the slots: it does not depend on which
    slot sits at which power of nu_p, nor on how often a slot repeats, so
    certification (`enumeration.has_minimal_realization`) asks once per
    choice of slots, not once per placement.
    """
    modulus = math.lcm(*map(order, {f0, *options}))
    bits = {v: 2 << i for i, v in enumerate(_proper_subsorou_values(f0, modulus)[1])}
    masks: dict[Sorou, int] = {}

    def mask(x: Sorou) -> int:
        hit = masks.get(x)
        if hit is None:
            shared = _shared_values(x, f0, modulus)
            hit = masks[x] = 0 if shared is None else sum(map(bits.__getitem__, shared), OK_BIT)
        return hit

    return mask


def slots_condition(mask: Callable[[Sorou], int], slots: Iterable[Sorou]) -> str | None:
    """The condition an assembly of slots fails, or None when it is minimal,
    read on the AND of their masks, which stops at the first slot of mask 0."""
    v = -1
    for x in slots:
        if not (v := v & mask(x)):
            return FAIL_INNER_VANISHING
    return None if v == OK_BIT else FAIL_COMMON_SUBVALUE


@lru_cache(maxsize=4096)  # candidates of one weight share most slots
def _shared_values(x: Sorou, f0: Sorou, modulus: int) -> frozenset | None:
    """The packed values of proper subsorous of x that f0 has too, or None
    when a proper subsorou of x vanishes."""
    zero, values = _proper_subsorou_values(x, modulus)
    return None if zero else values & _proper_subsorou_values(f0, modulus)[1]


def is_minimal_vanishing_bruteforce(s: Sorou) -> bool:
    """Definition-level oracle: vanishing with no vanishing proper subsorou.

    Visits every proper nonempty sub-multiset, tracking the running complex
    value; only near-zero candidates pay for the exact vanishing test.  With
    w <= SUBSET_GUARD_WEIGHT = 24 and u = 2**-53, that value is off by under
    (32w + w**2) u ~ 1.5e-13 (under 32u per rounded unit value, at most k
    ulps at step k of the sum), far below the 1e-6 threshold, so no
    vanishing sub-sum is skipped.
    """
    if weight(s) > SUBSET_GUARD_WEIGHT:
        raise ValueError(f"subset explosion: weight {weight(s)} exceeds guard")
    if not is_vanishing(s):
        return False
    groups = sorted(Counter(s).items())
    unit_values = [numeric_value((root,)) for root, _ in groups]
    total = weight(s)
    takes = [0] * len(groups)

    def has_vanishing_proper(idx: int, count: int, value: complex) -> bool:
        if idx == len(groups):
            if 0 < count < total and abs(value) < 1e-6:
                sub = tuple(
                    sorted(r for (r, _), c in zip(groups, takes) for _ in range(c))
                )
                return is_vanishing(sub)
            return False
        root, mult = groups[idx]
        for take in range(mult + 1):
            takes[idx] = take
            if has_vanishing_proper(idx + 1, count + take, value + take * unit_values[idx]):
                return True
        takes[idx] = 0
        return False

    return not has_vanishing_proper(0, 0, 0j)


def decompose_into_minimal(s: Sorou) -> list[Sorou]:
    """Split a vanishing sorou into minimal vanishing parts.

    Deterministic rule: repeatedly extract the vanishing sub-multiset of
    least weight k (tied by rendered text), which is minimal by construction;
    the DP layers, walked back from the state (k, 0), list every such one.
    A minimal s is its own only vanishing sub-multiset, so the criterion is
    asked first: the DP on a minimal s would build every state (1.1 s and
    over 200 MB for a weight-19 representative).
    """
    if not is_vanishing(s):
        raise ValueError("cannot decompose a non-vanishing sorou")
    if _failing_condition(s) is None:
        return [s]
    parts = []
    rest = s
    while rest:
        groups, layers = _subsum_layers(rest, order(rest), least=True)
        found = {((min(c for c, v in layers[-1] if c and not v), 0), ())}
        for (root, mult, row), layer in zip(groups[::-1], layers[-2::-1]):
            found = {
                ((c - j, v - j * row), (root,) * j + sub)
                for (c, v), sub in found
                for j in range(mult + 1)
                if (c - j, v - j * row) in layer
            }
        part = min((sub for _, sub in found), key=render_sorou)
        parts.append(part)
        rest = subtract(rest, part)
    return parts
