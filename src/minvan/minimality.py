"""Minimal-vanishing certification.

Two independent routes decide whether a vanishing sorou is minimal:

* the subsidiary criterion: decompose at the top prime and check that
  (i) the smallest part has nonzero value, (ii) no part contains a vanishing
  proper nonempty subsorou, and (iii) the parts share no common proper
  subsorou value.  Subsorou values are compared as exact residues at a common
  modulus, each packed into one integer, so condition (iii) is a hash-set
  intersection of packed residues.
* a definition-level brute force over all proper nonempty sub-multisets,
  kept deliberately naive as the oracle for the criterion path.

Enumeration reads conditions (ii) and (iii) directly on the slots it
assembles (`assembly_criterion`), which are the subsidiary parts up to a
cyclic shift and a common rotation; `is_minimal_vanishing` stays the
authority for `verify` and in the tests.

A vanishing sorou whose relative order is not squarefree cannot be minimal
(Mann), so it is refused without decomposing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable

from minvan.arith import is_squarefree, prime_factors, primes_below
from minvan.cyclotomic import _packed_rows, is_vanishing, numeric_value, residue
from minvan.sorou import (
    SUBSET_GUARD_WEIGHT,
    Sorou,
    SubsidiaryDecomposition,
    from_subsidiary,
    order,
    relative_order,
    render_sorou,
    sub_multisets_of_size,
    subtract,
    to_subsidiary,
    weight,
)

FAIL_NOT_VANISHING = "not-vanishing"
FAIL_VALUE_ZERO_F0 = "value-zero-f0"
FAIL_INNER_VANISHING = "inner-vanishing-subsorou"
FAIL_COMMON_SUBVALUE = "common-subvalue"


@dataclass(frozen=True)
class MinimalityVerdict:
    vanishing: bool
    minimal: bool
    failing_condition: str | None = None


def top_prime(s: Sorou) -> int:
    """Largest prime of relative_order(s), the prime `to_subsidiary` splits
    at, found without decomposing s."""
    r = relative_order(s)
    if not is_squarefree(r):
        raise ValueError("subsidiary decomposition undefined: relative order not squarefree")
    if r == 1:
        raise ValueError("no top prime: relative order 1")
    return prime_factors(r)[-1]


def _proper_subsorou_residues(part: Sorou, modulus: int) -> tuple[bool, frozenset]:
    """(some proper nonempty subsorou vanishes, set of their packed residues).

    A sub-multiset dynamic program over (count, packed residue) states: each
    root group (root, mult) in turn adds 0..mult copies of its packed row.
    """
    n = weight(part)
    if n > SUBSET_GUARD_WEIGHT:
        raise ValueError(f"subset explosion: weight {n} exceeds guard")
    _, rows = _packed_rows(modulus)
    states = {(0, 0)}
    for (o, p), mult in Counter(part).items():
        row = rows[p * (modulus // o) % modulus]
        states = {(c + j, v + j * row) for c, v in states for j in range(mult + 1)}
    values = frozenset(v for c, v in states if 0 < c < n)
    return 0 in values, values


def is_minimal_vanishing(s: Sorou) -> MinimalityVerdict:
    """Certify s by the subsidiary criterion."""
    if not s:
        raise ValueError("empty sorou")
    r = relative_order(s)
    if r == 1 or not is_squarefree(r):
        if is_vanishing(s):
            return MinimalityVerdict(True, False, FAIL_INNER_VANISHING)
        return MinimalityVerdict(False, False, FAIL_NOT_VANISHING)

    dec = to_subsidiary(s)
    modulus = math.lcm(*(o for part in dec.parts for o, _ in part), 1)
    part_residues = [residue(part, modulus) for part in dec.parts]
    if any(res != part_residues[0] for res in part_residues[1:]):
        return MinimalityVerdict(False, False, FAIL_NOT_VANISHING)
    if part_residues[0].is_zero():
        return MinimalityVerdict(True, False, FAIL_VALUE_ZERO_F0)

    subsets = {part: _proper_subsorou_residues(part, modulus) for part in set(dec.parts)}
    if any(subsets[part][0] for part in dec.parts):
        return MinimalityVerdict(True, False, FAIL_INNER_VANISHING)
    value_sets = [subsets[part][1] for part in dec.parts]
    if all(value_sets) and reduce(frozenset.intersection, value_sets):
        return MinimalityVerdict(True, False, FAIL_COMMON_SUBVALUE)
    return MinimalityVerdict(True, True, None)


def assembly_criterion(
    p: int, f0: Sorou, options: Iterable[Sorou]
) -> Callable[[tuple[Sorou, ...]], bool]:
    """The minimality test of g = sum_j nu_p^j slots[j], read on the slots.

    Every slot is f0 or one of `options`, each f0 - v for a vanishing v that
    contains f0, so every slot has f0's value, which is nonzero.  When f0
    and every option have order dividing Q, the product of the primes below
    p, g has squarefree relative order with top prime p and the parts of
    to_subsidiary(g) are its slots up to a cyclic shift and one common
    rotation.  Conditions (ii) and (iii) of the criterion do not change
    under either, so g is minimal iff no slot has a vanishing proper
    subsorou and the slots share no proper subsorou value.  Some slot is f0,
    since a type has at most p - 1 subtypes, so a shared value is one of
    f0's: each distinct slot keeps only the values it shares with f0,
    computed once, on first use, at the lcm of all slot orders.

    Slots outside Q only occur in types built by hand, such as (R3 : R3);
    their assemblies g are built and given to is_minimal_vanishing.
    """
    distinct = {f0, *options}
    q = math.prod(primes_below(p))
    if any(q % order(x) for x in distinct):
        return lambda slots: is_minimal_vanishing(
            from_subsidiary(SubsidiaryDecomposition(p, slots))
        ).minimal
    modulus = math.lcm(*map(order, distinct))
    f0_values = _proper_subsorou_residues(f0, modulus)[1]
    shared: dict[Sorou, frozenset | None] = {}  # None: a proper subsorou vanishes

    def minimal(slots: tuple[Sorou, ...]) -> bool:
        common = f0_values
        for x in set(slots):
            if x not in shared:
                zero, values = _proper_subsorou_residues(x, modulus)
                shared[x] = None if zero else values & f0_values
            if shared[x] is None:
                return False
            common = common & shared[x]
        return not common

    return minimal


def is_minimal_vanishing_bruteforce(s: Sorou) -> bool:
    """Definition-level oracle: vanishing with no vanishing proper subsorou.

    Visits every proper nonempty sub-multiset, tracking the running complex
    value; only near-zero candidates pay for the exact vanishing test.
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


def _smallest_vanishing(s: Sorou) -> list[Sorou]:
    """The vanishing sub-multisets of s of least weight >= 2, or []."""
    for k in range(2, weight(s) + 1):
        found = [sub for sub in sub_multisets_of_size(s, k) if is_vanishing(sub)]
        if found:
            return found
    return []


def decompose_into_minimal(s: Sorou) -> list[Sorou]:
    """Split a vanishing sorou into minimal vanishing parts.

    Deterministic rule: repeatedly extract the vanishing sub-multiset of
    smallest weight (tied by rendered text), which is minimal by construction.
    """
    if not is_vanishing(s):
        raise ValueError("cannot decompose a non-vanishing sorou")
    if weight(s) > SUBSET_GUARD_WEIGHT:
        raise ValueError(f"subset explosion: weight {weight(s)} exceeds guard")
    parts = []
    rest = s
    while rest:
        found = _smallest_vanishing(rest)
        if not found:
            raise AssertionError("vanishing remainder without vanishing subsorou")
        part = min(found, key=render_sorou)
        parts.append(part)
        rest = subtract(rest, part)
    return parts
