import math
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minvan.arith import is_squarefree
from minvan.cyclotomic import _monomial_rows, _packed_rows, is_vanishing, residue
from minvan.enumeration import sorou_of_minvan_type
from minvan.minimality import (
    FAIL_VALUE_ZERO_F0,
    FAIL_COMMON_SUBVALUE,
    FAIL_INNER_VANISHING,
    FAIL_NOT_VANISHING,
    MinimalityVerdict,
    _proper_subsorou_residues,
    decompose_into_minimal,
    is_minimal_vanishing,
    is_minimal_vanishing_bruteforce,
    top_prime,
)
from minvan.sorou import (
    SUBSET_GUARD_WEIGHT,
    make_root,
    parse_sorou,
    proper_nonempty_subsorous,
    relative_order,
    rotate,
    sorou,
    to_subsidiary,
)
from minvan.types import representative_sorou

from helpers import weight21_height2_sorou

R2 = parse_sorou("1:0+2:1")
R3 = parse_sorou("1:0+3:1+3:2")
R5 = parse_sorou("1:0+5:1+5:2+5:3+5:4")
H6 = parse_sorou("5:1+5:2+5:3+5:4+6:1+6:5")


def test_top_prime():
    assert top_prime(R2) == 2
    assert top_prime(H6) == 5
    assert top_prime(weight21_height2_sorou()) == 7
    for s in (sorou([(1, 0)]), sorou([(3, 1), (3, 1)])):
        with pytest.raises(ValueError, match="relative order 1"):
            top_prime(s)
    for s in (sorou([(1, 0), (4, 1)]), sorou([(1, 0), (2, 1), (9, 1)])):
        with pytest.raises(ValueError, match="not squarefree"):
            top_prime(s)


def test_minimal_examples():
    assert is_minimal_vanishing(R2).minimal
    assert is_minimal_vanishing(R5).minimal
    assert is_minimal_vanishing(H6).minimal
    v = is_minimal_vanishing(tuple(sorted(R3 + R3)))
    assert v.vanishing and not v.minimal
    assert v.failing_condition in (FAIL_INNER_VANISHING, FAIL_COMMON_SUBVALUE)
    v = is_minimal_vanishing(sorou([(1, 0), (3, 1)]))
    assert not v.vanishing and v.failing_condition == FAIL_NOT_VANISHING


def test_weight21_is_minimal():
    h = weight21_height2_sorou()
    v = is_minimal_vanishing(h)
    assert v.vanishing and v.minimal


def test_common_subvalue_detected():
    # h = sum_j nu_5^j (1 + nu_3) = R_5 + nu_3 R_5: every slot is 1 + nu_3,
    # which never vanishes partially, but all slots share the subvalue 1.
    bad = tuple(sorted(R5 + rotate(R5, (3, 1))))
    v = is_minimal_vanishing(bad)
    assert v.vanishing and not v.minimal
    assert v.failing_condition == FAIL_COMMON_SUBVALUE

    # value-zero f0: h = sum_j nu_3^j (1 - 1) has vanishing slots
    zero_slots = sorou([(1, 0), (2, 1), (3, 1), (6, 5), (3, 2), (6, 1)])
    v = is_minimal_vanishing(zero_slots)
    assert v.vanishing and not v.minimal
    assert v.failing_condition == FAIL_VALUE_ZERO_F0


def test_bruteforce_examples():
    assert is_minimal_vanishing_bruteforce(R5)
    assert not is_minimal_vanishing_bruteforce(tuple(sorted(R2 + R2)))


def test_oracle_agreement_constructed(db16):
    rng = random.Random(0)
    reps = {2: R2, 3: R3, 5: R5, 7: parse_sorou("1:0+7:1+7:2+7:3+7:4+7:5+7:6")}
    count = 0
    while count < 200:
        p, q = rng.choice([(2, 3), (2, 5), (3, 5), (3, 7), (5, 7), (2, 7)])
        z = make_root(rng.choice([1, 2, 3, 5, 6, 10, 15, 30]), rng.randrange(30))
        s = tuple(sorted(reps[p] + rotate(reps[q], z)))
        assert is_vanishing(s)
        verdict = is_minimal_vanishing(s)
        assert verdict.vanishing and not verdict.minimal
        assert not is_minimal_vanishing_bruteforce(s)
        count += 1


def test_oracle_agreement_on_database(db16):
    for record in db16.records:
        if record.weight > 14:
            continue
        rep = representative_sorou(record.type)
        assert is_minimal_vanishing(rep).minimal
        assert is_minimal_vanishing_bruteforce(rep)


def test_lemma_2p_small_orders(db16):
    # relative order dividing 2p forces type R_2 or R_p
    for record in db16.records:
        for r in record.relative_orders:
            for p in (3, 5, 7):
                if (2 * p) % r == 0:
                    assert record.weight in (2, p)


def test_certified_minimal_has_squarefree_relative_order(db16):
    from minvan.arith import is_squarefree

    for record in db16.records:
        assert all(is_squarefree(r) for r in record.relative_orders)


def test_decompose_examples():
    two_r3 = tuple(sorted(R3 + R3))
    parts = decompose_into_minimal(two_r3)
    assert tuple(sorted(sum(parts, ()))) == two_r3
    assert all(is_minimal_vanishing(p).minimal for p in parts)
    # 1 - 1 pairs exist inside R_3 + R_3 only after rotation by -1; the
    # deterministic rule extracts weight-2 parts iff they exist
    assert sorted(len(p) for p in parts) in ([2, 2, 2], [3, 3])

    assert decompose_into_minimal(H6) == [H6]

    mixed = tuple(sorted(R2 + R5))
    assert sorted(len(p) for p in decompose_into_minimal(mixed)) == [2, 5]

    with pytest.raises(ValueError):
        decompose_into_minimal(sorou([(1, 0), (3, 1)]))


def test_decompose_r3_plus_negated_r3_prefers_weight2():
    s = tuple(sorted(R3 + rotate(R3, (2, 1))))
    parts = decompose_into_minimal(s)
    assert sorted(len(p) for p in parts) == [2, 2, 2]


def test_high_multiplicity_goes_through_the_criterion():
    s = parse_sorou("+".join(["1:0"] * 12 + ["2:1"] * 12))
    assert is_minimal_vanishing(s) == MinimalityVerdict(True, False, FAIL_COMMON_SUBVALUE)


def test_repeated_terms_through_the_criterion():
    # 23 copies each of 1 and -1: the slots at p = 2 are 23 x 1 each, and
    # share every proper subvalue k for 0 < k < 23.
    s = parse_sorou("+".join(["1:0"] * 23 + ["2:1"] * 23))
    assert is_minimal_vanishing(s) == MinimalityVerdict(True, False, FAIL_COMMON_SUBVALUE)


def test_packed_kernel_keeps_the_guard():
    with pytest.raises(ValueError, match="subset explosion"):
        _proper_subsorou_residues(((1, 0),) * (SUBSET_GUARD_WEIGHT + 1), 1)


def _unpack(v: int, width: int, length: int) -> tuple[int, ...]:
    """Signed base-2**width digits of v, lowest first."""
    digits = []
    for _ in range(length):
        d = v & ((1 << width) - 1)
        if d >= 1 << (width - 1):
            d -= 1 << width
        digits.append(d)
        v = (v - d) >> width
    assert v == 0
    return tuple(digits)


@pytest.mark.parametrize("n", [105, 2310])
def test_packing_width_covers_the_subsum_bound(n):
    rows = _monomial_rows(n)
    width, packed = _packed_rows(n)
    biggest = max(abs(c) for row in rows for c in row)
    assert biggest > 1
    assert 1 << (width - 1) > 2 * SUBSET_GUARD_WEIGHT * biggest
    assert all(_unpack(v, width, len(row)) == row for v, row in zip(packed, rows))
    # The extreme sub-sums: SUBSET_GUARD_WEIGHT copies of the row holding the
    # largest coefficient, of its negation, and random mixed-sign sums.
    k = max(range(n), key=lambda k: max(map(abs, rows[k])))
    rng = random.Random(n)
    picks = [[k] * SUBSET_GUARD_WEIGHT]
    picks += [rng.choices(range(n), k=rng.randint(1, SUBSET_GUARD_WEIGHT)) for _ in range(200)]
    for ks in picks:
        for sign in (1, -1):
            vector = tuple(sign * sum(col) for col in zip(*(rows[i] for i in ks)))
            assert _unpack(sign * sum(packed[i] for i in ks), width, len(vector)) == vector


def _proper_subsorou_residues_by_subsets(part, modulus):
    """The replaced kernel: residue() of every proper nonempty subsorou."""
    values = {residue(sub, modulus).coefficients for sub in proper_nonempty_subsorous(part)}
    return any(not any(v) for v in values), frozenset(values)


def _common_subvalue(value_sets) -> bool:
    return bool(all(value_sets) and reduce(frozenset.intersection, value_sets))


def assert_kernels_agree(parts, modulus):
    new = [_proper_subsorou_residues(part, modulus) for part in parts]
    old = [_proper_subsorou_residues_by_subsets(part, modulus) for part in parts]
    for (new_zero, new_values), (old_zero, old_values) in zip(new, old):
        assert new_zero == old_zero
        assert len(new_values) == len(old_values)
    assert _common_subvalue([v for _, v in new]) == _common_subvalue([v for _, v in old])


# Slots over a few mixed-order roots, so that terms repeat within a slot and
# subvalues recur across slots.
slot_roots = st.lists(
    st.tuples(st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30]), st.integers(0, 29)),
    min_size=1,
    max_size=5,
).map(sorou)
slot_parts = slot_roots.flatmap(
    lambda pool: st.lists(
        st.lists(st.sampled_from(pool), min_size=1, max_size=8).map(sorou),
        min_size=2,
        max_size=5,
    )
)


@given(slot_parts)
@settings(max_examples=80, deadline=None)
def test_packed_kernel_matches_subset_kernel(parts):
    modulus = math.lcm(*(o for part in parts for o, _ in part))
    assert_kernels_agree(parts, modulus)


def test_packed_kernel_matches_subset_kernel_on_database(db16, shared_cache):
    checked = 0
    for record in db16.records:
        for s in sorou_of_minvan_type(record.type.components[0], shared_cache):
            r = relative_order(s)
            if r == 1 or not is_squarefree(r):
                continue
            parts = to_subsidiary(s).parts
            assert_kernels_agree(parts, math.lcm(*(o for part in parts for o, _ in part)))
            checked += 1
    assert checked > 1000
