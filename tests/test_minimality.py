import importlib
import math
import pkgutil
import random
import time
from functools import reduce
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minvan
from minvan.arith import euler_phi, is_squarefree, prime_factors, primes_below
from minvan.cyclotomic import (
    PACK_WIDTH,
    _packed_tower_row,
    cyclotomic_poly,
    is_vanishing,
    values_equal,
)
from minvan.enumeration import sorou_of_minvan_type
from minvan.minimality import (
    FAIL_VALUE_ZERO_F0,
    FAIL_COMMON_SUBVALUE,
    FAIL_INNER_VANISHING,
    FAIL_NOT_VANISHING,
    OK_BIT,
    MinimalityVerdict,
    _has_vanishing_subsorou,
    _proper_subsorou_values,
    assembly_criterion,
    decompose_into_minimal,
    is_minimal_vanishing,
    is_minimal_vanishing_bruteforce,
    slots_condition,
)
from minvan.sorou import (
    SUBSET_GUARD_WEIGHT,
    canonicalize,
    from_subsidiary,
    height,
    make_root,
    parse_sorou,
    relative_order,
    root_mul,
    rotate,
    sorou,
    to_subsidiary,
    top_prime,
)
from minvan.typegen import candidate_f0s
from minvan.types import representative_sorou

from helpers import (
    clear_verify_memos,
    decompose_by_subsets,
    minimality_by_residues,
    smallest_vanishing_by_subsets,
    subsorou_residues,
    weight21_height2_sorou,
)

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


def test_a_slot_with_a_vanishing_subsorou_is_refused_whatever_it_shares():
    # Slots of value 1 + nu_3 = nu_6 at p = 5.  x = nu_3^2 + 2 nu_6 has the
    # vanishing proper subsorou nu_3^2 + nu_6, and none of its proper
    # subsorou values (nu_3^2, nu_6, 0, 2 nu_6) is one of f0's (1, nu_3);
    # y = nu_6 has no proper subsorou.  Without x, the slots share nothing,
    # so x's mask must clear the ok bit, not keep it: the assembly is
    # refused for x's vanishing subsorou.
    f0, x, y = sorou([(1, 0), (3, 1)]), sorou([(3, 2), (6, 1), (6, 1)]), sorou([(6, 1)])
    mask = assembly_criterion(f0, [x, y])
    assert (mask(x), mask(y), mask(f0) & OK_BIT) == (0, OK_BIT, OK_BIT)
    without_x = (f0, y, y, y, y)
    assert slots_condition(mask, without_x) is None
    assert is_minimal_vanishing(from_subsidiary(without_x)).minimal
    slots = (f0, x, y, y, y)
    assert slots_condition(mask, slots) == FAIL_INNER_VANISHING
    assert is_minimal_vanishing(from_subsidiary(slots)).failing_condition == FAIL_INNER_VANISHING

    # f0's own mask comes from the same call: an f0 with a vanishing proper
    # subsorou (1 + 1 - 1, of value 1) has mask 0, and refuses the slots
    # f0, 1, 1, 1, 1 that share no value.
    f0, one = sorou([(1, 0), (1, 0), (2, 1)]), sorou([(1, 0)])
    mask = assembly_criterion(f0, [one])
    assert (mask(f0), mask(one)) == (0, OK_BIT)
    slots = (f0, one, one, one, one)
    assert slots_condition(mask, slots) == FAIL_INNER_VANISHING
    assert is_minimal_vanishing(from_subsidiary(slots)).failing_condition == FAIL_INNER_VANISHING


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
    from minvan.arith import euler_phi, is_squarefree, prime_factors

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


def test_decompose_returns_a_minimal_sum_whole_and_fast():
    # The first weight-19 representative of the benchmark's fixture (read
    # only): minimal, 19 distinct terms, so the DP would build every state.
    from minvan.store import load_db
    from minvan.types import representative_sorou

    fixture = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "w19.db"
    s = representative_sorou(load_db(str(fixture)).records_for_weight(19)[0].type)
    assert len(set(s)) == len(s) == 19
    clear_verify_memos()  # time the criterion, not a memo hit
    start = time.perf_counter()
    assert decompose_into_minimal(s) == [s]
    assert time.perf_counter() - start < 0.1


def test_decompose_r3_plus_negated_r3_prefers_weight2():
    s = tuple(sorted(R3 + rotate(R3, (2, 1))))
    parts = decompose_into_minimal(s)
    assert sorted(len(p) for p in parts) == [2, 2, 2]


@st.composite
def vanishing_with_repeats(draw):
    """A vanishing sum at order 4, 12, 90 or 1470 of rotated R_p (p | n)
    and, at 90 and 1470, rotated H6, the first piece taken twice: so terms
    repeat, and orders are divisible by 4, 9 or 49.  At most 12 terms."""
    n = draw(st.sampled_from([4, 12, 90, 1470]))
    pieces = [sorou((n, k * n // p) for k in range(p)) for p in prime_factors(n)]
    pieces += [H6] if n % 30 == 0 else []
    rotations = st.integers(0, n - 1).map(lambda e: make_root(n, e))
    twice = rotate(draw(st.sampled_from([x for x in pieces if len(x) <= 6])), draw(rotations))
    terms = list(twice) * 2
    for _ in range(draw(st.integers(0, 2))):
        piece = rotate(draw(st.sampled_from(pieces)), draw(rotations))
        if len(terms) + len(piece) <= 12:
            terms += piece
    return sorou(terms)


@given(vanishing_with_repeats())
@settings(max_examples=60, deadline=None)
def test_decompose_matches_the_subset_oracle(s):
    assert height(s) >= 2
    assert decompose_into_minimal(s) == decompose_by_subsets(s)
    for sub in (s, s[1:]):
        assert _has_vanishing_subsorou(sub) == bool(smallest_vanishing_by_subsets(sub))


# Every f0 weight candidate_f0s takes when generating through weight 21
# (w <= 21 / p), one more at p = 7 and 11, and every weight at p = 5.
@pytest.mark.parametrize(
    "p, w", [(3, 2), *((5, w) for w in range(2, 7)), (7, 2), (7, 3), (7, 4), (11, 2)]
)
def test_candidate_f0s_match_the_subset_oracle(p, w):
    q = math.prod(primes_below(p))
    free = set()
    for exps in combinations(range(1, q), w - 1):
        f0 = sorou([(1, 0)] + [(q, e) for e in exps])
        has = bool(smallest_vanishing_by_subsets(f0))
        assert _has_vanishing_subsorou(f0) == has
        if not has:
            free.add(canonicalize(f0))
    assert candidate_f0s(w, p, collapse=False) == tuple(sorted(free))


def test_only_sorou_binds_the_subset_walkers():
    # One sub-multiset DP answers every sub-sum question: no minvan module
    # but sorou, which keeps the walkers for the benchmark's tracer and the
    # test oracles, binds one.  The package re-exports proper_nonempty_subsorous.
    walkers = ("sub_multisets_of_size", "proper_nonempty_subsorous", "_smallest_vanishing")
    for info in pkgutil.iter_modules(minvan.__path__):
        module = importlib.import_module(f"minvan.{info.name}")
        if info.name != "sorou":
            assert [fn for fn in walkers if hasattr(module, fn)] == [], info.name


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
        _proper_subsorou_values(((1, 0),) * (SUBSET_GUARD_WEIGHT + 1), 1)


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


def _tower_coordinates(n: int, e: int) -> tuple[int, ...]:
    """zeta_n^e by definition: the tensor product over the prime powers
    p^a exactly dividing n, smallest p varying fastest, of
    zeta_(p^a)^(e mod p^a) = zeta_(p^a)^i zeta_p^k, e mod p^a = k p^(a-1) + i:
    p^(a-1) blocks, all zero but block i, which holds zeta_p^k in the basis
    zeta_p^1 .. zeta_p^(p-1), where zeta_p^0 = -(zeta_p^1 + ... + zeta_p^(p-1))."""
    vector = [1]
    for p in prime_factors(n):
        a = max(x for x in range(1, n.bit_length()) if n % p**x == 0)
        blocks = p ** (a - 1)
        k, i = divmod(e % (blocks * p), blocks)
        digits = [int(j == k) for j in range(1, p)] if k else [-1] * (p - 1)
        factor = [d * (b == i) for b in range(blocks) for d in digits]
        vector = [f * v for f in factor for v in vector]
    return tuple(vector)


@pytest.mark.parametrize("n", [4, 12, 90, 2 * 3 * 5 * 7 * 7, 210, 2310])
def test_tower_packing_covers_the_subsum_bound(n):
    assert 1 << (PACK_WIDTH - 1) > 2 * SUBSET_GUARD_WEIGHT
    rows = [_tower_coordinates(n, e) for e in range(n)]
    assert all(len(row) == euler_phi(n) for row in rows)
    packed = lambda es: sum(_packed_tower_row(n, e) for e in es)
    assert all(_unpack(packed([e]), PACK_WIDTH, len(row)) == row for e, row in enumerate(rows))
    # Rows are values: a rotated R_p packs to 0, and random sub-sums pack
    # equal exactly when their values are equal.
    for p in prime_factors(n):
        assert packed((7 + k * n // p) % n for k in range(p)) == 0
    rng = random.Random(n)
    picks = [[0] * SUBSET_GUARD_WEIGHT]
    picks += [rng.choices(range(n), k=rng.randint(1, SUBSET_GUARD_WEIGHT)) for _ in range(200)]
    for es in picks:
        for sign in (1, -1):
            vector = tuple(sign * sum(col) for col in zip(*(rows[e] for e in es)))
            assert _unpack(sign * packed(es), PACK_WIDTH, len(vector)) == vector
    for _ in range(100):
        a = rng.choices(range(n), k=rng.randint(1, 6))
        p = rng.choice(prime_factors(n))
        # zeta^e = -(zeta^(e + n/p) + ... + zeta^(e + (p-1)n/p)), -1 = zeta^(n/2)
        b = a[1:] + [(a[0] + k * n // p + n // 2) % n for k in range(1, p)]
        for c in (b, b[:-1] + [(b[-1] + 1) % n]):
            same = values_equal(sorou((n, e) for e in a), sorou((n, e) for e in c))
            assert same == (packed(a) == packed(c))


def test_top_prime_30030_builds_no_phi():
    # R_13 + nu_210 R_11 has relative order 30030; its parts at 13 have
    # orders dividing 2310, and one holds the rotated R_11.
    r11 = parse_sorou("+".join(["1:0"] + [f"11:{k}" for k in range(1, 11)]))
    r13 = parse_sorou("+".join(["1:0"] + [f"13:{k}" for k in range(1, 13)]))
    s = tuple(sorted(r13 + rotate(r11, (210, 1))))
    assert relative_order(s) == 30030
    parts = to_subsidiary(s)
    assert math.lcm(*(o for part in parts for o, _ in part)) == 2310
    before = cyclotomic_poly.cache_info()
    assert is_minimal_vanishing(s) == MinimalityVerdict(True, False, FAIL_INNER_VANISHING)
    assert cyclotomic_poly.cache_info() == before


def _proper_subsorou_values_by_subsets(part, modulus):
    """The oracle's kernel, shaped like `_proper_subsorou_values`."""
    values = subsorou_residues(part, modulus)
    return any(not any(v) for v in values), values


def _common_subvalue(value_sets) -> bool:
    return bool(all(value_sets) and reduce(frozenset.intersection, value_sets))


def assert_kernels_agree(parts, modulus):
    new = [_proper_subsorou_values(part, modulus) for part in parts]
    old = [_proper_subsorou_values_by_subsets(part, modulus) for part in parts]
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
            parts = to_subsidiary(s)
            assert_kernels_agree(parts, math.lcm(*(o for part in parts for o, _ in part)))
            checked += 1
    assert checked > 1000


# One sorou per verdict: minimal, each failing condition, repeated terms and
# a relative order that is not squarefree.
VERDICT_EXAMPLES = [
    ("5:1+5:2+5:3+5:4+6:1+6:5", None),
    ("1:0+3:1+3:2+5:1+5:2+5:3+5:4", FAIL_NOT_VANISHING),
    ("1:0+2:1+3:1+6:5+3:2+6:1", FAIL_VALUE_ZERO_F0),
    ("1:0+3:1+3:2+3:1+15:8+15:11+15:14+15:2", FAIL_INNER_VANISHING),
    ("1:0+5:1+5:2+5:3+5:4+3:1+15:8+15:11+15:14+15:2", FAIL_COMMON_SUBVALUE),
    ("1:0+1:0+2:1+2:1", FAIL_COMMON_SUBVALUE),
    ("1:0+4:1+2:1+4:3", FAIL_INNER_VANISHING),
    ("4:1+4:1", FAIL_NOT_VANISHING),
]


@pytest.mark.parametrize("text, condition", VERDICT_EXAMPLES)
def test_verdict_examples_match_the_residue_criterion(text, condition):
    s = parse_sorou(text)
    verdict = is_minimal_vanishing(s)
    assert verdict.failing_condition == condition
    assert verdict == minimality_by_residues(s)


RP = {p: sorou([(p, k) for k in range(p)]) for p in (2, 3, 5, 7)}
PIECE_ROOTS = st.tuples(
    st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 18, 30]), st.integers(0, 35)
)


@st.composite
def criterion_inputs(draw):
    """Sums of rotated R_p, products R_p R_q and the minimal H6, sometimes
    with a term dropped or added: every verdict, with repeated terms and
    orders divisible by 4 or 9 among them.  At most 15 terms, so that the
    oracle lists the subsorous of every part quickly."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["rp", "rp", "product", "h6"]))
        if kind == "rp":
            piece = RP[draw(st.sampled_from([2, 3, 5, 7]))]
        elif kind == "product":
            p, q = draw(st.sampled_from([(2, 3), (2, 5), (3, 5)]))
            piece = sorou(root_mul(a, b) for a in RP[p] for b in RP[q])
        else:
            piece = H6
        if terms and len(terms) + len(piece) > 14:
            break
        terms += rotate(piece, make_root(*draw(PIECE_ROOTS)))
    tweak = draw(st.sampled_from(["none", "none", "none", "drop", "add"]))
    if tweak == "drop" and len(terms) > 1:
        del terms[draw(st.integers(0, len(terms) - 1))]
    elif tweak == "add":
        terms.append(make_root(*draw(PIECE_ROOTS)))
    return sorou(terms)


@given(criterion_inputs())
@settings(max_examples=300, deadline=None)
def test_verdict_matches_the_residue_criterion(s):
    assert is_minimal_vanishing(s) == minimality_by_residues(s)
