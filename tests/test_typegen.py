import json
from collections import Counter
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from minvan.arith import primes_upto
from minvan.enumeration import _assemblies, _slot_pools, has_minimal_realization
from minvan.sorou import canonicalize, sorou, weight
from minvan.store import load_db
from minvan.typegen import (
    GenerationConfig,
    _candidates,
    candidate_f0s,
    generate_next_weight,
    types_2pq_oracle,
    typesum_pool,
)
from minvan.types import (
    MinVanType,
    TypeSum,
    minvan_key,
    minvan_weight,
    render_minvan,
    render_type,
    type_weight,
)


def brute_force_partitions(n, k):
    out = set()
    for combo in combinations_with_replacement(range(1, n - k + 2), k):
        if sum(combo) == n:
            out.add(tuple(sorted(combo, reverse=True)))
    return out


def brute_force_draw(db, w, p, w0) -> Counter:
    """Renderings of the weight-w candidates with head p and an f0 of
    weight w0, drawn from db's types by brute force: every sum of at most
    w0 types with top prime below p, and every multiset of fewer than p
    such sums that gives the type weight w."""
    below = [r.type.components[0] for r in db.records if r.type.components[0].p < p]
    pool = [
        TypeSum(c)
        for k in range(1, w0 + 1)
        for c in combinations_with_replacement(below, k)
        if 2 * w0 <= sum(map(minvan_weight, c)) <= w - (p - 2) * w0
        and not all(m.p == 2 and not m.subtypes for m in c)
    ]
    f0s = candidate_f0s(w0, p, db.collapse)
    out = Counter()
    for k in range(p):
        for subtypes in combinations_with_replacement(pool, k):
            if p * w0 + sum(type_weight(t) - 2 * w0 for t in subtypes) != w:
                continue
            if subtypes and not any(t.is_minimal_claim for t in subtypes):
                continue
            out.update(render_minvan(MinVanType(p, f0, subtypes)) for f0 in f0s)
    return out


def test_candidates_match_the_brute_force_draw(db16):
    counts = []
    for w in range(2, 18):
        db = _truncated(db16, w - 1)
        got = Counter(render_minvan(m) for m in _candidates(db, GenerationConfig(target_weight=w)))
        brute = sum(
            (brute_force_draw(db, w, p, w0) for p in primes_upto(w) for w0 in range(1, w // p + 1)),
            Counter(),
        )
        assert got == brute, w
        counts.append(sum(got.values()))
    assert counts[-5:] == [8, 16, 20, 36, 68]  # weights 13-17


def test_weight21_subtypes_of_weight_twice_f0_match_the_brute_force_draw(db16):
    # At p = 7 and w(f0) = 3 every subtype has weight 6 = 2 w(f0), so none
    # adds to the weight and only the room of 6 slots bounds them; a walk
    # that stops once the weight is reached finds 21 of these 462.
    got = Counter(
        render_minvan(m)
        for m in _candidates(db16, GenerationConfig(target_weight=21))
        if m.p == 7 and weight(m.f0) == 3
    )
    assert sum(got.values()) == 462
    assert got == brute_force_draw(db16, 21, 7, 3)


def test_candidate_f0s_weight1():
    assert candidate_f0s(1, 7, True) == [((1, 0),)]
    assert candidate_f0s(1, 2, True) == [((1, 0),)]


def test_candidate_f0s_weight2_top7():
    f0s = candidate_f0s(2, 7, False)
    assert sorou([(1, 0), (5, 1)]) in f0s
    assert sorou([(1, 0), (3, 1)]) in f0s
    assert sorou([(1, 0), (30, 1)]) in f0s  # 1 - nu_3 nu_5
    assert sorou([(1, 0), (2, 1)]) not in f0s  # vanishing subsorou
    # uncollapsed: one representative per rotation class of 1 + nu_30^e
    expected = {canonicalize(sorou([(1, 0), (30, e)])) for e in range(1, 30) if e != 15}
    assert set(f0s) == expected
    assert len(f0s) == 14
    collapsed = candidate_f0s(2, 7, True)
    assert len(collapsed) == 6  # one per Galois orbit: orders 30,15,10,6,5,3


def test_uncollapsed_generation_counts(db16, shared_cache):
    # without the family collapse weight 15 has 15 distinct types
    # ((R_7:1+nu_5^y:R_5) splits into its two Galois members)
    from minvan.enumeration import type_statistics
    from minvan.store import TypeDatabase

    db = TypeDatabase(collapse=False)
    for w in range(2, 16):
        new = generate_next_weight(db, GenerationConfig(target_weight=w))
        db.commit_weight(w, [type_statistics(m, shared_cache) for m in new])
    assert len(db.records_for_weight(15)) == 15
    assert [len(db.records_for_weight(w)) for w in range(2, 15)] == [
        1, 1, 0, 1, 1, 2, 2, 2, 2, 4, 5, 8, 10]


def test_typesum_pool(db16):
    assert [render_type(t) for t in typesum_pool(3, 7, 1, db16)] == ["(R3;1:0)"]
    pool5 = typesum_pool(5, 7, 2, db16)
    assert {render_type(t) for t in pool5} == {"(R5;1:0)", "(R3;1:0)&(R2;1:0)"}
    pool6 = typesum_pool(6, 7, 1, db16)
    assert {render_type(t) for t in pool6} == {"(R5;1:0;(R3;1:0))"}


def test_generate_weight6_and_13(db16):
    by_weight = {w: db16.records_for_weight(w) for w in range(2, 17)}
    assert [render_type(r.type) for r in by_weight[6]] == ["(R5;1:0;(R3;1:0))"]
    w13 = {render_type(r.type) for r in by_weight[13]}
    expected = {
        "(R13;1:0)",
        "(R11;1:0;(R3;1:0);(R3;1:0))",
        "(R7;1:0;(R5;1:0;(R3;1:0);(R3;1:0);(R3;1:0)))",
        "(R7;1:0;(R5;1:0;(R3;1:0);(R3;1:0));(R3;1:0))",
        "(R7;1:0;(R5;1:0);(R5;1:0))",
        "(R7;1:0;(R5;1:0;(R3;1:0));(R3;1:0);(R3;1:0))",
        "(R7;1:0;(R5;1:0);(R3;1:0);(R3;1:0);(R3;1:0))",
        "(R7;1:0;(R3;1:0);(R3;1:0);(R3;1:0);(R3;1:0);(R3;1:0);(R3;1:0))",
    }
    assert w13 == expected


def test_weight15_includes_first_wf0_2_family(db16):
    w15 = {render_type(r.type) for r in db16.records_for_weight(15)}
    assert "(R7;1:0+5:1;(R5;1:0))" in w15


def test_determinism(db16):
    cfg = GenerationConfig(target_weight=13)
    first = generate_next_weight(_truncated(db16, 12), cfg)
    second = generate_next_weight(_truncated(db16, 12), cfg)
    assert first == second


def test_certification_shares_the_statistics_cache(monkeypatch):
    import minvan.typegen as typegen
    from conftest import build_database
    from minvan.enumeration import SorouCache
    from minvan.types import parse_type, type_weight

    cache = SorouCache()
    db13 = build_database(13, cache)
    fallback = typegen.has_minimal_realization
    fallbacks = []

    def counted(m, c):
        fallbacks.append(c)
        return fallback(m, c)

    monkeypatch.setattr(typegen, "has_minimal_realization", counted)
    shared = generate_next_weight(db13, GenerationConfig(target_weight=14), cache)
    assert fallbacks and all(c is cache for c in fallbacks)
    # no candidate's class list was stored, rejected or not
    assert all(type_weight(parse_type(key)) <= 13 for key in cache.as_dict())
    assert shared == generate_next_weight(db13, GenerationConfig(target_weight=14))


def test_pools_and_slot_options_built_once(monkeypatch, db16):
    # One weight's generation sorts the types below each head once and
    # builds each subtype pool once, and one cache builds each (subtype, f0)
    # slot-option list once.
    import minvan.enumeration as enumeration
    import minvan.typegen as typegen
    from minvan.enumeration import SorouCache

    head_keys, pool_keys, slot_keys = [], [], []
    below, pool = typegen._types_below, typegen._typesum_pool
    anchored = enumeration.sorou_of_typesum_anchored

    def counted_below(p, db):
        head_keys.append(p)
        return below(p, db)

    def counted_pool(types_below, total_weight, max_components):
        # the types below distinct heads are distinct lists
        pool_keys.append((len(types_below[0]), total_weight, max_components))
        return pool(types_below, total_weight, max_components)

    def counted_anchored(t, f0, cache):
        slot_keys.append((t, f0))
        return anchored(t, f0, cache)

    monkeypatch.setattr(typegen, "_types_below", counted_below)
    monkeypatch.setattr(typegen, "_typesum_pool", counted_pool)
    monkeypatch.setattr(enumeration, "sorou_of_typesum_anchored", counted_anchored)
    found = generate_next_weight(_truncated(db16, 15), GenerationConfig(target_weight=16), SorouCache())
    assert [render_type(TypeSum((m,))) for m in found] == [
        render_type(r.type) for r in db16.records_for_weight(16)
    ]
    assert head_keys and len(head_keys) == len(set(head_keys))
    assert pool_keys and len(pool_keys) == len(set(pool_keys))
    assert slot_keys and len(slot_keys) == len(set(slot_keys))


def test_incomplete_database_rejected(db16):
    with pytest.raises(ValueError):
        generate_next_weight(_truncated(db16, 12), GenerationConfig(target_weight=15))


def _truncated(db, max_weight):
    from minvan.store import TypeDatabase

    out = TypeDatabase(max_complete_weight=max_weight, collapse=db.collapse)
    out.records = [r for r in db.records if r.weight <= max_weight]
    return out


def test_2pq_oracle_35():
    got = {render_type(TypeSum((m,))) for m in types_2pq_oracle(3, 5, 9)}
    expected = {
        "(R2;1:0)",
        "(R3;1:0)",
        "(R5;1:0)",
        "(R5;1:0;(R3;1:0))",
        "(R5;1:0;(R3;1:0);(R3;1:0))",
        "(R5;1:0;(R3;1:0);(R3;1:0);(R3;1:0))",
        "(R5;1:0;(R3;1:0);(R3;1:0);(R3;1:0);(R3;1:0))",
    }
    assert got == expected
    assert {render_type(TypeSum((m,))) for m in types_2pq_oracle(3, 5, 2)} == {"(R2;1:0)"}


def test_2pq_oracle_57_families():
    got = {render_type(TypeSum((m,))) for m in types_2pq_oracle(5, 7, 16)}
    assert "(R7;1:0+5:1;(R5;1:0))" in got
    assert "(R7;1:0+5:1;(R5;1:0);(R5;1:0))" in got


def test_oracle_agrees_with_generator(db16):
    oracle = {render_type(TypeSum((m,))) for m in types_2pq_oracle(3, 5, 9)}
    generated = {
        render_type(r.type)
        for r in db16.records
        if r.weight <= 9 and all(30 % x == 0 for x in r.relative_orders)
    }
    assert generated == oracle


def _dropped_candidates(db12) -> set[MinVanType]:
    """The weight-13 candidates that generation drops because every subtype
    is a sum, built from the same pools and f0s."""
    w = 13
    dropped = set()
    for p in primes_upto(w):
        for partition in brute_force_partitions(w, p):
            parts = tuple(sorted(partition))
            w0 = parts[0]
            slots = []  # as in generation, no pool holds a sum of R_2s only
            for x in parts[1:]:
                sums = [
                    t
                    for t in typesum_pool(x + w0, p, w0, db12)
                    if not t.is_minimal_claim
                    and not all(m.p == 2 and not m.subtypes for m in t.components)
                ]
                slots.append(sums + [None] if x == w0 else sums)
            for f0 in candidate_f0s(w0, p, db12.collapse):
                for chosen in product(*slots):
                    subtypes = tuple(t for t in chosen if t is not None)
                    if not subtypes:
                        continue
                    try:
                        dropped.add(MinVanType(p, f0, subtypes))
                    except ValueError:
                        continue
    return dropped


def test_minvan_filter_drops_only_uncertifiable_candidates(db16, shared_cache):
    # Generation drops a candidate whose subtypes are all sums; none of
    # those it drops at weight 13 has a minimal realization.
    dropped = _dropped_candidates(_truncated(db16, 12))
    # all four have top prime 5 and an f0 of weight 2; test_enumeration
    # uses this one as its uncertifiable candidate
    assert len(dropped) == 4
    assert "(R5;1:0+6:1;(R3;1:0)&(R3;1:0);(R3;1:0)&(R2;1:0))" in set(map(render_minvan, dropped))
    for m in dropped:
        assert not has_minimal_realization(m, shared_cache), render_minvan(m)


def test_slot_choices_decide_as_the_placement_walk(db16, shared_cache):
    # Certification tries one slot option per subtype occurrence, with f0
    # always a slot, and never places them; the walk over every placement
    # of every assembly it replaced is the oracle.  Every candidate through
    # weight 16, and the four that the filter drops at weight 13.
    candidates = [
        m for w in range(2, 17) for m in _candidates(db16, GenerationConfig(target_weight=w))
    ]
    dropped = _dropped_candidates(_truncated(db16, 12))
    verdicts = Counter()
    for m in candidates + sorted(dropped, key=minvan_key):
        walked = any(minimal for _, minimal in _assemblies(m.p, *_slot_pools(m, shared_cache)))
        assert has_minimal_realization(m, shared_cache) == walked, render_minvan(m)
        verdicts[walked] += 1
    # 103 candidates: the 76 types of the table and 27 rejects; the 4 dropped
    assert len(db16.records) == 76
    assert verdicts == {True: 76, False: 27 + 4}


def test_weight20_from_the_weight19_fixture_matches_the_reference():
    # Through weight 16 every certifiable candidate passes on its first
    # slot choice, so only a heavier weight shows a certification that
    # tries too few choices (taking the first option of each subtype finds
    # 129 of these 135 types).  The fixture and the list are the
    # benchmark's.
    fixtures = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
    db = load_db(str(fixtures / "w19.db"))
    found = generate_next_weight(db, GenerationConfig(target_weight=20))
    reference = json.loads((fixtures / "reference.json").read_text())["certify-w20"]
    assert [render_type(TypeSum((m,))) for m in found] == reference


def test_every_generated_type_passes_both_minimality_paths(db16):
    from minvan.minimality import is_minimal_vanishing, is_minimal_vanishing_bruteforce
    from minvan.types import representative_sorou

    for record in db16.records:
        rep = representative_sorou(record.type)
        assert is_minimal_vanishing(rep).minimal
        if record.weight <= 14:
            assert is_minimal_vanishing_bruteforce(rep)
