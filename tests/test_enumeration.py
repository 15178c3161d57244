import math
from collections import Counter
from itertools import chain

import pytest

import minvan.enumeration as enumeration
from minvan.arith import primes_below
from minvan.enumeration import (
    SorouCache,
    _iter_assembled,
    _modulus,
    _slot_pools,
    has_minimal_realization,
    sorou_of_minvan_type,
    sorou_of_typesum_anchored,
    type_statistics,
)
from minvan.minimality import is_minimal_vanishing, slots_condition
from minvan.sorou import (
    _rank_table,
    canonicalize,
    from_subsidiary,
    height,
    order,
    parity,
    parse_sorou,
    relative_order,
    render_sorou,
    sorou,
    weight,
)
from minvan.store import cache_line
from minvan.typegen import GenerationConfig, _candidates
from minvan.types import minvan_weight, parse_type, render_minvan, render_type

from helpers import classes_over_every_placement, is_subsorou, slot_assemblies
from table1_fixture import M, T, R2, R3, R5, R5_R3

# One of the four weight-13 candidates that generation drops because every
# subtype is a sum (test_minvan_filter_drops_only_uncertifiable_candidates):
# a real candidate with assemblies, none of them minimal.
UNCERTIFIABLE = parse_type("(R5;1:0+6:1;(R3;1:0)&(R3;1:0);(R3;1:0)&(R2;1:0))").components[0]


def test_r3_single_class():
    classes = sorou_of_minvan_type(R3, SorouCache())
    assert classes == (parse_sorou("1:0+3:1+3:2"),)


def test_r5_r3_parities():
    cache = SorouCache()
    classes = sorou_of_minvan_type(R5_R3, cache)
    assert len(classes) == 1
    assert all(parity(s) == (4, 2) for s in classes)


def test_r7_r5r3_parity_set(shared_cache):
    rec = type_statistics(M(7, T(R5_R3)), shared_cache)
    assert rec.parities == frozenset({(10, 1), (8, 3)})
    assert rec.heights == frozenset({1})


def test_anchored_sum_r3():
    cache = SorouCache()
    got = sorou_of_typesum_anchored(T(R3), sorou([(1, 0)]), cache)
    assert got == [parse_sorou("1:0+3:1+3:2")]


def test_anchored_sum_r3_plus_r5():
    cache = SorouCache()
    f0 = sorou([(1, 0), (15, 2)])
    results = sorou_of_typesum_anchored(T(R3, R5), f0, cache)
    assert results
    for s in results:
        assert weight(s) == 8
        assert is_subsorou(f0, s)


def test_anchored_sum_r2_r3_under_family():
    cache = SorouCache()
    f0 = sorou([(1, 0), (5, 1)])
    results = sorou_of_typesum_anchored(T(R2, R3), f0, cache)
    assert results
    assert all(is_subsorou(f0, s) for s in results)
    assert all(weight(s) == 5 for s in results)


def test_anchored_sum_too_many_parts():
    cache = SorouCache()
    assert sorou_of_typesum_anchored(T(R3, R5), sorou([(1, 0)]), cache) == []


def test_statistics_r11(shared_cache):
    rec = type_statistics(M(11), shared_cache)
    assert rec.parities == frozenset({(11, 0)})
    assert rec.heights == frozenset({1})
    assert rec.relative_orders == frozenset({11})
    assert not rec.equisigned


def test_statistics_r7_2r5r3(shared_cache):
    rec = type_statistics(M(7, T(R5_R3), T(R5_R3)), shared_cache)
    assert rec.parities == frozenset({(13, 2), (11, 4), (9, 6)})
    assert rec.heights == frozenset({1})


def test_weight21_height2_statistics(shared_cache):
    t = parse_type("(R7;1:0+15:2;(R5;1:0)&(R3;1:0);(R5;1:0;(R3;1:0);(R3;1:0)))")
    rec = type_statistics(t.components[0], shared_cache)
    assert rec.weight == 21
    assert 2 in rec.heights
    assert max(rec.heights) == 2


def test_anchor_soundness(db16, shared_cache):
    # Fixing the first subtype at slot 0 loses no class: for every type of
    # the table, the classes over every placement, walked independently of
    # the enumerator, are the enumerated ones.
    assert len(db16.records) == 76
    for record in db16.records:
        m = record.type.components[0]
        walked = classes_over_every_placement(m, shared_cache)
        assert set(sorou_of_minvan_type(m, shared_cache)) == walked, render_minvan(m)


def test_cache_transparency(db16, shared_cache):
    m = M(7, T(R5_R3))
    cold = sorou_of_minvan_type(m, SorouCache())
    warm_cache = SorouCache()
    first = sorou_of_minvan_type(m, warm_cache)
    second = sorou_of_minvan_type(m, warm_cache)
    assert cold == first == second


def test_enumerated_invariants(db16, shared_cache):
    from minvan.arith import is_squarefree

    for record in db16.records:
        if record.weight > 12:
            continue
        for s in sorou_of_minvan_type(record.type.components[0], shared_cache):
            if is_minimal_vanishing(s).minimal:
                assert weight(s) == record.weight
                assert all(is_squarefree(r) for r in record.relative_orders)
                assert canonicalize(s) == s


def test_missing_realization_raises(shared_cache):
    with pytest.raises(ValueError, match="type has no minimal realization"):
        type_statistics(UNCERTIFIABLE, SorouCache())


def test_slot_verdicts_match_the_criterion(db16, shared_cache):
    # Every assembly of every certification candidate through weight 17,
    # and of the uncertifiable weight-13 candidate, is decided by the AND
    # of its slot masks, as `type_statistics` decides it; the criterion on
    # the assembled sorou must give the same condition, and the walk the
    # same verdict.  Every candidate has the target weight, so
    # certification checks no weight.
    candidates = []
    for w in range(2, 18):
        for m in _candidates(db16, GenerationConfig(target_weight=w)):
            assert minvan_weight(m) == w, render_minvan(m)
            candidates.append(m)

    def failures(types):
        out = Counter()
        for m in types:
            _, _, mask = _slot_pools(m, shared_cache)
            assembled = _iter_assembled(m, shared_cache)
            walked = zip(slot_assemblies(m, shared_cache), assembled, strict=True)
            for slots, (_, minimal) in walked:
                condition = slots_condition(mask, slots)
                verdict = is_minimal_vanishing(from_subsidiary(slots))
                assert condition == verdict.failing_condition, (render_minvan(m), slots)
                assert minimal == verdict.minimal, (render_minvan(m), slots)
                out[condition] += 1
        return out

    assert failures(candidates) == {
        None: 16148,
        "inner-vanishing-subsorou": 18,
        "common-subvalue": 9,
    }
    assert failures([UNCERTIFIABLE]) == {"inner-vanishing-subsorou": 8}


def test_every_slot_option_lies_in_mu_q(db16, shared_cache):
    # The precondition of the slot criterion: a type's subtypes have top
    # primes below p, so each slot it can take, f0 included, has order
    # dividing Q, the product of the primes below p.
    candidates = [
        m for w in range(2, 18) for m in _candidates(db16, GenerationConfig(target_weight=w))
    ]
    for m in candidates + [UNCERTIFIABLE]:
        q = math.prod(primes_below(m.p))
        _, pools, _ = _slot_pools(m, shared_cache)
        for x in chain.from_iterable(pools):
            assert q % order(x) == 0, (render_minvan(m), x)


def test_assembled_forms_match_canonicalize(db16, shared_cache):
    # The exponent-native assembler against the kernels it replaced: every
    # rank tuple yielded for every candidate through weight 16, and for the
    # uncertifiable weight-13 candidate, read as roots, is the assembly
    # built as a sorou and canonicalized at its own order.
    candidates = [
        m for w in range(2, 17) for m in _candidates(db16, GenerationConfig(target_weight=w))
    ]

    def assemblies(types):
        count = 0
        for m in types:
            _, roots, _, _, _ = _rank_table(_modulus(m, shared_cache))
            assembled = _iter_assembled(m, shared_cache)
            walked = zip(slot_assemblies(m, shared_cache), assembled, strict=True)
            for slots, (ranks, _) in walked:
                form = tuple(roots[i] for i in ranks)
                assert form == canonicalize(from_subsidiary(slots)), (render_minvan(m), slots)
                count += 1
        return count

    assert assemblies(candidates) == 5977  # 103 candidates
    assert assemblies([UNCERTIFIABLE]) == 8


def test_cache_lines_rendered_from_ranks_match_the_roots(types_through_17):
    # `.cache` lines are joined from a per-n text of each rank; rendering
    # the class lists as roots must give the same line for every type
    # through weight 17.  Rendering takes the list out of the memo, and a
    # later type recomputes any subtype's list it needs.
    cache = SorouCache()
    for m in types_through_17:
        key = render_minvan(m)
        roots = sorou_of_minvan_type(m, cache)
        from_ranks = cache_line(key, cache.rendered(key))
        assert cache.get(key) is None
        assert from_ranks == cache_line(key, map(render_sorou, roots)), key


def _refuse(*args):
    raise AssertionError("unexpected call")


def test_fallback_builds_no_sorou(monkeypatch, db16, shared_cache):
    # Each type's own class list is left out of the cache, so the fallback
    # must assemble it; only its subtypes' lists are read.  The refused
    # names are the assembler and the rotation it ranks every assembly by.
    classes = dict(shared_cache._classes)
    for name in ("_iter_assembled", "least_rotation"):
        monkeypatch.setattr(enumeration, name, _refuse)
    for record in db16.records:
        key = render_type(record.type)
        cache = SorouCache()
        for k, v in classes.items():
            if k != key:
                cache.put(k, *v)
        assert has_minimal_realization(record.type.components[0], cache)
    assert not has_minimal_realization(UNCERTIFIABLE, shared_cache)


def test_assembler_does_no_root_arithmetic(monkeypatch, db16, shared_cache):
    # Once the slot options and the rank table are built, the assembler
    # works on exponents only: no root product, no sorou built or
    # canonicalized, in the sorou module's own calls either.
    import minvan.sorou as sorou_module

    types = [record.type.components[0] for record in db16.records_for_weight(16)]
    expected = [list(_iter_assembled(m, shared_cache)) for m in types]
    for name in ("make_root", "root_mul", "canonicalize", "from_subsidiary"):
        monkeypatch.setattr(sorou_module, name, _refuse)
    assert [list(_iter_assembled(m, shared_cache)) for m in types] == expected


def test_statistics_ask_the_criterion_about_no_class(monkeypatch, db16, shared_cache):
    import minvan.minimality as minimality

    monkeypatch.setattr(minimality, "is_minimal_vanishing", _refuse)
    for record in db16.records_for_weight(15):
        assert type_statistics(record.type.components[0], shared_cache) == record


def root_statistics(s):
    """(parity, height, relative order), or the error parity raises."""
    try:
        return parity(s), height(s), relative_order(s)
    except ValueError as exc:
        return str(exc)


def test_minimal_statistics_are_functions_of_the_order_profile(types_through_17, shared_cache):
    # Every minimal class of every type through weight 17, as
    # `_iter_assembled` yields it: `type_statistics` reads parity, height
    # and relative order once per order profile (the tuple of term orders),
    # so on these classes they must be a function of it.
    minimal_by_weight = Counter()
    by_profile = {}
    for m in types_through_17:
        _, roots, _, _, _ = _rank_table(_modulus(m, shared_cache))
        for ranks, minimal in dict(_iter_assembled(m, shared_cache)).items():
            s = tuple(roots[i] for i in ranks)
            minimal_by_weight[weight(s)] += minimal
            if minimal:
                stats = root_statistics(s)
                assert by_profile.setdefault(tuple([o for o, _ in s]), stats) == stats
    assert sum(n for w, n in minimal_by_weight.items() if w >= 13) == 12732
    assert sum(len(profile) >= 13 for profile in by_profile) == 229


def test_statistics_match_the_root_statistics_of_every_minimal_class(
    monkeypatch, types_through_17, shared_cache
):
    # The old path as the oracle: `relative_order`, `parity` and `height` on
    # roots, over every minimal class `_iter_assembled` yields, give the
    # columns `type_statistics` reads off order profiles, building no root.
    expected = []
    for m in types_through_17:
        _, roots, _, _, _ = _rank_table(_modulus(m, shared_cache))
        minimal = [tuple(roots[i] for i in s) for s, ok in _iter_assembled(m, shared_cache) if ok]
        columns = (frozenset(map(f, minimal)) for f in (relative_order, parity, height))
        expected.append((T(m), *columns))
    monkeypatch.setattr(enumeration, "_as_sorou", _refuse)
    records = [type_statistics(m, shared_cache) for m in types_through_17]
    assert [(r.type, r.relative_orders, r.parities, r.heights) for r in records] == expected


def test_cold_cache_rebuilds_every_db16_record(db16):
    cache = SorouCache()
    assert [type_statistics(r.type.components[0], cache) for r in db16.records] == db16.records
