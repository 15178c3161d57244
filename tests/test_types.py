import copy
import hashlib
import os
import pickle
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import minvan.types
from minvan.arith import units
from minvan.enumeration import SorouCache, sorou_of_minvan_type
from minvan.minimality import decompose_into_minimal, is_minimal_vanishing
from minvan.sorou import parse_sorou, render_sorou, rotate, weight
from minvan.store import load_db
from minvan.types import (
    MinVanType,
    TypeSum,
    family_representative,
    infer_type,
    parse_type,
    render_type,
    render_type_latex,
    representative_sorou,
    sum_key,
    type_weight,
    weight_partition,
)

from helpers import (
    WEIGHT21_TYPE_TEXT,
    compare_types,
    conjugate_type,
    decompose_by_subsets,
    equivalent,
    family_representative_by_images,
    galois_image,
    rotations_containing_by_roots,
    type_order_lcm,
    weight21_height2_sorou,
)
from table1_fixture import M, T, NU3, NU5, R2, R3, R5, R5_R3, R7

H6 = parse_sorou("5:1+5:2+5:3+5:4+6:1+6:5")
W19_DB = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "w19.db"


def test_type_weight_examples():
    assert type_weight(T(R5)) == 5
    assert type_weight(T(R5_R3)) == 6
    assert type_weight(T(M(7, T(R5), f0=NU5))) == 15


def test_weight_partition_examples():
    assert weight_partition(M(7, T(R5_R3))) == (1, 1, 1, 1, 1, 1, 5)
    assert weight_partition(M(7, T(R5), f0=NU5)) == (2, 2, 2, 2, 2, 2, 3)
    assert weight_partition(R5) == (1, 1, 1, 1, 1)
    assert weight_partition(M(2)) == (1, 1)


def test_compare_types_examples():
    t = T(M(7, T(R3)))
    assert compare_types(t, t) == 0
    assert compare_types(T(R3), T(M(2))) > 0
    assert compare_types(T(M(5, T(R3), T(R3))), T(R7)) < 0  # equal weight, p decides


def test_compare_types_total_order(db16):
    types = [r.type for r in db16.records if r.weight <= 13]
    for a, b in combinations(types, 2):
        assert compare_types(a, b) == -compare_types(b, a)
        assert compare_types(a, b) != 0
    for a, b, c in list(combinations(types, 3))[:300]:
        ordered = sorted((a, b, c), key=sum_key)
        assert compare_types(ordered[0], ordered[1]) <= 0
        assert compare_types(ordered[1], ordered[2]) <= 0
        assert compare_types(ordered[0], ordered[2]) <= 0


def test_render_parse_round_trip():
    assert render_type(T(R3)) == "(R3;1:0)"
    assert render_type(T(R5_R3)) == "(R5;1:0;(R3;1:0))"
    assert parse_type("(R5;1:0;(R3;1:0))") == T(R5_R3)
    t = parse_type(WEIGHT21_TYPE_TEXT)
    assert render_type(t) == WEIGHT21_TYPE_TEXT
    with pytest.raises(ValueError):
        parse_type("(R4;1:0)")
    with pytest.raises(ValueError):
        parse_type("(R5;1:0")


def test_latex_rendering():
    assert render_type_latex(T(R3)) == "R_3"
    assert render_type_latex(T(R5_R3)) == "(R_5:R_3)"
    assert render_type_latex(T(M(7, T(R3), T(R3)))) == "(R_7:2R_3)"
    assert render_type_latex(T(M(11))) == "R_{11}"
    assert (
        render_type_latex(T(M(7, T(R5_R3), f0=NU5))) == "(R_7:1+\\nu_5:(R_5:R_3))"
    )


def test_representative_examples():
    assert representative_sorou(T(R5)) == parse_sorou("1:0+5:1+5:2+5:3+5:4")
    rep = representative_sorou(T(R5_R3))
    assert equivalent(rep, H6)
    fam = representative_sorou(T(M(7, T(R5), f0=NU5)))
    assert weight(fam) == 15
    assert is_minimal_vanishing(fam).minimal


# representative_sorou feeds the verify benchmark's query stream and demo 04,
# so its exact output is pinned: the sha256 of one
# "<type> <sorou>" line per record of the weight <= 16 table, in database
# order, and a few records in full (one with a sum subtype).
REPRESENTATIVES_DB16_SHA256 = "d714ccfbe22cc45f09ed7281800ade0270384b7b5ceaba789ba40ac38f2db243"
PINNED_REPRESENTATIVES = {
    "(R5;1:0;(R3;1:0))": "1:0+5:2+5:3+5:4+30:1+30:11",
    "(R7;1:0;(R5;1:0;(R3;1:0));(R5;1:0;(R3;1:0)))": (
        "1:0+7:3+7:4+7:5+7:6+70:3+70:13+70:17+70:27+70:31+70:41+105:1+105:16+105:71+105:86"
    ),
    "(R7;1:0+30:1;(R5;1:0;(R3;1:0)))": (
        "1:0+7:2+7:3+7:4+7:5+7:6+30:1+70:3+70:17+70:31+105:1+210:67+210:97+210:127+210:157"
        "+210:187"
    ),
    "(R7;1:0+5:1;(R3;1:0)&(R2;1:0);(R5;1:0))": (
        "1:0+5:1+7:1+7:3+7:4+7:5+7:6+35:2+35:22+35:27+35:32+70:13+70:27+70:41+210:37+210:107"
    ),
}


def test_representatives_pinned(db16):
    text = "".join(
        f"{render_type(r.type)} {render_sorou(representative_sorou(r.type))}\n"
        for r in db16.records
    )
    assert hashlib.sha256(text.encode()).hexdigest() == REPRESENTATIVES_DB16_SHA256
    for t, s in PINNED_REPRESENTATIVES.items():
        assert representative_sorou(parse_type(t)) == parse_sorou(s)


def test_unrealizable_representative_raises():
    # No rotation of the (R5 : R3, R3) representative contains 1 + nu_15.
    t = parse_type("(R7;1:0+15:1;(R5;1:0;(R3;1:0);(R3;1:0)))")
    with pytest.raises(ValueError, match="unrealizable assembly"):
        representative_sorou(t)


def test_representative_weight_matches_type(db16):
    for record in db16.records:
        rep = representative_sorou(record.type)
        assert weight(rep) == record.weight
        assert is_minimal_vanishing(rep).minimal


def test_infer_type_examples():
    r7 = parse_sorou("1:0+7:1+7:2+7:3+7:4+7:5+7:6")
    assert infer_type(r7) == T(R7)
    assert infer_type(H6) == T(R5_R3)
    assert infer_type(weight21_height2_sorou()) == parse_type(WEIGHT21_TYPE_TEXT)
    with pytest.raises(ValueError):
        infer_type(parse_sorou("1:0+3:1"))


def test_subsidiary_round_trip_on_database(db16):
    from minvan.sorou import from_subsidiary, to_subsidiary

    for record in db16.records:
        rep = representative_sorou(record.type)
        assert equivalent(from_subsidiary(to_subsidiary(rep)), rep)


def test_infer_round_trip_weight_and_partition(db16):
    for record in db16.records:
        rep = representative_sorou(record.type)
        inferred = infer_type(rep)
        assert type_weight(inferred) == record.weight
        assert weight_partition(inferred.components[0]) == weight_partition(
            record.type.components[0]
        )


@pytest.fixture(scope="module")
def inferred_db16(db16, shared_cache):
    """(the rendered infer_type of every db16 class, in record and class
    order; every sorou decompose_into_minimal was given on the way)."""
    inputs = set()

    def recording(s):
        inputs.add(s)
        return decompose_into_minimal(s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minvan.types, "decompose_into_minimal", recording)
        texts = [
            render_type(infer_type(s))
            for record in db16.records
            for s in sorou_of_minvan_type(record.type.components[0], shared_cache)
        ]
    return texts, inputs


def test_inferred_types_of_every_class_are_pinned(inferred_db16):
    # The sha256 of the 4,832 rendered types, computed when decomposition
    # still walked subsets one by one.
    texts, _ = inferred_db16
    assert len(texts) == 4832
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "989657551fd17b13deecdc16408d0c83d031c3e21d3be75e5dc6c05074de21f1"


def test_decompose_matches_the_subset_oracle_on_inference_inputs(inferred_db16):
    _, inputs = inferred_db16
    assert len(inputs) >= 50 and max(map(weight, inputs)) >= 9
    for s in inputs:
        assert decompose_into_minimal(s) == decompose_by_subsets(s)


def test_conjugate_type():
    fam = T(M(7, T(R5), f0=NU5))
    conj = conjugate_type(fam)
    # conj(1 + nu_5) = 1 + nu_5^4, whose anchored rotation is 1 + nu_5 again
    assert conj == fam
    assert conjugate_type(conj) == fam
    f30 = T(M(7, T(R5_R3), f0=((1, 0), (30, 1))))
    assert conjugate_type(f30) == f30  # self-conjugate after re-anchoring


def test_family_representative_orbits():
    members = {
        family_representative(T(M(7, T(R5), f0=((1, 0), (5, y))))) for y in (1, 2, 3, 4)
    }
    assert len(members) == 1
    member = members.pop()
    assert member.components[0].f0 == ((1, 0), (5, 1))
    thirty = {
        family_representative(T(M(7, T(R5_R3), f0=((1, 0), (30, e)))))
        for e in (1, 7, 11, 13)
    }
    assert len(thirty) == 1


def test_family_representative_matches_the_image_oracle(db16):
    # The key-based collapse against building and comparing every image:
    # every type of the weight <= 19 table, which holds the table through
    # 16, and every Galois image of it.  The table is collapsed, so each of
    # its types is its own representative, returned as is.
    table = [r.type for r in load_db(str(W19_DB)).records]
    assert {r.type for r in db16.records} <= set(table)
    images = 0
    for t in table:
        assert family_representative(t) is t
        for k in units(type_order_lcm(t)):
            image = galois_image(t, k)
            assert family_representative(image) == family_representative_by_images(image) == t
            images += 1
    assert images == 585


def test_rotations_containing_matches_the_root_oracle(monkeypatch):
    # The exponent kernel against the root-tuple kernel it replaced, on
    # every (pool, f0 part) that building the table through weight 16, with
    # a fresh cache, and its representatives ask for: the same rotations in
    # the same order.
    from conftest import build_database

    kernel = minvan.types._rotations_containing
    asked = {}

    def recorded(pool, target):
        asked.setdefault((tuple(pool), target), None)
        return kernel(pool, target)

    monkeypatch.setattr(minvan.types, "_rotations_containing", recorded)
    for record in build_database(16, SorouCache()).records:
        minvan.types._minvan_representative.__wrapped__(record.type.components[0])
    for pool, target in asked:
        assert list(kernel(pool, target)) == list(rotations_containing_by_roots(pool, target))
    assert len(asked) == 45


def test_equal_types_are_equal_and_hash_equal_however_built():
    t = parse_type(WEIGHT21_TYPE_TEXT)
    m = t.components[0]
    f5 = TypeSum((R5,))
    sum_type = m.subtypes[-1]  # (R5;1:0)&(R3;1:0)
    rebuilt = [
        parse_type(render_type(t)),
        # f0 rotated away from its canonical form, subtypes permuted, and
        # the components of the sum subtype swapped
        TypeSum((MinVanType(m.p, rotate(m.f0, (15, 4)), tuple(reversed(m.subtypes))),)),
        TypeSum((
            MinVanType(m.p, m.f0, (m.subtypes[0], TypeSum(sum_type.components[::-1]))),
        )),
        pickle.loads(pickle.dumps(t)),
        copy.copy(t),
        copy.deepcopy(t),
    ]
    for other in rebuilt:
        assert other == t and hash(other) == hash(t)
        assert other.components[0].subtypes[-1] == sum_type
    assert hash(TypeSum((R3, R5))) == hash(TypeSum((R5, R3)))
    assert f5 != sum_type and hash(f5) != hash(sum_type)


def test_type_hashes_do_not_depend_on_the_string_hash_seed():
    code = f"from minvan.types import parse_type; print(hash(parse_type({WEIGHT21_TYPE_TEXT!r})))"
    src = str(Path(minvan.types.__file__).parent.parent)
    hashes = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(hashes) == 1 and hashes.pop().strip() == str(hash(parse_type(WEIGHT21_TYPE_TEXT)))


def test_type_invariants_hold_in_database(db16):
    for record in db16.records:
        m = record.type.components[0]
        assert m.f0[0] == (1, 0)
        w0 = weight(m.f0)
        assert len(m.subtypes) <= m.p - 1
        for t in m.subtypes:
            assert type_weight(t) >= 2 * w0
            assert len(t.components) <= w0


def test_constructor_validation():
    # One case per rule; each breaks that rule alone.
    with pytest.raises(ValueError, match="type head must be prime"):
        MinVanType(4, ((1, 0),))
    with pytest.raises(ValueError, match="f0 relative order must divide"):
        MinVanType(3, ((1, 0), (5, 1)))  # 5 does not divide 2
    with pytest.raises(ValueError, match="f0 must have no vanishing nonempty subsorou"):
        MinVanType(5, ((1, 0), (2, 1)))
    with pytest.raises(ValueError, match="more subtypes than available slots"):
        MinVanType(3, ((1, 0),), (T(R2),) * 3)
    with pytest.raises(ValueError, match="subtype weight below twice the f0 weight"):
        MinVanType(5, NU3, (T(R2),))
    with pytest.raises(ValueError, match="subtype with more minimal components than w"):
        MinVanType(5, ((1, 0),), (T(R3, R2),))
    with pytest.raises(ValueError, match="subtype top prime must be below p"):
        MinVanType(3, ((1, 0),), (T(R3),))
    with pytest.raises(ValueError, match="subtype top prime must be below p"):
        MinVanType(5, ((1, 0),), (T(R5),))
    with pytest.raises(ValueError, match="subtype top prime must be below p"):
        parse_type("(R3;1:0;(R3;1:0))")
    with pytest.raises(ValueError, match="empty type sum"):
        TypeSum(())
