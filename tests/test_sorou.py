import random
from collections import Counter
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minvan.arith import divisors, is_squarefree, prime_factors, units
from minvan.cyclotomic import is_vanishing
from minvan.minimality import is_minimal_vanishing
from minvan.sorou import (
    ONE,
    _exponent_mask,
    canonicalize,
    distinct_permutations,
    from_subsidiary,
    height,
    labeled_partitions,
    least_rotation,
    make_root,
    order,
    parity,
    parse_sorou,
    proper_nonempty_subsorous,
    relative_order,
    render_sorou,
    root_inv,
    root_mul,
    rotate,
    sorou,
    split_root,
    sub_multisets_of_size,
    subtract,
    to_subsidiary,
    top_prime,
    weight,
)

from helpers import equivalent, is_subsorou, residue, to_subsidiary_by_roots

R3 = parse_sorou("1:0+3:1+3:2")
R5 = parse_sorou("1:0+5:1+5:2+5:3+5:4")
H6 = parse_sorou("5:1+5:2+5:3+5:4+6:1+6:5")  # the worked (R_5:R_3) sorou

divisors_210 = [d for d in range(1, 211) if 210 % d == 0]
roots_210 = st.tuples(st.sampled_from(divisors_210), st.integers(0, 209))
sorou_210 = st.lists(roots_210, min_size=1, max_size=8).map(sorou)


def test_make_root_reduction():
    assert make_root(6, 2) == (3, 1)
    assert make_root(4, 0) == (1, 0)
    assert make_root(2, 3) == (2, 1)
    with pytest.raises(ValueError):
        make_root(0, 1)


def test_rotate_examples():
    assert rotate(R3, (3, 1)) == R3
    assert rotate(sorou([(1, 0), (2, 1)]), (4, 1)) == sorou([(4, 1), (4, 3)])
    s = sorou([(6, 1), (6, 5)])
    assert weight(rotate(s, (7, 3))) == 2


def test_order_examples():
    assert order(sorou([(1, 0), (3, 1)])) == 3
    assert order(sorou([(6, 1), (6, 5)])) == 6
    assert order(H6) == 30
    with pytest.raises(ValueError):
        order(())


def test_relative_order_examples():
    assert relative_order(sorou([(5, 1), (15, 8)])) == 3
    assert relative_order(sorou([(1, 0), (2, 1)])) == 2
    assert relative_order(H6) == 30
    assert relative_order(sorou([(4, 1), (12, 7)])) == 3
    assert relative_order(sorou([(9, 2), (9, 2)])) == 1
    for f in (relative_order, parity, to_subsidiary):
        with pytest.raises(ValueError, match="empty sorou"):
            f(())


def test_weight_height():
    s = sorou([(3, 1), (3, 1), (3, 2), (2, 1), (2, 1), (2, 1)])
    assert weight(s) == 6
    assert height(s) == 3
    assert weight(()) == 0 and height(()) == 0
    assert (weight(R3), height(R3)) == (3, 1)


def test_parity_examples():
    assert parity(H6) == (4, 2)
    assert parity(R3) == (3, 0)
    assert parity(sorou([(1, 0), (2, 1)])) == (1, 1)
    with pytest.raises(ValueError):
        parity(sorou([(4, 1), (1, 0)]))


def test_subtract_examples():
    assert subtract(R5, sorou([(1, 0)])) == parse_sorou("5:1+5:2+5:3+5:4")
    assert subtract(sorou([(1, 0)]), sorou([(3, 1), (3, 2)])) == parse_sorou("1:0+6:1+6:5")
    assert subtract(H6, H6) == ()


def test_is_subsorou():
    assert is_subsorou(sorou([(1, 0)]), sorou([(1, 0), (3, 1)]))
    assert not is_subsorou(sorou([(1, 0), (1, 0)]), sorou([(1, 0), (3, 1)]))
    assert is_subsorou((), H6)


def test_proper_nonempty_subsorous():
    assert set(proper_nonempty_subsorous(sorou([(1, 0), (3, 1)]))) == {
        sorou([(1, 0)]),
        sorou([(3, 1)]),
    }
    assert list(proper_nonempty_subsorous(sorou([(1, 0), (1, 0)]))) == [sorou([(1, 0)])]
    assert len(list(proper_nonempty_subsorous(R3))) == 6
    with pytest.raises(ValueError):
        next(proper_nonempty_subsorous(tuple([(1, 0)] * 25)))


def test_canonicalize_examples():
    # both anchored rotations of (nu3, nu3^2), computed explicitly
    s = sorou([(3, 1), (3, 2)])
    anchored = [rotate(s, root_inv(t)) for t in s]
    assert canonicalize(s) == min(anchored) == sorou([(1, 0), (3, 1)])
    assert canonicalize(R5) == R5
    rng = random.Random(3)
    for _ in range(25):
        z = make_root(rng.choice(divisors_210), rng.randrange(210))
        assert canonicalize(rotate(H6, z)) == canonicalize(H6)


def test_equivalent():
    assert equivalent(H6, rotate(H6, (7, 3)))
    assert not equivalent(R3, R5)
    assert equivalent(sorou([(1, 0), (3, 1)]), sorou([(5, 1), (15, 8)]))


def test_canonicalize_constant_on_orbits():
    rng = random.Random(11)
    for _ in range(50):
        s = sorou(
            (rng.choice(divisors_210), rng.randrange(210))
            for _ in range(rng.randint(1, 7))
        )
        base = canonicalize(s)
        for _ in range(10):
            z = make_root(rng.choice(divisors_210), rng.randrange(210))
            assert canonicalize(rotate(s, z)) == base


def test_split_root():
    a, b = split_root(make_root(15, 2), 5)
    assert a[0] in (1, 5) and b[0] in (1, 3)
    assert root_mul(a, b) == make_root(15, 2)
    assert split_root((7, 3), 7) == ((7, 3), (1, 0))
    assert split_root(ONE, 7) == (ONE, ONE)
    with pytest.raises(ValueError):
        split_root(make_root(4, 1), 2)


def test_to_subsidiary_r5():
    assert to_subsidiary(R5) == (((1, 0),),) * 5


def test_to_subsidiary_r5_r3():
    parts = to_subsidiary(H6)
    assert len(parts) == 5
    assert sorted(map(len, parts)) == [1, 1, 1, 1, 2]
    assert parts[0] == ((1, 0),)
    assert sorou([(6, 1), (6, 5)]) in parts


# Orders whose top primes are 3, 5, 7, 11, 11 and 10007; 4620 = 4 * 1155
# also gives relative orders that are not squarefree.
SUBSIDIARY_ORDERS = (6, 30, 210, 2310, 4620, 20014)


@st.composite
def coset_sums(draw):
    """Up to 12 terms, repeats allowed, drawn from a coset of a subgroup of
    mu_n, so that every divisor of n is a possible relative order."""
    n = draw(st.sampled_from(SUBSIDIARY_ORDERS))
    step = draw(st.sampled_from(divisors(n)))
    offset = draw(st.integers(0, n - 1))
    ks = draw(st.lists(st.integers(0, n // step - 1), max_size=12))
    return sorou((n, offset + step * k) for k in ks)


def _decomposed(decompose, s):
    try:
        return decompose(s)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(coset_sums())
def test_to_subsidiary_matches_the_root_decomposition(s):
    assert _decomposed(to_subsidiary, s) == _decomposed(to_subsidiary_by_roots, s)


def test_distinct_permutations_group_in_first_seen_order():
    assert list(distinct_permutations([2, 0, 2])) == [(2, 2, 0), (2, 0, 2), (0, 2, 2)]
    assert list(distinct_permutations([])) == [()]


def test_from_subsidiary_round_trip():
    parts = to_subsidiary(H6)
    assert equivalent(from_subsidiary(parts), H6)
    rp = to_subsidiary(R3)
    assert from_subsidiary(rp) == R3


def test_parse_render():
    assert parse_sorou("1:0+3:1+3:2") == R3
    assert parse_sorou("2:1+2:1") == sorou([(2, 1), (2, 1)])
    for text in ("1:0", "2:1+2:1", "5:1+5:2+5:3+5:4+6:1+6:5"):
        assert render_sorou(parse_sorou(text)) == text
    with pytest.raises(ValueError):
        parse_sorou("1:0+bad")
    with pytest.raises(ValueError):
        parse_sorou("")


# A few (order, power) pairs, unreduced ones such as 4:2 and 6:0 included,
# drawn with repeats.
unreduced_pairs = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 12), st.integers(0, 30)),
        st.sampled_from([(4, 2), (6, 0), (6, 3), (12, 8), (1, 5), (2, 4)]),
    ),
    min_size=1,
    max_size=4,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))


@given(unreduced_pairs)
@settings(max_examples=150, deadline=None)
def test_parse_and_render_match_their_definitions(pairs):
    text = "+".join(f"{o}:{p}" for o, p in pairs)
    s = parse_sorou(text)
    assert s == sorou(pairs)
    assert render_sorou(s) == "+".join(f"{o}:{p}" for o, p in s)
    assert parse_sorou(render_sorou(s)) == s


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "position 0: empty text"),
        ("bad", "position 0: bad term 'bad'"),
        ("1:0+bad", "position 4: bad term 'bad'"),
        ("1:0+3:1+", "position 8: bad term ''"),
        ("1:0++3:1", "position 4: bad term ''"),
        ("3:1+3:-1", "position 4: bad term '3:-1'"),
        ("3:1+3", "position 4: bad term '3'"),
        ("0:1", "position 0: zero order"),
        ("1:0+3:1+00:2", "position 8: zero order"),
    ],
)
def test_parse_errors_name_the_term_and_its_position(text, message):
    # Twice: a chunk that failed is not remembered as parsed.
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            parse_sorou(text)
        assert str(exc.value) == "sorou parse error at " + message


def test_sub_multisets_of_size():
    s = sorou([(1, 0), (1, 0), (3, 1)])
    assert set(sub_multisets_of_size(s, 2)) == {
        sorou([(1, 0), (1, 0)]),
        sorou([(1, 0), (3, 1)]),
    }


def test_labeled_partitions():
    f0 = sorou([(1, 0), (15, 2)])
    parts = list(labeled_partitions(f0, 2))
    assert len(parts) == 2
    assert all(len(p) == 2 and all(p) for p in parts)
    assert list(labeled_partitions(f0, 3)) == []


def test_labeled_partitions_order():
    f0 = parse_sorou("1:0+15:2+15:8")
    assert list(labeled_partitions(f0, 2)) == [
        (((15, 8),), ((1, 0), (15, 2))),
        (((15, 2),), ((1, 0), (15, 8))),
        (((15, 2), (15, 8)), ((1, 0),)),
        (((1, 0),), ((15, 2), (15, 8))),
        (((1, 0), (15, 8)), ((15, 2),)),
        (((1, 0), (15, 2)), ((15, 8),)),
    ]
    s = parse_sorou("1:0+1:0+3:1+3:1+3:2")
    assert list(labeled_partitions(s, 2)) == [
        (((3, 2),), ((1, 0), (1, 0), (3, 1), (3, 1))),
        (((3, 1),), ((1, 0), (1, 0), (3, 1), (3, 2))),
        (((3, 1), (3, 2)), ((1, 0), (1, 0), (3, 1))),
        (((3, 1), (3, 1)), ((1, 0), (1, 0), (3, 2))),
        (((3, 1), (3, 1), (3, 2)), ((1, 0), (1, 0))),
        (((1, 0),), ((1, 0), (3, 1), (3, 1), (3, 2))),
        (((1, 0), (3, 2)), ((1, 0), (3, 1), (3, 1))),
        (((1, 0), (3, 1)), ((1, 0), (3, 1), (3, 2))),
        (((1, 0), (3, 1), (3, 2)), ((1, 0), (3, 1))),
        (((1, 0), (3, 1), (3, 1)), ((1, 0), (3, 2))),
        (((1, 0), (3, 1), (3, 1), (3, 2)), ((1, 0),)),
        (((1, 0), (1, 0)), ((3, 1), (3, 1), (3, 2))),
        (((1, 0), (1, 0), (3, 2)), ((3, 1), (3, 1))),
        (((1, 0), (1, 0), (3, 1)), ((3, 1), (3, 2))),
        (((1, 0), (1, 0), (3, 1), (3, 2)), ((3, 1),)),
        (((1, 0), (1, 0), (3, 1), (3, 1)), ((3, 2),)),
    ]


def counter_sub_multisets(s, k):
    """Every count vector c <= multiplicity with sum k, as a sorou."""
    groups = sorted(Counter(s).items())
    return {
        tuple(root for (root, _), c in zip(groups, counts) for _ in range(c))
        for counts in product(*(range(mult + 1) for _, mult in groups))
        if sum(counts) == k
    }


# Few distinct roots, so that most draws repeat a term.
few_roots = [(1, 0), (2, 1), (3, 1), (3, 2), (5, 2)]
repeated_sorou = st.lists(st.sampled_from(few_roots), min_size=1, max_size=10).map(sorou)


@given(repeated_sorou)
@settings(max_examples=80, deadline=None)
def test_sub_multiset_streams_match_counter_definition(s):
    for k in range(weight(s) + 2):
        subs = list(sub_multisets_of_size(s, k))
        assert len(subs) == len(set(subs))
        assert set(subs) == counter_sub_multisets(s, k)
    subs = list(proper_nonempty_subsorous(s))
    assert len(subs) == len(set(subs))
    assert set(subs) == set().union(*(counter_sub_multisets(s, k) for k in range(1, weight(s))))


@given(sorou_210, roots_210)
@settings(max_examples=60, deadline=None)
def test_rotation_invariants(s, z):
    z = make_root(*z)
    r = rotate(s, z)
    assert weight(r) == weight(s)
    assert height(r) == height(s)
    assert relative_order(r) == relative_order(s)
    assert is_vanishing(r) == is_vanishing(s)


@given(sorou_210, roots_210)
@settings(max_examples=60, deadline=None)
def test_parity_rotation_invariant(s, z):
    z = make_root(*z)
    r = rotate(s, z)
    try:
        p1 = parity(s)
    except ValueError:
        return
    assert parity(r) == p1  # relative order unchanged by rotation


# Sums of one to three rotated minimal vanishing blocks, with terms of
# mu_30 so that blocks often share terms, plus maybe one stray term: minimal,
# non-minimal and non-vanishing sorou with repeated terms.
BLOCKS = (
    parse_sorou("1:0+2:1"),
    parse_sorou("1:0+3:1+3:2"),
    parse_sorou("1:0+5:1+5:2+5:3+5:4"),
    H6,
)
roots_30 = st.tuples(st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30]), st.integers(0, 29))
block_sums = st.tuples(
    st.lists(st.tuples(st.sampled_from(BLOCKS), roots_30), min_size=1, max_size=3),
    st.lists(roots_30, max_size=1),
).map(
    lambda case: tuple(
        sorted(
            [t for block, z in case[0] for t in rotate(block, make_root(*z))]
            + [make_root(*z) for z in case[1]]
        )
    )
)


def galois(s, k):
    """The image of s under nu_n -> nu_n^k, k a unit mod order(s)."""
    return sorou((o, p * k) for o, p in s)


def invariants(s):
    try:
        p = parity(s)
    except ValueError:
        p = None
    return p, height(s), relative_order(s), is_minimal_vanishing(s)


@given(block_sums, roots_210, st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_statistics_and_verdict_invariant_under_rotation_and_galois(s, z, i):
    expected = invariants(s)
    assert invariants(rotate(s, make_root(*z))) == expected
    ks = units(order(s))
    assert invariants(galois(s, ks[i % len(ks)])) == expected


def relative_order_by_definition(s):
    """Order of the rotation of s that takes its first term to 1."""
    return order(rotate(s, root_inv(s[0])))


def parity_by_definition(s):
    """(max, min) count of odd- and even-order terms of that rotation."""
    rep = rotate(s, root_inv(s[0]))
    odd = sum(1 for o, _ in rep if o % 2)
    return (max(odd, len(rep) - odd), min(odd, len(rep) - odd))


# Few roots of mixed orders, squarefree or not, so that most draws repeat a term.
divisors_2520 = [d for d in range(1, 2521) if 2520 % d == 0]
roots_2520 = st.tuples(st.sampled_from(divisors_2520), st.integers(0, 2519))
mixed_order_sorou = st.lists(roots_2520, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)
).map(sorou)


@given(mixed_order_sorou)
@settings(max_examples=200, deadline=None)
def test_relative_order_parity_and_top_prime_match_definitions(s):
    r = relative_order_by_definition(s)
    assert relative_order(s) == r
    if is_squarefree(r):
        assert parity(s) == parity_by_definition(s)
    else:
        with pytest.raises(ValueError, match="not squarefree"):
            parity(s)
    if r > 1 and is_squarefree(r):
        assert top_prime(s) == prime_factors(r)[-1]
    else:
        with pytest.raises(ValueError):
            top_prime(s)


def canonicalize_by_definition(s):
    """Least rotation of s by the inverse of one of its terms."""
    return min(rotate(s, root_inv(t)) for t in s)


# Few roots of mixed orders, so that most draws repeat a term.
mixed_repeated_sorou = st.lists(roots_210, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)
).map(sorou)


@given(mixed_repeated_sorou, roots_210)
@settings(max_examples=100, deadline=None)
def test_canonicalize_matches_definition(s, z):
    assert canonicalize(s) == canonicalize_by_definition(s)
    r = rotate(s, make_root(*z))
    assert canonicalize(r) == canonicalize_by_definition(r)


def test_canonicalize_matches_definition_on_database(db16, shared_cache):
    from minvan.enumeration import sorou_of_minvan_type

    for record in db16.records:
        for s in sorou_of_minvan_type(record.type.components[0], shared_cache):
            assert canonicalize(s) == canonicalize_by_definition(s) == s
            last = rotate(s, root_inv(s[-1]))
            assert canonicalize(last) == canonicalize_by_definition(last) == s


@cache
def ranks_by_definition(n):
    """rank[e]: the place of nu_n^e among the roots of order dividing n,
    sorted as reduced (order, power) pairs."""
    place = {r: i for i, r in enumerate(sorted({make_root(n, e) for e in range(n)}))}
    return [place[make_root(n, e)] for e in range(n)]


def least_rotation_by_definition(es, n):
    """Unpruned: the least sorted rank list over every anchor."""
    rank = ranks_by_definition(n)
    return min(sorted(rank[(e - a) % n] for e in es) for a in set(es))


def exhausts_walk(es, n):
    """More than two anchors tie on multiplicity and none reaches another
    term within len(es) ranks, so no walk over the first len(es) ranks
    could narrow them: all of them go to the final comparison."""
    counts = Counter(es)
    top = max(counts.values())
    anchors = [a for a, c in counts.items() if c == top]
    first_ranks = sorted(range(n), key=ranks_by_definition(n).__getitem__)[1 : len(es) + 1]
    return len(anchors) > 2 and not any((a + d) % n in counts for a in anchors for d in first_ranks)


MODULI = (1, 2, 6, 12, 30, 210, 420, 2520, 34650)


@st.composite
def exponent_multisets(draw):
    """(es, n): a few exponents with repeats, whole rotated cosets of a
    prime's roots (every anchor tied, possibly k times over), or runs of
    consecutive exponents, whose differences have large order and so
    exhaust the walk at large n."""
    n = draw(st.sampled_from(MODULI))
    kind = draw(st.sampled_from(("pool", "cosets", "run")))
    if kind == "cosets" and n > 1:
        q = draw(st.sampled_from(prime_factors(n)))
        shifts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        k = draw(st.integers(1, 3))
        return [(a + i * n // q) % n for a in shifts for i in range(q)] * k, n
    if kind == "run":
        a, k = draw(st.integers(0, n - 1)), draw(st.integers(1, min(n, 8)))
        return [(a + i) % n for i in range(k)], n
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)), n


@given(exponent_multisets())
@settings(max_examples=300, deadline=None)
def test_least_rotation_matches_definition(case):
    es, n = case
    assert least_rotation(es, n) == least_rotation_by_definition(es, n)


@pytest.mark.parametrize(
    "es, n, exhausts",
    [
        ([(3 + 2 * k) % 14 for k in range(7)], 14, False),  # R_7 rotated
        ([(3 + 30 * k) % 210 for k in range(7)], 210, True),  # nu_7 has rank 10 > 7
        ([(5 + 504 * k) % 2520 for k in range(5)] * 2, 2520, False),  # 2 R_5 rotated
        ([0, 1, 2], 2520, True),
        ([0, 0, 1, 1, 2, 2], 2520, True),
        ([(2 + 3150 * k) % 34650 for k in range(11)] * 2, 34650, True),  # 2 R_11 rotated
        # two anchors survive every rank but the last one their rotations
        # hold, where the lower anchor's rotation is the larger
        ([0, 1, 3], 6, False),
        ([1, 4, 106], 210, False),
        ([0, 70, 124, 140], 210, False),
        # distinct terms at over 256 bits per term, more than two anchors
        # left for the final comparison: R_11 and R_7 rotated, R_3 R_5
        # rotated (whose anchors all reach the ranks of nu_3 and nu_5), all
        # of whose rotations are equal, and runs, whose rotations differ
        ([(2 + 3150 * k) % 34650 for k in range(11)], 34650, True),
        ([(7 + 11550 * j + 6930 * k) % 34650 for j in range(3) for k in range(5)], 34650, False),
        ([(5 + 660 * k) % 4620 for k in range(7)], 4620, True),
        ([(1 + 1540 * j + 924 * k) % 4620 for j in range(3) for k in range(5)], 4620, False),
        ([2, 0, 1], 34650, True),
        ([4619, 0, 1, 2], 4620, True),
    ],
)
def test_least_rotation_on_ties_and_exhausted_walks(es, n, exhausts):
    assert exhausts_walk(es, n) == exhausts
    assert least_rotation(es, n) == least_rotation_by_definition(es, n)


@st.composite
def distinct_exponent_sets(draw):
    """(es, n): distinct exponents, which the mask walk ranks, at small
    orders and at 4620 and 34650, where it shifts masks of hundreds to
    thousands of bits per term.  Random sets; rotated cosets of a prime's
    roots, where every anchor ties; and runs of consecutive exponents,
    whose differences have large rank and so exhaust the walk."""
    n = draw(st.sampled_from((6, 12, 30, 60, 210, 2310, 4620, 34650)))
    kind = draw(st.sampled_from(("random", "cosets", "run")))
    if kind == "cosets":
        q = draw(st.sampled_from(prime_factors(n)))
        shifts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        es = {(a + i * n // q) % n for a in shifts for i in range(q)}
    elif kind == "run":
        a, k = draw(st.integers(0, n - 1)), draw(st.integers(1, min(n, 40)))
        es = {(a + i) % n for i in range(k)}
    else:
        es = set(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40)))
    return draw(st.permutations(sorted(es))), n


@given(distinct_exponent_sets())
@settings(max_examples=300, deadline=None)
def test_least_rotation_of_distinct_terms_matches_definition(case):
    es, n = case
    expected = least_rotation_by_definition(es, n)
    assert least_rotation(es, n) == least_rotation(es, n, _exponent_mask(es)) == expected


def test_least_rotation_matches_definition_on_assembled_sums(rotation_calls_17):
    # Every exponent list the assembler ranks for the types of weight <= 17,
    # with the mask it passes: all have distinct terms, at orders up to 462.
    assert len(rotation_calls_17) == 16148
    for es, n, mask in rotation_calls_17:
        assert len(set(es)) == len(es) and n <= 462
        assert mask == _exponent_mask(es)
        assert least_rotation(es, n, mask) == least_rotation_by_definition(es, n)


@given(sorou_210)
@settings(max_examples=60, deadline=None)
def test_canonicalize_idempotent(s):
    c = canonicalize(s)
    assert canonicalize(c) == c


@given(sorou_210, sorou_210)
@settings(max_examples=60, deadline=None)
def test_subtract_residue_identity(a, b):
    diff = subtract(a, b)
    ra = residue(a, 210).coefficients
    rb = residue(b, 210).coefficients
    rd = residue(diff, 210).coefficients if diff else (0,) * len(ra)
    assert rd == tuple(x - y for x, y in zip(ra, rb))


@given(sorou_210)
@settings(max_examples=60, deadline=None)
def test_relative_order_divides_order(s):
    assert order(s) % relative_order(s) == 0
    if (1, 0) in s:
        assert order(s) == relative_order(s)


def test_submodule_import_binds_the_module():
    import types

    import minvan.sorou as m

    assert isinstance(m, types.ModuleType)
    assert m.sorou([(3, 1)]) == ((3, 1),)
