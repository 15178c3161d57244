import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minvan.cyclotomic as cyclotomic
from minvan.arith import divisors, euler_phi, prime_factors
from minvan.cyclotomic import (
    PACK_WIDTH,
    IntPolynomial,
    cyclotomic_poly,
    is_vanishing,
    numeric_value,
    values_equal,
)
from minvan.minimality import FAIL_INNER_VANISHING, is_minimal_vanishing
from minvan.sorou import order, parse_sorou, relative_order, sorou

from helpers import _monomial_rows, residue


def naive_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


R3 = parse_sorou("1:0+3:1+3:2")
R5 = parse_sorou("1:0+5:1+5:2+5:3+5:4")


def test_phi_1_and_2():
    assert cyclotomic_poly(1).coefficients == (-1, 1)
    assert cyclotomic_poly(2).coefficients == (1, 1)


def test_phi_6_by_independent_division():
    # x^6 - 1 = Phi_1 * Phi_2 * Phi_3 * Phi_6, so Phi_6 is the remaining
    # cofactor; verify by multiplying everything back together.
    phi6 = cyclotomic_poly(6).coefficients
    assert phi6 == (1, -1, 1)
    product = [1]
    for d in (1, 2, 3, 6):
        product = naive_poly_mul(product, cyclotomic_poly(d).coefficients)
    assert product == [-1] + [0] * 5 + [1]


@pytest.mark.parametrize("n", range(1, 121))
def test_product_identity_and_degree(n):
    product = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            product = naive_poly_mul(product, cyclotomic_poly(d).coefficients)
    expected = [0] * (n + 1)
    expected[0], expected[n] = -1, 1
    assert product == expected
    assert cyclotomic_poly(n).degree == euler_phi(n)


def test_phi_30030_builds_in_seconds():
    # Six primes: 32 binomials multiplied, then 32 divided out, each step linear
    # in the degree, with no lower Phi_d built.
    start = time.perf_counter()
    coeffs = cyclotomic_poly(30030).coefficients
    assert time.perf_counter() - start < 10
    assert len(coeffs) - 1 == euler_phi(30030) == 5760
    assert coeffs == coeffs[::-1] and sum(coeffs) == 1  # palindromic, Phi_n(1) = 1


def test_coefficients_unit_below_105():
    for n in range(1, 105):
        assert all(c in (-1, 0, 1) for c in cyclotomic_poly(n).coefficients)
    assert any(c not in (-1, 0, 1) for c in cyclotomic_poly(105).coefficients)


def test_phi_105_flagged_coefficients():
    coeffs = cyclotomic_poly(105).coefficients
    assert coeffs[7] == -2
    assert coeffs[41] == -2


def test_trailing_zero_rejected():
    with pytest.raises(ValueError):
        IntPolynomial((1, 0))


def test_residue_zero_iff_vanishing():
    assert residue(sorou([(1, 0), (2, 1)])).is_zero()
    assert not residue(sorou([(1, 0), (3, 1)])).is_zero()
    mixed = parse_sorou("5:1+5:2+5:3+5:4+6:1+6:5")
    assert residue(mixed).is_zero()


def test_residue_modulus_and_length():
    r = residue(R3)
    assert r.modulus_order == 3
    assert len(r.coefficients) == euler_phi(3)


def test_is_vanishing_examples():
    assert is_vanishing(R3)
    assert not is_vanishing(sorou([(1, 0), (2, 1), (2, 1)]))
    with pytest.raises(ValueError):
        is_vanishing(())


def test_is_vanishing_never_reads_numeric_value(monkeypatch):
    def no_floats(s):
        raise AssertionError("is_vanishing read numeric_value")

    monkeypatch.setattr(cyclotomic, "numeric_value", no_floats)
    assert is_vanishing(R3) and is_vanishing(R5)
    assert is_vanishing(sorou([(1, 0), (2, 1)]))
    assert not is_vanishing(sorou([(1, 0), (2, 1), (2, 1)]))
    assert not is_vanishing(sorou([(1, 0), (5, 1), (5, 2), (5, 3)]))
    assert not is_vanishing(((1, 0),) * 1_000)
    assert not is_vanishing(((1, 0),) * 10_000)


def test_large_multiplicities_are_exact():
    # A packed tower row is exact only for sums as long as the DP's guard:
    # at PACK_WIDTH, 1 + 129 nu_3 has the coordinates (128, -1), which pack
    # to 128 - 2**7 = 0.  The descent compares integers, so no multiplicity
    # overflows it.
    assert PACK_WIDTH == 7
    assert not sum(cyclotomic._packed_tower_row(3, e) for e in [0] + [1] * 129)
    for w in range(3, 13):
        assert not is_vanishing(sorou([(1, 0)] + [(3, 1)] * (2**w + 1)))
        assert is_vanishing(sorou(R3 * (2**w + 1)))
    assert is_vanishing(sorou([(3, 1)] * 128 + [(3, 2)] * 128 + [(1, 0)] * 128))
    assert not is_vanishing(sorou([(3, 1)] * 128 + [(3, 2)] * 128 + [(1, 0)] * 127))


def test_long_sums_match_residue():
    """Sums of 64 to a few thousand terms: rotated R_p planted up to 300
    times, plus either free terms of multiplicities near powers of two or a
    rotated 1 + (2**j + 1) nu_3, whose tower coordinates overflow j bits."""
    rng = random.Random(17)
    for _ in range(300):
        n = rng.choice(TOWER_ORDERS)
        terms = []
        for _ in range(rng.randint(0, 3)):
            p, a = rng.choice(prime_factors(n)), rng.randrange(n)
            terms += [(n, a + k * n // p) for k in range(p)] * rng.randint(1, 300)
        if n % 3 == 0 and rng.randint(0, 1):
            a = rng.randrange(n)
            terms += [(n, a)] + [(n, a + n // 3)] * (2 ** rng.randint(6, 9) + 1)
        else:
            for _ in range(rng.randint(0, 3)):
                root = (rng.choice(divisors(n)), rng.randrange(n))
                terms += [root] * rng.choice([1, 63, 64, 127, 128, 129, 255, 256, 257])
        s = sorou(terms)
        if len(s) > 63:
            assert is_vanishing(s) == residue(s).is_zero(), s


def phi_caches():
    return cyclotomic_poly.cache_info(), _monomial_rows.cache_info()


# Orders whose Phi rows the residue oracle builds quickly, most of them not
# squarefree, so that both tower steps (p | N/p and p not dividing N/p) occur.
TOWER_ORDERS = (4, 8, 9, 12, 18, 24, 25, 27, 30, 36, 45, 50, 60, 72, 90, 98, 100, 105, 120, 180, 210, 252, 360, 420)


@st.composite
def planted_sorou(draw):
    """Rotated R_p (p | n) plus, unless the draw is to vanish, a few free
    terms of orders dividing n, drawn from a small pool so that they repeat."""
    n = draw(st.sampled_from(TOWER_ORDERS))
    terms = []
    if draw(st.integers(0, 1)):
        root = st.tuples(st.sampled_from(divisors(n)), st.integers(0, n - 1))
        pool = draw(st.lists(root, min_size=1, max_size=3))
        terms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    plant = st.tuples(st.sampled_from(prime_factors(n)), st.integers(0, n - 1))
    for p, a in draw(st.lists(plant, min_size=0 if terms else 1, max_size=3)):
        terms += [(n, a + k * n // p) for k in range(p)]
    return sorou(terms)


@given(planted_sorou())
@settings(max_examples=300, deadline=None)
def test_tower_test_matches_residue(s):
    expected = residue(s).is_zero()
    before = phi_caches()
    assert is_vanishing(s) == expected
    assert phi_caches() == before


def decided_within_bounds(s):
    """is_minimal_vanishing(s), checked to take under 1 s and 100 MB and to
    build no Phi_n."""
    before = phi_caches()
    tracemalloc.start()
    start = time.perf_counter()
    verdict = is_minimal_vanishing(s)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 100 * 2**20
    assert phi_caches() == before
    return verdict


def test_order_34650_decided_without_phi():
    n = 34650  # 2 * 3^2 * 5^2 * 7 * 11
    s = sorou([(n, 1 + k * n // 7) for k in range(7)] + [(n, 2 + k * n // 11) for k in range(11)])
    assert order(s) == relative_order(s) == n
    assert decided_within_bounds(s).failing_condition == FAIL_INNER_VANISHING


def test_largest_relative_order_decided_without_phi():
    # 2 * 3 * ... * 19, the largest squarefree relative order of a minimal
    # sum of weight <= 21, with the root 1, whose tower coordinates are all
    # nonzero, among the terms.
    n = 9699690
    s = sorou([(n, 1 + k * n // 19) for k in range(19)] + [(1, 0), (2, 1)])
    assert order(s) == relative_order(s) == n
    assert decided_within_bounds(s).failing_condition == FAIL_INNER_VANISHING
    assert not is_vanishing(s[1:])


@pytest.mark.parametrize(
    "text, vanishes",
    [
        ("1:0+1000003:1", False),
        ("1:0+1000000007:1", False),
        ("3000000021:0+3000000021:1000000007+3000000021:2000000014", True),  # R_3 rotated
    ],
)
def test_large_prime_orders_decided_by_the_descent(text, vanishes):
    # The descent costs a step per prime of the order and per term, not
    # phi(order): a root's tower row at a prime order P has P - 1
    # coordinates.  is_vanishing builds no tower row, so a large order
    # leaves nothing in the sub-multiset DP's row cache.
    s = parse_sorou(text)
    rows = cyclotomic._packed_tower_row.cache_info().currsize
    tracemalloc.start()
    start = time.perf_counter()
    assert is_vanishing(s) == vanishes
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 100 * 2**20
    assert cyclotomic._packed_tower_row.cache_info().currsize == rows
    assert decided_within_bounds(s).minimal == vanishes


def test_values_equal_at_order_4620():
    n = 4620  # 2^2 * 3 * 5 * 7 * 11
    # nu^a (nu_5 + ... + nu_5^4) + nu^b (nu_7 + ... + nu_7^6) = -nu^a - nu^b
    a, b = 1, 1 + n // 4
    s1 = sorou([(n, a + k * n // 5) for k in range(1, 5)] + [(n, b + k * n // 7) for k in range(1, 7)])
    s2 = sorou([(n, a + n // 2), (n, b + n // 2)])
    assert order(s1) == order(s2) == n
    before = phi_caches()
    assert values_equal(s1, s2)
    assert not values_equal(s1[1:], s2)
    assert phi_caches() == before


def test_values_equal():
    one = sorou([(1, 0)])
    assert values_equal(one, one)
    assert values_equal(one, parse_sorou("6:1+6:5"))  # -nu3 - nu3^2 has value 1
    assert not values_equal(one, sorou([(3, 1)]))


def test_numeric_value():
    assert abs(numeric_value(sorou([(1, 0), (2, 1)]))) < 1e-12
    assert abs(numeric_value(sorou([(1, 0)])) - 1) < 1e-12
    assert abs(numeric_value(R5)) < 1e-12


def test_prefilter_agrees_with_exact_on_random_corpus():
    rng = random.Random(42)
    divisors_210 = [d for d in range(1, 211) if 210 % d == 0]
    for _ in range(500):
        w = rng.randint(1, 12)
        s = sorou(
            (rng.choice(divisors_210), rng.randrange(210)) for _ in range(w)
        )
        assert is_vanishing(s) == (abs(numeric_value(s)) < 1e-6)


def test_residue_additive_at_common_modulus():
    rng = random.Random(7)
    divisors_210 = [d for d in range(1, 211) if 210 % d == 0]
    for _ in range(200):
        a = sorou((rng.choice(divisors_210), rng.randrange(210)) for _ in range(rng.randint(1, 6)))
        b = sorou((rng.choice(divisors_210), rng.randrange(210)) for _ in range(rng.randint(1, 6)))
        ra, rb = residue(a, 210), residue(b, 210)
        rsum = residue(tuple(sorted(a + b)), 210)
        assert rsum.coefficients == tuple(x + y for x, y in zip(ra.coefficients, rb.coefficients))


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 301):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(n).coefficients == tuple(int(c) for c in expected), n
