import random

import pytest

from minvan.arith import euler_phi
from minvan.cyclotomic import (
    IntPolynomial,
    cyclotomic_poly,
    is_vanishing,
    numeric_value,
    residue,
    values_equal,
)
from minvan.sorou import parse_sorou, sorou


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


def test_heavy_sorou_skips_the_prefilter(monkeypatch):
    import minvan.cyclotomic as cyclotomic

    calls = []

    def counted(s, modulus=None):
        calls.append(len(s))
        return residue(s, modulus)

    monkeypatch.setattr(cyclotomic, "residue", counted)
    at_limit = ((1, 0),) * cyclotomic.PREFILTER_MAX_WEIGHT
    assert not is_vanishing(at_limit)
    assert calls == []  # decided by the prefilter
    heavier = ((1, 0),) * 10_000
    assert not is_vanishing(heavier)
    assert calls == [10_000]


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
