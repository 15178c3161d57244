import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minvan.arith import _TRIAL_BOUND, is_squarefree, prime_factors


def prime_factors_by_trial_division(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return tuple(out + [n] if n > 1 else out)


def test_prime_factors_match_trial_division_below_100000():
    # The uncached function, so the memo does not keep 10^5 entries: from
    # 64^2 on, a cofactor with no factor below the trial bound goes through
    # Miller-Rabin and Pollard-Brent rho.
    factor = prime_factors.__wrapped__
    assert all(factor(n) == prime_factors_by_trial_division(n) for n in range(1, 100_000))


@given(st.lists(st.tuples(st.integers(_TRIAL_BOUND, 10**8), st.integers(1, 3)), min_size=1,
                max_size=3),
       st.integers(1, 10**4))
@settings(max_examples=100, deadline=None)
def test_prime_factors_of_large_cofactors_match_sympy(powers, small):
    # Up to three primes from the trial bound to 10^8, each to a power up
    # to 3, times a small cofactor.
    sympy = pytest.importorskip("sympy")
    n = small
    for a, k in powers:
        n *= sympy.nextprime(a) ** k
    assert prime_factors.__wrapped__(n) == tuple(sorted(sympy.factorint(n)))


@pytest.mark.parametrize(
    "n",
    [
        1000003 * 1000033,
        10000000019 * 10000000033,
        (2**31 - 1) ** 2,
        2**61 - 1,
        10007**5,
        2**89 - 1,  # prime, above the bound of the 13 fixed bases
        (2**61 - 1) * (2**31 - 1) * 3**5,
    ],
)
def test_prime_factors_of_large_orders(n):
    sympy = pytest.importorskip("sympy")
    assert prime_factors(n) == tuple(sorted(sympy.factorint(n)))
    assert is_squarefree(n) == all(k == 1 for k in sympy.factorint(n).values())
