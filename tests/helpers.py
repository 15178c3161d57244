"""Shared builders for the worked examples used across the test suite, the
Phi_N residue oracle, and the subset oracle for decomposition.

The library compares values in tower coordinates; the oracle reduces each
term nu_o^p, lifted to the monomial x^(p*N/o), modulo Phi_N.  The remainder
is an integer vector of length phi(N), zero exactly when the complex value
is zero (Gauss's lemma: Phi_N divides an integer polynomial over Q iff it
does over Z).  `minimality_by_residues` is the subsidiary criterion decided
on those residues, with every proper subsorou listed one by one.

The library decides vanishing by descending the cyclotomic tower and
answers "which sub-sum vanishes?" with one sub-multiset DP on packed tower
rows; `smallest_vanishing_by_subsets` answers it by walking
`sub_multisets_of_size` level by level and testing each subset's residue.
No oracle here reads the tower: they decide vanishing on residues alone.
"""

from dataclasses import dataclass
from functools import cache, reduce

from minvan.arith import is_squarefree
from minvan.cyclotomic import cyclotomic_poly
from minvan.minimality import (
    FAIL_COMMON_SUBVALUE,
    FAIL_INNER_VANISHING,
    FAIL_NOT_VANISHING,
    FAIL_VALUE_ZERO_F0,
    MinimalityVerdict,
)
from minvan.sorou import (
    Sorou,
    make_root,
    order,
    proper_nonempty_subsorous,
    relative_order,
    render_sorou,
    root_mul,
    sorou,
    sub_multisets_of_size,
    subtract,
    to_subsidiary,
)


@cache
def _monomial_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_n for k in range(n), as phi(n)-vectors."""
    phi = cyclotomic_poly(n).coefficients
    d = len(phi) - 1
    rows = [(1,) + (0,) * (d - 1)]
    for _ in range(1, n):
        prev = rows[-1]
        carry = prev[-1]
        row = [0] + list(prev[:-1])
        if carry:
            for i in range(d):
                row[i] -= carry * phi[i]
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class Residue:
    """Value of a sorou as the remainder of its lift modulo Phi_N."""

    modulus_order: int
    coefficients: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coefficients)


def residue(s: Sorou, modulus: int | None = None) -> Residue:
    """Exact value of s in Z[x]/(Phi_N); N defaults to the order of s.

    Every term order must divide N.  The empty sorou has the zero residue
    (at an explicit modulus only).
    """
    n = order(s) if modulus is None else modulus
    rows = _monomial_rows(n)
    acc = [0] * len(rows[0])
    for o, p in s:
        row = rows[p * (n // o) % n]
        for i, c in enumerate(row):
            acc[i] += c
    return Residue(n, tuple(acc))


def subsorou_residues(part: Sorou, modulus: int) -> frozenset:
    """Residue vectors of the proper nonempty subsorous of part, listed one
    by one."""
    return frozenset(
        residue(sub, modulus).coefficients for sub in proper_nonempty_subsorous(part)
    )


def minimality_by_residues(s: Sorou) -> MinimalityVerdict:
    """The subsidiary criterion on Phi_M residues of the parts, M the lcm of
    the part orders, with the subsorou values of each part listed one by one."""
    r = relative_order(s)
    if r == 1 or not is_squarefree(r):
        if residue(s).is_zero():
            return MinimalityVerdict(True, False, FAIL_INNER_VANISHING)
        return MinimalityVerdict(False, False, FAIL_NOT_VANISHING)
    parts = to_subsidiary(s).parts
    modulus = order(tuple(sorted(sum(parts, ()))))
    values = [residue(part, modulus) for part in parts]
    if any(v != values[0] for v in values[1:]):
        return MinimalityVerdict(False, False, FAIL_NOT_VANISHING)
    if values[0].is_zero():
        return MinimalityVerdict(True, False, FAIL_VALUE_ZERO_F0)
    subvalues = [subsorou_residues(part, modulus) for part in parts]
    if any(not any(v) for vs in subvalues for v in vs):
        return MinimalityVerdict(True, False, FAIL_INNER_VANISHING)
    if all(subvalues) and reduce(frozenset.intersection, subvalues):
        return MinimalityVerdict(True, False, FAIL_COMMON_SUBVALUE)
    return MinimalityVerdict(True, True, None)


def smallest_vanishing_by_subsets(s: Sorou) -> list[Sorou]:
    """The vanishing sub-multisets of s of least weight, or [] when no
    nonempty sub-multiset vanishes."""
    n = order(s)
    for k in range(2, len(s) + 1):
        found = [sub for sub in sub_multisets_of_size(s, k) if residue(sub, n).is_zero()]
        if found:
            return found
    return []


def decompose_by_subsets(s: Sorou) -> list[Sorou]:
    """`decompose_into_minimal`'s rule on `smallest_vanishing_by_subsets`:
    extract the least-weight vanishing sub-multiset, least by rendered text."""
    parts = []
    while s:
        part = min(smallest_vanishing_by_subsets(s), key=render_sorou)
        parts.append(part)
        s = subtract(s, part)
    return parts


def prod(*roots) -> tuple[int, int]:
    out = (1, 0)
    for r in roots:
        out = root_mul(out, r)
    return out


def neg(r) -> tuple[int, int]:
    return root_mul(r, (2, 1))


def weight21_height2_sorou() -> Sorou:
    """h = sum_j nu_7^j f_j with f_j = 1 + nu_3 nu_5^4 for j in {0,1,2,3,5},
    f_4 = -nu_3 - nu_5^4 + nu_3^2 (nu_5 + nu_5^2 + nu_5^3) and
    f_6 = -nu_5 - nu_5^2 - nu_5^3 - 2 nu_5^4 - nu_3^2 nu_5^4."""
    nu = make_root
    terms = []
    for j in (0, 1, 2, 3, 5):
        terms += [nu(7, j), prod(nu(7, j), nu(3, 1), nu(5, 4))]
    terms += [prod(nu(7, 4), neg(nu(3, 1))), prod(nu(7, 4), neg(nu(5, 4)))]
    terms += [prod(nu(7, 4), nu(3, 2), nu(5, k)) for k in (1, 2, 3)]
    terms += [prod(nu(7, 6), neg(nu(5, k))) for k in (1, 2, 3)]
    terms += [prod(nu(7, 6), neg(nu(5, 4)))] * 2
    terms += [prod(nu(7, 6), neg(prod(nu(3, 2), nu(5, 4))))]
    return sorou(terms)


WEIGHT21_TYPE_TEXT = "(R7;1:0+15:2;(R5;1:0)&(R3;1:0);(R5;1:0;(R3;1:0);(R3;1:0)))"
