"""Shared builders for the worked examples used across the test suite, the
Phi_N residue oracle, the subset oracle for decomposition, and the kernels
that certification replaced, kept as oracles for the ones that replace them.

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

`family_representative_by_images` builds and compares every Galois image
of a type, where the library compares keys; `rotations_containing_by_roots`
rotates root tuples, where the library reads exponents off a rank table.
`to_subsidiary_by_roots` is the subsidiary decomposition on root tuples,
split term by term with `split_root`, where the library buckets exponents.
`classes_over_every_placement` walks every placement of a type's subtypes
on its slots, where the enumerator fixes the first subtype at slot 0.
`slot_assemblies` walks the enumerator's assemblies as root-tuple slots,
in its order, where the enumerator walks exponent rows.
`clear_verify_memos` empties the bounded memos that `minvan verify` reads,
for tests that time or count the work beneath them, and
`verify_mix_texts` builds the benchmark's verify stream.
`cyclotomic_poly_by_exact_division` is the Phi_n construction that kept
every intermediate a polynomial, where the library cuts a power series.
`equivalent`, `is_subsorou`, `compare_types` and `conjugate_type` are
names only tests use.
"""

import importlib.util
import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, product
from pathlib import Path

from minvan import minimality, types
from minvan.arith import is_squarefree, prime_factors, units
from minvan.cyclotomic import cyclotomic_poly
from minvan.enumeration import _slot_pools
from minvan.minimality import (
    FAIL_COMMON_SUBVALUE,
    FAIL_INNER_VANISHING,
    FAIL_NOT_VANISHING,
    FAIL_VALUE_ZERO_F0,
    MinimalityVerdict,
)
from minvan.sorou import (
    Sorou,
    _chunk_root,
    canonicalize,
    distinct_permutations,
    from_subsidiary,
    make_root,
    order,
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
)
from minvan.types import TypeSum, _map_type_roots, sum_key


def cyclotomic_poly_by_exact_division(n: int) -> tuple[int, ...]:
    """Phi_n's coefficients as the library once built them: every binomial
    x^d - 1 with mu(n/d) = +1 multiplied in, then each with mu(n/d) = -1
    divided out exactly, its remainder checked, so the intermediate degree
    is the sum of the d with mu = +1."""
    primes = prime_factors(n)
    binomials: tuple[list[int], list[int]] = ([], [])  # mu(n/d) = +1, -1
    for k in range(len(primes) + 1):
        binomials[k % 2].extend(n // math.prod(c) for c in combinations(primes, k))
    coeffs = [1]
    for d in binomials[0]:
        coeffs = [a - b for a, b in zip([0] * d + coeffs, coeffs + [0] * d)]
    for d in binomials[1]:
        coeffs = [-c for c in coeffs]
        for i in range(d, len(coeffs)):
            coeffs[i] += coeffs[i - d]
        if any(coeffs[-d:]):
            raise ArithmeticError(f"non-exact division by x^{d} - 1")
        del coeffs[-d:]
    return tuple(coeffs)


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
    parts = to_subsidiary(s)
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


def is_subsorou(g: Sorou, h: Sorou) -> bool:
    return Counter(g) <= Counter(h)


def equivalent(s1: Sorou, s2: Sorou) -> bool:
    return canonicalize(s1) == canonicalize(s2)


def compare_types(a: TypeSum, b: TypeSum) -> int:
    """Strict total order; negative when a precedes b, 0 only on equality."""
    ka, kb = sum_key(a), sum_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


def conjugate_type(t: TypeSum) -> TypeSum:
    """Complex-conjugate type: negate every f0 power, re-canonicalize."""
    return _map_type_roots(t, root_inv)


def galois_image(t: TypeSum, k: int) -> TypeSum:
    """t under nu -> nu^k, built and validated by the type constructors."""
    return _map_type_roots(t, lambda r: make_root(r[0], r[1] * k))


def type_order_lcm(t: TypeSum) -> int:
    return math.lcm(
        *(o for m in t.components for o, _ in m.f0),
        *(type_order_lcm(x) for m in t.components for x in m.subtypes),
        1,
    )


def family_representative_by_images(t: TypeSum) -> TypeSum:
    """The least of every Galois image of t, each one built."""
    return min((galois_image(t, k) for k in units(type_order_lcm(t))), key=sum_key)


def rotations_containing_by_roots(pool, target: Sorou):
    """`types._rotations_containing` on root tuples: for each distinct term
    w of each v, rotate v by target[0]/w when that rotation contains
    target; the distinct results in that order."""
    tau_inv = root_inv(target[0])
    seen = set()
    for v in pool:
        counts = Counter(v)
        for w in counts:
            u = root_mul(w, tau_inv)  # 1/z
            if Counter(rotate(target, u)) <= counts:
                r = rotate(v, root_inv(u))
                if r not in seen:
                    seen.add(r)
                    yield r


def to_subsidiary_by_roots(s: Sorou) -> tuple[Sorou, ...]:
    """`to_subsidiary` on root tuples: rotate s to take s[0] to 1, split
    each term by `split_root` at the top prime p into a power of nu_p (its
    slot) and a tail, shift the slots to start at the least-weight
    nonempty slot (least index on ties), and rotate every part by the
    inverse of that slot's least tail."""
    if not s:
        raise ValueError("empty sorou")
    rep = rotate(s, root_inv(s[0]))
    p = top_prime(rep)
    buckets = [[] for _ in range(p)]
    for t in rep:
        head, tail = split_root(t, p)
        buckets[head[1] if head[0] == p else 0].append(tail)
    j0 = min((j for j in range(p) if buckets[j]), key=lambda j: (len(buckets[j]), j))
    shifted = [buckets[(j + j0) % p] for j in range(p)]
    u = root_inv(min(shifted[0]))
    return tuple(tuple(sorted(root_mul(t, u) for t in part)) for part in shifted)


def classes_over_every_placement(m, cache) -> set[Sorou]:
    """The rotation classes of type m, minimal or not, over every placement
    of its subtypes' labels and the empty slots on all p slots, none fixed:
    each assembly is built as a sorou and canonicalized.  Only the slot
    pools come from the enumerator (`_slot_pools`)."""
    labels, pools, _ = _slot_pools(m, cache)
    empty = [len(pools) - 1] * (m.p - len(labels))
    return {
        canonicalize(from_subsidiary(slots))
        for placement in distinct_permutations(labels + empty)
        for slots in product(*[pools[i] for i in placement])
    }


def slot_assemblies(m, cache):
    """The slots of each assembly `enumeration._iter_assembled` walks for
    type m, in its order: the first subtype at slot 0, the other labels and
    the empty slots (f0) in distinct permutations, then every choice of
    options, the last slot's fastest."""
    labels, pools, _ = _slot_pools(m, cache)
    empty = [len(pools) - 1] * (m.p - len(labels))
    for rest in distinct_permutations(labels[1:] + empty):
        yield from product(*[pools[i] for i in (*labels[:1], *rest)])


# The bounded memos of the questions `minvan verify` asks again.
VERIFY_MEMOS = (minimality._failing_condition, types._infer_minvan, _chunk_root)


def clear_verify_memos() -> None:
    for memo in VERIFY_MEMOS:
        memo.cache_clear()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """perfbench/<name>.py as a module, without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def verify_mix_texts(seed: int, passes) -> list[str]:
    """The query texts of the given verify-mix passes, in stream order."""
    mix = load_perfbench("mix")
    reps = mix.representatives(str(PERFBENCH / "fixtures" / "w19.db"))
    return [q.text for i in passes for q in mix.stream(reps, seed, i)]
