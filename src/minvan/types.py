"""The recursive type algebra for minimal vanishing sorou.

A minimal type ``(R_p : f0 : T_1, ..., T_n)`` records the top prime, the
smallest subsidiary sorou (canonicalized under term-anchored rotation, always
containing 1), and the types of the differences f0 - f_j for the slots that
differ from f0.  Sums ``T_1 (+) ... (+) T_k`` describe non-minimal vanishing
sorou.  Values are frozen; every constructor normalizes, so structural
equality is canonical equality.

Every slot f_j lies in mu_Q, Q the product of the primes below p, so the
constructor rejects a subtype component whose top prime is not below p,
such as the R3 of (R3 : R3).

A strict total order on types drives deterministic storage: weight first,
then component count, then componentwise (p, w(f0), exact term phases as
rationals, subtype count, subtypes recursively).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, product

from minvan.arith import is_prime, primes_below, units
from minvan.minimality import _has_vanishing_subsorou, decompose_into_minimal, is_minimal_vanishing
from minvan.sorou import (
    ONE,
    Root,
    Sorou,
    SubsidiaryDecomposition,
    canonicalize,
    from_subsidiary,
    labeled_partitions,
    make_root,
    parse_sorou,
    relative_order,
    render_sorou,
    root_inv,
    root_mul,
    rotate,
    sorou,
    subtract,
    to_subsidiary,
    weight,
)


@dataclass(frozen=True)
class MinVanType:
    p: int
    f0: Sorou
    subtypes: tuple["TypeSum", ...] = ()

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"type head must be prime, got {self.p}")
        f0 = canonicalize(sorou(self.f0))
        object.__setattr__(self, "f0", f0)
        q = math.prod(primes_below(self.p))
        if q % relative_order(f0):
            raise ValueError("f0 relative order must divide the product of primes below p")
        if _has_vanishing_subsorou(f0):
            raise ValueError("f0 must have no vanishing nonempty subsorou")
        if len(self.subtypes) > self.p - 1:
            raise ValueError("more subtypes than available slots")
        w0 = weight(f0)
        for t in self.subtypes:
            if type_weight(t) < 2 * w0:
                raise ValueError("subtype weight below twice the f0 weight")
            if len(t.components) > w0:
                raise ValueError("subtype with more minimal components than w(f0)")
            if any(c.p >= self.p for c in t.components):
                raise ValueError("subtype top prime must be below p")
        object.__setattr__(
            self, "subtypes", tuple(sorted(self.subtypes, key=sum_key, reverse=True))
        )


@dataclass(frozen=True)
class TypeSum:
    components: tuple[MinVanType, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty type sum")
        object.__setattr__(
            self, "components", tuple(sorted(self.components, key=minvan_key, reverse=True))
        )

    @property
    def is_minimal_claim(self) -> bool:
        return len(self.components) == 1


@dataclass(frozen=True)
class TypeRecord:
    """A classified minimal type together with its enumeration statistics."""

    type: TypeSum
    weight: int
    top_prime: int
    partition: tuple[int, ...]
    relative_orders: frozenset[int]
    parities: frozenset[tuple[int, int]]
    heights: frozenset[int]
    equisigned: bool


def R(p: int) -> MinVanType:
    return MinVanType(p, (ONE,))


@cache
def minvan_weight(m: MinVanType) -> int:
    w0 = weight(m.f0)
    return sum(type_weight(t) - w0 for t in m.subtypes) + (m.p - len(m.subtypes)) * w0


@cache
def type_weight(t: TypeSum) -> int:
    return sum(minvan_weight(m) for m in t.components)


def weight_partition(m: MinVanType) -> tuple[int, ...]:
    w0 = weight(m.f0)
    parts = [type_weight(t) - w0 for t in m.subtypes]
    parts += [w0] * (m.p - len(m.subtypes))
    return tuple(sorted(parts))


@cache
def minvan_key(m: MinVanType):
    return (
        minvan_weight(m),
        m.p,
        weight(m.f0),
        tuple(Fraction(p, o) for o, p in m.f0),
        len(m.subtypes),
        tuple(sum_key(t) for t in m.subtypes),
    )


@cache
def sum_key(t: TypeSum):
    return (
        type_weight(t),
        len(t.components),
        tuple(minvan_key(m) for m in t.components),
    )


def compare_types(a: TypeSum, b: TypeSum) -> int:
    """Strict total order; negative when a precedes b, 0 only on equality."""
    ka, kb = sum_key(a), sum_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


# ---------------------------------------------------------------------------
# serialization


def render_minvan(m: MinVanType) -> str:
    inner = "".join(";" + render_type(t) for t in m.subtypes)
    return f"(R{m.p};{render_sorou(m.f0)}{inner})"


def render_type(t: TypeSum) -> str:
    return "&".join(render_minvan(m) for m in t.components)


def parse_type(text: str) -> TypeSum:
    t, pos = _parse_typesum(text, 0)
    if pos != len(text):
        raise ValueError(f"type parse error at position {pos}: trailing text")
    return t


def _parse_typesum(text: str, pos: int) -> tuple[TypeSum, int]:
    comps = []
    m, pos = _parse_minvan(text, pos)
    comps.append(m)
    while pos < len(text) and text[pos] == "&":
        m, pos = _parse_minvan(text, pos + 1)
        comps.append(m)
    return TypeSum(tuple(comps)), pos


def _parse_minvan(text: str, pos: int) -> tuple[MinVanType, int]:
    if not text.startswith("(R", pos):
        raise ValueError(f"type parse error at position {pos}: expected '(R'")
    pos += 2
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if start == pos:
        raise ValueError(f"type parse error at position {pos}: expected prime")
    p = int(text[start:pos])
    if pos >= len(text) or text[pos] != ";":
        raise ValueError(f"type parse error at position {pos}: expected ';'")
    pos += 1
    start = pos
    while pos < len(text) and (text[pos].isdigit() or text[pos] in ":+"):
        pos += 1
    f0 = parse_sorou(text[start:pos])
    subtypes = []
    while pos < len(text) and text[pos] == ";":
        t, pos = _parse_typesum(text, pos + 1)
        subtypes.append(t)
    if pos >= len(text) or text[pos] != ")":
        raise ValueError(f"type parse error at position {pos}: expected ')'")
    return MinVanType(p, f0, tuple(subtypes)), pos + 1


def _latex_int(n: int) -> str:
    return str(n) if n < 10 else "{%d}" % n


def _latex_root(r: Root) -> str:
    o, p = r
    if o == 1:
        return "1"
    if o == 2:
        return "-1"
    if o % 2 == 0 and (o // 2) % 2 == 1:
        return "-" + _latex_root(root_mul(r, (2, 1)))
    out = f"\\nu_{_latex_int(o)}"
    if p != 1:
        out += f"^{_latex_int(p)}"
    return out


def _latex_sorou(s: Sorou) -> str:
    out = ""
    for t in s:
        part = _latex_root(t)
        if out:
            out += part if part.startswith("-") else "+" + part
        else:
            out = part
    return out


def render_minvan_latex(m: MinVanType) -> str:
    head = f"R_{_latex_int(m.p)}"
    if not m.subtypes and m.f0 == (ONE,):
        return head
    body = head
    if m.f0 != (ONE,):
        body += ":" + _latex_sorou(m.f0)
    if m.subtypes:
        groups = []
        for t in reversed(m.subtypes):
            text = render_type_latex(t, nested=True)
            if groups and groups[-1][0] == text:
                groups[-1][1] += 1
            else:
                groups.append([text, 1])
        body += ":" + ",".join(t if c == 1 else f"{c}{t}" for t, c in groups)
    return f"({body})"


def render_type_latex(t: TypeSum, nested: bool = False) -> str:
    parts = [render_minvan_latex(m) for m in reversed(t.components)]
    out = "\\oplus ".join(parts)
    if nested and len(parts) > 1:
        out = f"({out})"
    return out


# ---------------------------------------------------------------------------
# anchoring at f0 (shared with enumeration) and representatives


def _rotations_containing(pool, target: Sorou):
    """The distinct rotations z*v of members v of pool that contain target.

    The candidates z are exactly the quotients of target's first term by the
    terms of v, and z*v contains target iff v contains target/z, so only the
    hits rotate v."""
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


def _anchored_sums(pools, f0: Sorou):
    """Each distinct sorou made of one rotation of a member of every pool,
    the i-th rotation containing the i-th part of a labeled partition of f0
    into nonempty parts; lazily, partition by partition."""
    seen = set()
    for parts in labeled_partitions(f0, len(pools)):
        per_part = [_rotations_containing(pool, part) for pool, part in zip(pools, parts)]
        for pieces in product(*per_part):
            s = tuple(sorted(chain.from_iterable(pieces)))
            if s not in seen:
                seen.add(s)
                yield s


@cache
def _minvan_representative(m: MinVanType) -> Sorou:
    slots = [m.f0] * m.p
    for i, t in enumerate(m.subtypes, start=1):
        pools = [[_minvan_representative(c)] for c in t.components]
        v = next(_anchored_sums(pools, m.f0), None)
        if v is None:
            raise ValueError(
                f"unrealizable assembly: {render_type(t)} cannot contain {render_sorou(m.f0)}"
            )
        slots[i] = subtract(m.f0, v)
    return from_subsidiary(SubsidiaryDecomposition(m.p, tuple(slots)))


def representative_sorou(t: TypeSum) -> Sorou:
    """One sorou of type t, of the correct weight; minimality is the
    caller's check."""
    return tuple(sorted(chain.from_iterable(_minvan_representative(m) for m in t.components)))


def _formal_difference(a: Sorou, b: Sorou) -> Sorou:
    """a + (-1)b as a plain concatenation, without term cancellation.

    The subsidiary type of a slot is the type of this formal sorou: its
    weight must be w(a) + w(b) even when b shares terms with a, or the
    weight partition would not add up."""
    return tuple(sorted(a + tuple(root_mul(t, (2, 1)) for t in b)))


def infer_type(s: Sorou) -> TypeSum:
    """One valid type of a minimal vanishing sorou (types are not unique;
    determinism comes from the extraction rule in decompose_into_minimal)."""
    if not is_minimal_vanishing(s).minimal:
        raise ValueError("type inference requires a minimal vanishing sorou")
    return TypeSum((_infer_minvan(s),))


def _infer_minvan(s: Sorou) -> MinVanType:
    """The type `infer_type` gives s, which must be minimal vanishing.  The
    pieces recursed into are minimal by construction: each is a vanishing
    sub-multiset of least weight, so none is certified again."""
    dec = to_subsidiary(s)
    f0 = dec.parts[0]
    subtypes = []
    for part in dec.parts[1:]:
        if part == f0:
            continue
        pieces = decompose_into_minimal(_formal_difference(f0, part))
        subtypes.append(TypeSum(tuple(map(_infer_minvan, pieces))))
    return MinVanType(dec.top_prime, f0, tuple(subtypes))


# ---------------------------------------------------------------------------
# conjugation and family collapse


def _map_type_roots(t: TypeSum, f) -> TypeSum:
    return TypeSum(
        tuple(
            MinVanType(
                m.p,
                tuple(f(r) for r in m.f0),
                tuple(_map_type_roots(x, f) for x in m.subtypes),
            )
            for m in t.components
        )
    )


def conjugate_type(t: TypeSum) -> TypeSum:
    """Complex-conjugate type: negate every f0 power, re-canonicalize."""
    return _map_type_roots(t, root_inv)


def _type_order_lcm(t: TypeSum) -> int:
    return math.lcm(
        *(o for m in t.components for o, _ in m.f0),
        *(_type_order_lcm(x) for m in t.components for x in m.subtypes),
        1,
    )


def family_representative(t: TypeSum) -> TypeSum:
    """Least member of the Galois orbit of t (the y-parameter family
    collapse used by the classification table)."""
    l = _type_order_lcm(t)
    images = (
        _map_type_roots(t, lambda r: make_root(r[0], r[1] * k)) for k in units(l)
    )
    return min(images, key=sum_key)
