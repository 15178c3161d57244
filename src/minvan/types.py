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
from functools import cache, lru_cache
from itertools import chain, product

from minvan.arith import is_prime, primes_below, units
from minvan.minimality import _has_vanishing_subsorou, decompose_into_minimal, is_minimal_vanishing
from minvan.sorou import (
    ONE,
    Root,
    Sorou,
    _rank_table,
    canonicalize,
    from_subsidiary,
    labeled_partitions,
    make_root,
    order,
    parse_sorou,
    relative_order,
    render_sorou,
    root_mul,
    sorou,
    subtract,
    to_subsidiary,
    weight,
)


@cache  # a generated weight builds thousands of types on a few dozen f0s
def _checked_f0(p: int, f0: Sorou) -> Sorou:
    """The canonical form of the f0 of a type with head p, after the checks
    that read only p and f0."""
    if not is_prime(p):
        raise ValueError(f"type head must be prime, got {p}")
    f0 = canonicalize(f0)
    if math.prod(primes_below(p)) % relative_order(f0):
        raise ValueError("f0 relative order must divide the product of primes below p")
    if _has_vanishing_subsorou(f0):
        raise ValueError("f0 must have no vanishing nonempty subsorou")
    return f0


@dataclass(frozen=True)
class MinVanType:
    p: int
    f0: Sorou
    subtypes: tuple["TypeSum", ...] = ()

    def __post_init__(self):
        f0 = _checked_f0(self.p, sorou(self.f0))
        object.__setattr__(self, "f0", f0)
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
        subtypes = tuple(sorted(self.subtypes, key=sum_key, reverse=True))
        object.__setattr__(self, "subtypes", subtypes)
        # Of ints and tuples only, so it does not depend on PYTHONHASHSEED.
        object.__setattr__(self, "_hash", hash((self.p, f0, subtypes)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class TypeSum:
    components: tuple[MinVanType, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty type sum")
        components = tuple(sorted(self.components, key=minvan_key, reverse=True))
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_hash", hash(components))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_minimal_claim(self) -> bool:
        return len(self.components) == 1


@dataclass(frozen=True)
class TypeRecord:
    """A classified minimal type and what enumerating it measured: the
    relative orders, parities and heights of its minimal realizations.  The
    other columns of its table row are functions of the type or of the
    parities, so they are properties, not fields."""

    type: TypeSum
    relative_orders: frozenset[int]
    parities: frozenset[tuple[int, int]]
    heights: frozenset[int]

    @property
    def weight(self) -> int:
        return type_weight(self.type)

    @property
    def top_prime(self) -> int:
        return self.type.components[0].p

    @property
    def partition(self) -> tuple[int, ...]:
        return weight_partition(self.type.components[0])

    @property
    def equisigned(self) -> bool:
        return any(a == b for a, b in self.parities)


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
    return _minvan_key(m, m.f0, map(sum_key, m.subtypes))


def _minvan_key(m: MinVanType, f0: Sorou, subtype_keys):
    """The key of a type with the weight, head and subtype count of m, the
    canonical f0 given, and subtypes of the keys given, in any order."""
    return (
        minvan_weight(m),
        m.p,
        weight(f0),
        tuple(Fraction(p, o) for o, p in f0),
        len(m.subtypes),
        tuple(sorted(subtype_keys, reverse=True)),
    )


@cache
def sum_key(t: TypeSum):
    return _sum_key(t, map(minvan_key, t.components))


def _sum_key(t: TypeSum, component_keys):
    return (type_weight(t), len(t.components), tuple(sorted(component_keys, reverse=True)))


# ---------------------------------------------------------------------------
# serialization


def render_minvan(m: MinVanType) -> str:
    inner = "".join(";" + render_type(t) for t in m.subtypes)
    return f"(R{m.p};{render_sorou(m.f0)}{inner})"


def render_type(t: TypeSum) -> str:
    return "&".join(render_minvan(m) for m in t.components)


# `parse_type`'s bound on nesting, checked before it recurses: along a
# chain of subtypes each top prime is below the last, so a type nested d
# levels deep has a top prime of at least the d-th prime (311 at d = 64).
MAX_TYPE_DEPTH = 64


def parse_type(text: str) -> TypeSum:
    t, pos = _parse_typesum(text, 0, 0)
    if pos != len(text):
        raise ValueError(f"type parse error at position {pos}: trailing text")
    return t


def _parse_typesum(text: str, pos: int, depth: int) -> tuple[TypeSum, int]:
    if depth > MAX_TYPE_DEPTH:
        raise ValueError(f"type parse error at position {pos}: nested too deeply, over {MAX_TYPE_DEPTH} levels")
    comps = []
    m, pos = _parse_minvan(text, pos, depth)
    comps.append(m)
    while pos < len(text) and text[pos] == "&":
        m, pos = _parse_minvan(text, pos + 1, depth)
        comps.append(m)
    return TypeSum(tuple(comps)), pos


def _parse_minvan(text: str, pos: int, depth: int) -> tuple[MinVanType, int]:
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
        t, pos = _parse_typesum(text, pos + 1, depth + 1)
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
    hits rotate v.  Terms are exponents mod n, the lcm of every order in
    target and pool: 1/z is u = w - t0 for a term w of v, and the rotated
    roots are read from `_rank_table(n)`."""
    n = math.lcm(*{o for v in (target, *pool) for o, _ in v})
    rank, roots, _, _, _ = _rank_table(n)
    te = [p * (n // o) for o, p in target]
    t0, tcounts = te[0], Counter(te)
    seen = set()
    for v in pool:
        es = [p * (n // o) for o, p in v]
        counts = Counter(es)
        for w in counts:
            u = (w - t0) % n
            if all(counts[(e + u) % n] >= c for e, c in tcounts.items()):
                r = tuple([roots[i] for i in sorted([rank[e - u] for e in es])])
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
    return from_subsidiary(tuple(slots))


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


@lru_cache(maxsize=4096)  # equal slot differences recur within and across queries
def _infer_minvan(s: Sorou) -> MinVanType:
    """The type `infer_type` gives s, which must be minimal vanishing.  The
    pieces recursed into are minimal by construction: each is a vanishing
    sub-multiset of least weight, so none is certified again."""
    parts = to_subsidiary(s)
    f0 = parts[0]
    subtypes = []
    for part in parts[1:]:
        if part == f0:
            continue
        pieces = decompose_into_minimal(_formal_difference(f0, part))
        subtypes.append(TypeSum(tuple(map(_infer_minvan, pieces))))
    return MinVanType(len(parts), f0, tuple(subtypes))


# ---------------------------------------------------------------------------
# Galois family collapse


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


@cache
def _order_lcm(m: MinVanType) -> int:
    """The lcm of the orders of every f0 in m, its subtypes' included."""
    return math.lcm(order(m.f0), *(_order_lcm(c) for t in m.subtypes for c in t.components))


def _image_sum_key(t: TypeSum, k: int):
    """sum_key of the image of t under nu -> nu^k, k a unit mod the order of
    every f0 in t, without building the image."""
    return _sum_key(t, (_image_minvan_key(m, k % _order_lcm(m)) for m in t.components))


@cache  # per (component, k mod its own lcm): images of one orbit share them
def _image_minvan_key(m: MinVanType, k: int):
    f0 = canonicalize(sorou((o, p * k) for o, p in m.f0))
    return _minvan_key(m, f0, (_image_sum_key(t, k) for t in m.subtypes))


def family_representative(t: TypeSum) -> TypeSum:
    """Least member of the Galois orbit of t (the y-parameter family
    collapse used by the classification table).

    The images are t under nu -> nu^k, k a unit mod the lcm l of the orders
    of t's f0s.  An image has t's weights, heads, f0 weights and component and
    subtype counts; only its f0s change, each to the canonical form of its
    image, and the order of its components and subtypes follows their keys.
    So the key of each image is built from the images of t's f0s alone,
    memoised per component, and only the least image is built: t itself
    when that is k = 1.
    """
    l = math.lcm(*map(_order_lcm, t.components))
    k = min(units(l), key=lambda k: _image_sum_key(t, k))
    return t if k == 1 else _map_type_roots(t, lambda r: make_root(r[0], r[1] * k))
