"""The seeded, stratified query stream of the verify-mix workload.

Every query is a text sorou whose verdict is known by construction:

* minimal: a Galois image of a weight <= 16 type representative, rotated by
  a primitive N-th root of unity.  Galois images and rotations preserve
  minimal vanishing, so `minvan verify` must exit 0.
* nonminimal: the sum of two such images (total weight <= 24).  It vanishes
  and has a vanishing proper subsorou, so `verify` must exit 1.  Half share
  one rotation (squarefree relative order: the subsidiary criterion decides);
  half are offset by a quarter turn, which puts 4 into the relative order, so
  `is_minimal_vanishing` falls back to the exact test at the full order N.
* nonvanishing: a minimal image with one term dropped.  A proper subsorou of
  a minimal vanishing sorou does not vanish, so `verify` must exit 1.

The order of the whole query is capped, not just that of each summand: small
band <= SMALL_CAP, large band exactly LARGE_ORDER (or, for a dropped term, at
least LARGE_FLOOR).  An uncapped sum reached order 34650, whose exact test
built Phi_34650 and a 34650 x 7200 row table (117 s, 2.1 GB); the large band
keeps that set-up cost visible at a bounded size.

Each pass holds every type that fits the band PER_TYPE[kind] times, so the
count per (kind, band) stratum is fixed and the kinds come in the ratio
2:1:1.  The slowest queries are those of the heaviest types; drawing types
at random made the latency tail depend on the seed's luck.  The seed chooses
the Galois images, rotations, second summands, dropped terms and the order
of the stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

KINDS = ("minimal", "nonminimal", "nonvanishing")
BANDS = ("small", "large")
# Queries per type and band: half minimal, a quarter of each other kind.
PER_TYPE = {"minimal": 2, "nonminimal": 1, "nonvanishing": 1}
MAX_TYPE_WEIGHT = 16
MAX_QUERY_WEIGHT = 24
SMALL_CAP = 420
LARGE_ORDER = 4620  # 2^2 * 3 * 5 * 7 * 11
LARGE_FLOOR = 2000


@dataclass(frozen=True)
class Query:
    kind: str
    band: str
    text: str

    @property
    def expected_exit(self) -> int:
        return 0 if self.kind == "minimal" else 1

    @property
    def vanishing(self) -> bool:
        return self.kind != "nonvanishing"


def _reduced(order: int, power: int) -> tuple[int, int]:
    power %= order
    g = math.gcd(order, power)
    return (order // g, power // g) if power else (1, 0)


def _galois(terms, k: int):
    return [_reduced(o, p * k) for o, p in terms]


def _rotate(terms, n: int, a: int):
    return [_reduced(n, p * (n // o) + a) for o, p in terms]


def _text(terms) -> str:
    return "+".join(f"{o}:{p}" for o, p in sorted(terms))


def _order(terms) -> int:
    return math.lcm(*(o for o, _ in terms))


def _units(n: int) -> list[int]:
    return [k for k in range(1, n) if math.gcd(k, n) == 1]


def _band_order(band: str, m: int) -> int | None:
    """The order N of every rotation used for a summand of order m."""
    step = math.lcm(m, 4)
    if band == "large":
        return LARGE_ORDER if LARGE_ORDER % step == 0 else None
    return SMALL_CAP // step * step or None


class _Builder:
    def __init__(self, representatives: list[tuple[int, tuple]], rng: random.Random):
        self.reps = representatives
        self.rng = rng

    def image(self, terms, n: int, a: int):
        """A random Galois image of terms, rotated by nu_n^a."""
        k = self.rng.choice(_units(_order(terms)))
        return _rotate(_galois(terms, k), n, a)

    def pool(self, band: str, max_weight: int = MAX_TYPE_WEIGHT, divides: int | None = None):
        return [
            (w, t, _band_order(band, _order(t)))
            for w, t in self.reps
            if w <= max_weight
            and _band_order(band, _order(t))
            and (divides is None or divides % _order(t) == 0)
        ]

    def query(self, kind: str, band: str, index: int, summand) -> Query:
        w, t, n = summand
        a = self.rng.choice(_units(n))
        h = self.image(t, n, a)
        if kind == "nonminimal":
            _, t2, _ = self.rng.choice(self.pool(band, MAX_QUERY_WEIGHT - w, divides=n))
            b = a if index % 2 == 0 else a + n // 4
            h = h + self.image(t2, n, b)
        elif kind == "nonvanishing":
            drops = list(range(len(h)))
            self.rng.shuffle(drops)
            for j in drops:
                rest = h[:j] + h[j + 1:]
                if rest and (band == "small" or _order(rest) >= LARGE_FLOOR):
                    h = rest
                    break
            else:
                raise AssertionError("no term can be dropped within the band")
        order = _order(h)
        if not (order <= SMALL_CAP if band == "small" else LARGE_FLOOR <= order <= LARGE_ORDER):
            raise AssertionError(f"{kind} query of order {order} outside the {band} band")
        return Query(kind, band, _text(h))


def representatives(db_path: str) -> list[tuple[int, tuple]]:
    """(weight, representative sorou) of every type of weight <= 16 in the db."""
    from minvan.store import load_db
    from minvan.types import representative_sorou

    db = load_db(db_path)
    return [
        (r.weight, representative_sorou(r.type))
        for r in db.records
        if r.weight <= MAX_TYPE_WEIGHT
    ]


def stream(reps: list[tuple[int, tuple]], seed: int, pass_index: int) -> list[Query]:
    """The shuffled queries of one pass; the same (seed, pass) gives the same list."""
    rng = random.Random(f"verify-mix/{seed}/{pass_index}")
    builder = _Builder(reps, rng)
    queries = [
        builder.query(kind, band, i, summand)
        for band in BANDS
        for kind in KINDS
        for i, summand in enumerate(builder.pool(band) * PER_TYPE[kind])
    ]
    rng.shuffle(queries)
    return queries
