"""Command-line surface.

Subcommands: bootstrap (self-generate weights 2..12 and check them against
the embedded reference list), extend (generate further weights with
statistics), verify (certify one sorou), enumerate (all rotation classes of
a type), report (CSV/LaTeX), phi (cyclotomic coefficients), plot (SVG unit
circle).  Results go to stdout; timing and progress go to stderr.  Exit
codes: 0 success, 1 verification failure, 2 usage error.

Without --db, a command reads its database path from the MINVAN_DB
environment variable when it runs (default minvan.db).  `main` can be called
repeatedly in one process: the argument parser is built once, on the first
call.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from functools import cache

from minvan import enumeration, store, typegen
from minvan.cyclotomic import cyclotomic_poly
from minvan.minimality import is_minimal_vanishing
from minvan.sorou import (
    Sorou,
    _anchored,
    _parity,
    _top_prime,
    height,
    order,
    parse_sorou,
    render_sorou,
    weight,
)
from minvan.types import TypeSum, _infer_minvan, parse_type, render_type, render_type_latex

# Reference classification for weights 2..12, checked after bootstrap.
BOOTSTRAP_FIXTURE: dict[int, frozenset[str]] = {
    2: frozenset({"(R2;1:0)"}),
    3: frozenset({"(R3;1:0)"}),
    4: frozenset(),
    5: frozenset({"(R5;1:0)"}),
    6: frozenset({"(R5;1:0;(R3;1:0))"}),
    7: frozenset({"(R7;1:0)", "(R5;1:0;(R3;1:0);(R3;1:0))"}),
    8: frozenset({"(R7;1:0;(R3;1:0))", "(R5;1:0;(R3;1:0);(R3;1:0);(R3;1:0))"}),
    9: frozenset(
        {"(R7;1:0;(R3;1:0);(R3;1:0))", "(R5;1:0;(R3;1:0);(R3;1:0);(R3;1:0);(R3;1:0))"}
    ),
    10: frozenset({"(R7;1:0;(R5;1:0))", "(R7;1:0;(R3;1:0);(R3;1:0);(R3;1:0))"}),
    11: frozenset(
        {
            "(R11;1:0)",
            "(R7;1:0;(R5;1:0;(R3;1:0)))",
            "(R7;1:0;(R5;1:0);(R3;1:0))",
            "(R7;1:0;(R3;1:0);(R3;1:0);(R3;1:0);(R3;1:0))",
        }
    ),
    12: frozenset(
        {
            "(R11;1:0;(R3;1:0))",
            "(R7;1:0;(R5;1:0;(R3;1:0);(R3;1:0)))",
            "(R7;1:0;(R5;1:0;(R3;1:0));(R3;1:0))",
            "(R7;1:0;(R5;1:0);(R3;1:0);(R3;1:0))",
            "(R7;1:0;(R3;1:0);(R3;1:0);(R3;1:0);(R3;1:0);(R3;1:0))",
        }
    ),
}


# Base radius of a plot; the k-th copy of a term is drawn at radius k * PLOT_RADIUS.
PLOT_RADIUS = 120.0


def _default_db_path() -> str:
    return os.environ.get("MINVAN_DB", "minvan.db")


def _load_db(path: str) -> store.TypeDatabase:
    if not os.path.exists(path):
        raise SystemExit(f"error: database {path} does not exist (run bootstrap first)")
    return store.load_db(path)


def _cache_path(db_path: str) -> str:
    return db_path + ".cache"


def _load_cache(db_path: str) -> enumeration.SorouCache:
    path = _cache_path(db_path)
    if os.path.exists(path):
        return enumeration.SorouCache(store.load_cache(path))
    return enumeration.SorouCache()


def _extend_to(db: store.TypeDatabase, db_path: str, target: int) -> None:
    """Generate weights up to target; the database header says whether to
    collapse Galois families."""
    cache = _load_cache(db_path)
    for w in range(db.max_complete_weight + 1, target + 1):
        start = time.monotonic()
        cfg = typegen.GenerationConfig(target_weight=w)
        new_types = typegen.generate_next_weight(db, cfg, cache)
        records = [enumeration.type_statistics(m, cache) for m in new_types]
        db.commit_weight(w, records)
        store.save_db(db, db_path)
        store.save_cache(cache.as_dict(), _cache_path(db_path))
        print(f"weight {w}: {len(new_types)} types (cumulative {len(db.records)})")
        print(f"  weight {w} took {time.monotonic() - start:.2f}s", file=sys.stderr)


def cmd_bootstrap(args) -> int:
    db = store.TypeDatabase(collapse=True)
    _extend_to(db, args.db, 12)
    for w, expected in BOOTSTRAP_FIXTURE.items():
        got = frozenset(render_type(r.type) for r in db.records_for_weight(w))
        if got != expected:
            raise SystemExit(
                f"error: bootstrap mismatch at weight {w}: generation bug or "
                f"tampered fixture\n  got      {sorted(got)}\n  expected {sorted(expected)}"
            )
    print(f"bootstrap complete: {len(db.records)} records through weight 12")
    return 0


def cmd_extend(args) -> int:
    db = _load_db(args.db)
    if db.max_complete_weight >= args.to:
        print(f"database already complete through {db.max_complete_weight}")
        return 0
    _extend_to(db, args.db, args.to)
    return 0


def cmd_verify(args) -> int:
    s = parse_sorou(args.sorou)
    verdict = is_minimal_vanishing(s)
    print(f"sorou: {render_sorou(s)}")
    print(f"vanishing: {verdict.vanishing}")
    if verdict.minimal:
        print("minimal: True")
    else:
        print(f"minimal: False ({verdict.failing_condition})")
    print(f"weight: {weight(s)}")
    print(f"height: {height(s)}")
    print(f"order: {order(s)}")
    r, es = _anchored(s)
    print(f"relative order: {r}")
    try:
        print(f"top prime: {_top_prime(r)}")
    except ValueError:
        pass
    try:
        a, b = _parity(r, es)
        print(f"parity: ({a},{b})")
    except ValueError:
        pass
    if verdict.minimal:
        t = TypeSum((_infer_minvan(s),))  # infer_type would certify s again
        print(f"type: {render_type(t)}")
        print(f"type (pretty): {render_type_latex(t)}")
    return 0 if verdict.minimal else 1


def cmd_enumerate(args) -> int:
    t = parse_type(args.type)
    if not t.is_minimal_claim:
        raise SystemExit("error: enumeration is defined for minimal types")
    cache = _load_cache(args.db)
    added = cache.get(render_type(t)) is None
    classes = enumeration.sorou_of_minvan_type(t.components[0], cache)
    if added:
        store.save_cache(cache.as_dict(), _cache_path(args.db))
    for s in classes:
        print(render_sorou(s))
    print(f"{len(classes)} classes", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    db = _load_db(args.db)
    csv = args.format == "csv"
    if args.out:
        (store.write_csv_report if csv else store.write_latex_report)(db, args.out)
    else:
        sys.stdout.write(store.csv_report_text(db) if csv else store.latex_report_text(db))
    return 0


def cmd_phi(args) -> int:
    poly = cyclotomic_poly(args.n)
    print(", ".join(str(c) for c in poly.coefficients))
    for degree, c in enumerate(poly.coefficients):
        if c not in (-1, 0, 1):
            print(f"coefficient {c} at x^{degree}")
    return 0


def render_svg(s: Sorou) -> str:
    """Unit-circle diagram; a term of multiplicity k is stacked at radius
    k times the base radius, echoing the doubled-term figure convention."""
    r = PLOT_RADIUS
    counts: dict[tuple[int, int], int] = {}
    for t in s:
        counts[t] = counts.get(t, 0) + 1
    max_mult = max(counts.values())
    size = 2.2 * r * max_mult
    half = size / 2
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{-half:.1f} {-half:.1f} '
        f'{size:.1f} {size:.1f}">',
        f'<line x1="{-half:.1f}" y1="0" x2="{half:.1f}" y2="0" stroke="#999" stroke-width="1"/>',
        f'<line x1="0" y1="{-half:.1f}" x2="0" y2="{half:.1f}" stroke="#999" stroke-width="1"/>',
    ]
    for k in range(1, max_mult + 1):
        lines.append(
            f'<circle cx="0" cy="0" r="{k * r:.1f}" fill="none" '
            'stroke="#bbb" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for (o, p), mult in sorted(counts.items()):
        angle = 2 * math.pi * p / o
        for k in range(1, mult + 1):
            rad = k * r
            x, y = rad * math.cos(angle), -rad * math.sin(angle)
            lines.append(
                f'<line x1="0" y1="0" x2="{x:.2f}" y2="{y:.2f}" '
                'stroke="#146b14" stroke-width="2"/>'
            )
            lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#146b14"/>')
    lines.append("</svg>")
    return "\n".join(lines)


def cmd_plot(args) -> int:
    s = parse_sorou(args.sorou)
    with open(args.out, "w") as fh:
        fh.write(render_svg(s) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


@cache  # one tree per process; it holds nothing a caller may change (see main)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minvan",
        description="Classify minimal vanishing sums of roots of unity by weight.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bootstrap", help="create the weight 2..12 database from scratch")
    p.add_argument("--db")

    p = sub.add_parser("extend", help="extend the classification to a higher weight")
    p.add_argument("--db")
    p.add_argument("--to", type=int, required=True)

    p = sub.add_parser("verify", help="certify one sorou and infer its type")
    p.add_argument("sorou")

    p = sub.add_parser("enumerate", help="all rotation classes of a minimal type")
    p.add_argument("type")
    p.add_argument("--db")

    p = sub.add_parser("report", help="write the classification table")
    p.add_argument("--db")
    p.add_argument("--format", choices=("csv", "latex"), default="csv")
    p.add_argument("--out")

    p = sub.add_parser("phi", help="coefficients of a cyclotomic polynomial")
    p.add_argument("n", type=int)

    p = sub.add_parser("plot", help="SVG unit-circle diagram of a sorou")
    p.add_argument("sorou")
    p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; safe to call repeatedly in one process.  What a
    caller may change between calls is read per call: $MINVAN_DB when --db
    is absent, and the command's `cmd_*` function, looked up by name."""
    args = build_parser().parse_args(argv)
    if "db" in vars(args) and args.db is None:
        args.db = _default_db_path()
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
