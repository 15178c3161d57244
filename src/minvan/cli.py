"""Command-line surface.

Subcommands: bootstrap (self-generate weights 2..12 and check them against
the embedded reference list), extend (generate further weights with
statistics, shared among the cores the process may use), verify (certify
one sorou), enumerate (all rotation classes of a type; it opens no file),
report (CSV/LaTeX), phi (cyclotomic coefficients), plot (SVG unit
circle).  A statistics worker returns its records and its types' `.cache`
lines, rendered in key order as this process renders its own share.
Results go to stdout; timing and progress go to stderr.  Exit
codes: 0 success, 1 verification failure, 2 usage error.

Without --db, a command reads its database path from the MINVAN_DB
environment variable when it runs (default minvan.db).  `main` can be called
repeatedly in one process: the argument parser is built once, on the first
call.
"""

from __future__ import annotations

import argparse
import heapq
import math
import os
import sys
import time
from functools import cache

from minvan import enumeration, store, typegen
from minvan.arith import is_squarefree
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
from minvan.types import TypeSum, _infer_minvan, parse_type, render_minvan, render_type, render_type_latex

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

# The largest n `phi` accepts: Phi_n holds phi(n) + 1 coefficients.
PHI_MAX_N = 10**6


def _default_db_path() -> str:
    return os.environ.get("MINVAN_DB", "minvan.db")


def _load_db(path: str) -> store.TypeDatabase:
    if not os.path.exists(path):
        raise SystemExit(f"error: database {path} does not exist (run bootstrap first)")
    return store.load_db(path)


# A weight's statistics are shared with forked workers only when its types
# have at least this many assemblies in all (`enumeration.assembly_count`),
# about 10 ms of work on one core; a fork round trip costs about 1.5 ms.  In
# alternating `extend --to 17` runs, neither 500 nor 2,000 did better.
FORK_MIN_ASSEMBLIES = 1000


def _lines(keys, cache: enumeration.SorouCache):
    """(key, `cache_line`) of each key's class list, lazily, in keys' order."""
    return ((k, store.cache_line(k, cache.rendered(k))) for k in keys)


def _worker_statistics(types: list, cache: enumeration.SorouCache):
    """In a forked worker: each type's `TypeRecord`, and their `_lines` in
    key order, as the parent renders its own share."""
    records = [enumeration.type_statistics(m, cache) for m in types]
    return records, list(_lines(sorted(map(render_minvan, types)), cache))


def _fork(work):
    """Run work() in a forked child and return (pid, pipe), the pipe a
    binary file that yields the pickled (True, result) or (False, exception),
    or nothing if the child dies first.  The child ends with os._exit, so no
    exit handler or stdio buffer of the parent runs in it."""
    import pickle

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            with open(write, "wb") as fh:
                try:
                    result = work()
                except BaseException as exc:  # raised again in the parent
                    try:
                        fh.write(pickle.dumps((False, exc)))
                    except Exception:  # an exception class pickle cannot name
                        fh.write(pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}"))))
                else:
                    pickle.dump((True, result), fh)
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb")


def _statistics(types: list, cache: enumeration.SorouCache):
    """(records, lines): each type's `TypeRecord`, and a stream of the
    lines of their class lists in key order.  With FORK_MIN_ASSEMBLIES
    assemblies in all, they are shared among min(cores, types) processes,
    this one and forked workers, longest first, each to the least loaded
    process by assembly count.  A worker inherits cache, with the class
    lists and slot options certification put there, and returns records
    and rendered lines; records are sorted on commit and lines merge in key
    order, so the output does not depend on the split.  A worker's
    exception is raised here; every worker is killed and reaped first."""
    costs = [enumeration.assembly_count(m, cache) for m in types]
    # os.sched_getaffinity is Linux-only; elsewhere every type runs here
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = min(cores, len(types)) if sum(costs) >= FORK_MIN_ASSEMBLIES else 1
    if k > 1:  # a run that never forks never loads these
        import pickle
        import signal

    shares = [[] for _ in range(k)]
    loads = [0] * k
    for i in sorted(range(len(types)), key=costs.__getitem__, reverse=True):
        j = loads.index(min(loads))
        shares[j].append(types[i])
        loads[j] += costs[i]
    workers = []
    try:
        for share in shares[1:]:
            workers.append(_fork(lambda share=share: _worker_statistics(share, cache)))
        records = [enumeration.type_statistics(m, cache) for m in shares[0]]
        lines = _lines(sorted(map(render_minvan, shares[0])), cache)
        streams = [list(lines) if workers else lines]  # rendered while workers run, else as written
        while workers:
            pid, pipe = workers[0]
            with pipe:
                outcome = pickle.load(pipe) if pipe.peek(1) else None
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if outcome is None:
                raise RuntimeError(f"statistics worker {pid} ended with no result (exit {status})")
            ok, result = outcome
            if not ok:
                raise result
            records += result[0]
            streams.append(result[1])
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return records, heapq.merge(*streams)


def _extend_to(db: store.TypeDatabase, db_path: str, target: int) -> None:
    """Generate weights up to target; the database header says whether to
    collapse Galois families.  Class lists start empty and are recomputed as
    needed; each weight writes the lines of its own types' class lists, each
    rendered once, and the cache file keeps the lines of the database's
    types.  The cache file is written before the database, so a run stopped
    between the two writes resumes by recomputing that weight."""
    cache = enumeration.SorouCache()
    for w in range(db.max_complete_weight + 1, target + 1):
        start = time.monotonic()
        cfg = typegen.GenerationConfig(target_weight=w)
        new_types = typegen.generate_next_weight(db, cfg, cache)
        records, lines = _statistics(new_types, cache)
        db.commit_weight(w, records)
        store.save_cache(db, lines, db_path + ".cache")
        store.save_db(db, db_path)
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
    if is_squarefree(r):
        if r > 1:
            print(f"top prime: {_top_prime(r)}")
        a, b = _parity(r, es)
        print(f"parity: ({a},{b})")
    if verdict.minimal:
        t = TypeSum((_infer_minvan(s),))  # infer_type would certify s again
        print(f"type: {render_type(t)}")
        print(f"type (pretty): {render_type_latex(t)}")
    return 0 if verdict.minimal else 1


def cmd_enumerate(args) -> int:
    t = parse_type(args.type)
    if not t.is_minimal_claim:
        raise SystemExit("error: enumeration is defined for minimal types")
    classes = enumeration.sorou_of_minvan_type(t.components[0], enumeration.SorouCache())
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
    if args.n > PHI_MAX_N:
        raise ValueError(f"phi accepts n up to {PHI_MAX_N:,}, got {args.n:,}")
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
