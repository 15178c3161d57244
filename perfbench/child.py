"""Work that the benchmark runs in a fresh interpreter, one mode per call.

    child.py setup WORKLOAD [--seed N]          set-up only, then exit
    child.py cli [--trace SPANS] -- ARGV...     minvan.cli.main(ARGV), traced
    child.py certify --out OUT [--trace SPANS]  generate_next_weight for weight 20
    child.py verify --seed N --pass I --out OUT [--trace SPANS]
                                                one pass of the verify-mix stream

`minvan` is imported from the PYTHONPATH the parent sets.  Results go to the
JSON file OUT; with --trace, the spans of the timed section go to SPANS.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

import mix
import spans

FIXTURE_DB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "w19.db")
CERTIFY_WEIGHT = 20


def _tracer(path: str | None):
    if path is None:
        return None
    tracer = spans.Tracer()
    tracer.install()
    return tracer


def _finish(tracer, path: str | None) -> None:
    if tracer is not None:
        tracer.dump(path)


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def run_setup(workload: str, seed: int) -> int:
    import minvan.cli  # noqa: F401  (interpreter start and imports are the set-up)

    if workload == "certify-w20":
        from minvan.store import load_db

        load_db(FIXTURE_DB)
    elif workload == "verify-mix":
        mix.stream(mix.representatives(FIXTURE_DB), seed, 0)
    return 0


def run_cli(argv: list[str], trace: str | None) -> int:
    from minvan import cli

    tracer = _tracer(trace)
    code = cli.main(argv)
    _finish(tracer, trace)
    return code


def run_certify(out: str, trace: str | None) -> int:
    from minvan import store, typegen
    from minvan.types import TypeSum, render_type

    db = store.load_db(FIXTURE_DB)
    tracer = _tracer(trace)
    start = time.perf_counter()
    found = typegen.generate_next_weight(db, typegen.GenerationConfig(target_weight=CERTIFY_WEIGHT))
    seconds = time.perf_counter() - start
    _finish(tracer, trace)
    _write(out, {"seconds": seconds, "types": [render_type(TypeSum((m,))) for m in found]})
    return 0


def run_verify(seed: int, pass_index: int, out: str, trace: str | None) -> int:
    from minvan import cli

    queries = mix.stream(mix.representatives(FIXTURE_DB), seed, pass_index)
    tracer = _tracer(trace)
    results = []
    for q in queries:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", q.text])
        except (Exception, SystemExit) as exc:  # a raised query is a failed operation
            code = None
            print(f"verify {q.text}: {exc!r}", file=sys.stderr)
        seconds = time.perf_counter() - start
        ok = code == q.expected_exit and f"vanishing: {q.vanishing}\n" in buf.getvalue()
        if not ok and code is not None:
            print(f"verify {q.text}: exit {code}, expected {q.expected_exit} ({q.kind})", file=sys.stderr)
        results.append({"kind": q.kind, "band": q.band, "seconds": seconds, "ok": ok})
    _finish(tracer, trace)
    _write(out, {"queries": results})
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload")
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("cli")
    p.add_argument("--trace")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("certify")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p = sub.add_parser("verify")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", dest="pass_index", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return run_setup(args.workload, args.seed)
    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(argv, args.trace)
    if args.mode == "certify":
        return run_certify(args.out, args.trace)
    return run_verify(args.seed, args.pass_index, args.out, args.trace)


if __name__ == "__main__":
    sys.exit(main())
