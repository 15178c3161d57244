"""Benchmark of minvan: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `minvan` is imported from its `src/`.
Workloads (one process drives each, closed loop, default CLI flags):

* classify-w17: `minvan bootstrap` then `minvan extend --to 17` from an
  empty directory, each in a fresh interpreter.
* certify-w20: a fresh interpreter loads the committed weight <= 19 database
  and calls `typegen.generate_next_weight` for weight 20.
* verify-mix: a fresh interpreter runs `minvan.cli.main(["verify", text])` on
  each query of a seeded, stratified stream (see mix.py).

A round is one such unit of work.  Rounds repeat while the next one is
expected to end within --seconds (at least one runs).  Every output is checked
against reference outputs of commit 2a37953 or against the verdict known
by construction; a wrong or raised operation counts in `failed`.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs one
untraced and one traced round and prints the per-layer metrics: spans come
from wrappers patched around minvan's functions from outside (spans.py).

The last line of stdout is the JSON result; the lines before it restate each
metric with its unit, bound and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = str(BENCH / "child.py")
REFERENCE = BENCH / "fixtures" / "reference.json"
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
CLASSIFY_TO = 17
WEIGHT_LINE = re.compile(r"^\s*weight (\d+) took ([0-9.]+)s$", re.M)


class RunAborted(Exception):
    """The run cannot produce a result: out of time, or nothing completed."""


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes


class Run:
    """Children, operation counts and the run's deadline."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("MINVAN_DB", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "random"  # as a user's process has
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0  # largest child since the caller last reset it

    def python(self, *args: str) -> Child:
        """Run a child interpreter to completion within the run's deadline.

        wait4 gives the child's own peak RSS (its reaped descendants
        included), which subprocess.run does not expose."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunAborted("no time left")
        out, err = self.work / "child.out", self.work / "child.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                    stdout=fo, stderr=fe)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise RunAborted(f"timed out: {' '.join(args)}")
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        return Child(proc.returncode, out.read_bytes(), err.read_bytes())

    def op(self, ok: bool, what: str, proc: Child | None = None) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            detail = proc.stderr.decode(errors="replace")[-2000:] if proc is not None else ""
            print(f"FAILED: {what}\n{detail}", file=sys.stderr)
        return ok


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reference() -> dict:
    return json.loads(REFERENCE.read_text())


# -- rounds ----------------------------------------------------------------------
# Each returns {"seconds": round time, "ops": timed op latencies, "info": {...},
# "spans": [span files]}.


def classify_round(run: Run, index: int, traced: bool) -> dict:
    """bootstrap + extend --to 17 in an empty directory; report is a check."""
    d = run.work / f"classify-{index}"
    d.mkdir()
    db, cache = d / "minvan.db", d / "minvan.db.cache"
    expected = _reference()["classify-w17"]
    ops, span_files, info = [], [], {}
    for argv in (["bootstrap", "--db", str(db)], ["extend", "--db", str(db), "--to", str(CLASSIFY_TO)]):
        if traced:
            span_files.append(str(run.work / f"{argv[0]}-{index}.spans"))
            cmd = [CHILD, "cli", "--trace", span_files[-1], "--", *argv]
        else:
            cmd = ["-m", "minvan.cli", *argv]
        start = time.perf_counter()
        proc = run.python(*cmd)
        ops.append(time.perf_counter() - start)
        if argv[0] == "bootstrap":
            run.op(proc.returncode == 0, f"minvan bootstrap exited {proc.returncode}", proc)
            continue
        info["weight_s"] = {int(w): float(s) for w, s in WEIGHT_LINE.findall(proc.stderr.decode(errors="replace"))}
        outputs = {name: path.read_bytes() if path.exists() else b""
                   for name, path in (("minvan.db", db), ("minvan.db.cache", cache))}
        wrong = [name for name, data in outputs.items() if _sha256(data) != expected[name]]
        run.op(proc.returncode == 0 and not wrong,
               f"minvan extend exited {proc.returncode}; differs from reference: {wrong}", proc)
        info["db_bytes"] = len(outputs["minvan.db"])
        info["cache_bytes"] = len(outputs["minvan.db.cache"])
    report = run.python("-m", "minvan.cli", "report", "--format", "csv", "--db", str(db))
    run.op(report.returncode == 0 and _sha256(report.stdout) == expected["report.csv"],
           f"minvan report exited {report.returncode} or differs from reference", report)
    shutil.rmtree(d)
    return {"seconds": sum(ops), "ops": ops, "info": info, "spans": span_files}


def certify_round(run: Run, index: int, traced: bool) -> dict:
    out = run.work / f"certify-{index}.json"
    cmd = [CHILD, "certify", "--out", str(out)]
    span_files = [str(run.work / f"certify-{index}.spans")] if traced else []
    if traced:
        cmd += ["--trace", span_files[0]]
    proc = run.python(*cmd)
    result = json.loads(out.read_text()) if proc.returncode == 0 else {"seconds": 0.0, "types": None}
    expected = _reference()["certify-w20"]
    run.op(result["types"] == expected,
           f"weight-20 types differ from the {len(expected)} reference types", proc)
    ops = [result["seconds"]] if proc.returncode == 0 else []
    return {"seconds": result["seconds"], "ops": ops, "info": {}, "spans": span_files}


def verify_round(run: Run, index: int, traced: bool) -> dict:
    out = run.work / f"verify-{index}.json"
    cmd = [CHILD, "verify", "--seed", str(run.seed), "--pass", str(index), "--out", str(out)]
    span_files = [str(run.work / f"verify-{index}.spans")] if traced else []
    if traced:
        cmd += ["--trace", span_files[0]]
    proc = run.python(*cmd)
    if not run.op(proc.returncode == 0, f"verify pass {index} exited {proc.returncode}", proc):
        return {"seconds": 0.0, "ops": [], "info": {"strata": {}}, "spans": []}
    queries = json.loads(out.read_text())["queries"]
    strata: dict[str, float] = {}
    for q in queries:
        run.op(q["ok"], f"verify {q['kind']}/{q['band']} query gave a wrong verdict")
        key = f"verify.{q['kind']}.{q['band']}_s"
        strata[key] = strata.get(key, 0.0) + q["seconds"]
    ops = [q["seconds"] for q in queries]
    return {"seconds": sum(ops), "ops": ops, "info": {"strata": strata}, "spans": span_files}


WORKLOADS = {"classify-w17": classify_round, "certify-w20": certify_round, "verify-mix": verify_round}


# -- metrics -------------------------------------------------------------------


def _own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-95 * len(ordered) // 100) - 1)]


def end_to_end(run: Run, workload: str, seconds: int) -> tuple[dict, dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = run.python(CHILD, "setup", workload, "--seed", str(run.seed))
        probes.append(time.perf_counter() - start)
        run.op(proc.returncode == 0, f"set-up of {workload} exited {proc.returncode}", proc)
    rounds, peaks = [], []
    start = time.monotonic()
    while True:
        run.peak_rss_mb = 0.0
        rounds.append(WORKLOADS[workload](run, len(rounds), False))
        peaks.append(max(run.peak_rss_mb, _own_rss_mb()))
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    # Per-round statistics, then their median over rounds: a slow phase of
    # the host that covers a few rounds does not move the run's figures.
    ops = [r["ops"] for r in rounds if r["ops"]]
    if not ops:
        raise RunAborted("no operation completed")
    values = {
        "setup_s": statistics.median(probes),
        "round_s": statistics.median(r["seconds"] for r in rounds),
        "ops_per_s": statistics.median(len(o) / sum(o) for o in ops),
        "op_p50_ms": statistics.median(statistics.median(o) for o in ops) * 1e3,
        "op_p95_ms": statistics.median(_p95(o) for o in ops) * 1e3,
        "peak_rss_mb": statistics.median(peaks),
    }
    per_round = f"{len(ops)}x{len(ops[0])}"
    samples = {"setup_s": len(probes), "round_s": len(rounds), "ops_per_s": per_round,
               "op_p50_ms": per_round, "op_p95_ms": per_round, "peak_rss_mb": len(peaks)}
    return values, samples


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trace: dict, untraced: dict, traced: dict) -> dict:
    calls, self_s, incl, c = trace["calls"], trace["self_s"], trace["incl_s"], trace["counts"]
    candidates = calls["typegen._certify"]
    assemblies = c["enumeration._iter_assembled.yields"]
    duplicates = c["enumeration._iter_assembled.repeats"]
    m = {
        "typegen.candidates": candidates,
        "typegen.survivors": c["typegen.survivors"],
        "typegen.survivor_ratio": _ratio(c["typegen.survivors"], candidates),
        "typegen.fast_path": c["typegen.fast_path"],
        "typegen.fallbacks": c["typegen.fallbacks"],
        "typegen.fast_path_ratio": _ratio(c["typegen.fast_path"], candidates),
        "typegen.generate_self_s": self_s["typegen.generate_next_weight"],
        "typegen.certify_s": incl["typegen._certify"],
        "typegen.fallback_s": c["typegen.fallback_s"],
        "enumeration.statistics_s": incl["enumeration.type_statistics"],
        "enumeration.enumerate_self_s": sum(
            self_s[n] for n in ("enumeration.sorou_of_minvan_type",
                                "enumeration.sorou_of_typesum_anchored",
                                "enumeration._iter_assembled")),
        "enumeration.assemblies": assemblies,
        "enumeration.classes": assemblies - duplicates,
        "enumeration.duplicates": duplicates,
        "enumeration.duplicate_ratio": _ratio(duplicates, assemblies),
        "enumeration.cache_hits": c["enumeration.cache_hits"],
        "enumeration.cache_misses": c["enumeration.cache_misses"],
        "sorou.canonicalize_calls": calls["sorou.canonicalize"],
        "sorou.canonicalize_s": self_s["sorou.canonicalize"],
        "sorou.to_subsidiary_s": self_s["sorou.to_subsidiary"],
        "minimality.calls": calls["minimality.is_minimal_vanishing"],
        "minimality.criterion_self_s": self_s["minimality.is_minimal_vanishing"],
        "minimality.minimal": c["minimality.minimal"],
        "minimality.rejected": c["minimality.rejected"],
        "minimality.minimal_ratio": _ratio(c["minimality.minimal"], calls["minimality.is_minimal_vanishing"]),
        "minimality.stat_calls": c["minimality.stat_calls"],
        "minimality.stat_minimal": c["minimality.stat_minimal"],
        "cyclotomic.residue_calls": calls["cyclotomic.residue"],
        "cyclotomic.residue_s": self_s["cyclotomic.residue"],
        "cyclotomic.poly_builds": c["cyclotomic.poly_builds"],
        "cyclotomic.poly_build_s": incl["cyclotomic.cyclotomic_poly"] + incl["cyclotomic._monomial_rows"],
        "cyclotomic.max_order": c["cyclotomic.max_order"],
        "types.infer_calls": calls["types.infer_type"],
        "types.infer_s": incl["types.infer_type"],
        "types.representative_s": incl["types.representative_sorou"],
        "store.load_s": incl["store.load_db"] + incl["store.load_cache"],
        "store.save_s": incl["store.save_db"] + incl["store.save_cache"],
        "store.db_bytes": untraced["info"].get("db_bytes", 0),
        "store.cache_bytes": untraced["info"].get("cache_bytes", 0),
    }
    weights = untraced["info"].get("weight_s", {})
    for w in range(13, CLASSIFY_TO + 1):
        m[f"cli.weight_s.{w}"] = weights.get(w, 0.0)
    strata = untraced["info"].get("strata", {})
    for kind in ("minimal", "nonminimal", "nonvanishing"):
        for band in ("small", "large"):
            key = f"verify.{kind}.{band}_s"
            m[key] = strata.get(key, 0.0)
    m["trace.spans"] = trace["spans"]
    m["trace.wall_s"] = traced["seconds"]
    m["trace.overhead_ratio"] = _ratio(traced["seconds"], untraced["seconds"])
    return m


def reconcile(m: dict, counts: dict) -> list[str]:
    """Counter identities that must hold; each failure is returned as text."""
    checks = [
        ("enumeration.assemblies = classes + duplicates",
         m["enumeration.assemblies"] == m["enumeration.classes"] + m["enumeration.duplicates"]
         and counts["trace.mismatches"] == 0),
        ("typegen.candidates = fast-path certifications + fallbacks",
         m["typegen.candidates"] == m["typegen.fast_path"] + m["typegen.fallbacks"]),
        ("minimality.calls = minimal + rejected",
         m["minimality.calls"] == m["minimality.minimal"] + m["minimality.rejected"]),
    ]
    return [name for name, ok in checks if not ok]


def per_layer(run: Run, workload: str) -> tuple[dict, dict]:
    untraced = WORKLOADS[workload](run, 0, False)
    traced = WORKLOADS[workload](run, 1, True)
    trace = spans.merge([spans.summarize(p) for p in traced["spans"] if os.path.exists(p)])
    values = layer_metrics(trace, untraced, traced)
    for identity in reconcile(values, trace["counts"]):
        run.op(False, f"counters do not reconcile: {identity}")
    samples = {name: 1 for name in values}
    return values, samples


# -- entry point -----------------------------------------------------------------


def _checkout_problem() -> str | None:
    for path in (ROOT / "src" / "minvan" / "cli.py", ROOT / "BENCHMARK.json", REFERENCE,
                 BENCH / "fixtures" / "w19.db"):
        if not path.is_file():
            return f"missing {path.relative_to(ROOT)}: run from the root of a minvan checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with this pid
    work.mkdir(parents=True)
    run = Run(args.seed, work)
    try:
        if args.trace:
            values, samples = per_layer(run, args.workload)
        else:
            values, samples = end_to_end(run, args.workload, args.seconds)
    except RunAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()
    metrics = {}
    for metric in declared:
        name = metric["name"]
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        bound = f"bound {metric['bound']}" if "bound" in metric else "no bound"
        print(f"{name:32} {values[name]:>16.6g} {metric['unit']:6} "
              f"{metric['better']:6} {bound:10} n={samples[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
