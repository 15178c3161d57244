"""Micro-benchmarks of the hot kernels on fixed weight-16 inputs, of the
statistics of the weight-16 types, of the exact vanishing test on
order-4620 sums, of the least-rotation routine on its common case (the
weight-17 assemblies at order 210) and on its worst cases at order 34650,
of merging the weight <= 16 class lists into a cache file that already
holds them, of one in-process `minvan verify` call, and of one cold
verify-mix pass.  The benchmarks of
`verify` and of the criterion clear its memos before each round, so that
they time the work and not memo hits.

Run with pytest-benchmark (skipped when it is absent); a few rounds each, so
the suite's time barely moves.  `pytest tests/test_benchmarks.py
--benchmark-only` shows the table; `--benchmark-autosave` keeps a run.
"""

import math

import pytest

from minvan.cli import main
from minvan.cyclotomic import is_vanishing
from minvan.enumeration import sorou_of_minvan_type, type_statistics
from minvan.minimality import is_minimal_vanishing
from minvan.sorou import (
    _rank_table,
    canonicalize,
    least_rotation,
    make_root,
    order,
    parse_sorou,
    render_sorou,
    root_inv,
    rotate,
    sorou,
)
from minvan.store import save_cache
from minvan.types import render_type

from helpers import clear_verify_memos, verify_mix_texts

pytest.importorskip("pytest_benchmark")

ROUNDS = 3


@pytest.fixture(scope="module")
def weight16_classes(db16, shared_cache):
    """Every tenth rotation class of the weight-16 types (287 of 2,862), in
    database order."""
    return [
        s
        for record in db16.records
        if record.weight == 16
        for s in sorou_of_minvan_type(record.type.components[0], shared_cache)
    ][::10]


@pytest.fixture(scope="module")
def weight16_records(db16):
    """The 23 weight-16 records, statistics included."""
    return [record for record in db16.records if record.weight == 16]


@pytest.fixture(scope="module")
def quarter_turn_sums():
    """(R_5:R_3) rotated by nu_4620^a plus R_7 rotated a quarter turn
    further, for the first 20 units a: vanishing sums of order 4620."""
    n = 4620
    r5r3, r7 = parse_sorou("5:1+5:2+5:3+5:4+6:1+6:5"), parse_sorou("1:0+7:1+7:2+7:3+7:4+7:5+7:6")
    units = [a for a in range(1, n) if math.gcd(a, n) == 1][:20]
    sums = [
        tuple(sorted(rotate(r5r3, make_root(n, a)) + rotate(r7, make_root(n, a + n // 4))))
        for a in units
    ]
    assert all(order(s) == n for s in sums)
    return sums


@pytest.fixture(scope="module")
def order_34650_exponents():
    """Exponents mod 34650 of the weight-18 sum nu R_7 + nu^2 R_11 of
    tests/test_cyclotomic.py (18 tied anchors; the walk reaches nu_7 at rank
    10 and keeps 7) and of 2 R_11 rotated (11 tied anchors; nu_11 has rank
    26, past the walk's cap of 22 ranks, so all 11 are kept)."""
    n = 34650
    s = sorou([(n, 1 + k * n // 7) for k in range(7)] + [(n, 2 + k * n // 11) for k in range(11)])
    assert order(s) == n
    _rank_table(n)  # built once, outside the timed rounds
    return n, [[p * (n // o) for o, p in s], [(2 + k * n // 11) % n for k in range(11)] * 2]


@pytest.fixture(scope="module")
def weight17_exponents(rotation_calls_17):
    """The exponent lists, with their masks, that the assembler ranks for
    the weight-17 types at n = 210: the common case, distinct terms."""
    calls = [(es, mask) for es, n, mask in rotation_calls_17 if n == 210 and len(es) == 17]
    assert len(calls) == 9100 and all(len(set(es)) == 17 for es, _ in calls)
    return calls


@pytest.fixture(scope="module")
def weight16_cache(db16, shared_cache, tmp_path_factory):
    """(class lists of the 76 types of weight <= 16, a path to write them
    to, a path they are already written to)."""
    data = {
        render_type(r.type): sorou_of_minvan_type(r.type.components[0], shared_cache)
        for r in db16.records
    }
    directory = tmp_path_factory.mktemp("cache")
    saved = str(directory / "saved.cache")
    save_cache(data, saved)
    return data, str(directory / "scratch.cache"), saved


@pytest.fixture(scope="module")
def verify_mix_pass():
    """The query texts of verify-mix pass 0 at seed 1 (568 queries)."""
    return verify_mix_texts(1, [0])


def run(benchmark, fn, inputs, setup=None):
    return benchmark.pedantic(
        lambda: [fn(s) for s in inputs], setup=setup, rounds=ROUNDS, iterations=1
    )


def test_bench_canonicalize(benchmark, weight16_classes):
    rotated = [rotate(s, root_inv(s[-1])) for s in weight16_classes]
    assert run(benchmark, canonicalize, rotated) == weight16_classes


def test_bench_least_rotation_order_34650(benchmark, order_34650_exponents):
    n, inputs = order_34650_exponents
    best = run(benchmark, lambda es: least_rotation(es, n), inputs)
    rank, _ = _rank_table(n)
    assert best == [min(sorted(rank[(e - a) % n] for e in es) for a in set(es)) for es in inputs]


def test_bench_least_rotation_weight17_order_210(benchmark, weight17_exponents):
    inputs = [(es, 210, mask) for es, mask in weight17_exponents]
    best = run(benchmark, lambda call: least_rotation(*call), inputs)
    rank, _ = _rank_table(210)
    assert best == [min(sorted(rank[e - a] for e in es) for a in es) for es, _ in weight17_exponents]


def test_bench_is_minimal_vanishing(benchmark, weight16_classes):
    verdicts = run(benchmark, is_minimal_vanishing, weight16_classes, setup=clear_verify_memos)
    assert all(v.minimal for v in verdicts)


def test_bench_cli_verify(benchmark, weight16_classes, capsys):
    """One call, parsing included, so the table shows the per-call cost."""
    argv = ["verify", render_sorou(weight16_classes[0])]

    def setup():
        clear_verify_memos()
        return (argv,), {}

    assert benchmark.pedantic(main, setup=setup, rounds=50, iterations=1) == 0
    assert "minimal: True" in capsys.readouterr().out


def test_bench_verify_mix_pass(benchmark, verify_mix_pass, capsys):
    """One pass of the benchmark's verify stream, memos cleared first."""
    codes = run(benchmark, lambda text: main(["verify", text]), verify_mix_pass, clear_verify_memos)
    capsys.readouterr()
    assert codes.count(0) == 284 and set(codes) == {0, 1}


def test_bench_is_vanishing(benchmark, weight16_classes):
    assert all(run(benchmark, is_vanishing, weight16_classes))


def test_bench_is_vanishing_order_4620(benchmark, quarter_turn_sums):
    assert all(run(benchmark, is_vanishing, quarter_turn_sums))


def test_bench_type_statistics(benchmark, weight16_records, shared_cache):
    types = [record.type.components[0] for record in weight16_records]
    assert run(benchmark, lambda m: type_statistics(m, shared_cache), types) == weight16_records


def test_bench_save_cache(benchmark, weight16_cache):
    """A merge into a file that already holds every key: each line is
    checked and dropped, and rendered again from the classes."""
    data, path, saved = weight16_cache
    save_cache(data, path)
    run(benchmark, lambda d: save_cache(d, path), [data])
    with open(path) as fh, open(saved) as ref:
        assert fh.read() == ref.read()
