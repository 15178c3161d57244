"""Micro-benchmarks of the hot kernels on fixed weight-16 inputs.

Run with pytest-benchmark (skipped when it is absent); a few rounds each, so
the suite's time barely moves.  `pytest tests/test_benchmarks.py
--benchmark-only` shows the table; `--benchmark-autosave` keeps a run.
"""

import pytest

from minvan.cyclotomic import residue
from minvan.enumeration import sorou_of_minvan_type
from minvan.minimality import is_minimal_vanishing
from minvan.sorou import canonicalize, root_inv, rotate

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


def run(benchmark, fn, inputs):
    return benchmark.pedantic(lambda: [fn(s) for s in inputs], rounds=ROUNDS, iterations=1)


def test_bench_residue(benchmark, weight16_classes):
    assert all(r.is_zero() for r in run(benchmark, residue, weight16_classes))


def test_bench_canonicalize(benchmark, weight16_classes):
    rotated = [rotate(s, root_inv(s[-1])) for s in weight16_classes]
    assert run(benchmark, canonicalize, rotated) == weight16_classes


def test_bench_is_minimal_vanishing(benchmark, weight16_classes):
    verdicts = run(benchmark, is_minimal_vanishing, weight16_classes)
    assert all(v.minimal for v in verdicts)
