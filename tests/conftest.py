import os
import time

import pytest

import minvan.enumeration as enumeration
from minvan.enumeration import SorouCache, _iter_assembled, type_statistics
from minvan.store import TypeDatabase
from minvan.typegen import GenerationConfig, generate_next_weight


def build_database(max_weight: int, cache: SorouCache, collapse: bool = True) -> TypeDatabase:
    start = time.monotonic()
    db = TypeDatabase(collapse=collapse)
    for w in range(2, max_weight + 1):
        new_types = generate_next_weight(db, GenerationConfig(target_weight=w), cache)
        db.commit_weight(w, [type_statistics(m, cache) for m in new_types])
    db.build_seconds = time.monotonic() - start
    return db


@pytest.fixture(autouse=True)
def at_most_two_cores(monkeypatch):
    """`extend` forks a statistics worker per core it may use, less one; no
    test starts more than one, whatever the machine."""
    if hasattr(os, "sched_getaffinity"):  # elsewhere `extend` runs in-process
        cores = set(sorted(os.sched_getaffinity(0))[:2])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)


@pytest.fixture(scope="session")
def shared_cache() -> SorouCache:
    return SorouCache()


@pytest.fixture(scope="session")
def db16(shared_cache) -> TypeDatabase:
    """The full classification through weight 16, statistics included."""
    return build_database(16, shared_cache)


@pytest.fixture(scope="session")
def types_through_17(db16, shared_cache):
    """Every minimal type of weight <= 17: the 76 of db16 and the 37 of
    weight 17 generated from it."""
    w17 = generate_next_weight(db16, GenerationConfig(target_weight=17), shared_cache)
    assert len(w17) == 37
    return [record.type.components[0] for record in db16.records] + w17


@pytest.fixture(scope="session")
def rotation_calls_17(types_through_17, shared_cache):
    """(es, n, mask) for every call `_iter_assembled` makes to
    `least_rotation` while assembling the types of weight <= 17."""
    calls = []
    least_rotation = enumeration.least_rotation

    def recording(es, n, mask=0):
        calls.append((list(es), n, mask))
        return least_rotation(es, n, mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "least_rotation", recording)
        for m in types_through_17:
            for _ in _iter_assembled(m, shared_cache):
                pass
    return calls
