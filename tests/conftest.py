import time

import pytest

from minvan.enumeration import SorouCache, type_statistics
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


@pytest.fixture(scope="session")
def shared_cache() -> SorouCache:
    return SorouCache()


@pytest.fixture(scope="session")
def db16(shared_cache) -> TypeDatabase:
    """The full classification through weight 16, statistics included."""
    return build_database(16, shared_cache)
