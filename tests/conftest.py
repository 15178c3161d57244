import time

import pytest

from minvan.enumeration import SorouCache, type_statistics
from minvan.store import TypeDatabase
from minvan.typegen import GenerationConfig, generate_next_weight


def build_database(max_weight: int, cache: SorouCache, **cfg_kwargs) -> TypeDatabase:
    start = time.monotonic()
    db = TypeDatabase(collapse=cfg_kwargs.get("enable_conjugate_collapse", True))
    for w in range(2, max_weight + 1):
        cfg = GenerationConfig(target_weight=w, **cfg_kwargs)
        new_types = generate_next_weight(db, cfg, cache)
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
