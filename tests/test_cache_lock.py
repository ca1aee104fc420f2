"""Offline-maintenance guard: vacuum vs live cache users.

Multi-process sharing of one cache directory is supported (server +
CLI engines storing concurrently), but ``repro cache --vacuum``
rewrites pack segments and the manifest, so it must be strictly
offline.  The cache root carries an advisory ``flock`` lockfile:
online users (an :class:`ExperimentService` for its lifetime) hold it
shared, vacuum takes it exclusive and non-blocking — failing with a
clean :class:`EngineError` while any live holder exists.
"""

import asyncio

import pytest

from repro.errors import EngineError, ReproError
from repro.eval.engine import (
    CACHE_LOCK_NAME,
    ExperimentEngine,
    ResultCache,
    SimJob,
    acquire_cache_lock,
    job_hash,
    release_cache_lock,
)

fcntl = pytest.importorskip("fcntl")


def _populated_cache(tmp_path):
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    jobs = [SimJob.for_shape(16, 48, 16, (2, 4), "indexmac-spmm",
                             backend="analytic-sampled", seed=seed)
            for seed in range(3)]
    engine.run(jobs)
    engine.shutdown(wait=False)
    return ResultCache(tmp_path), jobs


def test_vacuum_works_unlocked(tmp_path):
    cache, jobs = _populated_cache(tmp_path)
    cache.vacuum()   # must not raise, and entries must survive
    assert len(cache.load_many([job_hash(j) for j in jobs])) == len(jobs)


def test_vacuum_refused_while_shared_lock_held(tmp_path):
    cache, _ = _populated_cache(tmp_path)
    holder = acquire_cache_lock(tmp_path)
    assert holder is not None
    try:
        with pytest.raises(EngineError, match="in use"):
            cache.vacuum()
        # the guard must fail as a clean ReproError (CLI-reportable),
        # naming the lockfile
        with pytest.raises(ReproError, match=CACHE_LOCK_NAME.replace(
                ".", r"\.")):
            cache.vacuum()
    finally:
        release_cache_lock(holder)
    cache.vacuum()   # released: offline maintenance is allowed again


def test_exclusive_lock_released_on_vacuum_return(tmp_path):
    cache, _ = _populated_cache(tmp_path)
    cache.vacuum()
    # a second exclusive acquire must succeed immediately
    handle = acquire_cache_lock(tmp_path, exclusive=True)
    assert handle is not None
    release_cache_lock(handle)


def test_service_holds_shared_lock_for_lifetime(tmp_path):
    from repro.serve.service import ExperimentService, ServeConfig

    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    service = ExperimentService(engine, ServeConfig())

    async def scenario():
        await service.start()
        try:
            with pytest.raises(EngineError, match="in use"):
                ResultCache(tmp_path).vacuum()
        finally:
            await service.close()

    asyncio.run(scenario())
    # close() released the shared lock: vacuum is allowed again
    ResultCache(tmp_path).vacuum()


def test_concurrent_shared_holders_allowed(tmp_path):
    # the sharing model: many online users may hold the lock at once
    first = acquire_cache_lock(tmp_path)
    second = acquire_cache_lock(tmp_path)
    assert first is not None and second is not None
    release_cache_lock(first)
    release_cache_lock(second)


def test_store_and_load_ignore_the_lockfile(tmp_path):
    # the lockfile lives in the cache root and must never be mistaken
    # for an entry or break usage accounting
    cache, jobs = _populated_cache(tmp_path)
    holder = acquire_cache_lock(tmp_path)
    try:
        assert (tmp_path / CACHE_LOCK_NAME).exists()
        hits = cache.load_many([job_hash(j) for j in jobs])
        assert len(hits) == len(jobs)
        entries, _ = cache.usage()
        assert entries == len(jobs)  # the lockfile is not an entry
    finally:
        release_cache_lock(holder)
    assert hits[job_hash(jobs[0])].stats.cycles >= 0
