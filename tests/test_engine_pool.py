"""Tests for the persistent worker pool and the worker-side memos."""

import os
import subprocess
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.arch import ProcessorConfig
from repro.arch.memory import FlatMemory
from repro.errors import EngineError
from repro.eval.comparison import PROPOSED
from repro.eval.engine import (
    EngineCounters,
    ExperimentEngine,
    SimJob,
    _chunk_tasks,
    configure,
    execute_job,
    operand_identity,
    set_engine,
)
from repro.eval.memo import LRUMemo, clear_worker_memos, worker_memo
from repro.eval.runner import CSR_KERNEL, run_spmm
from repro.kernels.compiler import Schedule
from repro.kernels.layout import stage_csr
from repro.nn.workload import TINY, make_workload
from repro.sparse.blocksparse import NMSparseMatrix
from repro.sparse.csr import CSRMatrix

CFG = ProcessorConfig.scaled_default()


def tiny_job(seed=0, cores=1):
    return SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=seed,
                            config=CFG, schedule=Schedule(cores=cores))


def runs_equal(a, b) -> bool:
    sa, sb = asdict(a.stats), asdict(b.stats)
    sa["extra"] = {k: v for k, v in sa["extra"].items()
                   if k != "wall_seconds"}
    sb["extra"] = {k: v for k, v in sb["extra"].items()
                   if k != "wall_seconds"}
    return (a.kernel == b.kernel and a.verified == b.verified
            and sa == sb)


@pytest.fixture
def pool_engine():
    """A 2-worker cache-less engine, shut down after the test."""
    engine = ExperimentEngine(jobs=2, cache=False)
    yield engine
    engine.shutdown(wait=False)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_throughput_guards_zero_seconds():
    assert EngineCounters().throughput == 0.0  # cold counters
    allhits = EngineCounters(disk_hits=5, memo_hits=3,
                             sim_instructions=100, sim_seconds=0.0)
    assert allhits.throughput == 0.0  # all-hits run: no backend time
    assert EngineCounters(sim_instructions=100,
                          sim_seconds=2.0).throughput == 50.0


def test_counters_track_pool_fields_in_snapshot_since():
    c = EngineCounters(pool_spawns=2, pool_respawns=1, pool_batches=7)
    snap = c.snapshot()
    c.pool_batches += 3
    c.pool_spawns += 1
    delta = c.since(snap)
    assert (delta.pool_spawns, delta.pool_respawns,
            delta.pool_batches) == (1, 0, 3)
    # every field takes part, so a counter added later cannot drop out
    # of the tuner's phase split
    ticks = {f.name: ({"compile": float(i), "store": i / 4}
                      if f.name == "stage_seconds" else i)
             for i, f in enumerate(fields(EngineCounters), start=1)}
    counters = EngineCounters()
    start = counters.snapshot()
    for name, value in ticks.items():
        if isinstance(value, dict):
            getattr(counters, name).update(value)  # in place
        else:
            setattr(counters, name, value)
    assert start == EngineCounters()  # the snapshot is a copy
    assert counters.since(start) == EngineCounters(**ticks)
    assert counters.since(counters.snapshot()) == EngineCounters(
        stage_seconds={"compile": 0.0, "store": 0.0})


# ----------------------------------------------------------------------
# Chunking (the shard-parallelism fix)
# ----------------------------------------------------------------------
def test_chunk_tasks_never_groups_shards_of_one_job():
    """The old ``chunksize = len // (workers * 4)`` could serialise all
    N shards of one multicore job through one worker; the round-robin
    deal must keep them in distinct chunks whenever chunks >= cores."""
    jobs = [tiny_job(seed=0, cores=8)]
    tasks = [(0, shard) for shard in range(8)]
    for n_chunks in (8, 12, 16):
        payloads = _chunk_tasks(jobs, tasks, n_chunks)
        for _, chunk_tasks, _ in payloads:
            assert len(chunk_tasks) <= 1


def test_chunk_tasks_dedups_jobs_and_reassembles():
    jobs = [tiny_job(seed=s, cores=4) for s in range(3)]
    tasks = [(i, shard) for i in range(3) for shard in range(4)]
    payloads = _chunk_tasks(jobs, tasks, 4)
    # every original task appears exactly once across the chunks
    covered = [task for _, _, originals in payloads for task in originals]
    assert sorted(covered) == sorted(tasks)
    for chunk_jobs, chunk_tasks, originals in payloads:
        # the job table has no duplicates however many shards ride along
        assert len(set(map(id, chunk_jobs))) == len(chunk_jobs)
        # local indices resolve back to the original jobs
        for (local, shard), (job_index, orig_shard) in zip(chunk_tasks,
                                                           originals):
            assert chunk_jobs[local] is jobs[job_index]
            assert shard == orig_shard


def test_chunk_tasks_handles_more_chunks_than_tasks():
    jobs = [tiny_job()]
    payloads = _chunk_tasks(jobs, [(0, None)], 16)
    assert len(payloads) == 1
    assert payloads[0][1] == ((0, None),)


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
def test_pool_reused_across_batches(pool_engine):
    """One pool spawn across >= 5 run() calls (the tuner workload)."""
    for batch in range(5):
        seeds = (2 * batch, 2 * batch + 1)
        pool_engine.run([tiny_job(seed=s) for s in seeds])
    c = pool_engine.counters
    assert c.simulated == 10
    assert c.pool_spawns == 1
    assert c.pool_respawns == 0
    assert c.pool_batches == 5


def test_pool_respawns_after_broken_pool(pool_engine):
    pool_engine.run([tiny_job(seed=0), tiny_job(seed=1)])
    assert pool_engine.counters.pool_spawns == 1
    # kill a worker out from under the executor -> BrokenProcessPool
    pool = pool_engine._pool
    assert pool is not None
    with pytest.raises(Exception):
        pool.submit(os._exit, 1).result()
    # fresh jobs (not in the result LRU) force a pool dispatch
    rerun = pool_engine.run([tiny_job(seed=2), tiny_job(seed=3)])
    c = pool_engine.counters
    assert c.pool_respawns == 1
    assert c.pool_spawns == 2
    serial = ExperimentEngine(jobs=1, cache=False).run(
        [tiny_job(seed=2), tiny_job(seed=3)])
    for a, b in zip(rerun, serial):
        assert runs_equal(a, b)


def test_idle_pool_is_reaped_and_respawned():
    engine = ExperimentEngine(jobs=2, cache=False, pool_idle=0.2)
    try:
        engine.run([tiny_job(seed=0), tiny_job(seed=1)])
        assert engine._pool is not None
        deadline = time.monotonic() + 5.0
        while engine._pool is not None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert engine._pool is None  # idle timeout fired
        engine.run([tiny_job(seed=2), tiny_job(seed=3)])
        assert engine.counters.pool_spawns == 2
        assert engine.counters.pool_respawns == 0
    finally:
        engine.shutdown(wait=False)


def test_set_engine_shuts_down_previous_pool():
    engine = ExperimentEngine(jobs=2, cache=False)
    engine.run([tiny_job(seed=0), tiny_job(seed=1)])
    assert engine._pool is not None
    set_engine(engine)
    set_engine(None)  # reconfigure must not leak worker processes
    assert engine._pool is None


def test_configure_replaces_engine_and_pool(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_JOBS", "2")
    first = configure()
    first.run([tiny_job(seed=0), tiny_job(seed=1)])
    assert first._pool is not None
    second = configure()
    assert first._pool is None  # old pool shut down
    assert second is not first
    second.shutdown(wait=False)
    set_engine(None)


def test_shutdown_is_idempotent_and_allows_respawn(pool_engine):
    pool_engine.run([tiny_job(seed=0), tiny_job(seed=1)])
    pool_engine.shutdown()
    pool_engine.shutdown()
    assert pool_engine._pool is None
    pool_engine.run([tiny_job(seed=2), tiny_job(seed=3)])
    assert pool_engine.counters.pool_spawns == 2


def test_pool_idle_env_validation(monkeypatch):
    monkeypatch.setenv("REPRO_POOL_IDLE", "soon")
    with pytest.raises(EngineError):
        ExperimentEngine(jobs=2, cache=False)
    monkeypatch.setenv("REPRO_POOL_IDLE", "120")
    engine = ExperimentEngine(jobs=2, cache=False)
    assert engine.pool_idle == 120.0
    engine.shutdown(wait=False)


def test_shards_of_one_job_land_on_distinct_workers():
    """Acceptance: a multicore job's shard tasks run on distinct
    worker processes instead of being serialised through one."""
    engine = ExperimentEngine(jobs=2, cache=False)
    try:
        pids = set()
        for attempt in range(6):
            if len(set(engine.warm_pool(linger=0.1))) < 2:
                continue  # workers not fanned out yet; try again
            engine.run([tiny_job(seed=100 + attempt, cores=2)])
            pids = {pid for (_, shard, pid) in engine.last_dispatch
                    if shard is not None}
            if len(pids) == 2:
                break
        assert len(pids) == 2
    finally:
        engine.shutdown(wait=False)


# ----------------------------------------------------------------------
# Worker-side memos
# ----------------------------------------------------------------------
def test_lru_memo_bounds_and_counts():
    memo = LRUMemo(2)
    assert memo.get("a", lambda: 1) == 1
    assert memo.get("a", lambda: 2) == 1  # hit: build not re-run
    memo.get("b", lambda: 2)
    memo.get("c", lambda: 3)  # evicts "a" (LRU)
    assert memo.get("a", lambda: 9) == 9
    assert (memo.hits, memo.misses) == (1, 4)
    assert len(memo) == 2
    disabled = LRUMemo(0)
    disabled.get("x", lambda: 1)
    assert len(disabled) == 0


def test_lru_memo_peek_refreshes_recency_and_put_evicts():
    memo = LRUMemo(2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.peek("a") == 1  # "a" is now the most recently used
    memo.put("c", 3)  # evicts "b"
    assert memo.peek("b") is None
    assert memo.peek("b", "absent") == "absent"
    assert (memo.peek("a"), memo.peek("c")) == (1, 3)
    assert len(memo) == 2
    disabled = LRUMemo(0)
    disabled.put("x", 1)
    assert len(disabled) == 0 and disabled.peek("x") is None


def test_identities_narrower_than_job_hash():
    base = tiny_job(seed=0)
    sweep = SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=0,
                             config=CFG, schedule=Schedule(unroll=2))
    machine = replace(base, config=ProcessorConfig.scaled_default(64),
                      backend="batch-replay")
    # a schedule sweep point or another machine shares operands ...
    assert operand_identity(base) == operand_identity(sweep)
    assert operand_identity(base) == operand_identity(machine)
    assert len({base.key, sweep.key, machine.key}) == 3
    # ... but not with a different workload
    assert operand_identity(base) != operand_identity(tiny_job(seed=1))


def test_memo_hits_are_bit_exact():
    clear_worker_memos()
    job = tiny_job(seed=7)
    cold = execute_job(job)
    traces = worker_memo("traces")
    operands = worker_memo("operands")
    warm = execute_job(job)  # operand + trace memos hit
    assert traces.hits > 0 and operands.hits > 0
    # another seed of one N:M shape stages the same layout: its
    # operands are new, its trace is a memo hit
    hits, misses = traces.hits, operands.misses
    other = tiny_job(seed=8)
    shared = execute_job(other)
    assert operands.misses == misses + 1
    assert traces.hits == hits + 1 and len(traces) == 1
    clear_worker_memos()
    fresh = execute_job(job)  # rebuilt from scratch
    clear_worker_memos()
    other_fresh = execute_job(other)
    assert runs_equal(cold, warm)
    assert runs_equal(cold, fresh)
    assert runs_equal(shared, other_fresh)
    assert shared.verified and other_fresh.verified


def _drop_one_value(a: NMSparseMatrix, row: int) -> NMSparseMatrix:
    """``a`` with its first stored value in ``row`` set to zero, so its
    CSR form holds one non-zero fewer in that row."""
    values = a.values.copy()
    values[row, 0] = 0.0
    return NMSparseMatrix(a.n, a.m, a.shape, values, a.col_idx)


def test_csr_traces_are_keyed_by_row_structure():
    """Two CSR operands of one shape and non-zero count, whose rows hold
    different counts, stage layouts that differ only in ``indptr``:
    each compiles its own trace, and both verify."""
    clear_worker_memos()
    a, b = make_workload(8, 32, 16, 1, 4, np.random.default_rng(3))
    first, second = _drop_one_value(a, 0), _drop_one_value(a, 1)
    staged = [stage_csr(FlatMemory(CFG.memory_bytes),
                        CSRMatrix.from_dense(matrix.to_dense()), b)
              for matrix in (first, second)]
    assert staged[0] != staged[1]
    assert replace(staged[0], indptr=staged[1].indptr) == staged[1]
    runs = [run_spmm(matrix, b, CSR_KERNEL) for matrix in (first, second)]
    traces = worker_memo("traces")
    assert (traces.hits, len(traces)) == (0, 2)
    assert all(run.verified for run in runs)


def test_memo_identities_stable_across_processes():
    """Memo keys derived in the parent and in pool workers must agree
    whatever the child's hash randomisation."""
    code = (
        "from repro.arch import ProcessorConfig\n"
        "from repro.eval.engine import SimJob, operand_identity\n"
        "from repro.nn import TINY\n"
        "job = SimJob.for_shape(8, 32, 16, (1, 4), 'indexmac-spmm',\n"
        "                       seed=0,\n"
        "                       config=ProcessorConfig.scaled_default())\n"
        "layer = SimJob.for_layer('resnet50', 'conv1', (1, 4), TINY,\n"
        "                         'indexmac-spmm')\n"
        "print(operand_identity(job))\n"
        "print(operand_identity(layer))\n")
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}
    outputs = set()
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(out.stdout)
    job = SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=0, config=CFG)
    layer = SimJob.for_layer("resnet50", "conv1", (1, 4), TINY, PROPOSED)
    expected = f"{operand_identity(job)}\n{operand_identity(layer)}\n"
    assert outputs == {expected}
