"""Cross-process cache sharing and offline compaction (vacuum).

The serve layer's whole premise is one on-disk cache shared by many
engines — this file pins down (a) that two engines in *separate
processes* storing into one ``$REPRO_CACHE_DIR`` interleave safely in
the append-only pack manifest and observe each other's results, and
(b) that ``ResultCache.vacuum()`` compacts the pack layout without
losing a single result.
"""

import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import repro
from repro.eval.comparison import BASELINE, PROPOSED
from repro.eval.engine import (
    STORE_CHUNK,
    ExperimentEngine,
    ResultCache,
    SimJob,
    job_hash,
)


def tiny_job(kernel=PROPOSED, nm=(1, 4), seed=0):
    return SimJob.for_shape(8, 32, 16, nm, kernel, seed=seed)


def runs_equal(a, b) -> bool:
    sa, sb = asdict(a.stats), asdict(b.stats)
    sa["extra"] = {k: v for k, v in sa["extra"].items()
                   if k != "wall_seconds"}
    sb["extra"] = {k: v for k, v in sb["extra"].items()
                   if k != "wall_seconds"}
    return (a.kernel == b.kernel and a.verified == b.verified
            and sa == sb)


# ----------------------------------------------------------------------
# Two engines, two processes, one cache directory
# ----------------------------------------------------------------------
_WORKER = """
import sys
from repro.eval.engine import ExperimentEngine, SimJob, job_hash

seeds = [int(s) for s in sys.argv[1].split(",")]
engine = ExperimentEngine(jobs=1)
jobs = [SimJob.for_shape(8, 32, 16, (1, 4), "indexmac-spmm", seed=s)
        for s in seeds]
runs = engine.run(jobs)
engine.shutdown()
for job, run in zip(jobs, runs):
    print(job_hash(job), run.stats.cycles)
"""


def _spawn(cache_dir: Path, seeds) -> subprocess.Popen:
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir,
           "REPRO_CACHE_DIR": str(cache_dir)}
    return subprocess.Popen(
        [sys.executable, "-c", _WORKER,
         ",".join(str(s) for s in seeds)],
        env=env, stdout=subprocess.PIPE, text=True)


def test_two_processes_store_concurrently_into_one_cache(tmp_path):
    """Concurrent ``store()`` streams from two engine processes must
    interleave safely in the append-only manifest: no line torn, no
    entry lost, and afterwards *both* workloads are loadable by a
    third engine through the batched index path."""
    cache_dir = tmp_path / "shared"
    seeds_a, seeds_b = list(range(0, 12)), list(range(12, 24))
    procs = [_spawn(cache_dir, seeds_a), _spawn(cache_dir, seeds_b)]
    reported: dict[str, int] = {}
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        for line in out.splitlines():
            key, cycles = line.split()
            reported[key] = float(cycles)
    assert len(reported) == 24

    # every manifest line is intact JSON (no torn interleaved appends)
    cache = ResultCache(cache_dir)
    manifest = cache.manifest_path.read_text().splitlines()
    assert len(manifest) == 24
    assert cache.indexed_count() == 24

    # a fresh engine observes all 24 without a single simulation
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    jobs = [tiny_job(seed=s) for s in seeds_a + seeds_b]
    runs = engine.run(jobs)
    engine.shutdown()
    assert engine.counters.simulated == 0
    assert engine.counters.disk_hits == 24
    for job, run in zip(jobs, runs):
        assert run.stats.cycles == reported[job_hash(job)]


_STORER = """
import sys
from repro.arch.stats import ExecutionStats
from repro.eval.engine import ResultCache, SimJob
from repro.eval.runner import KernelRun

first, count, rounds = (int(v) for v in sys.argv[1:4])
cache = ResultCache()
jobs = [SimJob.for_shape(8, 32, 16, (1, 4), "indexmac-spmm", seed=s)
        for s in range(first, first + count)]
for round_ in range(rounds):  # later rounds append newer copies
    cache.store_many([
        (job.key, job, KernelRun(
            kernel=job.kernel, verified=True, backend=job.backend,
            stats=ExecutionStats(cycles=float(job.seed * 10 + round_))))
        for job in jobs])
"""


def test_two_processes_store_many_into_one_cache(tmp_path):
    """Two processes append multi-chunk batches to one cache at the
    same time; a third process (this one) reads every entry back, each
    at its newest copy."""
    cache_dir = tmp_path / "shared"
    count, rounds = STORE_CHUNK + 44, 3
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir,
           "REPRO_CACHE_DIR": str(cache_dir)}
    procs = [subprocess.Popen(
        [sys.executable, "-c", _STORER, str(first), str(count),
         str(rounds)], env=env)
        for first in (0, count)]
    for proc in procs:
        assert proc.wait(timeout=300) == 0

    cache = ResultCache(cache_dir)
    lines = [line for line in cache.manifest_path.read_text().splitlines()
             if line]
    assert len(lines) == 2 * count * rounds
    assert all(json.loads(line)["k"] for line in lines)  # none torn
    jobs = [tiny_job(seed=s) for s in range(2 * count)]
    found = cache.load_many([job.key for job in jobs])
    assert len(found) == 2 * count
    for job in jobs:
        assert found[job.key].stats.cycles == job.seed * 10 + rounds - 1


def test_engine_sees_other_processes_appends_via_load_many(tmp_path):
    """A long-lived engine that already read the manifest still picks
    up entries a *different process* appended afterwards (an index miss
    re-reads the manifest tail, keeping shared caches coherent)."""
    cache_dir = tmp_path / "shared"
    watcher = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    warm = tiny_job(seed=100)
    watcher.run([warm])  # forces the manifest read, stores one entry

    proc = _spawn(cache_dir, [101, 102])
    out, _ = proc.communicate(timeout=300)
    assert proc.returncode == 0

    runs = watcher.run([tiny_job(seed=101), tiny_job(seed=102)])
    watcher.shutdown()
    assert watcher.counters.simulated == 1  # only the warm-up job
    assert len(runs) == 2 and all(r.verified for r in runs)


# ----------------------------------------------------------------------
# vacuum
# ----------------------------------------------------------------------
def test_vacuum_compacts_without_losing_results(tmp_path):
    cache_dir = tmp_path / "cache"
    jobs = [tiny_job(seed=s) for s in range(6)] + \
           [tiny_job(kernel=BASELINE, nm=(2, 4), seed=s)
            for s in range(3)]
    originals = []
    for half in (jobs[:5], jobs[5:]):  # two engines, two segments
        engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
        originals += engine.run(half)
        engine.shutdown()
    # a superseded manifest line: the same result stored twice
    ResultCache(cache_dir).store(job_hash(jobs[0]), jobs[0], originals[0])

    cache = ResultCache(cache_dir)
    count_before, bytes_before = cache.usage()
    assert count_before == 9
    assert len(cache.manifest_path.read_text().splitlines()) == 10

    removed, reclaimed = cache.vacuum()
    assert removed == 3  # the three old segments
    assert reclaimed > 0
    count_after, bytes_after = cache.usage()
    assert count_after == 9  # no entry lost
    assert bytes_after == bytes_before - reclaimed
    assert len(cache.manifest_path.read_text().splitlines()) == 9
    segments = [p for p in cache.pack_dir.iterdir()
                if p.name != cache.manifest_path.name]
    assert len(segments) == 1  # one compacted segment

    # every result still loads bit-exact through a fresh cache
    fresh = ResultCache(cache_dir)
    for job, original in zip(jobs, originals):
        reloaded = fresh.load(job_hash(job))
        assert reloaded is not None
        assert runs_equal(reloaded, original)

    # backend accounting is read off the compacted manifest
    assert fresh.backend_counts() == {originals[0].backend: 9}


def test_vacuum_drops_unreadable_entries(tmp_path):
    cache_dir = tmp_path / "cache"
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    jobs = [tiny_job(seed=s) for s in range(3)]
    engine.run(jobs)
    engine.shutdown()

    cache = ResultCache(cache_dir)
    first = cache.manifest_path.read_text().splitlines()[0]
    record = json.loads(first)
    with open(cache.pack_dir / record["s"], "r+b") as handle:
        handle.seek(record["o"])
        handle.write(b"!" * record["n"])
    cache.vacuum()
    assert cache.usage()[0] == 2
    survivors = ResultCache(cache_dir).load_many(
        [job_hash(job) for job in jobs])
    assert set(survivors) == {job_hash(job) for job in jobs[1:]}


def test_vacuum_drops_entries_of_unknown_backends(tmp_path):
    # an entry of a backend no job can name (``compressed-replay`` was
    # folded into ``batch-replay``) is never looked up again
    cache_dir = tmp_path / "cache"
    job = SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=5,
                           backend="batch-replay")
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    run = engine.run([job])[0]
    engine.shutdown()
    ResultCache(cache_dir).store(
        "0" * 64, job, replace(run, backend="compressed-replay"))

    cache = ResultCache(cache_dir)
    assert cache.backend_counts() == {"batch-replay": 1,
                                      "compressed-replay": 1}
    _, reclaimed = cache.vacuum()
    assert cache.backend_counts() == {"batch-replay": 1}
    assert reclaimed > 0
    reloaded = ResultCache(cache_dir).load(job_hash(job))
    assert reloaded is not None and runs_equal(reloaded, run)


def test_vacuum_idempotent_and_store_after_vacuum(tmp_path):
    cache_dir = tmp_path / "cache"
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    engine.run([tiny_job(seed=s) for s in range(4)])
    engine.shutdown()

    cache = ResultCache(cache_dir)
    cache.vacuum()
    removed, reclaimed = cache.vacuum()  # second pass: nothing to do
    assert removed == 1  # only the previous compacted segment rewritten
    count, _ = cache.usage()
    assert count == 4

    # the same cache instance keeps serving stores and loads
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    runs = engine.run([tiny_job(seed=99)])
    assert runs[0].verified
    engine2 = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    engine2.run([tiny_job(seed=99)])
    assert engine2.counters.disk_hits == 1
    engine.shutdown()
    engine2.shutdown()


def test_cli_cache_vacuum(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    engine = ExperimentEngine(jobs=1)
    engine.run([tiny_job(seed=s) for s in range(3)])
    engine.shutdown()
    assert main(["cache", "--vacuum"]) == 0
    out = capsys.readouterr().out
    assert "vacuumed:" in out and "KiB reclaimed" in out
    assert main(["cache"]) == 0
    assert "entries:      3" in capsys.readouterr().out


# ----------------------------------------------------------------------
# warm-batch summary (no more "0k instr/s" on fully-warm runs)
# ----------------------------------------------------------------------
def test_summary_reports_hit_rate_on_fully_warm_batches(tmp_path):
    cache_dir = tmp_path / "cache"
    jobs = [tiny_job(seed=s) for s in range(4)]
    warmup = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    warmup.run(jobs)
    warmup.shutdown()

    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    engine.run(jobs)
    engine.shutdown()
    summary = engine.summary()
    assert summary.startswith("engine: 0 simulations")  # CI greps this
    assert "0k instr/s" not in summary
    assert "100% hit rate" in summary
    assert engine.counters.hit_rate == 1.0
    assert engine.counters.warm_rate > 0


def test_summary_keeps_throughput_on_simulating_batches():
    engine = ExperimentEngine(jobs=1, cache=False)
    engine.run([tiny_job(seed=1000)])
    engine.shutdown()
    assert "instr/s" in engine.summary()
    assert "hit rate" not in engine.summary()
