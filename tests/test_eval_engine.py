"""Tests for the parallel, cached experiment engine."""

import json
import os
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import pytest

import repro
from repro.arch import ProcessorConfig
from repro.errors import EngineError
from repro.eval.comparison import BASELINE, PROPOSED
from repro.eval.engine import (
    STORE_CHUNK,
    ExperimentEngine,
    ResultCache,
    SimJob,
    execute_job,
    job_hash,
)
from repro.eval.runner import CSR_KERNEL
from repro.nn import TINY, ScalePolicy

CFG = ProcessorConfig.scaled_default()


def tiny_job(kernel=PROPOSED, nm=(1, 4), seed=0):
    return SimJob.for_shape(8, 32, 16, nm, kernel, seed=seed, config=CFG)


def runs_equal(a, b) -> bool:
    """Bit-exact equality of two KernelRun results.

    ``wall_seconds`` is measurement metadata (how long the backend took
    on this host), not a simulation result — it is the one stats field
    allowed to differ between bit-identical runs.
    """
    sa, sb = asdict(a.stats), asdict(b.stats)
    sa["extra"] = {k: v for k, v in sa["extra"].items()
                   if k != "wall_seconds"}
    sb["extra"] = {k: v for k, v in sb["extra"].items()
                   if k != "wall_seconds"}
    return (a.kernel == b.kernel and a.verified == b.verified
            and sa == sb)


# ----------------------------------------------------------------------
# SimJob construction + hashing
# ----------------------------------------------------------------------
def test_job_needs_exactly_one_workload_source():
    with pytest.raises(EngineError):
        SimJob(kernel=PROPOSED, nm=(1, 4))  # neither source
    with pytest.raises(EngineError):
        SimJob(kernel=PROPOSED, nm=(1, 4), model="resnet50",
               layer="conv1", policy=TINY, shape=(8, 32, 16), seed=0)


def test_job_rejects_kernels_without_a_job_workload():
    """Only kernels in the table that run N:M operands (directly or
    re-encoded as CSR) make jobs; the error names every one of them."""
    for kernel in ("no-such-kernel", "dense-rowwise"):
        with pytest.raises(EngineError) as err:
            tiny_job(kernel=kernel)
        for name in ("rowwise-spmm", "indexmac-spmm", "csr-spmm"):
            assert name in str(err.value)


def test_job_hash_deterministic_and_content_sensitive():
    assert job_hash(tiny_job()) == job_hash(tiny_job())
    assert job_hash(tiny_job()) != job_hash(tiny_job(seed=1))
    assert job_hash(tiny_job()) != job_hash(tiny_job(kernel=BASELINE))
    assert job_hash(tiny_job()) != job_hash(tiny_job(nm=(2, 4)))


def test_job_hash_stable_across_processes():
    """The disk cache is shared between runs and between pool workers,
    so the content hash must not depend on process state (PYTHONHASHSEED,
    dict order, enum identity...)."""
    code = (
        "from repro.arch import ProcessorConfig\n"
        "from repro.eval.engine import SimJob, job_hash\n"
        "job = SimJob.for_shape(8, 32, 16, (1, 4), 'indexmac-spmm',\n"
        "                       seed=0,\n"
        "                       config=ProcessorConfig.scaled_default())\n"
        "print(job_hash(job))\n")
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}
    hashes = set()
    for seed in ("1", "2"):  # different hash randomization per child
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        hashes.add(out.stdout.strip())
    assert hashes == {job_hash(tiny_job())}


# ----------------------------------------------------------------------
# Cache semantics
# ----------------------------------------------------------------------
def test_cache_miss_then_hit(tmp_path):
    job = tiny_job()
    cold = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    first = cold.run([job])[0]
    assert cold.counters.simulated == 1
    assert cold.counters.disk_hits == 0
    warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    second = warm.run([job])[0]
    assert warm.counters.simulated == 0
    assert warm.counters.disk_hits == 1
    assert runs_equal(first, second)


def test_in_process_memo_and_batch_dedup(tmp_path):
    job = tiny_job()
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    a, b = engine.run([job, job])  # duplicate within one batch
    assert engine.counters.simulated == 1
    assert engine.counters.memo_hits == 1  # the in-batch duplicate
    assert runs_equal(a, b)
    engine.run([job])
    assert engine.counters.memo_hits == 2
    assert engine.counters.simulated == 1
    assert engine.counters.total == 3  # every requested job accounted


def test_cache_disabled_always_simulates(tmp_path):
    job = tiny_job()
    engine = ExperimentEngine(jobs=1, cache=False, cache_dir=tmp_path)
    engine.run([job])
    again = ExperimentEngine(jobs=1, cache=False, cache_dir=tmp_path)
    again.run([job])
    assert again.counters.simulated == 1
    assert list(tmp_path.iterdir()) == []  # nothing written


def _pack_entry(cache_dir, job):
    """(segment path, offset, size) of the newest stored copy of job."""
    key = job_hash(job)
    cache = ResultCache(cache_dir)
    entry = None
    for line in cache.manifest_path.read_text().splitlines():
        record = json.loads(line)
        if record["k"] == key:
            entry = (cache.pack_dir / record["s"], record["o"], record["n"])
    return entry


def test_corrupted_pack_entry_recovers(tmp_path):
    job = tiny_job()
    first = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    reference = first.run([job])[0]
    segment, offset, size = _pack_entry(tmp_path, job)
    with open(segment, "r+b") as handle:
        handle.seek(offset)
        handle.write(b"!" * size)  # garbage over exactly this entry
    healed = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    rerun = healed.run([job])[0]
    assert healed.counters.simulated == 1  # corruption -> miss
    assert runs_equal(rerun, reference)
    # the re-stored copy's manifest line comes later, so it wins
    warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    assert runs_equal(warm.run([job])[0], reference)
    assert warm.counters.disk_hits == 1
    assert warm.counters.simulated == 0


def test_store_writes_compact_segment_blobs(tmp_path):
    job = tiny_job()
    ExperimentEngine(jobs=1, cache_dir=tmp_path).run([job])
    segment, offset, size = _pack_entry(tmp_path, job)
    blob = segment.read_bytes()[offset:offset + size]
    assert b"\n" not in blob and b": " not in blob  # no indent, no spaces
    payload = json.loads(blob)  # one valid JSON object per entry
    assert payload["kernel"] == PROPOSED


def test_cache_dir_holds_only_the_pack(tmp_path):
    jobs = [tiny_job(seed=s) for s in range(3)]
    ExperimentEngine(jobs=1, cache_dir=tmp_path).run(jobs)
    assert [p.name for p in tmp_path.iterdir()] == ["pack"]
    names = sorted(p.name for p in (tmp_path / "pack").iterdir())
    assert names[-1] == "index.jsonl"
    assert len(names) == 2 and names[0].endswith(".seg")


def test_load_many_matches_load(tmp_path):
    jobs = [tiny_job(seed=s) for s in range(4)]
    keys = [job_hash(j) for j in jobs]
    ExperimentEngine(jobs=1, cache_dir=tmp_path).run(jobs)
    cache = ResultCache(tmp_path)
    batched = cache.load_many(keys + [64 * "0"])  # one guaranteed miss
    assert set(batched) == set(keys)
    fresh = ResultCache(tmp_path)
    for key in keys:
        assert runs_equal(batched[key], fresh.load(key))


def test_manifest_skips_torn_and_unfinished_lines(tmp_path):
    jobs = [tiny_job(seed=s) for s in range(2)]
    ExperimentEngine(jobs=1, cache_dir=tmp_path).run(jobs)
    cache = ResultCache(tmp_path)
    manifest = cache.manifest_path.read_bytes()
    first, second = manifest.splitlines(keepends=True)
    # a torn line, then an append still in flight (no newline yet)
    cache.manifest_path.write_bytes(first + b'{"k": "torn\n'
                                    + second.rstrip(b"\n"))
    keys = [job_hash(j) for j in jobs]
    assert set(cache.load_many(keys)) == {keys[0]}
    with open(cache.manifest_path, "ab") as handle:
        handle.write(b"\n")  # the in-flight append completes
    assert set(cache.load_many(keys)) == set(keys)
    assert cache.indexed_count() == 2


def test_torn_last_manifest_line_costs_only_its_entry(tmp_path):
    """A manifest append torn inside its last line loses that entry
    alone: it is re-simulated once, and the re-stored copy is not
    swallowed by the torn fragment."""
    jobs = [tiny_job(seed=s) for s in range(3)]
    ExperimentEngine(jobs=1, cache_dir=tmp_path).run(jobs)
    manifest = ResultCache(tmp_path).manifest_path
    data = manifest.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    manifest.write_bytes(data[:last + (len(data) - last) // 2])
    healed = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    healed.run(jobs)
    assert healed.counters.simulated == 1
    assert healed.counters.disk_hits == 2
    warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    warm.run(jobs)
    assert warm.counters.simulated == 0
    assert warm.counters.disk_hits == 3


def test_store_many_beyond_one_chunk_reads_back_whole(tmp_path,
                                                      monkeypatch):
    """A batch of more than :data:`STORE_CHUNK` results is written a
    chunk at a time, every manifest write naming only bytes already
    in the segment, and reads back whole."""
    count = STORE_CHUNK * 2 + 3
    jobs = [SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=s,
                             config=CFG, backend="analytic-sampled")
            for s in range(count)]
    cache = ResultCache(tmp_path)
    write = os.write
    manifest_writes = []

    def checked_write(fd, data):
        if os.path.samestat(os.fstat(fd), os.stat(cache.manifest_path)):
            lines = [line for line in data.splitlines() if line]
            for record in map(json.loads, lines):
                segment = cache.pack_dir / record["s"]
                assert segment.stat().st_size >= record["o"] + record["n"]
            manifest_writes.append(len(lines))
        return write(fd, data)

    monkeypatch.setattr(os, "write", checked_write)
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    runs = engine.run(jobs)
    monkeypatch.undo()
    assert manifest_writes == [STORE_CHUNK, STORE_CHUNK, 3]
    fresh = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    again = fresh.run(jobs)
    assert fresh.counters.disk_hits == count
    assert fresh.counters.simulated == 0
    for a, b in zip(runs, again):
        assert runs_equal(a, b)


def test_long_lived_cache_rereads_a_vacuumed_manifest(tmp_path):
    jobs = [tiny_job(seed=s) for s in range(3)]
    ExperimentEngine(jobs=1, cache_dir=tmp_path).run(jobs)
    keys = [job_hash(j) for j in jobs]
    reader = ResultCache(tmp_path)
    before = reader.load_many(keys)
    ResultCache(tmp_path).vacuum()  # old segments gone, manifest replaced
    after = reader.load_many(keys)
    assert set(after) == set(keys)
    for key in keys:
        assert runs_equal(after[key], before[key])


def test_clear_removes_the_pack(tmp_path):
    jobs = [tiny_job(seed=s) for s in range(3)]
    ExperimentEngine(jobs=1, cache_dir=tmp_path).run(jobs)
    cache = ResultCache(tmp_path)
    assert cache.clear() == 3
    assert not cache.pack_dir.exists()
    assert cache.indexed_count() == 0
    assert cache.usage() == (0, 0)


def test_backend_counts_served_from_index(tmp_path):
    jobs = [tiny_job(seed=s) for s in range(3)]
    ExperimentEngine(jobs=1, cache_dir=tmp_path).run(jobs)
    cache = ResultCache(tmp_path)
    assert cache.backend_counts() == {"detailed": 3}
    assert cache.indexed_count() == 3


# ----------------------------------------------------------------------
# The engine's one result LRU
# ----------------------------------------------------------------------
def test_run_and_probe_share_one_bounded_lru(tmp_path, monkeypatch):
    jobs = [SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=s,
                             config=CFG, backend="analytic-sampled")
            for s in range(50)]
    reference = ExperimentEngine(jobs=1, cache=False).run(jobs)
    monkeypatch.setenv("REPRO_CACHE_LRU", "8")
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    sizes = []
    put = engine.lru.put

    def recording_put(key, run):
        put(key, run)
        sizes.append(len(engine.lru))

    engine.lru.put = recording_put
    batch = engine.run(jobs)
    assert engine.counters.simulated == 50  # each job exactly once
    assert engine.counters.disk_hits == engine.counters.memo_hits == 0
    probed = [engine.probe([job])[0] for job in jobs]
    assert engine.counters.simulated == 50
    assert engine.counters.disk_hits + engine.counters.memo_hits == 50
    assert sizes and max(sizes) == 8
    for ref, got, again in zip(reference, batch, probed):
        assert runs_equal(ref, got) and runs_equal(ref, again)


def test_lru_off_still_answers_the_batch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_LRU", "0")
    jobs = [tiny_job(seed=s) for s in range(3)]
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    first = engine.run(jobs + jobs)
    assert engine.counters.simulated == 3
    assert engine.counters.memo_hits == 3  # the in-batch duplicates
    again = engine.run(jobs)
    assert engine.counters.disk_hits == 3  # nothing kept in memory
    assert len(engine.lru) == 0
    for a, b in zip(first, again):
        assert runs_equal(a, b)


def test_threads_probe_while_others_store(tmp_path, monkeypatch):
    """The serve layer probes one engine from the event loop while its
    dispatcher stores into the same cache: appends, manifest re-reads,
    the LRU and the counters must not lose or tear an update."""
    _probe_while_storing(tmp_path, monkeypatch, batched=False)


def test_threads_probe_while_others_store_many(tmp_path, monkeypatch):
    """As above, with each storer appending multi-entry batches."""
    _probe_while_storing(tmp_path, monkeypatch, batched=True)


def _probe_while_storing(tmp_path, monkeypatch, batched):
    monkeypatch.setenv("REPRO_CACHE_LRU", "4")
    jobs = [SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=s,
                             config=CFG, backend="analytic-sampled")
            for s in range(24)]
    keys = [job_hash(job) for job in jobs]
    reference = ExperimentEngine(jobs=1, cache=False).run(jobs)
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    answered = []
    bad = []

    def store(part):
        for _ in range(50):  # every re-store appends a further copy
            if batched:
                engine.cache.store_many(
                    [(keys[i], jobs[i], reference[i]) for i in part])
                continue
            for i in part:
                engine.cache.store(keys[i], jobs[i], reference[i])

    def probe():
        seen = 0
        for _ in range(20):
            for job, ref, run in zip(jobs, reference, engine.probe(jobs)):
                if run is not None:
                    seen += 1
                    if run != ref:  # a round trip of these very runs
                        bad.append(job)
        answered.append(seen)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        storers = [threading.Thread(target=store, args=(range(i, 24, 4),))
                   for i in range(4)]
        probers = [threading.Thread(target=probe) for _ in range(2)]
        for thread in probers + storers:
            thread.start()
        for thread in probers + storers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in storers + probers)
    assert not bad
    assert len(engine.lru) <= 4
    counters = engine.counters
    assert counters.memo_hits + counters.disk_hits == sum(answered)
    # every appended copy, not only the newest, reads back intact
    cache = ResultCache(tmp_path)
    expected = dict(zip(keys, reference))
    lines = cache.manifest_path.read_text().splitlines()
    assert len(lines) == 50 * len(keys)
    for line in lines:
        record = json.loads(line)
        with open(cache.pack_dir / record["s"], "rb") as handle:
            handle.seek(record["o"])
            blob = json.loads(handle.read(record["n"]))
        assert blob["job"]["seed"] == jobs[keys.index(record["k"])].seed
        assert cache._decode(blob) == expected[record["k"]]


# ----------------------------------------------------------------------
# Parallel execution
# ----------------------------------------------------------------------
def test_parallel_results_match_serial_bit_exactly():
    jobs = [tiny_job(kernel, nm)
            for nm in ((1, 4), (2, 4))
            for kernel in (BASELINE, PROPOSED)]
    serial = ExperimentEngine(jobs=1, cache=False).run(jobs)
    parallel = ExperimentEngine(jobs=2, cache=False).run(jobs)
    assert len(serial) == len(parallel) == len(jobs)
    for s, p in zip(serial, parallel):
        assert runs_equal(s, p)


# ----------------------------------------------------------------------
# Job execution paths
# ----------------------------------------------------------------------
def test_layer_job_executes_and_verifies():
    job = SimJob.for_layer("resnet50", "conv1", (1, 4), TINY,
                           PROPOSED, config=CFG)
    run = execute_job(job)
    assert run.verified
    assert run.cycles > 0


def test_custom_policy_travels_by_value():
    """An unregistered ScalePolicy works, and must not alias a
    registered policy that shares its name."""
    lookalike = ScalePolicy("tiny", 64, (4, 8), 32, (16, 32),
                            128, (16, 16))
    custom = SimJob.for_layer("resnet50", "conv1", (1, 4), lookalike,
                              PROPOSED, config=CFG)
    registered = SimJob.for_layer("resnet50", "conv1", (1, 4), TINY,
                                  PROPOSED, config=CFG)
    assert job_hash(custom) != job_hash(registered)
    run = execute_job(custom)
    assert run.verified
    assert run.cycles > 0


def test_csr_pseudo_kernel_job():
    run = execute_job(tiny_job(kernel=CSR_KERNEL))
    assert run.kernel == CSR_KERNEL
    assert run.verified
    assert run.cycles > 0


def test_unknown_layer_rejected():
    job = SimJob.for_layer("resnet50", "no_such_layer", (1, 4), TINY,
                           PROPOSED, config=CFG)
    with pytest.raises(EngineError):
        execute_job(job)


# ----------------------------------------------------------------------
# End-to-end through the CLI (the acceptance criterion)
# ----------------------------------------------------------------------
def test_bench_warm_cache_performs_zero_simulations(tmp_path, capsys,
                                                    monkeypatch):
    """`repro bench` on a warm cache re-renders identical artifacts
    without a single new simulation, as reported by the engine summary."""
    from repro.cli import main
    from repro.eval import clear_cache
    from repro.eval.engine import set_engine

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["bench", "--artifacts", "fig4", "--policy", "tiny",
            "--out", str(tmp_path / "out")]
    clear_cache()  # drop comparisons memoised by earlier tests
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "engine: 0 simulations" not in cold
    cold_text = (tmp_path / "out" / "fig4.txt").read_text()

    clear_cache()
    set_engine(None)
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "engine: 0 simulations" in warm
    assert (tmp_path / "out" / "fig4.txt").read_text() == cold_text


# ----------------------------------------------------------------------
# Timing backends in the cache identity (regression: a cached detailed
# result must never be served for a batch-replay job)
# ----------------------------------------------------------------------
def test_backend_is_part_of_the_job_hash():
    detailed = tiny_job()
    replay = SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=0,
                              config=CFG, backend="batch-replay")
    assert detailed.backend == "detailed"
    assert replay.backend == "batch-replay"
    assert job_hash(detailed) != job_hash(replay)


def test_backend_resolution_honors_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "batch-replay")
    job = SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=0, config=CFG)
    assert job.backend == "batch-replay"
    # direct construction resolves the env knob too (not just the
    # for_shape/for_layer classmethods)
    direct = SimJob(kernel=PROPOSED, nm=(1, 4), config=CFG,
                    shape=(8, 32, 16), seed=0)
    assert direct.backend == "batch-replay"
    monkeypatch.delenv("REPRO_BACKEND")
    assert tiny_job().backend == "detailed"


def test_cached_detailed_never_served_for_batch_replay(tmp_path):
    """Both backends simulate once each; the disk cache keeps them apart
    and round-trips the backend tag."""
    detailed = SimJob.for_shape(64, 64, 32, (1, 4), PROPOSED, seed=0,
                                config=CFG, backend="detailed")
    replay = SimJob.for_shape(64, 64, 32, (1, 4), PROPOSED, seed=0,
                              config=CFG, backend="batch-replay")
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    first = engine.run([detailed])[0]
    assert engine.counters.simulated == 1
    # the replay job must be a cache MISS despite identical operands
    second = engine.run([replay])[0]
    assert engine.counters.simulated == 2
    assert first.backend == "detailed"
    assert second.backend == "batch-replay"
    # warm re-reads resolve to the right entries, tags intact
    warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    d2, c2 = warm.run([detailed, replay])
    assert warm.counters.disk_hits == 2
    assert d2.backend == "detailed" and c2.backend == "batch-replay"
    # instruction counts agree between the backends; timed counts differ
    assert d2.stats.instructions == c2.stats.instructions
    assert d2.stats.vector_mem_instrs == c2.stats.vector_mem_instrs
    assert c2.timed_instructions < c2.stats.instructions
    assert d2.timed_instructions == d2.stats.instructions


def test_cache_schema_was_bumped_for_backends():
    from repro.eval.engine import CACHE_SCHEMA

    assert CACHE_SCHEMA >= 2


# ----------------------------------------------------------------------
# Schedules in the cache identity (the autotuner's sweep points must
# never alias each other)
# ----------------------------------------------------------------------
def test_schedule_is_part_of_the_job_hash():
    from repro.kernels import Schedule

    default = tiny_job()
    assert default.schedule == Schedule()  # the paper default
    tuned = SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=0,
                             config=CFG,
                             schedule=Schedule(tile_rows=8, unroll=2))
    assert job_hash(default) != job_hash(tuned)
    # vlmax keys the cache like every other schedule field
    wide = SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=0,
                            config=CFG, schedule=Schedule(vlmax=32))
    assert job_hash(wide) != job_hash(default)


def test_schedule_accepted_positionally_or_by_keyword():
    """The experiments and the tuner hand Schedules straight to the job
    constructors, positionally or as ``schedule=``; either is taken
    verbatim, and anything else is refused when the job is built."""
    from repro.kernels import Schedule
    from repro.nn.workload import TINY

    tuned = Schedule(vlmax=32, tile_rows=8)
    positional = SimJob.for_shape(8, 32, 32, (1, 4), PROPOSED, 0, tuned,
                                  CFG)
    keyword = SimJob.for_shape(8, 32, 32, (1, 4), PROPOSED, seed=0,
                               config=CFG, schedule=tuned)
    assert positional.schedule is keyword.schedule is tuned
    assert job_hash(positional) == job_hash(keyword) == job_hash(
        SimJob(kernel=PROPOSED, nm=(1, 4), config=CFG, schedule=tuned,
               shape=(8, 32, 32), seed=0))
    layer = SimJob.for_layer("resnet50", "conv1", (1, 4), TINY, PROPOSED,
                             tuned, CFG)
    assert layer.schedule is tuned
    for bad in (None, tuned.to_dict()):
        with pytest.raises(EngineError, match="schedule must be"):
            SimJob.for_shape(8, 32, 32, (1, 4), PROPOSED, seed=0,
                             schedule=bad)


def test_csr_job_honors_schedule_vlmax():
    """CSR jobs key the cache by schedule, so the one knob the CSR
    nest has (vlmax) must actually reach the kernel."""
    from repro.kernels import Schedule

    full = execute_job(tiny_job(kernel=CSR_KERNEL))
    narrow = execute_job(
        SimJob.for_shape(8, 32, 16, (1, 4), CSR_KERNEL, seed=0,
                         config=CFG, schedule=Schedule(vlmax=8)))
    assert full.verified and narrow.verified
    # two 8-wide column tiles instead of one 16-wide: twice the
    # per-row passes, so the dynamic stream must grow
    assert narrow.stats.instructions > full.stats.instructions


def test_schedule_vlmax_beyond_hardware_rejected():
    """vsetvli would silently cap vl and corrupt results; the runner
    must fail loudly instead."""
    from repro.errors import KernelError
    from repro.kernels import Schedule

    for kernel in (PROPOSED, CSR_KERNEL):
        job = SimJob.for_shape(8, 32, 32, (1, 4), kernel, seed=0,
                               config=CFG, schedule=Schedule(vlmax=32))
        with pytest.raises(KernelError):
            execute_job(job)


def test_scheduled_job_executes_and_verifies():
    from repro.kernels import Schedule

    job = SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=0,
                           config=CFG,
                           schedule=Schedule(tile_rows=8, unroll=2))
    run = execute_job(job)
    assert run.verified
    assert run.cycles > 0
