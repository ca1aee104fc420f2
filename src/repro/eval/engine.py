"""Parallel, cached experiment execution engine.

Every simulation a figure/table/ablation needs is expressed as a
hashable :class:`SimJob` (kernel, workload source, sparsity pattern,
:class:`Schedule`, :class:`ProcessorConfig`).  The
:class:`ExperimentEngine` deduplicates jobs within a batch, keeps
recent results in one bounded in-memory LRU and every result in an
on-disk store keyed by a content hash of the job, and fans cache
misses out across a **persistent** worker-process pool (falling back
to in-process execution when a pool cannot be created).  Result order
is always the submission order, so parallel and serial runs render
bit-identical tables.

Dispatch path (fast to slow)::

    result LRU -> pack store (manifest index, seek+read)
    -> simulate (persistent pool / in-process)

Pool rules
----------
* The pool is spawned lazily on the first parallel batch and **reused
  across** ``run()`` calls, so repeated-batch workloads (the tuner,
  ``repro bench``, figure regeneration) pay pool spin-up and module
  re-import exactly once.
* ``$REPRO_POOL_IDLE`` seconds after the last batch (default 60;
  ``<= 0`` disables reaping) an idle pool is reaped; the next batch
  respawns it transparently.  A pool broken mid-batch (a worker died)
  is respawned once; a second failure degrades to in-process
  execution, as do sandboxes without fork/semaphores.
* Workers receive **compact chunk payloads**: each chunk carries its
  referenced jobs once (shards addressed by job index), and shards of
  one multicore job are dealt round-robin across chunks so they are
  never serialised onto one worker.
* Workers memoise deterministic operand generation by content
  identity (see :mod:`repro.eval.memo`) and compiled traces by staged
  layout, so sweeps that vary only the schedule or shard fan-out of
  one job, or only the operand seed of one N:M shape, stop redoing
  identical work.  Memoisation is bit-exact: the memoised values are
  pure functions of the key.

Cache rules
-----------
* Location: ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/sim``.
* Key: sha256 over the canonical JSON text of the job plus
  :data:`CACHE_SCHEMA`, a pure function of the job's fields and
  computed once per job object (:attr:`SimJob.key`).  The texts of a
  job's config, schedule and policy are memoised per object and
  spliced into both the key and the stored payload.  An analytic
  job's calibration digest is one of those fields, set from the active
  table when the job is built; pricing refuses a job whose digest is
  not the pricing table's.  Bump :data:`CACHE_SCHEMA` whenever a
  simulator change alters results, or delete the cache directory.
* Format: each result is one compact JSON blob appended to this
  process's segment file under ``pack/``; the shared append-only
  manifest ``pack/index.jsonl`` maps key -> segment/offset/size/backend,
  one line per stored result (a later line for a key wins).  A batch is
  stored in chunks of :data:`STORE_CHUNK`: one segment write, then all
  of the chunk's manifest lines in one ``O_APPEND`` write.  Segments
  are per-process, so concurrent engine processes never interleave
  partial entries, and no manifest line names unwritten bytes.  A
  torn manifest line or an unreadable blob is a miss: the job is
  re-simulated and stored again.
* A lookup that misses the parsed index first re-reads the manifest
  from the last byte parsed (all of it once a vacuum has replaced
  it), so a long-lived engine sees other processes' appends.
* In front of the store sits the engine's one bounded LRU of decoded
  results, shared by :meth:`ExperimentEngine.run` and
  :meth:`ExperimentEngine.probe`: ``$REPRO_CACHE_LRU`` entries
  (default 256, ``0`` disables it).

Environment knobs (read when the default engine is built):
``REPRO_JOBS`` (worker processes; ``0`` = one per CPU, default ``1``),
``REPRO_NO_CACHE`` (any non-empty value disables the disk cache),
``REPRO_POOL_IDLE`` and ``REPRO_CACHE_LRU`` (see above).
``REPRO_BACKEND`` selects the timing backend when a job is built
without an explicit ``backend=`` (see :mod:`repro.arch.timing`).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.arch.config import ProcessorConfig
from repro.arch.stats import ExecutionStats
from repro.arch.timing import available_backends, resolve_backend
from repro.errors import EngineError
from repro.eval.memo import LRUMemo, canonical_text, content_key, worker_memo
from repro.eval.planner import plan_batch
from repro.eval.runner import (
    JOB_KERNELS,
    KernelRun,
    ShardRun,
    merge_shard_runs,
    run_spmm,
    run_spmm_shard,
)
from repro.kernels.compiler import Schedule
from repro.nn.models import get_model
from repro.nn.workload import (
    ScalePolicy,
    check_workload,
    make_layer_workload,
    make_workload,
)

#: Bump whenever a simulator/workload change invalidates cached results.
#: Schema 2: timing backends — the backend is part of the job identity,
#: so cached ``detailed`` results can never answer ``compressed-replay``
#: runs (or vice versa).
#: Schema 3: schedule-driven kernel compiler — the full ``Schedule``
#: (including vlmax and B-tile residency, which the earlier four-knob
#: option set could not express) joins the job identity, so the
#: autotuner's sweep points can never alias each other.
#: Schema 4: multi-core sharded simulation — ``Schedule`` grew
#: ``cores``/``shard`` fields (hashed via the schedule), and multicore
#: results carry merged makespan stats that single-core entries must
#: never answer.
#: Schema 5: batch-replay + analytic-sampled backends — the replay
#: bracket's pricing changed (pooled probes, regressed row-miss slope,
#: lead/trail/chunk defaults), so compressed-replay cycles differ from
#: schema 4; analytic jobs additionally fold the active calibration
#: table's digest into the hash, so a refit can never be answered by
#: stale predictions.
#: Schema 6: one on-disk format and one job vocabulary — pack segments
#: plus their manifest are the only store (the one-file-per-job layout
#: is gone), and ``SimJob`` is identified by its ``Schedule`` alone
#: (the legacy ``options`` field left the job).  Old caches are
#: invalidated, not migrated.
#: Schema 7: the calibration digest is a ``SimJob`` field (``None``
#: except on analytic jobs) instead of an environment read inside
#: ``job_hash``, so the hash is a pure function of the job; results
#: are stored a chunk at a time.  Payloads are unchanged; old caches
#: are invalidated, not migrated.  Folding ``compressed-replay`` into
#: ``batch-replay`` later needed no bump: no remaining job's key moved,
#: and the old backend's entries are never looked up.
CACHE_SCHEMA = 7


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/sim``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sim"


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise EngineError(f"{name}={raw!r} is not a number") from None


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise EngineError(f"{name}={raw!r} is not an integer") from None


# ======================================================================
# Jobs
# ======================================================================
def _plain_ints(values, count: int) -> bool:
    """Whether ``values`` is a tuple or list of ``count`` plain ints."""
    return (isinstance(values, (tuple, list)) and len(values) == count
            and all(type(v) is int for v in values))


@dataclass(frozen=True)
class SimJob:
    """One simulation, described by value (no arrays — workers rebuild
    the operands deterministically from this spec, and the spec is what
    gets content-hashed for the disk cache).

    The workload comes from exactly one source: a named CNN layer
    (``model``/``layer``/``policy``) or an explicit synthetic GEMM
    (``shape``/``seed``).
    """

    kernel: str
    nm: tuple[int, int]
    config: ProcessorConfig = field(
        default_factory=ProcessorConfig.scaled_default)
    verify: bool = True
    #: Timing backend name (part of the cache identity: a detailed
    #: result must never be served for a batch-replay job).
    #: ``None`` resolves via ``$REPRO_BACKEND``, default ``detailed``.
    backend: str | None = None
    # -- workload source A: a (scaled) CNN layer GEMM.  The policy is
    # carried by value, so custom (unregistered) policies work and two
    # policies sharing a name can never alias in the cache.
    model: str | None = None
    layer: str | None = None
    policy: ScalePolicy | None = None
    # -- workload source B: an explicit synthetic GEMM
    shape: tuple[int, int, int] | None = None  #: (rows, k, n)
    seed: int | None = None
    #: Full kernel schedule (part of the cache identity).
    schedule: Schedule = Schedule()
    #: Digest of the calibration table that prices the job (part of the
    #: cache identity): the active table's when an ``analytic-sampled``
    #: job is built, else ``None``.
    calibration: str | None = field(default=None, init=False)

    def __post_init__(self):
        # resolve (and validate) the backend eagerly so the content
        # hash always sees a concrete name, however the job was built
        object.__setattr__(self, "backend", resolve_backend(self.backend))
        # likewise the kernel: a job nothing can run must fail here,
        # not inside a worker
        if self.kernel not in JOB_KERNELS:
            raise EngineError(
                f"unknown job kernel {self.kernel!r} (job kernels: "
                f"{', '.join(JOB_KERNELS)})")
        if not isinstance(self.schedule, Schedule):
            raise EngineError(f"schedule must be a Schedule, "
                              f"not {self.schedule!r}")
        if self.schedule.shard is not None:
            raise EngineError(
                "SimJob describes a whole kernel execution; shard "
                "selection (schedule.shard) is an engine-internal "
                "execution detail — set cores=N and leave shard=None")
        layer_src = (self.model, self.layer, self.policy)
        shape_src = (self.shape, self.seed)
        if not ((all(v is not None for v in layer_src)
                 and all(v is None for v in shape_src))
                or (all(v is None for v in layer_src)
                    and all(v is not None for v in shape_src))):
            raise EngineError(
                "SimJob needs exactly one workload source: either "
                "model+layer+policy or shape+seed")
        if type(self.verify) is not bool:
            raise EngineError(
                f"verify must be True or False, not {self.verify!r}")
        for name, kind in (("model", str), ("layer", str),
                           ("policy", ScalePolicy)):
            value = getattr(self, name)
            if value is not None and not isinstance(value, kind):
                raise EngineError(f"{name} must be a {kind.__name__}, "
                                  f"not {value!r}")
        if not isinstance(self.config, ProcessorConfig):
            raise EngineError(f"config must be a ProcessorConfig, "
                              f"not {self.config!r}")
        # a bool or an int subclass would hash unlike its integer twin,
        # and so store one workload under two keys
        if not _plain_ints(self.nm, 2):
            raise EngineError(f"nm must be a pair of integers, "
                              f"not {self.nm!r}")
        # tuples, so a job's parts key the planner's per-batch memo
        object.__setattr__(self, "nm", tuple(self.nm))
        if self.shape is not None:
            if not _plain_ints(self.shape, 3):
                raise EngineError(f"shape must be three integers "
                                  f"(rows, k, n), not {self.shape!r}")
            object.__setattr__(self, "shape", tuple(self.shape))
            check_workload(*self.shape, *self.nm)
            if type(self.seed) is not int or self.seed < 0:
                raise EngineError(f"seed must be a non-negative integer, "
                                  f"not {self.seed!r}")
        if self.backend == "analytic-sampled":
            from repro.analytic.calibration import active_digest
            object.__setattr__(self, "calibration", active_digest())

    @cached_property
    def key(self) -> str:
        """The job's :func:`job_hash`, computed on first use and kept on
        the job (only the 64-character digest is kept)."""
        return job_hash(self)

    @classmethod
    def for_layer(cls, model: str, layer: str, nm: tuple[int, int],
                  policy: ScalePolicy, kernel: str,
                  schedule: Schedule = Schedule(),
                  config: ProcessorConfig | None = None,
                  verify: bool = True,
                  backend: str | None = None) -> "SimJob":
        return cls(kernel=kernel, nm=tuple(nm),
                   config=config or ProcessorConfig.scaled_default(),
                   verify=verify, backend=backend,
                   model=model, layer=layer, policy=policy,
                   schedule=schedule)

    @classmethod
    def for_shape(cls, rows: int, k: int, n: int, nm: tuple[int, int],
                  kernel: str, seed: int = 0,
                  schedule: Schedule = Schedule(),
                  config: ProcessorConfig | None = None,
                  verify: bool = True,
                  backend: str | None = None) -> "SimJob":
        return cls(kernel=kernel, nm=tuple(nm),
                   config=config or ProcessorConfig.scaled_default(),
                   verify=verify, backend=backend,
                   shape=(rows, k, n), seed=seed, schedule=schedule)


#: Entries of the memo of canonical configs, schedules and policies:
#: a sweep shares a handful of each across thousands of jobs, and
#: ``repro serve`` lives long, so the memo is small and bounded.
CANONICAL_MEMO_SIZE = 64
_canonical_parts = LRUMemo(CANONICAL_MEMO_SIZE)


def _part_text(value) -> str:
    """``canonical_text(value)``, memoised per object.  Keyed by
    identity, not equality: equal values may canonicalise differently
    (``7`` and ``7.0``).  An entry holds its object, so its id cannot
    be reused while the entry lives."""
    entry = _canonical_parts.peek(id(value))
    if entry is None or entry[0] is not value:
        entry = (value, canonical_text(value))
        _canonical_parts.put(id(value), entry)
    return entry[1]


def _job_text(job: SimJob) -> str:
    """``canonical_text(job)``: every field in key order, with the
    job's config, schedule and policy spliced in from the memo.  It
    writes ``nm``, ``shape`` and ``verify`` directly, which holds
    because :class:`SimJob` admits only tuples of plain ints and a
    bool there."""
    text, shape = canonical_text, job.shape
    return (f'{{"backend":{text(job.backend)},'
            f'"calibration":{text(job.calibration)},'
            f'"config":{_part_text(job.config)},'
            f'"kernel":{text(job.kernel)},'
            f'"layer":{text(job.layer)},'
            f'"model":{text(job.model)},'
            f'"nm":[{job.nm[0]},{job.nm[1]}],'
            f'"policy":{_part_text(job.policy)},'
            f'"schedule":{_part_text(job.schedule)},'
            f'"seed":{text(job.seed)},'
            f'"shape":{"null" if shape is None else "[%d,%d,%d]" % shape},'
            f'"verify":{"true" if job.verify else "false"}}}')


def job_hash(job: SimJob) -> str:
    """Stable content hash of a job (identical across processes): a
    pure function of the job's fields, the calibration digest among
    them.  :attr:`SimJob.key` keeps it once computed."""
    # the canonical text of {"schema": CACHE_SCHEMA, "job": job}
    blob = f'{{"job":{_job_text(job)},"schema":{CACHE_SCHEMA}}}'
    return hashlib.sha256(blob.encode()).hexdigest()


def check_calibration(job: SimJob, digest: str | None = None) -> None:
    """Refuse to price ``job`` with a calibration table other than the
    one it was built under (``digest``, default the active table's):
    its result would be stored under the other table's key."""
    if job.calibration is None:
        return
    if digest is None:
        from repro.analytic.calibration import active_digest
        digest = active_digest()
    if job.calibration != digest:
        raise EngineError(
            f"job was built under calibration table {job.calibration}, "
            f"but the table that would price it is {digest}; rebuild "
            "the job under the active table")


def operand_identity(job: SimJob) -> str:
    """Content identity of a job's deterministic operand generation.

    Deliberately *narrower* than :func:`job_hash`: two jobs that differ
    only in schedule (beyond ``tile_rows``, which pads K), backend,
    kernel or config share their (A, B) operands — the worker-side memo
    keys on this, so tuner sweeps and shard fan-outs of one workload
    generate the operands once per process.
    """
    return content_key({
        "model": job.model, "layer": job.layer, "policy": job.policy,
        "nm": list(job.nm),
        "shape": list(job.shape) if job.shape is not None else None,
        "seed": job.seed,
        "tile_rows": job.schedule.tile_rows,
    })


def _build_operands(job: SimJob):
    if job.model is not None:
        layer = next((l for l in get_model(job.model)
                      if l.name == job.layer), None)
        if layer is None:
            raise EngineError(
                f"model {job.model!r} has no layer {job.layer!r}")
        workload = make_layer_workload(layer, *job.nm, policy=job.policy,
                                       tile_rows=job.schedule.tile_rows)
        a, b = workload.a, workload.b
    else:
        rows, k, n_cols = job.shape
        rng = np.random.default_rng(job.seed)
        a, b = make_workload(rows, k, n_cols, *job.nm, rng,
                             tile_rows=job.schedule.tile_rows)
    # memoised operands are shared across runs: freeze the dense side so
    # an accidental in-place mutation fails loudly instead of silently
    # corrupting every later run of the same workload
    b.setflags(write=False)
    return a, b


def job_operands(job: SimJob):
    """Rebuild the (A, B) operands of a job deterministically.

    Memoised per process by :func:`operand_identity` — callers must
    treat the returned arrays as read-only."""
    return worker_memo("operands", 8).get(
        operand_identity(job), lambda: _build_operands(job))


def execute_job(job: SimJob) -> KernelRun:
    """Run one job to completion (multicore jobs fan in sequentially).

    This is the whole-job worker entry point; the engine's pool path
    additionally shards multicore jobs across workers via
    :func:`execute_shard_job` + :func:`finish_multicore_job`, with
    bit-identical results.
    """
    check_calibration(job)
    a, b = job_operands(job)
    return run_spmm(a, b, job.kernel, schedule=job.schedule,
                    config=job.config, verify=job.verify,
                    backend=job.backend, memo_key=operand_identity(job))


def execute_shard_job(job: SimJob, shard: int) -> ShardRun:
    """Run one core's shard of a multicore job (worker entry point)."""
    check_calibration(job)
    a, b = job_operands(job)
    return run_spmm_shard(a, b, job.kernel, job.schedule, shard,
                          config=job.config, backend=job.backend,
                          memo_key=operand_identity(job))


def finish_multicore_job(job: SimJob, shards) -> KernelRun:
    """Merge a multicore job's shard results (stitch C, verify, merge
    per-core cycle streams into makespan + aggregated counters)."""
    a = b = None
    if job.verify:
        a, b = job_operands(job)
    return merge_shard_runs(job.kernel, shards, job.backend,
                            a=a, b=b, verify=job.verify)


def _execute_task(task) -> "KernelRun | ShardRun":
    """In-process entry point: a task is (job, shard) with shard=None
    meaning the whole job."""
    job, shard = task
    if shard is None:
        return execute_job(job)
    return execute_shard_job(job, shard)


def _execute_chunk(jobs, tasks):
    """Pool entry point: run one chunk of (job-index, shard) tasks
    against the chunk's deduplicated job table.

    The payload is compact by construction — each referenced job is
    pickled once per chunk however many of its shards the chunk holds —
    and the reply leads with the worker's pid so the engine can record
    where each shard actually ran (``ExperimentEngine.last_dispatch``).
    """
    return os.getpid(), [_execute_task((jobs[index], shard))
                         for index, shard in tasks]


def _worker_ping(linger: float) -> int:
    """Pool warm-up probe: hold the worker briefly so concurrent pings
    fan out across distinct processes, then report the pid."""
    time.sleep(linger)
    return os.getpid()


def _chunk_tasks(jobs, tasks, n_chunks):
    """Deal ``tasks`` (``(job_index, shard)`` pairs) round-robin into at
    most ``n_chunks`` compact chunk payloads.

    Shards of one multicore job occupy consecutive task slots, so the
    round-robin deal puts them in distinct chunks whenever ``n_chunks``
    is at least the job's core count — the pool then simulates them on
    distinct workers instead of serialising them through one.  Each
    payload is ``(chunk_jobs, chunk_tasks, originals)``: the jobs the
    chunk references (each exactly once), the tasks re-indexed against
    that local table, and the original tasks for reassembly.
    """
    dealt = [[] for _ in range(max(1, n_chunks))]
    for position, task in enumerate(tasks):
        dealt[position % len(dealt)].append(task)
    payloads = []
    for chunk in dealt:
        if not chunk:
            continue
        local_index: dict[int, int] = {}
        chunk_jobs = []
        chunk_tasks = []
        for job_index, shard in chunk:
            if job_index not in local_index:
                local_index[job_index] = len(chunk_jobs)
                chunk_jobs.append(jobs[job_index])
            chunk_tasks.append((local_index[job_index], shard))
        payloads.append((tuple(chunk_jobs), tuple(chunk_tasks),
                         tuple(chunk)))
    return payloads


# ======================================================================
# On-disk result cache
# ======================================================================
#: Advisory lockfile guarding offline cache maintenance (lives inside
#: the cache root, beside ``pack/``).
CACHE_LOCK_NAME = ".lock"


def acquire_cache_lock(root: Path, exclusive: bool = False):
    """Take the cache directory's advisory lock; returns a handle for
    :func:`release_cache_lock` (or ``None`` where unsupported).

    Online users of a cache directory (an :class:`~repro.serve.service.
    ExperimentService` for its whole lifetime) hold the lock *shared* —
    many processes may store into one cache concurrently, that is a
    supported sharing model.  Offline maintenance
    (:meth:`ResultCache.vacuum`) takes it *exclusive*, non-blocking:
    if any live holder exists the vacuum fails with a clean
    :class:`EngineError` instead of racing concurrent manifest appends.

    On platforms without ``fcntl`` (or filesystems rejecting ``flock``)
    the lock degrades to a no-op ``None`` handle — the historical,
    unguarded behaviour.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-posix
        return None
    root = Path(root)
    try:
        root.mkdir(parents=True, exist_ok=True)
        handle = open(root / CACHE_LOCK_NAME, "a+")
    except OSError:
        return None
    try:
        if exclusive:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise EngineError(
                    f"cache {root} is in use (another process holds "
                    f"{root / CACHE_LOCK_NAME}, e.g. a live experiment "
                    "server): stop it before running offline "
                    "maintenance like `repro cache --vacuum`") from None
        else:
            fcntl.flock(handle, fcntl.LOCK_SH)
    except EngineError:
        raise
    except OSError:  # pragma: no cover - exotic filesystems
        handle.close()
        return None
    return handle


def release_cache_lock(handle) -> None:
    """Release a lock from :func:`acquire_cache_lock` (None-safe)."""
    if handle is not None:
        try:
            handle.close()  # closing the fd drops the flock
        except OSError:  # pragma: no cover
            pass


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _run_text(run: KernelRun) -> tuple[str, str]:
    """The canonical text of ``run``'s stored payload before and after
    its job's text (members in key order)."""
    return (f'{{"backend":{canonical_text(run.backend)},"job":',
            f',"kernel":{canonical_text(run.kernel)},'
            f'"schema":{CACHE_SCHEMA},'
            f'"stats":{canonical_text(run.stats)},'
            f'"verified":{canonical_text(run.verified)}}}')


def _blob(job: SimJob, run: KernelRun, run_text=None) -> bytes:
    """One stored result: the canonical text of ``run`` and its job,
    ``run_text`` (default :func:`_run_text`) around :func:`_job_text`."""
    head, tail = run_text or _run_text(run)
    return f"{head}{_job_text(job)}{tail}".encode()


#: Entries per :meth:`ResultCache.store_many` chunk, which bounds the
#: encoded payloads held in memory at once.
STORE_CHUNK = 256


def _manifest_line(key: str, segment: str, offset: int, size: int,
                   backend: str) -> str:
    """One ``pack/index.jsonl`` record (without its newline): the
    canonical text of ``{"k": key, "s": segment, "o": offset, "n":
    size, "b": backend}``."""
    return (f'{{"b":{canonical_text(backend)},"k":{canonical_text(key)},'
            f'"n":{size},"o":{offset},"s":{canonical_text(segment)}}}')


class ResultCache:
    """Content-addressed on-disk store of :class:`KernelRun` results.

    One format: per-process segment files under ``pack/`` holding
    concatenated compact-JSON payloads, plus one shared append-only
    ``pack/index.jsonl`` manifest of key -> segment/offset/size/backend,
    appended a chunk of lines at a time (:meth:`store_many`).  A hit is
    one seek+read, and :meth:`load_many` batches a whole key set per
    segment.  The parsed manifest is the in-memory index; a lookup
    that misses it first parses whatever other processes appended
    since (see :meth:`_refresh`).  Decoded results are not kept here —
    the engine's one result LRU sits in front of the store.
    """

    def __init__(self, root: Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._index: dict[str, tuple[str, int, int, str]] = {}
        #: (inode, byte offset) of the manifest parsed so far
        self._parsed: tuple[int, int] = (-1, 0)
        self._segment: str | None = None  #: this process's pack segment
        #: guards the index, the manifest position and appends — the
        #: serve layer probes from the event-loop thread while the
        #: dispatcher thread stores into the same instance
        self._lock = threading.Lock()

    @property
    def pack_dir(self) -> Path:
        return self.root / "pack"

    @property
    def manifest_path(self) -> Path:
        return self.pack_dir / "index.jsonl"

    # -- the manifest --------------------------------------------------
    def _refresh(self) -> None:
        """Parse the manifest lines appended since the last parse
        (caller holds ``_lock``).

        The whole file is re-read when it was replaced or shrank (a
        vacuum rewrote it); a line still being appended (no newline
        yet) waits for the next refresh, and a torn or corrupt line is
        skipped.  Later lines override earlier ones for the same key.
        """
        try:
            with open(self.manifest_path, "rb") as handle:
                info = os.fstat(handle.fileno())
                inode, offset = self._parsed
                if info.st_ino != inode or info.st_size < offset:
                    self._index.clear()
                    offset = 0
                handle.seek(offset)
                data = handle.read()
        except OSError:  # no manifest (yet, or cleared)
            self._index.clear()
            self._parsed = (-1, 0)
            return
        complete = data.rfind(b"\n") + 1
        for line in data[:complete].splitlines():
            try:
                rec = json.loads(line)
                self._index[rec["k"]] = (rec["s"], int(rec["o"]),
                                         int(rec["n"]), rec["b"])
            except (ValueError, KeyError, TypeError):
                continue  # torn/corrupt line: skip, don't fail
        self._parsed = (info.st_ino, offset + complete)

    def _current_index(self) -> dict[str, tuple[str, int, int, str]]:
        """A snapshot of the index, up to date with the manifest."""
        with self._lock:
            self._refresh()
            return dict(self._index)

    def _decode(self, payload) -> KernelRun:
        if payload["schema"] != CACHE_SCHEMA:
            raise ValueError("stale cache schema")
        stats = ExecutionStats(**payload["stats"])
        return KernelRun(kernel=payload["kernel"], stats=stats,
                         verified=payload["verified"],
                         backend=payload["backend"])

    # -- public API ----------------------------------------------------
    def load(self, key: str) -> KernelRun | None:
        """The stored run for ``key``, or None on a miss."""
        return self.load_many([key]).get(key)

    def load_many(self, keys) -> dict[str, KernelRun]:
        """Every hit among ``keys``; misses are simply absent.

        Entries are grouped per segment so each segment is opened once
        and read in offset order.  A key the index does not know sends
        one manifest re-read first.  An entry that does not read back
        (its segment was vacuumed away, or its bytes are corrupt) is
        dropped from the index and looked up once more, for a newer
        copy.
        """
        keys = list(dict.fromkeys(keys))
        found: dict[str, KernelRun] = {}
        unreadable = self._read(keys, found)
        if unreadable:
            self._read(unreadable, found, forget=True)
        return found

    def _read(self, keys, found: dict, forget: bool = False) -> list[str]:
        """Decode the entries of ``keys`` into ``found``; returns the
        keys whose entry did not read back.  ``forget`` first drops
        ``keys`` from the index."""
        with self._lock:
            if forget:
                for key in keys:
                    self._index.pop(key, None)
            if any(key not in self._index for key in keys):
                self._refresh()
            by_segment: dict[str, list[tuple[int, int, str]]] = {}
            for key in keys:
                entry = self._index.get(key)
                if entry is not None:
                    segment, offset, size, _ = entry
                    by_segment.setdefault(segment, []).append(
                        (offset, size, key))
        unreadable: list[str] = []
        for segment, wanted in by_segment.items():
            try:
                handle = open(self.pack_dir / segment, "rb")
            except OSError:
                unreadable.extend(key for _, _, key in wanted)
                continue
            with handle:
                for offset, size, key in sorted(wanted):
                    try:
                        handle.seek(offset)
                        found[key] = self._decode(
                            json.loads(handle.read(size)))
                    except (OSError, ValueError, TypeError, KeyError):
                        unreadable.append(key)
        return unreadable

    def store(self, key: str, job: SimJob, run: KernelRun) -> None:
        """Store one result (see :meth:`store_many`)."""
        self.store_many([(key, job, run)])

    def store_many(self, entries) -> None:
        """Append ``(key, job, run)`` results to this process's segment
        and the manifest, :data:`STORE_CHUNK` entries at a time.

        Each chunk is one segment write, then one ``O_APPEND`` write of
        all its manifest lines, then the index update, so no manifest
        line ever names bytes not yet written.  Segments are
        per-process (pid + random suffix), so offsets are race-free.
        A run shared by several entries is encoded once per call.
        """
        entries = list(entries)
        # id(run) -> its text; ``entries`` keeps every run alive, so
        # no id is reused during the call
        run_texts: dict[int, tuple[str, str]] = {}
        for start in range(0, len(entries), STORE_CHUNK):
            chunk = entries[start:start + STORE_CHUNK]
            blobs = []
            for _, job, run in chunk:
                run_text = run_texts.get(id(run))
                if run_text is None:
                    run_text = run_texts[id(run)] = _run_text(run)
                blobs.append(_blob(job, run, run_text))
            with self._lock:
                self._append_chunk(chunk, blobs)

    def _append_chunk(self, chunk, blobs) -> None:
        """Write one chunk (caller holds ``_lock``)."""
        self.pack_dir.mkdir(parents=True, exist_ok=True)
        if self._segment is None:
            self._segment = f"{os.getpid():x}-{os.urandom(4).hex()}.seg"
        with open(self.pack_dir / self._segment, "ab") as handle:
            offset = handle.tell()
            handle.write(b"".join(blobs))
        records = {}
        lines = []
        for (key, _, run), blob in zip(chunk, blobs):
            records[key] = (self._segment, offset, len(blob), run.backend)
            lines.append(_manifest_line(key, *records[key]) + "\n")
            offset += len(blob)
        data = "".join(lines).encode()
        fd = os.open(self.manifest_path,
                     os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            # end a torn last line, so it cannot swallow our first
            # (O_APPEND writes go to the end wherever the reads seek)
            size = os.lseek(fd, 0, os.SEEK_END)
            if size:
                os.lseek(fd, size - 1, os.SEEK_SET)
                if os.read(fd, 1) != b"\n":
                    data = b"\n" + data
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise EngineError(
                f"short manifest append to {self.manifest_path}: "
                f"{written} of {len(data)} bytes")
        self._index.update(records)

    def indexed_count(self) -> int:
        """Distinct keys the manifest serves."""
        return len(self._current_index())

    def _disk_bytes(self) -> int:
        size = 0
        if self.pack_dir.is_dir():
            for path in self.pack_dir.iterdir():
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
        return size

    def usage(self) -> tuple[int, int]:
        """(distinct entry count, total bytes of segments + manifest)."""
        return self.indexed_count(), self._disk_bytes()

    def backend_counts(self) -> dict[str, int]:
        """Entry count per timing backend (for ``repro cache``), read
        off the manifest (the backend rides in every line)."""
        counts: dict[str, int] = {}
        for _, _, _, backend in self._current_index().values():
            counts[backend] = counts.get(backend, 0) + 1
        return dict(sorted(counts.items()))

    def clear(self) -> int:
        """Delete every stored result (segments and manifest); returns
        how many entries were removed."""
        count = self.indexed_count()
        with self._lock:
            shutil.rmtree(self.pack_dir, ignore_errors=True)
            self._index.clear()
            self._parsed = (-1, 0)
            self._segment = None
        return count

    def vacuum(self) -> tuple[int, int]:
        """Compact the store: every live result copied into one fresh
        segment under a fresh manifest, dropping superseded manifest
        lines, unreadable entries, entries of a backend no job can name
        (not in :func:`~repro.arch.timing.available_backends`) and dead
        bytes in old segments.

        This is an offline maintenance operation: the cache directory's
        advisory lock is taken exclusively for its duration, so a
        vacuum can never race a live :class:`~repro.serve.service.
        ExperimentService` (which holds the lock shared) — it fails
        with a clean :class:`EngineError` instead.

        Returns ``(files_removed, bytes_reclaimed)``.
        """
        lock = acquire_cache_lock(self.root, exclusive=True)
        try:
            with self._lock:
                return self._vacuum_locked()
        finally:
            release_cache_lock(lock)

    def _vacuum_locked(self) -> tuple[int, int]:
        self._parsed = (-1, 0)  # re-read the whole manifest
        self._refresh()
        bytes_before = self._disk_bytes()
        old_segments = set()
        if self.pack_dir.is_dir():
            old_segments = {p.name for p in self.pack_dir.iterdir()
                            if p.name != self.manifest_path.name}
        # 1. copy every live blob into one fresh segment
        new_segment = f"compact-{os.getpid():x}-{os.urandom(4).hex()}.seg"
        lines: list[str] = []
        offset = 0
        blobs: list[bytes] = []
        backends = set(available_backends())
        for key, (segment, start, size, backend) in self._index.items():
            if backend not in backends:
                continue  # never looked up again: drop it
            try:
                with open(self.pack_dir / segment, "rb") as handle:
                    handle.seek(start)
                    blob = handle.read(size)
                self._decode(json.loads(blob))
            except (OSError, ValueError, TypeError, KeyError):
                continue  # unreadable: drop from the compacted index
            blobs.append(blob)
            lines.append(_manifest_line(key, new_segment, offset,
                                        len(blob), backend))
            offset += len(blob)
        if blobs:
            with open(self.pack_dir / new_segment, "wb") as handle:
                handle.write(b"".join(blobs))
            atomic_write_text(self.manifest_path,
                              "\n".join(lines) + "\n")
        elif self.manifest_path.exists():
            atomic_write_text(self.manifest_path, "")
        # 2. drop the superseded segments
        removed = 0
        for name in old_segments:
            try:
                (self.pack_dir / name).unlink()
                removed += 1
            except OSError:
                pass
        self._index.clear()
        self._parsed = (-1, 0)  # the next lookup parses the new manifest
        self._segment = None  # future stores open a fresh segment
        return removed, max(0, bytes_before - self._disk_bytes())


# ======================================================================
# Engine
# ======================================================================
@dataclass
class EngineCounters:
    """Cumulative accounting of how each requested job was satisfied."""

    simulated: int = 0   #: jobs actually executed on the simulator
    disk_hits: int = 0   #: jobs answered from the on-disk cache
    #: jobs answered from the engine's result LRU, or by a duplicate
    #: of another job in the same batch
    memo_hits: int = 0
    #: dynamic instructions and wall-clock seconds spent inside the
    #: timing backends of freshly simulated jobs (cache hits cost
    #: nothing) — the ``repro bench`` throughput column.
    sim_instructions: int = 0
    sim_seconds: float = 0.0
    #: wall-clock spent serving batches that simulated *nothing*
    #: (LRU/disk hits only) — the warm jobs/s denominator.
    warm_seconds: float = 0.0
    #: persistent-pool lifecycle: fresh spawns, respawns after a broken
    #: pool, and batches dispatched through the pool.  A repeated-batch
    #: workload that reuses the pool shows ``pool_spawns == 1`` with
    #: ``pool_batches`` counting every parallel batch.
    pool_spawns: int = 0
    pool_respawns: int = 0
    pool_batches: int = 0
    #: cold-job planner split: jobs priced by the in-process bulk
    #: analytic evaluator vs jobs executed through the pooled path
    #: (``bulk_jobs + pooled_jobs == simulated``).
    bulk_jobs: int = 0
    pooled_jobs: int = 0
    #: wall-clock seconds per cold-path stage (operands / compile /
    #: profile / price from the bulk evaluator, plus pooled execution
    #: and the batched result store).
    stage_seconds: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.simulated + self.disk_hits + self.memo_hits

    @property
    def throughput(self) -> float:
        """Simulated instructions per second of backend wall-clock.

        Guarded against zero/absent ``sim_seconds`` — a cold engine or
        an all-hits (simulation-free) run reports 0.0 rather than
        dividing by zero.
        """
        if self.sim_seconds <= 0.0:
            return 0.0
        return self.sim_instructions / self.sim_seconds

    @property
    def hit_rate(self) -> float:
        """Fraction of requested jobs served without simulating."""
        if self.total == 0:
            return 0.0
        return (self.disk_hits + self.memo_hits) / self.total

    @property
    def warm_rate(self) -> float:
        """LRU/disk hits served per second of warm batch time (0.0
        when no simulation-free batch has been timed yet)."""
        if self.warm_seconds <= 0.0:
            return 0.0
        return (self.disk_hits + self.memo_hits) / self.warm_seconds

    def snapshot(self) -> "EngineCounters":
        """A frozen copy of the current counts (for phase accounting,
        e.g. the per-layer tuner's sweep-vs-finalist split)."""
        return copy.deepcopy(self)

    def since(self, start: "EngineCounters") -> "EngineCounters":
        """The counts accumulated after ``start`` was snapshotted:
        every number subtracts, and ``stage_seconds`` per stage."""
        delta = {}
        for f in fields(self):
            now, then = getattr(self, f.name), getattr(start, f.name)
            if isinstance(now, dict):
                delta[f.name] = {name: value - then.get(name, 0.0)
                                 for name, value in now.items()}
            else:
                delta[f.name] = now - then
        return EngineCounters(**delta)

    def add_stage_seconds(self, stages: dict) -> None:
        """Fold one batch's per-stage seconds into the running totals."""
        for name, seconds in stages.items():
            self.stage_seconds[name] = (self.stage_seconds.get(name, 0.0)
                                        + seconds)


class ExperimentEngine:
    """Deduplicating, caching, parallel executor of :class:`SimJob`s.

    ``jobs`` is the worker-process count: ``1`` (default) runs
    in-process, ``0``/``None`` means one worker per CPU.  ``cache``
    toggles the on-disk result cache at ``cache_dir``; the in-memory
    result LRU (``lru``, ``$REPRO_CACHE_LRU`` entries) works either
    way.  ``pool_idle`` is the idle-reap timeout of the persistent
    worker pool in seconds (``None`` reads ``$REPRO_POOL_IDLE``,
    default 60; ``<= 0`` keeps the pool alive until :meth:`shutdown`).
    Cold jobs the planner can price in bulk are priced in-process; the
    rest take the pooled per-job path (see
    :func:`~repro.eval.planner.plan_batch`).
    """

    def __init__(self, jobs: int | None = 1, cache: bool = True,
                 cache_dir: Path | None = None,
                 pool_idle: float | None = None):
        self.jobs = int(jobs) if jobs else (os.cpu_count() or 1)
        self.cache = ResultCache(cache_dir) if cache else None
        self.counters = EngineCounters()
        self.pool_idle = (pool_idle if pool_idle is not None
                          else _env_float("REPRO_POOL_IDLE", 60.0))
        #: ``(job_index, shard, worker_pid)`` of every task the last
        #: pool batch dispatched (observability: tests assert shards of
        #: one multicore job landed on distinct workers).
        self.last_dispatch: list[tuple[int, int | None, int]] = []
        #: the one in-memory result layer, shared by run() and probe()
        self.lru = LRUMemo(max(0, _env_int("REPRO_CACHE_LRU", 256)))
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._idle_timer: threading.Timer | None = None
        self._pool_unavailable = False
        #: serialises :meth:`run` so concurrent submitters (the serve
        #: layer's dispatcher thread plus direct callers) never
        #: interleave a batch's execute/store sequence
        self._run_lock = threading.RLock()
        #: guards counter updates — :meth:`probe` runs on the event
        #: loop thread while :meth:`run` executes in a worker thread
        self._counters_lock = threading.Lock()

    @classmethod
    def from_env(cls, jobs: int | None = None,
                 cache: bool | None = None) -> "ExperimentEngine":
        """Build an engine from ``REPRO_JOBS``/``REPRO_NO_CACHE``,
        with explicit arguments taking precedence."""
        if jobs is None:
            raw = os.environ.get("REPRO_JOBS", "1") or "1"
            try:
                jobs = int(raw)
            except ValueError:
                raise EngineError(
                    f"REPRO_JOBS={raw!r} is not an integer") from None
        if cache is None:
            cache = not os.environ.get("REPRO_NO_CACHE")
        return cls(jobs=jobs, cache=cache)

    # -- persistent pool lifecycle -------------------------------------
    def _acquire_pool(self) -> ProcessPoolExecutor | None:
        """The persistent pool, spawning it lazily; None when worker
        processes cannot be created in this environment."""
        with self._pool_lock:
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            if self._pool is None:
                if self._pool_unavailable:
                    return None
                try:
                    self._pool = ProcessPoolExecutor(max_workers=self.jobs)
                except (OSError, ImportError):
                    # sandboxes without fork/semaphores: remember, so
                    # later batches skip straight to in-process
                    self._pool_unavailable = True
                    return None
                self.counters.pool_spawns += 1
            return self._pool

    def _release_pool(self) -> None:
        """Arm the idle-reap timer after a batch (the next batch
        disarms it; firing reaps the pool until it is needed again)."""
        with self._pool_lock:
            if self._pool is None or self.pool_idle <= 0:
                return
            timer = threading.Timer(
                self.pool_idle, lambda: self._reap_idle(timer))
            timer.daemon = True
            self._idle_timer = timer
            timer.start()

    def _reap_idle(self, timer: threading.Timer) -> None:
        with self._pool_lock:
            if self._idle_timer is not timer:
                return  # superseded by a newer batch — not idle
            self._idle_timer = None
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next acquisition respawns."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        """Shut the persistent pool down (idempotent; the next parallel
        batch would lazily respawn it)."""
        with self._pool_lock:
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def warm_pool(self, linger: float = 0.05) -> list[int]:
        """Eagerly spawn the pool and fan one ping per worker; returns
        the worker pids (empty when the pool is unavailable).  Useful
        before latency-sensitive batches and in dispatch tests."""
        if self.jobs <= 1:
            return []
        pool = self._acquire_pool()
        if pool is None:
            return []
        try:
            futures = [pool.submit(_worker_ping, linger)
                       for _ in range(self.jobs)]
            return [future.result() for future in futures]
        except (BrokenProcessPool, OSError):
            self._discard_pool()
            return []
        finally:
            self._release_pool()

    def __del__(self):  # best-effort: tests build many engines
        try:
            self.shutdown(wait=False)
        except Exception:
            pass

    # -- execution -----------------------------------------------------
    def _lookup(self, keys) -> tuple[dict[str, KernelRun], int]:
        """The stored results among ``keys``: the LRU first, then one
        batched store read for the rest (its hits enter the LRU).
        Returns the hits by key and how many came from the store."""
        found: dict[str, KernelRun] = {}
        missing = []
        for key in dict.fromkeys(keys):
            run = self.lru.peek(key)
            if run is None:
                missing.append(key)
            else:
                found[key] = run
        if not missing or self.cache is None:
            return found, 0
        fetched = self.cache.load_many(missing)
        for key, run in fetched.items():
            self.lru.put(key, run)
        found.update(fetched)
        return found, len(fetched)

    def probe(self, jobs) -> "list[KernelRun | None]":
        """Cache-only lookup (result LRU -> pack store), never
        simulating.  Misses come back as ``None``.

        Hits are counted exactly as :meth:`run` would count them, so a
        service that answers warm requests straight off :meth:`probe`
        (the serve layer's microsecond path) keeps the engine's
        accounting coherent.  Safe to call concurrently with
        :meth:`run` from another thread.
        """
        start = time.perf_counter()
        keys = [job.key for job in jobs]
        found, disk_hits = self._lookup(keys)
        results = [found.get(key) for key in keys]
        memo_hits = sum(run is not None for run in results) - disk_hits
        with self._counters_lock:
            self.counters.memo_hits += memo_hits
            self.counters.disk_hits += disk_hits
            if memo_hits or disk_hits:
                self.counters.warm_seconds += time.perf_counter() - start
        return results

    def run(self, jobs) -> list[KernelRun]:
        """Run a batch of jobs; results arrive in submission order.

        Identical jobs (same content hash) within the batch are
        simulated once.  The whole batch is read through one
        :meth:`ResultCache.load_many` and its new results written
        through one :meth:`ResultCache.store_many`.  The batch's
        results are returned from the batch itself, so a batch larger
        than the LRU never re-reads or re-simulates one.  Results are
        shared read-only values: an LRU hit or an in-batch duplicate
        returns the stored object, and bulk-priced jobs on one profile
        row share one run.  Reentrant: concurrent callers are
        serialised on an internal lock and counters are updated
        atomically.
        """
        with self._run_lock:
            return self._run_locked(list(jobs))

    def _run_locked(self, jobs: list[SimJob]) -> list[KernelRun]:
        start = time.perf_counter()
        keys = [job.key for job in jobs]
        results, disk_hits = self._lookup(keys)
        pending: dict[str, SimJob] = {}
        for key, job in zip(keys, jobs):
            if key not in results:
                pending.setdefault(key, job)
        # in-batch duplicates are answered by their first copy
        memo_hits = len(keys) - disk_hits - len(pending)
        if pending:
            pending_jobs = list(pending.values())
            t_plan = time.perf_counter()
            plan = plan_batch(pending_jobs)
            plan_seconds = time.perf_counter() - t_plan
            runs: list[KernelRun | None] = [None] * len(pending_jobs)
            stage_seconds: dict[str, float] = {}
            if plan.bulk:
                # the planner laid out the bulk jobs' operands (their
                # staged geometry) while routing them
                stage_seconds["operands"] = plan_seconds
                # imported lazily: the bulk evaluator pulls in the
                # analytic stack, which plain functional runs never need
                from repro.analytic.bulk import evaluate_bulk

                bulk_runs, bulk_stages = evaluate_bulk(
                    [pending_jobs[i] for i in plan.bulk], plan.geometries)
                for index, run in zip(plan.bulk, bulk_runs):
                    runs[index] = run
                for name, seconds in bulk_stages.items():
                    stage_seconds[name] = (stage_seconds.get(name, 0.0)
                                           + seconds)
            if plan.pooled:
                t_pooled = time.perf_counter()
                pooled_runs = self._execute(
                    [pending_jobs[i] for i in plan.pooled])
                stage_seconds["pooled"] = (
                    stage_seconds.get("pooled", 0.0)
                    + time.perf_counter() - t_pooled)
                for index, run in zip(plan.pooled, pooled_runs):
                    runs[index] = run
            sim_instructions = sim_seconds = 0
            t_store = time.perf_counter()
            for key, run in zip(pending, runs):
                sim_instructions += run.stats.instructions
                sim_seconds += run.wall_seconds
                results[key] = run
                self.lru.put(key, run)
            if self.cache:
                self.cache.store_many(zip(pending, pending_jobs, runs))
            stage_seconds["store"] = (stage_seconds.get("store", 0.0)
                                      + time.perf_counter() - t_store)
            with self._counters_lock:
                self.counters.simulated += len(pending)
                self.counters.sim_instructions += sim_instructions
                self.counters.sim_seconds += sim_seconds
                self.counters.memo_hits += memo_hits
                self.counters.disk_hits += disk_hits
                self.counters.bulk_jobs += len(plan.bulk)
                self.counters.pooled_jobs += len(plan.pooled)
                self.counters.add_stage_seconds(stage_seconds)
        else:
            with self._counters_lock:
                self.counters.memo_hits += memo_hits
                self.counters.disk_hits += disk_hits
                if memo_hits or disk_hits:
                    self.counters.warm_seconds += (time.perf_counter()
                                                   - start)
        return [results[key] for key in keys]

    async def submit_async(self, jobs) -> list[KernelRun]:
        """Async-friendly submit hook: :meth:`run` on the running
        event loop's default thread executor.

        The coroutine awaits without blocking the loop, so an asyncio
        service (see :mod:`repro.serve`) can keep answering warm
        probes while a batch simulates; :meth:`run`'s internal lock
        makes overlapping submissions safe.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.run, list(jobs))

    def _execute(self, jobs: list[SimJob]) -> list[KernelRun]:
        """Execute jobs, fanning multicore jobs out shard-by-shard.

        A job with ``schedule.cores = N > 1`` becomes N shard tasks, so
        the worker pool simulates the N cores truly in parallel (even
        for a single multicore job); the shard results are then merged
        back into one :class:`KernelRun` per job, bit-identical to the
        sequential in-process path.
        """
        tasks: list[tuple[int, int | None]] = []
        for index, job in enumerate(jobs):
            cores = job.schedule.cores
            if cores > 1:
                tasks.extend((index, shard) for shard in range(cores))
            else:
                tasks.append((index, None))
        self.last_dispatch = []
        outputs = None
        if self.jobs > 1 and len(tasks) > 1:
            outputs = self._dispatch(jobs, tasks)
        if outputs is None:
            outputs = [_execute_task((jobs[index], shard))
                       for index, shard in tasks]
        results: list[KernelRun | None] = [None] * len(jobs)
        shards: dict[int, list[ShardRun]] = {}
        for (index, shard), output in zip(tasks, outputs):
            if shard is None:
                results[index] = output
            else:
                shards.setdefault(index, []).append(output)
        for index, shard_runs in shards.items():
            results[index] = finish_multicore_job(jobs[index], shard_runs)
        return results

    def _dispatch(self, jobs, tasks):
        """Fan one batch of tasks across the persistent pool; None
        means "run in-process" (no pool, or it broke twice in a row).

        Chunks are dealt so shards of one multicore job never share a
        chunk (see :func:`_chunk_tasks`); a pool broken mid-batch is
        respawned once and the batch retried (execution is
        deterministic and results are stored only after the whole
        batch, so the retry is idempotent).
        """
        workers = min(self.jobs, len(tasks))
        fanout = max(job.schedule.cores for job in jobs)
        n_chunks = min(len(tasks), max(workers * 4, fanout))
        payloads = _chunk_tasks(jobs, tasks, n_chunks)
        for retry in (False, True):
            pool = self._acquire_pool()
            if pool is None:
                return None
            try:
                futures = [pool.submit(_execute_chunk, chunk_jobs,
                                       chunk_tasks)
                           for chunk_jobs, chunk_tasks, _ in payloads]
                replies = [future.result() for future in futures]
            except BrokenProcessPool:
                self._discard_pool()
                if retry:
                    return None
                self.counters.pool_respawns += 1
                continue
            except (OSError, ImportError):
                self._discard_pool()
                return None
            finally:
                self._release_pool()
            position = {task: i for i, task in enumerate(tasks)}
            outputs: list = [None] * len(tasks)
            for (_, _, originals), (pid, chunk_outputs) in zip(payloads,
                                                               replies):
                for original, output in zip(originals, chunk_outputs):
                    outputs[position[original]] = output
                    self.last_dispatch.append((*original, pid))
            self.counters.pool_batches += 1
            return outputs
        return None

    # -- reporting -----------------------------------------------------
    def summary(self) -> str:
        """One-line accounting, e.g. for the ``repro bench`` report."""
        c = self.counters
        where = str(self.cache.root) if self.cache else "disabled"
        speed = ""
        if c.simulated and c.sim_seconds > 0.0:
            speed = (f", {c.sim_instructions:,} instrs in "
                     f"{c.sim_seconds:.1f}s "
                     f"({c.throughput / 1e3:,.0f}k instr/s)")
        elif c.simulated == 0 and c.total:
            # fully-warm batch: instr/s would be a misleading zero —
            # report what actually happened (hit rate + warm serve rate)
            speed = f", {c.hit_rate:.0%} hit rate"
            if c.warm_rate > 0.0:
                speed += f" ({c.warm_rate:,.0f} warm jobs/s)"
        pool = ""
        if c.pool_spawns:
            pool = (f", pool {c.pool_spawns} spawn(s)/"
                    f"{c.pool_batches} batch(es)")
        split = ""
        if c.bulk_jobs or c.pooled_jobs:
            split = (f", split {c.bulk_jobs} bulk/"
                     f"{c.pooled_jobs} pooled/"
                     f"{c.disk_hits + c.memo_hits} warm")
            stages = [f"{name} {c.stage_seconds[name]:.2f}s"
                      for name in ("operands", "compile", "profile",
                                   "price", "pooled", "store")
                      if name in c.stage_seconds]
            if stages:
                split += f" [{' '.join(stages)}]"
        return (f"engine: {c.simulated} simulations, "
                f"{c.disk_hits} disk-cache hits, "
                f"{c.memo_hits} memo hits{speed}{split} "
                f"(workers {self.jobs}{pool}, cache {where})")


# ======================================================================
# Default (module-level) engine
# ======================================================================
_default_engine: ExperimentEngine | None = None


def get_engine() -> ExperimentEngine:
    """The process-wide default engine (built from env on first use)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine.from_env()
    return _default_engine


def set_engine(engine: ExperimentEngine | None) -> ExperimentEngine | None:
    """Install (or, with None, reset) the default engine.

    The outgoing engine's persistent pool is shut down — reconfiguring
    must never leak worker processes.
    """
    global _default_engine
    if _default_engine is not None and _default_engine is not engine:
        _default_engine.shutdown(wait=False)
    _default_engine = engine
    return engine


def configure(jobs: int | None = None,
              cache: bool | None = None) -> ExperimentEngine:
    """Install a default engine from env + explicit overrides."""
    return set_engine(ExperimentEngine.from_env(jobs=jobs, cache=cache))
