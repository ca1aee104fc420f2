"""The experiment service: one engine, many concurrent clients.

Submission path (see :meth:`ExperimentService.submit`):

1. **Microsecond warm path** — every submitted job is first probed
   against the engine's warm layers (result LRU -> pack store) right
   on the event loop via :meth:`ExperimentEngine.probe`; hits are
   answered immediately without touching the queue or the worker
   pool.
2. **Single-flight dedup** — a cold job whose key (its ``job_hash``,
   computed once per job object as :attr:`SimJob.key`) is already
   being computed (for any client, on any lane) *attaches* to the
   in-flight computation instead of re-queueing it: identical
   concurrent submissions simulate exactly once.
3. **Admission control** — genuinely new work enters one of two
   bounded priority lanes (``interactive`` ahead of ``bulk``).  A
   full lane sheds the submission with
   :class:`~repro.errors.ServeOverloadedError` (HTTP 429 +
   ``Retry-After``), so overload degrades into fast refusals instead
   of unbounded latency.
4. **Batching dispatch** — a background task coalesces everything
   that arrived within ``batch_window`` seconds (interactive drained
   first) into one ``engine.run()`` call, so the persistent worker
   pool and batched ``load_many`` are exercised across clients.

Everything except the engine call runs on the event loop thread, so
the service needs no locks of its own; the engine call runs in the
loop's default thread executor via
:meth:`ExperimentEngine.submit_async`.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.errors import ReproError, ServeError, ServeOverloadedError
from repro.eval.engine import (
    ExperimentEngine,
    SimJob,
    _env_float,
    _env_int,
    acquire_cache_lock,
    release_cache_lock,
)
from repro.eval.runner import KernelRun
from repro.serve.stats import LatencyStats

#: Priority lanes, in drain order: interactive requests are served
#: ahead of bulk sweeps whenever both have work queued.
LANES = ("interactive", "bulk")

#: Sources a job's answer can come from (per-result ``source`` field).
WARM, JOINED, QUEUED = "warm", "joined", "queued"


@dataclass(frozen=True)
class ServeConfig:
    """Admission/batching knobs of one server instance.

    Environment defaults (flags override): ``REPRO_SERVE_WINDOW``
    (coalescing window, seconds), ``REPRO_SERVE_BATCH`` (max jobs per
    engine batch), ``REPRO_SERVE_DEPTH`` / ``REPRO_SERVE_BULK_DEPTH``
    (bounded queue depth per lane) and ``REPRO_SERVE_RETRY_AFTER``
    (seconds advertised on a 429).
    """

    batch_window: float = 0.005
    max_batch: int = 128
    interactive_depth: int = 256
    bulk_depth: int = 2048
    retry_after: float = 1.0
    #: finished batch handles retained for status/stream queries
    max_batches: int = 1024

    def __post_init__(self):
        if self.batch_window < 0:
            raise ServeError("batch_window must be >= 0")
        if min(self.max_batch, self.interactive_depth, self.bulk_depth,
               self.max_batches) < 1:
            raise ServeError("queue depths and batch sizes must be "
                             "positive")

    @classmethod
    def from_env(cls, **overrides) -> "ServeConfig":
        """Build from ``REPRO_SERVE_*`` with non-None overrides
        taking precedence."""
        values = {
            "batch_window": _env_float("REPRO_SERVE_WINDOW", 0.005),
            "max_batch": _env_int("REPRO_SERVE_BATCH", 128),
            "interactive_depth": _env_int("REPRO_SERVE_DEPTH", 256),
            "bulk_depth": _env_int("REPRO_SERVE_BULK_DEPTH", 2048),
            "retry_after": _env_float("REPRO_SERVE_RETRY_AFTER", 1.0),
        }
        values.update({k: v for k, v in overrides.items()
                       if v is not None})
        return cls(**values)

    def depth(self, lane: str) -> int:
        return (self.interactive_depth if lane == "interactive"
                else self.bulk_depth)


class _Ticket:
    """One cold job queued for execution (the single-flight owner)."""

    __slots__ = ("key", "job", "future", "lane", "enqueued_at")

    def __init__(self, key: str, job: SimJob, future: asyncio.Future,
                 lane: str):
        self.key = key
        self.job = job
        self.future = future
        self.lane = lane
        self.enqueued_at = time.perf_counter()


@dataclass
class BatchHandle:
    """One client submission: per-job sources and result futures."""

    id: str
    lane: str
    created: float
    #: per submitted job: {"index", "key", "source", and either
    #: "run" (warm) or "future" (joined/queued)}
    entries: list[dict] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.entries)

    def done_count(self) -> int:
        return sum(1 for e in self.entries
                   if e["source"] == WARM or e["future"].done())

    def counts(self) -> dict[str, int]:
        counts = {WARM: 0, JOINED: 0, QUEUED: 0}
        for entry in self.entries:
            counts[entry["source"]] += 1
        return counts

    async def results(self) -> "list[KernelRun | Exception]":
        """Every job's result (or the exception that felled it), in
        submission order."""
        out: list = []
        for entry in self.entries:
            if entry["source"] == WARM:
                out.append(entry["run"])
                continue
            try:
                out.append(await asyncio.shield(entry["future"]))
            except Exception as exc:  # reported per-job, not raised
                out.append(exc)
        return out


class ExperimentService:
    """Shared-cache simulation service around one
    :class:`ExperimentEngine` (see the module docstring for the
    submission path)."""

    def __init__(self, engine: ExperimentEngine | None = None,
                 config: ServeConfig | None = None):
        self.engine = engine if engine is not None \
            else ExperimentEngine.from_env()
        self.config = config or ServeConfig.from_env()
        self.started = time.time()
        self.counters = {
            "requests": 0, "jobs": 0, "warm_hits": 0,
            "single_flight_joins": 0, "queued": 0, "shed": 0,
            "job_errors": 0, "engine_batches": 0,
        }
        self.latency = {WARM: LatencyStats(),
                        "interactive": LatencyStats(),
                        "bulk": LatencyStats()}
        self._inflight: dict[str, asyncio.Future] = {}
        self._queues: dict[str, deque[_Ticket]] = {
            lane: deque() for lane in LANES}
        self._batches: OrderedDict[str, BatchHandle] = OrderedDict()
        self._batch_seq = 0
        self._work = asyncio.Event()
        self._dispatcher: asyncio.Task | None = None
        self._closing = False
        self._cache_lock = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Start the batching dispatcher (idempotent).

        Also takes the cache directory's advisory lock *shared* for
        the service's lifetime: concurrent engines may store into one
        cache, but offline maintenance (``repro cache --vacuum``
        takes it exclusively) fails cleanly instead of racing a live
        server.
        """
        if self._dispatcher is None:
            if self.engine.cache is not None and self._cache_lock is None:
                self._cache_lock = acquire_cache_lock(
                    self.engine.cache.root)
            self._dispatcher = asyncio.create_task(
                self._dispatch_loop(), name="serve-dispatcher")

    async def close(self) -> None:
        """Stop dispatching, fail queued work, release the engine."""
        self._closing = True
        self._work.set()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
            self._dispatcher = None
        reason = ServeError("server shutting down")
        for queue in self._queues.values():
            while queue:
                ticket = queue.popleft()
                if not ticket.future.done():
                    ticket.future.set_exception(reason)
                self._inflight.pop(ticket.key, None)
        release_cache_lock(self._cache_lock)
        self._cache_lock = None
        self.engine.shutdown(wait=False)

    # -- submission ----------------------------------------------------
    def submit(self, jobs: "list[SimJob]",
               lane: str = "interactive") -> BatchHandle:
        """Admit one client submission; see the module docstring.

        Raises :class:`ServeOverloadedError` when the target lane
        cannot hold the submission's genuinely new jobs (warm hits and
        single-flight joins are always admitted — they consume no
        queue capacity).
        """
        if lane not in LANES:
            raise ServeError(
                f"unknown lane {lane!r} (choose from {LANES})")
        if self._closing:
            raise ServeError("server is shutting down")
        if not jobs:
            raise ServeError("empty submission")
        t0 = time.perf_counter()
        keys = [job.key for job in jobs]
        probed = self.engine.probe(jobs)
        warm_elapsed = time.perf_counter() - t0
        # admission first: a shed submission must be all-or-nothing
        new_keys = {key for key, run in zip(keys, probed)
                    if run is None and key not in self._inflight}
        queue = self._queues[lane]
        if new_keys and len(queue) + len(new_keys) > \
                self.config.depth(lane):
            self.counters["requests"] += 1
            self.counters["shed"] += 1
            raise ServeOverloadedError(
                f"{lane} lane is full "
                f"({len(queue)}/{self.config.depth(lane)} queued); "
                f"retry after {self.config.retry_after:g}s",
                retry_after=self.config.retry_after)
        self.counters["requests"] += 1
        self.counters["jobs"] += len(jobs)
        self._batch_seq += 1
        handle = BatchHandle(
            id=f"b{self._batch_seq:x}-{os.urandom(3).hex()}",
            lane=lane, created=time.time())
        loop = asyncio.get_running_loop()
        seen_new: dict[str, asyncio.Future] = {}
        for index, (job, key, run) in enumerate(zip(jobs, keys,
                                                    probed)):
            if run is not None:
                self.counters["warm_hits"] += 1
                self.latency[WARM].record(warm_elapsed / len(jobs))
                handle.entries.append(
                    {"index": index, "key": key, "source": WARM,
                     "run": run})
                continue
            future = self._inflight.get(key) or seen_new.get(key)
            if future is not None:
                self.counters["single_flight_joins"] += 1
                handle.entries.append(
                    {"index": index, "key": key, "source": JOINED,
                     "future": future})
                continue
            future = loop.create_future()
            # a client may vanish before collecting: never let an
            # unretrieved job failure crash the loop's exception hook
            future.add_done_callback(self._consume_exception)
            ticket = _Ticket(key, job, future, lane)
            future.add_done_callback(
                lambda _f, t=ticket: self.latency[t.lane].record(
                    time.perf_counter() - t.enqueued_at))
            self._inflight[key] = future
            seen_new[key] = future
            queue.append(ticket)
            self.counters["queued"] += 1
            handle.entries.append(
                {"index": index, "key": key, "source": QUEUED,
                 "future": future})
        if seen_new:
            self._work.set()
        self._batches[handle.id] = handle
        while len(self._batches) > self.config.max_batches:
            self._batches.popitem(last=False)
        return handle

    @staticmethod
    def _consume_exception(future: asyncio.Future) -> None:
        if not future.cancelled():
            future.exception()

    def batch(self, batch_id: str) -> BatchHandle:
        handle = self._batches.get(batch_id)
        if handle is None:
            raise ServeError(f"unknown (or expired) batch {batch_id!r}")
        return handle

    # -- dispatch ------------------------------------------------------
    def queue_depths(self) -> dict[str, int]:
        return {lane: len(queue)
                for lane, queue in self._queues.items()}

    async def _dispatch_loop(self) -> None:
        while True:
            await self._work.wait()
            if self._closing:
                return
            if self.config.batch_window > 0:
                # coalescing window: let concurrent submissions pile
                # into this batch before the engine call
                await asyncio.sleep(self.config.batch_window)
            batch: list[_Ticket] = []
            for lane in LANES:  # interactive drains first
                queue = self._queues[lane]
                while queue and len(batch) < self.config.max_batch:
                    batch.append(queue.popleft())
            if all(not queue for queue in self._queues.values()):
                self._work.clear()
            if not batch:
                continue
            await self._run_batch(batch)

    async def _run_batch(self, batch: "list[_Ticket]") -> None:
        self.counters["engine_batches"] += 1
        try:
            runs = await self.engine.submit_async(
                [ticket.job for ticket in batch])
        except Exception:
            # one poisoned job fails a whole engine batch; isolate it
            # by retrying jobs one at a time so innocents still finish
            runs = None
        if runs is not None:
            for ticket, run in zip(batch, runs):
                self._resolve(ticket, run)
            return
        for ticket in batch:
            try:
                run = (await self.engine.submit_async([ticket.job]))[0]
            except ReproError as exc:
                self._resolve(ticket, error=exc)
            except Exception as exc:
                self._resolve(ticket, error=ServeError(
                    f"job execution failed: {exc}"))
            else:
                self._resolve(ticket, run)

    def _resolve(self, ticket: _Ticket, run: KernelRun | None = None,
                 error: Exception | None = None) -> None:
        if not ticket.future.done():
            if error is not None:
                self.counters["job_errors"] += 1
                ticket.future.set_exception(error)
            else:
                ticket.future.set_result(run)
        self._inflight.pop(ticket.key, None)

    # -- reporting -----------------------------------------------------
    def stats(self) -> dict:
        """The ``GET /v1/stats`` payload."""
        c = dict(self.counters)
        ec = self.engine.counters
        jobs = c["jobs"] or 1
        return {
            "uptime_s": round(time.time() - self.started, 3),
            **c,
            "hit_rate": round(c["warm_hits"] / jobs, 4),
            "queue_depth": self.queue_depths(),
            "inflight": len(self._inflight),
            "batches_retained": len(self._batches),
            "latency_ms": {name: stats.summary()
                           for name, stats in self.latency.items()},
            "config": {
                "batch_window_s": self.config.batch_window,
                "max_batch": self.config.max_batch,
                "interactive_depth": self.config.interactive_depth,
                "bulk_depth": self.config.bulk_depth,
                "retry_after_s": self.config.retry_after,
            },
            "engine": {
                "workers": self.engine.jobs,
                "simulated": ec.simulated,
                "disk_hits": ec.disk_hits,
                "memo_hits": ec.memo_hits,
                "pool_spawns": ec.pool_spawns,
                "pool_batches": ec.pool_batches,
                "warm_jobs_per_s": round(ec.warm_rate, 1),
                "summary": self.engine.summary(),
            },
        }
