"""In-process bulk evaluator for non-functional (analytic) cold jobs.

The per-job cold path pays, for *every* job: operand generation,
processor construction, staging, trace compilation, a profile walk and
a pool round-trip — even though for the ``analytic-sampled`` backend
nothing executes and the result is a pure function of the compiled
trace's static profile.  For sweep workloads (schedule x pattern x
µarch grids) hundreds of jobs share one trace structure, so almost all
of that work is redundant.

:func:`evaluate_bulk` prices a whole batch in-process:

1. **layout** — each job's staged geometry comes from the planner,
   which computed it with :func:`~repro.eval.planner.job_geometry`
   (pure arithmetic; no operand arrays are ever materialised) while
   routing the job;
2. **compile** — traces are compiled once per distinct
   ``(kernel, staged geometry, shard schedule)`` in the batch, the key
   the pooled path's per-process trace memo uses too
   (:func:`repro.eval.runner._trace_for`): jobs that differ only in
   operand *values* (seeds) or in µarch knobs the trace does not see
   share the compiled trace, because trace compilation never reads
   memory contents;
3. **profile** — each distinct trace is profiled once per
   ``(vlmax, line_bytes)`` — the only config knobs
   :func:`~repro.analytic.calibration.profile_trace` consumes;
4. **price** — one feature matrix over the deduplicated profiles,
   priced by :meth:`CalibrationTable.predict_many` (bit-identical to
   per-row :meth:`predict`), then results assembled through the same
   :meth:`AnalyticSampledBackend.price` and
   :func:`~repro.eval.runner.merge_shard_runs` code paths the per-job
   runner uses.  Each profile row is priced once into one
   :class:`~repro.eval.runner.KernelRun` that all single-core jobs on
   the row share; its ``wall_seconds`` is the row's pricing time split
   evenly among those jobs, so the engine's ``sim_seconds`` still adds
   up to the time spent.  A multicore job keeps its own merged run.

The results are **observationally identical** to the per-job path:
same ``job_hash`` keys (and the same refusal of a job whose calibration
digest is not the active table's), bit-identical ``Run`` payloads (only the
``wall_seconds`` bookkeeping field, which is exempt from bit-exact
comparison, differs) — so cache entries written by either path
interchange.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analytic.calibration import active_table, profile_trace
from repro.arch.timing import get_backend
from repro.eval.engine import check_calibration
from repro.eval.runner import KernelRun, ShardRun, merge_shard_runs
from repro.kernels.compiler import get_trace_kernel
from repro.kernels.compiler.tiling import shard_rows

#: Stage keys reported in the engine's cold-path accounting.
BULK_STAGES = ("compile", "profile", "price")

_EMPTY_C = np.empty((0, 0), dtype=np.float32)


def evaluate_bulk(jobs, geometries
                  ) -> tuple[list[KernelRun], dict[str, float]]:
    """Price ``jobs`` (bulk-eligible SimJobs) in one in-process sweep.

    ``geometries`` are the jobs' staged layouts, as
    :attr:`~repro.eval.planner.JobPlan.geometries` holds them.  A job
    built under another calibration table than the active one is
    refused with :class:`~repro.errors.EngineError` before anything is
    priced.  Returns
    ``(runs, stage_seconds)``: one :class:`KernelRun` per job in
    submission order, plus wall-clock seconds per cold-path stage (see
    :data:`BULK_STAGES`).  Single-core jobs on one priced profile row
    share one run, whose ``wall_seconds`` is each job's share of the
    row's pricing time; treat the runs as read-only.
    """
    jobs = list(jobs)
    stage = {name: 0.0 for name in BULK_STAGES}
    table = active_table()
    digest = table.digest()
    for job in jobs:
        check_calibration(job, digest)

    # 2./3. compile + profile, deduplicated.  tasks[i] is the job's
    # per-shard work list: (shard | None, row_start, row_count,
    # profile_index, dynamic_length).
    traces: dict[tuple, tuple] = {}       # trace key -> (trace, dyn_len)
    profile_index: dict[tuple, int] = {}  # profile key -> matrix row
    profiles: list = []                   # matrix row -> TraceProfile
    tasks: list[list[tuple]] = []

    def priced_shard(job, staged, shard_schedule, shard, start, count):
        trace_key = (job.kernel, staged, shard_schedule)
        entry = traces.get(trace_key)
        if entry is None:
            t0 = time.perf_counter()
            trace = get_trace_kernel(job.kernel)(staged, shard_schedule)
            entry = (trace, trace.dynamic_length)
            traces[trace_key] = entry
            stage["compile"] += time.perf_counter() - t0
        key = (trace_key, job.config.vector.vlmax,
               job.config.l2.line_bytes)
        row = profile_index.get(key)
        if row is None:
            t0 = time.perf_counter()
            row = len(profiles)
            profiles.append(profile_trace(entry[0], job.config))
            profile_index[key] = row
            stage["profile"] += time.perf_counter() - t0
        return (shard, start, count, row, entry[1])

    for job, staged in zip(jobs, geometries):
        cores = job.schedule.cores
        if cores > 1:
            shards = shard_rows(staged.rows, cores)
            tasks.append([
                priced_shard(job, staged, job.schedule.for_shard(i),
                             i, start, count)
                for i, (start, count) in enumerate(shards)])
        else:
            tasks.append([priced_shard(job, staged, job.schedule,
                                       None, 0, staged.rows)])

    # 4. price the deduplicated feature matrix, then assemble per-job
    # results through the same code paths the per-job runner uses:
    # one run per priced profile row, shared by its single-core jobs
    t0 = time.perf_counter()
    cycles = table.predict_many(
        np.array([p.features() for p in profiles], dtype=np.float64)
        if profiles else np.empty((0, 0)))
    backends = {job.backend: get_backend(job.backend) for job in jobs}
    runs: list[KernelRun | None] = [None] * len(jobs)
    # (row, dynamic length, kernel, backend) -> the positions of the
    # row's single-core jobs (the row fixes the length and the kernel)
    shared: dict[tuple, list[int]] = {}
    for position, (job, work) in enumerate(zip(jobs, tasks)):
        shard, _, _, row, dyn = work[0]
        if shard is None:  # single-core: one task, the whole row space
            shared.setdefault((row, dyn, job.kernel, job.backend),
                              []).append(position)
            continue
        shard_runs = []
        for shard, start, count, row, dyn in work:
            t1 = time.perf_counter()
            result = backends[job.backend].price(
                profiles[row], table, dyn, cycles=float(cycles[row]))
            result.stats.extra["wall_seconds"] = (time.perf_counter()
                                                  - t1)
            shard_runs.append(ShardRun(
                kernel=job.kernel, shard=shard, row_start=start,
                row_count=count, result=result, c=_EMPTY_C))
        runs[position] = merge_shard_runs(job.kernel, shard_runs,
                                          job.backend, verify=job.verify)
    for (row, dyn, kernel, backend), positions in shared.items():
        t1 = time.perf_counter()
        result = backends[backend].price(profiles[row], table, dyn,
                                         cycles=float(cycles[row]))
        # each job's share, so the shares add up to the pricing time
        result.stats.extra["wall_seconds"] = ((time.perf_counter() - t1)
                                              / len(positions))
        run = KernelRun(kernel=kernel, stats=result.stats, verified=False,
                        backend=backend)
        for position in positions:
            runs[position] = run
    stage["price"] += time.perf_counter() - t0
    return runs, stage
