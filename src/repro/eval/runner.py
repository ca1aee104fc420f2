"""Run kernels on the simulated processor and collect results.

Single-core runs stage the operands once, compile one trace, and time
it with the selected backend.  Multi-core runs (``Schedule(cores=N)``)
shard the output-row space: each simulated core gets its own processor
(private caches + staged operand copy) and a per-shard trace compiled
with ``schedule.for_shard(i)``; the per-core cycle streams are merged
by :mod:`repro.arch.timing.multicore` into makespan cycles plus
aggregated counters, and the per-core ``C`` row slices are stitched
back together and verified as one matrix.  The experiment engine
(:mod:`repro.eval.engine`) fans the per-shard executions out across
its worker-process pool; the in-process path here runs them
sequentially with identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.arch.config import ProcessorConfig
from repro.arch.processor import DecoupledProcessor
from repro.arch.stats import ExecutionStats
from repro.arch.timing import (
    DETAILED,
    BackendResult,
    get_backend,
    get_backend_class,
    merge_core_results,
    resolve_backend,
)
from repro.errors import KernelError, SimulationError
from repro.eval.memo import worker_memo
from repro.kernels.compiler import SPECS, Schedule, get_spec, get_trace_kernel
from repro.kernels.layout import read_result, stage_csr, stage_spmm
from repro.nn.workload import LayerWorkload
from repro.sparse.blocksparse import NMSparseMatrix


@dataclass(frozen=True)
class KernelRun:
    """Result of one kernel execution on the simulator."""

    kernel: str
    stats: ExecutionStats
    verified: bool
    backend: str = DETAILED

    @property
    def cycles(self) -> float:
        return self.stats.cycles

    @property
    def timed_instructions(self) -> int:
        """Instructions that received detailed timing (== ``stats.
        instructions`` for the ``detailed`` backend)."""
        return self.stats.extra.get("timed_instructions",
                                    self.stats.instructions)

    @property
    def cores(self) -> int:
        """Simulated cores that produced this result (1 = single-core)."""
        return self.stats.extra.get("cores", 1)

    @property
    def wall_seconds(self) -> float:
        """Host wall-clock the simulation took (0.0 for cached runs
        loaded from a cache written before this field existed).  A job
        priced on the bulk path reports its share of its profile row's
        pricing time (see :mod:`repro.analytic.bulk`)."""
        return self.stats.extra.get("wall_seconds", 0.0)


@dataclass(frozen=True)
class ShardRun:
    """One core's slice of a sharded kernel execution."""

    kernel: str
    shard: int           #: core index in ``range(schedule.cores)``
    row_start: int       #: first output row this core owns
    row_count: int       #: rows this core computed (may be 0)
    result: BackendResult
    c: np.ndarray        #: this core's C rows, (row_count, n_cols)

    @property
    def cycles(self) -> float:
        return self.result.stats.cycles


def _check_vlmax(kernel: str, vlmax: int, config: ProcessorConfig) -> None:
    """Reject schedules whose vector length exceeds the hardware's.

    ``vsetvli`` would silently cap ``vl`` and the kernel's slide-driven
    inner loops would then compute garbage — fail loudly instead.
    """
    if vlmax > config.vector.vlmax:
        raise KernelError(
            f"schedule vlmax={vlmax} exceeds the configured vector "
            f"engine's VLMAX={config.vector.vlmax} "
            f"({config.vector.vlen_bits}-bit registers, "
            f"{config.vector.sew_bits}-bit elements) for {kernel!r}")


def _verify_result(kernel: str, got: np.ndarray, a: NMSparseMatrix,
                   b: np.ndarray) -> None:
    """Check a simulated C against the float64 numpy reference.

    A mismatch raises — a wrong result must never be reported as a
    timing win.
    """
    ref = a.to_dense().astype(np.float64) @ b.astype(np.float64)
    if not np.allclose(got, ref, rtol=1e-3, atol=1e-3):
        worst = float(np.abs(got - ref).max())
        raise SimulationError(
            f"kernel {kernel!r} produced a wrong result "
            f"(max abs error {worst:.3e})")


def _trace_for(kernel: str, staged, schedule: Schedule):
    """Compile (or recall) ``kernel``'s trace over ``staged`` under
    ``schedule``.

    Besides the kernel's spec and the schedule, the staged layout is
    all compilation reads: geometry and addresses (a fresh simulated
    memory allocates sequentially), plus the row pointers of a CSR
    matrix, never the operand values.  So the per-process memo keys on
    ``(kernel, staged, schedule.cache_key())``: two seeds of one N:M
    shape share a trace, and two CSR matrices share one only when
    their row structure is equal.  Traces are immutable during
    execution, so reuse is bit-exact.
    """
    return worker_memo("traces", 32).get(
        (kernel, staged, schedule.cache_key()),
        lambda: get_trace_kernel(kernel)(staged, schedule))


def _csr_for(a: NMSparseMatrix, memo_key):
    """Re-encode A as CSR, memoised per process by the operands' content
    identity (the engine's :func:`~repro.eval.engine.operand_identity`;
    ``None`` always re-encodes).  The conversion is a pure densify +
    re-compress of A."""
    from repro.sparse.csr import CSRMatrix

    if memo_key is None:
        return CSRMatrix.from_dense(a.to_dense())
    return worker_memo("operands", 8).get(
        ("csr", memo_key), lambda: CSRMatrix.from_dense(a.to_dense()))


#: Name of the unstructured CSR baseline (the A4 ablation): it runs the
#: same N:M operands, re-encoded as plain CSR at equal density.
CSR_KERNEL = "csr-spmm"

#: Kernels a job can run: every spec whose operands are staged from an
#: N:M matrix A — directly, or re-encoded as CSR.  Algorithm 1
#: (``dense-rowwise``, dense A) has no job workload.
JOB_KERNELS = tuple(name for name, spec in SPECS.items()
                    if spec.operand in ("nm-sparse", "csr"))


def _kernel_schedule(kernel: str, schedule: Schedule) -> Schedule:
    """Project a job schedule onto the knobs ``kernel``'s nest has.

    The CSR kernel has no tiling/unroll/dataflow choice — only the
    vector length and the core count (plus shard) reach it, so its
    trace-memo keys ignore every other knob.
    """
    if get_spec(kernel).operand != "csr":
        return schedule
    return Schedule(vlmax=schedule.vlmax, cores=schedule.cores,
                    shard=schedule.shard)


def _stage(kernel: str, mem, a: NMSparseMatrix, b: np.ndarray, memo_key):
    """Stage ``C = A x B`` in the layout ``kernel``'s spec reads."""
    if get_spec(kernel).operand == "csr":
        return stage_csr(mem, _csr_for(a, memo_key), b)
    return stage_spmm(mem, a, b)


# ======================================================================
# Job kernels: N:M structured sparse (Algorithms 2 and 3) and CSR
# ======================================================================
def run_spmm_shard(a: NMSparseMatrix, b: np.ndarray, kernel: str,
                   schedule: Schedule, shard: int,
                   config: ProcessorConfig | None = None,
                   backend: str | None = None,
                   memo_key: str | None = None) -> ShardRun:
    """Execute one core's shard of ``C = A x B`` on a private processor.

    The core stages the full operands (its own memory image), but the
    compiled trace walks only shard ``shard``'s slice of the output
    rows; the returned :class:`ShardRun` carries exactly those C rows.
    """
    from repro.kernels.compiler.tiling import shard_rows

    backend = resolve_backend(backend)
    config = config or ProcessorConfig.scaled_default()
    schedule = _kernel_schedule(kernel, schedule)
    _check_vlmax(kernel, schedule.vlmax, config)
    proc = DecoupledProcessor(config)
    staged = _stage(kernel, proc.mem, a, b, memo_key)
    trace = _trace_for(kernel, staged, schedule.for_shard(shard))
    t0 = time.perf_counter()
    result = get_backend(backend).run(proc, trace)
    result.stats.extra["wall_seconds"] = time.perf_counter() - t0
    start, count = shard_rows(staged.rows, schedule.cores)[shard]
    c = read_result(proc.mem, staged)[start:start + count].copy()
    return ShardRun(kernel=kernel, shard=shard, row_start=start,
                    row_count=count, result=result, c=c)


def merge_shard_runs(kernel: str, shards, backend: str,
                     a: NMSparseMatrix | None = None,
                     b: np.ndarray | None = None,
                     verify: bool = True) -> KernelRun:
    """Stitch per-core shards into one verified :class:`KernelRun`.

    Shards are reordered by core index, their C row slices are
    concatenated back into the full output matrix (verified against the
    numpy reference when ``verify``), and the per-core timing results
    are merged into makespan cycles + aggregated counters by
    :func:`repro.arch.timing.multicore.merge_core_results`.
    """
    shards = sorted(shards, key=lambda s: s.shard)
    if [s.shard for s in shards] != list(range(len(shards))):
        raise SimulationError(
            f"kernel {kernel!r}: incomplete shard set "
            f"{[s.shard for s in shards]}")
    merged = merge_core_results([s.result for s in shards], backend)
    merged.merged.stats.extra["wall_seconds"] = sum(
        s.result.stats.extra.get("wall_seconds", 0.0) for s in shards)
    # calibration provenance (analytic backend): every shard was priced
    # by the same table, so the merged result carries it too
    for key in ("calibration", "calibration_sha256"):
        value = shards[0].result.stats.extra.get(key)
        if value is not None:
            merged.merged.stats.extra[key] = value
    verified = False
    if verify and get_backend_class(backend).functional:
        if a is None or b is None:
            raise SimulationError(
                "merge_shard_runs needs the operands to verify")
        c = np.vstack([s.c for s in shards])
        _verify_result(kernel, c, a, b)
        verified = True
    return KernelRun(kernel=kernel, stats=merged.merged.stats,
                     verified=verified, backend=backend)


def run_spmm(a: NMSparseMatrix, b: np.ndarray, kernel: str,
             schedule: Schedule = Schedule(),
             config: ProcessorConfig | None = None,
             verify: bool = True,
             backend: str | None = None,
             memo_key: str | None = None) -> KernelRun:
    """Stage ``C = A x B``, run ``kernel``, and optionally verify C.

    ``schedule`` lays the kernel out (the paper's by default).
    ``backend`` selects the timing model (``None`` resolves via
    ``$REPRO_BACKEND``, default ``detailed``); functional results are
    bit-exact under every backend, so verification is identical.  A
    schedule with ``cores=N > 1`` shards the output rows across N
    simulated cores and returns the merged multicore result.

    ``kernel`` is any :data:`JOB_KERNELS` name; its spec's operand
    format picks the staging.  For :data:`CSR_KERNEL` the N:M matrix
    is re-encoded as plain CSR (identical values and density) and only
    the schedule's ``vlmax`` and ``cores`` reach the kernel.
    """
    schedule = _kernel_schedule(kernel, schedule)
    if schedule.shard is not None:
        raise KernelError(
            "run_spmm executes whole kernels; for one core's slice use "
            "run_spmm_shard (shard selection is an execution detail)")
    backend = resolve_backend(backend)
    config = config or ProcessorConfig.scaled_default()
    if schedule.cores > 1:
        shards = [run_spmm_shard(a, b, kernel, schedule, i, config=config,
                                 backend=backend, memo_key=memo_key)
                  for i in range(schedule.cores)]
        return merge_shard_runs(kernel, shards, backend, a, b, verify)
    _check_vlmax(kernel, schedule.vlmax, config)
    proc = DecoupledProcessor(config)
    staged = _stage(kernel, proc.mem, a, b, memo_key)
    trace = _trace_for(kernel, staged, schedule)
    start = time.perf_counter()
    result = get_backend(backend).run(proc, trace)
    result.stats.extra["wall_seconds"] = time.perf_counter() - start
    verified = False
    # a non-functional backend (analytic-sampled) never writes C;
    # there is nothing to verify, and reading the result would compare
    # unwritten zeros against the reference
    if verify and get_backend_class(backend).functional:
        _verify_result(kernel, read_result(proc.mem, staged), a, b)
        verified = True
    return KernelRun(kernel=kernel, stats=result.stats, verified=verified,
                     backend=backend)


def run_layer(workload: LayerWorkload, kernel: str,
              schedule=Schedule(),
              config: ProcessorConfig | None = None,
              verify: bool = True,
              backend: str | None = None) -> KernelRun:
    """Run one CNN layer workload through ``kernel``.

    ``schedule`` is a :class:`Schedule` or a per-layer
    :class:`~repro.eval.schedules.SchedulePolicy` — the policy is
    resolved against the workload's layer identity (name, N:M pattern,
    original and simulated GEMM shapes) before the run.
    """
    from repro.eval.schedules import SchedulePolicy

    if isinstance(schedule, SchedulePolicy):
        schedule = schedule.resolve(
            kernel, workload.nm, layer=workload.layer_name,
            gemm=workload.original, scaled=workload.scaled)
    return run_spmm(workload.a, workload.b, kernel, schedule, config,
                    verify, backend)
