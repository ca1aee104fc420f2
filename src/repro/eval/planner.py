"""Cold-job planner: partition an engine batch by backend traits.

The experiment engine's cold path has two execution strategies:

* the **pooled** path (PR 7) — stage real operands, compile, and time
  each job on a worker process; mandatory for functional backends,
  whose results depend on operand values;
* the **bulk** path (:mod:`repro.analytic.bulk`) — for non-functional
  backends (``analytic-sampled``) nothing executes and the compiled
  trace is a pure function of the staged *geometry*, so whole sweeps
  can be priced in-process from one deduplicated feature matrix,
  skipping operand generation and pool dispatch entirely.

:func:`plan_batch` produces the partition as index tuples over the
batch.  It is an **exact cover**: every job index lands in exactly one
side, and eligibility is a pure per-job predicate, so the partition is
permutation-invariant (property-tested in
``tests/test_planner.py``).

Eligibility is conservative by construction: anything the geometry-only
plan cannot decide — unknown models, invalid N:M patterns, the int32
byte-offset guard's gray zone, kernels whose operands are not N:M (the
CSR baseline's trace depends on the matrix's actual sparsity
structure) — falls back to the pooled path, which either executes it
or raises the canonical error.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.timing import get_backend_class
from repro.errors import EngineError
from repro.kernels.compiler import get_spec
from repro.kernels.layout import StagedSpMM, plan_spmm
from repro.nn.layers import GemmShape
from repro.nn.models import get_model
from repro.nn.workload import FULL, check_workload, padded_gemm


@dataclass(frozen=True)
class JobPlan:
    """An exact cover of one batch: every index in exactly one tuple,
    each tuple preserving submission order."""

    bulk: tuple[int, ...]    #: indices taking the in-process bulk path
    pooled: tuple[int, ...]  #: indices taking the per-job pooled path
    #: the staged geometry of each bulk job, aligned with ``bulk``
    #: (computed while deciding eligibility, so it is planned once)
    geometries: tuple[StagedSpMM, ...] = ()


def job_geometry(job) -> StagedSpMM:
    """The staged layout of ``job``, computed from geometry alone.

    Mirrors what the pooled path materialises: the workload's (scaled,
    padded) GEMM shape from :func:`~repro.nn.workload.padded_gemm`,
    replayed through :func:`~repro.kernels.layout.plan_spmm`'s exact
    allocation sequence.  Raises (rather than guessing) for anything
    the pooled path would reject — the planner turns that into a
    pooled-side fallback.
    """
    n, m = job.nm
    if job.model is not None:
        layer = next((l for l in get_model(job.model)
                      if l.name == job.layer), None)
        if layer is None:
            raise EngineError(
                f"model {job.model!r} has no layer {job.layer!r}")
        gemm, policy = layer.gemm, job.policy
    else:
        rows, k, n_cols = job.shape
        gemm, policy = GemmShape(rows=rows, k=k, n=n_cols), FULL
    scaled = policy.scale(gemm)
    check_workload(scaled.rows, scaled.k, scaled.n, n, m)
    padded = padded_gemm(gemm, n, m, policy=policy,
                         tile_rows=job.schedule.tile_rows)
    return plan_spmm(padded.rows, padded.k, padded.n, n, m,
                     job.config.memory_bytes)


def _bulk_geometry(job) -> StagedSpMM | None:
    """``job``'s staged geometry if the bulk evaluator can price it,
    else None (see :func:`bulk_eligible`)."""
    try:
        backend_cls = get_backend_class(job.backend)
        if backend_cls.functional or not hasattr(backend_cls, "price"):
            return None
        if get_spec(job.kernel).operand != "nm-sparse":
            return None
        if job.schedule.vlmax > job.config.vector.vlmax:
            return None  # pooled raises the canonical KernelError
        return job_geometry(job)
    except Exception:
        return None


def bulk_eligible(job) -> bool:
    """Whether ``job`` can be priced by the in-process bulk evaluator.

    True only when the backend is non-functional (no operand values are
    ever read), the kernel reads N:M operands, the schedule
    fits the configured vector engine, and the staged geometry is
    computable without materialising operands.  Any planning failure
    routes the job to the pooled path, which raises the canonical
    error for genuinely invalid jobs.
    """
    return _bulk_geometry(job) is not None


def plan_batch(jobs) -> JobPlan:
    """Partition ``jobs`` (a sequence of SimJobs) into a :class:`JobPlan`.

    Every :func:`bulk_eligible` job takes the bulk path, the rest the
    pooled path; both give bit-identical payloads under the same keys.
    Jobs that share a geometry share one :class:`StagedSpMM` in
    ``geometries``.
    """
    bulk: list[int] = []
    pooled: list[int] = []
    geometries: list[StagedSpMM] = []
    # each distinct geometry is planned once, keyed on every job field
    # _bulk_geometry and job_geometry read; SimJob, Schedule and
    # ScalePolicy admit only plain ints, and the two config values are
    # only compared, so jobs with equal keys plan alike
    planned: dict[tuple, StagedSpMM | None] = {}
    for index, job in enumerate(jobs):
        schedule, config = job.schedule, job.config
        key = (job.backend, job.kernel, job.nm, job.model, job.layer,
               job.policy, job.shape, schedule.tile_rows, schedule.vlmax,
               config.vector.vlmax, config.memory_bytes)
        if key in planned:
            geometry = planned[key]
        else:
            geometry = planned[key] = _bulk_geometry(job)
        if geometry is None:
            pooled.append(index)
        else:
            bulk.append(index)
            geometries.append(geometry)
    return JobPlan(bulk=tuple(bulk), pooled=tuple(pooled),
                   geometries=tuple(geometries))
