"""Cold-job planner: partition properties and geometry-only staging.

Covers the two contracts the bulk analytic path rests on:

* :func:`repro.eval.planner.plan_batch` is an **exact cover** of the
  batch — every index in exactly one of (bulk, pooled), order
  preserved — and, because eligibility is a pure per-job predicate,
  the partition is permutation-invariant (property-tested);
* :func:`repro.kernels.layout.plan_spmm` replays
  :func:`~repro.kernels.layout.stage_spmm`'s allocation sequence
  exactly: same addresses, same strides, same out-of-memory error at
  the same allocation — verified against real staged operands over a
  shape grid.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.eval.planner as planner
from repro.arch.config import ProcessorConfig
from repro.arch.memory import FlatMemory
from repro.errors import SimulationError
from repro.eval.engine import SimJob
from repro.eval.planner import bulk_eligible, job_geometry, plan_batch
from repro.kernels.compiler.spec import Schedule
from repro.kernels.layout import plan_spmm, stage_spmm
from repro.nn.workload import FULL, SMALL, TINY, make_workload

ANALYTIC = "analytic-sampled"


def _shape_job(kernel="indexmac-spmm", nm=(2, 4), seed=0,
               backend=ANALYTIC, schedule=Schedule(), **kwargs):
    return SimJob.for_shape(32, 96, 32, nm, kernel, seed=seed,
                            backend=backend, schedule=schedule, **kwargs)


#: A pool of jobs spanning every eligibility outcome the planner can
#: reach: bulk-routed analytic jobs, functional backends, the CSR
#: baseline (no geometry-only trace), an oversized vlmax, and an
#: unknown model.
def _job_pool():
    return [
        _shape_job(),                                     # bulk
        _shape_job(kernel="rowwise-spmm", seed=3),        # bulk
        _shape_job(nm=(1, 4), schedule=Schedule(cores=2)),  # bulk, multicore
        _shape_job(backend="detailed"),                   # pooled: functional
        _shape_job(backend="batch-replay"),               # pooled: functional
        _shape_job(kernel="csr-spmm"),                    # pooled: no trace
        _shape_job(schedule=Schedule(vlmax=4096)),        # pooled: bad vlmax
        SimJob.for_layer("resnet50", "nosuchlayer", (2, 4), FULL,
                         "indexmac-spmm", backend=ANALYTIC),  # pooled
    ]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_plan_batch_is_permutation_invariant_exact_cover(data):
    pool = _job_pool()
    picks = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(pool) - 1), max_size=12))
    jobs = [pool[i] for i in picks]

    plan = plan_batch(jobs)
    # exact cover: every index exactly once, order preserved per side
    assert sorted(plan.bulk + plan.pooled) == list(range(len(jobs)))
    assert list(plan.bulk) == sorted(plan.bulk)
    assert list(plan.pooled) == sorted(plan.pooled)

    # permutation invariance: the *jobs* routed to each side are a pure
    # function of the job set, independent of submission order
    perm = data.draw(st.permutations(list(range(len(jobs)))))
    shuffled = [jobs[i] for i in perm]
    replanned = plan_batch(shuffled)
    assert sorted(plan.bulk + plan.pooled) \
        == sorted(replanned.bulk + replanned.pooled)
    for side in ("bulk", "pooled"):
        original = [id(jobs[i]) for i in getattr(plan, side)]
        permuted = [id(shuffled[i]) for i in getattr(replanned, side)]
        assert sorted(original) == sorted(permuted)


def test_bulk_eligibility_per_job():
    pool = _job_pool()
    assert [bulk_eligible(job) for job in pool] == [
        True, True, True, False, False, False, False, False]


def test_eligibility_never_raises_on_broken_jobs():
    # jobs the pooled path would reject must plan as pooled, not raise
    # (a synthetic n > m job is refused when it is built)
    bad = [
        SimJob.for_layer("resnet50", "conv1", (8, 4), FULL,
                         "indexmac-spmm", backend=ANALYTIC),  # n > m
        SimJob.for_layer("nosuchmodel", "x", (2, 4), FULL,
                         "indexmac-spmm", backend=ANALYTIC),
    ]
    plan = plan_batch(bad)
    assert plan.bulk == () and plan.pooled == (0, 1)


# ----------------------------------------------------------------------
# plan_batch plans each distinct geometry once
# ----------------------------------------------------------------------
def _geometry_grid(twin: int):
    """Both workload sources over three N:M patterns, two tile heights
    and three memory sizes (the smaller ones run out of memory for some
    geometries), plus malformed jobs.  ``twin`` picks the operand seed
    and the verify flag, which the geometry never reads."""
    base = ProcessorConfig.scaled_default()
    jobs = []
    for memory in (base.memory_bytes, 2**15, 2**13):
        config = replace(base, memory_bytes=memory)
        for nm in ((1, 4), (2, 4), (2, 8)):
            for tile_rows in (8, 16):
                schedule = Schedule(tile_rows=tile_rows)
                jobs.append(_shape_job(nm=nm, seed=twin, schedule=schedule,
                                       config=config))
                jobs += [SimJob.for_layer(
                    "resnet50", "conv2_1_3x3", nm, policy, "rowwise-spmm",
                    schedule=schedule, config=config, backend=ANALYTIC,
                    verify=bool(twin)) for policy in (TINY, SMALL)]
    return jobs + [
        SimJob.for_layer("resnet50", "nosuchlayer", (2, 4), TINY,
                         "indexmac-spmm", backend=ANALYTIC),
        SimJob.for_layer("resnet50", "conv1", (8, 4), TINY,
                         "indexmac-spmm", backend=ANALYTIC),  # n > m
        _shape_job(schedule=Schedule(vlmax=4096), seed=twin),
    ]


def test_plan_batch_geometries_match_per_job_geometry(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return plan_spmm(*args)

    monkeypatch.setattr(planner, "plan_spmm", counting)
    jobs = _geometry_grid(0)
    plan_batch(jobs)
    distinct = len(calls)
    calls.clear()
    # the twins share every geometry input: nothing more is planned
    batch = jobs + _geometry_grid(1)
    plan = plan_batch(batch)
    assert len(calls) == distinct
    assert sorted(plan.bulk + plan.pooled) == list(range(len(batch)))
    # some well-formed jobs run out of simulated memory: both sides
    assert 0 < len(plan.bulk) < len(batch) - 6
    for index, geometry in zip(plan.bulk, plan.geometries):
        assert geometry == job_geometry(batch[index])
    for index in plan.pooled:
        assert not bulk_eligible(batch[index])
    # the malformed jobs (the last three of each half) stay pooled
    malformed = [len(jobs) - 3 + i for i in range(3)]
    malformed += [len(batch) - 3 + i for i in range(3)]
    assert set(malformed) <= set(plan.pooled)


# ----------------------------------------------------------------------
# plan_spmm vs stage_spmm: the geometry-only replay must be exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rows,k,n_cols,n,m,tile_rows", [
    (16, 48, 16, 1, 4, 16),
    (32, 96, 32, 2, 4, 16),
    (33, 100, 48, 2, 4, 8),     # ragged k: padding in play
    (64, 192, 64, 2, 8, 16),
    (8, 24, 16, 4, 4, 8),       # dense n == m
])
def test_plan_spmm_matches_staged_operands(rows, k, n_cols, n, m,
                                           tile_rows):
    rng = np.random.default_rng(7)
    a, b = make_workload(rows, k, n_cols, n, m, rng, tile_rows=tile_rows)
    memory_bytes = ProcessorConfig.scaled_default().memory_bytes
    staged = stage_spmm(FlatMemory(memory_bytes), a, b)
    planned = plan_spmm(a.rows, a.cols, b.shape[1], n, m, memory_bytes)
    assert planned == staged


def test_plan_spmm_oom_matches_stage_spmm():
    rng = np.random.default_rng(7)
    a, b = make_workload(64, 192, 64, 2, 4, rng)
    tiny = 4096
    with pytest.raises(SimulationError) as staged_err:
        stage_spmm(FlatMemory(tiny), a, b)
    with pytest.raises(SimulationError) as planned_err:
        plan_spmm(a.rows, a.cols, b.shape[1], 2, 4, tiny)
    assert str(planned_err.value) == str(staged_err.value)


def test_job_geometry_matches_pooled_staging():
    # the planner's per-job geometry must equal what the pooled path
    # stages for the same job (shape source; layer source is covered
    # end-to-end by the bulk-vs-per-job identity tests)
    job = _shape_job()
    rng = np.random.default_rng(0)
    a, b = make_workload(32, 96, 32, *job.nm, rng,
                         tile_rows=job.schedule.tile_rows)
    staged = stage_spmm(FlatMemory(job.config.memory_bytes), a, b)
    assert job_geometry(job) == staged
