"""Bulk analytic path: observational identity with the per-job path.

The contract: an engine batch, whose bulk-eligible jobs the planner
prices in bulk, must produce the same ``job_hash`` keys and
bit-identical ``Run`` payloads as running each job on its own through
:func:`~repro.eval.engine.execute_job` (the pooled path's entry point)
— only the ``wall_seconds`` bookkeeping field may differ — so cache
entries written by either path interchange.  Analytic runs must also
carry the active calibration table's sha256 in ``stats.extra``.
"""

import itertools
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

import repro.analytic.bulk as bulk
from repro.analytic.calibration import active_table
from repro.arch.config import ProcessorConfig
from repro.eval.engine import (
    ExperimentEngine,
    ResultCache,
    SimJob,
    execute_job,
    job_hash,
)
from repro.eval.planner import plan_batch
from repro.kernels.compiler.spec import Schedule

ANALYTIC = "analytic-sampled"


def _mixed_jobs():
    """Shape + layer + multicore + CSR + detailed: both planner sides."""
    jobs = [
        SimJob.for_shape(32, 96, 32, nm, kernel, seed=seed,
                         backend=ANALYTIC)
        for kernel in ("rowwise-spmm", "indexmac-spmm")
        for nm in ((1, 4), (2, 4))
        for seed in (0, 1)
    ]
    from repro.nn import POLICIES
    jobs += [
        SimJob.for_layer("resnet50", "conv1", (2, 4), POLICIES["tiny"],
                         "indexmac-spmm", backend=ANALYTIC),
        SimJob.for_shape(32, 96, 32, (2, 4), "indexmac-spmm",
                         schedule=Schedule(cores=3), backend=ANALYTIC),
        SimJob.for_shape(32, 96, 32, (2, 4), "csr-spmm",
                         backend=ANALYTIC),     # pooled: no static trace
        SimJob.for_shape(16, 48, 16, (2, 4), "indexmac-spmm",
                         backend="detailed"),   # pooled: functional
    ]
    return jobs


def _stripped(run):
    stats = asdict(run.stats)
    stats["extra"] = {k: v for k, v in stats["extra"].items()
                      if k != "wall_seconds"}
    return run.kernel, run.verified, run.backend, stats


@pytest.fixture(scope="module")
def both_paths(tmp_path_factory):
    jobs = _mixed_jobs()
    bulk_dir = tmp_path_factory.mktemp("bulk-cache")

    bulk_engine = ExperimentEngine(jobs=1, cache_dir=bulk_dir)
    bulk_runs = bulk_engine.run(jobs)
    bulk_engine.shutdown(wait=False)

    perjob_runs = [execute_job(job) for job in jobs]
    return jobs, bulk_dir, bulk_engine, bulk_runs, perjob_runs


def test_planner_split_counters(both_paths):
    jobs, _, engine, _, _ = both_paths
    assert engine.counters.bulk_jobs == len(jobs) - 2
    assert engine.counters.pooled_jobs == 2
    assert engine.counters.simulated == len(jobs)


def test_bulk_results_bit_identical_to_per_job(both_paths):
    _, _, _, bulk_runs, perjob_runs = both_paths
    for bulk, perjob in zip(bulk_runs, perjob_runs):
        assert _stripped(bulk) == _stripped(perjob)


def test_cache_entries_interchange(both_paths, tmp_path):
    # a fresh engine pointed at the engine-written cache answers the
    # whole batch with zero simulations, every cold result read back
    # equal, wall_seconds included
    jobs, bulk_dir, _, bulk_runs, perjob_runs = both_paths
    warm = ExperimentEngine(jobs=1, cache_dir=bulk_dir)
    warm_runs = warm.run(jobs)
    warm.shutdown(wait=False)
    assert warm.counters.simulated == 0
    for cold, replayed in zip(bulk_runs, warm_runs):
        assert replayed == cold
    # per-job results stored under the same keys serve the engine too
    ResultCache(tmp_path).store_many(
        (job_hash(job), job, run) for job, run in zip(jobs, perjob_runs))
    warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    warm_runs = warm.run(jobs)
    warm.shutdown(wait=False)
    assert warm.counters.simulated == 0
    for cold, replayed in zip(bulk_runs, warm_runs):
        assert _stripped(replayed) == _stripped(cold)


def test_job_hash_untouched_by_bulk_provenance(both_paths):
    # extra-dict provenance must not perturb cache identity: hashing
    # the same job twice (before/after runs landed) is stable
    jobs, _, _, _, _ = both_paths
    assert [job_hash(job) for job in jobs] == [job_hash(job)
                                              for job in jobs]


def test_summary_reports_planner_split(both_paths):
    _, _, engine, _, _ = both_paths
    summary = engine.summary()
    assert summary.startswith("engine:")
    assert "split 10 bulk/2 pooled/0 warm" in summary
    for stage in ("operands", "compile", "profile", "price", "pooled",
                  "store"):
        assert stage in summary


def test_analytic_runs_carry_calibration_provenance(both_paths):
    jobs, _, _, bulk_runs, perjob_runs = both_paths
    sha = active_table().sha256()
    for job, bulk, perjob in zip(jobs, bulk_runs, perjob_runs):
        for run in (bulk, perjob):
            if job.backend == ANALYTIC:
                assert run.stats.extra["calibration_sha256"] == sha
                assert run.stats.extra["calibration"] == sha[:16]
            else:
                assert "calibration_sha256" not in run.stats.extra


# ----------------------------------------------------------------------
# One run per priced profile
# ----------------------------------------------------------------------
def _sharing_jobs():
    """Four operand seeds (which pricing never reads) at each of two L2
    line sizes, single-core and on three cores."""
    base = ProcessorConfig.scaled_default()
    wide = replace(base, l2=replace(base.l2, line_bytes=128))
    return [SimJob.for_shape(32, 96, 32, (2, 4), "indexmac-spmm",
                             seed=seed, backend=ANALYTIC, config=config,
                             schedule=schedule)
            for config in (base, wide)
            for schedule in (Schedule(), Schedule(cores=3))
            for seed in range(4)]


@pytest.fixture(scope="module")
def shared_runs(tmp_path_factory):
    jobs = _sharing_jobs()
    engine = ExperimentEngine(jobs=1,
                              cache_dir=tmp_path_factory.mktemp("shared"))
    runs = engine.run(jobs)
    engine.shutdown(wait=False)
    reference = [execute_job(job) for job in jobs]
    return jobs, engine, runs, reference


def test_jobs_on_one_priced_profile_share_their_stats(shared_runs):
    jobs, engine, runs, _ = shared_runs
    assert engine.counters.bulk_jobs == len(jobs)
    points: dict[tuple, list] = {}
    for job, run in zip(jobs, runs):
        points.setdefault((job.config.l2.line_bytes, job.schedule.cores),
                          []).append(run)
    assert len(points) == 4
    for members in points.values():
        assert len(members) == 4
        for run in members:
            assert _stripped(run) == _stripped(members[0])
            assert run.wall_seconds > 0.0


def test_a_shared_run_splits_its_pricing_time_evenly(monkeypatch):
    # every timed span of the evaluator lasts exactly one tick
    ticks = itertools.count()
    monkeypatch.setattr(bulk, "time", SimpleNamespace(
        perf_counter=lambda: float(next(ticks))))
    jobs = _sharing_jobs()
    runs, _ = bulk.evaluate_bulk(jobs, plan_batch(jobs).geometries)
    # a single-core job's share of its row's one tick, so the shares
    # add up to the time; a multicore job's own three shards
    assert [run.wall_seconds for run in runs] == [
        0.25 if job.schedule.cores == 1 else 3.0 for job in jobs]


def test_single_core_jobs_share_a_run_and_multicore_jobs_keep_theirs(
        shared_runs):
    jobs, _, runs, _ = shared_runs
    single = [run for job, run in zip(jobs, runs) if job.schedule.cores == 1]
    multi = [run for job, run in zip(jobs, runs) if job.schedule.cores > 1]
    assert len({id(run) for run in single}) == 2  # one per line size
    assert len({id(run) for run in multi}) == len(multi) == 8
    assert all(run.cores == 3 for run in multi)


def test_shared_runs_match_the_per_job_path(shared_runs):
    _, _, runs, reference = shared_runs
    for run, ref in zip(runs, reference):
        assert _stripped(run) == _stripped(ref)


def test_table_digest_is_sha256_prefix():
    table = active_table()
    assert table.digest() == table.sha256()[:16]
    assert len(table.sha256()) == 64


def test_predict_many_bitwise_equals_predict():
    table = active_table()
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((64, len(table.weights)))
    many = table.predict_many(matrix)
    assert many.dtype == np.float64
    for row, cycles in zip(matrix, many):
        # bit-for-bit, not approx: cached results must not depend on
        # whether pricing went through the bulk path
        assert float(cycles) == table.predict(row)


def test_predict_many_empty():
    table = active_table()
    assert table.predict_many(np.empty((0, 0))).shape == (0,)
