"""Multi-core sharded simulation: sharding, fan-out, merge, scaling.

The acceptance contract: ``cores=1`` lowering is untouched (the golden
stream suite pins it), and for ``cores in {2, 4, 8}`` the stitched
multicore C is bit-identical to the single-core output with makespan
cycles never exceeding the single-core cycle count.
"""

import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.arch.timing import merge_core_results
from repro.errors import BackendError, EngineError, KernelError
from repro.eval.comparison import BASELINE, PROPOSED
from repro.eval.engine import (
    ExperimentEngine,
    SimJob,
    execute_job,
    job_hash,
)
from repro.eval.runner import (
    CSR_KERNEL,
    run_spmm,
    run_spmm_shard,
)
from repro.kernels import (
    Schedule,
    compile_trace,
    get_trace_kernel,
    read_result,
    stage_spmm,
)
from repro.kernels.compiler import shard_rows
from repro.nn.models import get_model
from repro.nn.workload import TINY, make_layer_workload, make_workload

CFG = ProcessorConfig.scaled_default()


def tiny_operands(rows=16, k=64, n=32, nm=(1, 4), seed=0):
    rng = np.random.default_rng(seed)
    return make_workload(rows, k, n, *nm, rng)


# ======================================================================
# shard_rows partitioning
# ======================================================================
def test_shard_rows_partitions_contiguously():
    for rows in (1, 7, 8, 13, 64):
        for cores in (1, 2, 3, 4, 8, 16):
            ranges = shard_rows(rows, cores)
            assert len(ranges) == cores
            assert ranges[0][0] == 0
            assert sum(count for _, count in ranges) == rows
            for (s0, c0), (s1, _) in zip(ranges, ranges[1:]):
                assert s1 == s0 + c0
            counts = [c for _, c in ranges]
            assert max(counts) - min(counts) <= 1  # balanced


def test_shard_rows_rejects_bad_cores():
    with pytest.raises(KernelError):
        shard_rows(8, 0)


# ======================================================================
# Schedule validation (cores/shard + the legacy knobs)
# ======================================================================
@pytest.mark.parametrize("kwargs", [
    dict(cores=0),
    dict(cores=-2),
    dict(cores=2.5),
    dict(cores="4"),
])
def test_schedule_rejects_bad_cores(kwargs):
    with pytest.raises(KernelError):
        Schedule(**kwargs)


def test_schedule_accepts_shard_zero_of_one_core():
    """shard 0 of the default single core is the degenerate
    whole-row-space shard — valid by the [0, cores) rule."""
    assert Schedule(shard=0).shard == 0


@pytest.mark.parametrize("kwargs", [
    dict(cores=4, shard=4),
    dict(cores=4, shard=-1),
    dict(cores=2, shard="0"),
    dict(shard=1),  # out of range for the default single core
])
def test_schedule_rejects_bad_shard(kwargs):
    with pytest.raises(KernelError):
        Schedule(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(unroll=3),
    dict(unroll=0),
    dict(tile_rows=0),
    dict(tile_rows=-16),
    dict(dataflow="diagonal"),
    dict(vlmax=0),
    dict(b_residency="l2"),
])
def test_schedule_rejects_bad_legacy_knobs(kwargs):
    with pytest.raises(KernelError):
        Schedule(**kwargs)


def test_schedule_dict_round_trip_with_cores():
    schedule = Schedule(tile_rows=8, unroll=2, cores=4, shard=2)
    assert Schedule.from_dict(schedule.to_dict()) == schedule
    # pre-multicore payloads (no cores/shard keys) load as single-core
    legacy = {k: v for k, v in Schedule().to_dict().items()
              if k not in ("cores", "shard")}
    assert Schedule.from_dict(legacy) == Schedule()


def test_cores_and_shard_key_the_schedule_hash():
    base = Schedule()
    assert Schedule(cores=2).cache_key() != base.cache_key()
    assert Schedule(cores=2, shard=0).cache_key() != \
        Schedule(cores=2).cache_key()


def test_for_shard_selects_one_core():
    schedule = Schedule(cores=4)
    assert schedule.for_shard(3) == replace(schedule, shard=3)
    with pytest.raises(KernelError):
        schedule.for_shard(4)


# ======================================================================
# Lowering: cores=1 untouched, shards partition the stream
# ======================================================================
def _staged(a, b):
    proc = DecoupledProcessor(CFG)
    return proc, stage_spmm(proc.mem, a, b)


def test_single_core_lowering_ignores_the_cores_field_shardless():
    """shard=None plans the whole row space whatever ``cores`` says;
    the golden suite separately pins cores=1 to the historical
    streams."""
    a, b = tiny_operands()
    _, staged = _staged(a, b)
    base = compile_trace(PROPOSED, staged, Schedule()).fingerprint()
    assert compile_trace(
        PROPOSED, staged, Schedule(cores=1, shard=0)).fingerprint() == base


@pytest.mark.parametrize("kernel", [BASELINE, PROPOSED])
@pytest.mark.parametrize("cores", [2, 4, 8])
def test_sharded_c_bit_identical_to_single_core(kernel, cores):
    a, b = tiny_operands(rows=13, nm=(2, 4), seed=1)  # odd row count
    proc, staged = _staged(a, b)
    from repro.arch.timing import get_backend

    get_backend("detailed").run(
        proc, get_trace_kernel(kernel)(staged, Schedule()))
    ref_c = read_result(proc.mem, staged)
    schedule = Schedule(cores=cores)
    shards = [run_spmm_shard(a, b, kernel, schedule, i, config=CFG)
              for i in range(cores)]
    c = np.vstack([s.c for s in shards])
    assert np.array_equal(c, ref_c)
    # row ranges tile the output space exactly
    assert [(s.row_start, s.row_count) for s in shards] == \
        list(shard_rows(staged.rows, cores))


def test_more_cores_than_rows_leaves_trailing_shards_empty():
    a, b = tiny_operands(rows=3)
    run = run_spmm(a, b, PROPOSED, schedule=Schedule(cores=8), config=CFG)
    assert run.verified
    assert run.cores == 8


# ======================================================================
# Makespan + merged counters (fig4 layers, all kernels, both backends)
# ======================================================================
@pytest.mark.parametrize("layer_name", ["conv1", "conv3_1_3x3"])
@pytest.mark.parametrize("kernel", [BASELINE, PROPOSED])
def test_fig4_layer_makespan_never_exceeds_single_core(layer_name,
                                                       kernel):
    layer = next(l for l in get_model("resnet50")
                 if l.name == layer_name)
    w = make_layer_workload(layer, 1, 4, policy=TINY)
    single = run_spmm(w.a, w.b, kernel, schedule=Schedule(), config=CFG)
    for cores in (2, 4, 8):
        multi = run_spmm(w.a, w.b, kernel,
                         schedule=Schedule(cores=cores), config=CFG)
        assert multi.verified
        assert multi.stats.cycles <= single.stats.cycles
        assert multi.cores == cores
        per_core = multi.stats.extra["per_core_cycles"]
        assert len(per_core) == cores
        assert multi.stats.cycles == max(per_core)


def test_multicore_composes_with_batch_replay():
    a, b = tiny_operands(rows=32, k=64, n=32)
    single = run_spmm(a, b, PROPOSED, schedule=Schedule(), config=CFG,
                      backend="batch-replay")
    multi = run_spmm(a, b, PROPOSED, schedule=Schedule(cores=4),
                     config=CFG, backend="batch-replay")
    assert multi.verified
    assert multi.backend == "batch-replay"
    assert multi.stats.cycles <= single.stats.cycles
    # instruction-class counts stay exact under the merge
    assert multi.stats.vindexmac_count == single.stats.vindexmac_count


def test_csr_multicore_verified_and_faster():
    a, b = tiny_operands()
    single = run_spmm(a, b, CSR_KERNEL, config=CFG)
    multi = run_spmm(a, b, CSR_KERNEL, config=CFG,
                     schedule=Schedule(cores=4))
    assert multi.verified
    assert multi.stats.cycles <= single.stats.cycles
    assert multi.cores == 4


def test_merge_core_results_aggregates_counters():
    a, b = tiny_operands()
    schedule = Schedule(cores=2)
    shards = [run_spmm_shard(a, b, PROPOSED, schedule, i, config=CFG)
              for i in range(2)]
    merged = merge_core_results([s.result for s in shards], "detailed")
    stats = merged.merged.stats
    parts = [s.result.stats for s in shards]
    assert stats.cycles == max(p.cycles for p in parts)
    assert stats.instructions == sum(p.instructions for p in parts)
    assert stats.vector_loads == sum(p.vector_loads for p in parts)
    assert stats.l2_misses == sum(p.l2_misses for p in parts)
    assert merged.cores == 2
    assert merged.makespan == stats.cycles
    assert 0.0 < merged.load_balance <= 1.0
    with pytest.raises(BackendError):
        merge_core_results([], "detailed")


def test_run_spmm_rejects_preset_shard():
    a, b = tiny_operands()
    with pytest.raises(KernelError):
        run_spmm(a, b, PROPOSED, schedule=Schedule(cores=2, shard=0),
                 config=CFG)


# ======================================================================
# Engine: cache identity, fan-out, parallel == serial
# ======================================================================
def multicore_job(cores, kernel=PROPOSED, nm=(1, 4)):
    return SimJob.for_shape(16, 32, 16, nm, kernel, seed=0, config=CFG,
                            schedule=Schedule(cores=cores))


def test_cores_is_part_of_the_job_hash():
    assert job_hash(multicore_job(1)) != job_hash(multicore_job(2))
    assert job_hash(multicore_job(2)) != job_hash(multicore_job(4))


def test_job_rejects_shard_carrying_schedules():
    with pytest.raises(EngineError):
        SimJob.for_shape(16, 32, 16, (1, 4), PROPOSED, seed=0,
                         config=CFG, schedule=Schedule(cores=2, shard=1))


def test_multicore_job_hash_stable_across_processes():
    """Multicore cache keys must be process-stable like every other
    field (the disk cache is shared between pool workers)."""
    code = (
        "from repro.arch import ProcessorConfig\n"
        "from repro.eval.engine import SimJob, job_hash\n"
        "from repro.kernels import Schedule\n"
        "job = SimJob.for_shape(16, 32, 16, (1, 4), 'indexmac-spmm',\n"
        "                       seed=0,\n"
        "                       config=ProcessorConfig.scaled_default(),\n"
        "                       schedule=Schedule(cores=4))\n"
        "print(job_hash(job))\n")
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    import os

    env = {**os.environ, "PYTHONPATH": src_dir}
    hashes = set()
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        hashes.add(out.stdout.strip())
    assert hashes == {job_hash(multicore_job(4))}


def test_multicore_result_round_trips_through_the_disk_cache(tmp_path):
    job = multicore_job(4)
    cold = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    first = cold.run([job])[0]
    assert cold.counters.simulated == 1
    warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    second = warm.run([job])[0]
    assert warm.counters.disk_hits == 1
    assert asdict(first.stats) == asdict(second.stats)
    assert second.cores == 4
    assert second.stats.extra["per_core_cycles"] == \
        first.stats.extra["per_core_cycles"]


def test_pool_fanout_matches_sequential_bit_exactly():
    """The engine shards multicore jobs across the pool; results must
    be bit-identical to the in-process sequential path."""
    jobs = [multicore_job(4), multicore_job(2, kernel=BASELINE),
            multicore_job(1)]
    serial = ExperimentEngine(jobs=1, cache=False).run(jobs)
    parallel = ExperimentEngine(jobs=2, cache=False).run(jobs)
    for s, p in zip(serial, parallel):
        ss, ps = asdict(s.stats), asdict(p.stats)
        # wall_seconds measures host time, not simulation results
        ss["extra"].pop("wall_seconds", None)
        ps["extra"].pop("wall_seconds", None)
        assert ss == ps
        assert s.verified == p.verified


def test_execute_job_handles_multicore_csr():
    run = execute_job(multicore_job(2, kernel=CSR_KERNEL))
    assert run.kernel == CSR_KERNEL
    assert run.verified
    assert run.cores == 2


# ======================================================================
# Scaling experiment + CLI surfaces
# ======================================================================
def test_run_scaling_reports_speedup_and_efficiency():
    from repro.eval.experiments import run_scaling

    result = run_scaling(models=("resnet50",), policy=TINY, config=CFG,
                         core_counts=(1, 2), sparsities=((1, 4),))
    assert result.check() == []
    key = ("resnet50", (1, 4))
    assert result.speedup(*key, 2) > 1.0
    assert 0.0 < result.efficiency(*key, 2) <= 1.0
    rendered = result.render()
    assert "Multi-core scaling" in rendered
    assert "2-core speedup" in rendered


def test_cli_scaling_check(capsys, tmp_path):
    from repro.cli import main

    table = tmp_path / "scaling.txt"
    code = main(["scaling", "--policy", "tiny", "--models", "resnet50",
                 "--cores", "1", "2", "--check",
                 "--table-out", str(table)])
    out = capsys.readouterr().out
    assert code == 0
    assert "scaling check ok" in out
    assert "Multi-core scaling" in table.read_text()


def test_cli_cache_reports_and_clears(capsys, tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    engine.run([multicore_job(2)])
    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert "entries:      1" in out
    assert "schema: 7" in out
    assert "detailed:" in out  # per-backend entry breakdown
    assert main(["cache", "--clear"]) == 0
    out = capsys.readouterr().out
    assert "cleared:      1" in out
    assert main(["cache"]) == 0
    assert "entries:      0" in capsys.readouterr().out


def test_cli_fig4_cores(capsys):
    from repro.cli import main

    assert main(["fig4", "--policy", "tiny", "--cores", "2",
                 "--no-cache"]) == 0
    assert "Fig. 4" in capsys.readouterr().out


# ======================================================================
# Tuner: cores + depth axes
# ======================================================================
def test_candidates_sweep_cores_and_depth_axes():
    from repro.eval.tuning import candidate_schedules

    base = candidate_schedules(PROPOSED, (1, 4))
    assert {s.cores for s in base} == {1}
    multi = candidate_schedules(PROPOSED, (1, 4), cores=(1, 2, 4))
    assert {s.cores for s in multi} == {1, 2, 4}
    assert len(multi) == 3 * len(base)
    vl = candidate_schedules(PROPOSED, (1, 4), sweep_vlmax=True)
    assert {s.vlmax for s in vl} == {4, 8, 16}
    for s in vl:  # the tile bound tightens with the vector length
        assert s.tile_rows <= 16
    init_c = candidate_schedules(PROPOSED, (1, 4), sweep_init_c=True)
    assert {s.init_c_zero for s in init_c} == {True, False}
    assert len(init_c) == 2 * len(base)


def test_tuned_multicore_winner_round_trips(tmp_path):
    from repro.eval.tuning import (
        load_tuned_schedule,
        save_tuned_schedule,
        tune,
    )

    engine = ExperimentEngine(jobs=1, cache=False)
    result = tune(PROPOSED, (1, 4), shape=(16, 32, 16),
                  schedules=[Schedule(cores=2), Schedule(cores=4)],
                  engine=engine)
    best = result.best.schedule
    assert best.cores in (2, 4)
    path = tmp_path / "tuned.json"
    save_tuned_schedule(path, result)
    assert load_tuned_schedule(path) == best
