"""Tests for per-layer schedule policies and the schedule book."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import EngineError, KernelError, TuningError
from repro.eval.comparison import BASELINE, PROPOSED
from repro.eval.engine import ExperimentEngine, SimJob, job_hash
from repro.eval.schedules import (
    BookEntry,
    FixedPolicy,
    HeuristicPolicy,
    ScheduleBook,
    TunedPolicy,
    coerce_policy,
    load_schedule_book,
    merge_schedule_books,
    save_schedule_book,
    shape_bucket,
)
from repro.kernels import Dataflow, Schedule, max_tile_rows
from repro.nn.layers import GemmShape
from repro.nn.models import get_model, unique_gemm_layers
from repro.nn.workload import TINY


def entry(layer="conv1", model="resnet50", kernel=PROPOSED, nm=(1, 4),
          schedule=None, shape=(64, 147, 12544)):
    return BookEntry(model=model, layer=layer, kernel=kernel, nm=nm,
                     schedule=schedule or Schedule(tile_rows=8),
                     shape=shape, cycles=100.0, default_cycles=120.0,
                     backend="detailed")


# ----------------------------------------------------------------------
# policy basics
# ----------------------------------------------------------------------
def test_fixed_policy_passes_its_options_through_unchanged():
    assert FixedPolicy().resolve(PROPOSED, (1, 4)) == Schedule()
    tuned = Schedule(tile_rows=8)
    assert FixedPolicy(options=tuned).resolve(PROPOSED, (1, 4)) is tuned


def test_coerce_policy_wraps_and_rejects():
    assert coerce_policy(None) == FixedPolicy()
    sched = Schedule(tile_rows=8)
    assert coerce_policy(sched) == FixedPolicy(options=sched)
    policy = HeuristicPolicy()
    assert coerce_policy(policy) is policy
    with pytest.raises(KernelError):
        coerce_policy(42)


def test_heuristic_policy_is_deterministic_and_valid():
    policy = HeuristicPolicy()
    for nm in ((1, 4), (2, 4), (2, 8)):
        for kernel in (BASELINE, PROPOSED):
            for shape in (GemmShape(8, 64, 32), GemmShape(64, 512, 16),
                          GemmShape(16, 32, 256)):
                a = policy.resolve(kernel, nm, scaled=shape)
                b = policy.resolve(kernel, nm, scaled=shape)
                assert a == b                       # deterministic
                assert a.tile_rows % nm[1] == 0     # whole blocks
                assert a.tile_rows <= max_tile_rows(*nm, 16)
                if kernel == PROPOSED:
                    assert a.tile_rows <= 16        # vreg budget
                assert a.dataflow is Dataflow.B_STATIONARY


def test_heuristic_policy_shapes_the_tile_to_the_row_space():
    policy = HeuristicPolicy()
    short = policy.resolve(BASELINE, (1, 4), scaled=GemmShape(8, 64, 256))
    tall = policy.resolve(BASELINE, (1, 4), scaled=GemmShape(512, 64, 16))
    assert short.tile_rows <= 8
    assert tall.tile_rows == max_tile_rows(1, 4, 16)


def test_heuristic_policy_cores_budget_respects_tile_coverage():
    policy = HeuristicPolicy(cores=4)
    tall = policy.resolve(PROPOSED, (1, 4), scaled=GemmShape(512, 64, 16))
    assert tall.cores == 4
    tiny = policy.resolve(PROPOSED, (1, 4), scaled=GemmShape(16, 64, 16))
    assert tiny.cores == 1  # a shard per tile would leave cores empty


# ----------------------------------------------------------------------
# schedule book: lookup order, round-trip, errors
# ----------------------------------------------------------------------
def test_book_lookup_resolution_order():
    """Exact layer -> shape bucket -> '*' default -> None."""
    exact = entry(layer="conv1", schedule=Schedule(tile_rows=4))
    bucket_twin = entry(layer="conv9", model="other",
                        schedule=Schedule(tile_rows=8),
                        shape=(200, 300, 400))
    star = BookEntry(model="*", layer="*", kernel=PROPOSED, nm=(1, 4),
                     schedule=Schedule(tile_rows=16))
    book = ScheduleBook(entries=(exact, bucket_twin, star))
    # 1. exact identity wins (even with a bucket-matching shape around)
    hit = book.lookup(PROPOSED, (1, 4), model="resnet50", layer="conv1",
                      gemm=GemmShape(64, 147, 12544))
    assert hit is exact
    # 2. unknown layer with a bucket-matching shape -> bucket entry
    hit = book.lookup(PROPOSED, (1, 4), model="resnet50", layer="convX",
                      gemm=GemmShape(250, 260, 500))
    assert shape_bucket(250, 260, 500) == shape_bucket(200, 300, 400)
    assert hit is bucket_twin
    # 3. no exact, no bucket -> the '*' default
    hit = book.lookup(PROPOSED, (1, 4), model="resnet50", layer="convX",
                      gemm=GemmShape(3, 3, 3))
    assert hit is star
    # 4. different nm/kernel -> nothing
    assert book.lookup(PROPOSED, (2, 4), model="resnet50",
                       layer="conv1") is None
    assert book.lookup(BASELINE, (1, 4), model="resnet50",
                       layer="conv1") is None


def test_book_lookup_without_model_matches_by_layer_name():
    """Callers that only know a bare workload (run_layer) still reach
    the exact per-layer entries by layer name."""
    exact = entry(layer="conv1", schedule=Schedule(tile_rows=4))
    bucket_twin = entry(layer="conv9", schedule=Schedule(tile_rows=8),
                        shape=(64, 147, 12544))  # conv1's bucket too
    book = ScheduleBook(entries=(exact, bucket_twin))
    hit = book.lookup(PROPOSED, (1, 4), layer="conv9",
                      gemm=GemmShape(64, 147, 12544))
    assert hit is bucket_twin  # not conv1's same-bucket entry


def test_book_round_trip_preserves_cache_keys(tmp_path):
    entries = (entry(layer="conv1", schedule=Schedule(tile_rows=4)),
               entry(layer="conv2", schedule=Schedule(tile_rows=8,
                                                      unroll=2)),
               BookEntry(model="*", layer="*", kernel=PROPOSED,
                         nm=(1, 4), schedule=Schedule()))
    book = ScheduleBook(entries=entries)
    path = tmp_path / "book.json"
    save_schedule_book(path, book)
    loaded = load_schedule_book(path)
    assert loaded == book
    for before, after in zip(book.entries, loaded.entries):
        assert after.schedule.cache_key() == before.schedule.cache_key()
    payload = json.loads(path.read_text())
    assert payload["version"] == 1
    assert payload["entries"][0]["schedule_cache_key"] == \
        entries[0].schedule.cache_key()


def test_book_load_errors_are_clean(tmp_path):
    with pytest.raises(TuningError, match="missing.json"):
        load_schedule_book(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(TuningError, match="bad.json"):
        load_schedule_book(bad)
    bad.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(TuningError, match="version"):
        load_schedule_book(bad)
    bad.write_text(json.dumps({"entries": [{"model": "m"}]}))
    with pytest.raises(TuningError):
        load_schedule_book(bad)
    # an entry that is not an object, or whose shape is not numbers
    bad.write_text(json.dumps({"version": 1, "entries": [1]}))
    with pytest.raises(TuningError, match="JSON object"):
        load_schedule_book(bad)
    bad.write_text(json.dumps({"version": 1, "entries": [
        dict(entry().to_dict(), shape=["a", "b", "c"])]}))
    with pytest.raises(TuningError, match="bad.json"):
        load_schedule_book(bad)


def test_merge_books_earlier_identities_win():
    a = ScheduleBook(entries=(entry(schedule=Schedule(tile_rows=4)),))
    b = ScheduleBook(entries=(entry(schedule=Schedule(tile_rows=8)),
                              entry(layer="conv2")))
    merged = merge_schedule_books([a, b])
    assert len(merged) == 3
    hit = merged.lookup(PROPOSED, (1, 4), model="resnet50", layer="conv1")
    assert hit.schedule.tile_rows == 4


def test_tuned_policy_resolves_and_falls_back():
    book = ScheduleBook(entries=(
        entry(layer="conv1", schedule=Schedule(tile_rows=4)),))
    policy = TunedPolicy(book=book)
    hit = policy.resolve(PROPOSED, (1, 4), model="resnet50",
                         layer="conv1")
    assert hit == Schedule(tile_rows=4)
    # unknown layer, no bucket/default -> paper default
    assert policy.resolve(PROPOSED, (1, 4), model="resnet50",
                          layer="convX") == Schedule()
    # cores override rewrites the resolved schedule's core count
    cores4 = TunedPolicy(book=book, cores=4)
    assert cores4.resolve(PROPOSED, (1, 4), model="resnet50",
                          layer="conv1").cores == 4
    # ... and the paper default of a layer the book does not cover
    assert cores4.resolve(PROPOSED, (1, 4), model="resnet50",
                          layer="convX") == Schedule(cores=4)
    assert TunedPolicy(book=ScheduleBook(), cores=4).resolve(
        "indexmac-spmm", (1, 4), model="resnet50",
        layer="conv1").cores == 4


# ----------------------------------------------------------------------
# policy-resolved cache keys: bit-identity and cross-process stability
# ----------------------------------------------------------------------
def tiny_layer_job(kernel, schedule):
    return SimJob.for_layer("resnet50", "conv3_1_3x3", (1, 4), TINY,
                            kernel, schedule)


def test_fixed_policy_jobs_hash_identically_to_legacy_jobs():
    """The acceptance criterion: the fixed default's resolved schedule
    builds jobs whose content hash matches the pre-policy path, so warm
    caches stay valid."""
    from repro.eval.experiments import _resolve_layer_schedule

    layer = next(l for l, _ in
                 unique_gemm_layers(get_model("resnet50"))
                 if l.name == "conv3_1_3x3")
    for kernel in (BASELINE, PROPOSED):
        resolved = _resolve_layer_schedule(FixedPolicy(), kernel, (1, 4),
                                           "resnet50", layer, TINY)
        assert resolved == Schedule()
        assert job_hash(tiny_layer_job(kernel, resolved)) == \
            job_hash(SimJob.for_layer("resnet50", "conv3_1_3x3", (1, 4),
                                      TINY, kernel))


def test_policy_resolved_job_hash_stable_across_processes():
    """A book-resolved schedule must produce the same cache key in any
    process (the disk cache is shared between pool workers)."""
    book = ScheduleBook(entries=(
        entry(layer="conv3_1_3x3", schedule=Schedule(tile_rows=8,
                                                     unroll=2)),))
    resolved = TunedPolicy(book=book).resolve(
        PROPOSED, (1, 4), model="resnet50", layer="conv3_1_3x3")
    expected = job_hash(tiny_layer_job(PROPOSED, resolved))
    code = (
        "from repro.eval.engine import SimJob, job_hash\n"
        "from repro.eval.schedules import (BookEntry, ScheduleBook,\n"
        "                                  TunedPolicy)\n"
        "from repro.kernels import Schedule\n"
        "from repro.nn.workload import TINY\n"
        "book = ScheduleBook(entries=(BookEntry(\n"
        "    model='resnet50', layer='conv3_1_3x3',\n"
        "    kernel='indexmac-spmm', nm=(1, 4),\n"
        "    schedule=Schedule(tile_rows=8, unroll=2),\n"
        "    shape=(64, 147, 12544), cycles=100.0,\n"
        "    default_cycles=120.0, backend='detailed'),))\n"
        "s = TunedPolicy(book=book).resolve(\n"
        "    'indexmac-spmm', (1, 4), model='resnet50',\n"
        "    layer='conv3_1_3x3')\n"
        "job = SimJob.for_layer('resnet50', 'conv3_1_3x3', (1, 4),\n"
        "                       TINY, 'indexmac-spmm', s)\n"
        "print(job_hash(job))\n")
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}
    hashes = set()
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        hashes.add(out.stdout.strip())
    assert hashes == {expected}


def test_fixed_and_tuned_policies_share_cache_for_equal_schedules(
        tmp_path):
    """A tuned policy whose book resolves a layer to the paper default
    answers that layer from a cache warmed by a fixed-policy run."""
    from repro.eval import clear_cache
    from repro.eval.engine import set_engine
    from repro.eval.experiments import run_fig4

    star = BookEntry(model="*", layer="*", kernel=PROPOSED, nm=(1, 4),
                     schedule=Schedule())
    clear_cache()  # the in-process comparison memo must not bypass
    set_engine(ExperimentEngine(jobs=1, cache_dir=tmp_path))
    run_fig4(policy=TINY, sparsities=((1, 4),))
    warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    set_engine(warm)
    clear_cache()
    tuned = run_fig4(policy=TINY, sparsities=((1, 4),),
                     options=TunedPolicy(
                         book=ScheduleBook(entries=(star,))))
    assert warm.counters.simulated == 0
    assert warm.counters.disk_hits == warm.counters.total > 0
    assert all(c.speedup > 0 for c in tuned.comparisons[(1, 4)])
    clear_cache()


# ----------------------------------------------------------------------
# incompatible-kernel fallback warning (satellite)
# ----------------------------------------------------------------------
def test_incompatible_schedule_fallback_warns_once():
    from repro.eval.experiments import _FALLBACK_WARNED, _applicable_schedule

    _FALLBACK_WARNED.clear()
    a_stat = Schedule(dataflow=Dataflow.A_STATIONARY, tile_rows=16)
    with pytest.warns(RuntimeWarning, match="indexmac-spmm"):
        assert _applicable_schedule(PROPOSED, a_stat, (1, 4)) == Schedule()
    # second substitution of the same (kernel, schedule, nm) is silent
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _applicable_schedule(PROPOSED, a_stat, (1, 4))
    # compatible schedules never warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _applicable_schedule(BASELINE, a_stat, (1, 4)) is a_stat
    _FALLBACK_WARNED.clear()


def test_project_schedule_keeps_cores_on_fallback():
    from repro.kernels.compiler import project_schedule

    sched = Schedule(tile_rows=32, cores=4)
    projected, reason = project_schedule(PROPOSED, sched, (1, 4))
    assert reason is not None
    assert projected == Schedule(cores=4)
    same, reason = project_schedule(BASELINE, sched, (1, 4))
    assert same is sched and reason is None


# ----------------------------------------------------------------------
# run_layer resolves policies against the workload identity
# ----------------------------------------------------------------------
def test_run_layer_accepts_a_schedule_policy():
    from repro.eval.runner import run_layer
    from repro.nn.workload import make_layer_workload

    layer = get_model("resnet50")[0]
    workload = make_layer_workload(layer, 1, 4, policy=TINY)
    run = run_layer(workload, PROPOSED, HeuristicPolicy())
    assert run.verified


# ----------------------------------------------------------------------
# error paths
# ----------------------------------------------------------------------
def test_tuned_schedule_errors_are_tuning_errors(tmp_path):
    from repro.eval.tuning import load_tuned_schedule

    with pytest.raises(TuningError, match="missing.json"):
        load_tuned_schedule(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schedule": {"tile_rows": -1}}))
    with pytest.raises(TuningError, match="bad.json"):
        load_tuned_schedule(bad)
    assert issubclass(TuningError, EngineError)  # legacy handlers work
