"""Tests for the schedule autotuner (`repro tune [--per-layer]`)."""

import json

import pytest

from repro.errors import EngineError, KernelError, TuningError
from repro.eval.comparison import BASELINE, PROPOSED
from repro.eval.engine import ExperimentEngine
from repro.eval.schedules import TunedPolicy, load_schedule_book
from repro.eval.tuning import (
    PAPER_SCHEDULE,
    candidate_schedules,
    load_tuned_schedule,
    save_tuned_schedule,
    tune,
    tune_per_layer,
)
from repro.kernels import Dataflow, Schedule, max_tile_rows
from repro.nn.workload import TINY

TWO_LAYERS = ("conv2_1_3x3", "conv3_1_3x3")


# ----------------------------------------------------------------------
# sweep-space construction
# ----------------------------------------------------------------------
def test_candidates_respect_the_section_iii_bounds():
    for nm in ((1, 4), (2, 4), (2, 8)):
        for kernel in (BASELINE, PROPOSED):
            for s in candidate_schedules(kernel, nm):
                assert s.tile_rows % nm[1] == 0
                assert s.tile_rows <= max_tile_rows(*nm, 16)
                if kernel == PROPOSED:
                    assert s.tile_rows <= 16  # 32 vregs - 16 reserved
                    assert s.dataflow is Dataflow.B_STATIONARY


def test_candidates_sweep_all_dataflows_for_the_baseline():
    dataflows = {s.dataflow for s in candidate_schedules(BASELINE, (1, 4))}
    assert dataflows == set(Dataflow)


def test_candidates_contain_the_paper_default():
    assert PAPER_SCHEDULE in candidate_schedules(PROPOSED, (1, 4))


# ----------------------------------------------------------------------
# the sweep itself (tiny synthetic GEMM through a hermetic engine)
# ----------------------------------------------------------------------
SWEEP = [Schedule(tile_rows=8, unroll=2), Schedule(tile_rows=16, unroll=2),
         PAPER_SCHEDULE]


def test_tune_ranks_schedules_and_beats_or_matches_default(tmp_path):
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    result = tune(PROPOSED, (1, 4), shape=(8, 32, 16), schedules=SWEEP,
                  engine=engine)
    assert engine.counters.simulated == len(SWEEP)
    assert len(result.points) == len(SWEEP)
    assert result.default.schedule == PAPER_SCHEDULE
    assert result.best.cycles == min(p.cycles for p in result.points)
    assert result.best_beats_default
    assert result.speedup_vs_default >= 1.0
    rendered = result.render()
    assert "Schedule tuning" in rendered
    assert "vs default" in rendered


def test_tune_appends_missing_default():
    engine = ExperimentEngine(jobs=1, cache=False)
    result = tune(PROPOSED, (1, 4), shape=(8, 32, 16),
                  schedules=[Schedule(tile_rows=8)], engine=engine)
    assert result.default.schedule == PAPER_SCHEDULE
    assert len(result.points) == 2


def test_tune_is_reproducibly_cached(tmp_path):
    """The acceptance criterion: a second tuning run (fresh engine,
    same cache dir) answers every sweep point from the disk cache."""
    cold = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    first = tune(PROPOSED, (1, 4), shape=(8, 32, 16), schedules=SWEEP,
                 engine=cold)
    warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    second = tune(PROPOSED, (1, 4), shape=(8, 32, 16), schedules=SWEEP,
                  engine=warm)
    assert warm.counters.simulated == 0
    assert warm.counters.disk_hits == len(SWEEP)
    assert second.best.schedule == first.best.schedule
    assert second.best.cycles == first.best.cycles


def test_tune_needs_exactly_one_workload_source():
    with pytest.raises(EngineError):
        tune(PROPOSED, (1, 4))  # neither policy nor shape
    with pytest.raises(KernelError):
        tune(PROPOSED, (1, 4), shape=(8, 32, 16), schedules=[],
             engine=ExperimentEngine(jobs=1, cache=False))


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def test_saved_schedule_round_trips(tmp_path):
    engine = ExperimentEngine(jobs=1, cache=False)
    result = tune(PROPOSED, (1, 4), shape=(8, 32, 16), schedules=SWEEP,
                  engine=engine)
    path = tmp_path / "tuned.json"
    save_tuned_schedule(path, result)
    payload = json.loads(path.read_text())
    assert payload["kernel"] == PROPOSED
    assert payload["schedule_cache_key"] == \
        result.best.schedule.cache_key()
    assert load_tuned_schedule(path) == result.best.schedule


def test_load_accepts_bare_schedule_dict(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(Schedule(tile_rows=8).to_dict()))
    assert load_tuned_schedule(path) == Schedule(tile_rows=8)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    with pytest.raises(TuningError):
        load_tuned_schedule(path)
    with pytest.raises(TuningError):
        load_tuned_schedule(tmp_path / "missing.json")
    path.write_text("[1, 2]")
    with pytest.raises(TuningError):
        load_tuned_schedule(path)


# ----------------------------------------------------------------------
# per-layer tuning (two unique ResNet50 layers, hermetic engine)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def per_layer_cache(tmp_path_factory):
    """One disk cache for the per-layer tests: the ~24 simulations run
    once, later tests in this module answer from disk."""
    return tmp_path_factory.mktemp("perlayer-cache")


def test_tune_per_layer_two_layers_cross_backend(per_layer_cache):
    engine = ExperimentEngine(jobs=1, cache_dir=per_layer_cache)
    result = tune_per_layer(PROPOSED, (1, 4), model="resnet50",
                            policy=TINY, layers=TWO_LAYERS, engine=engine)
    assert [l.layer for l in result.layers] == list(TWO_LAYERS)
    assert result.sweep_backend == "batch-replay"
    assert result.backend == "detailed"
    assert result.all_verified
    assert result.best_beats_default
    assert result.speedup_vs_default >= 1.0
    for layer in result.layers:
        # the paper default is always re-ranked on the final backend
        assert layer.default.schedule == PAPER_SCHEDULE
        assert layer.default.run.backend == "detailed"
        assert layer.best.cycles <= layer.default.cycles
        # the broad sweep really ran on the cheap backend
        assert all(p.run.backend == "batch-replay"
                   for p in layer.sweep_points)
    rendered = result.render()
    assert "Per-layer schedule tuning" in rendered
    assert "conv3_1_3x3" in rendered
    # warm re-run (fresh engine, same disk cache): simulation-free and
    # the same book, entry for entry
    warm = ExperimentEngine(jobs=1, cache_dir=per_layer_cache)
    again = tune_per_layer(PROPOSED, (1, 4), model="resnet50",
                           policy=TINY, layers=TWO_LAYERS, engine=warm)
    assert warm.counters.simulated == 0
    assert again.to_book() == result.to_book()


def test_per_layer_book_round_trips_with_identical_cache_keys(
        per_layer_cache, tmp_path):
    engine = ExperimentEngine(jobs=1, cache_dir=per_layer_cache)
    result = tune_per_layer(PROPOSED, (1, 4), model="resnet50",
                            policy=TINY, layers=TWO_LAYERS, engine=engine)
    book = result.to_book()
    # one entry per layer + the '*' default carrying the modal winner
    assert len(book) == len(TWO_LAYERS) + 1
    path = tmp_path / "book.json"
    from repro.eval.schedules import save_schedule_book

    save_schedule_book(path, book)
    loaded = load_schedule_book(path)
    for before, after in zip(book.entries, loaded.entries):
        assert after.schedule.cache_key() == before.schedule.cache_key()
    # the loaded book resolves each tuned layer to its winner
    policy = TunedPolicy(book=loaded)
    for layer in result.layers:
        assert policy.resolve(PROPOSED, (1, 4), model="resnet50",
                              layer=layer.layer) == layer.best.schedule


def test_tune_per_layer_rejects_unknown_layers_and_bad_top_k():
    engine = ExperimentEngine(jobs=1, cache=False)
    with pytest.raises(EngineError, match="no unique layer"):
        tune_per_layer(PROPOSED, (1, 4), model="resnet50", policy=TINY,
                       layers=("conv_nope",), engine=engine)
    with pytest.raises(EngineError, match="top_k"):
        tune_per_layer(PROPOSED, (1, 4), model="resnet50", policy=TINY,
                       layers=TWO_LAYERS, top_k=0, engine=engine)


def test_fig4_under_tuned_policy_beats_or_matches_fixed():
    """The acceptance criterion: summed weighted proposed cycles under
    the tuned policy never exceed the fixed paper default's."""
    from repro.eval.engine import get_engine
    from repro.eval.experiments import run_fig4

    result = tune_per_layer(PROPOSED, (1, 4), model="resnet50",
                            policy=TINY, layers=TWO_LAYERS,
                            engine=get_engine())
    fixed = run_fig4(policy=TINY, sparsities=((1, 4),))
    tuned = run_fig4(policy=TINY, sparsities=((1, 4),),
                     options=TunedPolicy(book=result.to_book()))
    assert tuned.total_cycles((1, 4)) <= fixed.total_cycles((1, 4))
    assert tuned.total_cycles((1, 4), kernel="baseline") == \
        fixed.total_cycles((1, 4), kernel="baseline")
