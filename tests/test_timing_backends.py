"""Tests for the pluggable timing backends (registry, detailed,
batch-replay) and the cross-backend accuracy contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.validation import (
    BACKEND_CYCLE_TOLERANCES,
    validate_backend,
)
from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.arch.timing import (
    BATCH_REPLAY,
    DETAILED,
    TimingBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.arch.timing import _BACKENDS, batch
from repro.errors import BackendError
from repro.kernels import Schedule, get_trace_kernel, read_result, \
    stage_spmm
from repro.nn.workload import make_workload

CFG = ProcessorConfig.scaled_default()
TOLERANCE = BACKEND_CYCLE_TOLERANCES[BATCH_REPLAY]


def run_backend(backend, kernel, rows=16, k=64, n=32, nm=(1, 4), seed=7,
                schedule=Schedule()):
    rng = np.random.default_rng(seed)
    a, b = make_workload(rows, k, n, *nm, rng)
    proc = DecoupledProcessor(CFG)
    staged = stage_spmm(proc.mem, a, b)
    trace = get_trace_kernel(kernel)(staged, schedule)
    result = get_backend(backend).run(proc, trace)
    return result, read_result(proc.mem, staged)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_builtin_backends_registered():
    assert available_backends() == ("analytic-sampled", BATCH_REPLAY,
                                    DETAILED)


def test_resolve_backend_defaults_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend() == DETAILED
    assert resolve_backend(BATCH_REPLAY) == BATCH_REPLAY
    monkeypatch.setenv("REPRO_BACKEND", BATCH_REPLAY)
    assert resolve_backend() == BATCH_REPLAY
    assert resolve_backend(DETAILED) == DETAILED  # explicit beats env


def test_unknown_backend_rejected():
    with pytest.raises(BackendError):
        resolve_backend("no-such-backend")
    with pytest.raises(BackendError):
        get_backend("no-such-backend")


def test_register_custom_backend():
    class NullBackend(TimingBackend):
        name = "null-test-backend"

        def run(self, proc, trace):
            for instr in trace.instructions():
                proc.core.execute(instr)
            return self.record(proc.stats(), 0, trace.dynamic_length)

    register_backend(NullBackend)
    try:
        assert "null-test-backend" in available_backends()
        result, c = run_backend("null-test-backend", "indexmac-spmm")
        assert result.stats.cycles == 0  # never timed anything
        _, ref = run_backend(DETAILED, "indexmac-spmm")
        np.testing.assert_array_equal(c, ref)  # but still bit-exact
    finally:
        del _BACKENDS["null-test-backend"]


def test_batch_replay_takes_no_parameters():
    with pytest.raises(TypeError):
        get_backend(BATCH_REPLAY, lead=1)


def test_bracket_constants_meet_the_bracket_preconditions():
    # two post-first lead iterations contrast the pooled rate
    assert batch.LEAD >= 3 and batch.TRAIL >= 1
    assert batch.MIN_REPEAT > batch.LEAD + batch.TRAIL
    assert batch.MIN_BODY >= 1
    assert 2 <= batch.CHUNK <= batch.CHUNK_CAP
    assert batch.CHUNK_GROWTH > 1.0


# ----------------------------------------------------------------------
# detailed backend == legacy processor behaviour
# ----------------------------------------------------------------------
def test_detailed_backend_matches_plain_processor_run():
    from repro.kernels import compile_trace

    rng = np.random.default_rng(7)
    a, b = make_workload(16, 64, 32, 1, 4, rng)
    proc = DecoupledProcessor(CFG)
    staged = stage_spmm(proc.mem, a, b)
    proc.run(compile_trace("indexmac-spmm", staged, Schedule()))
    legacy = proc.stats()

    result, _ = run_backend(DETAILED, "indexmac-spmm")
    assert result.stats.cycles == legacy.cycles
    assert result.stats.instructions == legacy.instructions
    assert result.timed_instructions == legacy.instructions
    assert result.compression == 1.0


# ----------------------------------------------------------------------
# batch-replay accuracy contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["rowwise-spmm", "indexmac-spmm"])
def test_batch_replay_bitexact_and_counts_exact(kernel):
    det, det_c = run_backend(DETAILED, kernel, rows=64)
    rep, rep_c = run_backend(BATCH_REPLAY, kernel, rows=64)
    np.testing.assert_array_equal(det_c, rep_c)
    ds, cs = det.stats, rep.stats
    # instruction-class counts are exact (this includes Fig. 6's
    # vector-memory metric) and so are the memory-system counts
    assert ds.instructions == cs.instructions
    assert ds.vector_mem_instrs == cs.vector_mem_instrs
    assert ds.vector_loads == cs.vector_loads
    assert ds.vindexmac_count == cs.vindexmac_count
    assert ds.l2_hits == cs.l2_hits
    assert ds.l2_misses == cs.l2_misses
    assert ds.dram_reads == cs.dram_reads
    # cycles agree within the documented tolerance, with fewer timed
    assert abs(cs.cycles - ds.cycles) <= TOLERANCE * ds.cycles
    assert rep.timed_instructions < rep.dynamic_instructions
    assert rep.dynamic_instructions == ds.instructions


def test_validate_backend_gate():
    rng = np.random.default_rng(3)
    a, b = make_workload(64, 64, 32, 1, 4, rng)
    report = validate_backend(a, b, "indexmac-spmm")
    assert report.ok, report.summary()
    assert report.results_bitexact and report.counts_exact
    assert report.compression > 1.0
    assert "ok" in report.summary()


def test_acceptance_speedup_ratio_and_compression():
    """The PR acceptance gate: on a steady-state-dominated ResNet-50
    class workload, batch-replay reproduces the rowwise/indexmac
    speedup ratio within +-2% of detailed while timing >= 10x fewer
    instructions."""
    cycles = {}
    timed = dynamic = 0
    for kernel in ("rowwise-spmm", "indexmac-spmm"):
        for backend in (DETAILED, BATCH_REPLAY):
            res, _ = run_backend(backend, kernel, rows=1024, k=128, n=32,
                                 nm=(1, 4), seed=11)
            cycles[(kernel, backend)] = res.stats.cycles
            if backend == BATCH_REPLAY:
                timed += res.timed_instructions
                dynamic += res.dynamic_instructions
    speedup_detailed = cycles[("rowwise-spmm", DETAILED)] \
        / cycles[("indexmac-spmm", DETAILED)]
    speedup_replay = cycles[("rowwise-spmm", BATCH_REPLAY)] \
        / cycles[("indexmac-spmm", BATCH_REPLAY)]
    ratio_error = abs(speedup_replay - speedup_detailed) / speedup_detailed
    assert ratio_error <= 0.02, (speedup_detailed, speedup_replay)
    assert dynamic >= 10 * timed, f"only {dynamic / timed:.1f}x compression"


# ----------------------------------------------------------------------
# property test: randomized shapes (satellite)
# ----------------------------------------------------------------------
@st.composite
def backend_cases(draw):
    nm = draw(st.sampled_from([(1, 4), (2, 4), (2, 8), (1, 2)]))
    rows = draw(st.integers(min_value=1, max_value=16)) * 4
    k_tiles = draw(st.integers(min_value=1, max_value=3))
    col_tiles = draw(st.integers(min_value=1, max_value=2))
    tile_rows = draw(st.sampled_from([8, 16]))
    kernel = draw(st.sampled_from(["rowwise-spmm", "indexmac-spmm"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    return nm, rows, 16 * k_tiles, 16 * col_tiles, tile_rows, kernel, seed


@settings(max_examples=12, deadline=None, derandomize=True)
@given(backend_cases())
def test_property_batch_replay_matches_detailed(case):
    nm, rows, k, n, tile_rows, kernel, seed = case
    if kernel == "indexmac-spmm" and tile_rows == 8 and nm == (1, 2):
        tile_rows = 16  # L <= M*VL/N constraint
    schedule = Schedule(tile_rows=tile_rows)
    try:
        det, det_c = run_backend(DETAILED, kernel, rows, k, n, nm, seed,
                                 schedule)
    except Exception:
        return  # geometry rejected by the kernel: nothing to compare
    rep, rep_c = run_backend(BATCH_REPLAY, kernel, rows, k, n, nm, seed,
                             schedule)
    # functional results stay bit-exact
    np.testing.assert_array_equal(det_c, rep_c)
    # Fig. 6 memory-access counts match exactly
    assert det.stats.vector_mem_instrs == rep.stats.vector_mem_instrs
    assert det.stats.l2_misses == rep.stats.l2_misses
    # cycles within the documented tolerance (wide margin for random
    # geometries; the layer-set gate is tighter)
    assert abs(rep.stats.cycles - det.stats.cycles) \
        <= 2 * TOLERANCE * max(det.stats.cycles, 1.0)
