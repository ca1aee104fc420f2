"""Tests for the batch-replay backend: the vectorized fast path must be
observationally identical to its per-instruction fallback replay — same
registers, same memory, same cache/DRAM counters, same cycles — and
bit-exact against detailed on real kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.arch.timing import get_backend, get_backend_class
from repro.arch.timing.batch import BatchReplayBackend
from repro.isa.instructions import Instr, Op
from repro.isa.trace import Block, Loop, Trace
from repro.kernels import Schedule, get_trace_kernel, read_result, \
    stage_spmm
from repro.nn.workload import make_workload

CFG = ProcessorConfig.scaled_default()


class SequentialReplay(BatchReplayBackend):
    """The same bracket with batching switched off: every skipped
    iteration, nested loops included, runs one instruction at a time."""

    _replay_nodes = BatchReplayBackend._replay_sequential


def paired_backends():
    return SequentialReplay(), BatchReplayBackend()


def run_trace(backend, trace):
    proc = DecoupledProcessor(CFG)
    result = backend.run(proc, trace)
    return proc, result


def counters_sans_cycles(proc):
    """Access/event counters only — cycles are the priced estimate and
    are compared separately (exact vs sequential replay, approximate vs
    detailed)."""
    return {k: v for k, v in proc.counter_snapshot().items()
            if k != "cycles"}


# ----------------------------------------------------------------------
# randomized steady loops (the property ISSUE.md asks for)
# ----------------------------------------------------------------------
def _steady_loop_trace(seed, repeat, stride_words, unroll):
    """A steady loop streaming through memory: loads, stores, MACs and
    pointer bumps — enough op diversity to exercise every batch
    handler's addressing and the cache/DRAM interaction."""
    body = []
    for lane in range(unroll):
        base = 5 + lane
        body.append(Instr(Op.LW, rd=10 + lane, rs1=base, imm=4 * lane))
        body.append(Instr(Op.ADDI, rd=10 + lane, rs1=10 + lane,
                          imm=(seed + lane) % 7 - 3))
        body.append(Instr(Op.SW, rs1=base, rs2=10 + lane,
                          imm=4 * (lane + unroll)))
        body.append(Instr(Op.ADDI, rd=base, rs1=base,
                          imm=4 * stride_words))
    nodes = [
        Block(instrs=tuple(
            Instr(Op.ADDI, rd=5 + lane, rs1=0, imm=1024 + 512 * lane)
            for lane in range(unroll))),
        Loop(body=(Block(instrs=tuple(body)),), repeat=repeat),
    ]
    return Trace(nodes=tuple(nodes))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000),
       repeat=st.integers(16, 96),
       stride_words=st.integers(1, 24),
       unroll=st.integers(1, 4))
def test_batch_matches_sequential_on_random_steady_loops(
        seed, repeat, stride_words, unroll):
    trace = _steady_loop_trace(seed, repeat, stride_words, unroll)
    sequential, batch = paired_backends()
    sproc, sres = run_trace(sequential, trace)
    bproc, bres = run_trace(batch, trace)
    # architectural state: registers and memory bit-identical
    assert np.array_equal(bproc.core.xrf.values, sproc.core.xrf.values)
    assert np.array_equal(bproc.mem._buf, sproc.mem._buf)
    # cache/DRAM counters: the replayed accesses are the same accesses
    assert bproc.counter_snapshot() == sproc.counter_snapshot()
    # so the bracket prices the same probes: cycles agree exactly too
    assert bres.stats.cycles == sres.stats.cycles
    assert bres.timed_instructions == sres.timed_instructions


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), repeat=st.integers(16, 64))
def test_batch_matches_detailed_functionally(seed, repeat):
    trace = _steady_loop_trace(seed, repeat, 8, 2)
    dproc, _ = run_trace(get_backend("detailed"), trace)
    bproc, _ = run_trace(BatchReplayBackend(), trace)
    assert np.array_equal(bproc.core.xrf.values, dproc.core.xrf.values)
    assert np.array_equal(bproc.mem._buf, dproc.mem._buf)
    assert counters_sans_cycles(bproc) == counters_sans_cycles(dproc)


# ----------------------------------------------------------------------
# real kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["rowwise-spmm", "indexmac-spmm"])
@pytest.mark.parametrize("nm", [(1, 4), (2, 4)])
def test_batch_bit_exact_on_kernels(kernel, nm):
    rng = np.random.default_rng(11)
    a, b = make_workload(64, 128, 32, *nm, rng)

    def run(backend_name_or_obj):
        proc = DecoupledProcessor(CFG)
        staged = stage_spmm(proc.mem, a, b)
        trace = get_trace_kernel(kernel)(staged, Schedule())
        backend = (get_backend(backend_name_or_obj)
                   if isinstance(backend_name_or_obj, str)
                   else backend_name_or_obj)
        result = backend.run(proc, trace)
        return proc, result, read_result(proc.mem, staged)

    dproc, dres, dc = run("detailed")
    bproc, bres, bc = run("batch-replay")
    assert np.array_equal(dc, bc)
    assert counters_sans_cycles(bproc) == counters_sans_cycles(dproc)
    assert bres.stats.vector_mem_instrs == dres.stats.vector_mem_instrs
    # approximate cycles, within the documented tolerance
    assert bres.stats.cycles == pytest.approx(dres.stats.cycles, rel=0.02)
    # and strictly fewer timed instructions than dynamic ones
    assert bres.timed_instructions < bres.dynamic_instructions


# ----------------------------------------------------------------------
# fallback behaviour
# ----------------------------------------------------------------------
def test_unbatchable_body_falls_back_to_per_instruction_replay():
    """A loop body the batch compiler rejects (vsetvli re-configures
    the vector engine mid-body) must still replay correctly via the
    per-instruction path."""
    body = (Block(instrs=(
        Instr(Op.ADDI, rd=6, rs1=0, imm=8),
        Instr(Op.VSETVLI, rd=7, rs1=6),  # forces _BatchFallback
        Instr(Op.LW, rd=10, rs1=5, imm=0),
        Instr(Op.SW, rs1=5, rs2=10, imm=4),
        Instr(Op.ADDI, rd=5, rs1=5, imm=32),
    )),)
    trace = Trace(nodes=(
        Block(instrs=(Instr(Op.ADDI, rd=5, rs1=0, imm=2048),)),
        Loop(body=body, repeat=64),
    ))
    sequential, batch = paired_backends()
    sproc, sres = run_trace(sequential, trace)
    bproc, bres = run_trace(batch, trace)
    assert np.array_equal(bproc.core.xrf.values, sproc.core.xrf.values)
    assert np.array_equal(bproc.mem._buf, sproc.mem._buf)
    assert bproc.counter_snapshot() == sproc.counter_snapshot()
    assert bres.stats.cycles == sres.stats.cycles


def test_tile_iterations_share_one_program_and_its_failure_count(
        monkeypatch):
    """A tile loop binds fresh loops around the same blocks every tile:
    the body compiles once, and a body that never verifies stops being
    batched after ``_MAX_FAILURES`` chunks over all tiles together."""
    from repro.arch.timing import batch as batch_module
    from repro.isa import I
    from repro.isa.trace import TraceBuilder

    tb = TraceBuilder()
    tb.emit(I.li(11, 3), I.li(12, 5))
    with tb.tile_loop(0, 6) as tile:
        tb.li(10, tile * 100)
        with tb.loop(64):
            # x11 *= 5 every iteration: never affine, so never batched
            tb.emit([Instr(Op.ADDI, rd=10, rs1=10, imm=1)] * 31,
                    Instr(Op.MUL, rd=11, rs1=11, rs2=12))
    trace = tb.build()
    attempts = []
    execute = batch_module._BatchRun.execute

    def counted(run):
        attempts.append(run.n)
        return execute(run)

    monkeypatch.setattr(batch_module._BatchRun, "execute", counted)
    sequential, batch = paired_backends()
    sproc, _ = run_trace(sequential, trace)
    bproc, _ = run_trace(batch, trace)
    assert bproc.core.state_fingerprint() == sproc.core.state_fingerprint()
    assert bproc.counter_snapshot() == sproc.counter_snapshot()
    (program,) = batch._programs.values()
    assert len(attempts) == program.failures \
        == BatchReplayBackend._MAX_FAILURES


def test_registry_exposes_batch_backend():
    cls = get_backend_class("batch-replay")
    assert cls is BatchReplayBackend
    assert cls.functional and cls.models_memory
    # the benchmark's tracer wraps ``run`` only on registered classes
    # that define it themselves
    assert "run" in vars(cls)
