"""Tests for the batch-replay backend: a bracketed loop's replayed
iterations must leave the registers, memory and cache/DRAM counters
exactly as ``detailed`` leaves them, and real kernels stay bit-exact
with cycles inside the documented tolerance."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.arch.timing import get_backend, get_backend_class
from repro.arch.timing.batch import MIN_BODY, BatchReplayBackend
from repro.isa.instructions import Instr, Op
from repro.isa.trace import Block, Loop, Trace
from repro.kernels import Schedule, get_trace_kernel, read_result, \
    stage_spmm
from repro.nn.workload import make_workload

CFG = ProcessorConfig.scaled_default()


def run_trace(backend, trace):
    proc = DecoupledProcessor(CFG)
    result = backend.run(proc, trace)
    return proc, result


def counters_sans_cycles(proc):
    """Every ``stats()`` counter but cycles, which are the priced
    estimate and are compared separately, within the documented
    tolerance."""
    return {k: v for k, v in asdict(proc.stats()).items()
            if k != "cycles"}


# ----------------------------------------------------------------------
# randomized steady loops
# ----------------------------------------------------------------------
def _loop_trace(prologue, body, repeat):
    """``prologue``, then a steady loop of ``body`` repeated within one
    iteration up to ``MIN_BODY`` instructions, so that a loop of
    ``MIN_REPEAT`` trips or more is bracketed."""
    copies = -(-MIN_BODY // len(body))
    return Trace(nodes=(Block(instrs=tuple(prologue)),
                        Loop(body=(Block(instrs=tuple(body) * copies),),
                             repeat=repeat)))


def _steady_loop_trace(seed, repeat, stride_words, unroll):
    """A steady loop streaming through memory: loads, stores and
    pointer bumps that exercise the replay's scalar addressing and the
    cache/DRAM interaction."""
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
    prologue = [Instr(Op.ADDI, rd=5 + lane, rs1=0, imm=1024 + 512 * lane)
                for lane in range(unroll)]
    return _loop_trace(prologue, body, repeat)


def _vsetvli_loop_trace(repeat):
    """A steady loop whose body re-configures the vector engine, so a
    replayed vector access must size itself by the new ``vl``."""
    body = (
        Instr(Op.ADDI, rd=6, rs1=0, imm=8),
        Instr(Op.VSETVLI, rd=7, rs1=6),
        Instr(Op.VLE32, vd=1, rs1=5),
        Instr(Op.LW, rd=10, rs1=5, imm=0),
        Instr(Op.SW, rs1=5, rs2=10, imm=4),
        Instr(Op.ADDI, rd=5, rs1=5, imm=32),
    )
    return _loop_trace([Instr(Op.ADDI, rd=5, rs1=0, imm=2048)], body,
                       repeat)


@settings(max_examples=18, deadline=None)
@given(seed=st.integers(0, 10_000),
       repeat=st.integers(16, 96),
       stride_words=st.integers(1, 24),
       unroll=st.integers(1, 4),
       vsetvli=st.booleans())
def test_batch_matches_detailed_functionally(seed, repeat, stride_words,
                                             unroll, vsetvli):
    trace = (_vsetvli_loop_trace(repeat) if vsetvli
             else _steady_loop_trace(seed, repeat, stride_words, unroll))
    dproc, _ = run_trace(get_backend("detailed"), trace)
    bproc, bres = run_trace(BatchReplayBackend(), trace)
    assert bproc.core.state_fingerprint() == dproc.core.state_fingerprint()
    assert counters_sans_cycles(bproc) == counters_sans_cycles(dproc)
    assert bres.timed_instructions < bres.dynamic_instructions


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


def test_registry_exposes_batch_backend():
    cls = get_backend_class("batch-replay")
    assert cls is BatchReplayBackend
    assert cls.functional and cls.models_memory
    # the benchmark's tracer wraps ``run`` only on registered classes
    # that define it themselves
    assert "run" in vars(cls)
