"""Per-opcode differential test: ``batch-replay`` against ``detailed``.

For every opcode the processor handles, at both ``vl`` values of
``tests/data/capture_opcode_timing.py`` and at the edges ``1`` and
``VLMAX - 1``, that module's seeded 64-instruction :func:`program` (the
opcode mixed with producers of its sources and consumers of its result)
is the body of a 16-trip steady loop.  The loop runs under
``detailed``, which times every iteration, and under ``batch-replay``,
which times a bracket and replays the middle iterations through the
compiled replay of the body while probing the memory hierarchy itself.
Architectural state and every ``stats()`` counter but ``cycles`` must
match, so this pins the replay's own accounting per opcode: its class
tallies, access sizes, ``4 * vl`` vector accesses, ``rs1 + imm``
scalar addresses and which accesses write.
The ``.vx`` slides also run with negative amounts, which both backends
must read as unsigned offsets.
"""

import importlib.util
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro.arch import CacheConfig, DecoupledProcessor, ProcessorConfig
from repro.arch.timing import get_backend
from repro.isa.instructions import OPCODES, Instr, Op
from repro.isa.trace import Block, Loop, Trace

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "capture_opcode_timing", DATA / "capture_opcode_timing.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

#: Caches small enough that dirty lines are evicted within the loop, so
#: a replayed access's write flag shows in the write-back counters.
CFG = replace(ProcessorConfig.paper_default(), memory_bytes=1 << 17,
              l1d=CacheConfig(size_bytes=1024, ways=2, hit_latency=2),
              l2=CacheConfig(size_bytes=4096, ways=4, hit_latency=8,
                             banks=8, bank_busy_cycles=4))
TRIPS = 16
OPS = sorted(OPCODES, key=int)
VLMAX = CFG.vector.vlmax
#: The pinned ``vls()`` plus the edges where a vector access is one
#: element long or one element short of a full register.
VLS = sorted({1, VLMAX - 1, *capture.vls()})


def _negative_amounts(op, vl):
    """``program(op, vl)`` with every slide amount it sets negated."""
    return [Instr(Op.ADDI, rd=instr.rd, rs1=instr.rs1, imm=-1 - instr.imm)
            if instr.op is Op.ADDI and instr.rd in capture.AMOUNTS
            else instr
            for instr in capture.program(op, vl)]


def _run(backend, op, vl, program=capture.program):
    proc = DecoupledProcessor(CFG)
    capture._seed_state(proc, op, vl)
    body = (Block(tuple(program(op, vl))),)
    trace = Trace(nodes=(Loop(body=body, repeat=TRIPS),))
    with np.errstate(all="ignore"):
        result = get_backend(backend).run(proc, trace)
    counters = asdict(proc.stats())
    del counters["cycles"]
    return proc.core.state_fingerprint(), counters, result


def _assert_replay_matches_detailed(op, vl, program=capture.program):
    detailed_state, detailed_counters, _ = _run("detailed", op, vl, program)
    state, counters, result = _run("batch-replay", op, vl, program)
    assert state == detailed_state
    assert counters == detailed_counters
    # the loop really is bracketed: some iterations were replayed
    assert result.timed_instructions < result.dynamic_instructions


@pytest.mark.parametrize("vl", VLS)
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_replay_matches_detailed(op, vl):
    _assert_replay_matches_detailed(op, vl)


@pytest.mark.parametrize("op", (Op.VSLIDEDOWN_VX, Op.VSLIDEUP_VX),
                         ids=lambda op: op.name)
def test_negative_slide_amount_replays_as_detailed(op):
    program = _negative_amounts(op, VLMAX)
    # from the second iteration on, the slide reads a negative amount
    negated = {instr.rd for instr in program
               if instr.op is Op.ADDI and instr.rd in capture.AMOUNTS}
    assert any(instr.op is op and instr.rs1 in negated for instr in program)
    _assert_replay_matches_detailed(op, VLMAX, _negative_amounts)
