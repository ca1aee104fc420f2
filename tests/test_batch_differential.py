"""Per-opcode differential test: batch handlers against FunctionalCore.

For every opcode the batch-replay backend vectorises, a one-instruction
steady body with random registers and memory runs ``N`` iterations
twice: through ``BatchReplayBackend._replay_nodes`` (one sequential
probe iteration, then the remaining lanes as one NumPy program) and
through ``BatchReplayBackend._replay_sequential``, which executes every
iteration on the :class:`FunctionalCore`.  Architectural state and
hierarchy counters must match bit for bit, at ``vl`` = 1, ``VLMAX - 1``
and ``VLMAX``.

Registers are drawn so that only an accumulating destination carries a
value from one iteration to the next; every other body must commit as
a batch, not fall back to the sequential path.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.arch.timing.batch import _DISPATCH, BatchReplayBackend, _shape
from repro.isa.instructions import (
    SCALAR_LOAD_OPS,
    SCALAR_STORE_OPS,
    VECTOR_MEM_OPS,
    Instr,
    Op,
)
from repro.isa.trace import Block

CFG = replace(ProcessorConfig.paper_default(), memory_bytes=1 << 16)
VLMAX = CFG.vector.vlmax
ITERATIONS = 12

#: ``vd += ...``: the destination is read and changes every iteration,
#: so the batch's entry-state check always refuses these bodies.
ALWAYS_FALLS_BACK = frozenset({
    Op.VFMACC_VF, Op.VFMACC_VV, Op.VMACC_VV, Op.VMACC_VX, Op.VINDEXMAC_VX,
})

#: Not vectorised at all: vsetvli changes ``vl`` mid-body, and a float
#: reduction's summation order over a 2-D batch is not bitwise the
#: sequential one.
UNBATCHED = frozenset({Op.VSETVLI, Op.VFREDUSUM_VS})

BASE = 8                 # memory base register, never written
SOURCES = (5, 6, 7)      # scalar sources
DESTS = (10, 11, 12)     # scalar destinations
F_SOURCES = (1, 2)
F_DEST = 10
V_SOURCES = (1, 2, 3)
V_DESTS = (8, 9)
_F_RS1 = frozenset({Op.VFMACC_VF, Op.VFMUL_VF, Op.VFMV_S_F, Op.VFADD_VF,
                    Op.VFSUB_VF})
_SLIDE_VX = frozenset({Op.VSLIDEDOWN_VX, Op.VSLIDEUP_VX})


def _instr(op, rng, vl):
    def pick(pool):
        return int(pool[rng.integers(len(pool))])

    memory = (op in SCALAR_LOAD_OPS or op in SCALAR_STORE_OPS
              or op in VECTOR_MEM_OPS)
    if op in (Op.SLLI, Op.SRLI, Op.SRAI):
        imm = int(rng.integers(0, 64))
    elif op in (Op.LUI, Op.AUIPC):
        imm = int(rng.integers(0, 1 << 20))
    elif op in (Op.VSLIDEDOWN_VI, Op.VSLIDEUP_VI):
        imm = int(rng.integers(0, vl + 2))
    elif memory:
        imm = 8 * int(rng.integers(0, 32))
    else:
        imm = int(rng.integers(-16, 16))
    return Instr(
        op,
        rd=F_DEST if op in (Op.FLW, Op.VFMV_F_S) else pick(DESTS),
        rs1=(BASE if memory else pick(F_SOURCES) if op in _F_RS1
             else pick(SOURCES)),
        rs2=pick(F_SOURCES) if op is Op.FSW else pick(SOURCES),
        imm=imm, vd=pick(V_DESTS), vs1=pick(V_SOURCES),
        vs2=pick(V_SOURCES))


def _processor(seed, vl, slide_amount):
    rng = np.random.default_rng(seed)
    proc = DecoupledProcessor(CFG)
    buf = proc.mem.allocate(8192)
    proc.mem.store_vec_u32(buf, rng.standard_normal(2048)
                           .astype(np.float32).view(np.uint32))
    xv = proc.xrf.values
    for reg in SOURCES + DESTS:
        xv[reg] = int(rng.integers(-(1 << 40), 1 << 40))
    xv[BASE] = buf + 2048
    for i in range(32):
        proc.frf.values[i] = float(np.float32(rng.standard_normal()))
    proc.vrf.f32[:] = rng.standard_normal(proc.vrf.f32.shape) \
        .astype(np.float32)
    proc.vl = vl
    if slide_amount is not None:
        for reg in SOURCES:
            xv[reg] = slide_amount
    return proc


class SequentialReplay(BatchReplayBackend):
    """The backend with batching switched off: every replay, nested
    loops included, runs one instruction at a time."""

    _replay_nodes = BatchReplayBackend._replay_sequential


def _replay_both(op, vl, slide_amount=None):
    seed = [int(op), vl]
    instr = _instr(op, np.random.default_rng(seed), vl)
    body = (Block([instr]),)
    sequential = _processor(seed, vl, slide_amount)
    batched = _processor(seed, vl, slide_amount)
    backend = BatchReplayBackend()
    with np.errstate(all="ignore"):
        SequentialReplay()._replay_nodes(sequential, body, ITERATIONS)
        backend._replay_nodes(batched, body, ITERATIONS)
    assert batched.core.state_fingerprint() == \
        sequential.core.state_fingerprint()
    assert batched.counter_snapshot() == sequential.counter_snapshot()
    program = backend._programs[_shape(body)]
    return program is not None and program.failures == 0


def test_unbatched_opcodes_are_exactly_the_documented_ones():
    handled = set(DecoupledProcessor(CFG).core.handlers)
    assert handled - set(_DISPATCH) == UNBATCHED


@pytest.mark.parametrize("vl", [1, VLMAX - 1, VLMAX])
@pytest.mark.parametrize("op", sorted(_DISPATCH, key=int),
                         ids=lambda op: op.name)
def test_batch_handler_matches_functional_core(op, vl):
    committed = _replay_both(op, vl, 2 if op in _SLIDE_VX else None)
    assert committed == (op not in ALWAYS_FALLS_BACK)


@pytest.mark.parametrize("op", sorted(_SLIDE_VX, key=int),
                         ids=lambda op: op.name)
def test_negative_slide_falls_back_to_the_unsigned_offset(op):
    assert not _replay_both(op, VLMAX, slide_amount=-1)
