"""The texts of ``vmv.v.i``, ``vadd.vx`` and vector store ordering
against independent references.

``vmv.v.i`` runs its own :data:`~repro.arch.functional.INLINE` text,
``vadd.vx`` wraps its scalar to 32 bits in Python ints, and a vector
load waits for older stores to its lines in a ``while`` loop over them.
Each instruction runs compiled (as a block), stepped (one handler per
instruction) and replayed, at ``vl`` 1, a middle ``vl`` and ``VLMAX``,
for ``VLMAX`` 16, 32 and 64; the registers are held to a NumPy
reference, and the compiled run's timing to the stepped run's.  A
vector load spanning two or three 32-byte lines must wait for a store
to only its first, middle or last line.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import CacheConfig, DecoupledProcessor, ProcessorConfig
from repro.arch.config import VectorEngineConfig
from repro.isa import I
from repro.isa.instructions import Instr, Op
from repro.isa.trace import Block

AVL = 28  #: the x register a block's vsetvli reads
SCALAR = 5  #: vadd.vx's scalar source


def _config(vlmax: int) -> ProcessorConfig:
    return replace(ProcessorConfig.paper_default(), memory_bytes=1 << 16,
                   vector=replace(VectorEngineConfig(), vlen_bits=32 * vlmax),
                   l2=CacheConfig(size_bytes=8192, ways=4, hit_latency=8,
                                  banks=4, line_bytes=32,
                                  bank_busy_cycles=2))


VLMAXES = (16, 32, 64)
CASES = [(vlmax, vl) for vlmax in VLMAXES
         for vl in sorted({1, vlmax // 2 + 1, vlmax})]


def _processor(vlmax: int, seed) -> DecoupledProcessor:
    """Random bits in every vector register and in ``x1..x27``."""
    proc = DecoupledProcessor(_config(vlmax))
    rng = np.random.default_rng(seed)
    proc.vrf.raw[:] = rng.integers(0, 1 << 32, proc.vrf.raw.shape,
                                   dtype=np.uint32)
    for reg in range(1, AVL):
        proc.xrf.values[reg] = int(rng.integers(-1 << 40, 1 << 40))
    return proc


def _timing(proc) -> dict:
    return {"ready": (proc.x_ready, proc.f_ready, proc.v_ready),
            "queues": [list(q) for q in (proc._rob, proc._viq, proc._lq,
                                         proc._sq)],
            "clocks": (proc._cycle, proc._used, proc._last_commit,
                       proc._last_post, proc._last_issue, proc._end),
            "line stores": dict(proc._line_store_done),
            "memory": proc.hierarchy.clock_state(),
            "stats": proc.stats()}


def _runs(vlmax, seed, vl, instrs, scalars=()):
    """``instrs`` after ``vsetvli`` to ``vl``, run compiled, stepped
    and replayed on three processors of one random state with the
    ``(register, value)`` pairs ``scalars`` set: each run's
    processor."""
    block = [Instr(Op.VSETVLI, rd=0, rs1=AVL), *instrs]
    procs = []
    for mode in ("compiled", "stepped", "replayed"):
        proc = _processor(vlmax, seed)
        for reg, value in [(AVL, vl), *scalars]:
            proc.xrf.values[reg] = value
        if mode == "compiled":
            proc.run_block(Block(block))
        elif mode == "stepped":
            for instr in block:
                proc.step(instr)
        else:
            proc.replay_block(Block(block), 0.0)
        assert proc.vl == vl
        procs.append(proc)
    return procs


def _check(procs, expected):
    """Every run leaves the reference's registers, and the compiled
    run times as the stepped run does."""
    for proc in procs:
        np.testing.assert_array_equal(proc.vrf.raw, expected)
    assert _timing(procs[0]) == _timing(procs[1])


@pytest.mark.parametrize("vlmax, vl", CASES)
def test_vmv_v_i_fills_vl_elements_with_each_immediate(vlmax, vl):
    for imm in range(-16, 16):
        seed = [vlmax, vl, imm + 16]
        expected = _processor(vlmax, seed).vrf.raw.copy()
        expected[7, :vl] = np.uint32(imm & 0xFFFFFFFF)
        procs = _runs(vlmax, seed, vl, [I.vmv_v_i(7, imm)])
        _check(procs, expected)


#: ``x`` values at the edges of the 32-bit wrap and of XLEN.
SCALARS = (0, 1, -1, (1 << 31) - 1, 1 << 31, -(1 << 31), -(1 << 31) - 1,
           (1 << 63) - 1, -(1 << 63))


@pytest.mark.parametrize("vlmax, vl", CASES)
@pytest.mark.parametrize("vd, vs2", [(9, 3), (3, 3)], ids=["apart", "in-place"])
def test_vadd_vx_wraps_the_scalar_to_32_bits(vlmax, vl, vd, vs2):
    """``vd[i] = vs2[i] + x`` in wrapping int32 arithmetic, ``x``
    truncated to its low 32 bits, in place too (one wait for ``v3``)."""
    for n, x in enumerate(SCALARS):
        seed = [vlmax, vl, n, vd]
        expected = _processor(vlmax, seed).vrf.raw.copy()
        lanes = expected[vs2, :vl].astype(np.int64)
        expected[vd, :vl] = ((lanes + (x & 0xFFFFFFFF)) & 0xFFFFFFFF) \
            .astype(np.uint32)
        procs = _runs(vlmax, seed, vl, [I.vadd_vx(vd, vs2, SCALAR)],
                      [(SCALAR, x)])
        _check(procs, expected)


# ----------------------------------------------------------------------
# a vector load waits for a store to any one of its lines
# ----------------------------------------------------------------------
LINE = 32
#: ``(lines, vl)`` of a load starting half a line in: 8 elements span
#: two 32-byte lines, 16 span three.
SPANS = [(2, 8), (3, 16)]
STORED = {2: ("first", "last"), 3: ("first", "middle", "last")}


def _ordering_block(vl: int) -> list:
    """A load of ``vl`` elements into ``v3`` (address in ``x11``), which
    brings its lines into the L2, a one-element vector store (from
    ``v1``, address in ``x10``), which then hits, and the load again,
    into ``v2``: it would hit before the store completes."""
    return [I.addi(AVL, 0, vl), Instr(Op.VSETVLI, rd=0, rs1=AVL),
            I.vle32(3, 11),
            I.addi(AVL, 0, 1), Instr(Op.VSETVLI, rd=0, rs1=AVL),
            I.vse32(1, 10),
            I.addi(AVL, 0, vl), Instr(Op.VSETVLI, rd=0, rs1=AVL),
            I.vle32(2, 11)]


@pytest.mark.parametrize("vlmax", VLMAXES)
@pytest.mark.parametrize("lines, vl", SPANS)
def test_a_vector_load_waits_for_a_store_to_one_of_its_lines(vlmax, lines,
                                                             vl):
    """The load starts half a line into its first line; the store
    writes one word of its first, middle or last line."""
    for name in STORED[lines]:
        stored = {"first": 0, "middle": 1, "last": lines - 1}[name]
        states = []
        for compiled in (True, False):
            proc = _processor(vlmax, [vlmax, lines, stored])
            base = proc.mem.allocate(8 * LINE, align=LINE)
            proc.mem.write_array(base, np.arange(
                8 * LINE // 4, dtype=np.uint32) + 1000)
            load = base + LINE // 2
            store = max(load, base + stored * LINE + 4)  # a word it loads
            proc.xrf.values[10] = store
            proc.xrf.values[11] = load
            block = _ordering_block(vl)
            if compiled:
                proc.run_block(Block(block))
            else:
                for instr in block:
                    proc.step(instr)
            # the load spans ``lines`` lines and read the stored word
            first = load // LINE
            assert (load + 4 * vl - 1) // LINE - first + 1 == lines
            words = proc.mem.read_array(load, np.uint32, (vl,))
            np.testing.assert_array_equal(proc.vrf.raw[2, :vl], words)
            assert words[(store - load) // 4] == proc.vrf.raw[1, 0]
            # it started after the store to that one line completed
            assert set(proc._line_store_done) == {first + stored}
            stored_at = proc._line_store_done[first + stored]
            latency = float(proc.config.vector.mem_overhead_latency)
            assert proc.v_ready[2] >= \
                stored_at + proc.hierarchy.l2.hit_latency + latency
            states.append(_timing(proc))
        assert states[0] == states[1], name
