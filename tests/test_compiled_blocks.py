"""Compiled trace blocks against the per-instruction handlers.

The timing backends run each straight-line :class:`Block` through one
function compiled for its shape (its opcodes and register fields); the
ISS steps through one handler per opcode.  Both are rendered from the
same timing templates and inline semantics, and these tests hold them
to each other: seeded random blocks of mixed opcodes (with a
``vsetvli`` mid-block and a ``vindexmac`` whose indexed source the
block wrote) leave identical timing and architectural state either
way, blocks that differ only in immediates share one compiled code,
every tile's block bound from one template shares the template's
holder, and the cache of compiled blocks stays within its capacity.
The replay variant of a block, which ``batch-replay`` runs for the
iterations it does not time, is held to the per-instruction loop it
replaced; a tight loop run whole, timed or replayed, is held to its
iterations run one block at a time; MAC runs, whose data ops run as
one 2-D operation, are held to their members' own texts on registers
of random bits (NaN payloads, infinities, subnormals, signed zeros);
and every opcode adds the counters
:data:`~repro.arch.stats.CLASS_COUNTERS` names for its class, stepped,
run as a block or replayed.
"""

import gc
import importlib.util
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.arch import DecoupledProcessor, ProcessorConfig, processor
from repro.arch.config import VectorEngineConfig
from repro.arch.stats import CLASS_COUNTERS, COUNTERS, ExecutionStats
from repro.arch.timing.batch import MIN_REPEAT
from repro.eval import runner
from repro.eval.engine import SimJob, execute_job
from repro.isa import I
from repro.isa.instructions import OPCODES, Instr, Op
from repro.isa.trace import Block, TraceBuilder, li, li_addr

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "capture_opcode_timing", DATA / "capture_opcode_timing.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

VLMAX = ProcessorConfig.paper_default().vector.vlmax
OPS = sorted(OPCODES, key=int)


def _random_block(seed, vl):
    """Four 16-instruction runs from the per-opcode programs of random
    opcodes, with ``vsetvli`` to a new ``vl`` between the second and
    third, and a ``vindexmac`` whose indexed source (``v3``, selected
    through ``x5``) is loaded earlier in the block."""
    rng = np.random.default_rng(seed)
    runs = [capture.program(OPS[rng.integers(len(OPS))], vl)[:16]
            for _ in range(4)]
    new_vl = int(rng.integers(1, VLMAX + 1))
    base = capture.BASES[0]
    return (runs[0] + runs[1]
            + [I.addi(capture.AVL, 0, new_vl),
               Instr(Op.VSETVLI, rd=capture.X_POOL[0], rs1=capture.AVL)]
            + runs[2]
            + [I.vle32(3, base), I.addi(5, 0, 3),
               I.vindexmac_vx(1, 2, 5)]
            + runs[3])


def _state(proc):
    """Everything the two paths must agree on."""
    return {
        "stats": proc.stats(),
        "ready": (proc.x_ready, proc.f_ready, proc.v_ready),
        "queues": [list(q) for q in (proc._rob, proc._viq, proc._lq,
                                     proc._sq)],
        "clocks": (proc._cycle, proc._used, proc._last_commit,
                   proc._last_post, proc._last_issue, proc._end),
        "line_stores": dict(proc._line_store_done),
        "core": proc.core.state_fingerprint(),
        "vl": proc.vl,
    }


def _both(blocks, seed, vl, config=None):
    """Run ``blocks`` compiled on one processor and stepped on a twin."""
    states = []
    for compiled in (True, False):
        proc = DecoupledProcessor(config or ProcessorConfig.paper_default())
        capture._seed_state(proc, OPS[seed % len(OPS)], vl)
        with np.errstate(all="ignore"):
            for block in blocks:
                if compiled:
                    proc.run_block(block)
                else:
                    for instr in block.instrs:
                        proc.step(instr)
        states.append(_state(proc))
    return states


@pytest.mark.parametrize("vl", [VLMAX, VLMAX // 2])
@pytest.mark.parametrize("seed", range(12))
def test_random_blocks_compiled_match_stepped(seed, vl):
    """Blocks of 69 instructions (compiled in parts) and of one part."""
    blocks = [Block(_random_block([seed, vl, k], vl)) for k in range(3)]
    blocks.append(Block(_random_block([seed, vl, 3], vl)[-32:]))
    assert processor.BLOCK_PART == 32
    compiled, stepped = _both(blocks, seed, vl)
    assert compiled == stepped
    assert compiled["stats"].vindexmac_count >= 3


def test_a_block_follows_its_processors_timing_constants():
    """One block object run on machines with different latencies
    matches each machine's handlers, and the second machine reuses the
    code compiled for the first."""
    slow = replace(ProcessorConfig.paper_default(),
                   vector=replace(VectorEngineConfig(), mac_latency=12))
    blocks = [Block(_random_block([99, k], VLMAX)) for k in range(2)]
    fast_compiled, fast_stepped = _both(blocks, 99, VLMAX)
    misses = processor._block_code.cache_info().misses
    slow_compiled, slow_stepped = _both(blocks, 99, VLMAX, slow)
    assert processor._block_code.cache_info().misses == misses
    assert fast_compiled == fast_stepped
    assert slow_compiled == slow_stepped
    assert slow_compiled["clocks"] != fast_compiled["clocks"]


def test_blocks_differing_in_immediates_share_one_function():
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    rows = []
    blocks = []
    for k in range(2):
        addr = proc.mem.allocate(4 * VLMAX)
        row = np.arange(VLMAX, dtype=np.int32) + 100 * k
        proc.mem.write_array(addr, row)
        rows.append(row)
        blocks.append(Block([*li_addr(11, addr), I.vle32(4, 11)]))
    assert [b.instrs[1].imm for b in blocks] != \
        [blocks[0].instrs[1].imm] * 2
    for block, row in zip(blocks, rows):
        proc.run_block(block)
        np.testing.assert_array_equal(proc.vrf.i32[4], row)
    assert blocks[0].code.timed[1].__code__ is \
        blocks[1].code.timed[1].__code__


def test_blocks_bound_from_one_template_share_its_holder(monkeypatch):
    """Every tile's block shares its template's holder: the first tile
    derives the shape and compiles, later tiles and a second processor
    reuse the code, and each tile still reads its own immediates."""
    derived = []
    shape = processor._shape
    monkeypatch.setattr(processor, "_shape",
                        lambda instrs: derived.append(1) or shape(instrs))
    tiles = 3
    rows = np.arange(VLMAX * tiles, dtype=np.int32).reshape(tiles, -1)
    procs = [DecoupledProcessor(ProcessorConfig.paper_default())
             for _ in range(2)]
    bases = {proc.mem.allocate(rows.nbytes) for proc in procs}
    assert len(bases) == 1  # both memories allocate alike
    base = bases.pop()
    tb = TraceBuilder()
    with tb.tile_loop(0, tiles) as jt:
        tb.li_addr(11, base + jt * 4 * VLMAX)
        tb.emit(I.vle32(4, 11))
    (tile_loop,) = tb.build().nodes
    functions = []
    for proc in procs:
        proc.mem.write_array(base, rows)
        blocks = []
        for (block,), row in zip(tile_loop.iterations(), rows):
            proc.run_block(block)
            np.testing.assert_array_equal(proc.vrf.i32[4], row)
            blocks.append(block)
        assert len({id(block) for block in blocks}) == tiles
        assert {id(block.code) for block in blocks} == \
            {id(tile_loop.body[0].code)}
        functions.append(blocks[0].code.timed[1])
    assert derived == [1]
    assert functions[0] is not functions[1]
    assert functions[0].__code__ is functions[1].__code__


def test_block_cache_holds_at_most_its_capacity():
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    shapes = [(rd, rs1) for rd in range(1, 32) for rs1 in range(32)]
    count = processor.BLOCK_CACHE_SIZE + 8
    assert len(shapes) > count
    for rd, rs1 in shapes[:count]:
        proc.run_block(Block([I.addi(rd, rs1, 1)]))
    cache = processor._block_code.cache_info()
    assert cache.currsize <= cache.maxsize == processor.BLOCK_CACHE_SIZE
    proc.run_block(Block([I.addi(*shapes[count - 1], 1)]))
    assert processor._block_code.cache_info().misses == cache.misses


# ----------------------------------------------------------------------
# replayed blocks against the per-instruction loop they replace
# ----------------------------------------------------------------------
def _replay_reference(proc, block, at):
    """The per-instruction replay: each memory op probes the hierarchy
    at ``at``, then ``core.execute`` runs the instruction."""
    core, hierarchy = proc.core, proc.hierarchy
    xv = core.xrf.values
    for instr in block.instrs:
        spec = OPCODES[instr.op]
        write = spec.timing in ("store", "vstore")
        if spec.timing in ("vload", "vstore"):
            hierarchy.vector_access(xv[instr.rs1], 4 * core.vl, at, write)
        elif spec.timing in ("load", "store"):
            hierarchy.scalar_access(xv[instr.rs1] + instr.imm, spec.size,
                                    at, write)
        core.execute(instr)


def _processor_timing(proc):
    """The processor's own timing state, copied: a replay moves none
    of it."""
    return {
        "ready": [list(ready) for ready in (proc.x_ready, proc.f_ready,
                                            proc.v_ready)],
        "queues": [list(q) for q in (proc._rob, proc._viq, proc._lq,
                                     proc._sq)],
        "clocks": (proc._cycle, proc._used, proc._last_commit,
                   proc._last_post, proc._last_issue, proc._end),
        "line_stores": dict(proc._line_store_done),
    }


def _class_tally(blocks):
    """The tally each slot gains from running ``blocks``: one per
    instruction of its timing class, in :data:`CLASS_COUNTERS` order."""
    slots = list(CLASS_COUNTERS)
    tally = [0] * len(slots)
    for block in blocks:
        for instr in block.instrs:
            tally[slots.index(OPCODES[instr.op].timing)] += 1
    return tally


def _memory_system(proc):
    """Every counter, clock and line of the caches and DRAM."""
    h = proc.hierarchy
    return {
        "counters": {name: value for name, value in asdict(proc.stats())
                     .items() if name not in COUNTERS},
        "clocks": h.clock_state(),
        "lines": [[list(ways.items()) for ways in cache._sets]
                  for cache in (h.l1d, h.l2)],
        "open_row": h.dram._open_row,
    }


@pytest.mark.parametrize("vl", [VLMAX, VLMAX // 2])
@pytest.mark.parametrize("seed", range(6))
def test_replayed_blocks_match_the_per_instruction_replay(seed, vl):
    """Blocks of 69 instructions (replayed in parts) and of one part,
    after a timed block has set every clock going.  The compiled replay
    also tallies each block's classes, as a timed block does."""
    blocks = [Block(_random_block([seed, vl, k], vl)) for k in range(3)]
    blocks.append(Block(_random_block([seed, vl, 3], vl)[-32:]))
    results = []
    for compiled in (True, False):
        proc = DecoupledProcessor(ProcessorConfig.paper_default())
        capture._seed_state(proc, OPS[seed % len(OPS)], vl)
        with np.errstate(all="ignore"):
            proc.run_block(Block(_random_block([seed, vl, 9], vl)))
            timing = _processor_timing(proc)
            tally = list(proc._tally)
            at = proc.cycles
            for block in blocks * 2:
                if compiled:
                    proc.replay_block(block, at)
                else:
                    _replay_reference(proc, block, at)
        assert _processor_timing(proc) == timing
        moved = [after - before for after, before in zip(proc._tally, tally)]
        assert moved == (_class_tally(blocks * 2) if compiled
                         else [0] * len(CLASS_COUNTERS))
        results.append({"core": proc.core.state_fingerprint(),
                        "vl": proc.vl, "memory": _memory_system(proc)})
    assert results[0] == results[1]
    assert blocks[0].code.replayed is not None


def test_errors_propagate_from_compiled_blocks():
    """A vector load or store below address 0 or past the end of
    memory raises, timed and replayed alike."""
    from repro.errors import SimulationError

    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    for addr in (-64, proc.mem.size - 4):
        for access in (I.vle32(4, 11), I.vse32(4, 11)):
            block = Block([*li(11, addr), access])
            with pytest.raises(SimulationError, match="out of range"):
                proc.run_block(block)
            with pytest.raises(SimulationError, match="out of range"):
                proc.replay_block(block, proc.cycles)


# ----------------------------------------------------------------------
# tight loops run whole against their iterations one block at a time
# ----------------------------------------------------------------------
#: Memory small enough that a state fingerprint costs little; the
#: programs touch only their buffer.
SMALL = replace(ProcessorConfig.paper_default(), memory_bytes=1 << 17)
#: Trips of the tight loops: one, a few, and the most a loop can have
#: and still be timed in full by ``batch-replay``.
TRIPS = (1, 3, MIN_REPEAT - 1)


def _tight_body(op, vl):
    """The first 16-instruction run of ``op``'s program."""
    return Block(capture.program(op, vl)[:16])


def _seeded(op, vl):
    proc = DecoupledProcessor(SMALL)
    capture._seed_state(proc, op, vl)
    return proc


@pytest.mark.parametrize("vl", capture.vls())
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_a_timed_tight_loop_runs_whole_as_block_by_block(op, vl):
    block = _tight_body(op, vl)
    for trips in TRIPS:
        states = []
        for whole in (True, False):
            proc = _seeded(op, vl)
            with np.errstate(all="ignore"):
                if whole:
                    proc.run_loop(block, trips)
                else:
                    for _ in range(trips):
                        proc.run_block(block)
            states.append(_state(proc))
        assert states[0] == states[1], trips
    assert block.code.loop is not None


@pytest.mark.parametrize("vl", capture.vls())
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_a_replayed_tight_loop_runs_whole_as_block_by_block(op, vl):
    """After a timed run has set the clocks going; the processor's own
    timing moves under neither."""
    block = _tight_body(op, vl)
    for trips in TRIPS:
        results = []
        for whole in (True, False):
            proc = _seeded(op, vl)
            with np.errstate(all="ignore"):
                proc.run_block(block)
                timing = _processor_timing(proc)
                at = proc.cycles
                if whole:
                    proc.replay_loop(block, trips, at)
                else:
                    for _ in range(trips):
                        proc.replay_block(block, at)
            assert _processor_timing(proc) == timing
            results.append({"core": proc.core.state_fingerprint(),
                            "vl": proc.vl, "memory": _memory_system(proc),
                            "tally": list(proc._tally)})
        assert results[0] == results[1], trips
    assert block.code.replay_loop is not None


def test_a_long_tight_body_runs_block_by_block():
    """A body longer than one compiled part has no loop function and
    runs as its iterations would."""
    op = Op.VFMACC_VF
    block = Block(capture.program(op, VLMAX)[:processor.BLOCK_PART + 1])
    states = []
    for whole in (True, False):
        proc = _seeded(op, VLMAX)
        with np.errstate(all="ignore"):
            if whole:
                proc.run_loop(block, 2)
                proc.replay_loop(block, 2, proc.cycles)
            else:
                for _ in range(2):
                    proc.run_block(block)
                for _ in range(2):
                    proc.replay_block(block, proc.cycles)
        states.append(_state(proc))
    assert states[0] == states[1]
    assert block.code.loop is None and block.code.replay_loop is None


# ----------------------------------------------------------------------
# MAC runs: each unrolled group's data ops as one 2-D operation
# ----------------------------------------------------------------------
MAC_OPS = (Op.VFMACC_VF, Op.VINDEXMAC_VX)


def _vector_config(vlmax):
    return replace(SMALL, vector=replace(SMALL.vector, vlen_bits=32 * vlmax))


def _float_bits(rng, shape):
    """Random float32 bit patterns: NaNs with payloads of both signs,
    infinities, subnormals and signed zeros among ordinary values."""
    bits = rng.integers(0, 1 << 32, shape, dtype=np.uint64).astype(np.uint32)
    sign = bits & 0x80000000
    kind = rng.integers(0, 6, shape)
    bits = np.where(kind == 0, bits | 0x7F800000, bits)   # NaN (or inf)
    bits = np.where(kind == 1, sign | 0x7F800000, bits)   # infinity
    bits = np.where(kind == 2, bits & 0x807FFFFF, bits)   # subnormal
    return np.where(kind == 3, sign, bits)                # signed zero


def _f_value(rng):
    """An f register value: an ordinary or out-of-float32-range double,
    or any double bit pattern (NaNs with payloads among them)."""
    kind = int(rng.integers(4))
    if kind == 0:
        return float(rng.standard_normal())
    if kind == 1:
        return float(rng.choice([1e300, -1e300, 3.5e38, -1e-50, 1e-320]))
    return float(rng.integers(0, 1 << 64, dtype=np.uint64).view(np.float64))


def _seed_registers(proc, rng, vl):
    """Random bits in every vector register and f register, and x
    registers holding indices with high bits set (only their low five
    bits select a register)."""
    proc.vrf.raw[:] = _float_bits(rng, proc.vrf.raw.shape)
    proc.frf.values[:] = [_f_value(rng) for _ in range(32)]
    proc.xrf.values[1:] = [int(v) for v in rng.integers(0, 1 << 20, 31)]
    proc.vl = vl


def _mac_run(rng, proc, op, k, hazard=False):
    """``k`` MACs of ``op`` whose ``vd`` and ``vs2`` step by one, at
    random disjoint register ranges.  A ``vindexmac`` member indexes a
    random register outside the ``vd`` range (a ``vs2`` register among
    them), or with ``hazard`` one member indexes its own ``vd`` or an
    earlier member's."""
    while True:
        vd, vs2 = (int(r) for r in rng.integers(0, 33 - k, 2))
        if abs(vd - vs2) >= k:
            break
    scalars = [int(r) for r in rng.choice(np.arange(1, 32), k, replace=False)]
    if op is Op.VINDEXMAC_VX:
        outside = [r for r in range(32) if not vd <= r < vd + k]
        targets = [int(rng.choice(outside)) for _ in range(k)]
        targets[int(rng.integers(k))] = vs2 + int(rng.integers(k))
        if hazard:
            j = int(rng.integers(k))
            targets[j] = vd + int(rng.integers(j + 1))
        for reg, target in zip(scalars, targets):
            proc.xrf.values[reg] = (proc.xrf.values[reg] & ~0x1F) | target
    return [Instr(op, vd=vd + j, vs2=vs2 + j, rs1=scalars[j])
            for j in range(k)]


def _mac_states(block, seed, vl, vlmax, run, trips=2):
    """Compiled ``run`` (``"block"``, ``"loop"``, ``"replay"`` or
    ``"replay_loop"``) against the per-instruction reference: stepped
    when timed, ``_replay_reference`` when replayed.  The block is built
    by ``block(rng, proc)`` on each twin, from the same seed."""
    states = []
    for compiled in (True, False):
        rng = np.random.default_rng(seed)
        proc = DecoupledProcessor(_vector_config(vlmax))
        _seed_registers(proc, rng, vl)
        code = Block(block(rng, proc))
        with np.errstate(all="ignore"):
            if not compiled:
                for _ in range(trips if run.endswith("loop") else 1):
                    if run.startswith("replay"):
                        _replay_reference(proc, code, 0.0)
                    else:
                        for instr in code.instrs:
                            proc.step(instr)
            elif run == "block":
                proc.run_block(code)
            elif run == "loop":
                proc.run_loop(code, trips)
            elif run == "replay":
                proc.replay_block(code, 0.0)
            else:
                proc.replay_loop(code, trips, 0.0)
        state = _state(proc)
        if run.startswith("replay"):
            state = {"core": state["core"], "vl": state["vl"]}
        states.append(state)
    return states


#: How a block runs compiled: timed or replayed, once or as a tight loop.
WAYS = ("block", "loop", "replay", "replay_loop")


@pytest.mark.parametrize("vl", range(1, 17))
@pytest.mark.parametrize("op", MAC_OPS, ids=lambda op: op.name)
def test_mac_runs_match_their_members_stepped(op, vl):
    """Runs of 2 to 8 members at every vl of VLMAX 16, on registers of
    random bits; a vindexmac run with an index in its vd range too."""
    for k in range(2, 9):
        for hazard in (False, True) if op is Op.VINDEXMAC_VX else (False,):
            def block(rng, proc):
                return _mac_run(rng, proc, op, k, hazard)
            for run in WAYS:
                compiled, reference = _mac_states(
                    block, [int(op), vl, k, hazard], vl, 16, run)
                assert compiled == reference, (k, hazard, run)


@pytest.mark.parametrize("vlmax", [32, 64])
@pytest.mark.parametrize("op", MAC_OPS, ids=lambda op: op.name)
def test_mac_runs_match_at_longer_vectors(op, vlmax):
    for k in (2, 4, 8):
        def block(rng, proc):
            return _mac_run(rng, proc, op, k)
        for run in WAYS:
            compiled, reference = _mac_states(
                block, [int(op), vlmax, k], vlmax, vlmax, run)
            assert compiled == reference, (k, run)


@pytest.mark.parametrize("new_vl", [5, 16, 32])
@pytest.mark.parametrize("vl", [16, 32])
def test_a_vsetvli_between_runs_rederives_their_views(vl, new_vl):
    """A run of each op before and after a vsetvli, in one block: the
    second pair runs on views sliced to the new vl."""
    def block(rng, proc):
        before = _mac_run(rng, proc, Op.VFMACC_VF, 4) + \
            _mac_run(rng, proc, Op.VINDEXMAC_VX, 3)
        after = _mac_run(rng, proc, Op.VINDEXMAC_VX, 4) + \
            _mac_run(rng, proc, Op.VFMACC_VF, 3)
        return (before + [I.addi(3, 0, new_vl), Instr(Op.VSETVLI, rd=4, rs1=3)]
                + after)
    for run in WAYS:
        compiled, reference = _mac_states(block, [vl, new_vl], vl, 32, run)
        assert compiled == reference, run
        assert compiled["vl"] == new_vl


def test_a_run_across_a_block_part_boundary():
    """A run of six MACs whose members straddle the first part's end
    runs as a run of two and a run of four."""
    filler = [I.addi(0, 0, r) for r in range(processor.BLOCK_PART - 2)]
    for op in MAC_OPS:
        def block(rng, proc):
            return filler + _mac_run(rng, proc, op, 6)
        for run in ("block", "replay"):
            compiled, reference = _mac_states(block, int(op), 16, 16, run)
            assert compiled == reference, (op, run)


def test_runs_are_found_from_the_blocks_shape():
    """Each run is as long as its registers allow; a lone MAC, a MAC
    whose registers do not step, and a run whose vd and vs2 ranges
    would overlap stop a run."""
    mac = I.vfmacc_vf
    shape = processor._shape([
        mac(8, 1, 12), mac(9, 2, 13), mac(10, 3, 14),    # run of 3
        mac(20, 1, 12),                                  # lone
        mac(4, 1, 6), mac(5, 1, 7), mac(6, 1, 8),        # 2 | overlap
        I.vindexmac_vx(0, 16, 5), I.vindexmac_vx(1, 17, 5),
        mac(2, 1, 18)])                                  # another opcode
    assert processor._runs(shape) == {0: 3, 4: 2, 7: 2}


def _nnz_slot_bodies(kernel):
    """The body blocks of a Fig. 4-shaped kernel's nnz-slot loops."""
    from repro.isa.trace import Loop
    from repro.kernels.compiler import Schedule, compile_trace
    from repro.kernels.layout import stage_spmm
    from repro.sparse import random_nm_matrix

    rng = np.random.default_rng(0)
    proc = DecoupledProcessor(ProcessorConfig.scaled_default())
    staged = stage_spmm(proc.mem, random_nm_matrix(16, 32, 1, 4, rng),
                        rng.standard_normal((32, 16)).astype(np.float32))

    def walk(nodes):
        for node in nodes:
            if isinstance(node, Loop) and node.label == "nnz-slots":
                yield node.body
            yield from walk(getattr(node, "body", ()))
    return [body for body in walk(compile_trace(kernel, staged,
                                                Schedule()).nodes)]


@pytest.mark.parametrize("kernel", ["rowwise-spmm", "indexmac-spmm"])
def test_a_fig4_inner_body_compiles_to_one_run_of_four(kernel):
    bodies = _nnz_slot_bodies(kernel)
    assert bodies
    for (block,) in bodies:
        shape = processor._shape(block.instrs)
        ((first, k),) = processor._runs(shape).items()
        assert k == 4
        assert shape[first][0] in MAC_OPS


# ----------------------------------------------------------------------
# one counter table
# ----------------------------------------------------------------------
#: The memory-system counters, which the hierarchy keeps.
MEMORY_COUNTERS = {"l1d_hits", "l1d_misses", "l2_hits", "l2_misses",
                   "l2_writebacks", "dram_reads", "dram_writes",
                   "dram_row_hits", "dram_row_misses"}


def test_class_counters_name_each_timing_class_once_by_stats_fields():
    timings = {spec.timing for spec in OPCODES.values()}
    assert set(CLASS_COUNTERS) == set(processor._CLASSES) == timings
    assert len(CLASS_COUNTERS) == 17
    ints = {f.name for f in fields(ExecutionStats) if f.type == "int"}
    for names in CLASS_COUNTERS.values():
        assert len(set(names)) == len(names)
        assert set(names) <= ints - {"instructions"} - MEMORY_COUNTERS
    assert len(COUNTERS) == len(set(COUNTERS)) == 12
    assert {"cycles", "extra", *COUNTERS, *MEMORY_COUNTERS} == \
        {f.name for f in fields(ExecutionStats)}


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_an_instruction_counts_its_class_stepped_timed_and_replayed(op):
    """One instruction adds one to ``instructions`` and to each counter
    its class names, and to nothing else, however it runs."""
    expected = dict.fromkeys(COUNTERS, 0)
    for name in ("instructions", *CLASS_COUNTERS[OPCODES[op].timing]):
        expected[name] += 1
    instr = next(instr for instr in capture.program(op, VLMAX)
                 if instr.op is op)
    counted = []
    for run in ("step", "run_block", "replay_block"):
        proc = DecoupledProcessor(ProcessorConfig.paper_default())
        capture._seed_state(proc, op, VLMAX)
        with np.errstate(all="ignore"):
            if run == "step":
                proc.step(instr)
            elif run == "run_block":
                proc.run_block(Block([instr]))
            else:
                proc.replay_block(Block([instr]), 0.0)
        counted.append({name: getattr(proc.stats(), name)
                        for name in COUNTERS})
    assert counted == [expected] * 3


# ----------------------------------------------------------------------
# a finished processor is freed by reference counting
# ----------------------------------------------------------------------
def test_processor_core_and_memory_die_with_their_last_reference():
    gc.collect()
    gc.disable()
    try:
        proc = DecoupledProcessor(ProcessorConfig.paper_default())
        proc.run([I.li(10, 3), I.vmv_x_s(5, 2)])
        block = Block([I.addi(10, 10, 1), I.vfmacc_vf(1, 2, 3)])
        proc.run_block(block)
        proc.run_loop(block, 3)
        proc.replay_block(block, proc.cycles)
        proc.replay_loop(block, 3, proc.cycles)
        refs = [weakref.ref(obj) for obj in (proc, proc.core, proc.mem)]
        del proc
        # the block's holder outlives the processor and keeps its
        # functions, but not the processor
        assert [ref() for ref in refs] == [None, None, None]
        code = block.code
        assert None not in (code.timed, code.loop, code.replayed,
                            code.replay_loop)
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", ["detailed", "batch-replay"])
def test_execute_job_leaves_no_processor_alive(monkeypatch, backend):
    built = weakref.WeakSet()

    class Recorded(DecoupledProcessor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.add(self)

    monkeypatch.setattr(runner, "DecoupledProcessor", Recorded)
    job = SimJob.for_shape(16, 64, 32, (1, 4), "indexmac-spmm",
                           backend=backend)
    gc.collect()
    gc.disable()
    try:
        assert execute_job(job).verified
        assert len(built) == 0
    finally:
        gc.enable()
