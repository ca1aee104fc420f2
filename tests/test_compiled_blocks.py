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
iterations run one block at a time; and every opcode adds the counters
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
