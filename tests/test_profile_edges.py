"""``profile_trace`` edge cases: the static walk must stay exact.

The analytic backends (and the engine's bulk sweep path) rest on the
walk's exactness claim: every instruction-class count equals a flat
recount of the expanded stream, for any loop nesting.  These tests pin
the tricky shapes: nested loops with mid-body ``vsetvli``, untrackable
AVLs, zero-iteration loops (constructible by hand; ``TraceBuilder``
discards them), and prologue-only shard traces where the steady tile
loop vanishes entirely.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.analytic.calibration import profile_trace
from repro.arch.config import ProcessorConfig
from repro.isa.instructions import (
    BRANCH_OPS,
    SCALAR_LOAD_OPS,
    SCALAR_STORE_OPS,
    VECTOR_OPS,
    VECTOR_TO_SCALAR_OPS,
    I,
    Op,
)
from repro.isa.trace import Block, Loop, Trace, TraceBuilder
from repro.kernels.compiler import SPECS, get_trace_kernel
from repro.kernels.compiler.spec import Schedule
from repro.kernels.layout import plan_spmm

#: The kernels that compile from N:M geometry (what the bulk path runs).
NM_KERNELS = sorted(name for name, spec in SPECS.items()
                    if spec.operand == "nm-sparse")


def _config(line_bytes=32):
    base = ProcessorConfig.scaled_default()
    return replace(base, l2=replace(base.l2, line_bytes=line_bytes))


#: The walk's MAC and slide classes, spelled out here rather than
#: derived from the opcode table, so the recount stays independent.
MAC_OPS = frozenset({Op.VFMACC_VF, Op.VFMACC_VV, Op.VMACC_VV, Op.VMACC_VX,
                     Op.VREDSUM_VS, Op.VFREDUSUM_VS})
SLIDE_OPS = frozenset({Op.VSLIDE1DOWN_VX, Op.VSLIDEDOWN_VX,
                       Op.VSLIDEDOWN_VI, Op.VSLIDEUP_VX, Op.VSLIDEUP_VI,
                       Op.VSLIDE1UP_VX})


def _flat_counts(trace) -> Counter:
    """Independent recount over the expanded flat stream, using the
    same classification as the walk."""
    c = Counter()
    for instr in trace.instructions():
        op = instr.op
        c["instructions"] += 1
        if op in VECTOR_OPS:
            c["vector_instructions"] += 1
            if op is Op.VLE32:
                c["vector_loads"] += 1
            elif op is Op.VSE32:
                c["vector_stores"] += 1
            elif op in VECTOR_TO_SCALAR_OPS:
                c["v2s_moves"] += 1
            elif op is Op.VINDEXMAC_VX:
                c["vindexmac"] += 1
            elif op in MAC_OPS:
                c["vector_mac"] += 1
            elif op in SLIDE_OPS:
                c["slides"] += 1
            elif op is not Op.VSETVLI:
                c["vector_alu"] += 1
        else:
            c["scalar_instructions"] += 1
            if op in SCALAR_LOAD_OPS:
                c["scalar_loads"] += 1
            elif op in SCALAR_STORE_OPS:
                c["scalar_stores"] += 1
            elif op in BRANCH_OPS:
                c["branches"] += 1
    return c


def _assert_counts_match(trace):
    profile = profile_trace(trace, _config())
    flat = _flat_counts(trace)
    assert profile.instructions == trace.dynamic_length
    assert profile.instructions == flat["instructions"]
    assert profile.vector_instructions == flat["vector_instructions"]
    assert profile.scalar_instructions == flat["scalar_instructions"]
    assert profile.vector_loads == flat["vector_loads"]
    assert profile.vector_stores == flat["vector_stores"]
    assert profile.vector_to_scalar_moves == flat["v2s_moves"]
    assert profile.vindexmac_count == flat["vindexmac"]
    # vindexmac accumulates, so it is a MAC too
    assert profile.vector_mac == flat["vector_mac"] + flat["vindexmac"]
    assert profile.slide_count == flat["slides"]
    assert profile.vector_alu == flat["vector_alu"]
    assert profile.scalar_loads == flat["scalar_loads"]
    assert profile.scalar_stores == flat["scalar_stores"]
    assert profile.branches == flat["branches"]
    return profile


def _nested_vsetvli_trace():
    tb = TraceBuilder()
    tb.emit(I.addi(5, 0, 16), I.vsetvli(0, 5, 0))    # vl = 16
    with tb.loop(3):
        tb.emit(I.vle32(1, 6))                       # vl=16: 2 lines @32B
        tb.emit(I.addi(7, 0, 5), I.vsetvli(0, 7, 0))  # mid-body: vl = 5
        with tb.loop(2):
            tb.emit(I.vle32(2, 6))                   # vl=5: 1 line @32B
        tb.emit(I.addi(8, 0, 16), I.vsetvli(0, 8, 0))  # restore vl = 16
    tb.emit(I.vse32(1, 6))                           # vl=16: 2 lines
    return tb.build()


def test_nested_loops_with_mid_body_vsetvli():
    trace = _nested_vsetvli_trace()
    profile = _assert_counts_match(trace)
    assert profile.loop_entries == 1 + 3   # outer once, inner per outer
    assert profile.vle_lines == 3 * 2 + 3 * 2 * 1
    assert profile.vse_lines == 2          # exit vl survives the loops


def test_untrackable_avl_pessimises_to_vlmax():
    tb = TraceBuilder()
    # mul's destination is untrackable, so the AVL is unknown and the
    # walk must assume vlmax (16 lanes) for the line features
    tb.emit(I.addi(5, 0, 4), I.mul(9, 5, 5), I.vsetvli(0, 9, 0))
    tb.emit(I.vle32(1, 6))
    trace = tb.build()
    profile = _assert_counts_match(trace)
    assert profile.vle_lines == 2          # 4 * 16 / 32, not 4 * 4 / 32


def test_vmv_x_s_result_is_not_a_tracked_constant():
    # vmv.x.s overwrites x5 with a runtime vector element, so the
    # earlier `li x5, 4` no longer names the AVL: the walk must assume
    # vlmax, as a detailed run with v1[0] = 16 sets vl = 16 (2 lines)
    from repro.arch import DecoupledProcessor

    tb = TraceBuilder()
    tb.emit(I.addi(5, 0, 4), I.vmv_x_s(5, 1), I.vsetvli(0, 5, 0),
            I.vle32(2, 6))
    trace = tb.build()
    profile = _assert_counts_match(trace)
    proc = DecoupledProcessor(_config())
    proc.core.vrf.i32[1, 0] = 16
    proc.run(trace.instructions())
    assert proc.core.vl == 16
    assert profile.vle_lines == -(-4 * proc.core.vl // 32) == 2


def test_zero_iteration_loop_contributes_nothing():
    # TraceBuilder discards empty loops, so build the Loop by hand:
    # its body must add no counts, no loop entry, and must not leak its
    # vsetvli into the vl of the instructions after the loop
    body = [Block([I.addi(6, 0, 16), I.vsetvli(0, 6, 0), I.vle32(2, 6)])]
    trace = Trace([
        Block([I.addi(5, 0, 4), I.vsetvli(0, 5, 0)]),   # vl = 4
        Loop(body, repeat=0),
        Block([I.vle32(1, 6)]),                         # vl still 4
    ])
    assert trace.dynamic_length == 3
    profile = _assert_counts_match(trace)
    assert profile.loop_entries == 0
    assert profile.vector_loads == 1
    assert profile.vle_lines == 1          # 4 * 4 / 32 rounds up to 1


def test_tile_loops_scale_their_template_but_are_not_loop_entries():
    tb = TraceBuilder()
    tb.emit(I.addi(5, 0, 16), I.vsetvli(0, 5, 0))       # vl = 16
    with tb.tile_loop(0, 5) as jt:
        tb.li_addr(6, 0x4000 + 64 * jt)
        with tb.tile_loop(1, 4) as kt:
            tb.li(7, 4 * kt)
            with tb.loop(3):
                tb.emit(I.vle32(1, 6), I.addi(6, 6, 64))
    tb.emit(I.addi(8, 0, 4), I.vsetvli(0, 8, 0), I.vse32(1, 6))
    trace = tb.build()
    profile = _assert_counts_match(trace)
    assert profile.loop_entries == 5 * 3       # one per inner loop start
    assert profile.vle_lines == 5 * 3 * 3 * 2  # vl = 16: 2 lines @32B
    assert profile.vse_lines == 1              # vl = 4 after the tiles


def test_trace_builder_discards_zero_repeat_loops():
    tb = TraceBuilder()
    tb.emit(I.addi(5, 0, 1))
    with tb.loop(0):
        tb.emit(I.vle32(1, 6))
    trace = tb.build()
    assert trace.dynamic_length == 1
    assert all(type(node) is Block for node in trace.nodes)


@pytest.mark.parametrize("kernel", NM_KERNELS)
def test_prologue_only_shard_trace_profiles_exactly(kernel):
    # 20 rows over 3 cores: every shard is smaller than one 16-row
    # tile, so the steady tile loop vanishes and only prologue and
    # remainder code is left — the walk must still recount exactly
    staged = plan_spmm(20, 96, 32, 2, 4,
                       ProcessorConfig.scaled_default().memory_bytes)
    for shard in range(3):
        schedule = Schedule(tile_rows=16, cores=3).for_shard(shard)
        trace = get_trace_kernel(kernel)(staged, schedule)
        assert trace.dynamic_length > 0
        _assert_counts_match(trace)


@pytest.mark.parametrize("kernel", NM_KERNELS)
def test_full_kernel_trace_profiles_exactly(kernel):
    # the non-degenerate case, as a control for the shard test
    staged = plan_spmm(32, 96, 32, 2, 4,
                       ProcessorConfig.scaled_default().memory_bytes)
    trace = get_trace_kernel(kernel)(staged, Schedule())
    _assert_counts_match(trace)
