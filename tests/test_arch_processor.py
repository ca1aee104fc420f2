"""Functional and timing tests for the decoupled processor model."""

import numpy as np
import pytest

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.isa import I


@pytest.fixture
def proc():
    return DecoupledProcessor(ProcessorConfig.paper_default())


VL = 16


def run(proc, instrs):
    proc.run(instrs)
    return proc


# ----------------------------------------------------------------------
# scalar functional semantics
# ----------------------------------------------------------------------
def test_scalar_alu(proc):
    run(proc, [
        I.li("a0", 7),
        I.li("a1", -3),
        I.add("a2", "a0", "a1"),
        I.sub("a3", "a0", "a1"),
        I.mul("a4", "a0", "a1"),
        I.and_("a5", "a0", "a1"),
        I.slli("a6", "a0", 4),
        I.srai("a7", "a1", 1),
    ])
    xv = proc.xrf.values
    assert xv[12] == 4
    assert xv[13] == 10
    assert xv[14] == -21
    assert xv[15] == 7 & -3
    assert xv[16] == 7 << 4
    assert xv[17] == -2


def test_x0_is_hardwired(proc):
    run(proc, [I.li("zero", 55), I.add("a0", "zero", "zero")])
    assert proc.xrf.values[10] == 0


def test_slt_sltu(proc):
    run(proc, [
        I.li("a0", -1),
        I.li("a1", 1),
        I.slt("a2", "a0", "a1"),
        I.sltu("a3", "a0", "a1"),  # -1 is huge unsigned
    ])
    assert proc.xrf.values[12] == 1
    assert proc.xrf.values[13] == 0


def test_lui_sign_extends(proc):
    run(proc, [I.lui("a0", 0x80000)])
    assert proc.xrf.values[10] == -(1 << 31)


def test_scalar_memory_roundtrip(proc):
    addr = proc.mem.allocate(64)
    run(proc, [
        I.li("a0", addr),
        I.li("a1", 1234),
        I.sd("a1", "a0", 0),
        I.ld("a2", "a0", 0),
        I.sw("a1", "a0", 8),
        I.lw("a3", "a0", 8),
    ])
    assert proc.xrf.values[12] == 1234
    assert proc.xrf.values[13] == 1234


def test_load_sign_extension(proc):
    addr = proc.mem.allocate(8)
    proc.mem.store_u32(addr, 0xFFFFFFFF)
    run(proc, [I.li("a0", addr), I.lw("a1", "a0", 0), I.lwu("a2", "a0", 0)])
    assert proc.xrf.values[11] == -1
    assert proc.xrf.values[12] == 0xFFFFFFFF


def test_flw_fsw(proc):
    addr = proc.mem.allocate(8)
    proc.mem.store_f32(addr, 2.5)
    run(proc, [
        I.li("a0", addr),
        I.flw("fa0", "a0", 0),
        I.fsw("fa0", "a0", 4),
    ])
    assert proc.mem.load_f32(addr + 4) == 2.5


# ----------------------------------------------------------------------
# vector functional semantics
# ----------------------------------------------------------------------
def test_vsetvli_clamps(proc):
    run(proc, [I.li("a0", 100), I.vsetvli("a1", "a0", 0xD0)])
    assert proc.vl == VL
    assert proc.xrf.values[11] == VL
    run(proc, [I.li("a0", 5), I.vsetvli("a1", "a0", 0xD0)])
    assert proc.vl == 5


def test_vle_vse_roundtrip(proc):
    src = proc.mem.allocate(64)
    dst = proc.mem.allocate(64)
    data = np.arange(VL, dtype=np.float32) + 0.5
    proc.mem.write_array(src, data)
    run(proc, [
        I.li("a0", src),
        I.li("a1", dst),
        I.vle32(4, "a0"),
        I.vse32(4, "a1"),
    ])
    np.testing.assert_array_equal(
        proc.mem.read_array(dst, np.float32, (VL,)), data)


def test_vadd_vx_and_vi(proc):
    proc.vrf.set_i32(2, np.arange(VL))
    run(proc, [I.li("t0", 10), I.vadd_vx(3, 2, "t0"), I.vadd_vi(4, 3, -1)])
    np.testing.assert_array_equal(proc.vrf.i32[3], np.arange(VL) + 10)
    np.testing.assert_array_equal(proc.vrf.i32[4], np.arange(VL) + 9)


def test_vmul_vx(proc):
    proc.vrf.set_i32(2, np.arange(VL))
    run(proc, [I.li("t0", 3), I.vmul_vx(3, 2, "t0")])
    np.testing.assert_array_equal(proc.vrf.i32[3], np.arange(VL) * 3)


def test_vfmacc_vf_float32_exact(proc):
    b = np.linspace(-1, 1, VL).astype(np.float32)
    acc = np.full(VL, 0.25, dtype=np.float32)
    proc.vrf.set_f32(2, b)
    proc.vrf.set_f32(8, acc)
    scalar_addr = proc.mem.allocate(4)
    proc.mem.store_f32(scalar_addr, 1.5)
    run(proc, [
        I.li("a0", scalar_addr),
        I.flw("fa0", "a0", 0),
        I.vfmacc_vf(8, "fa0", 2),
    ])
    expected = acc + np.float32(1.5) * b
    np.testing.assert_array_equal(proc.vrf.f32[8], expected)


def test_vslide1down(proc):
    proc.vrf.set_i32(2, np.arange(VL))
    run(proc, [I.li("t0", 99), I.vslide1down_vx(3, 2, "t0")])
    expected = np.concatenate([np.arange(1, VL), [99]])
    np.testing.assert_array_equal(proc.vrf.i32[3], expected)


def test_vslidedown_vi(proc):
    proc.vrf.set_i32(2, np.arange(VL))
    run(proc, [I.vslidedown_vi(3, 2, 4)])
    expected = np.concatenate([np.arange(4, VL), np.zeros(4, dtype=int)])
    np.testing.assert_array_equal(proc.vrf.i32[3], expected)


def test_vslidedown_vx_beyond_vl_zeroes(proc):
    proc.vrf.set_i32(2, np.arange(VL))
    run(proc, [I.li("t0", 100), I.vslidedown_vx(3, 2, "t0")])
    np.testing.assert_array_equal(proc.vrf.i32[3], np.zeros(VL))


def test_vslidedown_vx_negative_offset_is_unsigned(proc):
    # RVV reads the offset as an unsigned XLEN value: -1 is 2**64 - 1,
    # far beyond vl, so every element reads past the source: zero
    proc.vrf.set_i32(2, np.arange(VL) + 1)
    proc.vrf.set_i32(3, np.full(VL, 9))
    run(proc, [I.li("t0", -1), I.vslidedown_vx(3, 2, "t0")])
    np.testing.assert_array_equal(proc.vrf.i32[3], np.zeros(VL))


def test_vslideup_vx_negative_offset_leaves_vd(proc):
    # an offset of 2**64 - 1 slides every element out of vl: vd keeps
    # its old value
    proc.vrf.set_i32(2, np.arange(VL) + 1)
    proc.vrf.set_i32(3, np.full(VL, 9))
    run(proc, [I.li("t0", -1), I.vslideup_vx(3, 2, "t0")])
    np.testing.assert_array_equal(proc.vrf.i32[3], np.full(VL, 9))


@pytest.mark.parametrize("vl", [1, VL // 2, VL])
def test_slides_at_short_vl_touch_only_active_elements(proc, vl):
    proc.vrf.set_i32(2, np.arange(VL) + 1)
    for vd in (3, 4, 5, 6):
        proc.vrf.set_i32(vd, np.full(VL, -7))
    proc.vl = vl
    run(proc, [I.li("t0", 2), I.li("t1", 99),
               I.vslidedown_vx(3, 2, "t0"), I.vslideup_vx(4, 2, "t0"),
               I.vslide1down_vx(5, 2, "t1"), I.vslide1up_vx(6, 2, "t1")])
    src = np.arange(VL) + 1
    tail = np.full(VL - vl, -7)
    down = np.concatenate([src[2:vl], np.zeros(min(2, vl))])
    up = np.concatenate([np.full(min(2, vl), -7), src[:max(vl - 2, 0)]])
    down1 = np.concatenate([src[1:vl], [99]])
    up1 = np.concatenate([[99], src[:vl - 1]])
    for vd, head in ((3, down), (4, up), (5, down1), (6, up1)):
        np.testing.assert_array_equal(proc.vrf.i32[vd],
                                      np.concatenate([head, tail]))


def test_vmv_family(proc):
    run(proc, [I.vmv_v_i(1, -2)])
    np.testing.assert_array_equal(proc.vrf.i32[1], np.full(VL, -2))
    run(proc, [I.li("t0", 7), I.vmv_v_x(2, "t0")])
    np.testing.assert_array_equal(proc.vrf.i32[2], np.full(VL, 7))
    run(proc, [I.vmv_v_v(3, 1)])
    np.testing.assert_array_equal(proc.vrf.i32[3], np.full(VL, -2))


def test_vmv_x_s_and_vfmv_f_s(proc):
    proc.vrf.set_i32(2, np.arange(VL) + 41)
    run(proc, [I.vmv_x_s("a0", 2)])
    assert proc.xrf.values[10] == 41
    proc.vrf.set_f32(3, np.full(VL, 2.75, dtype=np.float32))
    run(proc, [I.vfmv_f_s("fa1", 3)])
    assert proc.frf.values[11] == 2.75


def test_vfmv_s_f_writes_element0_only(proc):
    proc.vrf.set_f32(4, np.ones(VL, dtype=np.float32))
    addr = proc.mem.allocate(4)
    proc.mem.store_f32(addr, 9.0)
    run(proc, [I.li("a0", addr), I.flw("fa0", "a0", 0), I.vfmv_s_f(4, "fa0")])
    assert proc.vrf.f32[4, 0] == 9.0
    np.testing.assert_array_equal(proc.vrf.f32[4, 1:], 1.0)


def test_vindexmac_semantics(proc):
    """vd[i] += vs2[0] * vrf[rs[4:0]][i] — the paper's definition."""
    b_row = np.arange(VL, dtype=np.float32)
    proc.vrf.set_f32(20, b_row)  # pretend a B tile row lives in v20
    values = np.zeros(VL, dtype=np.float32)
    values[0] = 3.0  # vs2[0]
    proc.vrf.set_f32(1, values)
    acc = np.full(VL, 10.0, dtype=np.float32)
    proc.vrf.set_f32(8, acc)
    run(proc, [I.li("t0", 20), I.vindexmac_vx(8, 1, "t0")])
    np.testing.assert_array_equal(
        proc.vrf.f32[8], acc + np.float32(3.0) * b_row)


def test_vindexmac_uses_only_5_lsbs(proc):
    proc.vrf.set_f32(20, np.ones(VL, dtype=np.float32))
    values = np.zeros(VL, dtype=np.float32)
    values[0] = 2.0
    proc.vrf.set_f32(1, values)
    proc.vrf.set_f32(8, np.zeros(VL, dtype=np.float32))
    run(proc, [I.li("t0", 20 + 32 * 4), I.vindexmac_vx(8, 1, "t0")])
    np.testing.assert_array_equal(proc.vrf.f32[8], np.full(VL, 2.0))


def test_vector_respects_vl(proc):
    proc.vrf.set_i32(2, np.arange(VL))
    proc.vrf.set_i32(3, np.zeros(VL, dtype=np.int32))
    run(proc, [
        I.li("a0", 4),
        I.vsetvli("zero", "a0", 0xD0),
        I.li("t0", 1),
        I.vadd_vx(3, 2, "t0"),
    ])
    np.testing.assert_array_equal(proc.vrf.i32[3, :4], np.arange(4) + 1)
    np.testing.assert_array_equal(proc.vrf.i32[3, 4:], 0)


# ----------------------------------------------------------------------
# timing behaviour
# ----------------------------------------------------------------------
def test_cycles_monotonic(proc):
    before = proc.cycles
    run(proc, [I.nop()] * 100)
    assert proc.cycles > before


def test_dispatch_width_limits_throughput():
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    # 800 independent nops at 8-wide dispatch need >= 100 cycles
    proc.run([I.nop()] * 800)
    assert proc.cycles >= 100


def test_dependency_chain_slower_than_independent():
    cfg = ProcessorConfig.paper_default()
    dep = DecoupledProcessor(cfg)
    dep.run([I.addi("a0", "a0", 1)] * 200)
    indep = DecoupledProcessor(cfg)
    indep.run([I.addi(f"a{i % 6}", "zero", 1) for i in range(200)])
    assert dep.cycles > indep.cycles


def test_vector_load_latency_longer_on_cold_miss():
    cfg = ProcessorConfig.paper_default()
    proc = DecoupledProcessor(cfg)
    addr = proc.mem.allocate(64)
    proc.run([I.li("a0", addr), I.vle32(1, "a0")])
    cold = proc.cycles
    proc.run([I.vle32(2, "a0")])
    warm_delta = proc.cycles - cold
    assert warm_delta < cold


def test_v2s_roundtrip_latency_exposed():
    """A scalar consumer of vmv.x.s waits for the transfer back."""
    cfg = ProcessorConfig.paper_default()
    proc = DecoupledProcessor(cfg)
    proc.vrf.set_i32(2, np.arange(VL))
    proc.run([I.vmv_x_s("t0", 2), I.addi("t1", "t0", 1)])
    with_move = proc.x_ready[6]
    assert with_move >= cfg.vector.v2s_latency


def test_vector_in_order_issue_serializes():
    """Independent vector adds still issue at one per cycle."""
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    n = 64
    stream = []
    for i in range(n):
        stream.append(I.vadd_vi(1 + (i % 8), 9 + (i % 8), 1))
    proc.run(stream)
    assert proc.cycles >= n  # 1/cycle issue floor


def test_vindexmac_faster_than_load_macc_sequence():
    """The core claim: indexed VRF read beats a memory load round trip."""
    cfg = ProcessorConfig.paper_default()

    # Proposed: vmv.x.s + vindexmac (B row already in v20)
    p1 = DecoupledProcessor(cfg)
    p1.vrf.set_f32(20, np.ones(VL, dtype=np.float32))
    p1.vrf.set_i32(2, np.full(VL, 20, dtype=np.int32))
    p1.vrf.set_f32(1, np.ones(VL, dtype=np.float32))
    stream1 = []
    for _ in range(50):
        stream1 += [I.vmv_x_s("t0", 2), I.vindexmac_vx(8, 1, "t0")]
    p1.run(stream1)

    # Baseline: vmv.x.s (address) + vle32 + vfmv.f.s + vfmacc
    p2 = DecoupledProcessor(cfg)
    addr = p2.mem.allocate(64)
    p2.vrf.set_i32(2, np.full(VL, addr, dtype=np.int32))
    p2.vrf.set_f32(1, np.ones(VL, dtype=np.float32))
    stream2 = []
    for _ in range(50):
        stream2 += [
            I.vmv_x_s("t0", 2),
            I.vle32(3, "t0"),
            I.vfmv_f_s("fa0", 1),
            I.vfmacc_vf(8, "fa0", 3),
        ]
    p2.run(stream2)
    assert p1.cycles < p2.cycles


def test_store_load_ordering(proc):
    """A vector load after a vector store to the same line sees the data
    and is ordered after it in time."""
    addr = proc.mem.allocate(64)
    proc.vrf.set_f32(1, np.full(VL, 5.0, dtype=np.float32))
    proc.run([
        I.li("a0", addr),
        I.vse32(1, "a0"),
        I.vle32(2, "a0"),
    ])
    np.testing.assert_array_equal(proc.vrf.f32[2], np.full(VL, 5.0))


def test_stats_counters(proc):
    addr = proc.mem.allocate(128)
    proc.run([
        I.li("a0", addr),
        I.vle32(1, "a0"),
        I.vse32(1, "a0"),
        I.vmv_x_s("t0", 1),
        I.vindexmac_vx(8, 1, "t0"),
        I.vslide1down_vx(1, 1, "zero"),
    ])
    s = proc.stats()
    assert s.vector_loads == 1
    assert s.vector_stores == 1
    assert s.vector_mem_instrs == 2
    assert s.vector_to_scalar_moves == 1
    assert s.vindexmac_count == 1
    assert s.slide_count == 1
    assert s.instructions == 6
    assert s.scalar_instructions == 1
    assert s.vector_instructions == 5
    assert s.ipc > 0
    assert "cycles" in s.summary()
